"""Exact fairness and efficiency predicates on allocations.

Every predicate sums integers: utilities in units of 1/``inst.scale`` (the
rows of ``inst.scaled``), which preserves every order and equality.  Only an
EF1 violation's margin is converted back, to an exact ``Fraction``.

EF1 is checked through the max-good reformulation: agent i accepts agent j's
bundle iff u_i(A_i) >= u_i(A_j) - max_{g in A_j} u_i(g), which by additivity
is equivalent to the existential remove-one-good definition, and costs O(1)
per ordered pair after a single max scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import Allocation, Instance


@dataclass(frozen=True)
class Ef1Report:
    """EF1 verdict with one (envious, envied, margin) entry per violated pair."""

    holds: bool
    violations: tuple[tuple[int, int, Fraction], ...]


def _scaled_own(inst: Instance, alloc: Allocation) -> list[int]:
    """Each agent's utility for its own bundle, in units of 1/``inst.scale``."""
    alloc.validate_for(inst)
    own = [0] * inst.n
    for g, agent in enumerate(alloc.assignment):
        own[agent] += inst.scaled[agent][g]
    return own


def is_ef1(inst: Instance, alloc: Allocation) -> Ef1Report:
    """Check envy-freeness up to one good, exactly, for every ordered pair."""
    own = _scaled_own(inst, alloc)
    bundles = alloc.bundles(inst.n)
    violations = []
    for i, row in enumerate(inst.scaled):
        for j, bundle in enumerate(bundles):
            if i == j or not bundle:
                continue
            vals = [row[g] for g in bundle]
            margin = sum(vals) - max(vals) - own[i]
            if margin > 0:
                violations.append((i, j, Fraction(margin, inst.scale)))
    return Ef1Report(not violations, tuple(violations))


def is_ef(inst: Instance, alloc: Allocation) -> bool:
    """Plain envy-freeness: nobody prefers another agent's bundle."""
    own = _scaled_own(inst, alloc)
    bundles = alloc.bundles(inst.n)
    for i, row in enumerate(inst.scaled):
        for j, bundle in enumerate(bundles):
            if i != j and sum(row[g] for g in bundle) > own[i]:
                return False
    return True


DEFAULT_PARETO_BUDGET = 1_000_000  # search states a Pareto check enters before giving up


@dataclass(frozen=True)
class ParetoResult:
    verdict: str  # "PO" | "Dominated" | "BudgetExceeded"
    dominator: Allocation | None = None


def is_pareto_optimal(inst: Instance, alloc: Allocation, budget: int = DEFAULT_PARETO_BUDGET) -> ParetoResult:
    """Exact Pareto check: a depth-first search for an allocation dominating ``alloc``.

    Goods are given out in order 0..m-1, each to agents 0..n-1 in turn, so
    complete assignments are reached in lexicographic order and the
    dominator returned is the lexicographically smallest one.

    A search state is the vector of slacks s_j = u_j + (what j values among
    the goods not yet given) - base_j, integers in units of 1/``inst.scale``,
    packed into one int: one bit field per agent with a guard bit above it,
    set while s_j >= 0.  Giving a good to agent i leaves s_i as it is and
    lowers every other s_j by j's value for the good, one precomputed
    subtraction.  Slacks only fall, so a state with some s_j < 0 has no
    completion that gives j at least base_j, and it is dropped.  Once every
    good is given, s_j = u_j - base_j: a state other than the all-guards
    value (every s_j = 0) is a dominator.  The completions of a state depend
    only on its depth and its slacks, so each depth keeps the states whose
    subtree held no dominator, and a repeated one is skipped.

    ``budget`` caps the states entered, the root included; the search
    reports ``BudgetExceeded`` instead of entering one more.  A ``budget``
    below 1 is refused.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    base = _scaled_own(inst, alloc)
    n, m, rows = inst.n, inst.m, inst.scaled
    # a kept field holds guard + s_j, 0 <= s_j <= row sum < 2**(width - 2), and one step
    # lowers it by at most a row sum, so no field ever borrows from the next
    width = max(map(sum, rows)).bit_length() + 2
    shifts = range(0, n * width, width)
    guards = sum(1 << (shift + width - 1) for shift in shifts)
    root = guards + sum((sum(row) - b) << shift for row, b, shift in zip(rows, base, shifts))
    cost = []  # cost[g][i]: the other agents' slack lost when agent i gets good g
    for g in range(m):
        column = [row[g] << shift for row, shift in zip(rows, shifts)]
        total = sum(column)
        cost.append([total - own for own in column])
    cleared = [set() for _ in range(m + 1)]  # per depth: states whose subtree held no dominator
    # the current path as explicit lists, not recursion: m may pass the recursion limit
    path, agents, agent, entered = [root], [], 0, 1
    while True:
        depth = len(agents)
        if depth < m and agent < n:
            child = path[depth] - cost[depth][agent]
            if (child & guards) != guards or child in cleared[depth + 1]:
                agent += 1
                continue
            entered += 1
            if entered > budget:
                return ParetoResult("BudgetExceeded")
            agents.append(agent)
            if depth + 1 == m and child != guards:
                return ParetoResult("Dominated", Allocation(tuple(agents)))
            path.append(child)
            agent = 0
        elif depth:
            cleared[depth].add(path.pop())
            agent = agents.pop() + 1
        else:
            return ParetoResult("PO")
