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
from operator import ge

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


DEFAULT_PARETO_BUDGET = 1_000_000  # assignments a Pareto check scans before giving up


@dataclass(frozen=True)
class ParetoResult:
    verdict: str  # "PO" | "Dominated" | "BudgetExceeded"
    dominator: Allocation | None = None


def is_pareto_optimal(inst: Instance, alloc: Allocation, budget: int = DEFAULT_PARETO_BUDGET) -> ParetoResult:
    """Brute-force Pareto check over :meth:`Instance.utility_vectors`.

    Scans at most ``budget`` integer vectors (units of 1/``inst.scale``), in
    lexicographic order; if the space is larger and no dominating allocation
    was found within the budget, reports ``BudgetExceeded``.  The dominator
    returned is the lexicographically smallest one, which makes parallel or
    resumed scans deterministic.  A ``budget`` below 1 is refused.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    base = _scaled_own(inst, alloc)
    for scanned, (assignment, utilities) in enumerate(inst.utility_vectors()):
        if scanned >= budget:
            return ParetoResult("BudgetExceeded")
        if all(map(ge, utilities, base)) and utilities != base:
            return ParetoResult("Dominated", Allocation(assignment))
    return ParetoResult("PO")
