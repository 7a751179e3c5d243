"""Exact fairness and efficiency predicates on allocations.

EF1 is checked through the max-good reformulation: agent i accepts agent j's
bundle iff u_i(A_i) >= u_i(A_j) - max_{g in A_j} u_i(g), which by additivity
is equivalent to the existential remove-one-good definition, and costs O(1)
per ordered pair after a single max scan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .model import Allocation, Instance


@dataclass(frozen=True)
class Ef1Report:
    """EF1 verdict with one (envious, envied, margin) entry per violated pair."""

    holds: bool
    violations: tuple[tuple[int, int, Fraction], ...]


def is_ef1(inst: Instance, alloc: Allocation) -> Ef1Report:
    """Check envy-freeness up to one good, exactly, for every ordered pair."""
    alloc.validate_for(inst)
    bundles = alloc.bundles(inst.n)
    own = [inst.bundle_utility(i, bundles[i]) for i in range(inst.n)]
    violations = []
    for i in range(inst.n):
        row = inst.utilities[i]
        for j in range(inst.n):
            if i == j or not bundles[j]:
                continue
            other = sum((row[g] for g in bundles[j]), Fraction(0))
            best_good = max(row[g] for g in bundles[j])
            margin = other - best_good - own[i]
            if margin > 0:
                violations.append((i, j, margin))
    return Ef1Report(not violations, tuple(violations))


def is_ef(inst: Instance, alloc: Allocation) -> bool:
    """Plain envy-freeness: nobody prefers another agent's bundle."""
    alloc.validate_for(inst)
    bundles = alloc.bundles(inst.n)
    own = [inst.bundle_utility(i, bundles[i]) for i in range(inst.n)]
    for i in range(inst.n):
        for j in range(inst.n):
            if i != j and inst.bundle_utility(i, bundles[j]) > own[i]:
                return False
    return True


@dataclass(frozen=True)
class ParetoResult:
    verdict: str  # "PO" | "Dominated" | "BudgetExceeded"
    dominator: Allocation | None = None

    @property
    def is_po(self) -> bool:
        return self.verdict == "PO"


def is_pareto_optimal(inst: Instance, alloc: Allocation, budget: int = 1_000_000) -> ParetoResult:
    """Brute-force Pareto check over assignment vectors in lexicographic order.

    Scans at most ``budget`` allocations; if the space is larger and no
    dominating allocation was found within the budget, reports
    ``BudgetExceeded``.  The dominator returned is the lexicographically
    smallest one, which makes parallel or resumed scans deterministic.
    """
    alloc.validate_for(inst)
    base = [inst.bundle_utility(i, alloc.bundle_of(i)) for i in range(inst.n)]
    scanned = 0
    for assignment in itertools.product(range(inst.n), repeat=inst.m):
        if scanned >= budget:
            return ParetoResult("BudgetExceeded")
        scanned += 1
        utilities = [Fraction(0)] * inst.n
        for g, agent in enumerate(assignment):
            utilities[agent] += inst.utilities[agent][g]
        some_better = False
        none_worse = True
        for u_new, u_old in zip(utilities, base):
            if u_new > u_old:
                some_better = True
            elif u_new < u_old:
                none_worse = False
                break
        if some_better and none_worse:
            return ParetoResult("Dominated", Allocation(assignment))
    return ParetoResult("PO")
