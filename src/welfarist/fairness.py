"""Exact fairness and efficiency predicates on allocations.

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


def is_ef1(inst: Instance, alloc: Allocation) -> Ef1Report:
    """Check envy-freeness up to one good, exactly, for every ordered pair."""
    alloc.validate_for(inst)
    bundles = alloc.bundles(inst.n)
    own = inst.utility_vector(alloc.assignment)
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
    own = inst.utility_vector(alloc.assignment)
    for i in range(inst.n):
        for j in range(inst.n):
            if i != j and inst.bundle_utility(i, bundles[j]) > own[i]:
                return False
    return True


@dataclass(frozen=True)
class ParetoResult:
    verdict: str  # "PO" | "Dominated" | "BudgetExceeded"
    dominator: Allocation | None = None


def is_pareto_optimal(inst: Instance, alloc: Allocation, budget: int = 1_000_000) -> ParetoResult:
    """Brute-force Pareto check over :meth:`Instance.utility_vectors`.

    Scans at most ``budget`` integer vectors (units of 1/``inst.scale``), in
    lexicographic order; if the space is larger and no dominating allocation
    was found within the budget, reports ``BudgetExceeded``.  The dominator
    returned is the lexicographically smallest one, which makes parallel or
    resumed scans deterministic.
    """
    alloc.validate_for(inst)
    base = [int(u * inst.scale) for u in inst.utility_vector(alloc.assignment)]
    for scanned, (assignment, utilities) in enumerate(inst.utility_vectors()):
        if scanned >= budget:
            return ParetoResult("BudgetExceeded")
        if all(map(ge, utilities, base)) and utilities != base:
            return ParetoResult("Dominated", Allocation(assignment))
    return ParetoResult("PO")
