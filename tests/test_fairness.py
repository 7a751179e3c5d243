"""EF1 / EF / Pareto predicates, including the existential-definition oracle."""

import itertools
import random
from fractions import Fraction

import pytest

from welfarist.constructions import chain_instance, chain_shifted_allocation
from welfarist.fairness import Ef1Report, is_ef, is_ef1, is_pareto_optimal
from welfarist.model import Allocation, Instance, random_instance


def ef1_existential(inst, alloc):
    """Direct remove-one-good definition; independent of the max-good shortcut."""
    bundles = alloc.bundles(inst.n)
    for i in range(inst.n):
        own = inst.bundle_utility(i, bundles[i])
        for j in range(inst.n):
            if i == j or not bundles[j]:
                continue
            fine = any(
                own >= inst.bundle_utility(i, [g for g in bundles[j] if g != drop])
                for drop in bundles[j]
            )
            if not fine:
                return False
    return True


def ef1_reference(inst, alloc):
    """Max-good margins added in Fractions: u_i(A_j) - max_g u_i(g) - u_i(A_i)."""
    bundles = alloc.bundles(inst.n)
    violations = []
    for i in range(inst.n):
        own = inst.bundle_utility(i, bundles[i])
        for j in range(inst.n):
            if i == j or not bundles[j]:
                continue
            best = max(inst.utilities[i][g] for g in bundles[j])
            margin = inst.bundle_utility(i, bundles[j]) - best - own
            if margin > 0:
                violations.append((i, j, margin))
    return Ef1Report(not violations, tuple(violations))


def ef_reference(inst, alloc):
    bundles = alloc.bundles(inst.n)
    return all(
        inst.bundle_utility(i, bundles[j]) <= inst.bundle_utility(i, bundles[i])
        for i in range(inst.n)
        for j in range(inst.n)
    )


class TestEf1:
    def test_chain_diagonal_and_shifted_both_pass(self):
        inst = chain_instance(4)
        assert is_ef1(inst, Allocation((0, 1, 2, 3))).holds
        assert is_ef1(inst, chain_shifted_allocation(4)).holds

    def test_concentrated_identical_goods_fail(self):
        inst = Instance.from_rows([[1, 1], [1, 1]])
        report = is_ef1(inst, Allocation((0, 0)))
        assert not report.holds
        assert report.violations == ((1, 0, Fraction(1)),)

    def test_empty_envied_bundle_is_skipped(self):
        inst = Instance.from_rows([[1, 1], [1, 1]])
        report = is_ef1(inst, Allocation((0, 1)))
        assert report.holds

    def test_margin_value(self):
        inst = Instance.from_rows([[0, 5, 5, 5], [1, 0, 0, 0]])
        report = is_ef1(inst, Allocation((0, 1, 1, 1)))
        # agent 0 keeps a worthless good; dropping one 5 still leaves 10
        assert report.violations == ((0, 1, Fraction(10)),)

    def test_agreement_with_existential_definition(self):
        # unrestricted rows have denominators: the scaled sums run in units of 1/scale
        scales = set()
        for seed in range(150):
            rng = random.Random(seed)
            n, m = rng.randint(2, 3), rng.randint(0, 5)
            for cls in ("integer", "unrestricted"):
                inst = random_instance(n, m, cls, 3, seed=seed)
                scales.add(inst.scale)
                for assignment in itertools.product(range(n), repeat=m):
                    alloc = Allocation(assignment)
                    report = is_ef1(inst, alloc)
                    assert report.holds == ef1_existential(inst, alloc)
                    assert report == ef1_reference(inst, alloc)
                    assert is_ef(inst, alloc) == ef_reference(inst, alloc)
        assert max(scales) > 1


class TestEf:
    def test_single_contested_good(self):
        inst = Instance.from_rows([[1], [1]])
        assert not is_ef(inst, Allocation((0,)))

    def test_all_zero_utilities(self):
        inst = Instance.from_rows([[0, 0], [0, 0]])
        assert is_ef(inst, Allocation((0, 0)))

    def test_disjoint_fans(self):
        inst = Instance.from_rows([[1, 0], [0, 1]])
        assert is_ef(inst, Allocation((0, 1)))

    def test_ef_implies_ef1(self):
        for seed in range(80):
            rng = random.Random(1000 + seed)
            n, m = rng.randint(2, 3), rng.randint(0, 5)
            inst = random_instance(n, m, "unrestricted", 4, seed=seed)
            for _ in range(5):
                alloc = Allocation(tuple(rng.randrange(n) for _ in range(m)))
                if is_ef(inst, alloc):
                    assert is_ef1(inst, alloc).holds


class TestPareto:
    def test_chain_shifted_is_po(self):
        inst = chain_instance(4)
        assert is_pareto_optimal(inst, chain_shifted_allocation(4)).verdict == "PO"

    def test_wasted_good_is_dominated(self):
        inst = Instance.from_rows([[1], [0]])
        result = is_pareto_optimal(inst, Allocation((1,)))
        assert result.verdict == "Dominated"
        assert result.dominator.assignment == (0,)

    def test_budget_exceeded(self):
        inst = Instance.from_rows([[1] * 20, [1] * 20])
        balanced = Allocation(tuple(g % 2 for g in range(20)))
        assert is_pareto_optimal(inst, balanced, budget=1000).verdict == "BudgetExceeded"

    def test_dominator_is_lexicographically_least(self):
        inst = Instance.from_rows([[1, 1], [0, 0]])
        result = is_pareto_optimal(inst, Allocation((1, 1)))
        assert result.verdict == "Dominated"
        assert result.dominator.assignment == (0, 0)

    def test_budget_boundary(self):
        inst = Instance.from_rows([[1, 2], [2, 1]])  # 2**2 = 4 assignments
        po = Allocation((1, 0))
        assert is_pareto_optimal(inst, po, budget=4).verdict == "PO"
        assert is_pareto_optimal(inst, po, budget=3).verdict == "BudgetExceeded"
        # (0, 1) gives (1, 1); its first dominator (1, 0) sits at scan index 2
        dominated = Allocation((0, 1))
        result = is_pareto_optimal(inst, dominated, budget=3)
        assert result.verdict == "Dominated"
        assert result.dominator.assignment == (1, 0)
        assert is_pareto_optimal(inst, dominated, budget=2).verdict == "BudgetExceeded"

    def test_budget_below_one_is_refused(self):
        inst = Instance.from_rows([[1, 2], [2, 1]])
        assert is_pareto_optimal(inst, Allocation((1, 0)), budget=1).verdict == "BudgetExceeded"
        for budget in (0, -5):
            with pytest.raises(ValueError):
                is_pareto_optimal(inst, Allocation((1, 0)), budget=budget)
