"""EF1 / EF / Pareto predicates, including the existential-definition oracle."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from welfarist.constructions import chain_instance, chain_shifted_allocation
from welfarist.fairness import Ef1Report, ParetoResult, is_ef, is_ef1, is_pareto_optimal
from welfarist.functions import parse_welfare
from welfarist.model import Allocation, InfeasibleConstraintError, Instance, random_instance
from welfarist.solver import enumerate_maximizers


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
        # Budgets count search states entered, the root included.  With a and b goods
        # given to agents 0 and 1, the slacks are (10 - b, 10 - a), so a state is kept
        # iff a, b <= 10: one state per (a, b) in [0, 10]**2, each entered once, the
        # memo skipping its repeats.  The only complete one, (10, 10), is the base: PO
        # after 121 states.
        inst = Instance.from_rows([[1] * 20, [1] * 20])
        balanced = Allocation(tuple(g % 2 for g in range(20)))
        assert is_pareto_optimal(inst, balanced, budget=120).verdict == "BudgetExceeded"
        assert is_pareto_optimal(inst, balanced, budget=121).verdict == "PO"

    def test_dominator_is_lexicographically_least(self):
        inst = Instance.from_rows([[1, 1], [0, 0]])
        result = is_pareto_optimal(inst, Allocation((1, 1)))
        assert result.verdict == "Dominated"
        assert result.dominator.assignment == (0, 0)

    def test_budget_boundary(self):
        # Row sums are 3, so the root's slacks are 3 - base.  Giving a good to one agent
        # lowers the other's slack by the other's value for it; a negative slack drops
        # the state, and a complete state with a positive slack is a dominator.
        inst = Instance.from_rows([[1, 2], [2, 1]])
        # (1, 0) gives (2, 2), root slacks (1, 1).  Good 0 to agent 0 drops s1 to -1; to
        # agent 1 it leaves (0, 1), state 2.  There good 1 to agent 0 reaches (0, 0),
        # state 3, the base again; to agent 1 it drops s0 to -2.  PO after 3 states.
        po = Allocation((1, 0))
        assert is_pareto_optimal(inst, po, budget=3).verdict == "PO"
        assert is_pareto_optimal(inst, po, budget=2).verdict == "BudgetExceeded"
        # (0, 1) gives (1, 1), root slacks (2, 2).  Good 0 to agent 0 gives (2, 0), state
        # 2, whose one kept child is (0, 0), state 3.  Good 0 to agent 1 gives (1, 2),
        # state 4, and then good 1 to agent 0 gives (1, 1), state 5: the dominator (1, 0).
        dominated = Allocation((0, 1))
        result = is_pareto_optimal(inst, dominated, budget=5)
        assert result.verdict == "Dominated"
        assert result.dominator.assignment == (1, 0)
        assert is_pareto_optimal(inst, dominated, budget=4).verdict == "BudgetExceeded"

    def test_budget_below_one_is_refused(self):
        inst = Instance.from_rows([[1, 2], [2, 1]])
        assert is_pareto_optimal(inst, Allocation((1, 0)), budget=1).verdict == "BudgetExceeded"
        for budget in (0, -5):
            with pytest.raises(ValueError):
                is_pareto_optimal(inst, Allocation((1, 0)), budget=budget)

    def test_deep_search_is_iterative(self):
        # 1,200 goods put 1,201 states on the search path, past the default recursion limit
        inst = Instance.from_rows([[1] * 1200, [1] * 1200])
        balanced = Allocation(tuple(g % 2 for g in range(1200)))
        assert is_pareto_optimal(inst, balanced) == ParetoResult("PO")


def scaled_utilities(inst, assignment):
    """Each agent's utility for its bundle, in units of 1/``inst.scale``."""
    utilities = [0] * inst.n
    for g, agent in enumerate(assignment):
        utilities[agent] += inst.scaled[agent][g]
    return utilities


def walk_dominator(inst, alloc):
    """The first dominator in a walk of the n**m assignments in lexicographic order, or None."""
    base = scaled_utilities(inst, alloc.assignment)
    for assignment in itertools.product(range(inst.n), repeat=inst.m):
        utilities = scaled_utilities(inst, assignment)
        if all(u >= b for u, b in zip(utilities, base)) and utilities != base:
            return assignment
    return None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 4),
    m=st.integers(0, 8),
    cls=st.sampled_from(["unrestricted", "integer", "binary", "two_value", "identical_good", "normalized"]),
    max_value=st.sampled_from([1, 3, 1000]),
    seed=st.integers(0, 2**30),
    zero_row=st.none() | st.integers(0, 3),
    rule=st.sampled_from(["log", "pmean:1", "pmean:-1"]),
)
def test_search_matches_the_walk(n, m, cls, max_value, seed, zero_row, rule):
    """Verdict and dominator equal the walk's, for maximizers, all-to-agent-0 and random bases."""
    try:
        inst = random_instance(n, m, cls, max_value, seed=seed)
    except InfeasibleConstraintError:
        assume(False)
    if zero_row is not None and zero_row < n:
        rows = [(0,) * m if i == zero_row else row for i, row in enumerate(inst.utilities)]
        inst = Instance.from_rows(rows)
    rng = random.Random(seed)
    maxima = enumerate_maximizers(inst, parse_welfare(rule)).allocations
    probes = [maxima[0], maxima[-1], Allocation((0,) * m)]
    probes.append(Allocation(tuple(rng.randrange(n) for _ in range(m))))
    for alloc in probes:
        expected = walk_dominator(inst, alloc)
        want = ParetoResult("PO") if expected is None else ParetoResult("Dominated", Allocation(expected))
        assert is_pareto_optimal(inst, alloc) == want
