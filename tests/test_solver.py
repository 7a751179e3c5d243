"""Argmax enumeration, pruned search, and the structured split family."""

import itertools
import random
from fractions import Fraction
from math import inf, lcm, ulp

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from welfarist import functions, solver
from welfarist import values as value_module
from welfarist.constructions import (
    chain_instance,
    chain_positive_allocation,
    chain_shifted_allocation,
    doubling_pairs_instance,
    flat_table_function,
    flat_tie_gadget,
)
from welfarist.fairness import is_ef1, is_pareto_optimal
from welfarist.functions import OrderTerms, PiecewiseTable, WelfareFunction, parse_welfare
from welfarist.model import Allocation, Instance, random_instance
from welfarist.solver import (
    EnumerationCapExceeded,
    Exactness,
    MaximizerSet,
    chosen_all_ef1,
    enumerate_maximizers,
    solve_branch_bound,
    split_family_argmax,
    welfare_of,
)
from welfarist.values import (
    DEFAULT_PRECISION_BITS,
    NEG_INF,
    PRECISION_CEILING_ENV,
    ExactValue,
    IntervalValue,
    PrecisionPolicy,
    Relation,
    ValueOrdering,
    compare,
    render_value,
)

LOG = parse_welfare("log")
MHW = parse_welfare("harmonic:0")
PSI = parse_welfare("combo:1*pmean:0+40*pmean:-1")


class TestEnumerate:
    def test_chain_nash_maximizer_is_unique_diagonal(self):
        maxima = enumerate_maximizers(chain_instance(4), LOG)
        assert maxima.allocations == (chain_positive_allocation(4),)
        assert maxima.exactness.kind == "Exact"

    def test_chain_harmonic_maximizer_includes_shift(self):
        maxima = enumerate_maximizers(chain_instance(4), MHW)
        assert chain_shifted_allocation(4) in maxima
        assert maxima.welfare.as_fraction() == 6

    def test_zero_goods_single_allocation(self):
        inst = Instance.from_rows([[], []])
        maxima = enumerate_maximizers(inst, LOG)
        assert maxima.allocations == (Allocation(()),)

    def test_two_identical_unit_goods_split(self):
        inst = Instance.from_rows([[1, 1], [1, 1]])
        maxima = enumerate_maximizers(inst, LOG)
        assert {a.assignment for a in maxima.allocations} == {(0, 1), (1, 0)}

    def test_cap(self):
        # every 6-6-5 split is a maximizer: the 3 * 17!/(6!6!5!) assignments would pass the cap, so they are refused
        inst = Instance.from_rows([[1] * 17] * 3)
        with pytest.raises(EnumerationCapExceeded, match=": 17153136 surviving assignments"):
            enumerate_maximizers(inst, LOG)
        with pytest.raises(EnumerationCapExceeded):
            chosen_all_ef1(inst, LOG)

    def test_negative_infinity_participates(self):
        # nobody values anything: all allocations tie at f-sum of f(0)
        inst = Instance.from_rows([[0], [0]])
        maxima = enumerate_maximizers(inst, MHW)
        assert len(maxima.allocations) == 2

    def test_positive_admitting_log_never_starves(self):
        for seed in range(40):
            inst = random_instance(
                2, 4, "integer", 3, seed=seed, require_positive_admitting=True
            )
            maxima = enumerate_maximizers(inst, LOG)
            for alloc in maxima.allocations:
                assert all(
                    inst.bundle_utility(i, alloc.bundle_of(i)) > 0 for i in range(inst.n)
                )

    def test_maximizers_are_pareto_optimal(self):
        for seed in range(25):
            inst = random_instance(2, 5, "integer", 4, seed=seed)
            for fn in (LOG, MHW):
                for alloc in enumerate_maximizers(inst, fn).allocations[:3]:
                    assert is_pareto_optimal(inst, alloc).verdict == "PO"


class TestArgmax:
    @staticmethod
    def interval(lo, hi):
        return IntervalValue(mpmath.mpf(lo), mpmath.mpf(hi), bits=DEFAULT_PRECISION_BITS)

    def test_an_undecided_candidate_survives_a_greater_best(self):
        # b is undecided against a; c beats a but may still be below b
        candidates = [("a", self.interval(4, 5)), ("b", self.interval(0, 10)), ("c", self.interval(6, 7))]
        best, best_value, exactness = solver._argmax(candidates, PrecisionPolicy())
        assert best == ["b", "c"]
        assert best_value is candidates[2][1]
        assert exactness.kind == "Inconclusive"

    def test_an_undecided_candidate_below_a_greater_best_goes(self):
        candidates = [("a", self.interval(4, 5)), ("b", self.interval(3, 6)), ("c", self.interval(7, 8))]
        best, _, _ = solver._argmax(candidates, PrecisionPolicy())
        assert best == ["c"]

    def test_a_comparison_settled_later_leaves_the_label_decided(self):
        # b is undecided against a, but below the final best c: no member is undecided
        candidates = [("a", self.interval(4, 5)), ("b", self.interval(3, 6)), ("c", self.interval(7, 8))]
        best, _, exactness = solver._argmax(candidates, PrecisionPolicy())
        assert best == ["c"]
        assert exactness == Exactness("IntervalCertified", DEFAULT_PRECISION_BITS)

    def test_the_second_pass_starts_again_above_the_best(self, monkeypatch):
        """A comparator that cannot order x against a, yet puts c above a and
        x above c: the first pass ends at c, the second finds x above it and
        starts again from x, against which a stays undecided."""
        known = {("x", "a"): Relation.INCONCLUSIVE, ("c", "a"): Relation.GREATER, ("x", "c"): Relation.GREATER}
        flipped = {Relation.GREATER: Relation.LESS, Relation.INCONCLUSIVE: Relation.INCONCLUSIVE}

        def compare(lhs, rhs, policy):
            relation = known.get((lhs, rhs)) or flipped[known[rhs, lhs]]
            return ValueOrdering(relation)

        monkeypatch.setattr(solver, "compare", compare)
        best, best_value, exactness = solver._argmax([(key, key) for key in "axc"], PrecisionPolicy())
        assert (best, best_value, exactness.kind) == (["a", "x"], "x", "Inconclusive")

    @pytest.mark.parametrize("size, best_at", [(1, 0), (5, 0), (5, 2), (5, 4), (9, 6)])
    def test_the_second_pass_reuses_the_first_pass_orderings(self, monkeypatch, size, best_at):
        """A decided list of N candidates whose best sits at index b takes N - 1
        comparisons, then b: those after the best were compared with it already."""
        calls = []
        real = solver.compare
        monkeypatch.setattr(solver, "compare", lambda *args: calls.append(args) or real(*args))
        welfare = [ExactValue.from_rational(Fraction(i, 1 + i)) for i in range(size)]
        welfare.insert(best_at, welfare.pop())  # the largest at index best_at
        best, best_value, exactness = solver._argmax(list(enumerate(welfare)), PrecisionPolicy())
        assert (best, best_value, exactness) == ([best_at], welfare[best_at], Exactness("Exact"))
        assert len(calls) == (size - 1) + best_at

    def test_two_multisets_that_tie_exactly_are_both_kept(self):
        # sqrt(8) + sqrt(2) = sqrt(18): (0, 0) and (0, 1) have different utilities and equal welfare
        maxima = enumerate_maximizers(Instance.from_rows([[8, 10], [0, 2]]), parse_welfare("pmean:1/2"))
        assert [a.assignment for a in maxima.allocations] == [(0, 0), (0, 1)]
        assert maxima.exactness == Exactness("IntervalCertified", DEFAULT_PRECISION_BITS)


# values with exact ties: sqrt(8) + sqrt(2) = sqrt(18) and 2^(1/3) + 16^(1/3) = 54^(1/3)
_TIE_VALUES = st.sampled_from([0, 1, 2, 8, 16, 18, 52, 54])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(["pmean:1/2", "pmean:1/3"]),
    st.integers(1, 3).flatmap(
        lambda m: st.lists(st.lists(_TIE_VALUES, min_size=m, max_size=m), min_size=2, max_size=2)
    ),
)
def test_a_small_precision_ceiling_keeps_every_maximizer(spec, rows):
    """Under a 24-bit ceiling the argmax set holds every member of the set
    under the default ceiling, and equals it when both labels are decided."""
    inst, fn = Instance.from_rows(rows), parse_welfare(spec)
    full = enumerate_maximizers(inst, fn)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(PRECISION_CEILING_ENV, "24")
        small = enumerate_maximizers(inst, fn)
    assert set(full.allocations) <= set(small.allocations)
    if "Inconclusive" not in (full.exactness.kind, small.exactness.kind):
        assert small.allocations == full.allocations


class TestBruteForceOracle:
    """Full argmax sets and first dominators, rebuilt without the assignment walk."""

    # rules whose values on integer utilities admit an exact integer order key
    KEYED = ["log", "modlog:1", "modlog:2", "pmean:0", "pmean:1", "pmean:2", "pmean:-1",
             "harmonic:0", "harmonic:-1", "harmonic:-3/4"]

    @staticmethod
    def oracle_argmax(inst, fn):
        welfare = [
            (a, welfare_of(inst, fn, Allocation(a)))
            for a in itertools.product(range(inst.n), repeat=inst.m)
        ]
        best = welfare[0][1]
        for _, w in welfare:
            relation = compare(w, best).relation
            assert relation is not Relation.INCONCLUSIVE
            if relation is Relation.GREATER:
                best = w
        return [a for a, w in welfare if compare(w, best).relation is Relation.EQUAL], best

    def assert_oracle_argmax(self, inst, fn, keyed):
        maxima = enumerate_maximizers(inst, fn)
        expected, best = self.oracle_argmax(inst, fn)
        assert [a.assignment for a in maxima.allocations] == expected
        assert compare(maxima.welfare, best).relation is Relation.EQUAL
        if keyed:
            assert maxima.exactness.kind == "Exact"
        return maxima, best

    def assert_first_dominators(self, inst, probes):
        for alloc in probes:
            expected = self.oracle_dominator(inst, alloc)
            result = is_pareto_optimal(inst, alloc)
            assert result.verdict == ("PO" if expected is None else "Dominated")
            assert (result.dominator and result.dominator.assignment) == expected

    @staticmethod
    def oracle_dominator(inst, alloc):
        def vector(a):
            return [inst.bundle_utility(i, Allocation(a).bundle_of(i)) for i in range(inst.n)]

        base = vector(alloc.assignment)
        for a in itertools.product(range(inst.n), repeat=inst.m):
            u = vector(a)
            if all(x >= y for x, y in zip(u, base)) and u != base:
                return a
        return None

    @pytest.mark.parametrize("spec", [*KEYED, "pmean:1/2"])
    def test_full_argmax_and_first_dominator(self, spec):
        fn = parse_welfare(spec)
        for seed in range(40):
            rng = random.Random(seed)
            inst = random_instance(rng.randint(2, 3), rng.randint(1, 5), "integer", 4, seed=seed)
            maxima, _ = self.assert_oracle_argmax(inst, fn, spec in self.KEYED)
            probes = [maxima.allocations[0], Allocation((0,) * inst.m)]
            probes.append(Allocation(tuple(rng.randrange(inst.n) for _ in range(inst.m))))
            self.assert_first_dominators(inst, probes)

    @pytest.mark.parametrize("spec", ["log", "modlog:1", "pmean:1", "pmean:2", "pmean:-1", "pmean:1/2"])
    def test_scaled_utilities(self, spec):
        # utilities with a common denominator d > 1: seeded rationals, and
        # pairwise coprime denominators near 1,000, where d exceeds 2**64
        fn = parse_welfare(spec)
        primes = [967, 971, 977, 983, 991, 997, 1009, 1013, 1019, 1021, 1031, 1033]
        coprime = Instance.from_rows(
            [[Fraction(200 + 61 * (4 * i + g), primes[4 * i + g]) for g in range(4)] for i in range(3)]
        )
        assert lcm(*(u.denominator for row in coprime.utilities for u in row)) > 2**64
        instances = [coprime]
        for seed in range(30):
            rng = random.Random(seed)
            instances.append(random_instance(rng.randint(2, 3), rng.randint(1, 5), "unrestricted", 4, seed=seed))
        rng = random.Random(spec)
        for inst in instances:
            maxima, best = self.assert_oracle_argmax(inst, fn, spec in self.KEYED)
            _, welfare = solve_branch_bound(inst, fn)
            assert compare(welfare, best).relation is Relation.EQUAL
            probes = [maxima.allocations[0], Allocation((0,) * inst.m)]
            probes.append(Allocation(tuple(rng.randrange(inst.n) for _ in range(inst.m))))
            self.assert_first_dominators(inst, probes)

    @pytest.mark.parametrize("spec", ["log", "modlog:1/2"])
    def test_rational_utilities(self, spec):
        fn = parse_welfare(spec)
        for seed in range(40):
            rng = random.Random(seed)
            inst = random_instance(rng.randint(2, 3), rng.randint(1, 5), "unrestricted", 4, seed=seed)
            self.assert_oracle_argmax(inst, fn, keyed=True)

    @pytest.mark.parametrize(
        "rows",
        [[[3], [1], [2]], [[1, 2], [2, 1], [1, 1]], [[0, 0, 0], [1, 2, 3]], [[1, 2], [0, 0], [4, 1]]],
    )
    @pytest.mark.parametrize(
        # keyed rules, then rules scored by float bounds
        "spec", ["log", "harmonic:-1", "pmean:-1", "combo:1*pmean:0+40*pmean:-1", "pmean:-1/2"]
    )
    def test_every_assignment_negative_infinite(self, spec, rows):
        # more agents than goods, or an agent who values nothing: f(0) = -inf everywhere
        inst = Instance.from_rows(rows)
        maxima, _ = self.assert_oracle_argmax(inst, parse_welfare(spec), keyed=True)
        assert len(maxima.allocations) == inst.n**inst.m


class TestComparatorFallback:
    """Shapes without an integer key scan through the comparator, member for member."""

    @staticmethod
    def generic_argmax(inst, fn):
        """One comparison per multiset of utilities (equal multisets are equal
        welfare), each at its first assignment; members in assignment order."""
        assignments = list(itertools.product(range(inst.n), repeat=inst.m))
        multiset = {a: tuple(sorted(inst.utility_vector(a))) for a in assignments}
        firsts = {}
        for a in assignments:
            firsts.setdefault(multiset[a], a)
        candidates = iter(firsts.items())
        first_set, first = next(candidates)
        best, best_value = [first_set], welfare_of(inst, fn, Allocation(first))
        max_bits, inconclusive = 0, False
        for key, a in candidates:
            welfare = welfare_of(inst, fn, Allocation(a))
            ordering = compare(welfare, best_value)
            max_bits = max(max_bits, ordering.bits or 0)
            if ordering.relation is Relation.GREATER:
                best, best_value = [key], welfare
            elif ordering.relation in (Relation.EQUAL, Relation.INCONCLUSIVE):
                best.append(key)
                inconclusive |= ordering.relation is Relation.INCONCLUSIVE
        members = [a for a in assignments if multiset[a] in best]
        if inconclusive:
            return members, "Inconclusive", max_bits or None
        if max_bits:
            return members, "IntervalCertified", max_bits
        return members, "Exact", None

    @pytest.mark.parametrize(
        "spec, rows",
        [
            # the first vectors are integer, later subset sums (1/2, 3/2) are not
            ("harmonic:0", [["1/2", "1/2", 1], [1, 2, 1]]),
            ("harmonic:0", [[2, "1/2", "1/2"], [1, 1, 3]]),
            ("pmean:1/2", [[1, 1], [1, 1]]),
            ("pmean:1/3", [[1, 1], [1, 1]]),
            ("combo:1*pmean:0+40*pmean:-1", [[2, 3, 5], [3, 4, 2]]),
            ("combo:1*pmean:0+40*pmean:-1", [[1, 1], [1, 1]]),
        ],
    )
    def test_matches_generic_loop(self, spec, rows):
        inst, fn = Instance.from_rows(rows), parse_welfare(spec)
        maxima = enumerate_maximizers(inst, fn)
        best, kind, bits = self.generic_argmax(inst, fn)
        assert [a.assignment for a in maxima.allocations] == best
        assert (maxima.exactness.kind, maxima.exactness.bits) == (kind, bits)


class TestFloatBoundsScan:
    """Float bounds drop vectors before the comparator; the exact confirm keeps the members."""

    def test_drop_decides_a_set_the_running_maximum_left_open(self):
        # without the float drop, the running maximum meets an undecidable
        # tie between two vectors that are not maximal
        inst = Instance.from_rows([[1, 0, 2], [4, 1, 3]])
        maxima = enumerate_maximizers(inst, parse_welfare("pmean:1/3"))
        assert [a.assignment for a in maxima.allocations] == [(1, 1, 0)]
        assert (maxima.exactness.kind, maxima.exactness.bits) == ("IntervalCertified", 256)

    @pytest.mark.parametrize(
        "spec, rows",
        [  # the TestComparatorFallback rows
            ("harmonic:0", [["1/2", "1/2", 1], [1, 2, 1]]),
            ("harmonic:0", [[2, "1/2", "1/2"], [1, 1, 3]]),
            ("pmean:1/2", [[1, 1], [1, 1]]),
            ("pmean:1/3", [[1, 1], [1, 1]]),
            ("combo:1*pmean:0+40*pmean:-1", [[2, 3, 5], [3, 4, 2]]),
            ("combo:1*pmean:0+40*pmean:-1", [[1, 1], [1, 1]]),
        ],
    )
    def test_low_start_precision_keeps_the_members(self, spec, rows):
        inst, fn = Instance.from_rows(rows), parse_welfare(spec)
        coarse = enumerate_maximizers(inst, fn, policy=PrecisionPolicy(start_bits=16))
        assert coarse.allocations == enumerate_maximizers(inst, fn).allocations

    @pytest.mark.parametrize(
        "spec, big",
        [("combo:1*pmean:0+1*pmean:2", 10**200), ("pmean:1/3", 10**1000), ("pmean:1/2", 10**700)],
    )
    def test_values_beyond_the_double_range(self, spec, big):
        # f reaches past 10**308, where a sum of float bounds would overflow,
        # so every decision goes to the comparator; under pmean:1/2 the
        # radicand 10**700 + 1 is far beyond factoring
        inst, fn = Instance.from_rows([[big, 1, 2], [1, big, 3]]), parse_welfare(spec)
        maxima = enumerate_maximizers(inst, fn)
        best, kind, bits = TestComparatorFallback.generic_argmax(inst, fn)
        assert [a.assignment for a in maxima.allocations] == best
        assert (maxima.exactness.kind, maxima.exactness.bits) == (kind, bits)
        alloc, _ = solve_branch_bound(inst, fn)
        assert alloc.assignment == best[0]


class TestDeclaredScans:
    """A family's own scan orders and bounds like the values it stands for."""

    SPECS = ["log", "modlog:1/3", "modlog:2", "pmean:0", "pmean:1", "pmean:2", "pmean:3", "pmean:1/2",
             "pmean:3/2", "pmean:5/2", "harmonic:0", "harmonic:-1", "harmonic:1/2", "harmonic:-3/4"]

    @staticmethod
    def reachable(inst) -> set[int]:
        sums = set()
        for row in inst.scaled:
            subset_sums = {0}
            for u in row:
                subset_sums |= {s + u for s in subset_sums}
            sums |= subset_sums
        return sums

    @settings(max_examples=300, deadline=None)
    @given(
        spec=st.sampled_from(SPECS),
        rows=st.integers(2, 3).flatmap(
            lambda n: st.integers(0, 4).flatmap(
                lambda m: st.lists(
                    st.lists(
                        st.one_of(
                            st.integers(0, 9),
                            st.sampled_from([0, 1, 4, 9, 16, 36, 49, 100]),  # squares keep surds rational
                            st.fractions(min_value=0, max_value=6, max_denominator=9),
                        ),
                        min_size=m,
                        max_size=m,
                    ),
                    min_size=n,
                    max_size=n,
                )
            )
        ),
    )
    def test_declared_scan_matches_the_values(self, spec, rows):
        """Same order and floor side as ``_order_keys`` over ``value_at`` on every
        pair of vectors, or the same ``float_bounds`` bit for bit.  Harmonic
        bounds off the integers come from the float model instead: each holds
        the value at 200 bits and is at most 2 e(x) and 2 ulp a side wide."""
        fn, inst = parse_welfare(spec), Instance.from_rows(rows)
        reachable = self.reachable(inst)
        declared = fn.scan(reachable, inst.scale, inst.n)
        generic = WelfareFunction.scan(fn, reachable, inst.scale, inst.n)
        assert type(declared) is type(generic)
        if isinstance(generic, dict) and spec.startswith("harmonic"):
            assert declared.keys() == generic.keys()
            for x, (lo, hi) in declared.items():
                if fn.c == -1 and x == 0:
                    assert (lo, hi) == (-inf, -inf)
                    continue
                with mpmath.workprec(200):  # h_c(x) = psi(x + c + 1) - psi(c + 1)
                    c1 = mpmath.mpf(fn.c.numerator) / fn.c.denominator + 1
                    want = mpmath.digamma(mpmath.mpf(x) / inst.scale + c1) - (
                        -mpmath.euler if fn.c == -1 else mpmath.digamma(c1)
                    )
                assert lo <= want <= hi, x
                e = fn._approx_error(np.array([x / inst.scale]))[0]
                assert hi - lo <= 2 * e + 2 * (ulp(lo) + ulp(hi)), x
            return
        if isinstance(generic, dict):
            assert {x: (lo.hex(), hi.hex()) for x, (lo, hi) in declared.items()} == {
                x: (lo.hex(), hi.hex()) for x, (lo, hi) in generic.items()
            }
            return
        vectors = list(itertools.product(sorted(reachable), repeat=inst.n))[:400]

        def keys(scan):
            terms, reduce, floor_ = scan
            return [(reduce(terms[x] for x in v), reduce(terms[x] for x in v) >= floor_) for v in vectors]

        mine, theirs = keys(declared), keys(generic)
        assert [above for _, above in mine] == [above for _, above in theirs]
        finite = [(a, b) for (a, above), (b, _) in zip(mine, theirs) if above]
        for (a1, b1), (a2, b2) in itertools.combinations(finite, 2):
            assert (a1 > a2) - (a1 < a2) == (b1 > b2) - (b1 < b2)

    def test_harmonic_off_the_integers_calls_no_mpmath(self, monkeypatch):
        class NoMpmath:
            def __getattr__(self, name):
                raise AssertionError(f"mpmath.{name} called")

        inst = random_instance(3, 7, "unrestricted", 5, seed=3)
        reachable = self.reachable(inst)
        assert any(x % inst.scale for x in reachable)
        for module in (functions, value_module):
            monkeypatch.setattr(module, "mpmath", NoMpmath())
        for spec in ("harmonic:-1", "harmonic:-3/4", "harmonic:0", "harmonic:2/5"):
            assert isinstance(parse_welfare(spec).scan(reachable, inst.scale, inst.n), dict)

    @pytest.mark.parametrize("spec", [f"harmonic:{c}" for c in ("-1", "-3/4", "-1/2", "0", "1/2", "1")])
    def test_harmonic_float_scan_decides_as_the_values_do(self, monkeypatch, spec):
        """Enumeration and branch-and-bound give the same members, rendered
        welfare, label and allocation on the float model's bounds as on
        ``float_bounds`` of the values read at SCAN_BITS."""
        fn = parse_welfare(spec)
        instances = [random_instance(3, 7, "unrestricted", 5, seed=s) for s in range(8)]
        instances.append(Instance.from_rows([[Fraction(1, 10**9), 1, 2], [1, Fraction(1, 10**9), 3]]))

        def answers():
            out = []
            for inst in instances:
                maxima = enumerate_maximizers(inst, fn)
                alloc, welfare = solve_branch_bound(inst, fn)
                out.append((maxima.allocations, render_value(maxima.welfare), maxima.exactness,
                            alloc, render_value(welfare)))
            return out

        declared = answers()
        monkeypatch.setattr(type(fn), "scan", WelfareFunction.scan)
        assert declared == answers()

    @pytest.mark.parametrize("spec", ["pmean:1/2", "pmean:3/2"])
    def test_perfect_square_radicands_stay_exact(self, spec):
        # every reachable utility is 0 or 1, so every value is rational: integer
        # keys, not float bounds, which would certify the set only on intervals
        inst, fn = Instance.from_rows([[0, 0, 0, 1], [0, 1, 0, 0]]), parse_welfare(spec)
        assert isinstance(fn.scan(self.reachable(inst), inst.scale, inst.n), OrderTerms)
        assert enumerate_maximizers(inst, fn).exactness == Exactness("Exact")

    @pytest.mark.parametrize("spec", ["log", "pmean:0", "harmonic:-1"])
    def test_zero_utility_is_minus_infinity(self, spec):
        inst, fn = Instance.from_rows([[1, 2], [2, 1]]), parse_welfare(spec)
        score = solver._scoring(inst, fn)
        assert score([0, 3]) == score([3, 0]) == score([0, 0]) == (-inf, -inf)
        assert score([1, 2])[0] > -inf and score([1, 2]) < score([2, 2])


class TestBranchBound:
    @staticmethod
    def same_welfare(a, b):
        """Exactly equal, or (for digamma intervals, which never compare equal) overlapping."""
        if isinstance(a, IntervalValue) and isinstance(b, IntervalValue):
            return a.lo <= b.hi and b.lo <= a.hi
        return compare(a, b).relation is Relation.EQUAL

    def test_oracle_equivalence_on_random_instances(self):
        mismatches = 0
        for seed in range(150):
            rng = random.Random(seed)
            n, m = rng.randint(2, 3), rng.randint(1, 7)
            inst = random_instance(n, m, "integer", 5, seed=seed)
            maxima = enumerate_maximizers(inst, LOG)
            _, welfare = solve_branch_bound(inst, LOG)
            if compare(welfare, maxima.welfare).relation is not Relation.EQUAL:
                mismatches += 1
        assert mismatches == 0

    def test_doubling_pairs_matches_oracle(self):
        inst = doubling_pairs_instance(3)
        maxima = enumerate_maximizers(inst, LOG)
        _, welfare = solve_branch_bound(inst, LOG)
        assert compare(welfare, maxima.welfare).relation is Relation.EQUAL

    @pytest.mark.parametrize(
        "spec, cls",
        [
            ("log", "integer"),
            ("modlog:1", "integer"),
            ("harmonic:-1", "integer"),
            ("pmean:-1", "integer"),
            ("pmean:1/2", "integer"),
            ("pmean:-1/2", "integer"),
            ("harmonic:0", "unrestricted"),
            ("combo:1*pmean:0+40*pmean:-1", "integer"),
        ],
    )
    def test_matches_enumeration_for_each_scoring_shape(self, spec, cls):
        # integer keys (sum or product), float bounds over surds, intervals and
        # mixed values; the fixed rows make every assignment -inf under the
        # rules with f(0) = -inf
        fn = parse_welfare(spec)
        instances = [Instance.from_rows(rows) for rows in ([[3], [1], [2]], [[0, 0, 0], [1, 2, 3]])]
        for seed in range(30):
            rng = random.Random(seed)
            instances.append(random_instance(rng.randint(2, 3), rng.randint(1, 5), cls, 4, seed=seed))
        for inst in instances:
            maxima = enumerate_maximizers(inst, fn)
            alloc, welfare = solve_branch_bound(inst, fn)
            assert self.same_welfare(welfare, maxima.welfare)
            assert self.same_welfare(welfare, welfare_of(inst, fn, alloc))
            if maxima.exactness.kind != "Inconclusive":
                assert alloc in maxima
            if maxima.welfare == NEG_INF:
                assert alloc.assignment == (0,) * inst.m

    def test_welfare_at_the_policy_precision(self):
        # harmonic values at 7/3 and 1/3 are intervals; the incumbent's welfare
        # is evaluated at the default policy's bits like every other node
        inst = Instance.from_rows([[Fraction(7, 3), Fraction(7, 3)], [Fraction(1, 3), Fraction(1, 3)]])
        _, welfare = solve_branch_bound(inst, MHW)
        assert welfare.bits == enumerate_maximizers(inst, MHW).welfare.bits == DEFAULT_PRECISION_BITS

    def test_single_good_goes_to_argmax_agent(self):
        # under log every one-good allocation starves someone, so use the
        # harmonic rule where f(0) is finite and the decision is meaningful
        inst = Instance.from_rows([[2], [5]])
        alloc, _ = solve_branch_bound(inst, MHW)
        assert alloc.assignment == (1,)

    def test_equal_multisets_are_not_compared(self, monkeypatch):
        # a bound with the incumbent's multiset of utilities has its welfare, so no gain:
        # the search must settle it without the comparator (harmonic:0 intervals never compare equal)
        reads, pairs = [], []
        welfare, real_compare = solver._ValueCache.welfare, solver.compare

        def read(cache, utilities):
            reads.append(sorted(utilities))
            return welfare(cache, utilities)

        def compared(a, b, *args):
            pairs.append(reads[-2:])
            return real_compare(a, b, *args)

        monkeypatch.setattr(solver._ValueCache, "welfare", read)
        monkeypatch.setattr(solver, "compare", compared)
        for seed in range(16):
            inst = random_instance(3, 7, "unrestricted", 5, seed=seed, require_positive_admitting=True)
            solve_branch_bound(inst, MHW)
        assert all(bound != incumbent for bound, incumbent in pairs)

    def test_deep_search_is_iterative(self):
        # 1,100 goods put 1,101 nodes on the search path, past the default recursion limit
        alloc, welfare = solve_branch_bound(Instance.from_rows([[1] * 1100, [0] * 1099 + [1]]), LOG)
        assert alloc.assignment == (0,) * 1099 + (1,)
        assert welfare == LOG.value_at(1099)

    @staticmethod
    def assert_matches_enumeration(inst, fn):
        maxima = enumerate_maximizers(inst, fn)
        alloc, welfare = solve_branch_bound(inst, fn)
        assert compare(welfare, maxima.welfare).relation is Relation.EQUAL
        assert alloc in maxima

    def test_flat_tie_gadget_matches_enumeration(self):
        # f is flat on (1, 2), and the gadget's maximizers tie there
        inst, _balanced, _lopsided = flat_tie_gadget(2, 1, 2)
        self.assert_matches_enumeration(inst, flat_table_function(1, 2))

    @settings(max_examples=60, deadline=None)
    @given(
        cuts=st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True),
        slopes=st.lists(st.sampled_from([0, Fraction(1, 2), 1, 3]), min_size=4, max_size=4),
        flat=st.integers(0, 3),
        n=st.integers(2, 3),
        utilities=st.lists(st.sampled_from([0, Fraction(1, 2), 1, 2, Fraction(7, 2), 5]), min_size=15, max_size=15),
        m=st.integers(1, 5),
    )
    def test_non_decreasing_tables_match_enumeration(self, cuts, slopes, flat, n, utilities, m):
        # pruning on bound <= incumbent needs f non-decreasing only, so zero
        # slopes (welfare ties across flat regions) keep bb inside the argmax set
        breakpoints = [0] + sorted(cuts)
        slopes = slopes[: len(breakpoints)]
        slopes[flat % len(breakpoints)] = 0
        fn = PiecewiseTable(breakpoints, slopes)
        assert not fn.strictly_increasing
        inst = Instance.from_rows([utilities[i * m : (i + 1) * m] for i in range(n)])
        self.assert_matches_enumeration(inst, fn)


def walk(inst):
    """Every assignment with its utility vector in units of 1/``inst.scale``, in lexicographic order."""
    for assignment in itertools.product(range(inst.n), repeat=inst.m):
        utilities = [0] * inst.n
        for g, agent in enumerate(assignment):
            utilities[agent] += inst.scaled[agent][g]
        yield assignment, utilities


def bounded_survivors(vectors, score):
    """(key, utility vector) pairs of ``vectors`` whose ``hi`` reaches the maximum ``lo``, and two flags.

    The final scan of enumeration over the walk: a vector goes once its ``hi``
    falls below the running maximum ``lo``, and the rest are filtered by the
    final one.  Also returns whether every survivor's bounds are a point, and
    whether a vector was dropped on bounds that are not a point.
    """
    best_lo = -float("inf")
    kept = []
    interval_drop = False
    for a, u in vectors:
        lo, hi = score(u)
        if hi >= best_lo:
            kept.append((a, lo, hi, tuple(u)))
            if lo > best_lo:
                best_lo = lo
        elif lo < hi:
            interval_drop = True
    survivors = []
    points = True
    for a, lo, hi, u in kept:
        if hi >= best_lo:
            survivors.append((a, u))
            points = points and lo == hi
        elif lo < hi:
            interval_drop = True
    return survivors, points, interval_drop


class TestDistinctLayers:
    """Enumeration over pruned layers of distinct utility vectors gives what a walk of the n**m assignments gives."""

    RULES = ["log", "pmean:2", "pmean:1/2", "pmean:1/3", "harmonic:0", "harmonic:-3/4", "modlog:2",
             "harmonic:-1", "pmean:-1", "combo:1*pmean:0+40*pmean:-1"]
    CLASSES = {"binary": 1, "two_value": 5, "integer+identical_good": 4, "integer": 4, "unrestricted": 4}

    @staticmethod
    def summary(maxima):
        return [a.assignment for a in maxima.allocations], maxima.exactness, render_value(maxima.welfare)

    def assert_routes_agree(self, inst, fn):
        """The layers, as they prune by default and pruning every layer, against the walk's survivors."""
        layered = enumerate_maximizers(inst, fn)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_PRUNE_FROM", 0)
            pruned = enumerate_maximizers(inst, fn)
            patch.setattr(solver, "_distinct_survivors", lambda i, score: bounded_survivors(walk(i), score))
            walked = enumerate_maximizers(inst, fn)
        assert self.summary(layered) == self.summary(pruned) == self.summary(walked)
        return layered

    @settings(max_examples=120, deadline=None)
    @given(
        cls=st.sampled_from(sorted(CLASSES)),
        spec=st.sampled_from(RULES),
        n=st.integers(2, 3),
        m=st.integers(1, 6),
        seed=st.integers(0, 2**20),
        shape=st.sampled_from(["drawn", "identical rows", "ascending goods"]),
    )
    def test_layers_match_the_walk(self, cls, spec, n, m, seed, shape):
        inst = random_instance(n, m, cls, self.CLASSES[cls], seed=seed)
        if shape == "identical rows":
            inst = Instance.from_rows([inst.utilities[0]] * n)
        elif shape == "ascending goods":  # largest value last, so placed out of index order
            columns = sorted(zip(*inst.utilities), key=max)
            inst = Instance.from_rows(list(zip(*columns)))
        self.assert_routes_agree(inst, parse_welfare(spec))

    @pytest.mark.parametrize("spec", RULES[:7])
    @pytest.mark.parametrize(
        "rows, members",
        [
            ([[], []], 1),  # m = 0
            ([[1, 2], [2, 1], [1, 1]], 9),  # more agents than goods (an instance has n >= 2)
            ([[0, 0, 0], [0, 0, 0]], 8),  # every vector is (0, 0)
            ([[1] * 6] * 3, 90),  # 90 assignments reach the vector (2, 2, 2)
        ],
    )
    def test_edge_cases(self, spec, rows, members):
        maxima = self.assert_routes_agree(Instance.from_rows(rows), parse_welfare(spec))
        if spec == "log":  # -inf everywhere in the two middle cases
            assert len(maxima.allocations) == members

    @pytest.mark.parametrize(
        "rows, spec",
        [
            # good 1 to agent 1 leaves both agents at 0 and one good: a finite bound, no finite completion
            ([[2, 4], [1, 0]], "combo:1*pmean:0+40*pmean:-1"),
            # identical rows: two agents at 0 and one good left, so one of them stays at 0
            ([[Fraction(36, 17), Fraction(12, 17), Fraction(3, 17)]] * 3, "harmonic:-1"),
            ([[Fraction(1, 3), Fraction(2, 3), Fraction(2, 3)]] * 3, "harmonic:-1"),
        ],
    )
    def test_no_interval_drop_where_an_agent_is_at_minus_infinity(self, rows, spec):
        # a vector with an agent at f(0) = -inf may have only -inf completions, which
        # the walk drops as points: pruning it on bounds that are not a point would
        # turn the walk's Exact label into IntervalCertified
        maxima = self.assert_routes_agree(Instance.from_rows(rows), parse_welfare(spec))
        assert maxima.exactness.kind == "Exact"

    @staticmethod
    def most_states(inst) -> int:
        """The largest count the cap is checked against when every assignment is a maximizer,
        by brute force: before each layer is built, the layers kept plus n times the last
        one; before the recovery, the layers plus the n**m assignments of the answer, each
        charged as ceil((450 + 16m) / 115) states."""
        order, _ = solver._placement(inst)
        n, m = inst.n, inst.m
        sizes = []
        for g in range(m + 1):
            vectors = set()
            for agents in itertools.product(range(n), repeat=g):
                utilities = [0] * n
                for good, agent in zip(order, agents):
                    utilities[agent] += inst.scaled[agent][good]
                vectors.add(tuple(utilities))
            sizes.append(len(vectors))
        layers = max(sum(sizes[: g + 1]) + n * sizes[g] for g in range(m))
        answer = sum(sizes) + -(-(450 + 16 * m) // 115) * n**m
        return max(layers, answer)

    @pytest.mark.parametrize("rows", [[[1, 2, 3, 4]] * 3, [[1] * 5] * 2, [[3, 5, 7]] * 2])
    def test_state_cap_raises(self, monkeypatch, rows):
        # identical rows under pmean:1: every assignment has one welfare, so no layer is pruned
        inst, fn = Instance.from_rows(rows), parse_welfare("pmean:1")
        expected = self.summary(enumerate_maximizers(inst, fn))
        cap = self.most_states(inst)
        monkeypatch.setattr(solver, "_STATE_CAP", cap)
        assert self.summary(enumerate_maximizers(inst, fn)) == expected
        monkeypatch.setattr(solver, "_STATE_CAP", cap - 1)
        with pytest.raises(EnumerationCapExceeded):
            enumerate_maximizers(inst, fn)

    def test_the_answer_counts_against_the_cap(self, monkeypatch):
        # agent 0 values nothing, so under log all 2**10 assignments tie at -inf: the
        # layers keep 66 states, but the answer holds 1,024 assignments
        monkeypatch.setattr(solver, "_STATE_CAP", 1000)
        with pytest.raises(EnumerationCapExceeded, match="exceeds cap 1000 states: 1024 surviving assignments"):
            enumerate_maximizers(Instance.from_rows([[0] * 10, [1] * 10]), LOG)
        # layers as small with one maximizer pass
        maxima = enumerate_maximizers(Instance.from_rows([[1] * 10, [0] * 9 + [1]]), LOG)
        assert [a.assignment for a in maxima.allocations] == [(0,) * 9 + (1,)]

    def test_a_layer_that_could_pass_the_cap_is_refused(self, monkeypatch):
        # the whole message: the per-layer check fired, not the answer-count one
        monkeypatch.setattr(solver, "_STATE_CAP", 300)
        with pytest.raises(EnumerationCapExceeded, match=r"^enumeration exceeds cap 300 states$"):
            enumerate_maximizers(random_instance(3, 8, "integer", 1000, seed=0), LOG)

    def test_the_answer_is_checked_once(self, monkeypatch):
        # 2 x 8 ones under log: 70 maximizers charged ceil(578 / 115) = 6 states each, with
        # 45 layer states, need a cap of 465; the recovery's prefixes never outnumber them
        inst = Instance.from_rows([[1] * 8] * 2)
        monkeypatch.setattr(solver, "_STATE_CAP", 465)
        maxima = enumerate_maximizers(inst, LOG)
        assert len(maxima.allocations) == 70 and maxima.exactness.kind == "Exact"
        monkeypatch.setattr(solver, "_STATE_CAP", 464)
        with pytest.raises(EnumerationCapExceeded, match=": 70 surviving assignments$"):
            enumerate_maximizers(inst, LOG)

    @pytest.mark.parametrize("spec", ["log", "pmean:2", "harmonic:0"])
    def test_the_paths_count_the_answer(self, spec):
        """The backward filter's path count from the empty vector is the size of the
        set: with every assignment costing the whole cap, the refusal comes before
        the forward pass and reports it."""
        fn = parse_welfare(spec)
        for seed in range(30):
            rng = random.Random(seed)
            cls = rng.choice(["binary", "two_value", "integer"])
            inst = random_instance(rng.randint(2, 3), rng.randint(1, 6), cls, 3, seed=seed)
            maxima = enumerate_maximizers(inst, fn)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(solver, "ceil", lambda _: solver._STATE_CAP)
                with pytest.raises(EnumerationCapExceeded, match=f": {len(maxima.allocations)} surviving assignments$"):
                    enumerate_maximizers(inst, fn)

    def test_a_long_row_is_answered(self):
        # 2**1100 assignments, but the pruned layers stay small and the set has one member
        inst = Instance.from_rows([[1] * 1100, [0] * 1099 + [1]])
        maxima = enumerate_maximizers(inst, LOG)
        alloc, welfare = solve_branch_bound(inst, LOG)
        assert maxima.allocations == (alloc,)
        assert compare(welfare, maxima.welfare).relation is Relation.EQUAL

    def test_pruning_keeps_a_fraction_of_the_states(self, monkeypatch):
        # 3 x 11 with near-distinct vectors: the layers unpruned pass 2**18 states
        inst = random_instance(3, 11, "integer", 1000, seed=0)
        monkeypatch.setattr(solver, "_STATE_CAP", 1 << 15)
        maxima = enumerate_maximizers(inst, LOG)
        assert maxima.exactness.kind == "Exact"
        assert [a.assignment for a in maxima.allocations] == [solve_branch_bound(inst, LOG)[0].assignment]


class TestLazyPrecision:
    """The scan reads harmonic f off the integers from its float model, with no
    digamma; the policy's bits go only to the welfare sums that are read, one
    digamma per distinct non-integer utility read, and none for the shift at
    c = 0 (-psi(1) is gamma)."""

    INST = random_instance(3, 7, "unrestricted", 5, seed=3)
    # harmonic values are computed 16 bits above the requested precision
    START = DEFAULT_PRECISION_BITS + 16

    @staticmethod
    def reads(monkeypatch) -> list[list[int]]:
        """Record each scaled utility vector whose welfare the search reads."""
        reads = []
        welfare = solver._ValueCache.welfare

        def recorded(cache, utilities):
            reads.append(list(utilities))
            return welfare(cache, utilities)

        monkeypatch.setattr(solver._ValueCache, "welfare", recorded)
        return reads

    def test_enumeration(self, monkeypatch):
        self.check_digammas(monkeypatch, enumerate_maximizers)

    def test_branch_and_bound(self, monkeypatch):
        self.check_digammas(monkeypatch, solve_branch_bound)

    def check_digammas(self, monkeypatch, search):
        reads = self.reads(monkeypatch)
        calls = []  # (working precision, digamma argument) per call
        digamma = mpmath.digamma
        monkeypatch.setattr(mpmath, "digamma", lambda y: calls.append((mpmath.mp.prec, y)) or digamma(y))
        search(self.INST, MHW)
        read = {Fraction(x, self.INST.scale) for u in reads for x in u}
        assert [bits for bits, _ in calls] == [self.START] * len(calls)
        # y = x + 1 at each non-integer x read, once
        args = sorted(Fraction(float(y)).limit_denominator(10**6) - 1 for _, y in calls)
        assert args == sorted(x for x in read if x.denominator > 1)

    @pytest.mark.parametrize(
        "spec, inst",
        [
            # branch-and-bound reads three welfare sums that share utilities on each
            ("harmonic:0", random_instance(3, 5, "unrestricted", 3, seed=45)),
            ("harmonic:-1", random_instance(3, 5, "unrestricted", 3, seed=139)),
            # identical rows: six maximizers, and two agents at one utility
            ("harmonic:0", Instance.from_rows([[Fraction(1, 2), Fraction(3, 2), Fraction(1, 3), Fraction(2, 3), Fraction(5, 2)]] * 3)),
        ],
        ids=["seed45", "seed139", "identical-rows"],
    )
    @pytest.mark.parametrize("search", [enumerate_maximizers, solve_branch_bound])
    def test_each_utility_read_is_built_once(self, monkeypatch, spec, inst, search):
        """Every utility a welfare sum reads is built once, however many sums
        read it, and no other is built."""
        reads, built = self.reads(monkeypatch), []
        value_at = functions.ModHarmonic.value_at
        monkeypatch.setattr(functions.ModHarmonic, "value_at", lambda fn, x, *bits: built.append(x) or value_at(fn, x, *bits))
        search(inst, parse_welfare(spec))
        read = [Fraction(x, inst.scale) for u in reads for x in u]
        assert sorted(built) == sorted(set(read))


class TestChosenAllEf1:
    def test_chain_log_all_ef1(self):
        ok, counterexample = chosen_all_ef1(chain_instance(4), LOG)
        assert ok and counterexample is None

    def test_sqrt_mean_uniform_goods_counterexample(self):
        from welfarist.constructions import uniform_goods_instance

        ok, witness = chosen_all_ef1(
            uniform_goods_instance(2, 0, 6, 1), parse_welfare("pmean:1/2")
        )
        assert not ok
        assert witness.assignment == (0, 0)  # both goods to the high-value agent
        assert not is_ef1(uniform_goods_instance(2, 0, 6, 1), witness).holds

    def test_flat_function_ties_in_a_non_ef1_maximizer(self):
        fn = flat_table_function(1, 2)
        inst, _balanced, _lopsided = flat_tie_gadget(2, 1, 2)
        ok, witness = chosen_all_ef1(inst, fn)
        assert not ok and witness is not None

    def test_an_undecided_set_is_not_read_as_decided(self, monkeypatch):
        # an Inconclusive set may be a superset, so its non-EF1 member need not be a maximizer
        from welfarist.constructions import uniform_goods_instance

        inst = uniform_goods_instance(2, 0, 6, 1)
        lopsided = Allocation((0, 0))
        assert not is_ef1(inst, lopsided).holds
        undecided = MaximizerSet((lopsided,), ExactValue(), Exactness("Inconclusive", 256))
        monkeypatch.setattr(solver, "enumerate_maximizers", lambda inst, fn: undecided)
        assert chosen_all_ef1(inst, LOG) == (None, None)


class TestSplitFamily:
    def test_published_argmax_points(self):
        assert split_family_argmax(20, parse_welfare("pmean:0")) == 20
        assert split_family_argmax(20, PSI) == 18
        assert split_family_argmax(100, PSI) == 96

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("spec", ["log", "combo:1*pmean:0+40*pmean:-1"])
    def test_structured_reduction_matches_enumeration(self, k, spec):
        fn = parse_welfare(spec)
        inst = doubling_pairs_instance(k)
        maxima = enumerate_maximizers(inst, fn)
        x = split_family_argmax(k, fn)
        structured = Allocation(
            tuple([0] * x + [1] * (k - x) + [1] * (k + 1))
        )
        assert compare(welfare_of(inst, fn, structured), maxima.welfare).relation is Relation.EQUAL
        # and the best structured x is attained by some true maximizer
        firsts = {
            sum(1 for g in range(k) if alloc.assignment[g] == 0)
            for alloc in maxima.allocations
        }
        assert x in firsts

    def test_requires_strictly_increasing(self):
        with pytest.raises(ValueError):
            split_family_argmax(3, PiecewiseTable([0, 1, 2], [1, 0, 1]))
