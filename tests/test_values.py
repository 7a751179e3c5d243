"""Exact/interval value arithmetic and the three-tier comparator."""

import math
import os
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from welfarist import values
from welfarist.values import (
    DEFAULT_PRECISION_BITS,
    NEG_INF,
    POS_INF,
    PRECISION_CEILING_ENV,
    DeferredValue,
    ExactValue,
    IntervalValue,
    PrecisionPolicy,
    Relation,
    compare,
    evaluate_interval,
    float_bounds,
    render_value,
    value_sum,
)

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


def rel(lhs, rhs, **kw):
    return compare(lhs, rhs, **kw).relation


class TestExactTiers:
    def test_log_product_identity(self):
        lhs = value_sum([ExactValue.from_log(2), ExactValue.from_log(3)])
        assert rel(lhs, ExactValue.from_log(6)) is Relation.EQUAL

    def test_log_order_is_product_order(self):
        assert rel(ExactValue.from_log(Fraction(7, 2)), ExactValue.from_log(3)) is Relation.GREATER
        assert rel(ExactValue.from_log(Fraction(2, 3)), ExactValue.from_log(1)) is Relation.LESS

    def test_rational_sums(self):
        lhs = value_sum([ExactValue.from_rational(Fraction(1, 3))] * 3)
        assert rel(lhs, ExactValue.from_rational(1)) is Relation.EQUAL

    def test_surd_like_terms_cancel(self):
        # sqrt(12) == 2*sqrt(3) == sqrt(3) + sqrt(3)
        lhs = ExactValue.from_sqrt(12)
        rhs = value_sum([ExactValue.from_sqrt(3), ExactValue.from_sqrt(3)])
        assert rel(lhs, rhs) is Relation.EQUAL

    def test_surd_vs_rational_decided_by_intervals(self):
        # sqrt(12) - sqrt(6) > 1, decided well below the ceiling
        lhs = value_sum([ExactValue.from_sqrt(12), ExactValue.from_sqrt(6).scale(-1)])
        ordering = compare(lhs, ExactValue.from_rational(1))
        assert ordering.relation is Relation.GREATER
        assert ordering.bits is not None and ordering.bits >= 64

    def test_mixed_log_and_rational_equal_only_componentwise(self):
        lhs = value_sum([ExactValue.from_log(2), ExactValue.from_rational(Fraction(1, 2))])
        rhs = value_sum([ExactValue.from_log(2), ExactValue.from_rational(Fraction(1, 2))])
        assert rel(lhs, rhs) is Relation.EQUAL
        assert rel(lhs, ExactValue.from_log(2)) is Relation.GREATER


_coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_log_arguments = st.fractions(min_value=Fraction(1, 12), max_value=50, max_denominator=12)
exact_values = st.builds(
    ExactValue,
    _coefficients,
    st.dictionaries(_log_arguments, _coefficients, max_size=3),
    st.dictionaries(st.integers(1, 50), _coefficients, max_size=3),
)


class TestNormalization:
    def test_the_log_part_drops_zero_weights_and_log_one(self):
        v = ExactValue(logs={Fraction(2): 0, Fraction(1): Fraction(3), Fraction(3, 2): Fraction(1, 2)})
        assert v.logs == {Fraction(3, 2): Fraction(1, 2)}

    @pytest.mark.parametrize("q", [0, -1, Fraction(-1, 2)])
    def test_a_nonpositive_log_argument_is_rejected(self, q):
        with pytest.raises(ValueError, match="log argument must be positive"):
            ExactValue(logs={Fraction(q): Fraction(1)})
        with pytest.raises(ValueError, match="log argument must be positive"):
            ExactValue.from_log(q)

    @pytest.mark.parametrize("q", [0, -1, Fraction(-1, 2)])
    def test_a_nonpositive_log_argument_with_zero_weight_is_dropped(self, q):
        v = ExactValue(logs={Fraction(q): Fraction(0), Fraction(2): Fraction(1)})
        assert v.logs == {Fraction(2): Fraction(1)}

    @pytest.mark.parametrize("op", ["add", "sub"])
    def test_add_and_sub_construct_one_value(self, op, monkeypatch):
        a = ExactValue(Fraction(1, 3), {Fraction(2): Fraction(1)}, {2: Fraction(1)})
        b = ExactValue(Fraction(5), {Fraction(3): Fraction(-2)}, {8: Fraction(1, 2)})
        init, calls = ExactValue.__init__, []

        def counting_init(self, *args, **kwargs):
            calls.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ExactValue, "__init__", counting_init)
        getattr(a, op)(b)
        assert len(calls) == 1

    @given(exact_values, exact_values)
    def test_sub_is_add_of_the_negation(self, a, b):
        assert a.sub(b) == a.add(b.scale(-1))
        assert a.add(b).sub(b) == a
        assert a.sub(a).is_zero()
        got, ea, eb = (evaluate_interval(v, 200) for v in (a.sub(b), a, b))
        assert got.lo <= mpmath.fsub(ea.hi, eb.lo, exact=True)
        assert mpmath.fsub(ea.lo, eb.hi, exact=True) <= got.hi


def _deferred(lower, upper, exact, builds):
    """A DeferredValue over rationals whose builder counts its calls."""

    def build():
        builds.append(exact)
        return ExactValue.from_rational(exact)

    return DeferredValue(ExactValue.from_rational(lower), ExactValue.from_rational(upper), build)


class TestDeferred:
    def test_bounds_decide_without_building(self):
        builds = []
        value = _deferred(Fraction(1, 3), Fraction(1, 2), Fraction(2, 5), builds)
        assert rel(value, Fraction(11, 20)) is Relation.LESS
        assert rel(Fraction(3, 10), value) is Relation.LESS
        assert float_bounds(value)[0] < 1 / 3 and float_bounds(value)[1] > 1 / 2
        assert rel(value, ExactValue.from_log(2)) is Relation.LESS
        assert rel(value, POS_INF) is Relation.LESS and rel(NEG_INF, value) is Relation.LESS
        other = _deferred(Fraction(3, 5), Fraction(1), Fraction(3, 4), builds)
        assert rel(other, value) is Relation.GREATER
        assert builds == []

    def test_a_tie_builds_the_value_once(self):
        builds = []
        value = _deferred(Fraction(1, 3), Fraction(1, 2), Fraction(2, 5), builds)
        assert rel(value, Fraction(2, 5)) is Relation.EQUAL
        assert rel(Fraction(3, 7), value) is Relation.GREATER  # inside the bounds
        assert rel(value, Fraction(1, 2)) is Relation.LESS  # on an end
        assert rel(value, _deferred(Fraction(1, 4), Fraction(3, 7), Fraction(2, 5), [])) is Relation.EQUAL
        assert render_value(value) == {"kind": "rational", "value": "2/5"}
        assert value.rational == Fraction(2, 5) and value_sum([value, value]).as_fraction() == Fraction(4, 5)
        assert builds == [Fraction(2, 5)]

    def test_the_enclosure_evaluates_one_bound(self, monkeypatch):
        # bounds sharing their log part: upper is lower's enclosure plus a rational
        lower = ExactValue(Fraction(1, 3), {Fraction(3, 2): Fraction(1)})
        upper = ExactValue(Fraction(1, 3) + Fraction(1, 10**40), {Fraction(3, 2): Fraction(1)})
        value = DeferredValue(lower, upper, lambda: pytest.fail("the value was built"))
        calls = []
        monkeypatch.setattr(values, "evaluate_interval", lambda v, bits: calls.append(bits) or evaluate_interval(v, bits))
        enclosure = value.enclosure(256)
        assert calls == [256]
        assert value.enclosure(256) is enclosure and calls == [256]
        assert value.enclosure(512) is not enclosure and calls == [256, 512]
        lo, hi = (Fraction(int(end.man)) * Fraction(2) ** int(end.exp) for end in (enclosure.lo, enclosure.hi))
        assert rel(lo, lower) is Relation.LESS and rel(upper, hi) is Relation.LESS


class TestInfinities:
    def test_equal_by_convention(self):
        assert rel(NEG_INF, NEG_INF) is Relation.EQUAL
        assert rel(POS_INF, POS_INF) is Relation.EQUAL

    def test_signs(self):
        assert rel(NEG_INF, POS_INF) is Relation.LESS
        assert rel(POS_INF, ExactValue.from_rational(10**9)) is Relation.GREATER
        assert rel(NEG_INF, ExactValue.from_rational(-(10**9))) is Relation.LESS

    def test_neg_inf_absorbs_sums(self):
        total = value_sum([ExactValue.from_log(5), NEG_INF, ExactValue.from_rational(3)])
        assert total is NEG_INF

    def test_opposite_infinities_error(self):
        with pytest.raises(ValueError):
            value_sum([NEG_INF, POS_INF])


# squarefree radicands, so sqrt(s*s*d) = s*sqrt(d) groups by d
_SQUAREFREE = [1, 2, 3, 5, 6, 7, 10, 11, 30, 97, 10**6 + 3]


class TestSquarefree:
    """sqrt(s*s*d) = s*sqrt(d) for the squarefree split of a radicand, decided
    by perfect-square tests alone: one radicand is held per rational-square class."""

    @pytest.mark.parametrize(
        "n,expected",
        [(1, (1, 1)), (4, (2, 1)), (12, (2, 3)), (72, (6, 2)), (97, (1, 97)), (0, (0, 1))],
    )
    def test_split(self, n, expected):
        s, d = expected
        split = ExactValue(surds={d: Fraction(s)})
        assert ExactValue.from_sqrt(n).sub(split).is_zero()
        assert rel(ExactValue.from_sqrt(n), split) is Relation.EQUAL

    def test_sqrt_of_fraction(self):
        v = ExactValue.from_sqrt(Fraction(9, 4))
        assert (v.rational, v.surds) == (Fraction(3, 2), {})
        v = ExactValue.from_sqrt(Fraction(1, 2))
        assert (v.rational, v.surds) == (0, {2: Fraction(1, 2)})  # sqrt(1/2) = sqrt(2)/2

    def test_same_class_folds_into_the_first_key(self):
        # sqrt(72) - 6*sqrt(2) = 0, and sqrt(8) + sqrt(18) = 5*sqrt(2) is held on key 8
        assert value_sum([ExactValue.from_sqrt(72), ExactValue.from_sqrt(2).scale(-6)]).is_zero()
        v = value_sum([ExactValue.from_sqrt(8), ExactValue.from_sqrt(18)])
        assert (v.rational, v.surds) == (0, {8: Fraction(5, 2)})
        assert rel(v, ExactValue.from_sqrt(50)) is Relation.EQUAL

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            ExactValue.from_sqrt(-2)

    def test_huge_radicand_needs_no_factoring(self):
        # 10**700 + 1 is far beyond trial division
        lhs = ExactValue.from_sqrt(10**700 + 1)
        assert rel(lhs, ExactValue.from_sqrt(10**700)) is Relation.GREATER
        square = ExactValue.from_sqrt((10**700 + 1) ** 2 * 3)
        assert rel(square, ExactValue.from_sqrt(3).scale(10**700 + 1)) is Relation.EQUAL

    @given(
        st.lists(
            st.tuples(
                st.integers(-3, 3),
                st.integers(0, 12),
                st.sampled_from(_SQUAREFREE),
                st.integers(1, 4),
            ),
            max_size=8,
        )
    )
    def test_is_zero_matches_grouping_by_squarefree_part(self, terms):
        """sum of c*sqrt(s*s*d)/q is zero iff the coefficients c*s/q sum to zero per d."""
        total = value_sum([ExactValue.from_sqrt(s * s * d).scale(Fraction(c, q)) for c, s, d, q in terms])
        by_d = {}
        for c, s, d, q in terms:
            by_d[d] = by_d.get(d, 0) + Fraction(c * s, q)
        assert total.is_zero() == all(v == 0 for v in by_d.values())
        assert len(total.surds) == sum(1 for d, v in by_d.items() if d > 1 and v != 0)


class TestIntervals:
    def test_enclosure_contains_truth(self):
        v = ExactValue(logs={Fraction(2): Fraction(1)})
        enc = evaluate_interval(v, 128)
        with mpmath.workprec(256):
            assert enc.lo <= mpmath.log(2) <= enc.hi
        assert float(enc.width) < 1e-30

    def test_fixed_overlapping_intervals_are_inconclusive(self):
        a = IntervalValue(0.0, 1.0, 53)
        b = IntervalValue(0.5, 1.5, 53)
        assert rel(a, b) is Relation.INCONCLUSIVE

    def test_ceiling_yields_inconclusive(self, monkeypatch):
        # an exact tie fed through the interval tier only
        monkeypatch.setenv(PRECISION_CEILING_ENV, "128")
        lhs = IntervalValue(0.0, 1e-40, 53)
        rhs = ExactValue.from_rational(0)
        ordering = compare(lhs, rhs, policy=PrecisionPolicy(start_bits=64))
        assert ordering.relation is Relation.INCONCLUSIVE

    @pytest.mark.parametrize("bits", [0, -5])
    def test_start_below_one_bit_is_rejected(self, bits):
        # a 0-bit schedule doubles to 0 forever, so compare would never return
        with pytest.raises(ValueError):
            PrecisionPolicy(start_bits=bits)

    def test_start_above_the_ceiling_evaluates_at_the_ceiling(self):
        policy = PrecisionPolicy(start_bits=8192)
        assert list(policy.schedule()) == [policy.ceiling()]
        ordering = compare(ExactValue.from_log(2), Fraction(6931471805599453, 10**16), policy)
        assert (ordering.relation, ordering.bits) == (Relation.GREATER, policy.ceiling())

    def test_schedule_ends_at_the_ceiling(self, monkeypatch):
        # 300 * 2**k never lands on 4096, and 2,400 bits cannot tell the two apart
        monkeypatch.setenv(PRECISION_CEILING_ENV, "4096")
        with mpmath.workprec(2600):
            below = Fraction(int(mpmath.floor(mpmath.log(2) * mpmath.ldexp(1, 2500))), 2**2500)
        ordering = compare(ExactValue.from_log(2), below, PrecisionPolicy(start_bits=300))
        assert (ordering.relation, ordering.bits) == (Relation.GREATER, 4096)

    @given(start=st.integers(1, 8192), ceiling=st.integers(1, 8192))
    def test_schedule_doubles_up_to_the_ceiling(self, start, ceiling):
        # a function-scoped fixture would not be reset between Hypothesis examples
        with mock.patch.dict(os.environ, {PRECISION_CEILING_ENV: str(ceiling)}):
            steps = list(PrecisionPolicy(start_bits=start).schedule())
        assert steps[0] == min(start, ceiling) and steps[-1] == ceiling
        assert all(a < b <= 2 * a for a, b in zip(steps, steps[1:]))


# log((N+k)/(N-k)) with N up to 10**300: num and den have logs near 690
# that cancel to about 2k/N, so an enclosure of log num - log den misses
_weights = st.builds(
    lambda m, sign: m * sign,
    st.sampled_from([Fraction(1, 7), Fraction(3, 7), Fraction(1), Fraction(40), Fraction(1000)]),
    st.sampled_from([1, -1]),
)
near_one_logs = st.builds(
    lambda e, k, w, r, c: (Fraction(10) ** e, k, w, r, c),
    st.integers(2, 300),  # N > k
    st.integers(1, 79),
    _weights,
    st.fractions(min_value=-1000, max_value=1000, max_denominator=1000),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=1000),
)


class TestCertifiedEnclosures:
    @settings(deadline=None)
    @given(near_one_logs, st.integers(53, 1024))
    def test_evaluate_interval_and_float_bounds_contain_a_6000_bit_value(self, case, bits):
        n, k, w, r, c = case
        value = ExactValue(r, {(n + k) / (n - k): w}, {2: c / n})
        enclosure = evaluate_interval(value, bits)
        lo, hi = float_bounds(value)
        with mpmath.workprec(6000):
            ref = _mpf(r) + _mpf(w) * mpmath.log(_mpf((n + k) / (n - k))) + _mpf(c / n) * mpmath.sqrt(2)
            assert enclosure.lo <= ref <= enclosure.hi
            assert lo <= ref <= hi

    @pytest.mark.parametrize("n, k", [(10**30, 13), (10**60, 1)])
    def test_near_ties_of_a_log_near_one(self, n, k):
        # log((1+x)/(1-x)) = 2x + 2x^3/3 + ..., x = k/n: above 2x and below 2x + x^3
        x = Fraction(k, n)
        value = ExactValue.from_log((n + k) / Fraction(n - k))
        assert rel(value, 2 * x) is Relation.GREATER
        assert rel(value, 2 * x + x**3) is Relation.LESS
        assert rel(2 * x, value) is Relation.LESS

    @pytest.mark.parametrize(
        "value, other",
        [
            # sqrt(2)*10^-300 + 10^-300 against 2*10^-300
            (value_sum([ExactValue.from_sqrt(Fraction(2, 10**600)), ExactValue.from_rational(Fraction(1, 10**300))]),
             Fraction(2, 10**300)),
            # (log(3/2) + 1)*10^-300 against 1.4*10^-300
            (value_sum([ExactValue.from_log(Fraction(3, 2)), ExactValue.from_rational(1)]).scale(Fraction(1, 10**300)),
             Fraction(14, 10**301)),
        ],
    )
    def test_tiny_values_decide_at_the_start_precision(self, value, other):
        ordering = compare(value, other)
        assert (ordering.relation, ordering.bits) == (Relation.GREATER, DEFAULT_PRECISION_BITS)


_ALGEBRAIC_CASES = [
    ExactValue.from_sqrt(2),
    ExactValue.from_sqrt(Fraction(10**20 + 1, 3)).scale(-1),
    # cancellation: sqrt(10**6 + 1) - 1000 is about 5e-4
    value_sum([ExactValue.from_sqrt(10**6 + 1), ExactValue.from_rational(-1000)]),
    ExactValue(Fraction(-22, 7), None, {3: Fraction(5, 2), 7: Fraction(-1, 3), 10: Fraction(1, 10**6)}),
    ExactValue(Fraction(1, 10**300), None, {2: Fraction(3, 10**300)}),
    ExactValue(Fraction(-(10**300)), None, {6: Fraction(10**299, 7)}),
    ExactValue(surds={2**61 - 1: Fraction(-1, 3**600)}),
]
# one radicand per class up to a square factor, so folding is exercised too
_radicands = st.sampled_from([2, 3, 5, 6, 7, 8, 12, 97, 10**6 + 1, 10**6 + 3, 2**61 - 1])
_signed = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)
_exponents = st.one_of(st.integers(-300, -290), st.integers(-20, 20), st.integers(280, 290))
algebraic_values = st.one_of(
    st.builds(
        lambda rational, surds, e: ExactValue(rational, None, surds).scale(Fraction(10) ** e),
        _signed,
        st.dictionaries(_radicands, _signed.filter(bool), min_size=1, max_size=3),
        _exponents,
    ),
    # sqrt(s*s + 1) - s, about 1/(2s): cancellation
    st.builds(lambda s, e: ExactValue(-s, None, {s * s + 1: 1}).scale(Fraction(10) ** e), st.integers(1, 10**6), _exponents),
)


class TestFloatBounds:
    @pytest.mark.parametrize(
        "value",
        [
            ExactValue.from_rational(Fraction(1, 3)),
            ExactValue.from_rational(10**30 + 1),
            ExactValue.from_rational(Fraction(-7, 10**40)),
            ExactValue.from_log(Fraction(7, 3)),
            ExactValue.from_log(Fraction(1, 10**12)),
            ExactValue.from_sqrt(2),
            ExactValue.from_sqrt(Fraction(10**20 + 1, 3)).scale(-1),
            value_sum([ExactValue.from_log(5), ExactValue.from_sqrt(3), ExactValue.from_rational(Fraction(-22, 7))]),
            # surds cancelling to a tiny difference
            value_sum([ExactValue.from_sqrt(10**6 + 1), ExactValue.from_rational(-1000)]),
        ],
    )
    def test_encloses_the_256_bit_interval(self, value):
        lo, hi = float_bounds(value)
        enclosure = evaluate_interval(value, 256)
        assert lo <= enclosure.lo and enclosure.hi <= hi
        assert lo < hi

    def test_interval_widened_outward(self):
        with mpmath.workprec(256):
            interval = IntervalValue(mpmath.mpf(1) / 3, mpmath.mpf(2) / 3, 256)
            lo, hi = float_bounds(interval)
            assert lo <= interval.lo and interval.hi <= hi
        assert lo < 1 / 3 < 2 / 3 < hi

    def test_infinities_stay_infinite(self):
        # nextafter(-inf, inf) is the most negative double, not -inf
        assert float_bounds(NEG_INF) == (float("-inf"), float("-inf"))
        assert float_bounds(POS_INF) == (float("inf"), float("inf"))

    def test_rationals_beyond_the_double_range(self):
        lo, hi = float_bounds(ExactValue.from_rational(10**400))
        assert lo == 1.7976931348623157e308 and hi == float("inf")
        lo, hi = float_bounds(ExactValue.from_rational(-(10**400)))
        assert lo == float("-inf") and hi == -1.7976931348623157e308

    @pytest.mark.parametrize("big", [ExactValue(surds={2: Fraction(10**400)}), ExactValue(10**400, None, {3: -1})])
    def test_surds_beyond_the_double_range(self, big):
        lo, hi = float_bounds(big)
        assert lo == 1.7976931348623157e308 and hi == float("inf")
        lo, hi = float_bounds(big.scale(-1))
        assert lo == float("-inf") and hi == -1.7976931348623157e308

    def test_rational_and_surd_values_use_no_mpmath(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("evaluate_interval called")

        monkeypatch.setattr(values, "evaluate_interval", refuse)
        for v in _ALGEBRAIC_CASES:
            float_bounds(v)
        float_bounds(ExactValue.from_rational(Fraction(1, 3)))
        with pytest.raises(AssertionError):
            float_bounds(ExactValue.from_log(2))

    @pytest.mark.parametrize("value", _ALGEBRAIC_CASES)
    def test_algebraic_bounds_are_within_four_ulps(self, value):
        _assert_tight_bounds(value)

    @given(algebraic_values)
    def test_algebraic_bounds_contain_a_400_bit_reference(self, value):
        _assert_tight_bounds(value)


def _assert_tight_bounds(value: ExactValue):
    """float_bounds contain a 400-bit reference, and each end lies within 4
    ulps of it wherever the 2**-SCAN_BITS error of each integer square root,
    times its coefficient, is below an ulp (|value| >= 2**-11 * sum |c|)."""
    lo, hi = float_bounds(value)
    with mpmath.workprec(400):
        ref = _mpf(value.rational) + mpmath.fsum(_mpf(c) * mpmath.sqrt(d) for d, c in value.surds.items())
        assert lo < ref < hi
        if abs(ref) >= mpmath.ldexp(sum(abs(c) for c in value.surds.values()), -11):
            ulp = math.ulp(float(ref))
            assert ref - lo <= 4 * ulp and hi - ref <= 4 * ulp


def _mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def test_precision_ceiling_env_override(monkeypatch):
    from welfarist.values import precision_ceiling

    monkeypatch.setenv("WELFARIST_PRECISION_CEILING", "512")
    assert precision_ceiling() == 512
    assert PrecisionPolicy().ceiling() == 512


@pytest.mark.parametrize("bits", ["0", "-100"])
def test_precision_ceiling_below_one_bit_is_rejected(monkeypatch, bits):
    # every schedule ends at the ceiling, so a ceiling below one bit must not be tried
    monkeypatch.setenv("WELFARIST_PRECISION_CEILING", bits)
    with pytest.raises(ValueError):
        compare(ExactValue.from_log(2), Fraction(7, 10))


@given(a=rationals, b=rationals)
def test_compare_matches_fraction_order(a, b):
    got = rel(ExactValue.from_rational(a), ExactValue.from_rational(b))
    want = Relation.LESS if a < b else Relation.GREATER if a > b else Relation.EQUAL
    assert got is want


@given(st.lists(rationals, min_size=3, max_size=3))
def test_antisymmetry_and_transitivity_on_exact_mixtures(xs):
    flip = {Relation.LESS: Relation.GREATER, Relation.GREATER: Relation.LESS,
            Relation.EQUAL: Relation.EQUAL}
    values = [
        value_sum(
            [ExactValue.from_log(1 + abs(x) + 1), ExactValue.from_rational(x)]
        )
        for x in xs
    ]
    orders = {}
    for i in range(3):
        for j in range(3):
            orders[(i, j)] = rel(values[i], values[j])
    for i in range(3):
        for j in range(3):
            assert orders[(j, i)] is flip[orders[(i, j)]]
    for i, j, k in [(0, 1, 2), (2, 1, 0), (1, 0, 2)]:
        if orders[(i, j)] is Relation.LESS and orders[(j, k)] is Relation.LESS:
            assert orders[(i, k)] is Relation.LESS


def test_render_value_kinds():
    assert render_value(ExactValue.from_rational(Fraction(25, 12))) == {
        "kind": "rational",
        "value": "25/12",
    }
    assert render_value(ExactValue.from_log(4)) == {"kind": "log", "argument": "4"}
    assert render_value(NEG_INF) == {"kind": "neg_inf"}
    surd = render_value(ExactValue.from_sqrt(2))
    assert surd["kind"] == "exact" and surd["decimal"].startswith("1.41421356")


def test_render_value_of_a_rational_past_the_digit_limit():
    """str() refuses an integer of more than sys.get_int_max_str_digits()
    (default 4,300) digits; such a rational renders in decimals instead."""
    big = Fraction(2**80_000 + 1, 3)  # 24,082 digits
    doc = render_value(ExactValue.from_rational(big))
    assert doc["kind"] == "exact"
    with mpmath.workprec(200):
        assert abs(mpmath.mpf(doc["decimal"]) / (mpmath.mpf(2) ** 80_000 / 3) - 1) < mpmath.mpf(10) ** -25
    assert render_value(ExactValue.from_log(big))["kind"] == "exact"
