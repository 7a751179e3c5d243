"""Welfare-function family: exact values, block increments, grammar."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from welfarist.functions import (
    LinearCombo,
    Log,
    ModHarmonic,
    ModLog,
    PMean,
    PiecewiseTable,
    delta,
    increment,
    parse_welfare,
)
from welfarist.values import (
    NEG_INF,
    POS_INF,
    DeferredValue,
    ExactValue,
    IntervalValue,
    Relation,
    compare,
    value_sum,
)


class TestEval:
    def test_harmonic_closed_form(self):
        # 1 + 1/2 + 1/3 + 1/4
        assert ModHarmonic(0).value_at(4).as_fraction() == Fraction(25, 12)

    def test_harmonic_shift_minus_one(self):
        assert ModHarmonic(-1).value_at(0) is NEG_INF
        assert ModHarmonic(-1).value_at(1).as_fraction() == 0
        # h_{-1}(x) equals the unshifted value one step down
        for x in range(1, 9):
            assert ModHarmonic(-1).value_at(x) == ModHarmonic(0).value_at(x - 1)

    def test_sqrt_mean_at_zero(self):
        assert PMean(Fraction(1, 2)).value_at(0).as_fraction() == 0

    def test_log_of_one_is_zero(self):
        assert Log().value_at(1).is_zero()
        assert Log().value_at(0) is NEG_INF

    def test_log_is_the_zero_shift_log(self):
        # every observable but the label agrees with ModLog(0)
        log, shifted = Log(), ModLog(0)
        assert isinstance(log, ModLog) and log != shifted
        assert (log.label(), shifted.label()) == ("log", "modlog:0")
        xs = [0, 1, 2, Fraction(1, 3), Fraction(7, 2), Fraction(10**20 + 1, 3)]
        for x in xs:
            assert log.value_at(x) == shifted.value_at(x)
        floats = np.array([0.0, 0.5, 1.0, 2.0, 1e-300, 3.7e12])
        with np.errstate(divide="ignore"):  # log 0 = -inf
            assert log.approx_array(floats).tobytes() == shifted.approx_array(floats).tobytes()
        assert log.table_error_bound(1, 10**6) == shifted.table_error_bound(1, 10**6)

    def test_modlog_zero_shift_at_zero(self):
        assert ModLog(0).value_at(0) is NEG_INF
        v = ModLog(Fraction(1, 2)).value_at(0)  # exactly 1*log(1/2)
        assert (v.rational, v.logs, v.surds) == (0, {Fraction(1, 2): 1}, {})

    def test_negative_argument_rejected(self):
        for fn in [Log(), ModLog(1), ModHarmonic(0), PMean(2)]:
            with pytest.raises(ValueError):
                fn.value_at(-1)

    def test_pmean_exact_kinds(self):
        assert PMean(2).value_at(3).as_fraction() == 9
        assert PMean(-1).value_at(4).as_fraction() == Fraction(-1, 4)
        assert PMean(-1).value_at(0) is NEG_INF
        v = PMean(Fraction(3, 2)).value_at(2)  # 2*sqrt(2)
        assert v.surds == {2: Fraction(2)}
        v = PMean(Fraction(-1, 2)).value_at(4)  # -1/2
        assert v.as_fraction() == Fraction(-1, 2)

    def test_harmonic_non_integer_interval_brackets_truth(self):
        with mpmath.workprec(200):
            v = ModHarmonic(0).value_at(Fraction(1, 2), 128)
            truth = 2 - 2 * mpmath.log(2)  # h_0(1/2)
            assert v.lo <= truth <= v.hi
            assert v.hi - v.lo < mpmath.ldexp(1, -100)

    def test_combo_value(self):
        psi = LinearCombo([(1, PMean(0)), (40, PMean(-1))])
        v = psi.value_at(Fraction(2))
        assert v.logs == {Fraction(2): Fraction(1)} and v.rational == -20

    def test_general_exponent_falls_back_to_intervals(self):
        from welfarist.values import IntervalValue

        v = PMean(Fraction(1, 3)).value_at(8, 128)
        assert isinstance(v, IntervalValue)
        assert v.lo <= 2 <= v.hi  # 8**(1/3)
        ordering = compare(v, ExactValue.from_rational(3))
        assert ordering.relation is Relation.LESS


class TestDelta:
    def test_harmonic_footnote_values(self):
        assert delta(ModHarmonic(0), 1, 1).as_fraction() == Fraction(1, 2)
        assert delta(ModHarmonic(0), 1, 2).as_fraction() == Fraction(7, 12)

    def test_sqrt_mean_block(self):
        v = delta(PMean(Fraction(1, 2)), 1, 6)  # sqrt(12) - sqrt(6)
        ordering = compare(v, ExactValue.from_rational(1))
        assert ordering.relation is Relation.GREATER
        enc_mid = 1.0146118
        assert compare(v, ExactValue.from_rational(Fraction(1014, 1000))).relation is Relation.GREATER
        assert compare(v, ExactValue.from_rational(Fraction(1015, 1000))).relation is Relation.LESS

    def test_infinite_only_at_zero_block(self):
        assert delta(Log(), 0, 5) is POS_INF
        assert delta(ModHarmonic(-1), 0, 3) is POS_INF
        assert not isinstance(delta(Log(), 1, 5), type(POS_INF))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            delta(Log(), 1, 0)
        with pytest.raises(ValueError):
            delta(Log(), -1, 1)


@pytest.mark.parametrize(
    "spec",
    ["log", "modlog:0", "modlog:1/2", "harmonic:-1", "harmonic:2/5", "pmean:-1", "pmean:1/2"],
)
def test_telescoping_blocks(spec):
    # summing unit increments across a block reproduces the block increment
    fn = parse_welfare(spec)
    for k in [0, 1, 3, 7]:
        for b in [1, 2, 5]:
            parts = [delta(fn, t, 1) for t in range(k * b, (k + 1) * b)]
            if any(p is POS_INF for p in parts):
                assert k == 0
                continue
            total = value_sum(parts)
            assert compare(total, delta(fn, k, b)).relation is Relation.EQUAL


@pytest.mark.parametrize(
    "spec",
    ["log", "modlog:1", "harmonic:-1", "harmonic:0", "harmonic:1", "pmean:-1", "pmean:0",
     "pmean:1/2", "pmean:1", "combo:1*pmean:0+40*pmean:-1"],
)
def test_strict_monotonicity_on_grid(spec):
    fn = parse_welfare(spec)
    grid = [Fraction(0), Fraction(1, 4), Fraction(1), Fraction(3), Fraction(25, 2), Fraction(100)]
    values = [fn.value_at(x) for x in grid]
    for lo, hi in zip(values, values[1:]):
        if lo is NEG_INF:
            assert hi is not NEG_INF
            continue
        assert compare(lo, hi).relation is Relation.LESS


def test_delta_positive_on_grid():
    for spec in ["log", "modlog:2", "harmonic:-1/2", "pmean:1/2", "pmean:1"]:
        fn = parse_welfare(spec)
        for k in range(0, 8):
            for x in [Fraction(1, 2), 1, 3]:
                d = delta(fn, k, x)
                if d is POS_INF:
                    continue
                assert compare(d, ExactValue.from_rational(0)).relation is Relation.GREATER


_SHAPES = [
    ("log", 0, 0),
    ("modlog:0", 0, 0),
    ("modlog:1/3", Fraction(1, 3), 1),
    ("pmean:0", 0, 0),
    ("pmean:1/2", None, 1),
    ("pmean:-2", None, -1),
    ("harmonic:-1/2", None, 1),
    ("harmonic:3", None, 1),
    ("harmonic:-3/4", None, None),
    ("harmonic:-1", None, None),
    ("combo:1*log+2*pmean:0", 0, 0),
    ("combo:1*modlog:2+3*modlog:2", 2, 1),
    ("combo:1*log+1*modlog:1", None, 1),
    ("combo:1*pmean:0+40*pmean:-1", None, -1),
    ("combo:1*harmonic:0+1/4*pmean:2", None, 1),
    ("combo:1*pmean:1+1*pmean:-1", None, None),
    ("combo:1*harmonic:0+1*harmonic:-1", None, None),
]


@pytest.mark.parametrize("spec, shift, trend", _SHAPES)
def test_declared_shape(spec, shift, trend):
    fn = parse_welfare(spec)
    assert (fn.log_shift, fn.mid_trend) == (shift, trend)
    table = PiecewiseTable([0, 1], [1, 2])
    assert (table.log_shift, table.mid_trend) == (None, None)
    assert LinearCombo([(1, fn), (1, table)]).mid_trend is None


@pytest.mark.parametrize("spec, trend", [(s, t) for s, _, t in _SHAPES if t is not None])
def test_mid_trend_orders_the_middle_increments(spec, trend):
    """mid_k(a) = Delta_{k+1}(a) moves in a the way the family declares."""
    fn = parse_welfare(spec)
    expected = {1: Relation.LESS, -1: Relation.GREATER, 0: Relation.EQUAL}[trend]
    grid = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3), Fraction(8), Fraction(40)]
    for k in range(4):
        mids = [delta(fn, k + 1, a) for a in grid]
        for lo, hi in zip(mids, mids[1:]):
            assert compare(lo, hi).relation is expected, (k, lo, hi)


class TestPiecewiseTable:
    def test_flat_region_and_flag(self):
        fn = PiecewiseTable([0, 1, 2], [1, 0, 1])
        assert not fn.strictly_increasing
        assert fn.value_at(Fraction(1, 2)).as_fraction() == Fraction(1, 2)
        assert fn.value_at(1).as_fraction() == 1
        assert fn.value_at(Fraction(3, 2)).as_fraction() == 1
        assert fn.value_at(3).as_fraction() == 2

    def test_all_positive_slopes_is_strict(self):
        fn = PiecewiseTable([0, 1], [1, Fraction(1, 2)])
        assert fn.strictly_increasing

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseTable([1, 2], [1, 1])  # must start at 0
        with pytest.raises(ValueError):
            PiecewiseTable([0, 1], [1, -1])


class TestGrammar:
    @pytest.mark.parametrize(
        "spec,cls",
        [
            ("log", Log),
            ("modlog:1/2", ModLog),
            ("harmonic:-3/4", ModHarmonic),
            ("pmean:0.5", PMean),
            ("combo:1*pmean:0+40*pmean:-1", LinearCombo),
        ],
    )
    def test_parse(self, spec, cls):
        assert isinstance(parse_welfare(spec), cls)

    def test_label_round_trips(self):
        for spec in ["log", "modlog:1/2", "harmonic:-3/4", "pmean:-1",
                     "combo:1*pmean:0+40*pmean:-1"]:
            fn = parse_welfare(spec)
            assert parse_welfare(fn.label()) == fn
        # tables are library-only: the grammar has no form for their labels
        table = PiecewiseTable([0, 1, 2], [1, 0, 1])
        for label in [table.label(), f"combo:1*log+2*{table.label()}"]:
            with pytest.raises(ValueError, match="bad welfare spec"):
                parse_welfare(label)

    def test_decimal_arguments(self):
        assert parse_welfare("pmean:0.5") == parse_welfare("pmean:1/2")

    @pytest.mark.parametrize("bad", ["", "log:1", "modlog", "pmean:x", "combo:1*"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_welfare(bad)

    def test_constructor_domains(self):
        with pytest.raises(ValueError):
            ModLog(-1)
        with pytest.raises(ValueError):
            ModHarmonic(Fraction(-3, 2))
        with pytest.raises(ValueError):
            LinearCombo([(0, Log())])


def test_increment_matches_value_difference():
    fn = ModHarmonic(Fraction(-3, 4))
    got = increment(fn, 6, 13).as_fraction()
    want = fn.integer_value(13) - fn.integer_value(6)
    assert got == want


def _reference(fn, x: Fraction, bits: int = 120):
    """f(x) at ``bits`` straight from the family's definition; None for -inf."""
    with mpmath.workprec(bits):
        xf = mpmath.mpf(x.numerator) / x.denominator
        if isinstance(fn, Log):
            return None if x == 0 else mpmath.log(xf)
        if isinstance(fn, ModLog):
            c = mpmath.mpf(fn.c.numerator) / fn.c.denominator
            return None if x + fn.c == 0 else mpmath.log(xf + c)
        if isinstance(fn, ModHarmonic):
            if fn.c == -1:
                return None if x == 0 else mpmath.digamma(xf) + mpmath.euler
            c1 = mpmath.mpf(fn.c.numerator) / fn.c.denominator + 1
            return mpmath.digamma(xf + c1) - mpmath.digamma(c1)
        p = mpmath.mpf(fn.p.numerator) / fn.p.denominator
        if x == 0 and fn.p <= 0:
            return None
        return mpmath.log(xf) if p == 0 else (xf**p if p > 0 else -(xf**p))


@pytest.mark.parametrize(
    "spec",
    ["log"]
    + [f"modlog:{c}" for c in ["0", "1/2", "1", "2"]]
    + [f"harmonic:{c}" for c in ["-1", "-3/4", "-1/2", "0", "2/5", "1", "3"]]
    + [f"pmean:{p}" for p in ["-2", "-1", "0", "1/3", "1/2", "1", "2"]],
)
def test_float_model_within_its_error_bound(spec):
    """approx_array stays within table_error_bound of a 120-bit reference at
    integer, quarter-integer and large arguments, with -inf where f diverges.
    The large arguments reach past the (k_max + 3) * a_max the C3b routes
    read: 6 * 2^26 at a_max 2^26 and 6 * 2^30 at a_max 2^30 (k_max 3)."""
    fn = parse_welfare(spec)
    xs = [Fraction(j, 4) for j in range(0, 41)]
    large = (999_983, 4_194_304, 9_999_991, 5 * 2**26 - 1, 6 * 2**30 - 3, 2**33 - 1)
    xs += [n + Fraction(j, 4) for n in large for j in range(4)]
    xs.append(Fraction(2**33))
    with np.errstate(divide="ignore"):
        got = fn.approx_array(np.array(xs, dtype=float))
    for x, approx in zip(xs, got):
        want = _reference(fn, x)
        if want is None:
            assert approx == -np.inf, x
        else:
            # the bound at the argument itself, so it is tight for x^p, p > 0
            assert abs(mpmath.mpf(float(approx)) - want) <= fn.table_error_bound(x or 1, math.ceil(x)), x


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    c=st.sampled_from([Fraction(-1), Fraction(-999999, 10**6), Fraction(-3, 4), Fraction(0), Fraction(2, 5), Fraction(1)]),
    exponent=st.floats(-12, 12),
    denominator=st.integers(1, 10**6),
)
@example(c=Fraction(-1), exponent=-6.0, denominator=1)
@example(c=Fraction(-1), exponent=-9.0, denominator=1)
@example(c=Fraction(-999999, 10**6), exponent=math.log10(2e-6), denominator=10**6)
def test_harmonic_float_model_within_its_proved_bound(c, exponent, denominator):
    """|approx_array - h_c(x)| <= e(x) at the double nearest a rational x >= 0
    with y = x + c + 1 in [10^-12, 10^12], against 200 bits."""
    x = max(Fraction(0), Fraction(round(10**exponent * denominator), denominator) - (c + 1))
    if c == -1 and x == 0:
        x = Fraction(1, denominator * 10**12)
    fn = ModHarmonic(c)
    args = np.array([x.numerator / x.denominator])
    got, bound = fn.approx_array(args)[0], fn._approx_error(args)[0]
    assert math.isfinite(bound)
    assert abs(mpmath.mpf(float(got)) - _reference(fn, x, 200)) <= bound, (x, got, bound)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    c=st.sampled_from([Fraction(-1), Fraction(-999999999, 10**9), Fraction(-3, 4), Fraction(0), Fraction(2, 5), Fraction(1)]),
    exponent=st.floats(-12, 3),
    span=st.integers(0, 10**6),
    data=st.data(),
)
@example(c=Fraction(-1), exponent=math.log10(0.99), span=20, data=None)  # the range holds 1, where z = 10
@example(c=Fraction(-1), exponent=-12.0, span=0, data=None)
@example(c=Fraction(-999999999, 10**9), exponent=-12.0, span=0, data=None)
def test_harmonic_table_error_bound_covers_every_argument(c, exponent, span, data):
    """table_error_bound(least, upto) >= e(x) at 0 (for c > -1: h_{-1}(0) is -inf,
    exactly), at both ends, at the integers up to 12 and at drawn doubles between."""
    fn, least = ModHarmonic(c), Fraction(10**exponent)
    upto = math.ceil(least) + span
    lo, hi = float(least), float(upto)
    xs = [lo, hi] + [float(t) for t in range(math.ceil(least), min(upto, 12) + 1)]
    if c > -1:
        xs.append(0.0)
    if data is not None:
        xs += data.draw(st.lists(st.floats(lo, hi), max_size=20))
    errors = fn._approx_error(np.array(xs))
    assert np.isfinite(errors).all()
    assert errors.max() <= fn.table_error_bound(least, upto), (xs[int(errors.argmax())], errors.max())


def test_harmonic_float_model_forms_c_plus_one_once():
    # float(c) + 1 at c = -999999/10^6 cancels to 1e-6 with a relative error of
    # about 1e-11, which psi'(1e-6) ~ 1e12 turned into an error of 2.2e-5
    fn = ModHarmonic(Fraction(-999999, 10**6))
    got = fn.approx_array(np.array([1e-6]))[0]
    assert abs(mpmath.mpf(float(got)) - _reference(fn, Fraction(1, 10**6), 200)) < 1e-10


@pytest.mark.parametrize("c", [0, 1, 3])
def test_integer_shift_reads_psi_of_c_plus_one_without_a_digamma(monkeypatch, c):
    """-psi(c + 1) = gamma - H_c: within 2^-(bits + 12) of a 400-bit reference at
    the working precision, one digamma per non-integer point and none for the
    shift, and the same values as with -digamma(c + 1).  (The values themselves
    are rounded to doubles, ROADMAP item 1, so they cannot hold a 400-bit
    reference.)"""
    fn, bits = ModHarmonic(c), 256
    with mpmath.workprec(bits + 16):
        shift = fn._digamma_shift()
    with mpmath.workprec(400):
        want = -mpmath.digamma(c + 1)
        assert abs(shift - want) <= mpmath.ldexp(abs(want) + 1, -(bits + 12))
    calls = []
    digamma = mpmath.digamma
    monkeypatch.setattr(mpmath, "digamma", lambda y: calls.append(y) or digamma(y))
    xs = [Fraction(1, 3), Fraction(7, 3), Fraction(5, 2), Fraction(1, 10**9)]
    got = [fn.value_at(x, bits) for x in xs]
    assert len(calls) == len(xs)
    monkeypatch.setattr(ModHarmonic, "_digamma_shift", lambda self: -mpmath.digamma(mpmath.mpf(c + 1)))
    assert [(v.lo, v.hi, v.bits) for v in (fn.value_at(x, bits) for x in xs)] == [(v.lo, v.hi, v.bits) for v in got]
    assert len(calls) == 3 * len(xs)


@pytest.mark.parametrize("c", ["-3/4", "1/2"])
def test_non_integer_shift_takes_its_digamma_once_per_precision(monkeypatch, c):
    """-psi(c + 1) is taken once for a run of points at one precision, not at
    every point, and each value equals a fresh object's, also after a switch
    to another precision and back."""
    xs = [Fraction(k, 7) for k in range(1, 43) if k % 7]
    calls = []
    digamma = mpmath.digamma
    monkeypatch.setattr(mpmath, "digamma", lambda y: calls.append(y) or digamma(y))
    fn = ModHarmonic(c)
    got = [fn.value_at(x, 256) for x in xs]
    assert len(xs) == 36 and len(calls) == 37
    assert [(v.lo, v.hi, v.bits) for v in got] == [
        (v.lo, v.hi, v.bits) for v in (ModHarmonic(c).value_at(x, 256) for x in xs)
    ]
    for bits in (128, 256):
        v, w = fn.value_at(xs[0], bits), ModHarmonic(c).value_at(xs[0], bits)
        assert (v.lo, v.hi, v.bits) == (w.lo, w.hi, w.bits)


@pytest.mark.parametrize("c", ["-1", "-3/4", "0", "907/2048", "3"])
@pytest.mark.parametrize("length", [1, 63, 64, 65, 129])
def test_range_sum_matches_a_plain_sum(c, length):
    """Blocks of 64 terms around the block edges; lo = 2 skips the divergent
    term of c = -1."""
    fn = ModHarmonic(c)
    want = sum(Fraction(1) / (t + fn.c) for t in range(2, 2 + length))
    assert fn.range_sum(2, 1 + length) == want


_NEAR_THRESHOLD = [Fraction(907, 2048), Fraction(3627, 8192), Fraction(7253, 16384)]


@st.composite
def _rational_shifts(draw):
    """A rational in (-1, 3] with a denominator up to 2^13."""
    den = draw(st.integers(1, 2**13))
    return Fraction(draw(st.integers(-den + 1, 3 * den)), den)


# c = -1, one of the bisection's shifts near 1/log 2 - 1, or a drawn rational
_SHIFTS = st.sampled_from([Fraction(-1), *_NEAR_THRESHOLD]) | _rational_shifts()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_SHIFTS, st.integers(1, 10**4), st.integers(1, 3000))
@example(Fraction(-1), 2, 15)  # the whole window in the exact head
@example(Fraction(-1), 2, 16)  # one term past the head
@example(Fraction(0), 1, 600)
@example(Fraction(907, 2048), 5575, 5574)  # the bisection's C3b witness (length past 3000)
@example(Fraction(1, 3), 9999, 1)
def test_range_bounds_enclose_the_exact_sum(c, lo, length):
    """lower < range_sum < upper, both strict, decided by the comparator."""
    lo = max(lo, 2) if c == -1 else lo  # t = 1 is the divergent term of c = -1
    fn = ModHarmonic(c)
    lower, upper = fn.range_bounds(lo, lo + length - 1)
    exact = ExactValue.from_rational(fn.range_sum(lo, lo + length - 1))
    assert compare(lower, exact).relation is Relation.LESS
    assert compare(exact, upper).relation is Relation.LESS


@pytest.mark.parametrize("c, length, deferred", [("0", 511, False), ("0", 512, True), ("-1", 512, True)])
def test_long_harmonic_windows_are_deferred(c, length, deferred):
    """From 512 terms on an integer window is a DeferredValue built on demand,
    with the exact sum's value; shorter windows are exact at once."""
    fn = ModHarmonic(c)
    value = increment(fn, 1, 1 + length)
    assert isinstance(value, DeferredValue) is deferred
    want = fn.range_sum(2, 1 + length)
    assert value.as_fraction() == want  # any other reader gets the exact value
    assert value_sum([value, ExactValue.from_rational(1)]).as_fraction() == want + 1


def test_harmonic_value_is_psi_plus_gamma_padded():
    # y = x for c = -1: below and above y = 1 on one fractional part, each
    # point equals psi(y) + gamma padded at bits + 16 on its own
    fn, bits = ModHarmonic(-1), 53
    for x in [Fraction(1, 191), Fraction(192, 191)]:
        with mpmath.workprec(bits + 16):
            val = mpmath.digamma(mpmath.mpf(x.numerator) / x.denominator) + mpmath.euler
            err = mpmath.ldexp(abs(val) + 1, -(bits + 4))
        want = IntervalValue(val - err, val + err, bits)
        got = fn.value_at(x, bits)
        assert (got.lo, got.hi, got.bits) == (want.lo, want.hi, want.bits), x


def _exact(m) -> Fraction:
    """The value of an mpf as an exact fraction."""
    sign, man, exp, _ = m._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _intervals(bits):
    """Enclosures at ``bits``: power-mean values of either sign, and wider
    intervals around sqrt(x) - 2, one of them [-eps, 0]."""
    out = [PMean(p).value_at(x, bits) for p in (Fraction(1, 3), Fraction(-1, 3)) for x in range(2, 15)]
    with mpmath.workprec(bits):
        for x in range(2, 15):
            c = mpmath.sqrt(x) - 2
            out.append(IntervalValue(c - mpmath.ldexp(1, -(bits // 2)), c, bits))
    return out


@pytest.mark.parametrize("bits", [64, 256, 1024])
@pytest.mark.parametrize("w", [Fraction(1, 3), Fraction(40), Fraction(7, 5), Fraction(-1), Fraction(-7, 5)])
def test_scaled_interval_encloses_the_exact_product(bits, w):
    """A weight times an interval term encloses w * [lo, hi] exactly, the
    ends swapped for w < 0, and is at most about 2^-bits (relative) wider."""
    for v in _intervals(bits):
        scaled = v.scale(w)
        lo, hi = sorted((w * _exact(v.lo), w * _exact(v.hi)))
        assert _exact(scaled.lo) <= lo and hi <= _exact(scaled.hi), v
        slack = (_exact(scaled.hi) - _exact(scaled.lo)) - (hi - lo)
        assert slack <= Fraction(max(1, abs(lo), abs(hi)), 2**bits), v


@pytest.mark.parametrize(
    "spec, c, d",
    [("harmonic:-1/2", Fraction(1, 2), Fraction(1)), ("harmonic:0", Fraction(7, 5), Fraction(2))],
)
def test_value_sum_of_the_c2_dump_witnesses_stays_below_the_value(spec, c, d):
    """The C2 lhs f(c) + f(d) of the pinned condition dump's five harmonic
    witness lines: value_sum adds the 256-bit enclosure of the rational f(d)
    to an interval end at 53 bits, and its lo stays at or below the 400-bit
    value."""
    fn = parse_welfare(spec)
    lhs = value_sum([fn.value_at(c), fn.value_at(d)])
    with mpmath.workprec(400):
        assert lhs.lo <= _reference(fn, c, 400) + _reference(fn, d, 400)


def _count_constructions(monkeypatch) -> list:
    init, calls = ExactValue.__init__, []

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ExactValue, "__init__", counting_init)
    return calls


def _parts(v: ExactValue):
    return v.rational, v.surds, v.logs


_POINTS = [Fraction(1), Fraction(2), Fraction(9), Fraction(9, 4), Fraction(8, 3), Fraction(50, 7), Fraction(10**20 + 1, 3)]


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2), Fraction(5, 2)])
@pytest.mark.parametrize("x", _POINTS)
def test_half_integer_power_is_one_construction(p, x, monkeypatch):
    """x**p, p = s/2, builds its surd once, with the parts of sqrt(x) scaled by
    sign * x**whole; perfect squares fold into the rational part."""
    sign, whole = (1 if p > 0 else -1), (p.numerator - 1) // 2
    want = _parts(ExactValue.from_sqrt(x).scale(sign * x**whole))
    calls = _count_constructions(monkeypatch)
    got = PMean(p).value_at(x)
    assert len(calls) == 1
    assert _parts(got) == want


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(3, 2)])
def test_half_integer_power_at_zero(p, monkeypatch):
    calls = _count_constructions(monkeypatch)
    assert _parts(PMean(p).value_at(0)) == (0, {}, {})
    assert len(calls) == 1
    assert PMean(-p).value_at(0) is NEG_INF


@pytest.mark.parametrize("c", [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(7, 3)])
@pytest.mark.parametrize("x", [Fraction(0)] + _POINTS)
def test_shifted_log_is_one_construction(c, x, monkeypatch):
    """log(x + c) adds x + c once and builds one value, log(x + c) with weight 1."""
    fn = ModLog(c)
    if x + c == 0:
        assert fn.value_at(x) is NEG_INF
        return
    want = _parts(ExactValue.from_log(x + c))
    calls = _count_constructions(monkeypatch)
    add, sums = Fraction.__add__, []

    def counting_add(a, b):
        sums.append((a, b))
        return add(a, b)

    monkeypatch.setattr(Fraction, "__add__", counting_add)
    got = fn.value_at(x)
    monkeypatch.undo()
    assert len(calls) == 1 and len(sums) == 1
    assert _parts(got) == want
