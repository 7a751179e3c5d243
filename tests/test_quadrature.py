"""Integral extension of the harmonic family vs. closed-form sums."""

import math
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath.calculus.quadrature import GaussLegendre

from welfarist import quadrature
from welfarist.functions import ModHarmonic
from welfarist.quadrature import DivergentIntegralError, IntegralEstimate, harmonic_integral
from welfarist.values import compare, value_sum


def contains(iv, frac: Fraction) -> bool:
    q = mpmath.mpf(frac.numerator) / frac.denominator
    return iv.lo <= q <= iv.hi


def test_matches_closed_form_reference_point():
    iv = harmonic_integral(0, 4, 1e-9)
    assert contains(iv, Fraction(25, 12))
    assert float(iv.width) <= 1e-9


def test_zero_argument_is_zero():
    iv = harmonic_integral(0, 0, 1e-9)
    assert iv.lo <= 0 <= iv.hi


def test_shift_minus_one_identity_point():
    iv = harmonic_integral(-1, 3, 1e-9)
    assert contains(iv, Fraction(3, 2))


def test_an_estimate_is_no_welfare_value():
    # the ends come from an error estimate, not a proof, so the comparator refuses them
    est = harmonic_integral(0, 4, 1e-9)
    assert isinstance(est, IntegralEstimate) and est.width == est.hi - est.lo
    for operands in [(est, Fraction(25, 12)), (Fraction(25, 12), est), (est, est)]:
        with pytest.raises(TypeError):
            compare(*operands)
    with pytest.raises(TypeError):
        value_sum([est])


def test_divergent_point():
    with pytest.raises(DivergentIntegralError):
        harmonic_integral(-1, 0)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        harmonic_integral(-2, 1)
    with pytest.raises(ValueError):
        harmonic_integral(0, -1)
    with pytest.raises(ValueError):
        harmonic_integral(0, 1, 0)
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive finite"):
            harmonic_integral(0, 3, tol)


@pytest.mark.parametrize(
    "c",
    [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)]
    + [Fraction(-3, 4), Fraction(-2, 3), Fraction(1, 3), Fraction(7, 9)],
)
def test_closed_form_grid(c):
    fn = ModHarmonic(c)
    for x in range(0, 9):
        if c == -1 and x == 0:
            continue
        iv = harmonic_integral(c, x, 1e-9)
        assert contains(iv, fn.integer_value(x)), (c, x)
        assert float(iv.width) <= 1e-9


def test_downshift_identity_on_integers():
    # the c=-1 member is the unshifted one evaluated a step down
    h0 = ModHarmonic(0)
    for x in range(1, 9):
        iv = harmonic_integral(-1, x, 1e-10)
        assert contains(iv, h0.integer_value(x - 1))


def test_non_integer_agrees_with_digamma_route():
    iv = harmonic_integral(Fraction(1, 2), Fraction(7, 2), 1e-10)
    ev = ModHarmonic(Fraction(1, 2)).value_at(Fraction(7, 2), 128)
    assert iv.lo <= ev.midpoint() <= iv.hi


def test_fractional_argument_below_one_with_negative_shift():
    # integrable singularity at the origin is substituted away
    iv = harmonic_integral(Fraction(-1, 2), Fraction(1, 3), 1e-9)
    ev = ModHarmonic(Fraction(-1, 2)).value_at(Fraction(1, 3), 128)
    assert iv.lo <= ev.midpoint() <= iv.hi


@pytest.mark.parametrize(
    "c, x",
    [(0, Fraction(1, 997)), (Fraction(7, 9), Fraction(11, 13)), (Fraction(-3, 4), Fraction(5, 7)),
     (0, Fraction(201, 2)),
     # d = 10**4 to 10**6: t = s**d puts most of the integral in a strip of
     # width about 1/d next to s = 1, which one start panel [0, 1] misses
     (0, Fraction(1, 10**4)), (-1, Fraction(1, 10**6)), (Fraction(-99999, 100000), Fraction(3, 7))],
)
def test_large_denominators_agree_with_digamma_route(c, x):
    iv = harmonic_integral(c, x, 1e-9)
    ev = ModHarmonic(Fraction(c)).value_at(x, 128)
    assert iv.lo <= ev.midpoint() <= iv.hi
    assert float(iv.width) <= 1e-9


def test_fractional_powers_need_no_refinement(monkeypatch):
    # after t = s**d the integrand has integer powers only: one panel pair
    # suffices where t**(1/2), unbounded in slope at 0, forces bisection there
    calls = []
    panel_sum = quadrature._panel_sum

    def counted(*args):
        calls.append(args)
        return panel_sum(*args)

    monkeypatch.setattr(quadrature, "_panel_sum", counted)
    half = Fraction(1, 2)
    points = [(half, x) for x in range(1, 9)] + [
        (0, half), (-half, Fraction(1, 3)), (Fraction(1, 3), 2), (half, Fraction(7, 2))
    ]
    for c, x in points:
        calls.clear()
        harmonic_integral(c, x, 1e-9)
        assert len(calls) <= 4, (c, x, len(calls))


@pytest.mark.parametrize("order", [12, 24])
@pytest.mark.parametrize("prec", [96, 200])
def test_legendre_rule_is_exact_to_its_degree(order, prec):
    # an order-point rule integrates polynomials of degree up to 2*order - 1
    # exactly; t**(2*order - 2) is the highest even power it must get right.
    # The table holds integers over 2**prec on [0, 1]: within 2**8 units.
    table = quadrature._legendre_nodes(order, prec)
    one, k = 1 << prec, 2 * order - 2
    assert len(table) == order and all(0 < t < one for t, _ in table)
    assert abs(sum(w for _, w in table) - one) <= 1 << 8
    moment = Fraction(sum(w * t**k for t, w in table), one**k)
    assert abs(moment - Fraction(one, k + 1)) <= 1 << 8


def test_node_tables_stay_bounded():
    # each denominator 2**k + 1 starts one more graded panel, at one more bit
    # of precision, so every integral here needs two new node tables
    for k in range(3, 13):
        x = 1 + Fraction(1, 2**k + 1)
        iv = harmonic_integral(0, x, 1e-9)
        assert iv.lo <= ModHarmonic(0).value_at(x, 128).midpoint() <= iv.hi
        assert quadrature._legendre_nodes.cache_info().currsize <= 16


# The refinement in mpmath numbers, as it ran before the fixed-point rule: the
# oracle for the integer one.
@lru_cache(maxsize=4)
def _mp_nodes(order, prec):
    with mpmath.workprec(prec):
        return tuple((+x, +w) for x, w in GaussLegendre(mpmath.mp).calc_nodes((order // 3).bit_length(), prec))


def _mp_panel_sum(f, a, b, order, prec):
    half, mid = (b - a) / 2, (b + a) / 2
    return half * mpmath.fsum(w * f(mid + half * x) for x, w in _mp_nodes(order, prec))


def _oracle(c, x, abs_tol):
    """(lo, hi, panel sums) of h_c(x), with mpmath arithmetic throughout."""
    e1, e2 = (Fraction(0), x - 1) if c == -1 else (c, x + c)
    if e1 == e2:
        return mpmath.mpf(-abs_tol / 2), mpmath.mpf(abs_tol / 2), 0
    d = math.lcm(e1.denominator, e2.denominator)
    n1, n2 = (int(d * (e + 1)) - 1 for e in (e1, e2))
    grade = (d // 8).bit_length()
    prec = max(96, int(-mpmath.log(abs_tol, 2)) * 3 + 96) + grade
    with mpmath.workprec(prec):
        f = lambda s: d * (s**n1 - s**n2) / (1 - s**d)  # noqa: E731
        tol = mpmath.mpf(abs_tol) / 8
        ends = [1 - mpmath.ldexp(1, -k) for k in range(grade + 1)] + [mpmath.mpf(1)]
        stack, total, err, sums = list(zip(ends, ends[1:])), mpmath.mpf(0), mpmath.mpf(0), 0
        while stack:
            a, b = stack.pop()
            coarse, fine = _mp_panel_sum(f, a, b, 12, prec), _mp_panel_sum(f, a, b, 24, prec)
            sums, disc = sums + 2, abs(fine - coarse)
            if disc <= tol * (b - a) / 8 or (b - a) < mpmath.ldexp(1, -64):
                total, err = total + fine, err + disc
            else:
                stack += [(a, (a + b) / 2), ((a + b) / 2, b)]
        err = 6 * err + mpmath.mpf(abs_tol) / 4
        return total - err, total + err, sums


def _counted(c, x, abs_tol):
    """harmonic_integral(c, x, abs_tol) and the number of panel sums it took."""
    calls = []
    panel_sum = quadrature._panel_sum
    with mock.patch.object(quadrature, "_panel_sum", lambda *args: calls.append(args) or panel_sum(*args)):
        return harmonic_integral(c, x, abs_tol), len(calls)


_SHIFTS = st.just(Fraction(-1)) | st.integers(1, 12).flatmap(
    lambda q: st.integers(1 - q, 2 * q).map(lambda p: Fraction(p, q)))
_ARGUMENTS = st.integers(1, 12).flatmap(lambda q: st.integers(1, 12 * q).map(lambda p: Fraction(p, q)))


def _benchmark_points(test):
    # the 40 integrals of a conditions round: five shifts at x = 1..8
    for c in (-1, Fraction(-1, 2), 0, Fraction(1, 2), 1):
        for x in range(1, 9):
            test = example(Fraction(c), Fraction(x))(test)
    return test


@settings(max_examples=60, deadline=None)
@given(_SHIFTS, _ARGUMENTS)
@_benchmark_points
def test_integer_rule_matches_the_mpmath_refinement(c, x):
    """The same panel sums as the mpmath refinement, midpoint and width each
    within 2**-120 of its, around the closed form or 128-bit digamma value."""
    est, sums = _counted(c, x, 1e-9)
    lo, hi, want_sums = _oracle(c, x, 1e-9)
    assert sums == want_sums
    with mpmath.workprec(400):
        assert abs((est.lo + est.hi) - (lo + hi)) / 2 <= mpmath.ldexp(1, -120)
        assert abs(est.width - (hi - lo)) <= mpmath.ldexp(1, -120)
    fn = ModHarmonic(c)
    assert contains(est, fn.integer_value(int(x))) if x.denominator == 1 else (
        est.lo <= fn.value_at(x, 128).midpoint() <= est.hi)


def test_refinement_reads_no_mpmath_once_the_nodes_are_cached(monkeypatch):
    class NoMpmath:
        def __getattr__(self, name):
            raise AssertionError(f"mpmath.{name} read inside _adaptive")

    adaptive = quadrature._adaptive

    def spied(*args):
        with monkeypatch.context() as patch:
            patch.setattr(quadrature, "mpmath", NoMpmath())
            return adaptive(*args)

    points = [(0, 4), (Fraction(1, 2), Fraction(7, 2)), (Fraction(-3, 4), Fraction(5, 7)), (0, Fraction(1, 10**4))]
    want = [harmonic_integral(c, x, 1e-9) for c, x in points]  # builds the node tables
    monkeypatch.setattr(quadrature, "_adaptive", spied)
    assert [harmonic_integral(c, x, 1e-9) for c, x in points] == want


def _lone_power(s, n, prec):
    """s**n over 2**prec by square-and-multiply for one n, each product truncated."""
    result = 1 << prec
    while n:
        if n & 1:
            result = result * s >> prec
        n >>= 1
        if n:
            s = s * s >> prec
    return result


@settings(max_examples=60, deadline=None)
@given(_SHIFTS, _ARGUMENTS)
@_benchmark_points
@example(Fraction(0), Fraction(1, 10**15))
def test_shared_chain_of_squares_matches_three_chains(c, x):
    """At every node the refinement reads, the integrand, whose three powers
    share one chain of squares, equals the integrand built from three lone
    square-and-multiply chains, bit for bit."""
    seen, adaptive = [], quadrature._adaptive

    def spied(f, tol, prec, grade):
        seen.append((f, prec))
        return adaptive(f, tol, prec, grade)

    with mock.patch.object(quadrature, "_adaptive", spied):
        harmonic_integral(c, x, 1e-9)
    if not seen:  # e1 == e2: no integral to refine
        return
    (f, prec), nodes = seen[0], []
    e1, e2 = (Fraction(0), x - 1) if c == -1 else (c, x + c)
    d = math.lcm(e1.denominator, e2.denominator)
    n1, n2 = (int(d * (e + 1)) - 1 for e in (e1, e2))

    def three_chains(s):
        lone = [_lone_power(s, n, prec) for n in (n1, n2, d)]
        return d * ((lone[0] - lone[1]) << prec) // ((1 << prec) - lone[2])

    def recorded(s):
        nodes.append(s)
        return f(s)

    adaptive(recorded, Fraction(1, 10**9) / 8, prec, (d // 8).bit_length())
    assert nodes and [f(s) for s in nodes] == [three_chains(s) for s in nodes]
