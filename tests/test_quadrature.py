"""Integral extension of the harmonic family vs. closed-form sums."""

from fractions import Fraction

import mpmath
import pytest

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
    # exactly; x**(2*order - 2) is the highest even power it must get right
    with mpmath.workprec(prec):
        table = quadrature._legendre_nodes(order, prec)
        tol = mpmath.ldexp(1, -(prec - 8))
        assert len(table) == order
        assert abs(mpmath.fsum(w for _, w in table) - 2) <= tol
        moment = mpmath.fsum(w * x ** (2 * order - 2) for x, w in table)
        assert abs(moment - mpmath.mpf(2) / (2 * order - 1)) <= tol


def test_node_tables_stay_bounded():
    # each denominator 2**k + 1 starts one more graded panel, at one more bit
    # of precision, so every integral here needs two new node tables
    for k in range(3, 13):
        x = 1 + Fraction(1, 2**k + 1)
        iv = harmonic_integral(0, x, 1e-9)
        assert iv.lo <= ModHarmonic(0).value_at(x, 128).midpoint() <= iv.hi
        assert quadrature._legendre_nodes.cache_info().currsize <= 16
