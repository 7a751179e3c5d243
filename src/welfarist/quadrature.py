"""Numerical evaluation of the modified-harmonic integral extension.

``harmonic_integral(c, x, abs_tol)`` estimates the defining integral

    h_c(x)  = integral over (0,1) of (t**c - t**(x+c)) / (1 - t)   for c > -1
    h_-1(x) = integral over (0,1) of (1 - t**(x-1)) / (1 - t)

by adaptive composite Gauss-Legendre quadrature in arbitrary precision.
Both integrands have the shape (t**e1 - t**e2)/(1-t) with rational
e1, e2 > -1.  One substitution t = s**d, with d the lcm of the exponents'
denominators, turns it into d*(s**n1 - s**n2)/(1 - s**d) with integers
n_i = d*(e_i + 1) - 1 >= 0: no fractional power (t**(1/2) has an unbounded
derivative at 0) and no singularity at the origin.  At s = 1 it has the
limit n2 - n1; Gauss nodes touch neither endpoint.  For integer exponents
d = 1 and nothing changes.  As t = s**d squeezes most of (0, 1) into the
last 1/d of [0, 1], where one start panel can miss it (both rules then
agree on a wrong value, as at d = 10**4), refinement starts from panels
graded toward s = 1, the last narrower than 8/d, and the working precision
grows by the bits they take.

The result is an ``IntegralEstimate``: the composite sum -+ six times the
summed GL(12)/GL(24) discrepancy plus abs_tol/4.  It is an estimate, not a
certified enclosure, so ``compare`` refuses it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import mpmath
from mpmath.calculus.quadrature import GaussLegendre

_MAX_PANELS = 4000  # the refinement budget of one integral


class IntegralEstimate(NamedTuple):
    """Ends lo <= hi around an integral from an error estimate, not a proof, so no welfare value."""

    lo: mpmath.mpf
    hi: mpmath.mpf
    width = property(lambda self: self.hi - self.lo)


class DivergentIntegralError(ValueError):
    """The requested point of the integral family diverges."""


class QuadratureError(RuntimeError):
    """The requested tolerance was not reached within the refinement budget."""


@lru_cache(maxsize=16)
def _legendre_nodes(order: int, prec: int):
    """The (node, weight) pairs of the order-point Gauss-Legendre rule on
    [-1, 1], for order 3 * 2**(d-1), from mpmath's degree-d table.

    mpmath computes the table at 1.5 * prec; the pairs are rounded to prec.
    The precision grows with the tolerance and with the exponents'
    denominator, so the cache keeps only the 16 most recent (order, prec)
    tables: eight precisions of the GL(12)/GL(24) pair.
    """
    with mpmath.workprec(prec):
        table = GaussLegendre(mpmath.mp).calc_nodes((order // 3).bit_length(), prec)
        return tuple((+x, +w) for x, w in table)


def _panel_sum(f, a, b, order: int, prec: int):
    half = (b - a) / 2
    mid = (b + a) / 2
    return half * mpmath.fsum(w * f(mid + half * x) for x, w in _legendre_nodes(order, prec))


def _adaptive(f, abs_tol, prec, grade):
    """Composite GL(12)/GL(24) refinement on [0, 1]; returns (value, error_estimate).

    Starts from the panels [0, 1/2], [1/2, 3/4], ..., [1 - 2**-grade, 1].
    """
    with mpmath.workprec(prec):
        ends = [1 - mpmath.ldexp(1, -k) for k in range(grade + 1)] + [mpmath.mpf(1)]
        stack = list(zip(ends, ends[1:]))
        total = mpmath.mpf(0)
        err_total = mpmath.mpf(0)
        panels = 0
        while stack:
            a, b = stack.pop()
            panels += 1
            if panels > _MAX_PANELS:
                raise QuadratureError("refinement budget exhausted")
            coarse = _panel_sum(f, a, b, 12, prec)
            fine = _panel_sum(f, a, b, 24, prec)
            disc = abs(fine - coarse)
            if disc <= abs_tol * (b - a) / 8 or (b - a) < mpmath.ldexp(1, -64):
                total += fine
                err_total += disc
            else:
                mid = (a + b) / 2
                stack.append((a, mid))
                stack.append((mid, b))
        return total, err_total


def _exponent_pair(c: Fraction, x: Fraction) -> tuple[Fraction, Fraction]:
    if c == -1:
        return Fraction(0), x - 1
    return c, x + c


def harmonic_integral(c, x, abs_tol: float = 1e-9) -> IntegralEstimate:
    """Estimate h_c(x) by quadrature, with ends at most abs_tol apart.

    The ends are the composite GL(24) sum -+ (6*err + abs_tol/4), with err
    the summed GL(12)/GL(24) discrepancy: an estimate, not a proven bound.

    Raises :class:`DivergentIntegralError` at the divergent point (c=-1, x=0)
    and :class:`QuadratureError` if refinement cannot reach the tolerance.
    """
    c, x = Fraction(c), Fraction(x)
    if c < -1:
        raise ValueError("shift must be >= -1")
    if x < 0:
        raise ValueError("argument must be >= 0")
    if not 0 < abs_tol < math.inf:  # also rejects nan
        raise ValueError("tolerance must be a positive finite number")
    e1, e2 = _exponent_pair(c, x)
    if e2 <= -1:
        raise DivergentIntegralError(f"h_{c}({x}) diverges")
    if e1 == e2:
        half = abs_tol / 2
        return IntegralEstimate(mpmath.mpf(-half), mpmath.mpf(half))

    d = math.lcm(e1.denominator, e2.denominator)
    n1, n2 = (int(d * (e + 1)) - 1 for e in (e1, e2))
    grade = (d // 8).bit_length()
    prec = max(96, int(-mpmath.log(abs_tol, 2)) * 3 + 96) + grade
    with mpmath.workprec(prec):
        def integrand(s):
            return d * (s**n1 - s**n2) / (1 - s**d)

        tol = mpmath.mpf(abs_tol) / 8
        value, err_est = _adaptive(integrand, tol, prec, grade)
        err = 6 * err_est + mpmath.mpf(abs_tol) / 4
        if 2 * err > abs_tol:
            raise QuadratureError("tolerance not reached")
        return IntegralEstimate(value - err, value + err)
