"""Numerical evaluation of the modified-harmonic integral extension.

``harmonic_integral(c, x, abs_tol)`` estimates the defining integral

    h_c(x)  = integral over (0,1) of (t**c - t**(x+c)) / (1 - t)   for c > -1
    h_-1(x) = integral over (0,1) of (1 - t**(x-1)) / (1 - t)

by adaptive composite Gauss-Legendre quadrature.  Both integrands have the
shape (t**e1 - t**e2)/(1-t) with rational e1, e2 > -1.  One substitution
t = s**d, with d the lcm of the exponents' denominators, turns it into
d*(s**n1 - s**n2)/(1 - s**d) with integers n_i = d*(e_i + 1) - 1 >= 0: no
fractional power (t**(1/2) has an unbounded derivative at 0) and no
singularity at the origin.  At s = 1 it has the limit n2 - n1; Gauss nodes
touch neither endpoint.  For integer exponents d = 1 and nothing changes.
As t = s**d squeezes most of (0, 1) into the last 1/d of [0, 1], where one
start panel can miss it (both rules then agree on a wrong value, as at
d = 10**4), refinement starts from panels graded toward s = 1, the last
narrower than 8/d, and the working precision grows by the bits they take.

Refinement runs on Python integers over 2**prec (panel ends, nodes, weights,
integrand values and sums), with no mpmath arithmetic in its loop; mpmath
builds the node tables and turns the two final sums into mpf ends.

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
    """The order-point Gauss-Legendre rule on [0, 1] as (node, weight) integers
    over 2**prec: mpmath's degree-d table (order 3 * 2**(d-1), computed at
    1.5 * prec) on [-1, 1], each (x, w) rounded once to (1 + x)/2 and w/2.
    The precision grows with the tolerance and the exponents' denominator, so
    the cache keeps the 16 most recent tables: eight GL(12)/GL(24) pairs.
    """
    with mpmath.workprec(2 * prec):  # 1 + x is exact
        table = GaussLegendre(mpmath.mp).calc_nodes((order // 3).bit_length(), prec)
        return tuple(tuple(int(mpmath.nint(mpmath.ldexp(v, prec - 1))) for v in (1 + x, w)) for x, w in table)


def _powers(exponents: tuple[int, ...], prec: int):
    """s -> [s**n over 2**prec for n in exponents], by square-and-multiply
    with each product truncated.  One chain of squares s, s**2, s**4, ...
    serves every n, and each power takes its factors in increasing bit order,
    as square-and-multiply for that n alone would (its first factor is exact)."""
    # takers[b]: the indices of the exponents with bit b set
    takers = [[i for i, n in enumerate(exponents) if n >> b & 1] for b in range(max(exponents).bit_length())]

    def powers(s: int) -> list[int]:
        out = [1 << prec] * len(exponents)
        for i in takers[0]:
            out[i] = s
        for holders in takers[1:]:
            s = s * s >> prec
            for i in holders:
                out[i] = out[i] * s >> prec
        return out

    return powers


def _panel_sum(f, a: int, b: int, order: int, prec: int) -> int:
    """The order-point rule on [a, b]: ends, nodes, weights, f and the sum over 2**prec."""
    width = b - a
    return width * sum(w * f(a + (width * x >> prec)) for x, w in _legendre_nodes(order, prec)) >> 2 * prec


def _adaptive(f, tol: Fraction, prec: int, grade: int) -> tuple[int, int]:
    """Composite GL(12)/GL(24) refinement on [0, 1]; returns (value, error_estimate)
    over 2**prec.  Starts from the panels [0, 1/2], [1/2, 3/4], ..., [1 - 2**-grade, 1]:
    every end is dyadic, an exact integer over 2**prec."""
    one = 1 << prec
    ends = [one - (one >> k) for k in range(grade + 1)] + [one]
    stack = list(zip(ends, ends[1:]))
    total = err_total = panels = 0
    while stack:
        a, b = stack.pop()
        panels += 1
        if panels > _MAX_PANELS:
            raise QuadratureError("refinement budget exhausted")
        coarse = _panel_sum(f, a, b, 12, prec)
        fine = _panel_sum(f, a, b, 24, prec)
        disc = abs(fine - coarse)
        # disc <= tol * (b - a) / 8, or b - a < 2**-64
        if 8 * tol.denominator * disc <= tol.numerator * (b - a) or b - a < one >> 64:
            total += fine
            err_total += disc
        else:
            mid = (a + b) // 2
            stack += [(a, mid), (mid, b)]
    return total, err_total


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
    e1, e2 = (Fraction(0), x - 1) if c == -1 else (c, x + c)
    if e2 <= -1:
        raise DivergentIntegralError(f"h_{c}({x}) diverges")
    if e1 == e2:
        half = abs_tol / 2
        return IntegralEstimate(mpmath.mpf(-half), mpmath.mpf(half))

    d = math.lcm(e1.denominator, e2.denominator)
    n1, n2 = (int(d * (e + 1)) - 1 for e in (e1, e2))
    grade = (d // 8).bit_length()
    prec = max(96, int(-mpmath.log(abs_tol, 2)) * 3 + 96) + grade

    # Each product truncates by less than one unit of 2**-prec, and every power
    # of a node s < 1 stays below 1, so the units add: s**n is at most n units
    # low, and 1 - s**d never reaches 0.  The integrand is off by at most
    # d * (n1 + n2 + |f|) units / (1 - s**d) + 1: under 1e-50 for x <= 8 and
    # d <= 2 (prec >= 183, 1 - s > 1/500 on their one panel), against tol 1e-9.
    powers = _powers((n1, n2, d), prec)

    def integrand(s: int) -> int:
        s1, s2, sd = powers(s)
        return d * ((s1 - s2) << prec) // ((1 << prec) - sd)

    value, err_est = _adaptive(integrand, Fraction(abs_tol) / 8, prec, grade)
    with mpmath.workprec(prec):
        err = 6 * mpmath.ldexp(err_est, -prec) + mpmath.mpf(abs_tol) / 4
        if 2 * err > abs_tol:
            raise QuadratureError("tolerance not reached")
        value = mpmath.ldexp(value, -prec)
        return IntegralEstimate(value - err, value + err)
