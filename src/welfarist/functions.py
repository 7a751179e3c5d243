"""The evaluable welfare-function family and the block-increment operator.

Families: shifted logarithms log(x+c) with c >= 0, whose c = 0 member is the
log of the Nash-welfare rule, modified harmonic numbers h_c (sums 1/(t+c) on
integers, extended to the reals by the classical integral / digamma identity),
power means x**p, and positive linear combinations.  A piecewise-linear table
variant exists to host deliberately non-strictly-increasing functions.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from fractions import Fraction
from math import ceil, gcd, inf, isqrt, lcm, nextafter, prod
from typing import Callable, Iterable, NamedTuple, Sequence

import mpmath
import numpy as np

from .values import (
    DEFAULT_PRECISION_BITS,
    NEG_INF,
    POS_INF,
    SCAN_BITS,
    DeferredValue,
    ExactValue,
    ExtendedValue,
    Infinite,
    IntervalValue,
    Relation,
    _nearest_float,
    compare,
    float_bounds,
    value_sum,
)

_RAT = r"-?\d+(?:\.\d+)?(?:/\d+)?"

_EULER_GAMMA = 0.5772156649015329
# the largest integer shift c whose -psi(c+1) ModHarmonic._digamma_shift reads
# as gamma - H_c, an exact sum of c terms; a larger c takes one digamma instead
_RECURRENCE_SPAN = 64
# terms of one unreduced block sum in ModHarmonic.range_sum; the blocks' reduced
# sums are added as Fractions in a balanced tree
_SPLIT_BLOCK = 64
# ModHarmonic.range_bounds adds the terms with t + c below this exactly, so that
# its remainder bound 1/(240 z^8) is below 1e-12 wherever a window starts
_EXACT_HEAD = 16
# increment defers harmonic windows from this many terms on, where an exact sum
# starts to cost more than two comparisons on the bounds (BENCH_33.json)
_DEFER_TERMS = 512


def _fraction(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational: {text!r}") from exc


def _digamma_recurrence(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z, low, S) of the model at a 1-D array of doubles w >= 0: z = fl(w + n) >= 10,
    ``low`` the indices where n > 0, and S at those the float sum of 1/fl(w + j),
    j < n (inf at w = 0), all steps at once."""
    z = np.array(x, dtype=float)
    low = np.flatnonzero(z < 10)
    steps = z[low, None] + np.arange(10.0)
    below = steps < 10
    with np.errstate(divide="ignore"):
        recurrence = np.where(below, 1.0 / steps, 0.0).sum(axis=1)
    z[low] += below.sum(axis=1)
    return z, low, recurrence


# The error bound D(w) of _float_digamma_array, which _float_digamma_bound
# computes.  Write u = 2^-53; a double operation on normal doubles returns
# a(1 + d) for the exact result a, |d| <= u.  For a double w >= 2^-1022 the model computes, in doubles: n = 0 if w >= 10,
# else the number of j in 0..9 with fl(w + j) < 10 (fl(w + j) grows with j, and
# n = 10 when w < 1), so z = fl(w + n) >= 10; S = the sum of fl(1/fl(w + j)),
# j < n; T = inv(1/2 + inv(1/12 - inv^2(1/120 - inv^2/252))) for inv = fl(1/z);
# psi~(w) = fl(fl(log z - T) - S).  Exactly, psi(w) = psi(w + n) - sum_{j<n}
# 1/(w + j), and psi(w + n) = log(w + n) - T(w + n) + R with 0 < R < 1/(240
# (w + n)^8) (DLMF 5.11(ii), as in ModHarmonic.range_bounds).  Against that:
# - z = (w + n)(1 + d).  As psi'(y) = sum_k 1/(y + k)^2 <= 1/y^2 + int_0^inf
#   dt/(y + t)^2 = 1/y + 1/y^2 for y > 0, this moves psi by at most
#   u z (1/z + 1/z^2)(1 + 3u) < 1.2u <= u log z (z >= 10);
# - np.log is taken within 4 ulp, 8u log z (measured within 0.51 ulp);
# - T: ten roundings, the 1/12, 1/120 and 1/252 included, each of a factor of
#   one sign (inv <= 1/10, so no term cancels more than 1% of its neighbour):
#   within 12u T <= 7u/z;
# - each term of S within 2.01u of 1/(w + j), and a sum of at most ten
#   non-negative terms within 9.01u of their sum: S within 11.1u S;
# - the two subtractions: u(log z + 1/z) and u(log z + 1/z + S).
# So |psi~(w) - psi(w)| < R + 16u M for M = log z + 1/z + S.  The argument is
# itself rounded: a real v with |v - w| <= 4u w has |psi(v) - psi(w)| <=
# 4u w (1/m + 1/m^2), m = (1 - 4u) w, which is below 4.01u (1 + 1/w).  And the
# caller rounds the result once more, by at most u|psi~(w)| < 1.01u M.  All
# three together are below D(w) = 1/(240 z^8) + 2^-48 (1 + log z + 2(1/z + S)):
# 1/w <= 1/z when n = 0 and 1/w <= 1.01 S otherwise, and 16 + 1.01 and 4.01
# sit below 2^-48/u = 32 by more than enough to absorb the roundings of D
# itself.  Below 2^-1022 (0 included) a rounding is no longer relative, and
# D = inf: no bound is claimed.
def _float_digamma_array(x: np.ndarray) -> np.ndarray:
    """Float psi(w) at a 1-D array of doubles w >= 0; -inf at 0.

    Only the elements below 10 take the recurrence psi(w) = psi(w+1) - 1/w,
    up to z = w + n >= 10.  Then the asymptotic series runs to the 1/z**6
    term.  ``_float_digamma_bound`` bounds its error (proof above).
    """
    z, low, recurrence = _digamma_recurrence(x)
    inv = 1.0 / z  # one full-size division; the series only multiplies
    inv2 = inv * inv
    out = np.log(z) - inv * (0.5 + inv * (1.0 / 12 - inv2 * (1.0 / 120 - inv2 * (1.0 / 252))))
    out[low] -= recurrence
    return out


def _float_digamma_bound(x: np.ndarray) -> np.ndarray:
    """D(w) of the proof above at a 1-D array of doubles w: a bound on
    |psi~(w) - psi(v)| + 1.01 * 2^-53 |psi~(w)| for every real v with
    |v - w| <= 2^-51 w, psi~ = ``_float_digamma_array``; inf below 2^-1022."""
    z, low, recurrence = _digamma_recurrence(x)
    spread = 1.0 / z
    remainder = spread**8 / 240
    spread[low] += recurrence  # 1/z + S
    bound = remainder + 2.0**-48 * (1 + np.log(z) + 2 * spread)
    return np.where(x >= np.finfo(float).tiny, bound, inf)


def _psi_series(z: Fraction) -> Fraction:
    """P(z) = psi(z) - log z - R(z) of ModHarmonic.range_bounds, in Horner form."""
    w = 1 / (z * z)
    return -1 / (2 * z) - w * (Fraction(1, 12) - w * (Fraction(1, 120) - w * Fraction(1, 252)))


def _reciprocal_sum(qs: Sequence[int], i: int, j: int) -> tuple[int, int]:
    """sum(1/q for q in qs[i:j]) for positive integers q as an unreduced
    (numerator, denominator), by binary splitting: no gcd is taken."""
    if j - i == 1:
        return 1, qs[i]
    if j - i == 2:
        return qs[i] + qs[i + 1], qs[i] * qs[i + 1]
    mid = (i + j) // 2
    p1, q1 = _reciprocal_sum(qs, i, mid)
    p2, q2 = _reciprocal_sum(qs, mid, j)
    return p1 * q2 + p2 * q1, q1 * q2


class OrderTerms(NamedTuple):
    """Integer terms at scaled utilities whose reduction orders sums of f exactly.

    ``reduce`` (``sum`` or ``math.prod``) of the terms of a utility vector is
    a strictly increasing function of sum_i f(u_i) over the vectors at or
    above ``floor``; a vector holding f = -inf reduces below ``floor``.
    """

    terms: dict[int, int]
    reduce: Callable
    floor: int


def _order_keys(values: dict[int, ExtendedValue], n: int) -> OrderTerms | None:
    """``OrderTerms`` read from the values of f, or ``None``.

    ``values`` maps every reachable scaled utility to f there, and so do the
    terms.  Returns ``None`` unless the finite values are all rational (sum
    of terms) or all ``w*log(q)`` with one common w > 0, log 1 = 0 included
    (product of terms).  A -inf value gets a term that puts every vector of n
    utilities containing it below the floor, which every finite vector
    reaches.
    """
    rationals: dict[int, Fraction] = {}
    logs: dict[int, tuple[Fraction, Fraction]] = {}
    for x, v in values.items():
        if isinstance(v, Infinite):
            if v.sign > 0:
                return None
        elif not isinstance(v, ExactValue) or v.surds:
            return None
        elif not v.logs:
            rationals[x] = v.rational
        elif v.rational == 0 and len(v.logs) == 1:
            logs[x] = next(iter(v.logs.items()))
        else:
            return None
    if not logs:
        den = lcm(*(r.denominator for r in rationals.values()))
        terms = {x: r.numerator * (den // r.denominator) for x, r in rationals.items()}
        lo, hi = min(terms.values(), default=0), max(terms.values(), default=0)
        below = n * lo - (n - 1) * hi - 1  # any vector holding it sums below n*lo
        return OrderTerms({x: terms.get(x, below) for x in values}, sum, n * lo)
    weights = {w for _, w in logs.values()}
    if any(rationals.values()) or len(weights) > 1 or weights.pop() < 0:
        return None
    den = lcm(*(q.denominator for q, _ in logs.values()))
    terms = {x: q.numerator * (den // q.denominator) for x, (q, _) in logs.items()}
    return OrderTerms({x: terms.get(x, den if x in rationals else 0) for x in values}, prod, 1)


class WelfareFunction(ABC):
    """A function f: R>=0 -> R u {-inf} applied to each agent's bundle utility; the
    condition checkers read its three declared facts: log_shift, mid_trend, closed_forms."""

    strictly_increasing: bool = True
    # c where f(x) = w*log(x + c) + b with w > 0, else None: the conditions
    # compare increments, so such an f decides each one as log(x + c) does
    log_shift: Fraction | None = None
    # +1, -1 or 0 where mid_k(a) = f((k+2)a) - f((k+1)a) strictly increases, strictly
    # decreases or stays constant in real a > 0 for every k >= 0; None where not known
    mid_trend: int | None = None

    @abstractmethod
    def value_at(self, x: Fraction, bits: int = DEFAULT_PRECISION_BITS) -> ExtendedValue:
        """f(x) as an extended value; exact whenever the family allows it."""

    @abstractmethod
    def label(self) -> str:
        """Rendering in the welfare-spec grammar.  parse_welfare round-trips it,
        except for tables: they are library-only, and it refuses their labels."""

    @abstractmethod
    def approx_array(self, xs: np.ndarray) -> np.ndarray:
        """float64 f at non-negative float arguments; -inf where f diverges.

        The one float model of the family: prescreens read f only through it
        and trust it only to ``table_error_bound``.
        """

    def scan(
        self, xs: Iterable[int], scale: int, n: int
    ) -> OrderTerms | dict[int, tuple[float, float]]:
        """How an argmax scan orders sums of n values of f at the utilities x/scale.

        Either ``OrderTerms``, or each x mapped to
        ``float_bounds(value_at(x/scale, SCAN_BITS))``.  This default reads
        ``value_at`` point by point and returns the ``_order_keys`` of those
        values where they exist; a family overrides it to compute either
        straight from the integers, without building a value.
        """
        values = {x: self.value_at(Fraction(x, scale), SCAN_BITS) for x in xs}
        return _order_keys(values, n) or {x: float_bounds(v) for x, v in values.items()}

    def table_error_bound(self, least, upto: int) -> float:
        """Absolute error bound of ``approx_array`` at 0 and in [least, upto], the positive arguments a scan reads."""
        return 1e-12

    def closed_forms(self) -> dict[str, bool]:
        """The condition verdicts proved for f, by condition id ("C1" ... "C6b"); the
        implication graph gives the rest.  With a log shift c: C1, C1a and C2 iff
        c = 0 (for c > 0, f(0) is finite), C3 iff c <= 1, and C6b for c <= 1."""
        c = self.log_shift
        if c is None:
            return {}
        facts = {"C1": c == 0, "C1a": c == 0, "C2": c == 0, "C3": c <= 1}
        return {**facts, "C6b": True} if c <= 1 else facts

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label()}>"

    def __eq__(self, other) -> bool:
        return isinstance(other, WelfareFunction) and self.label() == other.label()

    def __hash__(self) -> int:
        return hash(self.label())


class ModLog(WelfareFunction):
    """Shifted logarithm log(x + c) with rational c >= 0."""

    def __init__(self, c):
        self.c = _fraction(c)
        if self.c < 0:
            raise ValueError("shift must be >= 0")

    log_shift = property(lambda self: self.c)
    # mid_k(a) = log(((k+2)a + c) / ((k+1)a + c)) has a-derivative c / ((k+2)a + c)((k+1)a + c)
    mid_trend = property(lambda self: 1 if self.c else 0)

    def value_at(self, x, bits=DEFAULT_PRECISION_BITS):
        x = Fraction(x)
        if x < 0:
            raise ValueError("negative argument")
        q = x + self.c
        return NEG_INF if q == 0 else ExactValue(logs={q: 1})

    def scan(self, xs, scale, n):
        """Product terms x*d + m*scale for c = m/d: scale*d times x/scale + c,
        so 0 exactly where f = -inf."""
        m, d = self.c.numerator, self.c.denominator
        return OrderTerms({x: x * d + m * scale for x in xs}, prod, 1)

    def label(self):
        return f"modlog:{self.c}"

    def approx_array(self, xs):
        return np.log(xs + float(self.c))


class Log(ModLog):
    """Natural logarithm, the shifted log at c = 0; log 0 = -inf.  Defines the
    Nash-welfare rule.  Only its label differs from ``ModLog(0)``."""

    def __init__(self):
        super().__init__(0)

    def label(self):
        return "log"


class ModHarmonic(WelfareFunction):
    """Modified harmonic number h_c with rational c >= -1.

    On integers: h_c(x) = sum_{t=1..x} 1/(t+c) for c > -1, and
    h_{-1}(x) = sum_{t=1..x-1} 1/t with h_{-1}(0) = -inf.  On non-integer
    arguments the integral extension applies, evaluated through the digamma
    identity h_c(x) = psi(x+c+1) - psi(c+1).
    """

    def __init__(self, c):
        self.c = _fraction(c)
        if self.c < -1:
            raise ValueError("shift must be >= -1")
        self._shift = (None, None)  # (working precision, _digamma_shift there)

    # For c >= -1/2, mid_k is strictly increasing in real a > 0.  Proof.
    # For u > 0, coth u = 1/u + sum_{n>=1} 2u/(u^2 + n^2 pi^2) gives
    # 1/u < coth u < 1/u + u/3, since sum 1/n^2 = pi^2/6.  With
    # t/(1 - e^-t) = (t/2) coth(t/2) + t/2 this is
    #   1 + t/2 < t/(1 - e^-t) < 1 + t/2 + t^2/12   (t > 0).
    # Put into psi'(y) = sum_{n>=0} 1/(y+n)^2 = int_0^inf t e^-yt / (1 - e^-t) dt
    # (each 1/(y+n)^2 = int_0^inf t e^-(y+n)t dt, summed as a geometric series)
    # and its derivative -psi''(y) = int_0^inf t^2 e^-yt / (1 - e^-t) dt, and
    # integrated term by term, for y > 0:
    #   psi'(y) > 1/y + 1/(2y^2),   -psi''(y) < 1/y^2 + 1/y^3 + 1/(2y^4).
    # With s = c + 1, mid_k(a) = psi((k+2)a + s) - psi((k+1)a + s), whose
    # derivative in a is phi(k+2) - phi(k+1) for phi(t) = t psi'(ta + s).  At
    # y = ta + s (t, a > 0), phi'(t) = psi'(y) + (y - s) psi''(y)
    #   > 1/y + 1/(2y^2) - (y - s)(1/y^2 + 1/y^3 + 1/(2y^4))
    #   = (s - 1/2)(1/y^2 + 1/y^3) + s/(2y^4),
    # which is > 0 for s >= 1/2.  So phi increases, and so does mid_k.
    # test_conditions.py checks both polygamma bounds at 200 bits on y in
    # [3/2, 10^6] (y >= 3/2 for a >= 1).  Below c = -1/2 the trend is unknown:
    # mid_k decreases at c = -1, but at c = -0.55 mid_0 rises up to a = 3, then falls.
    mid_trend = property(lambda self: 1 if self.c >= Fraction(-1, 2) else None)

    def closed_forms(self):
        """C3 and C5 iff c <= 1/log 2 - 1, decided as (1 + c) log 2 < 1 (never equal);
        C6a fails for c < -1/2, and C2 for c > -1 (on two-agent normalized instances)."""
        relation = compare(ExactValue(logs={Fraction(2): 1 + self.c}), 1).relation
        if relation is Relation.INCONCLUSIVE:
            raise RuntimeError("threshold comparison hit the precision ceiling")
        facts = dict.fromkeys(("C3", "C5"), relation is Relation.LESS)
        if self.c < Fraction(-1, 2):
            facts["C6a"] = False
        if self.c > -1:
            facts["C2"] = False
        return facts

    def value_at(self, x, bits=DEFAULT_PRECISION_BITS):
        """h_c(x): exact at an integer (``integer_value``), else psi(x+c+1) + ``_digamma_shift``,
        one digamma at bits + 16 padded by 2^-(bits+4) (|value| + 1); -inf at h_{-1}(0)."""
        x = Fraction(x)
        if x < 0:
            raise ValueError("negative argument")
        if x.denominator == 1:
            return NEG_INF if self.c == -1 and x == 0 else ExactValue.from_rational(self.integer_value(int(x)))
        with mpmath.workprec(bits + 16):
            y = mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
            if self.c != -1:
                y = y + mpmath.mpf(self.c.numerator) / mpmath.mpf(self.c.denominator) + 1
            val = mpmath.digamma(y) + self._digamma_shift()
            err = mpmath.ldexp(abs(val) + 1, -(bits + 4))
        return IntervalValue(val - err, val + err, bits)

    def integer_value(self, x: int) -> Fraction:
        if x < 0:
            raise ValueError("negative argument")
        if self.c == -1 and x == 0:
            raise ValueError("diverges at 0")
        return self.range_sum(2 if self.c == -1 else 1, x)

    def range_sum(self, lo: int, hi: int) -> Fraction:
        """Exact sum of 1/(t+c) for t in [lo, hi]: each block of
        ``_SPLIT_BLOCK`` terms is one integer fraction reduced once, and the
        blocks are added in a balanced tree to limit gcd blowup."""
        if lo > hi:
            return Fraction(0)
        if self.c == -1 and lo <= 1:
            # 1/(t-1) terms: t=1 contributes 1/0 only through h_{-1}(0), which
            # is handled upstream as -inf; shift the window instead
            raise ValueError("window includes the divergent term")
        n, d = self.c.numerator, self.c.denominator  # 1/(t+c) = d/(t*d + n)
        if lo == hi:
            return Fraction(d, lo * d + n)
        sums = []
        for start in range(lo, hi + 1, _SPLIT_BLOCK):
            qs = [t * d + n for t in range(start, min(start + _SPLIT_BLOCK, hi + 1))]
            num, den = _reciprocal_sum(qs, 0, len(qs))
            sums.append(Fraction(num * d, den))
        while len(sums) > 1:
            paired = [a + b for a, b in zip(sums[::2], sums[1::2])]
            if len(sums) % 2:
                paired.append(sums[-1])
            sums = paired
        return sums[0]

    # DLMF 5.11.2 cut after K = 3 terms: psi(z) = log z + P(z) + R(z), where
    # P(z) = -1/(2z) - sum_{k=1..3} B_2k/(2k z^2k) = -1/(2z) - 1/(12z^2) +
    # 1/(120z^4) - 1/(252z^6), and for real z > 0 the remainder R(z) is bounded
    # in magnitude by the first omitted term, -B_8/(8z^8) = 1/(240z^8), and has
    # its sign (DLMF 5.11(ii)): 0 < R(z) < 1/(240z^8).  As psi(z+1) = psi(z) + 1/z,
    # the terms t = t0..hi sum to psi(z1) - psi(z0), z0 = t0 + c, z1 = hi + c + 1,
    # which lies strictly between base - 1/(240z0^8) and base + 1/(240z1^8) for
    # base = log(z1/z0) + P(z1) - P(z0).  The terms with t + c < _EXACT_HEAD (at
    # most 16) are added exactly, so z0 >= 16 unless the whole window is head;
    # then z0 = z1 and the bounds are the exact sum -+ 1/(240z1^8).
    def range_bounds(self, lo: int, hi: int) -> tuple[ExactValue, ExactValue]:
        """Exact values lower < ``range_sum(lo, hi)`` < upper, each a rational
        plus the log of one rational (proof above)."""
        t0 = min(max(lo, ceil(_EXACT_HEAD - self.c)), hi + 1)
        z0, z1 = t0 + self.c, hi + 1 + self.c
        base = self.range_sum(lo, t0 - 1) + _psi_series(z1) - _psi_series(z0)
        log = {z1 / z0: Fraction(1)}
        return ExactValue(base - 1 / (240 * z0**8), log), ExactValue(base + 1 / (240 * z1**8), log)

    def scan(self, xs, scale, n):
        """Sum terms at integer utilities: h_c(x) = sum_{first < t <= x} d/(t*d + m)
        for c = m/d, first = 1 when c = -1 and 0 otherwise, scaled by L/d, L the
        lcm of those denominators, is a prefix sum of the integers L/(t*d + m).
        h_{-1}(0) = -inf gets a term that puts any vector holding it below 0.

        Off the integers: the float model ``approx_array`` at the doubles x/scale
        (int/int divisions, so correctly rounded), each value a widened by its
        bound e(x) to ``(nextafter(a - e, -inf), nextafter(a + e, inf))``; no
        value is built.  (-inf, -inf) at h_{-1}(0), and (-inf, inf) where no
        bound is proved (an x/scale past the double range or below 2^-1022)."""
        xs = list(xs)
        if any(x % scale for x in xs):
            args = np.array([_nearest_float(x, scale) for x in xs])
            with np.errstate(invalid="ignore"):
                values, errors = self.approx_array(args), self._approx_error(args)
                lo, hi = np.nextafter(values - errors, -inf), np.nextafter(values + errors, inf)
            unbounded = ~np.isfinite(errors)
            lo[unbounded], hi[unbounded] = -inf, inf
            bounds = dict(zip(xs, zip(lo.tolist(), hi.tolist())))
            if self.c == -1 and 0 in bounds:
                bounds[0] = (-inf, -inf)
            return bounds
        m, d = self.c.numerator, self.c.denominator
        first = 1 if self.c == -1 else 0
        ints = {x // scale for x in xs}
        qs = [t * d + m for t in range(first + 1, max(ints) + 1)]
        common, total, prefix = lcm(*qs), 0, {first: 0}
        for t, q in enumerate(qs, first + 1):
            total += common // q
            if t in ints:
                prefix[t] = total
        below = -(n - 1) * total - 1
        return OrderTerms({x: prefix.get(x // scale, below) for x in xs}, sum, 0)

    def _digamma_shift(self):
        """h_c(x) - psi(y) at the working precision: gamma when c = -1, else
        -psi(c+1), which is gamma - H_c for an integer c up to ``_RECURRENCE_SPAN``.
        Kept for the last working precision, so a run of points takes it once."""
        prec, shift = self._shift
        if prec == mpmath.mp.prec:
            return shift
        if self.c == -1:
            shift = +mpmath.euler
        elif self.c.denominator == 1 and self.c <= _RECURRENCE_SPAN:
            harmonic = sum(Fraction(1, k) for k in range(1, int(self.c) + 1))
            shift = mpmath.euler - mpmath.mpf(harmonic.numerator) / harmonic.denominator
        else:
            shift = -mpmath.digamma(mpmath.mpf(self.c.numerator) / mpmath.mpf(self.c.denominator) + 1)
        self._shift = (mpmath.mp.prec, shift)
        return shift

    def label(self):
        return f"harmonic:{self.c}"

    def approx_array(self, xs):
        if self.c == -1:
            return _float_digamma_array(xs) + _EULER_GAMMA
        c1 = float(self.c + 1)  # c + 1 rounded once, from the exact rational
        psi = _float_digamma_array(np.concatenate(([c1], xs + c1)))  # psi(c+1) rides along
        return psi[1:] - psi[0]

    def _approx_error(self, xs: np.ndarray) -> np.ndarray:
        """Per point a bound e(x) on the distance of ``approx_array(xs)`` from
        h_c(x), for the rational x >= 0 that each double is correctly rounded
        from; inf where none is proved.

        With y~ = fl(x~ + c~), x~ and c~ = c + 1 correctly rounded (x~ within
        u x, or within 2^-1075 <= u y~ where it is subnormal), |y~ - (x + c + 1)|
        <= u(x + c + 1) + 2u y~ < 4u y~ when y~ >= 2^-1022 (below it, D = inf),
        so e(x) = D(y~) + D(c~) (``_float_digamma_bound``) bounds the two
        digammas, the two rounded arguments and the final subtraction.  At c = -1, y~ = x~ and e(x) = D(x~) + 2^-52, which covers
        the rounding of gamma and of the final addition.
        """
        if self.c == -1:
            return _float_digamma_bound(xs) + 2.0**-52
        c1 = float(self.c + 1)
        spread = _float_digamma_bound(np.concatenate(([c1], xs + c1)))
        return spread[1:] + spread[0]

    # e(x) of _approx_error at each double x~ in {0} u [fl(least), fl(upto)]: D(w) +
    # 2^-52 for w = x~ in [lo, hi] = [fl(least), fl(upto)] at c = -1 (x~ = 0 gives
    # -inf, exactly), else D(w) + D(c~) for w = fl(x~ + c~) in [lo, hi] = [c~,
    # fl(fl(upto) + c~)], c~ = fl(c+1).  Each term of D(w) is largest at one end.
    # z = fl(w + n) >= max(10, w), so the remainder is at most 1/(240 max(10, lo)^8).
    # 1/z + S is, within a relative 12u, the sum of 1/(w + j) over j <= n, which
    # falls as w rises, also where n drops (a term goes), so it is at most its value
    # at lo; D's 2^-48 = 32u per unit of it, against the 21.1u the proof above
    # needs, absorbs the 12u.  log z <= log max(11, hi): z = w <= hi when n = 0,
    # and fl(w + n - 1) < 10 gives z <= 11 otherwise.
    def table_error_bound(self, least, upto: int) -> float:
        if self.c == -1:
            lo, hi, shift = float(least), float(upto), 2.0**-52
        else:
            lo = c1 = float(self.c + 1)
            hi, shift = float(upto) + c1, _float_digamma_bound(np.array([c1]))[0]
        if lo < np.finfo(float).tiny:
            return inf
        z, _, recurrence = _digamma_recurrence(np.array([lo]))
        spread = 1 / z[0] + recurrence.sum()
        return float(1 / (240 * max(10.0, lo) ** 8) + 2.0**-48 * (1 + np.log(max(11.0, hi)) + 2 * spread) + shift)


class PMean(WelfareFunction):
    """Power-mean family: x**p for p>0, log x for p=0, -x**p for p<0.

    Integer and half-integer exponents stay exact (rationals and quadratic
    surds); other exponents fall back to interval values.
    """

    def __init__(self, p):
        self.p = _fraction(p)

    log_shift = property(lambda self: Fraction(0) if self.p == 0 else None)  # pmean:0 is log
    # sign(p): for p != 0, Delta_t(x) = +-x^p((t+1)^p - t^p), so mid_k(a) = a^p |(k+2)^p - (k+1)^p|
    mid_trend = property(lambda self: (self.p > 0) - (self.p < 0))

    def closed_forms(self):
        """p = 0: those of log.  Else C4 iff p < 1; C2 for p < 0, not for p >= 1 (not
        strictly concave); C1, C1a and C3 fail: only the 0-mean satisfies them."""
        if self.p == 0:
            return super().closed_forms()
        facts = {"C1": False, "C1a": False, "C3": False, "C4": self.p < 1}
        if not 0 <= self.p < 1:
            facts["C2"] = self.p < 0
        return facts

    def value_at(self, x, bits=DEFAULT_PRECISION_BITS):
        x = Fraction(x)
        p = self.p
        if x < 0:
            raise ValueError("negative argument")
        if p == 0:
            return NEG_INF if x == 0 else ExactValue.from_log(x)
        if x == 0:
            return ExactValue() if p > 0 else NEG_INF
        sign = 1 if p > 0 else -1
        if p.denominator == 1:
            return ExactValue(sign * x**p.numerator)
        if p.denominator == 2:
            whole = (p.numerator - 1) // 2  # numerator is odd
            # sqrt(x) = sqrt(num*den)/den, scaled by sign * x**whole
            return ExactValue(surds={x.numerator * x.denominator: sign * x**whole / x.denominator})
        with mpmath.workprec(bits + 16):
            xf = mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
            pf = mpmath.mpf(p.numerator) / mpmath.mpf(p.denominator)
            val = sign * xf**pf
            err = mpmath.ldexp(abs(val) + 1, -(bits + 4))
        return IntervalValue(val - err, val + err, bits)

    def scan(self, xs, scale, n):
        """p = 0: the product terms of ``Log``.  Integer p > 0: sum terms x**p.
        Half-integer p > 0, x/scale = a/b reduced, f = a**w * sqrt(a*b) / b**(w+1)
        for w = p - 1/2: sum terms x**w * g * sqrt(a*b), g = scale/b, when every
        a*b is a perfect square; else the bounds ``float_bounds`` gives the
        value, from the integer square root that ``_algebraic_bounds`` takes.
        Other p take the default route."""
        p = self.p
        if p == 0:
            return Log().scan(xs, scale, n)
        if p < 0 or p.denominator > 2:
            return super().scan(xs, scale, n)
        if p.denominator == 1:
            return OrderTerms({x: x**p.numerator for x in xs}, sum, 0)
        w, shift = p.numerator // 2, 2 * SCAN_BITS
        roots = {}
        for x in xs:
            g = gcd(x, scale)
            a, b = x // g, scale // g
            r = isqrt(a * b << shift)
            roots[x] = a, b, r, r * r == a * b << shift
        if all(square for *_, square in roots.values()):
            return OrderTerms({x: x**w * (scale // b) * (r >> SCAN_BITS) for x, (_, b, r, _) in roots.items()}, sum, 0)
        bounds = {}
        for x, (a, b, r, square) in roots.items():
            num, den = a**w, b ** (w + 1) << SCAN_BITS
            lo = _nearest_float(num * r, den)
            hi = lo if square else _nearest_float(num * (r + 1), den)
            bounds[x] = nextafter(lo, -inf), nextafter(hi, inf)
        return bounds

    def label(self):
        return f"pmean:{self.p}"

    def approx_array(self, xs):
        p = float(self.p)
        if p == 0:
            return np.log(xs)
        with np.errstate(divide="ignore"):
            powered = xs**p
        return powered if p > 0 else -powered

    def table_error_bound(self, least, upto: int) -> float:
        # |x**p| reaches upto**p for p > 0, and pow is within an ulp or two
        if self.p <= 0:
            return 1e-13
        return max(1e-13, float(max(1, upto)) ** float(self.p) * 1e-14)


class LinearCombo(WelfareFunction):
    """Positive-weighted sum of welfare functions."""

    def __init__(self, terms: Sequence[tuple]):
        parsed = []
        for weight, fn in terms:
            w = _fraction(weight)
            if w <= 0:
                raise ValueError("weights must be positive")
            parsed.append((w, fn))
        if not parsed:
            raise ValueError("empty combination")
        self.terms = tuple(parsed)

    @property
    def log_shift(self):
        """The one shift every term shares, if they share one."""
        shifts = {fn.log_shift for _, fn in self.terms}
        return shifts.pop() if len(shifts) == 1 else None

    @property
    def mid_trend(self):
        """The terms' one nonzero trend, or 0 if all are constant: mid_k of a positive
        combination is the weighted sum of theirs.  None if one is unknown or two oppose."""
        trends = {fn.mid_trend for _, fn in self.terms} - {0} or {0}
        return trends.pop() if len(trends) == 1 else None

    def value_at(self, x, bits=DEFAULT_PRECISION_BITS):
        parts = []
        for w, fn in self.terms:
            v = fn.value_at(x, bits)
            if isinstance(v, Infinite):
                return v  # weights are positive
            parts.append(v.scale(w))
        return value_sum(parts)

    def label(self):
        return "combo:" + "+".join(f"{w}*{fn.label()}" for w, fn in self.terms)

    def approx_array(self, xs):
        total = np.zeros_like(xs, dtype=float)
        for w, fn in self.terms:
            total = total + float(w) * fn.approx_array(xs)
        return total

    def table_error_bound(self, least, upto: int) -> float:
        return sum(float(w) * fn.table_error_bound(least, upto) for w, fn in self.terms)


class PiecewiseTable(WelfareFunction):
    """Continuous piecewise-linear function with f(0) = 0, given by breakpoints and slopes.

    Slopes may be zero, so the function need not be strictly increasing; the
    flag is computed accordingly and rule-level guarantees do not apply when
    it is False.  Exists to host flat-region counterexample functions.
    """

    def __init__(self, breakpoints: Sequence, slopes: Sequence):
        self.breakpoints = tuple(_fraction(b) for b in breakpoints)
        self.slopes = tuple(_fraction(s) for s in slopes)
        if len(self.slopes) != len(self.breakpoints):
            raise ValueError("need one slope per breakpoint")
        if self.breakpoints[0] != 0:
            raise ValueError("table must start at 0")
        if any(b >= c for b, c in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must increase")
        if any(s < 0 for s in self.slopes):
            raise ValueError("slopes must be non-negative (non-decreasing table)")

    @property
    def strictly_increasing(self) -> bool:
        return all(s > 0 for s in self.slopes)

    def value_at(self, x, bits=DEFAULT_PRECISION_BITS):
        x = Fraction(x)
        if x < 0:
            raise ValueError("negative argument")
        total = Fraction(0)
        for i, (bp, slope) in enumerate(zip(self.breakpoints, self.slopes)):
            nxt = self.breakpoints[i + 1] if i + 1 < len(self.breakpoints) else None
            if nxt is None or x < nxt:
                return ExactValue.from_rational(total + slope * (x - bp))
            total += slope * (nxt - bp)
        raise AssertionError("unreachable")

    def label(self):
        bps = ",".join(str(b) for b in self.breakpoints)
        slopes = ",".join(str(s) for s in self.slopes)
        return f"table[{bps};{slopes}]"

    def approx_array(self, xs):
        return np.array([float(self.value_at(Fraction(x)).as_fraction()) for x in xs])


def increment(fn: WelfareFunction, lo, hi) -> ExtendedValue:
    """f(hi) - f(lo) for 0 <= lo <= hi at f's default precision; +inf exactly when f(lo) = -inf < f(hi).

    A harmonic window of ``_DEFER_TERMS`` integers or more is deferred on its ``range_bounds``."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("arguments out of order")
    if lo == hi:
        return ExactValue.from_rational(0)
    if isinstance(fn, ModHarmonic) and lo.denominator == 1 and hi.denominator == 1:
        lo_i, hi_i = int(lo), int(hi)
        if fn.c == -1 and lo_i == 0:
            return POS_INF
        exact = lambda: ExactValue.from_rational(fn.range_sum(lo_i + 1, hi_i))
        if hi_i - lo_i >= _DEFER_TERMS:
            return DeferredValue(*fn.range_bounds(lo_i + 1, hi_i), exact)
        return exact()
    lower = fn.value_at(lo)
    if isinstance(lower, Infinite):
        return POS_INF
    upper = fn.value_at(hi)
    if isinstance(upper, ExactValue) and isinstance(lower, ExactValue):
        return upper.sub(lower)
    return value_sum([upper, lower.scale(-1)])


def delta(fn: WelfareFunction, k: int, x) -> ExtendedValue:
    """Block increment f((k+1)x) - f(kx) for x > 0; +inf iff k=0 and f(0)=-inf."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("argument must be positive")
    if k < 0:
        raise ValueError("block index must be >= 0")
    return increment(fn, Fraction(k) * x, (k + 1) * x)


# -- welfare-spec grammar -----------------------------------------------------

_SPEC_RE = re.compile(rf"^(log|modlog:{_RAT}|harmonic:{_RAT}|pmean:{_RAT})$")


def parse_welfare(spec: str) -> WelfareFunction:
    """Parse ``log | modlog:<rat> | harmonic:<rat> | pmean:<rat> | combo:w*spec+...``."""
    spec = spec.strip()
    if spec.startswith("combo:"):
        terms = []
        for chunk in spec[len("combo:"):].split("+"):
            if "*" not in chunk:
                raise ValueError(f"bad combo term: {chunk!r}")
            weight, _, inner = chunk.partition("*")
            terms.append((_fraction(weight), parse_welfare(inner)))
        return LinearCombo(terms)
    if not _SPEC_RE.match(spec):
        raise ValueError(f"bad welfare spec: {spec!r}")
    if spec == "log":
        return Log()
    name, _, arg = spec.partition(":")
    if name == "modlog":
        return ModLog(arg)
    if name == "harmonic":
        return ModHarmonic(arg)
    return PMean(arg)
