"""The evaluable welfare-function family and the block-increment operator.

Families: the natural logarithm, shifted logarithms log(x+c) with c >= 0,
modified harmonic numbers h_c (sums 1/(t+c) on integers, extended to the
reals by the classical integral / digamma identity), power means x**p, and
positive linear combinations.  A piecewise-linear table variant exists to
host deliberately non-strictly-increasing functions.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np

from .values import (
    DEFAULT_PRECISION_BITS,
    NEG_INF,
    POS_INF,
    ExactValue,
    ExtendedValue,
    Infinite,
    IntervalValue,
    sqrt_of_fraction,
    value_sum,
)

_RAT = r"-?\d+(?:\.\d+)?(?:/\d+)?"

_EULER_GAMMA = 0.5772156649015329


def _fraction(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational: {text!r}") from exc


def _float_digamma_array(x: np.ndarray) -> np.ndarray:
    """Float psi(x) for a 1-D array of x >= 0; -inf at 0.

    Only the elements below 10 take the recurrence psi(x) = psi(x+1) - 1/x,
    all of their steps at once, up to x + n >= 10.  Then the asymptotic series
    runs to the 1/x**6 term.  The next term bounds the error by 4.2e-11;
    against mpmath at 120 bits it stays under 4.1e-11 up to x = 10**7.
    """
    x = np.array(x, dtype=float)
    low = np.flatnonzero(x < 10)
    steps = x[low, None] + np.arange(10.0)
    below = steps < 10
    with np.errstate(divide="ignore"):
        recurrence = np.where(below, 1.0 / steps, 0.0).sum(axis=1)
    x[low] += below.sum(axis=1)
    inv = 1.0 / x  # one full-size division; the series only multiplies
    inv2 = inv * inv
    out = np.log(x) - inv * (0.5 + inv * (1.0 / 12 - inv2 * (1.0 / 120 - inv2 * (1.0 / 252))))
    out[low] -= recurrence
    return out


class WelfareFunction(ABC):
    """A function f: R>=0 -> R u {-inf} applied to each agent's bundle utility."""

    strictly_increasing: bool = True

    @abstractmethod
    def value_at(self, x: Fraction, bits: int = DEFAULT_PRECISION_BITS) -> ExtendedValue:
        """f(x) as an extended value; exact whenever the family allows it."""

    @abstractmethod
    def label(self) -> str:
        """Rendering in the welfare-spec grammar (parse_welfare round-trips it)."""

    @abstractmethod
    def approx_array(self, xs: np.ndarray) -> np.ndarray:
        """float64 f at non-negative float arguments; -inf where f diverges.

        The one float model of the family: prescreens read f only through it
        and trust it only to ``table_error_bound``.
        """

    def table_error_bound(self, upto: int) -> float:
        """Absolute error bound of ``approx_array`` at arguments up to ``upto``."""
        return 1e-12

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label()}>"

    def __eq__(self, other) -> bool:
        return isinstance(other, WelfareFunction) and self.label() == other.label()

    def __hash__(self) -> int:
        return hash(self.label())


class Log(WelfareFunction):
    """Natural logarithm; log 0 = -inf.  Defines the Nash-welfare rule."""

    def value_at(self, x, bits=DEFAULT_PRECISION_BITS):
        x = Fraction(x)
        if x < 0:
            raise ValueError("negative argument")
        if x == 0:
            return NEG_INF
        return ExactValue.from_log(x)

    def label(self):
        return "log"

    def approx_array(self, xs):
        return np.log(xs)


class ModLog(WelfareFunction):
    """Shifted logarithm log(x + c) with rational c >= 0."""

    def __init__(self, c):
        self.c = _fraction(c)
        if self.c < 0:
            raise ValueError("shift must be >= 0")

    def value_at(self, x, bits=DEFAULT_PRECISION_BITS):
        x = Fraction(x)
        if x < 0:
            raise ValueError("negative argument")
        if x + self.c == 0:
            return NEG_INF
        return ExactValue.from_log(x + self.c)

    def label(self):
        return f"modlog:{self.c}"

    def approx_array(self, xs):
        return np.log(xs + float(self.c))


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

    def value_at(self, x, bits=DEFAULT_PRECISION_BITS):
        x = Fraction(x)
        if x < 0:
            raise ValueError("negative argument")
        if self.c == -1 and x == 0:
            return NEG_INF
        if x.denominator == 1:
            return ExactValue.from_rational(self.integer_value(int(x)))
        return self._digamma_interval(x, bits)

    def integer_value(self, x: int) -> Fraction:
        if x < 0:
            raise ValueError("negative argument")
        if self.c == -1:
            if x == 0:
                raise ValueError("diverges at 0")
            return self.range_sum(2, x)
        return self.range_sum(1, x)

    def range_sum(self, lo: int, hi: int) -> Fraction:
        """Exact sum of 1/(t+c) for t in [lo, hi] (balanced to limit gcd blowup)."""
        if lo > hi:
            return Fraction(0)
        if self.c == -1 and lo <= 1:
            # 1/(t-1) terms: t=1 contributes 1/0 only through h_{-1}(0), which
            # is handled upstream as -inf; shift the window instead
            raise ValueError("window includes the divergent term")
        c = self.c
        terms = [Fraction(c.denominator, t * c.denominator + c.numerator) for t in range(lo, hi + 1)]
        while len(terms) > 1:
            paired = [a + b for a, b in zip(terms[::2], terms[1::2])]
            if len(terms) % 2:
                paired.append(terms[-1])
            terms = paired
        return terms[0]

    def _digamma_interval(self, x: Fraction, bits: int) -> IntervalValue:
        with mpmath.workprec(bits + 16):
            xf = mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
            if self.c == -1:
                val = mpmath.digamma(xf) + mpmath.euler
            else:
                c = mpmath.mpf(self.c.numerator) / mpmath.mpf(self.c.denominator)
                val = mpmath.digamma(xf + c + 1) - mpmath.digamma(c + 1)
            err = mpmath.ldexp(abs(val) + 1, -(bits + 4))
        return IntervalValue(val - err, val + err, bits)

    def label(self):
        return f"harmonic:{self.c}"

    def approx_array(self, xs):
        if self.c == -1:
            return _float_digamma_array(xs) + _EULER_GAMMA
        c1 = float(self.c) + 1
        psi = _float_digamma_array(np.concatenate(([c1], xs + c1)))  # psi(c+1) rides along
        return psi[1:] - psi[0]

    def table_error_bound(self, upto: int) -> float:
        return 1e-10  # two digamma series values, each within 4.2e-11


class PMean(WelfareFunction):
    """Power-mean family: x**p for p>0, log x for p=0, -x**p for p<0.

    Integer and half-integer exponents stay exact (rationals and quadratic
    surds); other exponents fall back to interval values.
    """

    def __init__(self, p):
        self.p = _fraction(p)

    def value_at(self, x, bits=DEFAULT_PRECISION_BITS):
        x = Fraction(x)
        p = self.p
        if x < 0:
            raise ValueError("negative argument")
        if p == 0:
            return NEG_INF if x == 0 else ExactValue.from_log(x)
        if x == 0:
            return ExactValue.from_rational(0) if p > 0 else NEG_INF
        sign = 1 if p > 0 else -1
        if p.denominator == 1:
            return ExactValue.from_rational(sign * x ** p.numerator)
        if p.denominator == 2:
            whole = (p.numerator - 1) // 2  # numerator is odd
            return ExactValue.from_sqrt(x).scale(sign * x**whole)
        with mpmath.workprec(bits + 16):
            xf = mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
            pf = mpmath.mpf(p.numerator) / mpmath.mpf(p.denominator)
            val = sign * xf**pf
            err = mpmath.ldexp(abs(val) + 1, -(bits + 4))
        return IntervalValue(val - err, val + err, bits)

    def label(self):
        return f"pmean:{self.p}"

    def approx_array(self, xs):
        p = float(self.p)
        if p == 0:
            return np.log(xs)
        with np.errstate(divide="ignore"):
            powered = xs**p
        return powered if p > 0 else -powered

    def table_error_bound(self, upto: int) -> float:
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

    def value_at(self, x, bits=DEFAULT_PRECISION_BITS):
        parts = []
        for w, fn in self.terms:
            v = fn.value_at(x, bits)
            if isinstance(v, Infinite):
                return v  # weights are positive
            parts.append(v.scale(w) if isinstance(v, ExactValue) else _scale_interval(v, w))
        return value_sum(parts)

    def label(self):
        return "combo:" + "+".join(f"{w}*{fn.label()}" for w, fn in self.terms)

    def approx_array(self, xs):
        total = np.zeros_like(xs, dtype=float)
        for w, fn in self.terms:
            total = total + float(w) * fn.approx_array(xs)
        return total

    def table_error_bound(self, upto: int) -> float:
        return sum(float(w) * fn.table_error_bound(upto) for w, fn in self.terms)


class PiecewiseTable(WelfareFunction):
    """Continuous piecewise-linear function given by breakpoints and slopes.

    Slopes may be zero, so the function need not be strictly increasing; the
    flag is computed accordingly and rule-level guarantees do not apply when
    it is False.  Exists to host flat-region counterexample functions.
    """

    def __init__(self, breakpoints: Sequence, slopes: Sequence, start_value=0):
        self.breakpoints = tuple(_fraction(b) for b in breakpoints)
        self.slopes = tuple(_fraction(s) for s in slopes)
        self.start_value = _fraction(start_value)
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
        total = self.start_value
        for i, (bp, slope) in enumerate(zip(self.breakpoints, self.slopes)):
            nxt = self.breakpoints[i + 1] if i + 1 < len(self.breakpoints) else None
            if nxt is None or x < nxt:
                return ExactValue.from_rational(total + slope * (x - bp))
            total += slope * (nxt - bp)
        raise AssertionError("unreachable")

    def flat_intervals(self) -> list[tuple[Fraction, Fraction | None]]:
        """Maximal intervals with slope zero; None upper end means unbounded."""
        out = []
        for i, slope in enumerate(self.slopes):
            if slope == 0:
                lo = self.breakpoints[i]
                hi = self.breakpoints[i + 1] if i + 1 < len(self.breakpoints) else None
                if out and out[-1][1] == lo:
                    out[-1] = (out[-1][0], hi)
                else:
                    out.append((lo, hi))
        return out

    def label(self):
        bps = ",".join(str(b) for b in self.breakpoints)
        slopes = ",".join(str(s) for s in self.slopes)
        return f"table[{bps};{slopes};{self.start_value}]"

    def approx_array(self, xs):
        return np.array([float(self.value_at(Fraction(x)).as_fraction()) for x in xs])


def _scale_interval(v: IntervalValue, w: Fraction) -> IntervalValue:
    wf = mpmath.mpf(w.numerator) / mpmath.mpf(w.denominator)
    lo, hi = v.lo * wf, v.hi * wf
    pad = mpmath.ldexp(max(1, abs(lo), abs(hi)), -(v.bits - 2))
    return IntervalValue(lo - pad, hi + pad, v.bits)


def evaluate(fn: WelfareFunction, x, bits: int = DEFAULT_PRECISION_BITS) -> ExtendedValue:
    """f(x) for rational x >= 0."""
    return fn.value_at(Fraction(x), bits)


def increment(fn: WelfareFunction, lo, hi, bits: int = DEFAULT_PRECISION_BITS) -> ExtendedValue:
    """f(hi) - f(lo) for 0 <= lo <= hi; +inf exactly when f(lo) = -inf < f(hi)."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("arguments out of order")
    if lo == hi:
        return ExactValue.from_rational(0)
    if isinstance(fn, ModHarmonic) and lo.denominator == 1 and hi.denominator == 1:
        lo_i, hi_i = int(lo), int(hi)
        if fn.c == -1 and lo_i == 0:
            return POS_INF
        if fn.c == -1:
            shifted = ModHarmonic(0)
            return ExactValue.from_rational(shifted.range_sum(lo_i, hi_i - 1))
        return ExactValue.from_rational(fn.range_sum(lo_i + 1, hi_i))
    lower = fn.value_at(lo, bits)
    if isinstance(lower, Infinite):
        return POS_INF
    upper = fn.value_at(hi, bits)
    if isinstance(upper, ExactValue) and isinstance(lower, ExactValue):
        return upper.sub(lower)
    neg = lower.neg() if isinstance(lower, ExactValue) else IntervalValue(-lower.hi, -lower.lo, lower.bits)
    return value_sum([upper, neg])


def delta(fn: WelfareFunction, k: int, x, bits: int = DEFAULT_PRECISION_BITS) -> ExtendedValue:
    """Block increment f((k+1)x) - f(kx) for x > 0; +inf iff k=0 and f(0)=-inf."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("argument must be positive")
    if k < 0:
        raise ValueError("block index must be >= 0")
    return increment(fn, Fraction(k) * x, (k + 1) * x, bits)


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
