"""Exact and interval welfare values, and the three-tier comparator.

Welfare sums must be compared without floating-point ties, so values are kept
in a canonical exact form for as long as possible:

    value = rational + sum(w * log(q)) + sum(c * sqrt(d))

with rational coefficients, q positive rationals and d squarefree integers.
This covers logarithms (Nash-style welfare), modified-harmonic values at
integer arguments, integer and half-integer power means, and positive linear
combinations of all of these.  Everything else is handled by high-precision
intervals with precision doubling up to a hard ceiling; an undecided
comparison at the ceiling is reported as inconclusive, never silently
resolved.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

import mpmath

DEFAULT_PRECISION_BITS = 256
PRECISION_CEILING_ENV = "WELFARIST_PRECISION_CEILING"

_GUARD_BITS = 24


def precision_ceiling() -> int:
    """Hard precision ceiling in bits (overridable via environment)."""
    return int(os.environ.get(PRECISION_CEILING_ENV, "4096"))


@dataclass(frozen=True)
class PrecisionPolicy:
    """Escalation schedule for interval comparisons."""

    start_bits: int = DEFAULT_PRECISION_BITS
    growth: int = 2
    ceiling_bits: int = 0  # 0 means: read the environment ceiling

    def ceiling(self) -> int:
        return self.ceiling_bits if self.ceiling_bits > 0 else precision_ceiling()

    def schedule(self) -> Iterable[int]:
        bits = self.start_bits
        ceiling = self.ceiling()
        while bits <= ceiling:
            yield bits
            bits *= self.growth


class Relation(enum.Enum):
    LESS = "<"
    EQUAL = "="
    GREATER = ">"
    INCONCLUSIVE = "?"


@dataclass(frozen=True)
class ValueOrdering:
    """Outcome of a comparison; ``bits`` is the interval precision reached."""

    relation: Relation
    bits: int | None = None

    def __str__(self) -> str:
        return self.relation.value


LESS = ValueOrdering(Relation.LESS)
EQUAL = ValueOrdering(Relation.EQUAL)
GREATER = ValueOrdering(Relation.GREATER)


class Infinite:
    """Signed infinity; only -inf arises as a welfare value, +inf only as a delta."""

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __repr__(self) -> str:
        return "POS_INF" if self.sign > 0 else "NEG_INF"

    def __eq__(self, other) -> bool:
        return isinstance(other, Infinite) and other.sign == self.sign

    def __hash__(self) -> int:
        return hash(("Infinite", self.sign))


NEG_INF = Infinite(-1)
POS_INF = Infinite(+1)


@lru_cache(maxsize=None)
def square_free_split(n: int) -> tuple[int, int]:
    """Write ``n = s*s*d`` with d squarefree; returns ``(s, d)``."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0, 1
    s, d = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return s, d * n  # leftover n is 1 or prime


def sqrt_of_fraction(x: Fraction) -> tuple[Fraction, int]:
    """sqrt(x) as ``coeff * sqrt(d)`` with d squarefree (d=1 when x is a perfect square)."""
    if x < 0:
        raise ValueError("negative radicand")
    s, d = square_free_split(x.numerator * x.denominator)
    return Fraction(s, x.denominator), d


class ExactValue:
    """Canonical exact value ``rational + sum(w*log q) + sum(c*sqrt d)``."""

    __slots__ = ("rational", "logs", "surds")

    def __init__(
        self,
        rational: Fraction = Fraction(0),
        logs: dict[Fraction, Fraction] | None = None,
        surds: dict[int, Fraction] | None = None,
    ):
        self.rational = rational
        self.logs = {}
        if logs:
            for q, w in logs.items():
                if w == 0 or q == 1:
                    continue
                if q <= 0:
                    raise ValueError("log argument must be positive")
                self.logs[q] = self.logs.get(q, Fraction(0)) + w
            self.logs = {q: w for q, w in self.logs.items() if w != 0}
        self.surds = {}
        if surds:
            for d, c in surds.items():
                if c == 0:
                    continue
                if d == 1:
                    self.rational += c
                else:
                    self.surds[d] = self.surds.get(d, Fraction(0)) + c
            self.surds = {d: c for d, c in self.surds.items() if c != 0}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(x) -> "ExactValue":
        return ExactValue(Fraction(x))

    @staticmethod
    def from_log(q) -> "ExactValue":
        """The value log(q) for a positive rational q."""
        q = Fraction(q)
        if q <= 0:
            raise ValueError("log argument must be positive")
        return ExactValue(logs={q: Fraction(1)})

    @staticmethod
    def from_sqrt(x) -> "ExactValue":
        """The value sqrt(x) for a non-negative rational x."""
        coeff, d = sqrt_of_fraction(Fraction(x))
        if d == 1:
            return ExactValue(coeff)
        return ExactValue(surds={d: coeff})

    # -- structure ----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return not self.logs and not self.surds

    @property
    def is_pure_log(self) -> bool:
        return self.rational == 0 and not self.surds and bool(self.logs)

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("value is not rational")
        return self.rational

    def log_product(self) -> Fraction:
        """For a single-log value ``1*log(q)``, return q."""
        if self.is_pure_log and len(self.logs) == 1:
            (q, w), = self.logs.items()
            if w == 1:
                return q
        raise ValueError("value is not a plain logarithm")

    # -- arithmetic ----------------------------------------------------------

    def add(self, other: "ExactValue") -> "ExactValue":
        logs = dict(self.logs)
        for q, w in other.logs.items():
            logs[q] = logs.get(q, Fraction(0)) + w
        surds = dict(self.surds)
        for d, c in other.surds.items():
            surds[d] = surds.get(d, Fraction(0)) + c
        return ExactValue(self.rational + other.rational, logs, surds)

    def neg(self) -> "ExactValue":
        return ExactValue(
            -self.rational,
            {q: -w for q, w in self.logs.items()},
            {d: -c for d, c in self.surds.items()},
        )

    def sub(self, other: "ExactValue") -> "ExactValue":
        return self.add(other.neg())

    def scale(self, w) -> "ExactValue":
        w = Fraction(w)
        if w == 0:
            return ExactValue()
        return ExactValue(
            self.rational * w,
            {q: wq * w for q, wq in self.logs.items()},
            {d: c * w for d, c in self.surds.items()},
        )

    def is_zero(self) -> bool:
        """Exact zero test (uses linear independence of logs and surds)."""
        if self.rational != 0 or self.surds:
            return False
        return not self.logs or _log_part_product(self.logs) == 1

    def __repr__(self) -> str:
        return f"ExactValue({self.rational!r}, logs={self.logs!r}, surds={self.surds!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactValue):
            return NotImplemented
        return self.sub(other).is_zero()

    def __hash__(self):
        raise TypeError("ExactValue is not hashable")


class IntervalValue:
    """A certified enclosure [lo, hi] produced at a given working precision."""

    __slots__ = ("lo", "hi", "bits")

    def __init__(self, lo, hi, bits: int):
        if not lo <= hi:
            raise ValueError("interval bounds out of order")
        self.lo = lo
        self.hi = hi
        self.bits = bits

    @property
    def width(self):
        return self.hi - self.lo

    def midpoint(self):
        return (self.lo + self.hi) / 2

    def __repr__(self) -> str:
        return f"IntervalValue({self.lo!r}, {self.hi!r}, bits={self.bits})"


ExtendedValue = Union[Infinite, ExactValue, IntervalValue]


def value_sum(values: Iterable[ExtendedValue]) -> ExtendedValue:
    """Sum of welfare values; -inf is absorbing (a +inf plus -inf is an error)."""
    exact = ExactValue()
    intervals: list[IntervalValue] = []
    sign = 0
    for v in values:
        if isinstance(v, Infinite):
            if sign and v.sign != sign:
                raise ValueError("indeterminate sum of opposite infinities")
            sign = v.sign
        elif isinstance(v, ExactValue):
            exact = exact.add(v)
        elif isinstance(v, IntervalValue):
            intervals.append(v)
        else:
            raise TypeError(f"not an ExtendedValue: {v!r}")
    if sign:
        return POS_INF if sign > 0 else NEG_INF
    if not intervals:
        return exact
    bits = min(iv.bits for iv in intervals)
    enclosure = evaluate_interval(exact, bits)
    lo = enclosure.lo + mpmath.fsum(iv.lo for iv in intervals)
    hi = enclosure.hi + mpmath.fsum(iv.hi for iv in intervals)
    # one directed-rounding pad per addition
    pad = mpmath.ldexp(max(1, abs(lo), abs(hi)), -(bits - 4))
    return IntervalValue(lo - pad, hi + pad, bits)


def _log_part_product(logs: dict[Fraction, Fraction]) -> Fraction:
    """Product q_i**(w_i*D) over integer exponents; equals 1 iff sum(w*log q) = 0."""
    denom = math.lcm(*(w.denominator for w in logs.values()))
    prod = Fraction(1)
    for q, w in logs.items():
        prod *= q ** (w.numerator * (denom // w.denominator))
    return prod


def evaluate_interval(value: ExactValue, bits: int) -> IntervalValue:
    """Enclose an exact value in an interval at roughly ``bits`` of precision."""
    with mpmath.workprec(bits + _GUARD_BITS):
        total = mpmath.mpf(0)
        magnitude = mpmath.mpf(0)
        terms = 1
        if value.rational:
            t = _mpf_of_fraction(value.rational)
            total += t
            magnitude += abs(t)
            terms += 1
        for q, w in value.logs.items():
            t = _mpf_of_fraction(w) * _log_of_fraction(q)
            total += t
            magnitude += abs(t)
            terms += 2
        for d, c in value.surds.items():
            t = _mpf_of_fraction(c) * mpmath.sqrt(d)
            total += t
            magnitude += abs(t)
            terms += 2
        err = mpmath.ldexp(magnitude + 1, -(bits + _GUARD_BITS)) * (8 * terms)
        return IntervalValue(total - err, total + err, bits)


def _mpf_of_fraction(x: Fraction):
    return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)


def _log_of_fraction(q: Fraction):
    return mpmath.log(mpmath.mpf(q.numerator)) - mpmath.log(mpmath.mpf(q.denominator))


def _exact_sign(value: ExactValue, policy: PrecisionPolicy) -> ValueOrdering:
    """Sign of an exact value as an ordering against zero."""
    logs = value.logs
    if logs:
        prod = _log_part_product(logs)
        if prod == 1:
            # the log part vanishes identically
            value = ExactValue(value.rational, None, value.surds)
            logs = {}
        elif value.rational == 0 and not value.surds:
            return GREATER if prod > 1 else LESS
        # otherwise: mixed log and algebraic parts are never equal unless the
        # log part vanishes (transcendence of log of a rational != 1)
    if not logs:
        if not value.surds:
            if value.rational == 0:
                return EQUAL
            return GREATER if value.rational > 0 else LESS
        # rational + surds with a nonzero surd coefficient is never zero
        # (linear independence of sqrt of distinct squarefree integers)
    for bits in policy.schedule():
        enc = evaluate_interval(value, bits)
        if enc.lo > 0:
            return ValueOrdering(Relation.GREATER, bits)
        if enc.hi < 0:
            return ValueOrdering(Relation.LESS, bits)
    return ValueOrdering(Relation.INCONCLUSIVE, policy.ceiling())


def _as_value(operand) -> ExtendedValue:
    if isinstance(operand, (Infinite, ExactValue, IntervalValue)):
        return operand
    if isinstance(operand, (int, Fraction)):
        return ExactValue.from_rational(operand)
    if isinstance(operand, Sequence):
        return value_sum(operand)
    raise TypeError(f"cannot interpret {operand!r} as a welfare value")


def compare(lhs, rhs, policy: PrecisionPolicy | None = None) -> ValueOrdering:
    """Three-tier comparison of welfare values (or sequences to be summed).

    Tier 1 decides purely rational differences exactly; tier 2 decides log and
    surd combinations exactly through big-rational products and linear
    independence; tier 3 falls back to interval evaluation with precision
    doubling.  Equal infinities of the same sign compare Equal by convention.
    """
    policy = policy or PrecisionPolicy()
    left = _as_value(lhs)
    right = _as_value(rhs)
    if isinstance(left, Infinite) or isinstance(right, Infinite):
        lsign = left.sign if isinstance(left, Infinite) else 0
        rsign = right.sign if isinstance(right, Infinite) else 0
        if isinstance(left, Infinite) and isinstance(right, Infinite):
            if lsign == rsign:
                return EQUAL
            return GREATER if lsign > rsign else LESS
        if isinstance(left, Infinite):
            return GREATER if lsign > 0 else LESS
        return LESS if rsign > 0 else GREATER
    if isinstance(left, ExactValue) and isinstance(right, ExactValue):
        return _exact_sign(left.sub(right), policy)
    return _interval_compare(left, right, policy)


def _enclose(value: ExtendedValue, bits: int) -> IntervalValue:
    if isinstance(value, IntervalValue):
        return value
    return evaluate_interval(value, bits)


def _interval_compare(left, right, policy: PrecisionPolicy) -> ValueOrdering:
    refinable = isinstance(left, ExactValue) or isinstance(right, ExactValue)
    bits_used = policy.start_bits
    for bits in policy.schedule():
        bits_used = bits
        l = _enclose(left, bits)
        r = _enclose(right, bits)
        if l.hi < r.lo:
            return ValueOrdering(Relation.LESS, bits)
        if r.hi < l.lo:
            return ValueOrdering(Relation.GREATER, bits)
        if not refinable:
            break
    return ValueOrdering(Relation.INCONCLUSIVE, bits_used)


def render_value(value: ExtendedValue, digits: int = 30) -> dict:
    """JSON-friendly rendering: exact rationals/logs kept exact, else decimals."""
    if isinstance(value, Infinite):
        return {"kind": "pos_inf" if value.sign > 0 else "neg_inf"}
    if isinstance(value, ExactValue):
        if value.is_rational:
            return {"kind": "rational", "value": str(value.rational)}
        if value.is_pure_log and all(w.denominator == 1 for w in value.logs.values()):
            q = Fraction(1)
            for base, w in value.logs.items():
                q *= base**w.numerator
            return {"kind": "log", "argument": str(q)}
        with mpmath.workprec(max(64, 4 * digits)):
            approx = mpmath.nstr(evaluate_interval(value, 4 * digits).midpoint(), digits)
        return {"kind": "exact", "decimal": approx}
    return {
        "kind": "interval",
        "lo": mpmath.nstr(value.lo, digits),
        "hi": mpmath.nstr(value.hi, digits),
        "bits": value.bits,
    }
