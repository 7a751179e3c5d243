"""Exact and interval welfare values, and the three-tier comparator.

Welfare sums must be compared without floating-point ties, so values are kept
in an exact form for as long as possible:

    value = rational + sum(w * log(q)) + sum(c * sqrt(d))

with rational coefficients, q positive rationals and d non-square integers,
one radicand per class: no ratio of two of them is a rational square (d*d'
is never a perfect square), which an ``isqrt`` tests without factoring.
Square roots of such radicands are linearly independent over the rationals
(Besicovitch 1940), so a sum with a nonzero surd coefficient is never zero.
This covers logarithms (Nash-style welfare), modified-harmonic values at
integer arguments, integer and half-integer power means, and positive linear
combinations of all of these.  Everything else is decided on enclosures,
with precision doubling up to a hard ceiling, which is always tried; an
undecided comparison at the ceiling is reported as inconclusive, never
silently resolved.  An exact value is enclosed in ``mpmath.iv`` interval
arithmetic (:func:`evaluate_interval`), so no error term is estimated by hand.
:func:`float_bounds` encloses any of these values in two outward-rounded
doubles, for scans that decide most comparisons in floats and leave the rest
to :func:`compare`.  It bounds a value with no log part in integer arithmetic
(one ``isqrt`` per radicand), and logs and intervals through their enclosures.
"""

from __future__ import annotations

import enum
import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Union

import mpmath

DEFAULT_PRECISION_BITS = 256
# the precision of the enclosures behind float_bounds, and so of the solver's scan
SCAN_BITS = 64
PRECISION_CEILING_ENV = "WELFARIST_PRECISION_CEILING"

_GUARD_BITS = 24
_RENDER_DIGITS = 30  # significant decimals of a rendered non-rational value


def precision_ceiling() -> int:
    """Hard precision ceiling in bits (overridable via environment)."""
    bits = int(os.environ.get(PRECISION_CEILING_ENV, "4096"))
    if bits < 1:
        raise ValueError(f"{PRECISION_CEILING_ENV} must be >= 1, got {bits}")
    return bits


@dataclass(frozen=True)
class PrecisionPolicy:
    """Escalation schedule for interval comparisons: the precision doubles
    from ``start_bits`` while below the ceiling (``precision_ceiling()``),
    and ends at the ceiling."""

    start_bits: int = DEFAULT_PRECISION_BITS

    def __post_init__(self):
        # doubling never leaves 0, and a negative start only goes further down
        if self.start_bits < 1:
            raise ValueError(f"start_bits must be >= 1, got {self.start_bits}")

    def ceiling(self) -> int:
        return precision_ceiling()

    def start(self) -> int:
        """The first precision of the schedule: ``start_bits``, capped at the ceiling."""
        return min(self.start_bits, self.ceiling())

    def schedule(self) -> Iterable[int]:
        bits, ceiling = self.start(), self.ceiling()
        while bits < ceiling:
            yield bits
            bits *= 2
        yield ceiling


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


class ExactValue:
    """Exact value ``rational + sum(w*log q) + sum(c*sqrt d)``, one d per radicand class.

    The constructor is the one normalizer; ``add``, ``sub`` and ``scale`` feed it
    the parts of normalized values.  It drops zero weights and log(1), and folds
    c*sqrt(d) into the rational part when d is a perfect square, else into the held
    key K with d*K a perfect square, as c*isqrt(d*K)/K; otherwise d becomes a key.
    """

    __slots__ = ("rational", "logs", "surds")

    def __init__(
        self,
        rational: Fraction = Fraction(0),
        logs: dict[Fraction, Fraction] | None = None,
        surds: dict[int, Fraction] | None = None,
    ):
        self.rational = rational
        self.logs = {q: w for q, w in logs.items() if w and q != 1} if logs else {}
        if self.logs and min(self.logs) <= 0:
            raise ValueError("log argument must be positive")
        self.surds = {}
        if surds:
            for d, c in surds.items():
                if c == 0:
                    continue
                root = math.isqrt(d)
                if root * root == d:
                    self.rational += c * root
                    continue
                for key in self.surds:
                    root = math.isqrt(d * key)
                    if root * root == d * key:
                        self.surds[key] += c * Fraction(root, key)
                        break
                else:
                    self.surds[d] = c
            self.surds = {d: c for d, c in self.surds.items() if c != 0}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(x) -> "ExactValue":
        return ExactValue(Fraction(x))

    @staticmethod
    def from_log(q) -> "ExactValue":
        """The value log(q) for a positive rational q."""
        return ExactValue(logs={Fraction(q): Fraction(1)})

    @staticmethod
    def from_sqrt(x) -> "ExactValue":
        """The value sqrt(x) for a non-negative rational x = p/q, as sqrt(p*q)/q."""
        x = Fraction(x)
        if x < 0:
            raise ValueError("negative radicand")
        return ExactValue(surds={x.numerator * x.denominator: Fraction(1, x.denominator)})

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

    # -- arithmetic ----------------------------------------------------------

    def add(self, other: "ExactValue") -> "ExactValue":
        return self._merge(other, operator.add)

    def sub(self, other: "ExactValue") -> "ExactValue":
        return self._merge(other, operator.sub)

    def _merge(self, other: "ExactValue", op) -> "ExactValue":
        """``op(self, other)`` for ``op`` + or -, part by part, normalized once."""
        logs, surds = dict(self.logs), dict(self.surds)
        for q, w in other.logs.items():
            logs[q] = op(logs.get(q, 0), w)
        for d, c in other.surds.items():
            surds[d] = op(surds.get(d, 0), c)
        return ExactValue(op(self.rational, other.rational), logs, surds)

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
        return self.rational == 0 and not self.surds and not _log_sign(self.logs)

    def __repr__(self) -> str:
        return f"ExactValue({self.rational!r}, logs={self.logs!r}, surds={self.surds!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactValue):
            return NotImplemented
        return self.sub(other).is_zero()

    def __hash__(self):
        raise TypeError("ExactValue is not hashable")


class DeferredValue:
    """An exact value known first by two exact bounds lower < value < upper, which
    differ by a rational: :func:`compare` tries the bounds first, ``exact()``
    builds the value once, and any other attribute is read from the built value.
    Not an ``ExactValue``, so a reader of every exact operand's parts does not build it."""

    __slots__ = ("lower", "upper", "_build", "_exact", "_enclosure")

    def __init__(self, lower: ExactValue, upper: ExactValue, build: Callable[[], ExactValue]):
        self.lower, self.upper, self._build = lower, upper, build
        self._exact = self._enclosure = None

    def exact(self) -> ExactValue:
        if self._exact is None:
            self._exact = self._build()
        return self._exact

    def enclosure(self, bits: int) -> "IntervalValue":
        """Both bounds enclosed at ``bits``, kept for the next call at the same bits:
        one enclosure of ``lower``, its upper end plus upper - lower rounded up."""
        if self._enclosure is None or self._enclosure.bits != bits:
            low = evaluate_interval(self.lower, bits)
            gap = self.upper.sub(self.lower).as_fraction()
            with mpmath.workprec(bits + _GUARD_BITS):
                step = mpmath.fdiv(gap.numerator, gap.denominator, rounding="c")
                hi = mpmath.fadd(low.hi, step, rounding="c")
            self._enclosure = IntervalValue(low.lo, hi, bits)
        return self._enclosure

    def __getattr__(self, name):
        return getattr(self.exact(), name)


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

    def scale(self, w) -> "IntervalValue":
        """w * [lo, hi] for a rational w = p/q, the ends swapped when w < 0: each
        end is (end * p) / q, rounded down (lo) or up (hi) at every step, so w
        is never rounded and the result encloses the exact product."""
        p, q = w.numerator, w.denominator
        lo, hi = (self.lo, self.hi) if p >= 0 else (self.hi, self.lo)
        with mpmath.workprec(self.bits + 16):
            lo = mpmath.fdiv(mpmath.fmul(lo, p, rounding="f"), q, rounding="f")
            hi = mpmath.fdiv(mpmath.fmul(hi, p, rounding="c"), q, rounding="c")
        return IntervalValue(lo, hi, self.bits)

    def __repr__(self) -> str:
        return f"IntervalValue({self.lo!r}, {self.hi!r}, bits={self.bits})"


ExtendedValue = Union[Infinite, ExactValue, IntervalValue, DeferredValue]
_ZERO = IntervalValue(0, 0, 0)  # exact at every precision


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
        elif isinstance(v, (ExactValue, DeferredValue)):
            exact = exact.add(v)
        elif isinstance(v, IntervalValue):
            intervals.append(v)
        else:
            raise TypeError(f"not an ExtendedValue: {v!r}")
    if sign:
        return POS_INF if sign > 0 else NEG_INF
    if not intervals:
        return exact
    bits = min(part.bits for part in intervals)
    enclosure = _ZERO if exact.is_zero() else evaluate_interval(exact, bits)
    lo = enclosure.lo + mpmath.fsum(part.lo for part in intervals)
    hi = enclosure.hi + mpmath.fsum(part.hi for part in intervals)
    # one directed-rounding pad per addition
    pad = mpmath.ldexp(max(1, abs(lo), abs(hi)), -(bits - 4))
    return IntervalValue(lo - pad, hi + pad, bits)


def _log_sign(logs: dict[Fraction, Fraction]) -> int:
    """Sign of sum(w*log q) over terms with w != 0 and q != 1: one term's is
    that of w times that of q - 1, never zero; several compare with 1 the
    integer product q_i**(w_i*D), D the weights' least common denominator."""
    if len(logs) < 2:
        return sum(1 if (w > 0) == (q > 1) else -1 for q, w in logs.items())  # 0 with no term
    denom = math.lcm(*(w.denominator for w in logs.values()))
    prod = Fraction(1)
    for q, w in logs.items():
        prod *= q ** (w.numerator * (denom // w.denominator))
    return (prod > 1) - (prod < 1)


def evaluate_interval(value: ExactValue, bits: int) -> IntervalValue:
    """Enclose an exact value in ``mpmath.iv`` interval arithmetic at ``bits +
    _GUARD_BITS`` bits, certified by construction: each log argument is one
    interval quotient num/den, so log(num) and log(den) never cancel."""
    iv, prec = mpmath.iv, mpmath.iv.prec
    iv.prec = work = bits + _GUARD_BITS
    try:
        total = _iv_fraction(value.rational)
        for q, w in value.logs.items():
            total += _iv_fraction(w) * iv.log(_iv_fraction(q))
        for d, c in value.surds.items():
            total += _iv_fraction(c) * iv.sqrt(d)
    finally:
        iv.prec = prec
    with mpmath.workprec(work):
        lo, hi = mpmath.mpf(total.a), mpmath.mpf(total.b)
        # One more ulp outward on each nonzero end: value_sum still adds these
        # ends at 53 bits and rounds to nearest (ROADMAP item 1), and without
        # the step some of its lower ends land above the value.
        lo = mpmath.fsub(lo, mpmath.ldexp(abs(lo), -work), rounding="f")
        hi = mpmath.fadd(hi, mpmath.ldexp(abs(hi), -work), rounding="c")
    return IntervalValue(lo, hi, bits)


def _iv_fraction(x: Fraction):
    """An ``mpmath.iv`` enclosure of a rational at the current ``iv.prec``."""
    return mpmath.iv.mpf(x.numerator) / x.denominator


def float_bounds(value: ExtendedValue) -> tuple[float, float]:
    """Doubles ``lo <= value <= hi``, each rounded outward by one ulp.

    A value with no log part is bounded in integers (:func:`_algebraic_bounds`),
    logs from a ``SCAN_BITS`` :func:`evaluate_interval`, intervals from their
    own ends.  An end beyond the double range rounds to an infinity, which the
    widening turns into the largest finite double on the inner side.  A true
    infinity maps to itself on both sides: ``nextafter(-inf, inf)`` is a
    finite number.
    """
    if isinstance(value, Infinite):
        end = math.inf if value.sign > 0 else -math.inf
        return end, end
    if isinstance(value, ExactValue) and not value.logs:
        lo, hi = _algebraic_bounds(value)
    else:
        enclosure = _enclose(value, SCAN_BITS)
        lo, hi = float(enclosure.lo), float(enclosure.hi)
    return math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)


def _algebraic_bounds(value: ExactValue) -> tuple[float, float]:
    """Doubles nearest to two rationals ``lo <= value <= hi``, for a value
    with no log part.

    Over a common denominator den * 2**SCAN_BITS, the rational part is exact
    and each c*sqrt(d), c = p/q, lies between p*r and p*(r+1) over
    q * 2**SCAN_BITS, r = isqrt(d * 4**SCAN_BITS), the two ends swapped when
    p < 0.  Each end is one int/int true division, which CPython rounds
    correctly and which overflows past the double range.
    """
    num, den = value.rational.as_integer_ratio()
    lo = hi = num << SCAN_BITS
    for d, c in value.surds.items():
        p, q = c.as_integer_ratio()
        common = math.lcm(den, q)
        lo, hi = lo * (common // den), hi * (common // den)
        p, den = p * (common // q), common
        r = math.isqrt(d << 2 * SCAN_BITS)
        lo += p * (r + (p < 0))
        hi += p * (r + (p > 0))
    den <<= SCAN_BITS
    return _nearest_float(lo, den), _nearest_float(hi, den)


def _nearest_float(num: int, den: int) -> float:
    """num/den for den > 0, rounded to the nearest double; an infinity past the range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _exact_sign(value: ExactValue, policy: PrecisionPolicy) -> ValueOrdering:
    """Sign of an exact value as an ordering against zero.  A vanishing log
    part is dropped, and two parts that do not vanish never cancel: a nonzero
    log part is transcendental (Lindemann for one log, Baker for several),
    and a nonzero surd part is irrational (square roots of radicands in
    distinct classes are independent over the rationals).  A value of one
    part, rational or log, takes its exact sign; the rest is refined against [0, 0]."""
    log_sign = _log_sign(value.logs)
    if not value.surds and not (log_sign and value.rational):  # one part, or none
        sign = log_sign or (value.rational > 0) - (value.rational < 0)
        return (LESS, EQUAL, GREATER)[sign + 1]
    if value.logs and not log_sign:
        value = ExactValue(value.rational, None, value.surds)
    return _interval_compare(value, _ZERO, policy)


def _as_value(operand) -> ExtendedValue:
    if isinstance(operand, (Infinite, ExactValue, IntervalValue, DeferredValue)):
        return operand
    if isinstance(operand, (int, Fraction)):
        return ExactValue.from_rational(operand)
    raise TypeError(f"cannot interpret {operand!r} as a welfare value")


def compare(lhs, rhs, policy: PrecisionPolicy | None = None) -> ValueOrdering:
    """Three-tier comparison of two welfare values (``ExtendedValue``, int or Fraction).

    Tier 1 decides purely rational differences exactly; tier 2 decides log and
    surd combinations exactly through big-rational products and linear
    independence; tier 3 refines intervals along ``policy.schedule()``, which
    ends at the ceiling.  Equal infinities of the same sign compare Equal.
    A ``DeferredValue`` is first ordered by one enclosure of its two exact
    bounds at the policy's first precision; only when that does not decide (a
    near tie, or an equality) is its exact value built and compared as above.
    """
    policy = policy or PrecisionPolicy()
    left = _as_value(lhs)
    right = _as_value(rhs)
    if isinstance(left, Infinite) or isinstance(right, Infinite):
        lsign = left.sign if isinstance(left, Infinite) else 0
        rsign = right.sign if isinstance(right, Infinite) else 0
        return EQUAL if lsign == rsign else GREATER if lsign > rsign else LESS
    if isinstance(left, DeferredValue) or isinstance(right, DeferredValue):
        # one pass at the first precision on the strict bounds' enclosure
        ordering = _disjoint(left, right, policy.start())
        if ordering is not None:
            return ordering
        left, right = (v.exact() if isinstance(v, DeferredValue) else v for v in (left, right))
    if isinstance(left, ExactValue) and isinstance(right, ExactValue):
        return _exact_sign(left.sub(right), policy)
    return _interval_compare(left, right, policy)


def _enclose(value: ExtendedValue, bits: int) -> IntervalValue:
    if isinstance(value, IntervalValue):
        return value
    if isinstance(value, DeferredValue):
        return value.enclosure(bits)
    return evaluate_interval(value, bits)


def _disjoint(left, right, bits: int) -> ValueOrdering | None:
    """LESS or GREATER at ``bits`` when the enclosures of the two values do not overlap, else None."""
    l, r = _enclose(left, bits), _enclose(right, bits)
    if l.hi < r.lo:
        return ValueOrdering(Relation.LESS, bits)
    if r.hi < l.lo:
        return ValueOrdering(Relation.GREATER, bits)
    return None


def _interval_compare(left, right, policy: PrecisionPolicy) -> ValueOrdering:
    """Order two enclosures along ``policy.schedule()``; only an exact operand
    refines, and an undecided pair reports the last precision tried."""
    refinable = isinstance(left, ExactValue) or isinstance(right, ExactValue)
    for bits in policy.schedule():
        ordering = _disjoint(left, right, bits)
        if ordering is not None or not refinable:
            break
    return ordering or ValueOrdering(Relation.INCONCLUSIVE, bits)


def render_value(value: ExtendedValue) -> dict:
    """JSON-friendly rendering: exact rationals/logs kept exact, else
    ``_RENDER_DIGITS`` significant decimals.

    A rational (or log argument) with more digits than
    ``sys.get_int_max_str_digits()`` allows, such as a harmonic increment
    over thousands of terms, is rendered in decimals too.
    """
    if isinstance(value, Infinite):
        return {"kind": "pos_inf" if value.sign > 0 else "neg_inf"}
    if isinstance(value, DeferredValue):
        value = value.exact()
    if isinstance(value, ExactValue):
        try:
            if value.is_rational:
                return {"kind": "rational", "value": str(value.rational)}
            if value.is_pure_log and all(w.denominator == 1 for w in value.logs.values()):
                q = Fraction(1)
                for base, w in value.logs.items():
                    q *= base**w.numerator
                return {"kind": "log", "argument": str(q)}
        except ValueError:  # str() refuses an integer past the digit limit
            pass
        with mpmath.workprec(4 * _RENDER_DIGITS):
            approx = mpmath.nstr(evaluate_interval(value, 4 * _RENDER_DIGITS).midpoint(), _RENDER_DIGITS)
        return {"kind": "exact", "decimal": approx}
    return {
        "kind": "interval",
        "lo": mpmath.nstr(value.lo, _RENDER_DIGITS),
        "hi": mpmath.nstr(value.hi, _RENDER_DIGITS),
        "bits": value.bits,
    }
