"""Bounded verification of the block-increment conditions C1 through C6b.

Each condition quantifies an inequality between block increments
Delta_{f,k}(x) = f((k+1)x) - f(kx) over an infinite domain.  The checkers
exhaust a bounded parameter box (integers up to k_max/a_max/..., or a finite
rational grid for the real-quantified conditions) and report either a
certified violating tuple or "no violation within bounds".

Each condition has a suspect generator.  It walks the box in the condition's
lexicographic tuple order and yields every tuple its prescreen cannot clear.
``check_condition`` settles each suspect with the exact comparator
(``violates``) and returns at the first confirmed violation, so a Violated
verdict always carries an exactly re-verified witness: the first violating
suspect in tuple order.  Every prescreen but C1a's reads f through the
family's one float model, ``approx_array``, and clears a tuple only when the
float difference passes a margin: 1e-8 for C2, and
``max(1e-9, 16 * table_error_bound(upto))`` for the rest, where upto bounds
the arguments the scan reads.  A cleared tuple is not re-checked exactly.
C1a demands equality, and a float difference can prove two values unequal but
never prove them equal, so C1a is the one exact prescreen.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable

import mpmath
import numpy as np

from .functions import (
    Log,
    ModHarmonic,
    ModLog,
    PMean,
    WelfareFunction,
    delta,
    increment,
)
from .model import rational_str
from .values import (
    ExactValue,
    ExtendedValue,
    PrecisionPolicy,
    Relation,
    compare,
    render_value,
    value_sum,
)


class ConditionId(enum.Enum):
    C1 = "C1"
    C1A = "C1a"
    C2 = "C2"
    C3 = "C3"
    C3A = "C3a"
    C3B = "C3b"
    C4 = "C4"
    C5 = "C5"
    C6A = "C6a"
    C6B = "C6b"

    @staticmethod
    def parse(text: str) -> "ConditionId":
        for member in ConditionId:
            if member.value.lower() == text.strip().lower():
                return member
        raise ValueError(f"unknown condition id: {text!r}")


REAL_CONDITIONS = {ConditionId.C1, ConditionId.C1A, ConditionId.C2}

DEFAULT_REAL_GRID = tuple(Fraction(j, 4) for j in range(1, 41))


@dataclass(frozen=True)
class Bounds:
    """Finite parameter box for a bounded check.

    ``b_max`` (second integer scale, defaults to a_max) and ``x_max``
    (argument scale for C6b, defaults to k_max*a_max) derive from the two
    primary bounds unless set explicitly.
    """

    k_max: int = 10
    a_max: int = 10
    real_grid: tuple[Fraction, ...] = DEFAULT_REAL_GRID
    b_max: int | None = None
    x_max: int | None = None
    policy: PrecisionPolicy = field(default_factory=PrecisionPolicy)

    def __post_init__(self):
        if self.k_max < 2 or self.a_max < 1:
            raise ValueError("need k_max >= 2 and a_max >= 1")

    @property
    def b_limit(self) -> int:
        return self.b_max if self.b_max is not None else self.a_max

    @property
    def x_limit(self) -> int:
        return self.x_max if self.x_max is not None else self.k_max * self.a_max

    def as_dict(self) -> dict:
        out = {"k_max": self.k_max, "a_max": self.a_max}
        if self.b_max is not None:
            out["b_max"] = self.b_max
        if self.x_max is not None:
            out["x_max"] = self.x_max
        out["real_grid"] = [str(x) for x in self.real_grid]
        return out


NO_VIOLATION = "NoViolationFound"
VIOLATED = "Violated"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class ConditionReport:
    condition: ConditionId
    verdict: str
    bounds: Bounds
    witness: dict | None = None
    lhs: ExtendedValue | None = None
    rhs: ExtendedValue | None = None

    def to_json_dict(self) -> dict:
        bounds = self.bounds.as_dict()
        if self.condition not in REAL_CONDITIONS:
            bounds.pop("real_grid", None)
        out = {
            "condition": self.condition.value,
            "verdict": self.verdict,
            "bounds": bounds,
        }
        if self.witness is not None:
            out["witness"] = {
                key: rational_str(v) if isinstance(v, Fraction) else v
                for key, v in self.witness.items()
            }
        if self.lhs is not None:
            out["lhs"] = render_value(self.lhs)
        if self.rhs is not None:
            out["rhs"] = render_value(self.rhs)
        return out


# -- single-tuple exact evaluation ---------------------------------------------


def condition_inequalities(
    fn: WelfareFunction, cond: ConditionId, witness: dict
) -> list[tuple[ExtendedValue, ExtendedValue]]:
    """The (lhs, rhs) pairs the condition relates at one tuple: lhs > rhs for
    every condition but C1a, whose one pair must be equal."""
    w = witness
    if cond is ConditionId.C1 or cond is ConditionId.C3:
        return [(delta(fn, w["k"], w["b"]), delta(fn, w["k"] + 1, w["a"]))]
    if cond is ConditionId.C1A:
        return [(delta(fn, w["k"], w["x"]), delta(fn, w["k"], w["y"]))]
    if cond is ConditionId.C2:
        lhs = value_sum([fn.value_at(Fraction(w["a"])), fn.value_at(Fraction(w["b"]))])
        rhs = value_sum([fn.value_at(Fraction(w["c"])), fn.value_at(Fraction(w["d"]))])
        return [(rhs, lhs)]  # rhs > lhs is what the condition asserts
    if cond is ConditionId.C3A:
        return [(delta(fn, w["l"], w["b"]), delta(fn, w["k"], w["a"]))]
    if cond is ConditionId.C3B:
        mid = delta(fn, w["k"] + 1, w["a"])
        return [(delta(fn, w["k"], 1), mid), (mid, delta(fn, w["k"] + 2, 1))]
    if cond is ConditionId.C4:
        return [(delta(fn, w["k"], 1), delta(fn, w["k"] + 1, 1))]
    if cond is ConditionId.C5:
        base = w["l"] * w["b"] + w["r"] * w["a"]
        mid = delta(fn, w["k"] + 1, w["a"])
        return [
            (increment(fn, base, base + w["b"]), mid),
            (mid, delta(fn, w["k"] + 2, 1)),
        ]
    if cond is ConditionId.C6A:
        return [
            (
                increment(fn, w["k"] * w["b"] - 1, (w["k"] + 1) * w["b"] - 1),
                delta(fn, w["k"], w["a"]),
            )
        ]
    if cond is ConditionId.C6B:
        return [
            (
                increment(fn, w["y"], w["y"] + w["b"]),
                increment(fn, w["x"], w["x"] + w["a"]),
            )
        ]
    raise ValueError(cond)


def _relations(fn, cond, witness, policy):
    """(lhs, rhs, holds) for each pair of ``condition_inequalities`` in turn;
    holds is None where the comparison hit the precision ceiling.  Equal
    infinities compare EQUAL, so +inf > +inf does not hold."""
    required = Relation.EQUAL if cond is ConditionId.C1A else Relation.GREATER
    for lhs, rhs in condition_inequalities(fn, cond, witness):
        relation = compare(lhs, rhs, policy).relation
        yield lhs, rhs, None if relation is Relation.INCONCLUSIVE else relation is required


def violates(
    fn: WelfareFunction,
    cond: ConditionId,
    witness: dict,
    policy: PrecisionPolicy | None = None,
) -> bool | None:
    """Exactly re-evaluate the condition at one parameter tuple.

    True: the tuple violates the condition.  False: it satisfies it.
    None: the comparison hit the precision ceiling.
    """
    undecided = False
    for _, _, holds in _relations(fn, cond, witness, policy or PrecisionPolicy()):
        if holds is False:
            return True
        undecided = undecided or holds is None
    return None if undecided else False


def _failing_pair(fn, cond, witness, policy):
    """(lhs, rhs) of the first failing relation at a confirmed witness."""
    for lhs, rhs, holds in _relations(fn, cond, witness, policy):
        if holds is False:
            return lhs, rhs
    raise AssertionError("witness did not re-verify")


# -- suspect generators, one per condition; tuple order noted above each -----------


def _approx(fn: WelfareFunction, xs) -> np.ndarray:
    """f at float arguments through the family's float model, -inf where it diverges."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return fn.approx_array(np.asarray(xs, dtype=float))


def _margin(fn: WelfareFunction, upto: int) -> float:
    """How far a float difference of f values at arguments <= upto must clear."""
    return max(1e-9, 16.0 * fn.table_error_bound(upto))


def _table(fn: WelfareFunction, upto: int) -> tuple[np.ndarray, float]:
    """Float f(0..upto) and its margin."""
    return _approx(fn, np.arange(upto + 1)), _margin(fn, upto)


def _diff(table: np.ndarray, hi, lo) -> np.ndarray:
    """table[hi]-table[lo] with -inf at lo mapped to +inf (left side passes)."""
    with np.errstate(invalid="ignore"):
        return table[hi] - table[lo]


def _suspect(lhs, rhs, margin: float) -> np.ndarray:
    """Where lhs > rhs is not cleared by more than the margin (NaN included)."""
    with np.errstate(invalid="ignore"):
        return ~(lhs - rhs > margin)


def _cells(mask: np.ndarray):
    """The True indices of a 1-D or 2-D mask as int tuples, in row-major
    (lexicographic) order.

    Each is found by its own argmax, so a scan that stops at its first
    suspect does not index the rest of the mask.
    """
    flat = mask.ravel()
    start = 0
    while start < flat.size:
        i = start + int(flat[start:].argmax())
        if not flat[i]:
            return
        yield divmod(i, mask.shape[1]) if mask.ndim == 2 else (i,)
        start = i + 1


def _ranks(values) -> np.ndarray:
    """Dense ranks of exact values: equal values share a rank."""
    rank = {v: r for r, v in enumerate(sorted(set(values)))}
    return np.array([rank[v] for v in values])


# tuple order (k, a, b) over the grid.  f is read once, at the floats nearest
# the exact arguments k*x; that rounding (relative 2^-53) sits far inside the
# margin.
def _suspects_c1(fn, bounds):
    grid = sorted(bounds.real_grid)
    args = [float(k * x) for k in range(bounds.k_max + 3) for x in grid]
    table = _approx(fn, args).reshape(bounds.k_max + 3, len(grid))
    margin = _margin(fn, math.ceil((bounds.k_max + 2) * grid[-1]))
    with np.errstate(invalid="ignore"):
        blocks = np.diff(table, axis=0)  # blocks[k, i] = Delta_k(grid[i])
    for k in range(bounds.k_max + 1):
        for ai, bi in _cells(_suspect(blocks[k][None, :], blocks[k + 1][:, None], margin)):
            yield {"k": k, "a": grid[ai], "b": grid[bi]}


# tuple order (k, x, y) with x < y: constancy of Delta_k on the grid, k >= 1.
# Exact equality is transitive, so comparing each Delta_k(y) with the value at
# the smallest grid point finds the first unequal pair.
def _suspects_c1a(fn, bounds):
    grid = sorted(bounds.real_grid)
    for k in range(1, bounds.k_max + 1):
        first = delta(fn, k, grid[0])
        for y in grid[1:]:
            if compare(first, delta(fn, k, y), bounds.policy).relation is not Relation.EQUAL:
                yield {"k": k, "x": grid[0], "y": y}


# tuple order (a, b, c, d) over the grid, guard min(a,b) <= min(c,d) and ab < cd
def _suspects_c2(fn, bounds):
    grid = sorted(bounds.real_grid)
    n = len(grid)
    # the guard compares integer ranks of the exact values and products,
    # taken on the grid scaled to integers by its common denominator
    scale = math.lcm(*(x.denominator for x in grid))
    ints = [x.numerator * (scale // x.denominator) for x in grid]
    rank = _ranks(ints)
    min_rank = np.minimum.outer(rank, rank)
    prod_rank = _ranks([p * q for p in ints for q in ints]).reshape(n, n)
    f_float = _approx(fn, grid)
    sums = f_float[:, None] + f_float[None, :]
    for i in range(n):
        for j in range(n):
            guard = (min_rank >= min_rank[i, j]) & (prod_rank > prod_rank[i, j])
            for c, d in _cells(guard & _suspect(sums, sums[i, j], 1e-8)):
                yield {"a": grid[i], "b": grid[j], "c": grid[c], "d": grid[d]}


# tuple order (k, a, b)
def _suspects_c3(fn, bounds):
    upto = (bounds.k_max + 2) * max(bounds.a_max, bounds.b_limit)
    table, margin = _table(fn, upto)
    a_idx = np.arange(1, bounds.a_max + 1)
    b_idx = np.arange(1, bounds.b_limit + 1)
    for k in range(bounds.k_max + 1):
        lhs = _diff(table, (k + 1) * b_idx, k * b_idx)
        rhs = _diff(table, (k + 2) * a_idx, (k + 1) * a_idx)
        for ai, bi in _cells(_suspect(lhs[None, :], rhs[:, None], margin)):
            yield {"k": k, "a": ai + 1, "b": bi + 1}


# tuple order (l, k, a, b) with l < k
def _suspects_c3a(fn, bounds):
    upto = (bounds.k_max + 1) * max(bounds.a_max, bounds.b_limit)
    table, margin = _table(fn, upto)
    a_idx = np.arange(1, bounds.a_max + 1)
    b_idx = np.arange(1, bounds.b_limit + 1)
    lhs_rows = {
        l: _diff(table, (l + 1) * b_idx, l * b_idx) for l in range(bounds.k_max)
    }
    rhs_rows = {
        k: _diff(table, (k + 1) * a_idx, k * a_idx) for k in range(1, bounds.k_max + 1)
    }
    for l in range(bounds.k_max):
        for k in range(l + 1, bounds.k_max + 1):
            for ai, bi in _cells(_suspect(lhs_rows[l][None, :], rhs_rows[k][:, None], margin)):
                yield {"l": l, "k": k, "a": ai + 1, "b": bi + 1}


_C3B_CHUNK = 1 << 16


# tuple order (k, a); the report's lhs and rhs are the sides of the failing
# inequality of the chain.
# The scan runs over chunks of a, which bound its memory.  In a chunk f(j*a) is
# evaluated once per j, since f((k+2)a) at k is f((k+1)a) at k + 1.  The
# suspects at k = 0 come out at once; those at k >= 1 are held until every
# chunk has been scanned at k = 0, which keeps the tuple order.
def _suspects_c3b(fn, bounds):
    margin = _margin(fn, (bounds.k_max + 3) * bounds.a_max)
    unit = np.diff(_approx(fn, np.arange(bounds.k_max + 4)))  # f(t+1) - f(t)
    held = [[] for _ in range(bounds.k_max + 1)]
    for start in range(1, bounds.a_max + 1, _C3B_CHUNK):
        a = np.arange(start, min(start + _C3B_CHUNK, bounds.a_max + 1), dtype=float)
        low = _approx(fn, a)
        for k in range(bounds.k_max + 1):
            high = _approx(fn, (k + 2) * a)
            # the middle increment high - low is formed twice, not kept: one
            # chunk-sized array less alive while the next k is evaluated
            bad = _suspect(unit[k], high - low, margin) | _suspect(high - low, unit[k + 2], margin)
            if k == 0:
                for (i,) in _cells(bad):
                    yield {"k": 0, "a": start + i}
            elif bad.any():
                held[k].append((start, bad))
            low = high
    for k, chunks in enumerate(held):
        for start, bad in chunks:
            for (i,) in _cells(bad):
                yield {"k": k, "a": start + i}


# tuple order (k,)
def _suspects_c4(fn, bounds):
    table, margin = _table(fn, bounds.k_max + 2)
    ks = np.arange(bounds.k_max + 1)
    for (k,) in _cells(_suspect(_diff(table, ks + 1, ks), _diff(table, ks + 2, ks + 1), margin)):
        yield {"k": k}


# tuple order (k, a, b, l, r) with b <= a and the guard (k+1)b > lb + ra.
# The loop reads the table through a memoryview, as Python floats: the same
# IEEE doubles, without numpy's per-scalar cost or an up-front copy.
def _suspects_c5(fn, bounds):
    upto = (bounds.k_max + 3) * max(bounds.a_max, bounds.b_limit) + 2
    table, margin = _table(fn, upto)
    t = memoryview(table)
    for k in range(bounds.k_max + 1):
        right = t[k + 3] - t[k + 2]
        for a in range(1, bounds.a_max + 1):
            mid = t[(k + 2) * a] - t[(k + 1) * a]
            mid_bad = not (mid - right > margin)
            for b in range(1, min(a, bounds.b_limit) + 1):
                for l in range(0, k + 1):
                    r_cap = ((k + 1 - l) * b - 1) // a
                    for r in range(0, r_cap + 1):
                        base = l * b + r * a
                        if mid_bad or not (t[base + b] - t[base] - mid > margin):
                            yield {"k": k, "a": a, "b": b, "l": l, "r": r}


# tuple order (k, a, b), all three >= 1
def _suspects_c6a(fn, bounds):
    upto = (bounds.k_max + 1) * max(bounds.a_max, bounds.b_limit) + 1
    table, margin = _table(fn, upto)
    b_idx = np.arange(1, bounds.b_limit + 1)
    for k in range(1, bounds.k_max + 1):
        lhs = _diff(table, (k + 1) * b_idx - 1, k * b_idx - 1)
        for a in range(1, bounds.a_max + 1):
            for (bi,) in _cells(_suspect(lhs, _diff(table, (k + 1) * a, k * a), margin)):
                yield {"k": k, "a": a, "b": bi + 1}


# tuple order (a, b, x, y) with the guard x*b >= (y+1)*a, which admits the
# y < x*b // a.  Row x holds a suspect exactly when the least lhs over its
# admitted y does (NaN counted as -inf), so one running minimum per (a, b)
# finds the rows, and only those rows are scanned cell by cell.
def _suspects_c6b(fn, bounds):
    x_lim = bounds.x_limit
    table, margin = _table(fn, x_lim + bounds.a_max + bounds.b_limit + 1)
    x_idx = np.arange(1, x_lim + 1)
    y_idx = np.arange(0, x_lim + 1)
    for a in range(1, bounds.a_max + 1):
        rhs = _diff(table, x_idx + a, x_idx)
        for b in range(1, bounds.b_limit + 1):
            lhs = _diff(table, y_idx + b, y_idx)
            least = np.minimum.accumulate(np.where(np.isnan(lhs), -np.inf, lhs))
            admitted = np.minimum(x_idx * b // a, x_lim + 1)
            rows = (admitted > 0) & _suspect(least[np.maximum(admitted - 1, 0)], rhs, margin)
            for (xi,) in _cells(rows):
                for (y,) in _cells(_suspect(lhs[: admitted[xi]], rhs[xi], margin)):
                    yield {"a": a, "b": b, "x": xi + 1, "y": y}


_SUSPECTS: dict[ConditionId, Callable] = {
    ConditionId.C1: _suspects_c1,
    ConditionId.C1A: _suspects_c1a,
    ConditionId.C2: _suspects_c2,
    ConditionId.C3: _suspects_c3,
    ConditionId.C3A: _suspects_c3a,
    ConditionId.C3B: _suspects_c3b,
    ConditionId.C4: _suspects_c4,
    ConditionId.C5: _suspects_c5,
    ConditionId.C6A: _suspects_c6a,
    ConditionId.C6B: _suspects_c6b,
}


def check_condition(
    fn: WelfareFunction, cond: ConditionId, bounds: Bounds | None = None
) -> ConditionReport:
    """Exhaustively test one condition inside the bounded parameter box.

    Returns the lexicographically smallest violating tuple when one exists
    within bounds (tuple orders are documented per condition above).
    """
    bounds = bounds or Bounds()
    if cond in REAL_CONDITIONS and not bounds.real_grid:
        raise ValueError("real-quantified conditions need a non-empty grid")
    inconclusive = False
    for witness in _SUSPECTS[cond](fn, bounds):
        outcome = violates(fn, cond, witness, bounds.policy)
        if outcome is None:
            inconclusive = True
        elif outcome:
            lhs, rhs = _failing_pair(fn, cond, witness, bounds.policy)
            return ConditionReport(cond, VIOLATED, bounds, witness, lhs, rhs)
    return ConditionReport(cond, INCONCLUSIVE if inconclusive else NO_VIOLATION, bounds)


# -- closed-form verdicts ----------------------------------------------------------

_INTEGER_CHAIN = {ConditionId.C3, ConditionId.C3A, ConditionId.C3B, ConditionId.C5}
_GENERAL_CHAIN = {ConditionId.C6A, ConditionId.C6B}
_LOG_EQUIV = {ConditionId.C1, ConditionId.C1A, ConditionId.C2}


def _harmonic_below_threshold(c: Fraction, policy: PrecisionPolicy) -> bool:
    """Is c <= 1/log 2 - 1?  Decided as (1+c) log 2 vs 1 (equality impossible)."""
    lhs = ExactValue(logs={Fraction(2): 1 + c})
    ordering = compare(lhs, ExactValue.from_rational(1), policy)
    if ordering.relation is Relation.INCONCLUSIVE:
        raise RuntimeError("threshold comparison hit the precision ceiling")
    return ordering.relation is Relation.LESS


def analytic_verdict(fn: WelfareFunction, cond: ConditionId) -> bool | None:
    """Closed-form satisfaction verdict where a proved characterization covers
    the (family, condition) pair; None where none does.

    The table combines the per-family threshold results (shifted logs satisfy
    the integer chain iff 0 <= c <= 1; modified harmonics iff
    c <= 1/log2 - 1; power means satisfy C4 iff p < 1) with the implication
    graph between the conditions.
    """
    policy = PrecisionPolicy()
    if isinstance(fn, Log):
        return True
    if isinstance(fn, ModLog):
        if fn.c == 0:
            return True
        in_chain = fn.c <= 1
        if cond in _INTEGER_CHAIN or cond in _GENERAL_CHAIN:
            return in_chain
        if cond is ConditionId.C4:
            return True if in_chain else None
        if cond in _LOG_EQUIV:
            return False  # finite value at 0, so not of the form a*log(x)+b
        return None
    if isinstance(fn, ModHarmonic):
        below = _harmonic_below_threshold(fn.c, policy)
        if cond in _INTEGER_CHAIN:
            return below
        if cond in _GENERAL_CHAIN:
            if fn.c < Fraction(-1, 2):
                return False
            if not below:
                return False
            return None  # open band [-1/2, 1/log2 - 1]
        if cond is ConditionId.C4:
            return True if below else None
        if cond is ConditionId.C2 and fn.c > -1:
            return False  # fails EF1 on two-agent normalized instances
        return None
    if isinstance(fn, PMean):
        if fn.p == 0:
            return True
        if cond is ConditionId.C4:
            return fn.p < 1
        if cond in _INTEGER_CHAIN or cond in _GENERAL_CHAIN:
            return False  # only the 0-mean satisfies the integer chain
        if cond in {ConditionId.C1, ConditionId.C1A}:
            return False
        if cond is ConditionId.C2:
            if fn.p < 0:
                return True
            if fn.p >= 1:
                return False  # not strictly concave
            return None
    return None


# -- implication graph -----------------------------------------------------------


def _transfer_c6a_to_c6b(w: dict) -> list[dict]:
    k, a, b = w["k"], w["a"], w["b"]
    return [{"a": a, "b": b, "x": k * a, "y": k * b - 1}]


def _transfer_c5_to_c6a(w: dict) -> list[dict]:
    k, a, b, l, r = w["k"], w["a"], w["b"], w["l"], w["r"]
    candidates = [{"k": k + 1, "a": a, "b": b}, {"k": k + 2, "a": 1, "b": a}]
    base = l * b + r * a
    for t in range(base, (k + 2) * b - 1):
        candidates.append({"k": t + 1, "a": 1, "b": 1})
    for t in range((k + 1) * a, (k + 3) * a - 1):
        candidates.append({"k": t + 1, "a": 1, "b": 1})
    return candidates


def _transfer_c3b_to_c5(w: dict) -> list[dict]:
    k, a = w["k"], w["a"]
    return [{"k": k, "a": a, "b": 1, "l": k, "r": 0}]


def _transfer_c3_to_c3b(w: dict) -> list[dict]:
    k, a, b = w["k"], w["a"], w["b"]
    if b == 1:
        return [{"k": k, "a": a}]
    if a == 1 and k > 0:
        return [{"k": k - 1, "a": b}]
    return []  # the general reduction blows the parameters up; leave unresolved


def _transfer_c3_to_c5(w: dict) -> list[dict]:
    return [c5 for c3b in _transfer_c3_to_c3b(w) for c5 in _transfer_c3b_to_c5(c3b)]


def _transfer_c4_to_c3(w: dict) -> list[dict]:
    return [{"k": w["k"], "a": 1, "b": 1}]


def _transfer_c3a_to_c3(w: dict) -> list[dict]:
    l, k, a, b = w["l"], w["k"], w["a"], w["b"]
    return [{"k": l, "a": a, "b": b}] + [{"k": t, "a": a, "b": a} for t in range(l + 1, k)]


def _transfer_c3b_to_c3a(w: dict) -> list[dict]:
    k, a = w["k"], w["a"]
    return [{"l": k, "k": k + 1, "a": a, "b": 1}, {"l": k + 1, "k": k + 2, "a": 1, "b": a}]


# (stronger, weaker, map from a weaker-side witness to stronger-side candidates)
IMPLICATIONS: tuple[tuple[ConditionId, ConditionId, Callable], ...] = (
    (ConditionId.C6B, ConditionId.C6A, _transfer_c6a_to_c6b),
    (ConditionId.C6A, ConditionId.C5, _transfer_c5_to_c6a),
    (ConditionId.C5, ConditionId.C3B, _transfer_c3b_to_c5),
    (ConditionId.C5, ConditionId.C3, _transfer_c3_to_c5),
    (ConditionId.C3, ConditionId.C4, _transfer_c4_to_c3),
    (ConditionId.C3, ConditionId.C3A, _transfer_c3a_to_c3),
    (ConditionId.C3A, ConditionId.C3B, _transfer_c3b_to_c3a),
    (ConditionId.C3B, ConditionId.C3, _transfer_c3_to_c3b),
)


def _within_bounds(witness: dict, bounds: Bounds) -> bool:
    k_ok = witness.get("k", 0) <= bounds.k_max and witness.get("l", 0) <= bounds.k_max
    a_ok = witness.get("a", 1) <= bounds.a_max
    b_ok = witness.get("b", 1) <= bounds.b_limit
    x_ok = witness.get("x", 1) <= bounds.x_limit and witness.get("y", 0) <= bounds.x_limit
    return k_ok and a_ok and b_ok and x_ok


@dataclass(frozen=True)
class ImplicationReport:
    reports: dict
    inconsistencies: tuple[dict, ...]
    notes: tuple[str, ...]

    @property
    def consistent(self) -> bool:
        return not self.inconsistencies


def find_arrow_inconsistencies(
    fn: WelfareFunction, reports: dict, bounds: Bounds
) -> tuple[tuple[dict, ...], tuple[str, ...]]:
    """Cross-check verdicts against the implication graph.

    For every arrow stronger => weaker with the weaker condition Violated and
    the stronger one reported clean, the weaker witness is transferred to
    candidate stronger-side tuples and re-verified exactly.  A confirmed
    candidate inside the stronger condition's own bounds means the bounded
    scan missed a witness it must contain: a genuine inconsistency.
    """
    inconsistencies = []
    notes = []
    policy = bounds.policy
    for stronger, weaker, transfer in IMPLICATIONS:
        strong_report = reports.get(stronger)
        weak_report = reports.get(weaker)
        if strong_report is None or weak_report is None:
            continue
        if weak_report.verdict != VIOLATED or strong_report.verdict != NO_VIOLATION:
            continue
        resolved = False
        for candidate in transfer(weak_report.witness):
            confirmed = violates(fn, stronger, candidate, policy)
            if confirmed:
                if _within_bounds(candidate, bounds):
                    inconsistencies.append(
                        {
                            "stronger": stronger.value,
                            "weaker": weaker.value,
                            "weak_witness": weak_report.witness,
                            "missed_witness": candidate,
                        }
                    )
                else:
                    notes.append(
                        f"{weaker.value} violation implies a {stronger.value} witness "
                        f"beyond the shared bounds: {candidate}"
                    )
                resolved = True
                break
        if not resolved:
            notes.append(
                f"{weaker.value} Violated but no {stronger.value} witness transferred "
                f"from {weak_report.witness}"
            )
    return tuple(inconsistencies), tuple(notes)


def implication_scan(fn: WelfareFunction, bounds: Bounds | None = None) -> ImplicationReport:
    """Evaluate all ten conditions under shared bounds and audit the arrows."""
    bounds = bounds or Bounds()
    reports = {cond: check_condition(fn, cond, bounds) for cond in ConditionId}
    inconsistencies, notes = find_arrow_inconsistencies(fn, reports, bounds)
    return ImplicationReport(reports, inconsistencies, notes)


# -- adaptive bounds and threshold bisection ----------------------------------------


def _scaled(bounds: Bounds, factor: int, k_max: int) -> Bounds:
    """bounds with block indices up to k_max and the argument scales (a_max,
    and b_max and x_max where set) times factor."""
    return replace(
        bounds,
        k_max=k_max,
        a_max=bounds.a_max * factor,
        b_max=None if bounds.b_max is None else bounds.b_max * factor,
        x_max=None if bounds.x_max is None else bounds.x_max * factor,
    )


def find_witness_adaptive(
    fn: WelfareFunction,
    cond: ConditionId,
    initial: Bounds | None = None,
    a_cap: int = 1 << 17,
) -> ConditionReport:
    """Double the bounded box until a witness appears or a_max reaches the cap.

    Several necessity results only guarantee witnesses for large enough
    parameters, so a fixed box can be silently too small; the returned report
    carries the last bounds used either way.  Block indices double, capped at
    64, since the binding tuples of every studied family sit at small k while
    the argument scales run away.  An initial box with a_max >= a_cap is
    checked once, as it is.
    """
    bounds = initial or Bounds(k_max=4, a_max=8)
    while True:
        report = check_condition(fn, cond, bounds)
        if report.verdict != NO_VIOLATION or bounds.a_max >= a_cap:
            return report
        bounds = _scaled(bounds, 2, min(bounds.k_max * 2, 64))


_FAMILIES = {"modlog": ModLog, "harmonic": ModHarmonic}


def threshold_bisect(
    family: str,
    cond: ConditionId,
    c_lo,
    c_hi,
    bounds: Bounds | None = None,
    iters: int = 20,
    a_cap: int = 1 << 17,
) -> tuple[Fraction, Fraction]:
    """Bisect the family parameter on the bounded-verdict boundary.

    Requires differing verdicts at the endpoints.  Each probe is one check of
    the box that doubling the argument scales of ``bounds`` (k_max fixed)
    ends in once a_max reaches the cap.  That box holds every smaller one, so
    it has a violation exactly when doubling would have found one; violations
    are certified exactly.  The bracket midpoints stay dyadic so probes never
    land exactly on an irrational threshold.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; use one of {sorted(_FAMILIES)}")
    make = _FAMILIES[family]
    base = bounds or Bounds(k_max=3, a_max=25)
    factor = 1
    while base.a_max * factor < a_cap:
        factor *= 2
    last = _scaled(base, factor, base.k_max)

    # a box already at the cap is checked once; going through the adaptive
    # search keeps each probe one conditions.adaptive span in benchmark/tracer.py
    def verdict(c: Fraction) -> str:
        report = find_witness_adaptive(make(c), cond, last, a_cap=a_cap)
        if report.verdict == INCONCLUSIVE:
            raise RuntimeError(f"inconclusive verdict at c={c}")
        return report.verdict

    lo, hi = Fraction(c_lo), Fraction(c_hi)
    v_lo, v_hi = verdict(lo), verdict(hi)
    if v_lo == v_hi:
        raise ValueError("bisection needs differing verdicts at the endpoints")
    for _ in range(iters):
        mid = (lo + hi) / 2
        if verdict(mid) == v_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


# -- marginal growth envelope -------------------------------------------------------


def marginal_growth_envelope(fn: WelfareFunction, x_max: int) -> tuple[Fraction, Fraction]:
    """(min, max) of x*(f(x+1)-f(x)) over integer x in [1, x_max], as outer rational bounds.

    Exact when f is rational-valued on the integers; otherwise computed in
    floats and rounded outward by a pad dominating the evaluation error.
    A function in the integer chain keeps this window inside
    [f(3)-f(2), 9*(f(2)-f(1))]; unbounded growth of the window betrays a
    family that leaves the chain.
    """
    if x_max < 1:
        raise ValueError("x_max must be >= 1")
    sample = increment(fn, 1, 2)
    if isinstance(sample, ExactValue) and sample.is_rational:
        lo = hi = None
        for x in range(1, x_max + 1):
            g = x * increment(fn, x, x + 1).as_fraction()
            lo = g if lo is None or g < lo else lo
            hi = g if hi is None or g > hi else hi
        return lo, hi
    vals = _approx(fn, np.arange(1, x_max + 2))
    growth = np.arange(1, x_max + 1, dtype=float) * np.diff(vals)
    pad = max(1e-9, 8.0 * fn.table_error_bound(x_max + 1) * x_max)
    return (
        Fraction(float(growth.min())) - Fraction(pad),
        Fraction(float(growth.max())) + Fraction(pad),
    )


# -- numeric lemma suite ---------------------------------------------------------------


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class LemmaSuiteReport:
    checks: tuple[LemmaCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _reciprocal_log_offset(x, shift: int, prec: int = 160):
    """1/log((x+1)/x) - (x + shift) at high precision."""
    with mpmath.workprec(prec):
        xf = mpmath.mpf(x)
        return 1 / mpmath.log((xf + 1) / xf) - (xf + shift)


def numeric_lemma_suite() -> LemmaSuiteReport:
    """High-precision checks of the numeric facts the threshold analysis leans on:
    the -1/2 limit of 1/log((x+1)/x) - (x+1), and strict monotonicity of
    1/log((x+1)/x) - x on integers (whose value at 1 is the harmonic-family
    threshold 1/log2 - 1).
    """
    checks = []
    with mpmath.workprec(160):
        g = _reciprocal_log_offset(10**6, 1)
        err = abs(g + mpmath.mpf(1) / 2)
        checks.append(
            LemmaCheck(
                "offset_limit_minus_half",
                err < mpmath.mpf(10) ** -3,
                f"g(10^6) = {mpmath.nstr(g, 12)}, |g+1/2| = {mpmath.nstr(err, 3)}",
            )
        )
        h1 = _reciprocal_log_offset(1, 0)
        target = 1 / mpmath.log(2) - 1
        checks.append(
            LemmaCheck(
                "threshold_value",
                abs(h1 - target) < mpmath.mpf(10) ** -30,
                f"h(1) = {mpmath.nstr(h1, 12)} vs 1/log2 - 1 = {mpmath.nstr(target, 12)}",
            )
        )
        prev = h1
        monotone = True
        first_seven = []
        for x in range(2, 1001):
            cur = _reciprocal_log_offset(x, 0)
            if not cur > prev:
                monotone = False
                break
            if x <= 7:
                first_seven.append(cur)
            prev = cur
        checks.append(
            LemmaCheck(
                "offset_strictly_increasing",
                monotone,
                "h strictly increasing on [1, 1000]"
                if monotone
                else f"monotonicity breaks at x = {x}",
            )
        )
        checks.append(
            LemmaCheck(
                "first_seven_chain",
                len(first_seven) == 6 and all(a < b for a, b in zip([h1] + first_seven, first_seven)),
                "h(1) < h(2) < ... < h(7)",
            )
        )
    return LemmaSuiteReport(tuple(checks))
