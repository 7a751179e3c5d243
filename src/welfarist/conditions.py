"""Bounded verification of the block-increment conditions C1 through C6b.

Each condition quantifies an inequality between block increments
Delta_{f,k}(x) = f((k+1)x) - f(kx) over an infinite domain.  The checkers
exhaust a bounded parameter box (integers up to k_max/a_max/..., or a finite
rational grid for the real-quantified conditions) and report either a
certified violating tuple or "no violation within bounds".

Each condition has a suspect generator.  It walks the box in the condition's
lexicographic tuple order and yields every tuple its prescreen cannot clear.
``check_condition`` settles each suspect with the exact comparator
(``violates``), which evaluates and compares it once, and returns at the
first confirmed violation, so a Violated verdict always carries an exactly
verified witness, the first violating suspect in tuple order, with the pair
that failed.  Such a confirmation may be decided on exact bounds before any
exact sum: a harmonic increment over 512 integers or more is deferred, and
``compare`` sums it only when its two bounds do not settle the inequality.
Every prescreen but C1a's reads f through the family's one float model,
``approx_array``, and clears a tuple only when the float difference passes one
margin, ``max(1e-9, 16 * table_error_bound(least, upto))`` plus 16 * 2^-52 times
the largest finite |f| read, [least, upto] holding the positive arguments read.  A
cleared tuple is not re-checked exactly.  Five conditions (C1, C3, C3a, C4,
C6a) compare two float vectors over a grid and share one scan,
``_grid_cells``: the least value each row reads finds the rows that hold a
suspect, so no grid-sized array is ever built.  C2, C5 and C6b clear whole
blocks of tuples the same way, each from running minima of its own left
sides kept in tables far smaller than its box (see each scan), not through
``_grid_cells``.  C1a demands equality, and a float difference can prove two
values unequal but never prove them equal, so C1a has no prescreen: each of
its tuples goes to ``violates``, except where f declares a log shift, which
decides C1a in closed form.
C3b takes the route that what f declares allows: with a log shift it reduces
to one rational inequality in a, read from no float; with a known trend of the
middle increment in a, each row is settled at its two ends and one float
search; otherwise a float scan walks every row.  Both float routes read the
chain through one reader.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import mpmath
import numpy as np

from .functions import WelfareFunction, delta, increment, parse_welfare
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
# the conditions Delta_l(b) > Delta_k(a) over block pairs (l, k)
_BLOCK_PAIR_CONDITIONS = {ConditionId.C1, ConditionId.C3, ConditionId.C3A, ConditionId.C4}

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
    # a class constant, not a field: exact confirmations use the default schedule
    policy = PrecisionPolicy()

    def __post_init__(self):
        if self.k_max < 2 or self.a_max < 1:
            raise ValueError("need k_max >= 2 and a_max >= 1")
        if min(self.b_limit, self.x_limit) < 0:
            raise ValueError("need b_max >= 0 and x_max >= 0")
        if any(x.numerator < 0 for x in self.real_grid):  # by numerator: Fraction comparisons cost ~20 µs here
            raise ValueError(f"negative grid point: {min(self.real_grid)}")

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
                key: str(v) if isinstance(v, Fraction) else v
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
    if cond in _BLOCK_PAIR_CONDITIONS:
        # Delta_l(b) > Delta_k(a), with k = l + 1 except in C3a, and a = b = 1 in C4
        l, k = (w["l"], w["k"]) if cond is ConditionId.C3A else (w["k"], w["k"] + 1)
        return [(delta(fn, l, w.get("b", 1)), delta(fn, k, w.get("a", 1)))]
    if cond is ConditionId.C1A:
        return [(delta(fn, w["k"], w["x"]), delta(fn, w["k"], w["y"]))]
    if cond is ConditionId.C2:
        lhs = value_sum([fn.value_at(Fraction(w["a"])), fn.value_at(Fraction(w["b"]))])
        rhs = value_sum([fn.value_at(Fraction(w["c"])), fn.value_at(Fraction(w["d"]))])
        return [(rhs, lhs)]  # rhs > lhs is what the condition asserts
    if cond is ConditionId.C3B:
        mid = delta(fn, w["k"] + 1, w["a"])
        return [(delta(fn, w["k"], 1), mid), (mid, delta(fn, w["k"] + 2, 1))]
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


def _verdict(fn, cond, witness, policy):
    """(what ``violates`` returns, the failing (lhs, rhs) pair or None) at one
    tuple.  Equal infinities compare EQUAL, so +inf > +inf does not hold."""
    required = Relation.EQUAL if cond is ConditionId.C1A else Relation.GREATER
    undecided = False
    for lhs, rhs in condition_inequalities(fn, cond, witness):
        relation = compare(lhs, rhs, policy).relation
        if relation is Relation.INCONCLUSIVE:
            undecided = True
        elif relation is not required:
            return True, (lhs, rhs)
    return (None if undecided else False), None


# The failing pair of the last tuple ``violates`` found violated.  Only
# ``check_condition`` reads it, right after ``violates`` returned True.
_failing_pair = None


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
    global _failing_pair
    outcome, _failing_pair = _verdict(fn, cond, witness, policy or PrecisionPolicy())
    return outcome


# -- suspect generators, one per condition; tuple order noted above each -----------


def _approx(fn: WelfareFunction, xs) -> np.ndarray:
    """f at float arguments through the family's float model, -inf where it diverges."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return fn.approx_array(np.asarray(xs, dtype=float))


def _margin(fn: WelfareFunction, least, upto: int, values) -> float:
    """How far a float difference of f values at 0 and in [least, upto] must
    clear: the float model's error plus 16 * 2^-52 * M, for M the largest
    finite |v| in ``values``, which must bound every finite |f| the scan reads
    (f is non-decreasing, so f(0), f at the least positive arguments and f at
    the largest do).  Floats of exact values are correctly rounded, and a
    difference of two differences or of two sums rounds three times more, which
    adds at most 12 * 2^-53 * M (Higham 2002, Accuracy and Stability, section 2.2)."""
    largest = float(np.abs(values[np.isfinite(values)]).max(initial=0.0))
    return max(1e-9, 16.0 * fn.table_error_bound(least, upto)) + 16.0 * 2.0**-52 * largest


def _table(fn: WelfareFunction, upto: int) -> tuple[np.ndarray, float]:
    """Float f(0..upto) and its margin."""
    table = _approx(fn, np.arange(upto + 1))
    return table, _margin(fn, 1, upto, table[[0, 1, -1]])


def _diff(table: np.ndarray, hi, lo) -> np.ndarray:
    """table[hi] - table[lo]; IEEE arithmetic gives x - (-inf) = +inf for
    x > -inf (the left side passes) and NaN for -inf - (-inf)."""
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


def _grid_cells(lhs, rhs, margin: float, admitted=None):
    """(i, j) where lhs[j] > rhs[i] is not cleared by the margin, in row-major
    order; row i reads only the j < admitted[i] when admitted is given.

    A float difference is monotone in its first operand and np.minimum
    propagates NaN, so row i holds a suspect exactly when the least lhs over
    its columns does (a running minimum for prefixes, +inf for none), and
    only those rows are scanned cell by cell.
    """
    if admitted is None:
        least = lhs.min(initial=np.inf)
    else:
        least = np.minimum.accumulate(np.concatenate(([np.inf], lhs)))[admitted]
    for (i,) in _cells(_suspect(least, rhs, margin)):
        row = lhs if admitted is None else lhs[: admitted[i]]
        for (j,) in _cells(_suspect(row, rhs[i], margin)):
            yield i, j


def _multiples(xs, top: int) -> np.ndarray:
    """float(j*x) for j = 0..top (rows) and x in xs (columns), flattened.

    For a range of integers below 2**53 in magnitude, float(j) * float(x)
    rounds j*x once, as float(j*x) does.  Otherwise, while
    top*max(|num|, den) < 2**53 the float product j*num is exact, so the one
    division rounds j*x once.  Only past both bounds is float(j*x) taken
    one product at a time.
    """
    if isinstance(xs, range) and max(abs(xs.start), abs(xs.stop)) <= 2**53:
        ints = np.arange(xs.start, xs.stop, xs.step, dtype=np.int64)
        return (np.arange(top + 1.0)[:, None] * ints.astype(float)).ravel()
    nums, dens = zip(*(x.as_integer_ratio() for x in xs))
    if top * max(max(map(abs, nums)), max(dens)) >= 2**53:
        return np.array([float(j * x) for j in range(top + 1) for x in xs])
    args = np.arange(top + 1.0)[:, None] * np.array(nums, dtype=float)
    args /= np.array(dens, dtype=float)
    return args.ravel()


def _block_pairs(fn, pairs, a_xs, b_xs):
    """(l, k, a, b) where Delta_l(b) > Delta_k(a) is not cleared: pair by pair,
    then a, then b, each in the given order.

    The shorter of a_xs and b_xs must be a prefix of the longer, ascending
    one, which is the table's axis (a repeated point stays a repeated
    column).  f is read once, at the floats nearest the exact arguments j*x
    (exact for integers below 2^53).  That rounding moves f by about
    2^-53 * x * f'(x), inside the margin unless x * f'(x) passes a few times
    the largest |f| read, as a table with a steep segment far from 0 can.
    """
    xs = max(a_xs, b_xs, key=len)
    top = max(map(max, pairs)) + 1  # the largest multiple j read
    table = _approx(fn, _multiples(xs, top)).reshape(top + 1, len(xs))
    margin = _margin(fn, next((x for x in xs if x > 0), 1), math.ceil(top * xs[-1]), table[[0, 1, -1]])  # j = 0, 1, top
    with np.errstate(invalid="ignore"):
        blocks = np.diff(table, axis=0)  # blocks[k, i] = Delta_k(xs[i])
    for l, k in pairs:
        for ai, bi in _grid_cells(blocks[l, : len(b_xs)], blocks[k, : len(a_xs)], margin):
            yield l, k, a_xs[ai], b_xs[bi]


# tuple order (k, a, b) over the grid
def _suspects_c1(fn, bounds):
    grid = sorted(bounds.real_grid)
    pairs = [(k, k + 1) for k in range(bounds.k_max + 1)]
    for k, _, a, b in _block_pairs(fn, pairs, grid, grid):
        yield {"k": k, "a": a, "b": b}


# tuple order (k, x, y) with x < y: constancy of Delta_k on the grid, k >= 1.
# Exact equality is transitive, so comparing each Delta_k(y) with the value at
# the smallest grid point finds the first unequal pair.  No float difference
# proves two values equal, so each such tuple is a suspect, and ``violates``
# builds its two increments once.
# Where f declares a log shift c >= 0, Delta_k = mid_{k-1} is constant in x at
# c = 0, so nothing violates, and strictly increasing for c > 0 (its
# ``mid_trend``), so every x < y violates and the first tuple, k = 1 at the
# two least distinct grid points, is the only suspect.
def _suspects_c1a(fn, bounds):
    grid = sorted(bounds.real_grid)
    if grid[0] <= 0:
        raise ValueError("argument must be positive")
    c = fn.log_shift
    if c is not None:
        y = next((y for y in grid if y > grid[0]), None)
        if c > 0 and y is not None:
            yield {"k": 1, "x": grid[0], "y": y}
        return
    for k in range(1, bounds.k_max + 1):
        for y in grid[1:]:
            yield {"k": k, "x": grid[0], "y": y}


_CHUNK = 1 << 16  # the most cells a scan's window or block table holds


# tuple order (a, b, c, d) over the grid, guard min(a,b) <= min(c,d) and ab < cd.
# Row (a, b) admits the (c, d) of no smaller min rank and a larger product rank.
# Its least admitted sum f(c) + f(d) is read off minima by (min rank, product
# rank), taken over the ranks from the top in blocks of ``_CHUNK`` cells or one
# rank that carry the minimum on, then over larger products.  Rounding is monotone
# and np.minimum propagates NaN, so a row whose least sum clears holds no suspect.
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
    margin = _margin(fn, next((x for x in grid if x > 0), 1), math.ceil(grid[-1]), f_float)
    by_rank = np.argsort(min_rank, axis=None, kind="stable")  # flat indices
    starts = np.searchsorted(min_rank.flat[by_rank], np.arange(rank[-1] + 2))
    columns = int(prod_rank.max()) + 2  # largest product first; column 0 stays +inf
    step = max(1, _CHUNK // columns - 1)  # ranks per block, and a row for the carry
    least, carry = np.empty((n, n)), np.full(columns, np.inf)
    for top in range(rank[-1] + 1, 0, -step):
        low = max(0, top - step)
        pairs = by_rank[starts[low] : starts[top]]
        rows, cols = top - min_rank.flat[pairs], columns - 1 - prod_rank.flat[pairs]
        table = np.vstack((carry, np.full((top - low, columns), np.inf)))  # row 0: the ranks >= top
        np.minimum.at(table, (rows, cols), sums.flat[pairs])
        carry = np.minimum.accumulate(table, out=table)[-1]  # row t: the ranks >= top - t
        least.flat[pairs] = np.minimum.accumulate(table, axis=1)[rows, cols - 1]  # the larger products
    for i, j in _cells(_suspect(least, sums, margin)):
        guard = (min_rank >= min_rank[i, j]) & (prod_rank > prod_rank[i, j])
        for c, d in _cells(guard & _suspect(sums, sums[i, j], margin)):
            yield {"a": grid[i], "b": grid[j], "c": grid[c], "d": grid[d]}


# tuple order (k, a, b)
def _suspects_c3(fn, bounds):
    pairs = [(k, k + 1) for k in range(bounds.k_max + 1)]
    for k, _, a, b in _block_pairs(fn, pairs, range(1, bounds.a_max + 1), range(1, bounds.b_limit + 1)):
        yield {"k": k, "a": a, "b": b}


# tuple order (l, k, a, b) with l < k
def _suspects_c3a(fn, bounds):
    pairs = [(l, k) for l in range(bounds.k_max) for k in range(l + 1, bounds.k_max + 1)]
    for l, k, a, b in _block_pairs(fn, pairs, range(1, bounds.a_max + 1), range(1, bounds.b_limit + 1)):
        yield {"l": l, "k": k, "a": a, "b": b}


# tuple order (k, a); the report's lhs and rhs are the sides of the failing
# inequality of the chain Delta_k(1) > mid_k(a) > Delta_{k+2}(1), where
# mid_k(a) = Delta_{k+1}(a).  The route follows what f declares: a log shift
# decides the chain in closed form; a ``mid_trend`` settles each row at its
# ends and one float search; the float scan serves the rest, whose mid_k may
# turn.
def _suspects_c3b(fn, bounds):
    if fn.log_shift is not None:
        return _shifted_log_c3b(fn, bounds)
    if fn.mid_trend is not None:
        return _monotone_c3b(fn, bounds)
    return _scan_c3b(fn, bounds)


# For f(x) = w log(x + c) + b, w > 0 and c >= 0, every increment is w times the
# log of a rational, Delta_t(x) = w log(((t+1)x + c) / (tx + c)), and
# w log p > w log q iff p > q.  Cross-multiplying the chain's two inequalities leaves
#   left:  (k+1+c)((k+1)a+c) - (k+c)((k+2)a+c) = a + c - ac > 0,
#   right: ((k+2)a+c)(k+2+c) - ((k+1)a+c)(k+3+c) = a + ac - c > 0,
# whatever k (at k = c = 0, Delta_0(1) = +inf and the left side holds too).
# The right one, a + c(a - 1) > 0, holds for every a >= 1.  The left one,
# a - c(a - 1) > 0, holds for every a when c <= 1, and for c > 1 fails exactly
# from a = c / (c - 1) on, in every row.
# So the first violating tuple is k = 0 at the least such a, the only suspect.
def _shifted_log_c3b(fn, bounds):
    c = fn.log_shift
    if c > 1:
        a = math.ceil(c / (c - 1))
        if a <= bounds.a_max:
            yield {"k": 0, "a": a}


def _c3b_reader(fn, bounds):
    """``uncleared(k, a)``: where Delta_k(1) > mid_k(a) and mid_k(a) > Delta_{k+2}(1)
    are not cleared, for an int array a and k an int or an int array like a.
    f is non-decreasing, so f(0..k_max+3) and f((k_max+2) a_max), read in one
    call, bound every |f| it reads at (k+1)a and (k+2)a."""
    f = _approx(fn, np.append(np.arange(bounds.k_max + 4), (bounds.k_max + 2) * bounds.a_max))
    unit = np.diff(f[:-1])  # f(t+1) - f(t)
    margin = _margin(fn, 1, (bounds.k_max + 3) * bounds.a_max, f)

    def uncleared(k, a):
        f = _approx(fn, np.concatenate(((k + 1) * a, (k + 2) * a)))
        mid = f[len(a) :] - f[: len(a)]
        return _suspect(unit[k], mid, margin), _suspect(mid, unit[k + 2], margin)

    return uncleared


# Where mid_k is monotone in a, one inequality of the chain fails only on a
# suffix of a, and the other only on a prefix: for increasing mid_k the left
# one fails on a suffix and the right one on a prefix, for decreasing mid_k
# the reverse.  A tuple the float prescreen clears holds exactly, so in
# each row the prefix failures lie in the leading run of uncleared a, and the
# suffix failures lie past every a where the suffix inequality is cleared.
# Each row yields that run; then, unless the suffix inequality is cleared at
# a_max, it searches for a cleared lo next to an uncleared hi = lo + 1 and
# yields the a >= hi where the suffix inequality is not cleared.  That is a
# subset of the scan's suspects which holds every violating tuple, in tuple
# order, so the first confirmed witness is the scan's.  The search splits
# [lo, hi] 65 ways per float call, so a row costs about log(a_max) / log(65)
# calls until it yields (3 at a_max = 2^17), and no chunk-sized table is built.
# Each family's ``mid_trend`` carries its proof.
def _monotone_c3b(fn, bounds):
    a_max = bounds.a_max
    uncleared = _c3b_reader(fn, bounds)
    side = 0 if fn.mid_trend > 0 else 1  # the suffix inequality: the left one for increasing mid_k
    # every row's two weak ends at once: the chain at a = 1, the suffix inequality at a_max
    rows = bounds.k_max + 1
    ends = uncleared(np.tile(np.arange(rows), 2), np.repeat([1, a_max], rows))
    for k in range(rows):
        lo = 1  # the first a where the chain is cleared
        if ends[0][k] or ends[1][k]:
            lo = None
            for start, stop in _doubling(1, a_max + 1):
                run = np.logical_or(*uncleared(k, np.arange(start, stop)))
                length = len(run) if run.all() else int(run.argmin())
                for a in range(start, start + length):
                    yield {"k": k, "a": a}
                if length < len(run):
                    lo = start + length
                    break
        if lo is None or not ends[side][rows + k]:
            continue
        hi = _boundary(lambda a: uncleared(k, a)[side], lo, a_max)
        for start, stop in _doubling(hi, a_max + 1):
            for (i,) in _cells(uncleared(k, np.arange(start, stop))[side]):
                yield {"k": k, "a": start + i}


def _boundary(uncleared, lo: int, hi: int) -> int:
    """An a in (lo, hi] where ``uncleared`` (on int arrays) holds and fails at
    a - 1, given it fails at lo and holds at hi.  Each call reads up to 64 evenly
    spaced points between them; the first uncleared one (else hi) and the point
    before it are the next hi and lo."""
    while hi - lo > 1:
        points = np.append(np.arange(lo, hi, -(-(hi - lo) // 65)), hi)
        i = 1 + int(np.append(uncleared(points[1:-1]), True).argmax())
        lo, hi = int(points[i - 1]), int(points[i])
    return hi


def _doubling(start: int, stop: int):
    """[start, stop) as consecutive windows of length 1, 2, 4, ... up to
    ``_CHUNK``: a reader that stops early has evaluated at most about
    twice as many a as it read."""
    size = 1
    while start < stop:
        yield start, min(start + size, stop)
        start, size = start + size, min(2 * size, _CHUNK)


# The scan walks the rows in tuple order, each in windows of at most
# ``_CHUNK`` a, which bound its memory.
def _scan_c3b(fn, bounds):
    uncleared = _c3b_reader(fn, bounds)
    for k in range(bounds.k_max + 1):
        for start in range(1, bounds.a_max + 1, _CHUNK):
            left, right = uncleared(k, np.arange(start, min(start + _CHUNK, bounds.a_max + 1)))
            for (i,) in _cells(left | right):
                yield {"k": k, "a": start + i}


# tuple order (k,)
def _suspects_c4(fn, bounds):
    pairs = [(k, k + 1) for k in range(bounds.k_max + 1)]
    for k, _, _, _ in _block_pairs(fn, pairs, [1], [1]):
        yield {"k": k}


# tuple order (k, a, b, l, r) with b <= a and the guard (k+1)b > lb + ra.
# Every admitted base lb + ra lies in [0, (k+1)b - 1], so least[b][k], the
# running minimum of f(y+b) - f(y) there (NaN if one is), is below each left
# side of the cell (k, a, b): rounding is monotone, so a cell whose mid and
# least[b][k] - mid clear holds no suspect.  least[b] is built at (0, b, b).
# The loop reads the table as Python floats, without numpy's per-scalar cost.
def _suspects_c5(fn, bounds):
    k_max, b_lim = bounds.k_max, bounds.b_limit
    table, margin = _table(fn, (k_max + 3) * max(bounds.a_max, b_lim) + 2)
    t, least = memoryview(table), [None]  # least[b] from b = 1 on
    for k in range(k_max + 1):
        right = t[k + 3] - t[k + 2]
        for a in range(1, bounds.a_max + 1):
            if len(least) <= min(a, b_lim):  # k = 0 and b = a is new
                run = np.minimum.accumulate(_diff(table, np.s_[a : (k_max + 2) * a], np.s_[: (k_max + 1) * a]))
                least.append(run[a - 1 :: a].tolist())
            mid = t[(k + 2) * a] - t[(k + 1) * a]
            mid_bad = not (mid - right > margin)
            for b in range(1, min(a, b_lim) + 1):
                if not mid_bad and least[b][k] - mid > margin:
                    continue
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
    a_idx = np.arange(1, bounds.a_max + 1)
    b_idx = np.arange(1, bounds.b_limit + 1)
    for k in range(1, bounds.k_max + 1):
        lhs = _diff(table, (k + 1) * b_idx - 1, k * b_idx - 1)
        for ai, bi in _grid_cells(lhs, _diff(table, (k + 1) * a_idx, k * a_idx), margin):
            yield {"k": k, "a": ai + 1, "b": bi + 1}


# tuple order (a, b, x, y) with the guard x*b >= (y+1)*a, which admits the
# y < x*b // a.  For each a, rows b come in blocks of ``_CHUNK`` cells or one row;
# a row's running minimum of f(y+b) - f(y) at the admitted prefix clears the
# cell (b, x) as in ``_grid_cells``; the others are scanned y by y.
def _suspects_c6b(fn, bounds):
    x_lim = bounds.x_limit
    table, margin = _table(fn, x_lim + bounds.a_max + bounds.b_limit + 1)
    x_idx = np.arange(1, x_lim + 1)
    shifted = np.lib.stride_tricks.sliding_window_view(table, x_lim + 1)  # shifted[b, y] = f(y + b)
    step = max(1, _CHUNK // (x_lim + 2))
    for a in range(1, bounds.a_max + 1):
        rhs = _diff(table, x_idx + a, x_idx)
        for low in range(1, bounds.b_limit + 1, step):
            rows = np.arange(min(step, bounds.b_limit + 1 - low))[:, None]
            admitted = np.minimum(x_idx * (low + rows) // a, x_lim + 1)
            width = int(admitted.max(initial=0))  # no row reads a y past it
            lhs = _diff(shifted, np.s_[low : low + len(rows), :width], np.s_[0, :width])
            running = np.empty((len(rows), width + 1))
            running[:, 0] = np.inf  # for no y
            np.minimum.accumulate(lhs, axis=1, out=running[:, 1:])
            least = np.take(running, admitted + (width + 1) * rows)
            for bi, xi in _cells(_suspect(least, rhs, margin)):
                for (y,) in _cells(_suspect(lhs[bi, : admitted[bi, xi]], rhs[xi], margin)):
                    yield {"a": a, "b": low + bi, "x": xi + 1, "y": y}


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
    within bounds (tuple orders are documented per condition above).  Each
    suspect is settled by ``violates``, so it is evaluated and compared once:
    the report's lhs and rhs are the failing pair that call found.
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
            lhs, rhs = _failing_pair
            return ConditionReport(cond, VIOLATED, bounds, witness, lhs, rhs)
    return ConditionReport(cond, INCONCLUSIVE if inconclusive else NO_VIOLATION, bounds)


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
# the arrows by condition id, the keys of WelfareFunction.closed_forms
_ARROWS = tuple((stronger.value, weaker.value) for stronger, weaker, _ in IMPLICATIONS)


def analytic_verdict(fn: WelfareFunction, cond: ConditionId) -> bool | None:
    """Closed-form satisfaction verdict where a proved result covers the pair; None where none does.

    The closure of ``fn.closed_forms()`` over ``IMPLICATIONS``: a condition
    that holds carries to each weaker one, a failing one to each stronger one,
    and a condition that no declared verdict reaches stays None.
    """
    verdicts = dict(fn.closed_forms())
    for _ in ConditionId:  # one pass per condition carries a verdict along every path
        for stronger, weaker in _ARROWS:
            if verdicts.get(stronger) is True:
                verdicts.setdefault(weaker, True)
            if verdicts.get(weaker) is False:
                verdicts.setdefault(stronger, False)
    return verdicts.get(cond.value)


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
    inconsistencies, notes = [], []
    for stronger, weaker, transfer in IMPLICATIONS:
        strong_report, weak_report = reports.get(stronger), reports.get(weaker)
        if (getattr(weak_report, "verdict", None), getattr(strong_report, "verdict", None)) != (VIOLATED, NO_VIOLATION):
            continue
        for candidate in transfer(weak_report.witness):
            if violates(fn, stronger, candidate, bounds.policy):
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
                break
        else:
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

# the a_max at which the adaptive search stops doubling, and so the box of a bisection probe
DEFAULT_A_CAP = 1 << 17


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
    a_cap: int = DEFAULT_A_CAP,
) -> ConditionReport:
    """Double the bounded box until a witness appears or a_max reaches the cap.

    Several necessity results only guarantee witnesses for large enough
    parameters, so a fixed box can be silently too small; the returned report
    carries the last bounds used either way.  Block indices double up to 64
    (an initial k_max above 64 is kept), since the binding tuples of every
    studied family sit at small k while the argument scales run away.  An
    initial box with a_max >= a_cap is checked once, as it is.
    """
    bounds = initial or Bounds(k_max=4, a_max=8)
    while True:
        report = check_condition(fn, cond, bounds)
        if report.verdict != NO_VIOLATION or bounds.a_max >= a_cap:
            return report
        bounds = _scaled(bounds, 2, max(bounds.k_max, min(bounds.k_max * 2, 64)))


_FAMILIES = ("harmonic", "modlog")


def threshold_bisect(
    family: str,
    cond: ConditionId,
    c_lo,
    c_hi,
    bounds: Bounds | None = None,
    iters: int = 20,
    a_cap: int = DEFAULT_A_CAP,
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
    base = bounds or Bounds(k_max=3, a_max=25)
    factor = 1
    while base.a_max * factor < a_cap:
        factor *= 2
    last = _scaled(base, factor, base.k_max)

    # a box already at the cap is checked once; going through the adaptive
    # search keeps each probe one conditions.adaptive span in benchmark/tracer.py
    def verdict(c: Fraction) -> str:
        report = find_witness_adaptive(parse_welfare(f"{family}:{c}"), cond, last, a_cap=a_cap)
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
    pad = max(1e-9, 8.0 * fn.table_error_bound(1, x_max + 1) * x_max)
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


def _reciprocal_log_offset(x, shift: int):
    """1/log((x+1)/x) - (x + shift) at the working precision."""
    xf = mpmath.mpf(x)
    return 1 / mpmath.log((xf + 1) / xf) - (xf + shift)


def numeric_lemma_suite() -> LemmaSuiteReport:
    """High-precision checks of the two numeric facts the threshold analysis
    leans on: the -1/2 limit of 1/log((x+1)/x) - (x+1), and strict
    monotonicity of h(x) = 1/log((x+1)/x) - x on the integers 1..1000 (h(1)
    is the harmonic-family threshold 1/log 2 - 1).
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
        h = [_reciprocal_log_offset(x, 0) for x in range(1, 1001)]  # h[x - 1] = h(x)
        breaks = next((x for x in range(2, 1001) if not h[x - 1] > h[x - 2]), None)
        checks.append(
            LemmaCheck(
                "offset_strictly_increasing",
                breaks is None,
                "h strictly increasing on [1, 1000]" if breaks is None else f"monotonicity breaks at x = {breaks}",
            )
        )
    return LemmaSuiteReport(tuple(checks))
