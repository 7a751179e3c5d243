"""Bounded condition checks, analytic verdicts, implication harness, bisection."""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from welfarist import conditions, functions
from welfarist.conditions import (
    Bounds,
    ConditionId,
    ConditionReport,
    NO_VIOLATION,
    REAL_CONDITIONS,
    VIOLATED,
    analytic_verdict,
    check_condition,
    find_arrow_inconsistencies,
    find_witness_adaptive,
    implication_scan,
    marginal_growth_envelope,
    numeric_lemma_suite,
    threshold_bisect,
    violates,
)
from welfarist.functions import (
    LinearCombo,
    Log,
    ModHarmonic,
    ModLog,
    PMean,
    PiecewiseTable,
    WelfareFunction,
    increment,
    parse_welfare,
)
from welfarist.values import PRECISION_CEILING_ENV, ExactValue, Relation, compare

SMALL_GRID = tuple(Fraction(j, 4) for j in range(1, 13))
SIX_POINTS = tuple(Fraction(j, 2) for j in range(1, 7))
# A repeated value, and a product tie that floats misorder (3/10 * 2 = 2/5 * 3/2,
# yet 0.4 * 1.5 > 0.3 * 2.0), pin the exact C2 guard.
REPEATED_GRID = tuple(Fraction(x) for x in ("3/10", "2/5", "1", "3/2", "2", "2"))
# Thirds and tenths have no exact float, so C1 reads f at rounded arguments.
NON_DYADIC_GRID = tuple(Fraction(x) for x in ("1/3", "1/2", "7/10", "1", "7/3", "5/2"))

BATTERY = (
    ["log"]
    + [f"modlog:{c}" for c in ["0", "1/2", "1", "2"]]
    + [f"harmonic:{c}" for c in ["-1", "-1/2", "0", "2/5", "1"]]
    + [f"pmean:{p}" for p in ["-1", "0", "1/2", "1"]]
)


class TestCheckCondition:
    def test_sqrt_mean_passes_binary_condition(self):
        report = check_condition(parse_welfare("pmean:1/2"), ConditionId.C4, Bounds(k_max=100))
        assert report.verdict == NO_VIOLATION

    def test_sqrt_mean_integer_chain_witness(self):
        report = check_condition(
            parse_welfare("pmean:1/2"), ConditionId.C3, Bounds(k_max=2, a_max=6)
        )
        assert report.verdict == VIOLATED
        assert report.witness == {"k": 0, "a": 6, "b": 1}
        assert report.lhs.as_fraction() == 1

    def test_linear_mean_fails_at_zero(self):
        report = check_condition(parse_welfare("pmean:1"), ConditionId.C4, Bounds(k_max=2))
        assert report.verdict == VIOLATED and report.witness == {"k": 0}

    def test_shifted_log_chain_boundary(self):
        ok = check_condition(
            parse_welfare("modlog:1/2"), ConditionId.C3B, Bounds(k_max=30, a_max=50)
        )
        assert ok.verdict == NO_VIOLATION
        bad = check_condition(
            parse_welfare("modlog:2"), ConditionId.C3B, Bounds(k_max=3, a_max=5)
        )
        assert bad.verdict == VIOLATED and bad.witness == {"k": 0, "a": 2}

    def test_c2_margin_scales_with_the_table(self):
        # t^2 + (7t)^2 = 2 (5t)^2 exactly, yet the float sums near 5.6e10 differ by 1.5e-5
        t = Fraction(100001, 3)
        report = check_condition(
            parse_welfare("pmean:2"), ConditionId.C2, Bounds(real_grid=(t, 5 * t, 7 * t))
        )
        assert report.verdict == VIOLATED
        assert report.witness == {"a": t, "b": 7 * t, "c": 5 * t, "d": 5 * t}
        assert report.lhs.as_fraction() == report.rhs.as_fraction() == Fraction(500010000050, 9)

    def test_harmonic_block_not_constant(self):
        report = check_condition(
            parse_welfare("harmonic:0"),
            ConditionId.C1A,
            Bounds(k_max=2, real_grid=(Fraction(1), Fraction(2))),
        )
        assert report.verdict == VIOLATED
        assert report.lhs.as_fraction() == Fraction(1, 2)
        assert report.rhs.as_fraction() == Fraction(7, 12)

    @pytest.mark.parametrize("c", ["-1", "-1/2", "0", "2/5"])
    def test_harmonic_chain_below_threshold(self, c):
        report = check_condition(
            parse_welfare(f"harmonic:{c}"), ConditionId.C3B, Bounds(k_max=30, a_max=50)
        )
        assert report.verdict == NO_VIOLATION

    @pytest.mark.parametrize("c,expect_k", [("1/2", 0), ("1", 0)])
    def test_harmonic_chain_above_threshold(self, c, expect_k):
        report = find_witness_adaptive(
            parse_welfare(f"harmonic:{c}"), ConditionId.C3B, Bounds(k_max=4, a_max=8)
        )
        assert report.verdict == VIOLATED
        assert report.witness["k"] == expect_k

    def test_adaptive_search_keeps_a_large_initial_k_max(self):
        # block indices grow to 64 at most, but never shrink below the start
        report = find_witness_adaptive(
            parse_welfare("log"), ConditionId.C4, Bounds(k_max=100, a_max=1), a_cap=4
        )
        assert report.verdict == NO_VIOLATION
        assert (report.bounds.k_max, report.bounds.a_max) == (100, 4)

    def test_harmonic_general_chain_witness(self):
        report = find_witness_adaptive(
            parse_welfare("harmonic:-3/4"), ConditionId.C6A, Bounds(k_max=4, a_max=8)
        )
        assert report.verdict == VIOLATED
        assert report.witness == {"k": 1, "a": 1, "b": 7}

    @pytest.mark.parametrize(
        "spec,witness",
        [
            ("pmean:2", {"k": 0, "a": 1}),
            ("pmean:1/2", {"k": 0, "a": 6}),
            ("combo:1*pmean:0+40*pmean:-1", {"k": 0, "a": 4}),
            ("pmean:0", None),
            ("harmonic:-1", None),
        ],
    )
    def test_c3b_scans_large_boxes_of_every_family(self, spec, witness):
        report = check_condition(
            parse_welfare(spec), ConditionId.C3B, Bounds(k_max=3, a_max=20_000)
        )
        assert report.verdict == (NO_VIOLATION if witness is None else VIOLATED)
        assert report.witness == witness

    @pytest.mark.parametrize("spec", ["pmean:1/2", "pmean:-1", "harmonic:1/2", "harmonic:-1"])
    def test_c3b_chunks_keep_tuple_order(self, spec, monkeypatch):
        """pmean:1/2 violates at (k, a) = (1, 2) and first at (0, 6): in windows
        of two a, row k = 0 must be walked through every window before row 1
        starts.  The scan is patched in, since of these specs only harmonic:-1
        reaches it through check_condition."""
        fn = parse_welfare(spec)
        bounds = Bounds(k_max=3, a_max=60)
        monkeypatch.setitem(conditions._SUSPECTS, ConditionId.C3B, conditions._scan_c3b)
        whole = check_condition(fn, ConditionId.C3B, bounds).to_json_dict()
        monkeypatch.setattr(conditions, "_CHUNK", 2)
        assert check_condition(fn, ConditionId.C3B, bounds).to_json_dict() == whole

    def test_report_json_shape(self):
        report = check_condition(
            parse_welfare("modlog:2"), ConditionId.C3B, Bounds(k_max=3, a_max=5)
        )
        doc = report.to_json_dict()
        assert doc["condition"] == "C3b" and doc["verdict"] == "Violated"
        assert doc["witness"] == {"k": 0, "a": 2}
        assert "real_grid" not in doc["bounds"]
        assert {"lhs", "rhs"} <= set(doc)


def _direct_tuples(cond, bounds):
    """Tuple enumeration in the documented lexicographic order, no prescreen."""
    grid = sorted(bounds.real_grid)
    if cond is ConditionId.C1:
        for k in range(bounds.k_max + 1):
            for a in grid:
                for b in grid:
                    yield {"k": k, "a": a, "b": b}
    elif cond is ConditionId.C1A:
        for k in range(1, bounds.k_max + 1):
            for i, x in enumerate(grid):
                for y in grid[i + 1:]:
                    yield {"k": k, "x": x, "y": y}
    elif cond is ConditionId.C2:
        for a, b, c, d in itertools.product(grid, repeat=4):
            if min(a, b) <= min(c, d) and a * b < c * d:
                yield {"a": a, "b": b, "c": c, "d": d}
    elif cond is ConditionId.C3:
        for k in range(bounds.k_max + 1):
            for a in range(1, bounds.a_max + 1):
                for b in range(1, bounds.b_limit + 1):
                    yield {"k": k, "a": a, "b": b}
    elif cond is ConditionId.C3A:
        for l in range(bounds.k_max):
            for k in range(l + 1, bounds.k_max + 1):
                for a in range(1, bounds.a_max + 1):
                    for b in range(1, bounds.b_limit + 1):
                        yield {"l": l, "k": k, "a": a, "b": b}
    elif cond is ConditionId.C3B:
        for k in range(bounds.k_max + 1):
            for a in range(1, bounds.a_max + 1):
                yield {"k": k, "a": a}
    elif cond is ConditionId.C4:
        for k in range(bounds.k_max + 1):
            yield {"k": k}
    elif cond is ConditionId.C5:
        for k in range(bounds.k_max + 1):
            for a in range(1, bounds.a_max + 1):
                for b in range(1, min(a, bounds.b_limit) + 1):
                    for l in range(0, k + 1):
                        r_cap = ((k + 1 - l) * b - 1) // a
                        for r in range(0, r_cap + 1):
                            yield {"k": k, "a": a, "b": b, "l": l, "r": r}
    elif cond is ConditionId.C6A:
        for k in range(1, bounds.k_max + 1):
            for a in range(1, bounds.a_max + 1):
                for b in range(1, bounds.b_limit + 1):
                    yield {"k": k, "a": a, "b": b}
    elif cond is ConditionId.C6B:
        for a in range(1, bounds.a_max + 1):
            for b in range(1, bounds.b_limit + 1):
                for x in range(1, bounds.x_limit + 1):
                    for y in range(0, bounds.x_limit + 1):
                        if x * b >= (y + 1) * a:
                            yield {"a": a, "b": b, "x": x, "y": y}
    else:
        raise ValueError(cond)


@pytest.mark.parametrize(
    "spec",
    ["harmonic:1", "harmonic:0", "pmean:1/2", "pmean:-1", "modlog:2", "modlog:1/3", "modlog:1",
     "log", "pmean:0"],
)
@pytest.mark.parametrize(
    "cond",
    [ConditionId.C1, ConditionId.C1A, ConditionId.C2, ConditionId.C3, ConditionId.C3A,
     ConditionId.C3B, ConditionId.C4, ConditionId.C5, ConditionId.C6A, ConditionId.C6B],
)
def test_scan_agrees_with_direct_enumeration(spec, cond):
    """The prescreened scan and a plain exact loop give the same verdict/witness."""
    fn = parse_welfare(spec)
    if cond in REAL_CONDITIONS:
        boxes = [
            Bounds(k_max=3, real_grid=grid)
            for grid in (SIX_POINTS, REPEATED_GRID, NON_DYADIC_GRID)
        ]
    else:
        boxes = [Bounds(k_max=4, a_max=4, x_max=8)]
    if cond is ConditionId.C6B:
        boxes.append(Bounds(k_max=3, a_max=5, b_max=2, x_max=12))
    if cond in (ConditionId.C3, ConditionId.C3A):
        boxes += [Bounds(k_max=3, a_max=5, b_max=2), Bounds(k_max=3, a_max=2, b_max=5)]
    if cond in (ConditionId.C3, ConditionId.C3A, ConditionId.C6A):
        boxes.append(Bounds(k_max=3, a_max=3, b_max=0))  # no b at all: nothing to violate
    for bounds in boxes:
        direct = next(
            ((w, True) for w in _direct_tuples(cond, bounds) if violates(fn, cond, w)),
            (None, False),
        )
        report = check_condition(fn, cond, bounds)
        assert (report.verdict == VIOLATED) == direct[1], bounds.real_grid
        if direct[1]:
            assert report.witness == direct[0], bounds.real_grid


_SCAN_VALUES = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, 1e-9, -1e-9, 1.0])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.lists(_SCAN_VALUES, max_size=6),
    st.lists(_SCAN_VALUES, max_size=6),
    st.sampled_from([0.0, 1e-9, 0.3]),
    st.data(),
)
def test_grid_cells_match_a_double_loop(lhs, rhs, margin, data):
    """The row-minimum scan yields exactly the cells a plain loop over
    not (lhs[j] - rhs[i] > margin) finds, in the same order."""
    prefix = st.lists(st.integers(0, len(lhs)), min_size=len(rhs), max_size=len(rhs))
    admitted = data.draw(st.none() | prefix)
    lhs, rhs = np.array(lhs), np.array(rhs)
    with np.errstate(invalid="ignore"):
        want = [
            (i, j)
            for i in range(len(rhs))
            for j in range(len(lhs) if admitted is None else admitted[i])
            if not (lhs[j] - rhs[i] > margin)
        ]
    if admitted is not None:
        admitted = np.array(admitted, dtype=int)
    assert list(conditions._grid_cells(lhs, rhs, margin, admitted)) == want


class _FloatStub(WelfareFunction):
    """f known only through its float model: the given floats at the sorted grid."""

    def __init__(self, floats, error):
        self.floats, self.error = np.array(floats), error

    def value_at(self, x, bits=None):
        raise NotImplementedError

    def label(self):
        return "stub"

    def approx_array(self, xs):
        assert len(xs) == len(self.floats)
        return self.floats

    def table_error_bound(self, least, upto):
        return self.error


# repeats, and the product ties 3/10 * 2 = 2/5 * 3/2 and 1 * 3 = 3/2 * 2
_C2_POOL = tuple(Fraction(x) for x in ("3/10", "2/5", "1", "3/2", "2", "3"))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.lists(st.sampled_from(_C2_POOL), min_size=1, max_size=6),
    st.sampled_from([0.0, 1e-10, 0.1]),
    st.sampled_from([conditions._CHUNK, 1, 12, 40]),
    st.data(),
)
def test_c2_scan_matches_a_quadruple_loop(grid, error, chunk, data):
    """The row-minimum C2 scan yields exactly the tuples a plain loop over
    grid^4 with the exact guard and not (f(c) + f(d) - (f(a) + f(b)) > margin)
    finds, in the same order, also when a small cell bound splits its table
    of least sums into several blocks of ranks."""
    f = data.draw(st.lists(_SCAN_VALUES, min_size=len(grid), max_size=len(grid)))
    fn = _FloatStub(f, error)
    xs = sorted(grid)
    margin = conditions._margin(fn, xs[0], math.ceil(xs[-1]), fn.floats)
    with np.errstate(invalid="ignore"):  # +inf + -inf is NaN, a suspect
        want = [
            {"a": xs[i], "b": xs[j], "c": xs[c], "d": xs[d]}
            for i, j, c, d in itertools.product(range(len(xs)), repeat=4)
            if min(xs[i], xs[j]) <= min(xs[c], xs[d])
            and xs[i] * xs[j] < xs[c] * xs[d]
            and not (fn.floats[c] + fn.floats[d] - (fn.floats[i] + fn.floats[j]) > margin)
        ]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(conditions, "_CHUNK", chunk)
            got = list(conditions._suspects_c2(fn, Bounds(real_grid=tuple(grid))))
    assert got == want


def _stub_table(data, upto, error):
    """A float stub of f(0..upto) and its margin: either every value drawn
    from _SCAN_VALUES, or a staircase of small integer steps with up to three
    of them overwritten so, which clears far more cells."""
    if data.draw(st.booleans()):
        floats = data.draw(st.lists(_SCAN_VALUES, min_size=upto + 1, max_size=upto + 1))
    else:
        floats = np.cumsum(data.draw(st.lists(st.integers(0, 3), min_size=upto + 1, max_size=upto + 1)), dtype=float)
        for i, v in data.draw(st.lists(st.tuples(st.integers(0, upto), _SCAN_VALUES), max_size=3)):
            floats[i] = v
    fn = _FloatStub(floats, error)
    return fn, conditions._margin(fn, 1, upto, fn.floats[[0, 1, -1]])


def _c5_loop(t, bounds, margin):
    """The C5 suspects by a plain loop over the box with the guard (k+1)b > lb + ra."""
    with np.errstate(invalid="ignore"):
        return [
            {"k": k, "a": a, "b": b, "l": l, "r": r}
            for k in range(bounds.k_max + 1)
            for a in range(1, bounds.a_max + 1)
            for b in range(1, min(a, bounds.b_limit) + 1)
            for l in range(k + 1)
            for r in range(k + 2)
            if (k + 1) * b > l * b + r * a
            and not (
                (t[(k + 2) * a] - t[(k + 1) * a]) - (t[k + 3] - t[k + 2]) > margin
                and t[l * b + r * a + b] - t[l * b + r * a] - (t[(k + 2) * a] - t[(k + 1) * a]) > margin
            )
        ]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.integers(2, 3),
    st.integers(1, 4),
    st.sampled_from([None, 0, 1, 2, 5]),
    st.sampled_from([0.0, 1e-10, 0.1]),
    st.data(),
)
def test_c5_scan_matches_a_quintuple_loop(k_max, a_max, b_max, error, data):
    """The C5 scan, which clears whole cells (k, a, b) from the least increment
    their bases admit, yields exactly the tuples of a plain loop over the box,
    in the same order."""
    bounds = Bounds(k_max=k_max, a_max=a_max, b_max=b_max)
    fn, margin = _stub_table(data, (k_max + 3) * max(a_max, bounds.b_limit) + 2, error)
    with np.errstate(invalid="ignore"):
        assert list(conditions._suspects_c5(fn, bounds)) == _c5_loop(fn.floats, bounds, margin)


def test_c5_cell_minimum_reaches_the_last_base():
    """In the cell (k, a, b) = (1, 3, 2) the base l*b + r*a = 3 = (k+1)b - 1
    (l = 0, r = 1) is the only one whose increment f(5) - f(3) fails against
    mid = f(9) - f(6), so a cell minimum that stopped one base short would clear it."""
    steps = [0, 3, 0, 3, 0, 0, 1, 0, 1, 1] + [3] * 8  # f(0..17), with f(y+1) - f(y) = steps[y+1]
    fn = _FloatStub(np.cumsum(steps, dtype=float), 0.0)
    bounds = Bounds(k_max=2, a_max=3, b_max=2)
    want = _c5_loop(fn.floats, bounds, conditions._margin(fn, 1, 17, fn.floats[[0, 1, -1]]))
    assert {"k": 1, "a": 3, "b": 2, "l": 0, "r": 1} in want
    assert list(conditions._suspects_c5(fn, bounds)) == want


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.integers(1, 4),
    st.sampled_from([None, 0, 1, 3, 6]),
    st.integers(0, 9),
    st.sampled_from([0.0, 1e-10, 0.1]),
    st.sampled_from([conditions._CHUNK, 1, 12]),
    st.data(),
)
def test_c6b_scan_matches_a_quadruple_loop(a_max, b_max, x_max, error, chunk, data):
    """The C6b scan, which clears whole cells (b, x) from running minima over
    blocks of rows, yields exactly the tuples a plain loop over the box with
    the guard x*b >= (y+1)*a finds, in the same order, also when a small cell
    bound puts each row in its own block."""
    bounds = Bounds(k_max=2, a_max=a_max, b_max=b_max, x_max=x_max)
    fn, margin = _stub_table(data, x_max + a_max + bounds.b_limit + 1, error)
    t = fn.floats
    with np.errstate(invalid="ignore"):
        want = [
            {"a": a, "b": b, "x": x, "y": y}
            for a in range(1, a_max + 1)
            for b in range(1, bounds.b_limit + 1)
            for x in range(1, x_max + 1)
            for y in range(x_max + 1)
            if x * b >= (y + 1) * a and not (t[y + b] - t[y] - (t[x + a] - t[x]) > margin)
        ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conditions, "_CHUNK", chunk)
        assert list(conditions._suspects_c6b(fn, bounds)) == want


@pytest.mark.parametrize("cond", [ConditionId.C3, ConditionId.C3A])
def test_block_pair_scan_memory_stays_linear(cond):
    # an a_max x b_max difference matrix alone would take 32 MiB here
    tracemalloc.start()
    try:
        report = check_condition(parse_welfare("log"), cond, Bounds(k_max=2, a_max=2048))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == NO_VIOLATION
    assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "spec, cond, bounds, cap",
    [
        # one table of least sums by (min rank, product rank) would take 128 MiB here
        ("log", ConditionId.C2, Bounds(real_grid=tuple(Fraction(j, 8) for j in range(1, 401))), 16),
        # the running minima of every row b at once would take 5 MiB
        ("harmonic:0", ConditionId.C6B, Bounds(k_max=10, a_max=256), 4),
        ("harmonic:0", ConditionId.C5, Bounds(k_max=10, a_max=256), 1),
    ],
)
def test_block_clearance_memory_stays_bounded(spec, cond, bounds, cap):
    fn = parse_welfare(spec)
    tracemalloc.start()
    try:
        report = check_condition(fn, cond, bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == NO_VIOLATION
    assert peak < cap * 2**20


@pytest.mark.parametrize("cond", [ConditionId.C3, ConditionId.C3A])
def test_block_pair_table_builds_no_argument_list(cond):
    # a Python list of the 1.06 M float arguments j*a alone takes over 32 MiB
    tracemalloc.start()
    try:
        report = check_condition(parse_welfare("log"), cond, Bounds(k_max=64, a_max=16384))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == NO_VIOLATION
    assert peak < 32 * 2**20


@pytest.mark.parametrize(
    "xs",
    [
        NON_DYADIC_GRID,
        SMALL_GRID,
        [1, 2, 7, 10**9 + 7],
        # past the exact-product bound: the list form itself
        NON_DYADIC_GRID + (Fraction(1, 3**40),),
        [1, 2**60 + 1],
        # the integer route of C3 and C3a, and a range past it
        range(1, 300),
        range(1, 2**20, 4099),
        range(2**53 - 3, 2**53 + 3),
    ],
)
def test_block_pair_arguments_are_the_rounded_products(xs):
    if not isinstance(xs, range):
        xs = sorted(set(xs))
    top = 65
    want = [float(j * x) for j in range(top + 1) for x in xs]
    assert conditions._multiples(xs, top).tolist() == want


class TestWitnessSoundness:
    @pytest.mark.parametrize("spec", BATTERY)
    def test_violated_witnesses_reverify(self, spec):
        fn = parse_welfare(spec)
        bounds = Bounds(k_max=6, a_max=6, real_grid=SMALL_GRID)
        for cond in ConditionId:
            report = check_condition(fn, cond, bounds)
            if report.verdict == VIOLATED:
                assert violates(fn, cond, report.witness) is True

    def test_growing_bounds_keeps_violations(self):
        fn = parse_welfare("pmean:1")
        small = Bounds(k_max=3, a_max=3)
        big = Bounds(k_max=6, a_max=6)
        for cond in [ConditionId.C3, ConditionId.C4, ConditionId.C5, ConditionId.C6A]:
            if check_condition(fn, cond, small).verdict == VIOLATED:
                assert check_condition(fn, cond, big).verdict == VIOLATED


def _c3b_reports(fn, bounds):
    """The C3b report through the family's own route and through the float scan."""
    routed = check_condition(fn, ConditionId.C3B, bounds).to_json_dict()
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(conditions._SUSPECTS, ConditionId.C3B, conditions._scan_c3b)
        scan = check_condition(fn, ConditionId.C3B, bounds).to_json_dict()
    return routed, scan


# c = 1 is the threshold; 1 + 2^-j first fails at an a that grows like 2^j
_LOG_SHIFTS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)] + [1 + Fraction(1, 2**j) for j in range(1, 31)]),
    st.fractions(min_value=0, max_value=4, max_denominator=64),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.one_of(st.none(), _LOG_SHIFTS),
    st.booleans(),
    st.integers(2, 8),
    st.one_of(st.integers(1, 2**17), st.sampled_from([1, 2, 2**17])),
)
def test_c3b_closed_form_matches_the_scan(c, combo, k_max, a_max):
    """Log, ModLog and positive combinations of one shift report the same
    through both routes, also on the boxes whose a_max is the scan's witness a
    and the one below it."""
    fn = Log() if c is None else ModLog(c)
    if combo:
        fn = LinearCombo([(Fraction(1, 3), fn), (5, ModLog(fn.c))])
    closed, scan = _c3b_reports(fn, Bounds(k_max=k_max, a_max=a_max))
    assert closed == scan
    if scan["verdict"] == VIOLATED:
        a = scan["witness"]["a"]
        for edge in {a, max(a - 1, 1)}:
            closed, scan = _c3b_reports(fn, Bounds(k_max=k_max, a_max=edge))
            assert closed == scan


# the harmonic route's range, c >= -1/2; 907/2048 first fails at a = 5574 and
# 1813/4096, just below the threshold 1/log 2 - 1, not below a = 2^15
_HARMONIC_SHIFTS = st.one_of(
    st.sampled_from([Fraction(-1, 2), Fraction(907, 2048), Fraction(1813, 4096)]),
    st.fractions(min_value=Fraction(-1, 2), max_value=3, max_denominator=64),
)
_POWERS = st.builds(
    Fraction,
    st.integers(-6, 6).filter(lambda s: s != 0),
    st.integers(1, 3),
)

# positive combinations with no shared log shift whose terms all share one
# trend or are constant (log, pmean:0)
_SHARED_TREND_COMBOS = st.builds(
    lambda terms, weights: LinearCombo(list(zip(weights, terms))),
    st.one_of(
        st.lists(
            st.one_of(
                st.builds(ModHarmonic, _HARMONIC_SHIFTS),
                st.builds(PMean, _POWERS.filter(lambda p: p > 0)),
                st.builds(ModLog, st.fractions(min_value=0, max_value=3, max_denominator=8)),
                st.just(Log()),
            ),
            min_size=2,
            max_size=3,
        ),
        st.lists(
            st.one_of(st.builds(PMean, _POWERS.filter(lambda p: p < 0)), st.just(PMean(0))),
            min_size=2,
            max_size=3,
        ),
    ),
    st.lists(st.fractions(min_value=Fraction(1, 8), max_value=40, max_denominator=8), min_size=3, max_size=3),
).filter(lambda fn: fn.log_shift is None)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.one_of(st.builds(ModHarmonic, _HARMONIC_SHIFTS), st.builds(PMean, _POWERS), _SHARED_TREND_COMBOS),
    st.integers(2, 8),
    st.one_of(st.integers(1, 2**15), st.sampled_from([1, 2, 2**15])),
)
@example(ModHarmonic(Fraction(907, 2048)), 3, 2**15)
@example(ModHarmonic(Fraction(1813, 4096)), 8, 2**15)
@example(ModHarmonic(Fraction(-1, 2)), 8, 2**15)
@example(parse_welfare("combo:1*pmean:0+40*pmean:-1"), 8, 2**15)
@example(parse_welfare("combo:1*log+1*modlog:1"), 8, 2**15)
@example(parse_welfare("combo:1*harmonic:0+1/4*pmean:2"), 8, 2**15)
def test_c3b_monotone_route_matches_the_scan(fn, k_max, a_max):
    """Harmonic (c >= -1/2), power-mean (p != 0) and shared-trend combination
    reports are the same through the monotone route and the scan, also on the
    boxes whose a_max is the scan's witness a and the one below it."""
    assert fn.mid_trend is not None and fn.log_shift is None
    routed, scan = _c3b_reports(fn, Bounds(k_max=k_max, a_max=a_max))
    assert routed == scan
    if scan["verdict"] == VIOLATED:
        a = scan["witness"]["a"]
        for edge in {a, max(a - 1, 1)}:
            routed, scan = _c3b_reports(fn, Bounds(k_max=k_max, a_max=edge))
            assert routed == scan


@pytest.mark.parametrize(
    "spec",
    [
        "log",
        "modlog:2",
        "pmean:0",
        "pmean:1/3",
        "pmean:-2",
        "harmonic:-1/2",
        "harmonic:3",
        "combo:1*log+1*modlog:1",
        "combo:1*pmean:0+40*pmean:-1",
    ],
)
def test_c3b_monotone_and_closed_routes_build_no_table(spec, monkeypatch):
    """Shifted logs, power means, harmonic shifts c >= -1/2 and combinations
    of one trend never reach the scan, so an a_max of 2^30 costs them a few
    float evaluations per row."""
    monkeypatch.setattr(conditions, "_scan_c3b", None)
    report = check_condition(parse_welfare(spec), ConditionId.C3B, Bounds(k_max=3, a_max=2**30))
    holds = {"log", "pmean:0", "harmonic:-1/2", "combo:1*log+1*modlog:1"}
    assert report.verdict == (NO_VIOLATION if spec in holds else VIOLATED)


@pytest.mark.parametrize(
    "fn",
    [
        parse_welfare("combo:1*pmean:1/2+1*pmean:-1"),
        parse_welfare("combo:1*harmonic:1+1*pmean:-2"),
        parse_welfare("combo:1*log+1*harmonic:-3/4"),
        LinearCombo([(1, Log()), (2, PiecewiseTable([0, 1], [1, 2]))]),
    ],
)
def test_a_combination_without_a_trend_takes_the_scan(fn, monkeypatch):
    """Opposing trends, or a term with none (harmonic c < -1/2, a table),
    leave the combination no trend, so C3b reads it through the float scan."""
    assert fn.log_shift is None and fn.mid_trend is None
    scanned = []
    monkeypatch.setattr(conditions, "_scan_c3b", lambda fn, bounds: iter(scanned.append(fn) or ()))
    assert check_condition(fn, ConditionId.C3B, Bounds()).verdict == NO_VIOLATION
    assert scanned == [fn]


def test_the_harmonic_route_polygamma_bounds_hold():
    """psi'(y) > 1/y + 1/(2y^2) and -psi''(y) < 1/y^2 + 1/y^3 + 1/(2y^4), the
    two bounds behind mid_k increasing for c >= -1/2, at 200 bits on
    y in [3/2, 10^6]: every half-integer to 50, then a geometric grid."""
    ys = [Fraction(j, 2) for j in range(3, 101)]
    ys += [Fraction(round(50 * 20_000 ** (i / 200) * 64), 64) for i in range(1, 201)]
    with mpmath.workprec(200):
        for y in ys:
            y = mpmath.mpf(y.numerator) / y.denominator
            assert mpmath.psi(1, y) > 1 / y + 1 / (2 * y**2)
            assert -mpmath.psi(2, y) < 1 / y**2 + 1 / y**3 + 1 / (2 * y**4)


def _bisection(uncleared, lo, hi):
    """The one-point bisection that ``conditions._boundary`` replaced."""
    while hi - lo > 1:
        probe = (lo + hi) // 2
        if uncleared(np.array([probe]))[0]:
            hi = probe
        else:
            lo = probe
    return hi


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 2**17), st.data())
def test_boundary_search_matches_the_bisection(hi, data):
    """On a predicate that fails below a threshold t and holds from t on, the
    k-ary search and the bisection both return t, the search in at most 3
    calls for hi - lo < 65^3."""
    lo = data.draw(st.integers(0, hi - 1))
    t = data.draw(st.integers(lo + 1, hi))
    calls = []

    def uncleared(a):
        calls.append(len(a))
        assert len(a) <= 64 and np.all((lo < a) & (a < hi))
        return a >= t

    assert conditions._boundary(uncleared, lo, hi) == t
    assert len(calls) <= 3
    assert _bisection(lambda a: a >= t, lo, hi) == t


# the monotone C3b route's families: harmonic c in [-1/2, 3], pmean p in +-(0, 3]
_MONOTONE_FAMILIES = st.one_of(
    st.builds(ModHarmonic, _HARMONIC_SHIFTS),
    st.builds(
        lambda p, sign: functions.PMean(sign * p),
        st.fractions(min_value=0, max_value=3, max_denominator=8).filter(bool),
        st.sampled_from([1, -1]),
    ),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    _MONOTONE_FAMILIES,
    st.integers(2, 6),
    st.one_of(st.integers(0, 17).flatmap(lambda e: st.integers(1, 2**e)), st.just(2**17)),
)
@example(ModHarmonic(Fraction(907, 2048)), 3, 2**17)
@example(ModHarmonic(Fraction(1813, 4096)), 6, 2**17)
@example(functions.PMean(-3), 6, 2**17)
def test_monotone_c3b_suspects_match_the_bisection(fn, k_max, a_max):
    """The k-ary search yields the suspects the one-point bisection yields (the
    first 20,000 of them), and a row not cleared at a_max makes at most 4
    float calls from its search to its first suffix suspect."""
    bounds = Bounds(k_max=k_max, a_max=a_max)
    calls, started, per_row = [0], [], []
    approx_array, search = type(fn).approx_array, conditions._boundary

    def counted(self, xs):
        calls[0] += 1
        return approx_array(self, xs)

    def searching(uncleared, lo, hi):
        started.append(calls[0])
        return search(uncleared, lo, hi)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(type(fn), "approx_array", counted)
        patch.setattr(conditions, "_boundary", searching)
        searched = []
        for witness in itertools.islice(conditions._suspects_c3b(fn, bounds), 20_000):
            searched.append(witness)
            if len(started) > len(per_row):  # the first suspect after a search
                per_row.append(calls[0] - started[-1])
        patch.setattr(conditions, "_boundary", _bisection)
        bisected = list(itertools.islice(conditions._suspects_c3b(fn, bounds), 20_000))
    assert searched == bisected
    assert all(n <= 4 for n in per_row), per_row


def test_the_monotone_route_ends_a_row_leading_run(monkeypatch):
    """With a margin of 0.1, pmean:1/2 leaves row 0's chain uncleared at a = 1
    and cleared at a = 2, which ends that row's leading run.  The monotone
    route's suspects are a subset of the scan's, in the same order."""
    monkeypatch.setattr(conditions, "_margin", lambda *args: 0.1)
    fn, bounds = parse_welfare("pmean:1/2"), Bounds(k_max=3, a_max=50)
    monotone = list(conditions._monotone_c3b(fn, bounds))
    scan = list(conditions._scan_c3b(fn, bounds))
    assert monotone[0] == scan[0] == {"k": 0, "a": 1} and {"k": 0, "a": 2} not in scan
    remaining = iter(scan)
    assert all(witness in remaining for witness in monotone)


@pytest.mark.parametrize("bounds", [Bounds(k_max=3, a_max=1), Bounds()])
def test_a_table_near_10_8_keeps_its_first_c4_witness(bounds):
    """The slope is constant on [1, 3], so Delta_1(1) = Delta_2(1) and C4
    fails first at k = 1.  One rounding of an f near 10^8 passes an absolute
    margin of 1e-9, so the margin grows with the largest |f| the scan reads."""
    fn = PiecewiseTable([0, 1, 3], [Fraction(2 * 10**8, 3), Fraction(10**8, 3), Fraction(10**8, 6)])
    report = check_condition(fn, ConditionId.C4, bounds)
    assert (report.verdict, report.witness) == (VIOLATED, {"k": 1})


@st.composite
def _steep_tables(draw):
    """A table on integer breakpoints below 20, its slopes flat or of one
    magnitude 10^e, so that its values reach about 10^15."""
    breakpoints = [0] + sorted(draw(st.sets(st.integers(1, 19), max_size=3)))
    e = draw(st.integers(0, 13))
    numerators = st.one_of(st.just(0), st.integers(10**e, 10 ** (e + 1)))
    slopes = st.builds(Fraction, numerators, st.sampled_from([1, 3, 7, 11, 13]))
    return PiecewiseTable(breakpoints, draw(st.lists(slopes, min_size=len(breakpoints), max_size=len(breakpoints))))


_STEEP_WEIGHTS = st.builds(Fraction, st.integers(1, 10**12), st.sampled_from([1, 3, 7]))
_SCREENED = [
    ConditionId.C1, ConditionId.C3, ConditionId.C3A, ConditionId.C4, ConditionId.C5, ConditionId.C6A, ConditionId.C6B
]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.one_of(
        _steep_tables(),
        st.lists(st.tuples(_STEEP_WEIGHTS, _steep_tables()), min_size=1, max_size=2).map(LinearCombo),
    ),
    st.sampled_from([SMALL_GRID[:6], NON_DYADIC_GRID]),
)
def test_float_prescreens_agree_with_the_exact_loop_on_large_values(fn, grid):
    """With ``_margin`` at +inf every tuple is a suspect, which is the exact
    loop over the box; each prescreen reports the same verdict and witness."""
    bounds = Bounds(k_max=3, a_max=3, real_grid=grid)
    screened = [check_condition(fn, cond, bounds) for cond in _SCREENED]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conditions, "_margin", lambda *args: math.inf)
        exact = [check_condition(fn, cond, bounds) for cond in _SCREENED]
    assert [(r.verdict, r.witness) for r in screened] == [(r.verdict, r.witness) for r in exact]


def test_a_violated_check_evaluates_its_witness_once(monkeypatch):
    """harmonic:-3/4 violates C6a at its first suspect: two increments, one
    per side, serve both the confirmation and the report."""
    calls = []

    def counted(fn, lo, hi):
        calls.append((lo, hi))
        return increment(fn, lo, hi)

    monkeypatch.setattr(functions, "increment", counted)
    monkeypatch.setattr(conditions, "increment", counted)
    report = check_condition(parse_welfare("harmonic:-3/4"), ConditionId.C6A, Bounds())
    assert report.verdict == VIOLATED
    assert len(calls) == 2


def test_a_c3b_witness_sums_its_middle_term_once(monkeypatch):
    fn = parse_welfare("harmonic:1")
    windows = []
    range_sum = ModHarmonic.range_sum

    def counted(self, lo, hi):
        windows.append((lo, hi))
        return range_sum(self, lo, hi)

    monkeypatch.setattr(ModHarmonic, "range_sum", counted)
    report = check_condition(fn, ConditionId.C3B, Bounds())
    assert report.verdict == VIOLATED
    k, a = report.witness["k"], report.witness["a"]
    # mid = h((k+2)a) - h((k+1)a), the terms (k+1)a + 1 .. (k+2)a
    assert windows.count(((k + 1) * a + 1, (k + 2) * a)) == 1
    # Near 1/log 2 - 1 the middle window has 5,574 terms: its two bounds
    # decide the check, and only the rendered report sums it, once.
    windows.clear()
    report = check_condition(parse_welfare("harmonic:907/2048"), ConditionId.C3B, _NEAR_THRESHOLD_BOX)
    assert (report.verdict, report.witness) == (VIOLATED, {"k": 0, "a": 5574})
    assert _NEAR_THRESHOLD_MIDDLE not in windows
    rendered = report.to_json_dict()
    assert report.to_json_dict() == rendered == _NEAR_THRESHOLD_REPORT
    assert windows.count(_NEAR_THRESHOLD_MIDDLE) == 1


_NEAR_THRESHOLD_BOX = Bounds(k_max=3, a_max=51_200)
_NEAR_THRESHOLD_MIDDLE = (5575, 11148)  # mid_0(5574) = h(11148) - h(5574)
_NEAR_THRESHOLD_REPORT = {
    "condition": "C3b",
    "verdict": VIOLATED,
    "bounds": {"k_max": 3, "a_max": 51_200},
    "witness": {"k": 0, "a": 5574},
    "lhs": {"kind": "rational", "value": "2048/2955"},
    "rhs": {"kind": "exact", "decimal": "0.693062612682373356573091589855"},
}


def test_a_near_tie_takes_the_exact_route(monkeypatch):
    """Bounds that straddle the other operand decide nothing: the window is
    summed during the check, and verdict and report are the exact route's."""
    windows = []
    range_sum = ModHarmonic.range_sum

    def counted(self, lo, hi):
        windows.append((lo, hi))
        return range_sum(self, lo, hi)

    # 0 < mid_0(5574) < 2, and both 2048/2955 and 1/(3 + c) lie in between
    wide = (ExactValue.from_rational(0), ExactValue.from_rational(2))
    monkeypatch.setattr(ModHarmonic, "range_sum", counted)
    monkeypatch.setattr(ModHarmonic, "range_bounds", lambda self, lo, hi: wide)
    report = check_condition(parse_welfare("harmonic:907/2048"), ConditionId.C3B, _NEAR_THRESHOLD_BOX)
    assert windows.count(_NEAR_THRESHOLD_MIDDLE) == 1
    assert report.to_json_dict() == _NEAR_THRESHOLD_REPORT
    assert windows.count(_NEAR_THRESHOLD_MIDDLE) == 1


def _counted_compare(monkeypatch):
    """Replace the comparator conditions uses by one that logs its operands."""
    calls = []

    def counted(lhs, rhs, policy=None):
        calls.append((lhs, rhs))
        return compare(lhs, rhs, policy)

    monkeypatch.setattr(conditions, "compare", counted)
    return calls


@pytest.mark.parametrize(
    "spec, cond, bounds",
    [
        ("modlog:2", ConditionId.C3B, Bounds()),
        ("harmonic:-3/4", ConditionId.C6A, Bounds()),
        ("harmonic:907/2048", ConditionId.C3B, Bounds(k_max=3, a_max=51_200)),
    ],
)
def test_a_confirmed_witness_is_compared_once(spec, cond, bounds, monkeypatch):
    """The verdict of violates and the report's failing pair come from one comparison."""
    calls = _counted_compare(monkeypatch)
    report = check_condition(parse_welfare(spec), cond, bounds)
    assert report.verdict == VIOLATED
    assert sum(l is report.lhs and r is report.rhs for l, r in calls) == 1


def test_condition_inequalities_reads_the_current_evaluation(monkeypatch):
    fn, witness = parse_welfare("modlog:2"), {"k": 1, "a": 2, "b": 3}
    before = conditions.condition_inequalities(fn, ConditionId.C3, witness)
    monkeypatch.setattr(conditions, "delta", lambda fn, k, x: (k, x))
    after = conditions.condition_inequalities(fn, ConditionId.C3, witness)
    assert before != after == [((1, 3), (2, 2))]


def test_violates_evaluates_every_call(monkeypatch):
    """No verdict outlives its call: a direct violates after check_condition,
    or twice on one tuple, compares again."""
    fn = parse_welfare("modlog:2")
    report = check_condition(fn, ConditionId.C3B)
    calls = _counted_compare(monkeypatch)
    assert violates(fn, ConditionId.C3B, report.witness, Bounds().policy) is True
    assert violates(fn, ConditionId.C3B, report.witness, Bounds().policy) is True
    assert len(calls) == 2


def _c1a_exact_loop(fn, bounds):
    """C1a's exact prescreen for every family: each Delta_k(y) against Delta_k
    at the least grid point."""
    grid = sorted(bounds.real_grid)
    for k in range(1, bounds.k_max + 1):
        first = conditions.delta(fn, k, grid[0])
        for y in grid[1:]:
            if compare(first, conditions.delta(fn, k, y), bounds.policy).relation is not Relation.EQUAL:
                yield {"k": k, "x": grid[0], "y": y}


_GRID_POINTS = st.one_of(
    st.integers(1, 12).map(lambda j: Fraction(j, 4)),  # repeats often
    st.fractions(min_value=Fraction(1, 16), max_value=10, max_denominator=16),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.one_of(st.just(Fraction(0)), st.fractions(min_value=0, max_value=5, max_denominator=12).filter(bool)),
    st.lists(_GRID_POINTS, min_size=1, max_size=12),
    st.integers(2, 12),
)
@example(Fraction(1, 3), [Fraction(2), Fraction(2), Fraction(1, 2), Fraction(1, 2)], 2)
def test_c1a_closed_form_matches_the_exact_loop(c, grid, k_max):
    """For shifted logs, pmean:0 and a positive combination of one shift the
    closed form reports what the exact loop reports, and on two or more
    distinct points agrees with analytic_verdict."""
    bounds = Bounds(k_max=k_max, real_grid=tuple(grid))
    one_shift = LinearCombo([(2, ModLog(c)), (Fraction(1, 3), ModLog(c))])
    for fn in [ModLog(c), one_shift] + ([Log(), PMean(0)] if c == 0 else []):
        closed = check_condition(fn, ConditionId.C1A, bounds).to_json_dict()
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(conditions._SUSPECTS, ConditionId.C1A, _c1a_exact_loop)
            assert check_condition(fn, ConditionId.C1A, bounds).to_json_dict() == closed
        if len(set(grid)) >= 2:
            assert (closed["verdict"] == NO_VIOLATION) is analytic_verdict(fn, ConditionId.C1A)


@pytest.mark.parametrize("spec", ["log", "pmean:0", "modlog:1/3", "harmonic:0"])
@pytest.mark.parametrize("grid", [(Fraction(0),), (Fraction(1), Fraction(0), Fraction(1, 2))])
def test_c1a_on_a_grid_holding_zero_raises(spec, grid):
    with pytest.raises(ValueError, match="argument must be positive"):
        check_condition(parse_welfare(spec), ConditionId.C1A, Bounds(real_grid=grid))


@pytest.mark.parametrize("spec", ["harmonic:0", "harmonic:-3/4"])
def test_c1a_builds_each_increment_once(spec, monkeypatch):
    """Violated at (1, 1/4, 1/2): one value_at call per end of Delta_1(1/4) and
    Delta_1(1/2), so neither increment is built twice."""
    calls = []
    value_at = ModHarmonic.value_at

    def counted(fn, x, *bits):
        calls.append(x)
        return value_at(fn, x, *bits)

    monkeypatch.setattr(ModHarmonic, "value_at", counted)
    report = check_condition(parse_welfare(spec), ConditionId.C1A, Bounds())
    assert report.witness == {"k": 1, "x": Fraction(1, 4), "y": Fraction(1, 2)}
    assert len(calls) == 4


@pytest.mark.parametrize("spec", ["log", "pmean:0", "combo:1*log+2*log"])
def test_log_c1a_reads_no_value(spec, monkeypatch):
    """Delta_k is constant for log (and w*log + b): C1a builds and compares no increment."""
    monkeypatch.setattr(conditions, "delta", None)
    monkeypatch.setattr(conditions, "compare", None)
    grid = tuple(Fraction(j, 8) for j in range(1, 401))
    assert check_condition(parse_welfare(spec), ConditionId.C1A, Bounds(real_grid=grid)).verdict == NO_VIOLATION


@pytest.mark.parametrize("cond", list(ConditionId))
def test_log_and_zero_shift_log_agree(cond):
    # Log is ModLog(0) under another label: same reports, same closed forms
    bounds = Bounds(k_max=3, a_max=5, real_grid=SIX_POINTS)
    log, shifted = check_condition(Log(), cond, bounds), check_condition(ModLog(0), cond, bounds)
    assert log.to_json_dict() == shifted.to_json_dict()
    assert analytic_verdict(Log(), cond) == analytic_verdict(ModLog(0), cond)


class TestAnalyticVerdicts:
    def test_stated_examples(self):
        assert analytic_verdict(parse_welfare("modlog:2"), ConditionId.C3) is False
        assert analytic_verdict(parse_welfare("harmonic:-1"), ConditionId.C5) is True
        assert analytic_verdict(parse_welfare("pmean:0"), ConditionId.C4) is True

    def test_threshold_families(self):
        assert analytic_verdict(parse_welfare("modlog:1"), ConditionId.C3B) is True
        assert analytic_verdict(parse_welfare("harmonic:2/5"), ConditionId.C3B) is True
        assert analytic_verdict(parse_welfare("harmonic:1/2"), ConditionId.C3B) is False
        assert analytic_verdict(parse_welfare("harmonic:-3/4"), ConditionId.C6A) is False
        assert analytic_verdict(parse_welfare("pmean:1/2"), ConditionId.C4) is True
        assert analytic_verdict(parse_welfare("pmean:1"), ConditionId.C4) is False

    def test_the_harmonic_threshold_needs_a_decided_comparison(self, monkeypatch):
        # 1 + c = 10171/7050, a convergent of 1/log 2: (1 + c) log 2 = 1 - 3.8e-9,
        # which a 1-bit ceiling (25 working bits) cannot order
        c = Fraction(3121, 7050)
        assert analytic_verdict(ModHarmonic(c), ConditionId.C3) is True
        monkeypatch.setenv(PRECISION_CEILING_ENV, "1")
        with pytest.raises(RuntimeError, match="precision ceiling"):
            analytic_verdict(ModHarmonic(c), ConditionId.C3)

    def test_a_dyadic_shift_forms_no_large_power(self, monkeypatch):
        # (1 + c) log 2 - 1 at c = k/2**40 holds one log term, whose sign comes from its
        # weight and base: no power 2**(2**40 + k) is formed
        power = Fraction.__pow__

        def bounded(base, exponent, *args):
            assert abs(exponent) <= 2**20, "a power past 2**20 was formed"
            return power(base, exponent, *args)

        monkeypatch.setattr(Fraction, "__pow__", bounded)
        assert analytic_verdict(ModHarmonic(Fraction(486750026453, 2**40)), ConditionId.C3) is False

    def test_uncovered_pairs_are_none(self):
        assert analytic_verdict(parse_welfare("harmonic:0"), ConditionId.C6A) is None
        assert (
            analytic_verdict(parse_welfare("combo:1*pmean:0+40*pmean:-1"), ConditionId.C3)
            is None
        )

    @pytest.mark.parametrize("spec", BATTERY + ["combo:1*log+2*log", "combo:1*modlog:2+3*modlog:2"])
    def test_never_contradicts_bounded_checks(self, spec):
        real = {ConditionId.C1, ConditionId.C1A, ConditionId.C2}
        fn = parse_welfare(spec)
        bounds = Bounds(k_max=6, a_max=6, real_grid=SMALL_GRID)
        for cond in ConditionId:
            stated = analytic_verdict(fn, cond)
            if stated is True:
                assert check_condition(fn, cond, bounds).verdict == NO_VIOLATION, (spec, cond)
            elif stated is False:
                if cond in real:
                    # grid refutation suffices for every studied family
                    report = check_condition(fn, cond, bounds)
                else:
                    # integer witnesses may need grown bounds
                    report = find_witness_adaptive(fn, cond, bounds, a_cap=1 << 12)
                assert report.verdict == VIOLATED, (spec, cond)


def _reference_verdict(fn, cond):
    """analytic_verdict's per-family table as it read before the families
    declared their log shift, kept as a reference implementation; the
    harmonic threshold c <= 1/log 2 - 1 is decided in mpmath at 200 bits."""
    integer_chain = {ConditionId.C3, ConditionId.C3A, ConditionId.C3B, ConditionId.C5}
    general_chain = {ConditionId.C6A, ConditionId.C6B}
    if isinstance(fn, ModLog):
        if fn.c == 0:
            return True
        in_chain = fn.c <= 1
        if cond in integer_chain or cond in general_chain:
            return in_chain
        if cond is ConditionId.C4:
            return True if in_chain else None
        if cond in {ConditionId.C1, ConditionId.C1A, ConditionId.C2}:
            return False
        return None
    if isinstance(fn, ModHarmonic):
        with mpmath.workprec(200):
            below = bool((1 + mpmath.mpf(fn.c.numerator) / fn.c.denominator) * mpmath.log(2) < 1)
        if cond in integer_chain:
            return below
        if cond in general_chain:
            if fn.c < Fraction(-1, 2):
                return False
            if not below:
                return False
            return None
        if cond is ConditionId.C4:
            return True if below else None
        if cond is ConditionId.C2 and fn.c > -1:
            return False
        return None
    if isinstance(fn, PMean):
        if fn.p == 0:
            return True
        if cond is ConditionId.C4:
            return fn.p < 1
        if cond in integer_chain or cond in general_chain:
            return False
        if cond in {ConditionId.C1, ConditionId.C1A}:
            return False
        if cond is ConditionId.C2:
            if fn.p < 0:
                return True
            if fn.p >= 1:
                return False
            return None
    return None


@st.composite
def _one_shift_combos(draw):
    """A positive combination of 1-3 shifted logs that share one shift c."""
    c = draw(st.one_of(st.just(Fraction(0)), st.fractions(min_value=0, max_value=3, max_denominator=64)))
    terms = st.sampled_from([ModLog(c)] + ([Log(), PMean(0)] if c == 0 else []))
    weights = st.fractions(min_value=Fraction(1, 64), max_value=8, max_denominator=64)
    return LinearCombo(draw(st.lists(st.tuples(weights, terms), min_size=1, max_size=3)))


@st.composite
def _tables(draw):
    steps = draw(st.lists(st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8), max_size=4))
    breakpoints = [sum(steps[:i], Fraction(0)) for i in range(len(steps) + 1)]
    slopes = st.fractions(min_value=0, max_value=4, max_denominator=8)
    return PiecewiseTable(breakpoints, draw(st.lists(slopes, min_size=len(breakpoints), max_size=len(breakpoints))))


_DRAWN_FAMILIES = st.one_of(
    st.just(Log()),
    st.builds(ModLog, st.fractions(min_value=0, max_value=3, max_denominator=64)),
    st.builds(
        ModHarmonic,
        st.one_of(
            # the criterion-6 bracket around 1/log 2 - 1, and the ends of the range
            st.sampled_from([Fraction(7253, 16384), Fraction(3627, 8192), Fraction(-1), Fraction(-1, 2)]),
            st.fractions(min_value=-1, max_value=3, max_denominator=64),
        ),
    ),
    st.builds(PMean, st.fractions(min_value=-3, max_value=3, max_denominator=64)),
    _one_shift_combos(),
    _tables(),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_DRAWN_FAMILIES)
@example(ModLog(0))
@example(ModLog(1))
@example(PMean(0))
@example(PMean(1))
@example(LinearCombo([(1, Log()), (2, PMean(0))]))
@example(PiecewiseTable([0, 1], [1, 0]))
def test_analytic_verdict_matches_the_per_family_table(fn):
    # a combination of one shift c reads the ModLog(c) row; a table has no row
    row = ModLog(fn.log_shift) if isinstance(fn, LinearCombo) else fn
    for cond in ConditionId:
        assert analytic_verdict(fn, cond) is _reference_verdict(row, cond), (fn, cond)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_DRAWN_FAMILIES)
def test_analytic_verdicts_respect_every_arrow(fn):
    """A verdict that holds carries to the weaker condition of each arrow, and
    one that fails to the stronger: no declared fact contradicts the graph."""
    assert set(fn.closed_forms()) <= {cond.value for cond in ConditionId}
    verdicts = {cond: analytic_verdict(fn, cond) for cond in ConditionId}
    for stronger, weaker, _ in conditions.IMPLICATIONS:
        if verdicts[stronger] is True:
            assert verdicts[weaker] is True, (fn, stronger, weaker)
        if verdicts[weaker] is False:
            assert verdicts[stronger] is False, (fn, stronger, weaker)


def test_conditions_names_no_family_class():
    classes = [v for v in vars(conditions).values() if isinstance(v, type) and issubclass(v, WelfareFunction)]
    assert classes == [WelfareFunction]


class TestImplicationScan:
    @pytest.mark.parametrize("spec", BATTERY)
    def test_battery_is_consistent(self, spec):
        report = implication_scan(
            parse_welfare(spec), Bounds(k_max=8, a_max=8, real_grid=SMALL_GRID)
        )
        assert report.consistent, report.inconsistencies

    def test_synthetic_inconsistency_is_flagged(self):
        # a checker that "missed" the C3 witness implied by a real C4 violation
        fn = parse_welfare("pmean:1")
        bounds = Bounds(k_max=6, a_max=6)
        forged = {
            ConditionId.C4: check_condition(fn, ConditionId.C4, bounds),
            ConditionId.C3: ConditionReport(ConditionId.C3, NO_VIOLATION, bounds),
        }
        assert forged[ConditionId.C4].verdict == VIOLATED
        inconsistencies, _notes = find_arrow_inconsistencies(fn, forged, bounds)
        assert inconsistencies
        assert inconsistencies[0]["weaker"] == "C4" and inconsistencies[0]["stronger"] == "C3"

    @pytest.mark.parametrize(
        "stronger,weaker,transfer",
        conditions.IMPLICATIONS,
        ids=[f"{weaker.value}->{stronger.value}" for stronger, weaker, _ in conditions.IMPLICATIONS],
    )
    def test_each_arrow_transfers_its_witness(self, stronger, weaker, transfer):
        """The weaker condition's witness maps to a tuple that violates the
        stronger one (modlog:2 holds C4, so that arrow takes the linear pmean:1)."""
        fn = parse_welfare("pmean:1" if weaker is ConditionId.C4 else "modlog:2")
        report = check_condition(fn, weaker, Bounds(k_max=6, a_max=8))
        assert report.verdict == VIOLATED
        assert any(violates(fn, stronger, candidate) is True for candidate in transfer(report.witness))

    @pytest.mark.parametrize("k_max", [6, 4])
    def test_a_planted_miss_is_flagged_inside_the_bounds_and_noted_outside(self, k_max):
        # pmean:1 is linear, so C4 fails at every k; k = 5 transfers to the C3 tuple (5, 1, 1)
        fn = parse_welfare("pmean:1")
        bounds = Bounds(k_max=k_max, a_max=6)
        planted = {
            ConditionId.C4: ConditionReport(ConditionId.C4, VIOLATED, bounds, {"k": 5}),
            ConditionId.C3: ConditionReport(ConditionId.C3, NO_VIOLATION, bounds),
        }
        inconsistencies, notes = find_arrow_inconsistencies(fn, planted, bounds)
        missed = {"k": 5, "a": 1, "b": 1}
        if k_max >= 5:
            flagged = {"stronger": "C3", "weaker": "C4", "weak_witness": {"k": 5}, "missed_witness": missed}
            assert inconsistencies == (flagged,)
            assert notes == ()
        else:
            assert inconsistencies == ()
            assert notes == (f"C4 violation implies a C3 witness beyond the shared bounds: {missed}",)

    def test_a_witness_that_transfers_to_nothing_is_noted(self):
        # C3 at b, a > 1 maps to no C3b tuple
        fn = parse_welfare("pmean:1")
        bounds = Bounds(k_max=6, a_max=6)
        witness = {"k": 1, "a": 2, "b": 2}
        planted = {
            ConditionId.C3: ConditionReport(ConditionId.C3, VIOLATED, bounds, witness),
            ConditionId.C3B: ConditionReport(ConditionId.C3B, NO_VIOLATION, bounds),
        }
        note = f"C3 Violated but no C3b witness transferred from {witness}"
        assert find_arrow_inconsistencies(fn, planted, bounds) == ((), (note,))

    def test_weaker_may_hold_when_stronger_fails(self):
        reports = implication_scan(
            parse_welfare("pmean:1/2"), Bounds(k_max=6, a_max=6, real_grid=SMALL_GRID)
        )
        assert reports.reports[ConditionId.C3].verdict == VIOLATED
        assert reports.reports[ConditionId.C4].verdict == NO_VIOLATION
        assert reports.consistent


class TestThresholdBisect:
    def test_shifted_log_bracket(self):
        lo, hi = threshold_bisect(
            "modlog",
            ConditionId.C3B,
            Fraction(1, 2),
            Fraction(2),
            Bounds(k_max=3, a_max=25),
            iters=12,
            a_cap=1 << 15,
        )
        assert (lo, hi) == (Fraction(8191, 8192), Fraction(4097, 4096))

    def test_harmonic_bracket(self):
        # the threshold 1/log 2 - 1 = 0.4427 lies inside
        lo, hi = threshold_bisect(
            "harmonic",
            ConditionId.C3B,
            Fraction(0),
            Fraction(1),
            Bounds(k_max=3, a_max=25),
            iters=10,
            a_cap=1 << 14,
        )
        assert (lo, hi) == (Fraction(453, 1024), Fraction(227, 512))

    def test_requires_differing_verdicts(self):
        with pytest.raises(ValueError):
            threshold_bisect(
                "modlog",
                ConditionId.C3B,
                Fraction(1, 4),
                Fraction(1, 2),
                Bounds(k_max=3, a_max=25),
                iters=4,
            )

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            threshold_bisect("pmean", ConditionId.C4, 0, 1)


class TestGrowthEnvelope:
    def test_harmonic_exact_window(self):
        fn = parse_welfare("harmonic:0")
        lo, hi = marginal_growth_envelope(fn, 10**4)
        # x * (h(x+1)-h(x)) = x/(x+1), rising from 1/2
        assert lo == Fraction(1, 2)
        assert hi == Fraction(10**4, 10**4 + 1)
        assert lo >= Fraction(1, 3)  # f(3) - f(2)
        assert hi <= 9 * Fraction(1, 2)  # 9 (f(2) - f(1))

    def test_log_window_inside_proof_constants(self):
        from welfarist.functions import increment
        fn = parse_welfare("log")
        lo, hi = marginal_growth_envelope(fn, 10**4)
        assert compare(increment(fn, 2, 3), lo).relation is Relation.LESS
        nine_upper = increment(fn, 1, 2).scale(9)
        assert compare(hi, nine_upper).relation is Relation.LESS

    def test_sqrt_mean_escapes_any_constant(self):
        from welfarist.functions import increment
        fn = parse_welfare("pmean:1/2")
        _lo, hi = marginal_growth_envelope(fn, 200)
        nine_upper = increment(fn, 1, 2).scale(9)
        assert compare(hi, nine_upper).relation is Relation.GREATER


def test_numeric_lemma_suite_passes():
    report = numeric_lemma_suite()
    assert report.passed
    names = [c.name for c in report.checks]
    assert "offset_limit_minus_half" in names and "offset_strictly_increasing" in names


# sha256 of the condition dump; some of its rendered interval ends come from
# enclosures built at 53 bits (ROADMAP item 1), so the fix for those changes it
CONDITION_DUMP_SHA256 = "4740549137ab81ad30656179f28f25ea2f75b55323a4c6875b9f014120d4105d"


def test_condition_report_dump_is_pinned(tmp_path):
    """The 1,260-report dump whose recipe BENCH_13.json records (18 functions
    x 7 boxes x 10 conditions) reproduces byte for byte."""
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCH_13.json").read_text())
    recipe = bench["condition_reports"]
    out = tmp_path / "reports.jsonl"
    package_root = str(Path(conditions.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")]))
    env.pop(PRECISION_CEILING_ENV, None)
    script = "\n".join(recipe["script"])
    subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True)
    assert len(out.read_text().splitlines()) == recipe["lines"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CONDITION_DUMP_SHA256
