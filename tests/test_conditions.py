"""Bounded condition checks, analytic verdicts, implication harness, bisection."""

import itertools
from fractions import Fraction

import pytest

from welfarist import conditions
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
from welfarist.functions import parse_welfare
from welfarist.values import Relation, compare

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
        """pmean:1/2 violates at (k, a) = (1, 2) and first at (0, 6): suspects at
        k >= 1 in an early chunk must wait for k = 0 in the later chunks."""
        fn = parse_welfare(spec)
        bounds = Bounds(k_max=3, a_max=60)
        whole = check_condition(fn, ConditionId.C3B, bounds).to_json_dict()
        monkeypatch.setattr(conditions, "_C3B_CHUNK", 2)
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
    "spec", ["harmonic:1", "harmonic:0", "pmean:1/2", "pmean:-1", "modlog:2", "log"]
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
    for bounds in boxes:
        direct = next(
            ((w, True) for w in _direct_tuples(cond, bounds) if violates(fn, cond, w)),
            (None, False),
        )
        report = check_condition(fn, cond, bounds)
        assert (report.verdict == VIOLATED) == direct[1], bounds.real_grid
        if direct[1]:
            assert report.witness == direct[0], bounds.real_grid


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

    def test_uncovered_pairs_are_none(self):
        assert analytic_verdict(parse_welfare("harmonic:0"), ConditionId.C6A) is None
        assert (
            analytic_verdict(parse_welfare("combo:1*pmean:0+40*pmean:-1"), ConditionId.C3)
            is None
        )

    @pytest.mark.parametrize("spec", BATTERY)
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
