"""Seeded workloads of the welfarist benchmark.

A workload turns a seed into a sequence of rounds, each a fixed list of
items with the workload's full mix.  An item is one call into
the public ``welfarist`` API (the part timed) plus the checks made on its
output afterwards (untimed):

* when the item has an entry in ``reference.json`` (items of the reference
  seed, and the warm-up items every run starts with), its summarized output
  must match the entry;
* on every seed, invariants that hold for any input must hold.

Library functions are always looked up through their module at call time
(``solver.enumerate_maximizers``), so that the tracer can wrap them from
outside without touching ``src/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction
from math import lcm

import mpmath

from welfarist import campaigns, cli, conditions, fairness, functions, model, quadrature, solver, values
from welfarist.values import Relation

REFERENCE_SEED = 1  # the seed whose outputs reference.json stores

# -- item protocol -------------------------------------------------------------


class Item:
    """One timed call.  ``prepare`` and ``check`` run outside the timed region.

    ``state`` is shared by the items of one instance, so that a later item can
    use an earlier item's output (the Pareto check uses the first maximizer
    printed by the CLI).
    """

    __slots__ = ("key", "kind", "group", "state", "call", "args")

    def __init__(self, key, kind, group, call, args=(), state=None):
        self.key = key
        self.kind = kind
        self.group = group
        self.call = call
        self.args = args
        self.state = state if state is not None else {}


class Outcome:
    """Result of checking one item: decided or not, and any error found."""

    __slots__ = ("decided", "error", "summary")

    def __init__(self, decided, error, summary):
        self.decided = decided
        self.error = error
        self.summary = summary


def _digest(strings) -> str:
    return hashlib.sha256("\n".join(strings).encode()).hexdigest()[:16]


def _assignments(allocations) -> list[str]:
    return ["".join(str(agent) for agent in alloc.assignment) for alloc in allocations]


# -- welfare comparison helpers (used by the checks only) -----------------------


def _same_welfare(a, b) -> bool:
    """Exact equality of two welfare values; overlapping enclosures count as equal."""
    rel = values.compare(a, b).relation
    if rel is Relation.EQUAL:
        return True
    return rel is Relation.INCONCLUSIVE and (
        isinstance(a, values.IntervalValue) or isinstance(b, values.IntervalValue)
    )


def _rendered_equal(ref: dict, got: dict) -> bool:
    """Compare two ``render_value`` dicts: exact kinds exactly, decimals to 1e-20."""
    if ref == got:
        return True
    bounds = []
    for doc in (ref, got):
        if doc.get("kind") == "exact":
            x = Fraction(doc["decimal"])
            bounds.append((x, x))
        elif doc.get("kind") == "interval":
            bounds.append((Fraction(doc["lo"]), Fraction(doc["hi"])))
        else:
            return False
    (lo1, hi1), (lo2, hi2) = bounds
    slack = Fraction(1, 10**20) * max(1, abs(lo1), abs(lo2))
    return lo1 - slack <= hi2 and lo2 - slack <= hi1


_LABEL_RANK = {"Inconclusive": 0, "IntervalCertified": 1, "Exact": 2}


def _argmax_matches(ref: dict, got: dict) -> str | None:
    """Reference check of an argmax summary.

    The label may only improve: an ``IntervalCertified`` set may become
    ``Exact`` with the same members, and an ``Inconclusive`` superset may be
    narrowed to a decided subset.  Anything else must match exactly.
    """
    if _LABEL_RANK[got["x"]] < _LABEL_RANK[ref["x"]]:
        return f"label {got['x']} worse than reference {ref['x']}"
    if ref["x"] == "Inconclusive" and got["x"] != "Inconclusive":
        if not got["argmax"] or not set(got["argmax"]) <= set(ref["argmax"]):
            return "decided argmax set is not inside the reference superset"
        return None
    if (got["c"], got["h"]) != (ref["c"], ref["h"]):
        return f"argmax set differs: {got['c']} members vs {ref['c']}"
    if not _rendered_equal(ref["w"], got["w"]):
        return f"welfare {got['w']} vs reference {ref['w']}"
    for field in ("ef1", "code"):
        if field in ref and ref[field] != got.get(field):
            return f"{field} {got.get(field)} vs reference {ref[field]}"
    return None


def _argmax_summary(maxima) -> dict:
    argmax = _assignments(maxima.allocations)
    return {
        "x": maxima.exactness.kind,
        "c": len(argmax),
        "h": _digest(argmax),
        "w": values.render_value(maxima.welfare),
        "argmax": argmax,
    }


def stored(summary: dict) -> dict:
    """The part of a summary kept in reference.json (full sets only when needed)."""
    out = dict(summary)
    if "argmax" in out and out.get("x") != "Inconclusive":
        del out["argmax"]
    return out


def distinct_vectors(inst) -> int:
    """Number of distinct utility vectors over all n**m assignments (set DP over goods)."""
    den = lcm(*(u.denominator for row in inst.utilities for u in row)) if inst.m else 1
    vectors = {(0,) * inst.n}
    for g in range(inst.m):
        col = [int(inst.utilities[i][g] * den) for i in range(inst.n)]
        vectors = {v[:i] + (v[i] + col[i],) + v[i + 1:] for v in vectors for i in range(inst.n)}
    return len(vectors)


# -- campaign --------------------------------------------------------------------
#
# Many small instances, one item per (instance, rule): the argmax set and an EF1
# check of every maximizer.  Binary, two-value and identical-good classes repeat
# utility vectors heavily (the high-duplication side).  pmean:1/3 on binary
# keeps the known symmetric-tie Inconclusive defect visible.

CAMPAIGN_SHAPES = [(2, m) for m in range(2, 8)] + [(3, m) for m in range(3, 8)]
CAMPAIGN_MAX_VALUE = 5


def campaign_pairs() -> list[tuple[str, str, bool]]:
    """(rule, class, every maximizer must be EF1) per campaigns.THEOREMS, plus pmean:1/3."""
    pairs = [
        (th.default_welfare, th.instance_class, th.expect_all_ef1)
        for th in campaigns.THEOREMS.values()
    ]
    # power means with p < 1 keep every maximizer EF1 on binary instances
    pairs.append(("pmean:1/3", "binary", True))
    return pairs


def _expected_failures() -> list[str]:
    return [tid for tid, th in campaigns.THEOREMS.items() if not th.expect_all_ef1]


def _run_argmax_ef1(inst, fn):
    maxima = solver.enumerate_maximizers(inst, fn)
    return maxima, [fairness.is_ef1(inst, a).holds for a in maxima.allocations]


def _run_fallback(theorem):
    return campaigns.run_campaign(campaigns.CampaignSpec(theorem, trials=0))


def _argmax_item(key, rule, cls, guaranteed, n, m, seed):
    inst = model.random_instance(
        n, m, cls, CAMPAIGN_MAX_VALUE, seed=seed, require_positive_admitting=True
    )
    fn = functions.parse_welfare(rule)
    state = {"inst": inst, "fn": fn, "guaranteed": guaranteed}
    return Item(key, "argmax-ef1", f"{rule}|{cls}", _run_argmax_ef1, (inst, fn), state)


def _fallback_item(key, theorem):
    return Item(key, "campaign-fallback", theorem, _run_fallback, (theorem,))


def campaign_round(seed: int, p: int) -> list[Item]:
    """Round p: one Latin-square pass, every (pair, shape) once, both varying."""
    pairs = campaign_pairs()
    fallbacks = _expected_failures()
    items = []
    combos = len(pairs) * len(CAMPAIGN_SHAPES)
    spacing = combos // len(fallbacks)
    for j in range(combos):
        rule, cls, guaranteed = pairs[j % len(pairs)]
        n, m = CAMPAIGN_SHAPES[(j // len(pairs) + j) % len(CAMPAIGN_SHAPES)]
        rng = random.Random((seed * 1_000_003 + p) * 1_000_003 + j)
        items.append(
            _argmax_item(
                f"campaign/{seed}/{p}/{j}", rule, cls, guaranteed, n, m, rng.randint(0, 2**30)
            )
        )
        if j % spacing == spacing - 1 and j // spacing < len(fallbacks):
            theorem = fallbacks[j // spacing]
            items.append(_fallback_item(f"campaign/{seed}/{p}/fallback/{theorem}", theorem))
    return items


def campaign_warmup() -> list[Item]:
    items = []
    rng = random.Random(REFERENCE_SEED)
    for rule, cls, guaranteed in campaign_pairs():
        items.append(
            _argmax_item(f"warmup/campaign/{rule}|{cls}", rule, cls, guaranteed, 2, 4,
                         rng.randint(0, 2**30))
        )
    for theorem in _expected_failures():
        items.append(_fallback_item(f"warmup/campaign/fallback/{theorem}", theorem))
    return items


def _check_argmax_ef1(item, output, ref):
    maxima, ef1 = output
    summary = _argmax_summary(maxima)
    summary["ef1"] = all(ef1)
    decided = maxima.exactness.kind != "Inconclusive"
    if ref is not None:
        error = _argmax_matches(ref, summary)
        if error:
            return Outcome(False, error, summary)
    if len(ef1) != len(maxima.allocations) or not maxima.allocations:
        return Outcome(False, "EF1 was not checked on every maximizer", summary)
    if decided and item.state["guaranteed"] and not summary["ef1"]:
        return Outcome(False, "guaranteed rule has a non-EF1 maximizer", summary)
    return Outcome(decided, None, summary)


def _check_fallback(item, result, ref):
    summary = {
        "passed": result.passed,
        "violations": result.violations,
        "counterexample": result.counterexample,
    }
    if not result.passed or result.counterexample is None:
        return Outcome(False, "expected-failure theorem produced no counterexample", summary)
    if ref is not None and ref != summary:
        return Outcome(False, f"campaign result {summary} vs reference {ref}", summary)
    return Outcome(not result.inconclusive, None, summary)


# -- argmax-large ----------------------------------------------------------------
#
# Instances at the top of the campaign's size range with near-distinct utility
# vectors (unrestricted rationals, and integers up to 1000): long scans, few
# calls, and almost no repeated vectors, so a deduplication gain that costs dense inputs shows up
# here.  One rule per comparator tier: log product, surd, rational, interval.
# Each instance gets four items: the CLI solve with --all, branch-and-bound, a
# Pareto check of the first maximizer, and a CLI EF1 check of that maximizer.
# The last is cheap; it also puts the median item in the Pareto cluster, whose
# cost depends on n**m only, instead of among the branch-and-bound items, whose
# cost varies with the seed.

ARGMAX_SLOTS = [
    ("log", "unrestricted"),
    ("pmean:2", "integer"),
    ("pmean:1/2", "unrestricted"),
    ("harmonic:0", "unrestricted"),
    ("log", "integer"),
    ("pmean:2", "unrestricted"),
    ("pmean:1/2", "integer"),
    ("harmonic:0", "unrestricted"),
]
# One shape, so that the median item sits in one tight cluster (the Pareto
# scans) and the tail item inside a cluster of CLI enumerations.  At m = 8 an
# enumeration takes 1.5-2.5 s, a run holds a few dozen distinct items, and
# both order statistics fall between clusters whose cost moves with the seed.
ARGMAX_SHAPE = (3, 7)
_MAX_VALUE = {"unrestricted": 5, "integer": 1000}


def _run_cli_solve(path, rule):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["solve", path, "--welfare", rule, "--all"])
    return code, out.getvalue()


def _run_bb(inst, fn):
    return solver.solve_branch_bound(inst, fn)


def _run_pareto(state):
    return fairness.is_pareto_optimal(state["inst"], state["first"])


def _run_cli_check(path, state):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", "ef1", path, state["first_path"]])
    return code, out.getvalue()


def _instance_items(key, rule, cls, n, m, seed, workdir):
    inst = model.random_instance(
        n, m, cls, _MAX_VALUE[cls], seed=seed, require_positive_admitting=True
    )
    fn = functions.parse_welfare(rule)
    path = os.path.join(workdir, key.replace("/", "_") + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(model.serialize_instance(inst))
    state = {"inst": inst, "fn": fn, "path": path}
    group = f"{rule}|{cls}|{n}x{m}"
    return [
        Item(f"{key}/cli", "cli-solve", group, _run_cli_solve, (path, rule), state),
        Item(f"{key}/bb", "branch-bound", group, _run_bb, (inst, fn), state),
        Item(f"{key}/pareto", "pareto", group, _run_pareto, (state,), state),
        Item(f"{key}/ef1", "cli-check", group, _run_cli_check, (path, state), state),
    ]


def argmax_round(seed: int, cycle: int, workdir: str) -> list[Item]:
    """Round ``cycle``: one instance per slot, four items each."""
    items = []
    for s, (rule, cls) in enumerate(ARGMAX_SLOTS):
        n, m = ARGMAX_SHAPE
        rng = random.Random((seed * 1_000_003 + cycle) * 1_000_003 + s)
        items += _instance_items(
            f"argmax-large/{seed}/{cycle}/{s}", rule, cls, n, m, rng.randint(0, 2**30), workdir
        )
    return items


def argmax_warmup(workdir: str) -> list[Item]:
    items = []
    rng = random.Random(REFERENCE_SEED)
    for rule, cls in ARGMAX_SLOTS[:4]:
        items += _instance_items(
            f"warmup/argmax-large/{rule}", rule, cls, 3, 5, rng.randint(0, 2**30), workdir
        )
    return items


def _prepare_pareto(item):
    """Take the first maximizer the CLI printed (untimed); False if the CLI item has no output."""
    printed = item.state.get("cli-solve")
    if printed is None:
        return False
    bundles = json.loads(printed[1])["allocations"]
    if not bundles:
        return False
    inst = item.state["inst"]
    item.state["first"] = model.Allocation.from_bundles(bundles[0], inst.m)
    path = item.state["path"][: -len(".json")] + "_first.json"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(model.serialize_allocation(item.state["first"], inst.n))
    item.state["first_path"] = path
    return True


def _prepare_cli_check(item):
    return "first_path" in item.state


def _check_cli(item, output, ref):
    code, text = output
    doc = json.loads(text)
    inst, fn = item.state["inst"], item.state["fn"]
    allocations = [model.Allocation.from_bundles(b, inst.m) for b in doc["allocations"]]
    argmax = _assignments(allocations)
    summary = {
        "x": doc["exactness"],
        "c": doc["count"],
        "h": _digest(argmax),
        "w": doc["welfare"],
        "code": code,
        "argmax": argmax,
    }
    item.state["argmax"] = set(argmax)
    item.state["exactness"] = doc["exactness"]
    decided = doc["exactness"] != "Inconclusive"
    if ref is not None:
        error = _argmax_matches(ref, summary)
        if error:
            return Outcome(False, error, summary)
    if code != (0 if decided else 3) or doc["count"] != len(allocations) or not allocations:
        return Outcome(False, f"CLI exit code {code} or count disagrees with its output", summary)
    if argmax != sorted(argmax):
        return Outcome(False, "argmax set is not in canonical order", summary)
    item.state["enum_welfare"] = solver.welfare_of(inst, fn, allocations[0])
    return Outcome(decided, None, summary)


def _check_bb(item, output, ref):
    alloc, welfare = output
    inst, fn = item.state["inst"], item.state["fn"]
    summary = {"w": values.render_value(welfare), "a": _assignments([alloc])[0]}
    if ref is not None and not _rendered_equal(ref["w"], summary["w"]):
        return Outcome(False, f"welfare {summary['w']} vs reference {ref['w']}", summary)
    if not _same_welfare(welfare, solver.welfare_of(inst, fn, alloc)):
        return Outcome(False, "reported welfare is not the welfare of the returned allocation", summary)
    if "enum_welfare" in item.state:
        if not _same_welfare(welfare, item.state["enum_welfare"]):
            return Outcome(False, "branch-and-bound welfare differs from the enumeration welfare", summary)
        if item.state["exactness"] == "Exact" and summary["a"] not in item.state["argmax"]:
            return Outcome(False, "branch-and-bound allocation is not in the exact argmax set", summary)
    return Outcome(True, None, summary)


def _check_cli_check(item, output, ref):
    code, text = output
    doc = json.loads(text)
    summary = {"holds": doc["holds"], "code": code}
    if ref is not None and ref != summary:
        return Outcome(False, f"EF1 check {summary} vs reference {ref}", summary)
    if code != (0 if doc["holds"] else 1):
        return Outcome(False, f"CLI exit code {code} disagrees with its verdict", summary)
    if doc["holds"] != fairness.is_ef1(item.state["inst"], item.state["first"]).holds:
        return Outcome(False, "CLI EF1 verdict differs from the library's", summary)
    # the log rule keeps every maximizer EF1 on positive-admitting instances
    if item.state["fn"].label() == "log" and not doc["holds"]:
        return Outcome(False, "a Nash-welfare maximizer is not EF1", summary)
    return Outcome(True, None, summary)


def _check_pareto(item, result, ref):
    summary = {"v": result.verdict}
    if ref is not None and ref != summary:
        return Outcome(False, f"Pareto verdict {summary} vs reference {ref}", summary)
    # every maximizer of a strictly increasing welfare function is Pareto optimal
    if item.state["fn"].strictly_increasing and result.verdict != "PO":
        return Outcome(False, f"a maximizer is {result.verdict}, not PO", summary)
    return Outcome(True, None, summary)


# -- conditions --------------------------------------------------------------------
#
# No enumeration: bounded condition scans (the pure-Python exact real-grid
# scans of C1/C1a/C2 next to the numpy table scans), two threshold
# bisections, and integral cross-checks against the closed form.  The only workload where the
# conditions, functions.delta and quadrature layers do the work.
#
# The check and bisection items are the same calls on every seed and in every
# round; the seed varies only the integral arguments.  A run of the default
# length holds one round (about a dozen seconds), timed twice.

CONDITION_FUNCTIONS = [
    "log",
    "harmonic:-3/4",
    "combo:1*pmean:0+40*pmean:-1",
    "modlog:2",
    "harmonic:0",
    "pmean:1/2",
]
# The criterion-6 bisections, with iterations and caps cut so that each takes
# well under a second instead of 3-10 s: no single item may fill a large share
# of a run.  The brackets still pin both thresholds.
BISECTIONS = [
    ("modlog", "C3b", Fraction(1, 2), Fraction(2), 16, 1 << 17),
    ("harmonic", "C3b", Fraction(0), Fraction(1), 12, 1 << 15),
]
INTEGRAL_SHIFTS = [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)]
INTEGRAL_TOL = 1e-9
# Scans that take seconds at the seed commit; spread evenly through a pass so
# that where a run's time limit falls changes the item mix as little as possible.
_SLOW_SCANS = {("log", "C1"), ("log", "C1a"), ("log", "C2"), ("harmonic:-3/4", "C1"),
               ("harmonic:-3/4", "C2"), ("combo:1*pmean:0+40*pmean:-1", "C2")}


def _run_check(fn, cond):
    return conditions.check_condition(fn, cond, conditions.Bounds())


def _run_bisect(family, cond, lo, hi, iters, cap):
    return conditions.threshold_bisect(
        family, cond, lo, hi, conditions.Bounds(k_max=3, a_max=25), iters=iters, a_cap=cap
    )


def _run_integral(c, x):
    return quadrature.harmonic_integral(c, x, INTEGRAL_TOL)


def _check_item(key, spec, cond_id):
    fn = functions.parse_welfare(spec)
    cond = conditions.ConditionId.parse(cond_id)
    return Item(key, "check", f"{spec}|{cond_id}", _run_check, (fn, cond), {"fn": fn, "cond": cond})


def _bisect_item(key, family, cond_id, lo, hi, iters, cap):
    cond = conditions.ConditionId.parse(cond_id)
    return Item(key, "bisect", family, _run_bisect, (family, cond, lo, hi, iters, cap), {"family": family})


def _integral_item(key, c, x):
    return Item(key, "integral", f"c={c}", _run_integral, (c, x), {"c": c, "x": x})


def conditions_round(seed: int) -> list[Item]:
    """One round: every (function, condition) scan, both bisections, 40 integrals."""
    fast, slow = [], []
    for spec in CONDITION_FUNCTIONS:
        for cond in conditions.ConditionId:
            item = _check_item(f"conditions/check/{spec}/{cond.value}", spec, cond.value)
            (slow if (spec, cond.value) in _SLOW_SCANS else fast).append(item)
    for family, cond_id, lo, hi, iters, cap in BISECTIONS:
        slow.append(_bisect_item(f"conditions/bisect/{family}", family, cond_id, lo, hi, iters, cap))
    rng = random.Random(seed)
    for c in INTEGRAL_SHIFTS:
        # integer arguments, as in criterion 7: at small non-integer ones the
        # quadrature takes up to 100 times longer, which would make the mix seed-bound
        for i in range(8):
            x = Fraction(rng.randint(1, 8))
            fast.append(_integral_item(f"conditions/{seed}/integral/{c}/{i}", c, x))
    random.Random(0).shuffle(fast)  # one order for every seed
    # one slow item after every len(fast)/len(slow) fast ones
    items, step = [], len(fast) / len(slow)
    for i, item in enumerate(slow):
        items += fast[round(i * step):round((i + 1) * step)]
        items.append(item)
    return items


def conditions_warmup() -> list[Item]:
    items = []
    for spec in CONDITION_FUNCTIONS:
        for cond_id in ("C3", "C4"):
            items.append(_check_item(f"warmup/conditions/{spec}/{cond_id}", spec, cond_id))
    for c in INTEGRAL_SHIFTS:
        items.append(_integral_item(f"warmup/conditions/integral/{c}", c, Fraction(3)))
    items.append(_bisect_item("warmup/conditions/bisect", "harmonic", "C3b", Fraction(0), Fraction(1), 2, 1 << 10))
    return items


def _witness_json(witness):
    if witness is None:
        return None
    return {k: str(v) for k, v in sorted(witness.items())}


def _check_condition(item, report, ref):
    fn, cond = item.state["fn"], item.state["cond"]
    summary = {"v": report.verdict, "w": _witness_json(report.witness)}
    if ref is not None and ref != summary:
        return Outcome(False, f"{summary} vs reference {ref}", summary)
    if report.verdict == "Violated":
        if conditions.violates(fn, cond, report.witness, conditions.Bounds().policy) is not True:
            return Outcome(False, "witness does not re-verify", summary)
        if conditions.analytic_verdict(fn, cond) is True:
            return Outcome(False, "violation of a condition the closed form says holds", summary)
    return Outcome(report.verdict != "Inconclusive", None, summary)


def _check_bisect(item, bracket, ref):
    lo, hi = bracket
    summary = {"lo": str(lo), "hi": str(hi)}
    if ref is not None and ref != summary:
        return Outcome(False, f"bracket {summary} vs reference {ref}", summary)
    if item.state["family"] == "modlog":
        contains = lo <= 1 <= hi
    else:
        # c* = 1/log 2 - 1 satisfies (1+c*) log 2 = 1
        one = values.ExactValue.from_rational(1)
        contains = (
            values.compare(values.ExactValue(logs={Fraction(2): 1 + lo}), one).relation is Relation.LESS
            and values.compare(values.ExactValue(logs={Fraction(2): 1 + hi}), one).relation
            is Relation.GREATER
        )
    if not contains:
        return Outcome(False, f"bracket [{lo}, {hi}] misses the threshold", summary)
    return Outcome(True, None, summary)


def _check_integral(item, enclosure, ref):
    c, x = item.state["c"], item.state["x"]
    summary = {"lo": mpmath.nstr(enclosure.lo, 15), "hi": mpmath.nstr(enclosure.hi, 15)}
    if float(enclosure.width) > INTEGRAL_TOL:
        return Outcome(False, "enclosure wider than the requested tolerance", summary)
    truth = functions.ModHarmonic(c).integer_value(int(x))
    if not enclosure.lo <= mpmath.mpf(truth.numerator) / truth.denominator <= enclosure.hi:
        return Outcome(False, f"h_{c}({x}) enclosure misses the closed form", summary)
    if ref is not None and not _rendered_equal(
        {"kind": "interval", **ref}, {"kind": "interval", **summary}
    ):
        return Outcome(False, f"enclosure {summary} vs reference {ref}", summary)
    return Outcome(True, None, summary)


CHECKS = {
    "argmax-ef1": _check_argmax_ef1,
    "campaign-fallback": _check_fallback,
    "cli-solve": _check_cli,
    "branch-bound": _check_bb,
    "pareto": _check_pareto,
    "cli-check": _check_cli_check,
    "check": _check_condition,
    "bisect": _check_bisect,
    "integral": _check_integral,
}

PREPARE = {"pareto": _prepare_pareto, "cli-check": _prepare_cli_check}


def warmup(workload: str, workdir: str) -> list[Item]:
    """Items run once before timing starts, each with a reference entry."""
    if workload == "campaign":
        return campaign_warmup()
    if workload == "argmax-large":
        return argmax_warmup(workdir)
    if workload == "conditions":
        return conditions_warmup()
    raise ValueError(f"unknown workload {workload!r}")


def round_items(workload: str, seed: int, k: int, workdir: str) -> list[Item]:
    """Round k of a workload: a stretch of items with the workload's full mix.

    One Latin-square pass of the campaign, one cycle of argmax-large slots,
    one pass of the conditions items.  Every call builds new objects (new
    instances, new welfare functions), so that a repeated round shares no
    object with an earlier run of it.
    """
    if workload == "campaign":
        return campaign_round(seed, k)
    if workload == "argmax-large":
        return argmax_round(seed, k, workdir)
    if workload == "conditions":
        return conditions_round(seed)
    raise ValueError(f"unknown workload {workload!r}")


# How often a run times each item.  Only its fastest run counts (see worker.py).
REPEATS = {"campaign": 2, "argmax-large": 2, "conditions": 2}
# Seconds one timed run of one round takes at the seed commit on a 2-core
# x86_64 container, host in its fast phase, checks included.  A run holds
# round(seconds / (REPEATS * ROUND_S)) rounds, at least one, so that its mix
# of items depends on --seconds only, never on how fast the host happens to be.
ROUND_S = {"campaign": 3.0, "argmax-large": 3.8, "conditions": 10.5}
# Rounds of the reference seed stored in reference.json.
REFERENCE_ROUNDS = {"campaign": 12, "argmax-large": 8, "conditions": 1}
WORKLOADS = tuple(REPEATS)


def instance_of(item):
    """The instance an item enumerates, or None."""
    if item.kind in ("argmax-ef1", "cli-solve"):
        return item.state["inst"]
    return None
