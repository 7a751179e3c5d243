"""One workload of the welfarist benchmark, in one process.

Started by ``run.py``; not meant to be run by hand.  Set-up (importing
welfarist, checking the warm-up items against the reference, building the
first round of items) is timed from the first line of this file.

Timing.  The machines this benchmark runs on share cores with other work.
On the 2-core container it was written on, the host's speed switches
between a fast and a slow phase, 1.5x apart, on scales from under a second
to over a minute, and CPU time slows with wall time.  Raw latencies then
spread by 20-40% between runs of the same code.  Two measures take this out:

* Host-speed scaling.  Right before and right after each timed call, and
  every ``SAMPLE_S`` during it, the worker times a fixed probe (pure-Python
  ``Fraction`` arithmetic, no welfarist code, about 0.3 ms in the fast
  phase).  The call's latency, less the readings' own time, is scaled by
  ``PROBE_REF_S`` over the mean reading, to the power ``SCALE_EXPONENT``
  (the measured share of the probe's slowdown that welfarist calls see):
  reported times are those of a host running the probe in ``PROBE_REF_S``.  The
  probe does not touch the code under test, so a slower program still reads
  slower by the same share.  The unscaled figures are printed beside.
* Repeats.  Every item is timed more than once (``workloads.REPEATS``), each
  time on newly built objects, with the runs of one item half a run apart,
  and only its fastest scaled run counts.  Every run of every item is
  checked, and all runs of an item must give the same output.  Since the
  inputs repeat, a change that caches results across calls on equal inputs
  would look faster here than in single use; such a claim needs a check of
  its own.

The run's work is fixed by ``--seconds`` (see ``workloads.ROUND_S``), so the
item mix never depends on the host's speed.

Each output is checked right after its call, outside the timed region, and
then dropped, so the heap does not grow with the run; ``gc.freeze()`` after
set-up keeps the warm-up's objects out of the collector's scans.

With ``--trace 1`` the rounds run once, and each item runs twice, untraced
and traced in alternating order, so that the tracing overhead is measured
on the same items.

The last line on stdout is one JSON object for ``run.py``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import welfarist  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from welfarist import model, values  # noqa: E402


PROBE_REF_S = 0.00031  # the probe's time on the container above, fast phase
# Welfarist calls slow by the probe's slowdown to this power: the median over
# about 950 pairs of runs of one item in different host phases, on campaign
# (0.90, quartiles 0.70-1.03) and argmax-large (0.95), on that container.
SCALE_EXPONENT = 0.9
PROBE_ROUNDS = 5  # host-speed readings behind the scale factor of set-up time (their median)
SAMPLE_S = 0.05  # seconds between host-speed readings during a timed call


def probe():
    """Seconds one run of the host-speed probe takes now."""
    t0 = time.perf_counter()
    acc, top = Fraction(0), {}
    for i in range(1, 60):
        x = Fraction(i % 7 + 1, i % 5 + 2)
        acc = acc + x if acc < 10 else acc - x
        top[x] = max(top.get(x, acc), acc)
    return time.perf_counter() - t0


def _scaled(seconds, speed):
    """``seconds`` measured while the probe took ``speed``, at the reference speed."""
    return seconds * (PROBE_REF_S / speed) ** SCALE_EXPONENT


def host():
    """Seconds the probe takes now: the faster of two runs, so that an
    interrupt during one does not pass for a slow host."""
    return min(probe(), probe())


class Result:
    """Every timed run of one item (one position in one round)."""

    __slots__ = ("best_s", "best_raw_s", "runs", "decided", "error", "fingerprint")

    def __init__(self):
        self.best_s = math.inf
        self.best_raw_s = math.inf
        self.runs = 0
        self.decided = True
        self.error = None
        self.fingerprint = None

    def add(self, latency, scaled, outcome):
        self.best_s = min(self.best_s, scaled)
        self.best_raw_s = min(self.best_raw_s, latency)
        self.runs += 1
        self.decided = self.decided and outcome.decided
        fingerprint = None
        if outcome.summary is not None:
            fingerprint = json.dumps(workloads.stored(outcome.summary), sort_keys=True, default=str)
        if self.runs == 1:
            self.fingerprint = fingerprint
        elif outcome.error is None and fingerprint != self.fingerprint:
            outcome.error = "output differs from an earlier run of the same item"
        if self.error is None:
            self.error = outcome.error


class Sampler:
    """Host-speed readings before, during and after one timed call.

    During the call a SIGALRM every ``SAMPLE_S`` seconds interrupts it for
    one reading, so that a call of seconds is scaled by the host's speed
    over its whole length, not only at its ends.  The time the readings
    take is taken off the call's latency.
    """

    def __init__(self):
        self.readings = []
        self.pauses = []  # (start, seconds) of each reading taken during the call

    def _during(self, signum, frame):
        t0 = time.perf_counter()
        self.readings.append(host())
        self.pauses.append((t0, time.perf_counter() - t0))

    def time(self, call, args):
        """(output, latency s) of one call; the readings are left in ``readings``."""
        self.readings, self.pauses = [host()], []
        previous = signal.signal(signal.SIGALRM, self._during)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            t0 = time.perf_counter()
            output = call(*args)
            t1 = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.readings.append(host())
        return output, t1 - t0 - sum(d for start, d in self.pauses if start < t1)


def _execute(item, tracer, traced_first, sample):
    """(output, latency s, error, host s) of one item, or None if it is skipped.

    ``host s`` is the mean probe reading over the call when ``sample`` is
    set and there is no tracer, else ``PROBE_REF_S``.  With a tracer the item
    runs untraced and traced, in the order ``traced_first`` says, so that
    neither run always finds warm caches; the untraced run, timed plainly
    (readings would land in the traced spans), gives the output and the
    latency.
    """
    prepare = workloads.PREPARE.get(item.kind)
    if prepare is not None and not prepare(item):
        return None
    output, error, latency, speed = None, None, 0.0, PROBE_REF_S
    try:
        if tracer is None and sample:
            sampler = Sampler()
            try:
                output, latency = sampler.time(item.call, item.args)
            finally:
                speed = statistics.fmean(sampler.readings)
        else:
            if tracer is not None and traced_first:
                tracer.run_item(item.key, item.call, item.args)
            t0 = time.perf_counter()
            output = item.call(*item.args)
            latency = time.perf_counter() - t0
            if tracer is not None and not traced_first:
                tracer.run_item(item.key, item.call, item.args)
    except Exception as exc:  # an item that raises is a failed item; keep measuring
        error = f"{type(exc).__name__}: {exc}"
    return output, latency, error, speed


def _check(item, output, error, reference):
    """Outcome of one run of an item (untimed)."""
    if error is not None:
        return workloads.Outcome(False, error, None)
    try:
        return workloads.CHECKS[item.kind](item, output, reference.get(item.key))
    except Exception as exc:  # a check that cannot read the output is a mismatch
        return workloads.Outcome(False, f"check raised {type(exc).__name__}: {exc}", None)


class Run:
    """The timed loop of one workload: passes over whole rounds.

    Pass 0 runs rounds 0, 1, ... (as many as ``--seconds`` asks for); later
    passes run the same rounds again on newly built items.  A run is closed-loop: one item at a time, each started only after
    the previous one ended.  Each output is checked right after its call,
    outside the timed region, and then dropped.
    """

    def __init__(self, workload, seed, workdir, reference, tracer, sample=True):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.reference = reference
        self.tracer = tracer
        self.sample = sample  # take host-speed readings (off for the warm-up, part of set-up)
        self.results = defaultdict(Result)  # (round, position) -> Result
        self.census = []  # (kind, group, instance, maximizers, inconclusive) of pass 0
        self.executions = 0
        self.failures = []  # error strings, one per failed run of an item
        self.untraced_s = 0.0

    def build(self, k):
        if self.tracer is not None:
            self.tracer.install()
        try:
            return workloads.round_items(self.workload, self.seed, k, self.workdir)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()

    def run_round(self, k, items, first_pass):
        for j, item in enumerate(items):
            ran = _execute(item, self.tracer, self.executions % 2 == 1, self.sample)
            if ran is None:
                continue
            output, latency, error, speed = ran
            self.executions += 1
            self.untraced_s += latency
            outcome = _check(item, output, error, self.reference)
            item.state[item.kind] = output
            self.results[(k, j)].add(latency, _scaled(latency, speed), outcome)
            if outcome.error is not None:
                self.failures.append(f"{item.key}: {outcome.error}")
            if first_pass:
                summary = outcome.summary or {}
                self.census.append((
                    item.kind, item.group, workloads.instance_of(item), summary.get("c", 0),
                    outcome.error is None and not outcome.decided,
                ))

    def loop(self, first_round, seconds, passes):
        """Run the timed passes; returns their wall time in seconds.

        The rounds are those of an untraced run, whatever ``passes`` is.  A
        program far slower than the seed commit ends pass 0 early, once it
        has taken twice its share (1 / passes) of ``seconds``, so that a run
        still ends in time.
        """
        repeats = workloads.REPEATS[self.workload]
        rounds_wanted = max(1, round(seconds / (repeats * workloads.ROUND_S[self.workload])))
        start = time.perf_counter()
        rounds, items = 0, first_round
        while True:
            self.run_round(rounds, items, True)
            rounds += 1
            if rounds == rounds_wanted or time.perf_counter() - start > 2 * seconds / passes:
                break
            items = self.build(rounds)
        for _ in range(passes - 1):
            for k in range(rounds):
                self.run_round(k, self.build(k), False)
        return time.perf_counter() - start


def _tail(latencies):
    """(value, percentile): the highest percentile with at least ten items beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n - 10 < n / 2:  # too few items for a tail beyond the median
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _census(rows):
    """{(kind, group): counts} over the census rows of pass 0."""
    groups = defaultdict(lambda: defaultdict(int))
    distinct = {}
    for kind, group, inst, maximizers, inconclusive in rows:
        g = groups[(kind, group)]
        g["items"] += 1
        if inst is not None:
            if id(inst) not in distinct:
                distinct[id(inst)] = workloads.distinct_vectors(inst)
            g["assignments"] += inst.n**inst.m
            g["distinct_vectors"] += distinct[id(inst)]
            g["maximizers"] += maximizers
        if inconclusive:
            g["inconclusive"] += 1
    return groups


def _roadmap_ratios():
    """The ROADMAP duplication table: n**m over distinct vectors, seeds 0-4 pooled."""
    rows = []
    for n, m, cls in [(3, 8, "integer"), (4, 8, "integer"), (3, 10, "two_value"),
                      (3, 10, "binary"), (3, 8, "unrestricted")]:
        instances = [model.random_instance(n, m, cls, 5, seed=s) for s in range(5)]
        distinct = sum(workloads.distinct_vectors(inst) for inst in instances)
        rows.append(f"{n},{m},{cls} {5 * n**m / distinct:.1f}x")
    return rows


def _print_report(args, run, elapsed, reference):
    import mpmath
    import numpy

    print(
        f"env: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} mpmath={mpmath.__version__} "
        f"precision_ceiling_bits={values.precision_ceiling()} "
        + " ".join(f"{k}={v}" for k, v in sorted(os.environ.items()) if k.endswith("_THREADS"))
    )
    print(f"run: workload={args.workload} seed={args.seed} items={len(run.results)} "
          f"timed_runs={run.executions} failed_runs={len(run.failures)} elapsed_s={elapsed:.3f}")
    total = defaultdict(int)
    for (kind, group), g in sorted(_census(run.census).items()):
        line = " ".join(f"{k}={v}" for k, v in sorted(g.items()))
        if g["distinct_vectors"]:
            line += f" assignments_per_vector={g['assignments'] / g['distinct_vectors']:.2f}"
        print(f"census: {kind} {group} {line}")
        for k, v in g.items():
            total[k] += v
    if total["distinct_vectors"]:
        print(f"census: total assignments={total['assignments']} "
              f"distinct_vectors={total['distinct_vectors']} "
              f"assignments_per_vector={total['assignments'] / total['distinct_vectors']:.2f} "
              f"maximizers={total['maximizers']} inconclusive_items={total['inconclusive']}")
    expected = defaultdict(int)
    for key, summary in reference.items():
        if key.startswith(f"{args.workload}/") and summary.get("x") == "Inconclusive":
            expected[summary["g"]] += 1
    print("census: Inconclusive items at the reference seed: "
          + (", ".join(f"{g} x{c}" for g, c in sorted(expected.items())) or "none"))
    print("census: ROADMAP duplication table: " + " | ".join(_roadmap_ratios()))


def _latency_metrics(results, best):
    """verdicts_per_s, latency_p50_ms, latency_tail_ms and the tail's percentile."""
    decided = sum(1 for r in results if r.decided and r.error is None)
    latencies = [math.inf if r.error is not None else best(r) for r in results]
    tail, tail_pct = _tail(latencies)
    return {
        # decided verdicts per second of item time, each item at its fastest run
        "verdicts_per_s": decided / sum(best(r) for r in results),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
    }, tail_pct


def _metrics(run):
    """End-to-end metrics over the items of a run, each at its fastest run."""
    results = list(run.results.values())
    metrics, tail_pct = _latency_metrics(results, lambda r: r.best_s)
    raw, _ = _latency_metrics(results, lambda r: r.best_raw_s)
    print(f"latency_tail_ms: p{tail_pct:.1f} over {len(results)} items")
    print("unscaled: " + " ".join(f"{k}={v:.4f}" for k, v in raw.items()))
    decided = sum(1 for r in results if r.decided and r.error is None)
    metrics["decided_frac"] = decided / len(results)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if Path(welfarist.__file__).resolve().parent != SRC / "welfarist":
        raise SystemExit(f"welfarist imported from {welfarist.__file__}, not from {SRC}")
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with open(HERE / "reference.json", encoding="utf-8") as handle:
            reference = json.load(handle)
        tracer = tracing.Tracer() if args.trace else None
        run = Run(args.workload, args.seed, str(workdir), reference, tracer)
        first_round = run.build(0)
        warm = Run(args.workload, args.seed, str(workdir), reference, None, sample=False)
        warm.run_round(0, workloads.warmup(args.workload, str(workdir)), False)
        gc.collect()
        gc.freeze()
        setup_raw_s = time.perf_counter() - T0
        speed = statistics.median(host() for _ in range(PROBE_ROUNDS))
        result = {
            "setup_s": _scaled(setup_raw_s, speed),
            "setup_raw_s": setup_raw_s,
            "errors": warm.failures[:20],
            "failed": len(warm.failures),
        }
        if args.setup_only:
            print(json.dumps(result))
            return 0

        passes = 1 if tracer is not None else workloads.REPEATS[args.workload]
        elapsed = run.loop(first_round, args.seconds, passes)
        _print_report(args, run, elapsed, reference)
        for line in run.failures[:20]:
            print(f"mismatch: {line}")
        result.update({
            "attempted": run.executions,
            "failed": len(run.failures) + len(warm.failures),
            "errors": (warm.failures + run.failures)[:20],
            "metrics": _metrics(run),
        })
        if tracer is not None:
            distinct = {}
            for inst in tracer.enumerated:
                if id(inst) not in distinct:
                    distinct[id(inst)] = workloads.distinct_vectors(inst)
            distinct_total = sum(distinct[id(inst)] for inst in tracer.enumerated)
            result["layers"] = tracer.metrics(distinct_total, run.untraced_s)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
