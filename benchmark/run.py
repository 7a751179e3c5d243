"""Benchmark of welfarist: one command, three seeded workloads.

    python3 benchmark/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for why each exists): ``campaign``,
``argmax-large`` and ``conditions``.  Each run is single-process,
single-thread and closed-loop against the public ``welfarist`` API found
under ``src/`` of this checkout.  It measures whole rounds of the workload's
item mix, as many as ``--seconds`` asks for, and times every item twice,
keeping its faster run.  Times are scaled to a reference host speed
by a probe timed next to every call (see worker.py for why and how); the
unscaled figures are printed too.  Every output is checked, against the
stored reference outputs where the item has one and against invariants
always.

``--trace 0`` prints the end-to-end metrics: set-up time (the median of
several fresh set-ups, some before and some after the timed run, so that
they do not all fall in one phase of the host's speed), decided verdicts
per second of item time, median and tail latency per item, the share of
items with a decided verdict, and peak memory.
``--trace 1`` prints the per-layer metrics of a traced run instead, with the
tracing overhead.  Census and environment lines come first; the last line is
one JSON object.

The run refuses to start when WELFARIST_PRECISION_CEILING is set (it changes
verdicts) and pins the BLAS/OpenMP thread pools to one thread.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("campaign", "argmax-large", "conditions")
SETUP_REPEATS = 2  # fresh set-ups before and again after an untraced run; setup_s is the median
DEADLINE_S = 170.0
PRECISION_ENV = "WELFARIST_PRECISION_CEILING"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)
UNITS = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "decided_frac": "ratio",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> int:
    sys.stderr.write(f"benchmark: {message}\n")
    return 2


def _worker(args, env, deadline, *extra):
    """Run one worker process to completion; returns its parsed last line."""
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1]), lines[:-1]


def _per_layer_names():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if PRECISION_ENV in os.environ:
        return _fail(f"{PRECISION_ENV} is set; it changes verdicts, so the run is refused")
    if not (ROOT / "src" / "welfarist" / "__init__.py").is_file():
        return _fail(f"no welfarist sources under {ROOT / 'src'}")
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.update({name: "1" for name in THREAD_VARS})
    env.pop("PYTHONPATH", None)

    repeats = 0 if args.trace else SETUP_REPEATS
    try:
        extras = [_worker(args, env, deadline, "--setup-only")[0] for _ in range(repeats)]
        result, lines = _worker(args, env, deadline)
        extras += [_worker(args, env, deadline, "--setup-only")[0] for _ in range(repeats)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return _fail(str(exc))
    for line in lines:
        print(line)
    setups = [extra["setup_s"] for extra in extras] + [result["setup_s"]]
    setups_raw = [extra["setup_raw_s"] for extra in extras] + [result["setup_raw_s"]]
    failed = sum(extra["failed"] for extra in extras) + result["failed"]
    errors = [line for extra in extras for line in extra["errors"]] + result["errors"]
    if args.trace:
        units = _per_layer_names()
        values = result["layers"]
        missing = sorted(set(units) - set(values))
        if missing:
            return _fail(f"traced run did not produce {missing}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setups))
        print(f"setup_s: median of {len(setups)} set-ups: " + ", ".join(f"{s:.4f}" for s in setups)
              + "; unscaled: " + ", ".join(f"{s:.4f}" for s in setups_raw))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    for line in errors[:20]:
        print(f"error: {line}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
