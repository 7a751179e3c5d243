"""Regenerate reference.json: the outputs of the reference seed's items.

    python3 benchmark/make_reference.py

Runs every warm-up item and every timed item of the reference seed once, on
every workload, and stores a summary of each output.  Run it only at a commit
whose outputs are trusted: a change that is meant to keep verdicts must pass
against the stored file, not regenerate it.
"""

import json
import shutil
import sys
import time

import worker
import workloads


def main() -> int:
    reference = {}
    failures = []
    workdir = worker.ROOT / ".bench_work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            items = workloads.warmup(name, str(workdir))
            for k in range(workloads.REFERENCE_ROUNDS[name]):
                items += workloads.round_items(name, workloads.REFERENCE_SEED, k, str(workdir))
            start = time.perf_counter()
            count = 0
            for item in items:
                ran = worker._execute(item, None, False, False)
                if ran is None:
                    continue
                output, _latency, error, _speed = ran
                outcome = worker._check(item, output, error, {})
                item.state[item.kind] = output
                count += 1
                if outcome.error is not None:
                    failures.append(f"{item.key}: {outcome.error}")
                if outcome.summary is not None:
                    entry = workloads.stored(outcome.summary)
                    if "x" in entry:
                        entry["g"] = item.group
                    reference[item.key] = entry
            print(f"{name}: {count} items in {time.perf_counter() - start:.1f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in failures[:20]:
        print(f"failure: {line}")
    with open(worker.HERE / "reference.json", "w", encoding="utf-8") as handle:
        handle.write("{\n")
        handle.write(",\n".join(
            f"{json.dumps(k)}: {json.dumps(v, sort_keys=True, separators=(',', ':'))}"
            for k, v in sorted(reference.items())
        ))
        handle.write("\n}\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
