"""Benchmark worker: the only process that imports ``hrrs`` and runs pipelines.

    worker.py setup   --workload W --manifest M --seed N --work DIR
    worker.py measure --workload W --manifest M --seed N --work DIR --seconds S --trace 0|1 --out FILE

``setup`` imports the package and does the workload's one-off set-up (the
cold sweep on sweep-warm); run.py times the whole process as part of set-up.
``measure`` calls the pipeline in a closed loop until --seconds have passed,
checks every call's outputs, and writes the per-call wall and CPU times,
peak RSS, operation counts and (with --trace 1) the per-layer metrics and
span file. With --trace 1 calls alternate untraced and traced, so the
difference of their medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from inputs import DATASETS, WORKLOAD_DATASETS  # noqa: E402
from tracing import Recorder, layer_metrics, overhead_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def measure(workload, args) -> dict:
    rec = Recorder(traced=False)
    reps = []
    deadline = time.perf_counter() + args.seconds
    # Call 0 warms caches and lazy set-up; it is checked but not reported.
    # After it, calls alternate untraced and traced when tracing.
    while True:
        warmup = not reps
        traced = bool(args.trace) and len(reps) % 2 == 0 and not warmup
        rec.traced = traced
        rec.run_id = f"{args.workload}-{args.seed}-{len(reps)}"
        workload.prepare()
        try:
            cpu0 = time.process_time()
            wall0 = time.perf_counter()
            with rec.span("pipeline", operation=False):
                out = workload.pipeline(rec)
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            anmrr, mean_ap = workload.collect(rec, out)
        except Exception as exc:  # a failed operation ends the measurement
            traceback.print_exc()
            if exc is not rec.last_exception:
                rec.check(False, f"{args.workload}: {exc!r}")
            break
        reps.append({"warmup": warmup, "traced": traced, "wall_s": wall, "cpu_s": cpu, "anmrr": anmrr, "map": mean_ap})
        enough = len(reps) >= (3 if args.trace else 2)
        if enough and time.perf_counter() >= deadline:
            break
    result = {
        "reps": reps,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures,
        "counters": dict(rec.counters),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace and rec.failed == 0:
        traced_walls = [r["wall_s"] for r in reps if r["traced"]]
        plain_walls = [r["wall_s"] for r in reps[1:] if not r["traced"]]
        result["layers"] = {
            **layer_metrics(rec.spans, len(traced_walls)),
            **overhead_metrics(traced_walls, plain_walls),
        }
        rec.write_jsonl(Path(args.work) / f"trace-seed{args.seed}.jsonl")
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("phase", choices=("setup", "measure"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    # The sweep cache must live under the run's own output directory.
    os.environ.pop("HRRS_CACHE_DIR", None)
    spec = DATASETS[WORKLOAD_DATASETS[args.workload]]
    workload = WORKLOADS[args.workload](Path(args.manifest), args.seed, Path(args.work), spec)
    if args.phase == "setup":
        workload.setup()
        return 0
    result = measure(workload, args)
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
