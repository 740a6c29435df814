"""hrrs benchmark: seeded inputs, timed pipelines, checked outputs, named metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     # every workload in turn

Run from the root of a source checkout (the package is imported from
``src/``). Everything the benchmark writes goes under ``.perfbench_work/``.

Per workload:
1. Set-up, repeated SETUP_REPEATS times: generate the seeded inputs, then
   start a worker process that imports the package and does the workload's
   one-off set-up (the cold sweep on sweep-warm). ``setup_s`` is the median.
2. Measurement: a fresh worker runs the pipeline in a closed loop for
   --seconds and checks every call's outputs; that process does nothing else,
   so its peak RSS is the pipeline's.
3. The last stdout line is one JSON object: ``correct``, ``attempted``,
   ``failed`` and ``metrics``. With --trace 0 the metrics are the end-to-end
   ones (medians over the pipeline calls); with --trace 1 the per-layer ones
   and the tracing overhead. Earlier lines give a table of the metrics, the
   input digest and the environment; the full record is written to
   ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
from tracing import unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0  # per workload, so a run ends within the 180 s allowed

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "anmrr": "ratio",
    "map": "ratio",
    "ok_rate": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_worker(phase: str, deadline: float, *args) -> None:
    cmd = [sys.executable, str(HERE / "worker.py"), phase, *map(str, args)]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError(f"no time left for the {phase} worker")
    try:
        # Worker console output goes to stderr, keeping stdout for results.
        proc = subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        raise BenchError(f"{phase} worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{phase} worker exited with code {proc.returncode}")


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.perf_counter() + TIME_LIMIT_S
    work = WORK / name
    kind = inputs.WORKLOAD_DATASETS[name]
    setup_times, digests = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        start = time.perf_counter()
        data = inputs.generate(kind, seed, work / "inputs")
        run_worker("setup", deadline, "--workload", name, "--manifest", data["manifest"],
                   "--seed", seed, "--work", work)
        setup_times.append(time.perf_counter() - start)
        digests.append(data["sha256"])
    out = work / "measure.json"
    run_worker("measure", deadline, "--workload", name, "--manifest", data["manifest"],
               "--seed", seed, "--work", work, "--seconds", seconds, "--trace", trace, "--out", out)
    measured = json.loads(out.read_text())
    # The inputs are a pure function of the seed: every set-up must agree.
    attempted = measured["attempted"] + 1
    failed = measured["failed"] + (len(set(digests)) != 1)
    plain = [r for r in measured["reps"] if not (r["traced"] or r["warmup"])]

    def median(key):
        return statistics.median(r[key] for r in plain) if plain else 0.0

    if trace:
        values = measured.get("layers", {})
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": median("wall_s"),
            "cpu_s": median("cpu_s"),
            "peak_rss_mb": measured["peak_rss_mb"],
            "anmrr": median("anmrr"),
            "map": median("map"),
            "ok_rate": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0 and bool(measured["reps"]),
        "attempted": attempted,
        "failed": failed,
        "failures": measured["failures"],
        "counters": measured["counters"],
        "metrics": metrics,
        "inputs": {"dataset": kind, "entries": data["entries"], "bytes": data["bytes"], "sha256": digests[0]},
        "setup_times_s": setup_times,
        "reps": measured["reps"],
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src" / "hrrs").glob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_hrrs_lines": src_lines,
    }


def print_table(result: dict) -> None:
    print(f"{result['workload']} (seed {result['seed']}, trace {result['trace']}): "
          f"{len(result['reps'])} pipeline calls, {result['failed']}/{result['attempted']} operations failed")
    for key, metric in result["metrics"].items():
        print(f"  {key:36s} {metric['value']:>14.6g} {metric['unit']}")
    for name, count in result["counters"].items():
        print(f"  {name}: {count}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOAD_DATASETS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hrrs" / "__init__.py").is_file():
        print(f"error: no hrrs sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    names = list(inputs.WORKLOAD_DATASETS) if args.workload == "all" else [args.workload]
    env = environment()
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        result["environment"] = env
        record = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(result, indent=2) + "\n")
        print_table(result)
        print(json.dumps({"workload": name, "inputs": result["inputs"], "environment": env}))
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
