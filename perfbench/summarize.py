"""Summarize benchmark runs: median, quartiles and run count per workload and metric.

    python3 perfbench/summarize.py [--write perfbench/results/baseline.json]

Reads every result record in ``.perfbench_work/results/`` (one per workload,
seed and trace setting, as run.py writes them). For each end-to-end metric
it prints the spread across runs, the distance between the first and third
quartile as a share of the median, next to a third of the metric's bound
from BENCHMARK.json; ``setup_s`` has no spread requirement. Per-layer
metrics from traced runs are summarized the same way, without bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / ".perfbench_work" / "results"


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", help="also write the summary as JSON to this path")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"workloads": {}}
    steady = True
    for workload in [w["name"] for w in bench["workloads"]]:
        entry = {}
        for trace in (0, 1):
            records = [json.loads(p.read_text()) for p in sorted(RESULTS.glob(f"{workload}-seed*-trace{trace}.json"))]
            if not records:
                continue
            if trace == 0:
                entry["seeds"] = sorted(r["seed"] for r in records)
                entry["failed"] = sum(r["failed"] for r in records)
                entry["attempted"] = sum(r["attempted"] for r in records)
                entry["environment"] = records[-1]["environment"]
            key = "per_layer" if trace else "end_to_end"
            names = records[0]["metrics"]
            entry[key] = {}
            for name in names:
                stats = summarize([r["metrics"][name]["value"] for r in records])
                stats["unit"] = records[0]["metrics"][name]["unit"]
                entry[key][name] = stats
                if trace:
                    continue
                spread = (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else float("inf")
                limit = bounds[name] / 3
                ok = name == "setup_s" or spread <= limit
                steady &= ok
                print(f"{workload:15s} {name:12s} median {stats['median']:12.6g} {stats['unit']:5s} "
                      f"spread {spread:7.4f} (limit {limit:.4f}) runs {stats['runs']}"
                      f"{'' if ok else '  TOO WIDE'}")
        if entry:
            summary["workloads"][workload] = entry
    print("steady" if steady else "NOT steady")
    if args.write:
        Path(args.write).parent.mkdir(parents=True, exist_ok=True)
        Path(args.write).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
