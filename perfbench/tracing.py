"""Operation counting and layer spans recorded from outside the package.

Every call the benchmark makes into an ``hrrs`` layer goes through
``Recorder.span``; every output check through ``Recorder.check``. Both count
toward the run's attempted and failed operations. When tracing is on, each
span also records its name, start, end, parent span, run id, wall time and
process CPU time (summed across threads). Spans stay in memory until the run
ends and are then written out as JSON lines.

A span is named ``<layer>.<operation>``, where the layer is the ``hrrs``
module the call enters. Work counts a metric needs (bytes read, rows, k-means
passes) go into the span's ``attrs``.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

LAYERS = (
    "tensor_store",
    "codebooks",
    "encoders",
    "reduction",
    "head",
    "retrieval",
    "evaluation",
    "cli",
)


class Recorder:
    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counters: Counter = Counter()  # notable events that are not failures
        self.last_exception: BaseException | None = None
        self.run_id = ""  # identifies the pipeline call the next spans belong to
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, operation: bool = True):
        """Count one call into a layer and, when tracing, time it.

        Yields a dict the caller may fill with work counts. A span with
        `operation` false (the root span of a pipeline call) is timed but
        not counted as an operation.
        """
        self.attempted += operation
        attrs: dict = {}
        if not self.traced:
            try:
                yield attrs
            except Exception as exc:
                self._fail(f"{name}: {exc!r}", exc)
                raise
            return
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            "error": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        cpu0 = time.process_time()
        record["start"] = time.perf_counter()
        try:
            yield attrs
        except Exception as exc:
            record["error"] = repr(exc)
            self._fail(f"{name}: {exc!r}", exc)
            raise
        finally:
            record["end"] = time.perf_counter()
            record["cpu_s"] = time.process_time() - cpu0
            record["wall_s"] = record["end"] - record["start"]
            self._stack.pop()

    def check(self, ok: bool, what: str) -> bool:
        """Count one output check; a false `ok` is a failed operation."""
        self.attempted += 1
        if not ok:
            self._fail(what)
        return ok

    def _fail(self, message: str, exc: BaseException | None = None) -> None:
        if exc is not None:
            if exc is self.last_exception:  # already counted by an inner span
                return
            self.last_exception = exc
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> list[tuple[float, float]]:
    """(self wall, self cpu) per span: its duration minus its children's.

    Calls are synchronous in one thread, so children never overlap and their
    durations can simply be subtracted.
    """
    own = [[s["wall_s"], s["cpu_s"]] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]][0] -= s["wall_s"]
            own[s["parent"]][1] -= s["cpu_s"]
    return [(w, c) for w, c in own]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[dict], reps: int) -> dict[str, float]:
    """Per-layer metrics from the spans of `reps` traced pipeline runs.

    Times and call counts are per pipeline run; rates are total work over
    total time. Rates in gflops and gb_per_s are computed (counted work over
    busy time), not measured by hardware counters.
    """
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        mine = [(s, st) for s, st in zip(spans, selfs) if s["name"].split(".")[0] == layer]
        wall = sum(st[0] for _, st in mine)
        cpu = sum(st[1] for _, st in mine)
        out[f"{layer}.busy_s"] = wall / reps
        out[f"{layer}.calls"] = len(mine) / reps
        out[f"{layer}.errors"] = float(sum(1 for s, _ in mine if s["error"]))
        out[f"{layer}.cpu_per_wall"] = _ratio(cpu, wall)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["wall_s"] for s in named(name))

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in named(name))

    def last_attr(name, key):
        found = named(name)
        return float(found[-1]["attrs"].get(key, 0)) if found else 0.0

    read_s = total("tensor_store.read_tensor")
    out["tensor_store.read_s"] = read_s / reps
    out["tensor_store.read_mb_per_s"] = _ratio(attr_sum("tensor_store.read_tensor", "bytes") / 1e6, read_s)
    out["tensor_store.manifest_s"] = total("tensor_store.load_manifest") / reps

    kmeans_s = total("codebooks.kmeans_fit")
    kmeans_iters = attr_sum("codebooks.kmeans_fit", "iters")
    out["codebooks.kmeans_s"] = kmeans_s / reps
    out["codebooks.kmeans_iters"] = kmeans_iters / reps
    out["codebooks.kmeans_s_per_iter"] = _ratio(kmeans_s, kmeans_iters)
    out["codebooks.kmeans_gflops"] = _ratio(attr_sum("codebooks.kmeans_fit", "flops") / 1e9, kmeans_s)
    gmm_s = total("codebooks.gmm_fit")
    gmm_iters = attr_sum("codebooks.gmm_fit", "iters")
    out["codebooks.gmm_s"] = gmm_s / reps
    out["codebooks.gmm_iters"] = gmm_iters / reps
    out["codebooks.gmm_s_per_iter"] = _ratio(gmm_s, gmm_iters)

    out["encoders.extract_s"] = total("encoders.extract_descriptors") / reps
    for enc in ("bovw", "vlad", "ifk"):
        name = f"encoders.encode_{enc}"
        out[f"encoders.{enc}_images_per_s"] = _ratio(len(named(name)), total(name))

    out["reduction.pca_fit_s"] = total("reduction.pca_fit") / reps
    out["reduction.pca_apply_s"] = total("reduction.pca_apply") / reps

    train_s = total("head.head_train")
    out["head.train_s"] = train_s / reps
    out["head.epoch_s"] = _ratio(train_s, attr_sum("head.head_train", "epochs"))
    out["head.train_samples_per_s"] = _ratio(attr_sum("head.head_train", "samples"), train_s)
    out["head.train_gflops"] = _ratio(attr_sum("head.head_train", "flops") / 1e9, train_s)
    out["head.feature_images_per_s"] = _ratio(len(named("head.head_feature")), total("head.head_feature"))
    out["head.final_train_acc"] = last_attr("head.head_train", "final_train_acc")

    out["retrieval.build_s"] = total("retrieval.build_index") / reps
    builds = named("retrieval.build_index")
    out["retrieval.index_rows"] = float(max((s["attrs"].get("rows", 0) for s in builds), default=0))
    out["retrieval.index_dim"] = float(max((s["attrs"].get("dim", 0) for s in builds), default=0))

    evaluate_s = total("evaluation.evaluate_dataset")
    out["evaluation.evaluate_s"] = evaluate_s / reps
    out["evaluation.queries_per_s"] = _ratio(attr_sum("evaluation.evaluate_dataset", "queries"), evaluate_s)
    out["evaluation.distance_gb_per_s"] = _ratio(
        attr_sum("evaluation.evaluate_dataset", "distance_bytes") / 1e9, evaluate_s
    )
    out["evaluation.write_report_s"] = total("evaluation.write_report") / reps

    out["cli.encode_s"] = total("cli.encode") / reps
    out["cli.eval_s"] = total("cli.eval") / reps
    out["cli.feature_files"] = last_attr("cli.encode", "feature_files")
    out["cli.sweep_s"] = total("cli.sweep") / reps
    out["cli.sweep_cells"] = last_attr("cli.sweep", "cells")
    out["cli.cache_hit_ratio"] = _ratio(attr_sum("cli.sweep", "hits"), attr_sum("cli.sweep", "cells"))
    return out


def overhead_metrics(traced_walls: list[float], plain_walls: list[float]) -> dict[str, float]:
    """Tracing overhead: median traced wall time minus median untraced wall time."""
    traced = statistics.median(traced_walls)
    plain = statistics.median(plain_walls)
    return {"trace.overhead_s": traced - plain, "trace.overhead_pct": 100.0 * _ratio(traced - plain, plain)}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_mb_per_s"):
        return "MB/s"
    if metric.endswith("_gb_per_s"):
        return "GB/s"
    if metric.endswith("_gflops"):
        return "GFLOP/s"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("_s") or metric.endswith("_per_iter"):
        return "s"
    if metric.endswith(("_per_wall", "_ratio", "_acc")):
        return "ratio"
    return "count"
