"""Retrieval scoring: NMRR/ANMRR, AveP/mAP and P@k over ranked lists.

NMRR penalizes ground-truth images ranked beyond K = 2*NG at 1.25*K and
normalizes the average rank into [0, 1] (0 best). AveP averages the
precision at every ground-truth hit over the ground-truth size. The batch
protocol ranks the whole index for every indexed image (`retrieval.rank`)
with same-class relevance.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .retrieval import Index, rank
from .tensor_store import DatasetManifest

DEFAULT_K_LIST = (5, 10, 50, 100, 1000)


@dataclass(frozen=True)
class QueryJudgment:
    query_id: str
    relevant_ranks: tuple[int, ...]  # 1-based, strictly increasing
    ng: int  # ground-truth size
    list_length: int


@dataclass(frozen=True)
class EvalProtocol:
    self_included: bool = True
    k_list: tuple[int, ...] = DEFAULT_K_LIST


@dataclass(frozen=True)
class PerQueryResult:
    query_id: str
    class_label: str
    nmrr: float
    avep: float
    p_at_k: dict[int, float]  # only k values within the list length


@dataclass(frozen=True)
class EvalReport:
    per_query: tuple[PerQueryResult, ...]
    anmrr: float
    mean_ap: float
    p_at_k: dict[int, float]
    protocol: EvalProtocol
    skipped: tuple[str, ...] = ()


def nmrr(j: QueryJudgment) -> float:
    """Normalized modified retrieval rank in [0, 1]; 0 is a perfect ranking.

    Ranks beyond K = 2*NG are penalized at 1.25*K, as are ground-truth
    images missing from the list entirely (possible only with truncated
    lists).
    """
    if j.ng < 1:
        raise ValueError("ng must be >= 1")
    big_k = 2 * j.ng
    penalty = 1.25 * big_k
    total = sum(r if r <= big_k else penalty for r in j.relevant_ranks)
    total += penalty * (j.ng - len(j.relevant_ranks))
    avg_rank = total / j.ng
    return (avg_rank - 0.5 * (1 + j.ng)) / (penalty - 0.5 * (1 + j.ng))


def mean_score(values) -> float:
    """Arithmetic mean of per-query scores: ANMRR over NMRR, mAP over AveP."""
    values = list(values)
    if not values:
        raise ValueError("mean of an empty list of scores")
    return sum(values) / len(values)


anmrr = mean_ap = mean_score


def average_precision(j: QueryJudgment) -> float:
    """Mean of the precision at each ground-truth hit, over the full NG."""
    if j.ng < 1:
        raise ValueError("ng must be >= 1")
    total = sum((i + 1) / rank for i, rank in enumerate(j.relevant_ranks))
    return total / j.ng


def precision_at_k(j: QueryJudgment, k: int) -> float:
    if not 1 <= k <= j.list_length:
        raise ValueError(f"k must lie in [1, {j.list_length}], got {k}")
    return sum(1 for r in j.relevant_ranks if r <= k) / k


def evaluate_dataset(
    idx: Index, manifest: DatasetManifest, protocol: EvalProtocol | None = None
) -> EvalReport:
    """Query every indexed image; relevance is same-class membership.

    Under self-exclusion a query whose class has a single member has no
    ground truth; such queries are skipped and listed in the report. Each
    block of rankings from `rank` is scored as it comes, as arrays, with the
    same float operations, in the same order, as `nmrr`, `average_precision`
    and `precision_at_k` on each query's hit ranks.
    """
    protocol = protocol or EvalProtocol()
    cls = np.unique(idx.labels, return_inverse=True)[1]
    class_size = np.bincount(cls)
    ng = class_size[cls] - (not protocol.self_included)
    skipped = [i for i, n in zip(idx.ids, ng) if n < 1]
    per_query: list[PerQueryResult] = []
    for blk, orders in rank(idx, np.flatnonzero(ng >= 1), protocol.self_included):
        scores = _block_scores(cls[orders] == cls[blk, None], ng[blk], protocol.k_list)
        for row, nmrr_q, avep_q, p_at_k in zip(blk.tolist(), *scores):
            per_query.append(PerQueryResult(idx.ids[row], idx.labels[row], nmrr_q, avep_q, p_at_k))
    if not per_query:
        raise ValueError("no evaluable queries (every class has a single member?)")
    agg_p = {}
    for k in protocol.k_list:
        vals = [r.p_at_k[k] for r in per_query if k in r.p_at_k]
        if vals:
            agg_p[k] = mean_score(vals)
    return EvalReport(
        per_query=tuple(per_query),
        anmrr=anmrr(r.nmrr for r in per_query),
        mean_ap=mean_ap(r.avep for r in per_query),
        p_at_k=agg_p,
        protocol=protocol,
        skipped=tuple(skipped),
    )


def _block_scores(rel: np.ndarray, ng: np.ndarray, k_list) -> tuple[list, list, list]:
    """NMRR, AveP and P@k dicts of a (queries, list length) relevance block.

    Each ranking holds the whole index, so every ground-truth image is
    found. NMRR totals are integers and half-integers, exact in any order;
    AveP adds its masked `hits so far / rank` terms with a sequential cumsum
    (adding 0.0 is exact), as `average_precision`'s left-to-right sum does.
    """
    length = rel.shape[1]
    ranks = np.arange(1, length + 1)
    hits = np.cumsum(rel, axis=1)  # hits so far at each rank
    big_k = 2 * ng
    penalty = 1.25 * big_k
    total = (np.where(ranks <= big_k[:, None], ranks, penalty[:, None]) * rel).sum(axis=1)
    nmrr_b = (total / ng - 0.5 * (1 + ng)) / (penalty - 0.5 * (1 + ng))
    avep_b = np.cumsum(np.where(rel, hits / ranks, 0.0), axis=1)[:, -1] / ng
    p_cols = {k: (hits[:, k - 1] / k).tolist() for k in k_list if k <= length}
    p_at_k = [{k: col[i] for k, col in p_cols.items()} for i in range(len(ng))]
    return nmrr_b.tolist(), avep_b.tolist(), p_at_k


# ---------------------------------------------------------------------------
# Report emission: score tables and the aggregate CSV (4 decimals, matching
# the result tables) plus a JSON summary at full precision.


def write_scores(path: str | Path, header: list[str], k_list, rows) -> None:
    """The one writer of score tables (per_query.csv, `pca sweep`'s CSV, sweep.csv). Each of
    `rows`, `(lead, scores, p_at_k)`, is written as its lead cells, then each score and P@k for
    each k in k_list to 4 decimals; P@k is blank where k passes the list length (not in p_at_k)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header + [f"P@{k}" for k in k_list])
        for lead, scores, p_at_k in rows:
            writer.writerow(lead + [f"{s:.4f}" for s in scores]
                            + [f"{p_at_k[k]:.4f}" if k in p_at_k else "" for k in k_list])


def write_report(report: EvalReport, out_dir: str | Path) -> None:
    out_dir = Path(out_dir)
    k_list = report.protocol.k_list
    write_scores(out_dir / "per_query.csv", ["query_id", "class", "NMRR", "AveP"], k_list,
                 (([r.query_id, r.class_label], (r.nmrr, r.avep), r.p_at_k)
                  for r in report.per_query))
    with open(out_dir / "aggregate.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        writer.writerow(["ANMRR", f"{report.anmrr:.4f}"])
        writer.writerow(["mAP", f"{report.mean_ap:.4f}"])
        for k in k_list:
            if k in report.p_at_k:
                writer.writerow([f"P@{k}", f"{report.p_at_k[k]:.4f}"])
    summary = {
        "protocol": {"self_included": report.protocol.self_included, "k_list": list(k_list)},
        "ANMRR": report.anmrr,
        "mAP": report.mean_ap,
        "P_at_k": {str(k): v for k, v in report.p_at_k.items()},
        "skipped_queries": list(report.skipped),
        "per_query": [
            {
                "query_id": r.query_id,
                "class": r.class_label,
                "NMRR": r.nmrr,
                "AveP": r.avep,
                "P_at_k": {str(k): v for k, v in r.p_at_k.items()},
            }
            for r in report.per_query
        ],
    }
    (out_dir / "report.json").write_text(json.dumps(summary, indent=2) + "\n")
