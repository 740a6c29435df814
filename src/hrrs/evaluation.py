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
    ground truth; such queries are skipped and listed in the report.
    """
    protocol = protocol or EvalProtocol()
    cls = np.unique(idx.labels, return_inverse=True)[1]
    class_size = np.bincount(cls)
    ng = class_size[cls] - (not protocol.self_included)
    skipped = [i for i, n in zip(idx.ids, ng) if n < 1]
    per_query: list[PerQueryResult] = []
    for row, order, _ in rank(idx, np.flatnonzero(ng >= 1), protocol.self_included):
        hits = np.flatnonzero(cls[order] == cls[row]) + 1
        j = QueryJudgment(idx.ids[row], tuple(hits.tolist()), int(ng[row]), len(order))
        p_at_k = {k: precision_at_k(j, k) for k in protocol.k_list if k <= j.list_length}
        per_query.append(
            PerQueryResult(j.query_id, idx.labels[row], nmrr(j), average_precision(j), p_at_k)
        )
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


# ---------------------------------------------------------------------------
# Report emission: per-query and aggregate CSVs (4 decimals, matching the
# result tables) plus a JSON summary at full precision.


def score_cells(scores, p_at_k: dict[int, float], k_list) -> list[str]:
    """CSV cells of one score row: each score, then P@k for each k in k_list,
    to 4 decimals; P@k is blank where k exceeds the ranked list's length."""
    return [f"{s:.4f}" for s in scores] + [
        f"{p_at_k[k]:.4f}" if k in p_at_k else "" for k in k_list
    ]


def write_report(report: EvalReport, out_dir: str | Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    k_list = report.protocol.k_list
    with open(out_dir / "per_query.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "class", "NMRR", "AveP"] + [f"P@{k}" for k in k_list])
        for r in report.per_query:
            cells = score_cells((r.nmrr, r.avep), r.p_at_k, k_list)
            writer.writerow([r.query_id, r.class_label] + cells)
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
