"""Independent brute-force transcription of ranking and per-query scoring.

Used to check the package's per-query NMRR and AveP on a seeded sample of
queries. Written from the documented definitions, sharing no code with
``hrrs.retrieval`` or ``hrrs.evaluation``:

- rows are L2-normalized (rows of norm <= 1e-12 are left as they are);
- the ranked list is every indexed id in ascending exact Euclidean distance
  to the query row, ties broken by id, with the query itself first among
  its distance-0 ties (self-included protocol);
- relevance is same-class membership, the query included, so NG is the
  class size;
- NMRR: with K = 2*NG, ranks beyond K count as 1.25*K; the mean rank over
  the NG ground-truth items is normalized as
  (mean - (1 + NG)/2) / (1.25*K - (1 + NG)/2);
- AveP: the sum over ground-truth hits of (hits so far / rank), over NG.

Distances that are mathematically equal can differ in their last bits once
computed in floating point (BOVW histograms tie often), and then no
independent computation can predict the order the package picks. So
candidates whose distances lie within TIE_TOLERANCE of each other form a tie
group. A reported score passes when it lies between the scores of the best
and the worst order of the tie groups (relevant items first or last), which
still catches any misplaced item outside a tie group. A passing score that
differs from the order ties-by-id prescribes is counted as a tie-order
mismatch and reported, not failed.
"""

from __future__ import annotations

import math

import numpy as np

TOLERANCE = 1e-9
TIE_TOLERANCE = 1e-12


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    matrix = np.array(matrix, dtype=np.float64)
    norms = np.sqrt((matrix * matrix).sum(axis=1))
    keep = norms > 1e-12
    matrix[keep] /= norms[keep, None]
    return matrix


def ranked_positions(matrix: np.ndarray, ids: list[str], q: int) -> tuple[list[int], np.ndarray]:
    diffs = matrix - matrix[q]
    dists = np.sqrt((diffs * diffs).sum(axis=1))
    return sorted(range(len(ids)), key=lambda i: (float(dists[i]), i != q, ids[i])), dists


def tie_groups(order: list[int], dists: np.ndarray) -> list[list[int]]:
    groups = [[order[0]]]
    for prev, i in zip(order, order[1:]):
        if dists[i] - dists[prev] <= TIE_TOLERANCE:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def reorder_ties(groups, relevant, q, relevant_first: bool) -> list[int]:
    """Flatten tie groups with relevant items first or last; the query stays first."""
    out = []
    for group in groups:
        head = [i for i in group if i == q]
        rest = [i for i in group if i != q]
        rest.sort(key=lambda i: relevant[i] != relevant_first)  # stable: id order within each kind
        out += head + rest
    return out


def nmrr_avep(order: list[int], labels: list[str], q: int) -> tuple[float, float]:
    relevant_ranks = [r for r, i in enumerate(order, start=1) if labels[i] == labels[q]]
    ng = len(relevant_ranks)
    big_k = 2 * ng
    penalty = 1.25 * big_k
    mean_rank = sum(r if r <= big_k else penalty for r in relevant_ranks) / ng
    nmrr = (mean_rank - 0.5 * (1 + ng)) / (penalty - 0.5 * (1 + ng))
    avep = sum(hit / r for hit, r in enumerate(relevant_ranks, start=1)) / ng
    return nmrr, avep


def _within(value: float, a: float, b: float) -> bool:
    return min(a, b) - TOLERANCE <= value <= max(a, b) + TOLERANCE


def check_queries(rec, what: str, matrix, ids, labels, reported: dict, sample) -> None:
    """Compare reported {id: (nmrr, avep)} with the transcription on `sample`.

    Each sampled query is one checked operation of `rec`; tie-order
    mismatches are added to its counters.
    """
    unit = unit_rows(matrix)
    for q in sample:
        order, dists = ranked_positions(unit, ids, q)
        expected = nmrr_avep(order, labels, q)
        got = reported.get(ids[q])
        if got is not None and all(math.isclose(g, e, rel_tol=0, abs_tol=TOLERANCE) for g, e in zip(got, expected)):
            rec.check(True, "")
            continue
        groups = tie_groups(order, dists)
        relevant = [label == labels[q] for label in labels]
        best = nmrr_avep(reorder_ties(groups, relevant, q, True), labels, q)
        worst = nmrr_avep(reorder_ties(groups, relevant, q, False), labels, q)
        ok = got is not None and all(_within(g, b, w) for g, b, w in zip(got, best, worst))
        rec.counters["tie_order_mismatches"] += ok
        rec.check(ok, f"{what}: query {ids[q]} reported {got}, oracle {expected} (tie range {best}..{worst})")
