"""Exhaustive nearest-neighbor search over L2-normalized features.

`rank` is the one ranking engine: `hrrs query` (single id, per-file and long
batch modes), `evaluate_dataset` and, through it, `pca sweep` and `sweep` all
consume its output. Distances are plain Euclidean; for unit vectors ascending
distance order equals descending cosine-similarity order.

Tie rule: ties in the computed float64 distance break by id; the query ranks
first when included. Distances that are mathematically equal but round
differently (for example permuted BOVW histograms) follow their computed
value. A zero query row sits at exactly 1 from every unit row, so zero-row
queries list the other zero rows (distance 0) first, then the unit rows by id.

"The computed distance" is `distances`, the one exact expression:
`sqrt(sum((M[j] - M[q])**2))` per row. `rank` does not evaluate it for every
pair. It screens blocks of queries with one Gram tile, `|q|^2 + |m|^2 - 2 q.m`
(one matrix product per block, as in exhaustive GEMM search), and calls
`distances` only for runs of columns whose Gram values lie too close to order
safely (`_tie_margin` bounds both rounding errors). The orders equal those of
the exact expression everywhere; printed distances come from `distances`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .encoders import ZERO_NORM_EPS, EncodedFeature, FeatureSet, feature_set
from .tensor_store import BundleError, DatasetManifest, load_bundle, save_bundle


@dataclass(frozen=True)
class Index:
    ids: tuple[str, ...]
    labels: tuple[str, ...]  # class of each row
    matrix: np.ndarray  # (N, d), rows L2-normalized (zero rows kept as-is)
    zero: np.ndarray  # (N,) bool: the rows `_unit_rows` found zero
    encoder_tag: str

    @property
    def size(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def row(self, image_id: str) -> int:
        try:
            return self.ids.index(image_id)
        except ValueError:
            raise KeyError(f"unknown query id {image_id!r}") from None


def _unit_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L2-normalize rows in place (zero rows kept as-is); read-only result and zero mask.
    Norms go in row chunks of at most TILE_BYTES: no other N x d array is made."""
    norms = np.empty(len(matrix))
    step = max(1, TILE_BYTES // (8 * max(1, matrix.shape[1])))
    for lo in range(0, len(matrix), step):
        norms[lo : lo + step] = np.linalg.norm(matrix[lo : lo + step], axis=1)
    zero = norms <= ZERO_NORM_EPS
    np.divide(matrix, norms[:, None], out=matrix, where=~zero[:, None])
    matrix.flags.writeable = zero.flags.writeable = False
    return matrix, zero


def index_rows(fs: FeatureSet, manifest: DatasetManifest) -> Index:
    """The search matrix: the set's rows in manifest entry order, taken in one copy and
    re-L2-normalized (idempotent)."""
    row_of = {image_id: r for r, image_id in enumerate(fs.ids)}
    for image_id in fs.ids:
        if image_id not in manifest.label_of:
            raise ValueError(f"id {image_id!r} not present in manifest")
    order = [e.image_id for e in manifest.entries if e.image_id in row_of]
    matrix, zero = _unit_rows(fs.matrix[[row_of[i] for i in order]])
    labels = tuple(manifest.label_of[i] for i in order)
    return Index(tuple(order), labels, matrix, zero, fs.tag)


def build_index(features: Mapping[str, EncodedFeature], manifest: DatasetManifest) -> Index:
    """`index_rows` of a mapping of per-image features."""
    return index_rows(feature_set(features), manifest)


# Byte budget of one ranking block: its Gram tile plus any copy of its query
# rows (and, in `distances`, one chunk of difference rows). Few large blocks
# beat many small ones: each multithreaded BLAS call has a fixed cost.
TILE_BYTES = 8 << 20


def distances(idx: Index, row: int, cols) -> np.ndarray:
    """Euclidean distances from row `row` to rows `cols`: the exact expression.

    `sqrt(sum((M[cols] - M[row])**2))`, row by row, in chunks of at most
    TILE_BYTES; a zero query sits at exactly 1 from every unit row.
    """
    matrix, cols = idx.matrix, np.asarray(cols, dtype=np.intp)
    out = np.ones(cols.size)
    todo = np.flatnonzero(idx.zero[cols]) if idx.zero[row] else np.arange(cols.size)
    step = max(1, TILE_BYTES // (8 * idx.dim))
    for start in range(0, todo.size, step):
        part = todo[start : start + step]
        diffs = matrix[cols[part]] - matrix[row]
        out[part] = np.sqrt(np.einsum("nd,nd->n", diffs, diffs))
    return out


def _tie_margin(dim: int, sq_max: float) -> float:
    """Gap between two sorted Gram values above which `distances` orders them alike.

    Let u be the unit roundoff, g = (d+2)u / (1 - (d+2)u) and r^2 = sq_max /
    (1 - g) a bound on every squared row norm. A computed dot product of
    length d errs by at most g * sum|x_i y_i| <= g r^2 in any summation order
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1). For
    the true squared distance D = |q|^2 + |m|^2 - 2 q.m:
    - the Gram value S = (-2G + sq_m) + sq_q errs by at most 4g r^2 from its
      three dot products and 8u r^2 <= 8g r^2 from its two additions (operands
      below 3r^2 and 4r^2, with slack): |S - D| <= 12 g r^2;
    - the exact expression rounds each difference once and then sums d
      squares, so its squared sum a errs by at most g D <= 4g r^2;
    - sqrt is correctly rounded and monotone; for a < b <= 4r^2(1 + g) it
      keeps the order strict once b - a > u (sqrt(a) + sqrt(b))^2, which
      holds for b - a > 17u r^2 <= 6g r^2.
    So S_k - S_j > 2(12 + 4) g r^2 + 6g r^2 = 38 g r^2 implies a strictly
    smaller exact distance for j. The margin is 2 * 20 g sq_max, which covers
    the factors 1/(1 - g) and (1 + u) from r^2 and the rounding of the gap.
    """
    u = np.finfo(np.float64).eps / 2
    g = (dim + 2) * u / (1 - (dim + 2) * u)
    return 2 * 20 * g * sq_max


def rank(
    idx: Index, rows: Iterable[int], include_self: bool = True
) -> Iterator[tuple[int, np.ndarray]]:
    """Rank the whole index against each query row; yields `(row, order)`.

    `order` holds the ranked row indices under the module's tie rule; with
    include_self=False the query row is left out. Blocks of query rows go
    through one Gram tile `S = sq[q] + sq - 2 M[q] @ M.T`; every run of
    sorted Gram values whose adjacent gaps are within `_tie_margin` is
    re-sorted by (`distances`, id). Zero-row queries use `distances` alone.
    """
    matrix, zero, n = idx.matrix, idx.zero, idx.size
    rows = np.fromiter(rows, dtype=np.intp)
    by_id = np.argsort(np.asarray(idx.ids))  # column permutation into id order
    id_pos = np.argsort(by_id)  # each row's column in id order
    sq = np.einsum("nd,nd->n", matrix, matrix)
    margin = _tie_margin(idx.dim, sq.max(initial=0.0))
    # A consecutive run of rows is sliced, not copied, block by block.
    sliced = bool(rows.size) and bool((np.diff(rows) == 1).all())
    block = max(1, TILE_BYTES // (8 * (n + (0 if sliced else idx.dim))))
    for b0 in range(0, rows.size, block):
        blk = rows[b0 : b0 + block]
        queries = matrix[blk[0] : blk[-1] + 1] if sliced else matrix[blk]
        tile = queries @ matrix.T
        tile *= -2.0
        tile += sq
        tile += sq[blk, None]
        for gram, row in zip(tile, blk.tolist()):
            # A zero query's distances are exact and cheap: 1 to every unit row.
            key = distances(idx, row, by_id) if zero[row] else gram[by_id]
            key[id_pos[row]] = -np.inf  # the query wins its distance-0 tie
            order = np.argsort(key, kind="stable")
            if not zero[row]:
                close = np.diff(key[order]) <= margin
                if close.any():
                    _refine(idx, row, order, close, by_id)
            order = by_id[order]
            yield row, order if include_self else order[1:]


def _refine(idx: Index, row: int, order: np.ndarray, close: np.ndarray, by_id: np.ndarray):
    """Re-sort, in place, the slots of `order` (id positions) in runs of near
    ties (`close[k]` joins slots k and k+1) by (exact distance, id).

    One sort serves every run: runs are separated by more than the margin, so
    each run's exact distances lie strictly below the next run's.
    """
    member = np.zeros(order.size, dtype=bool)
    member[:-1] = close
    member[1:] |= close
    slots = np.flatnonzero(member)
    pos = np.sort(order[slots])
    order[slots] = pos[np.argsort(distances(idx, row, by_id[pos]), kind="stable")]


def save_index(out_dir: str | Path, idx: Index) -> None:
    meta = {
        "ids": list(idx.ids),
        "classes": list(idx.labels),
        "encoder_tag": idx.encoder_tag,
        "zero_ids": sorted(i for i, z in zip(idx.ids, idx.zero) if z),
    }
    save_bundle(out_dir, "index", {"matrix": idx.matrix}, meta)


def load_index(index_dir: str | Path) -> Index:
    """Load an index; `meta.zero_ids` must name exactly the matrix's zero rows."""
    tensors, meta = load_bundle(index_dir, "index")
    # float32 storage perturbs norms; restore exact unit rows.
    matrix, zero = _unit_rows(tensors.matrix("matrix").copy())
    ids = tuple(meta.per_row("ids", matrix, str))
    if len(set(ids)) != len(ids):
        raise BundleError(f"{meta.sidecar}: field 'meta.ids' must not repeat an id")
    labels = tuple(meta.per_row("classes", matrix, str))
    zero_ids, expected = meta["zero_ids"], sorted(i for i, z in zip(ids, zero) if z)
    if not isinstance(zero_ids, list) or sorted(zero_ids, key=str) != expected:
        raise BundleError(
            f"{meta.sidecar}: field 'meta.zero_ids' must list the ids of exactly the zero "
            f"rows of matrix.ftns ({len(expected)} of {len(ids)} rows)"
        )
    return Index(ids, labels, matrix, zero, meta["encoder_tag"])
