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
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .encoders import EncodedFeature, ZERO_NORM_EPS
from .tensor_store import DatasetManifest, load_bundle, save_bundle


@dataclass(frozen=True)
class Index:
    ids: tuple[str, ...]
    matrix: np.ndarray  # (N, d), rows L2-normalized (zero rows kept as-is)
    class_of: dict[str, str]
    encoder_tag: str
    zero_ids: frozenset[str]

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
    """L2-normalize rows in place (zero rows kept as-is); read-only result and zero mask."""
    norms = np.linalg.norm(matrix, axis=1)
    zero = norms <= ZERO_NORM_EPS
    matrix[~zero] /= norms[~zero, None]
    matrix.flags.writeable = False
    return matrix, zero


def build_index(
    features: Mapping[str, EncodedFeature] | Iterable[tuple[str, EncodedFeature]],
    manifest: DatasetManifest,
) -> Index:
    """Assemble the search matrix; rows are re-L2-normalized (idempotent)."""
    items = list(features.items()) if isinstance(features, Mapping) else list(features)
    if not items:
        raise ValueError("cannot build an index from zero features")
    seen: set[str] = set()
    for image_id, _ in items:
        if image_id in seen:
            raise ValueError(f"duplicate id {image_id!r}")
        seen.add(image_id)
        if image_id not in manifest.label_of:
            raise ValueError(f"id {image_id!r} not present in manifest")
    tags = {f.encoder_tag for _, f in items}
    dims = {f.dim for _, f in items}
    if len(tags) > 1:
        raise ValueError(f"mixed encoder tags: {sorted(tags)}")
    if len(dims) > 1:
        raise ValueError(f"mixed feature dimensions: {sorted(dims)}")
    # Deterministic row order: manifest entry order.
    order = [e.image_id for e in manifest.entries if e.image_id in seen]
    by_id = dict(items)
    matrix, zero = _unit_rows(
        np.stack([np.asarray(by_id[i].vector, dtype=np.float64) for i in order])
    )
    zero_ids = frozenset(np.asarray(order)[zero].tolist())
    class_of = {i: manifest.label_of[i] for i in order}
    return Index(tuple(order), matrix, class_of, tags.pop(), zero_ids)


def rank(
    idx: Index, rows: Iterable[int], include_self: bool = True
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Rank the whole index against each query row, one row at a time.

    Yields `(row, order, dists)`: `order` holds the ranked row indices and
    `dists` their float64 distances, ascending, under the module's tie rule.
    With include_self=False the query row is left out of `order`.
    """
    matrix = idx.matrix
    ids = np.asarray(idx.ids)
    id_rank = np.argsort(np.argsort(ids))
    zero = np.isin(ids, list(idx.zero_ids))
    diffs = np.empty_like(matrix)  # one N x d buffer, reused by every query
    for row in rows:
        np.subtract(matrix, matrix[row], out=diffs)
        dists = np.sqrt(np.einsum("nd,nd->n", diffs, diffs))
        if zero[row]:
            dists[~zero] = 1.0
        key = id_rank.copy()
        key[row] = -1  # the query wins its distance-0 tie
        order = np.lexsort((key, dists))
        if not include_self:
            order = order[order != row]
        yield row, order, dists[order]


def save_index(out_dir: str | Path, idx: Index) -> None:
    meta = {
        "ids": list(idx.ids),
        "classes": [idx.class_of[i] for i in idx.ids],
        "encoder_tag": idx.encoder_tag,
        "zero_ids": sorted(idx.zero_ids),
    }
    save_bundle(out_dir, "index", {"matrix": idx.matrix}, meta)


def load_index(index_dir: str | Path) -> Index:
    tensors, meta = load_bundle(index_dir, "index")
    # float32 storage perturbs norms; restore exact unit rows.
    matrix, _ = _unit_rows(tensors["matrix"].copy())
    ids = tuple(meta.per_row("ids", matrix))
    class_of = dict(zip(ids, meta.per_row("classes", matrix)))
    return Index(ids, matrix, class_of, meta["encoder_tag"], frozenset(meta["zero_ids"]))
