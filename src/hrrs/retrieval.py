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

from .encoders import ZERO_NORM_EPS, EncodedFeature, stack_features
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
    """L2-normalize rows in place (zero rows kept as-is); read-only result and zero mask."""
    norms = np.linalg.norm(matrix, axis=1)
    zero = norms <= ZERO_NORM_EPS
    matrix[~zero] /= norms[~zero, None]
    matrix.flags.writeable = zero.flags.writeable = False
    return matrix, zero


def build_index(features: Mapping[str, EncodedFeature], manifest: DatasetManifest) -> Index:
    """Assemble the search matrix; rows are re-L2-normalized (idempotent)."""
    for image_id in features:
        if image_id not in manifest.label_of:
            raise ValueError(f"id {image_id!r} not present in manifest")
    # Deterministic row order: manifest entry order.
    order = [e.image_id for e in manifest.entries if e.image_id in features]
    tag, matrix = stack_features(features, order)
    matrix, zero = _unit_rows(matrix)
    labels = tuple(manifest.label_of[i] for i in order)
    return Index(tuple(order), labels, matrix, zero, tag)


def rank(
    idx: Index, rows: Iterable[int], include_self: bool = True
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Rank the whole index against each query row, one row at a time.

    Yields `(row, order, dists)`: `order` holds the ranked row indices and
    `dists` their float64 distances, ascending, under the module's tie rule.
    With include_self=False the query row is left out of `order`.
    """
    matrix, zero = idx.matrix, idx.zero
    id_rank = np.argsort(np.argsort(np.asarray(idx.ids)))
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
        "classes": list(idx.labels),
        "encoder_tag": idx.encoder_tag,
        "zero_ids": sorted(i for i, z in zip(idx.ids, idx.zero) if z),
    }
    save_bundle(out_dir, "index", {"matrix": idx.matrix}, meta)


def load_index(index_dir: str | Path) -> Index:
    """Load an index; `meta.zero_ids` must name exactly the matrix's zero rows."""
    tensors, meta = load_bundle(index_dir, "index")
    # float32 storage perturbs norms; restore exact unit rows.
    matrix, zero = _unit_rows(tensors["matrix"].copy())
    ids = tuple(meta.per_row("ids", matrix))
    labels = tuple(meta.per_row("classes", matrix))
    zero_ids, expected = meta["zero_ids"], sorted(i for i, z in zip(ids, zero) if z)
    if not isinstance(zero_ids, list) or sorted(zero_ids, key=str) != expected:
        raise BundleError(
            f"{meta.sidecar}: field 'meta.zero_ids' must list the ids of exactly the zero "
            f"rows of matrix.ftns ({len(expected)} of {len(ids)} rows)"
        )
    return Index(ids, labels, matrix, zero, meta["encoder_tag"])
