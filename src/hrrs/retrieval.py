"""Exhaustive nearest-neighbor search over L2-normalized features.

Distances are plain Euclidean; for unit vectors ascending distance order
equals descending cosine-similarity order. Ties break lexicographically by
image id, except that the query itself (when included) always ranks first.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

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


@dataclass(frozen=True)
class RankedList:
    query_id: str
    ranked: tuple[tuple[str, float], ...]  # (id, distance), ascending
    self_included: bool


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
    matrix = np.stack([np.asarray(by_id[i].vector, dtype=np.float64) for i in order])
    norms = np.linalg.norm(matrix, axis=1)
    zero = norms <= ZERO_NORM_EPS
    matrix[~zero] /= norms[~zero, None]
    matrix.flags.writeable = False
    zero_ids = frozenset(np.asarray(order)[zero].tolist())
    class_of = {i: manifest.label_of[i] for i in order}
    return Index(tuple(order), matrix, class_of, tags.pop(), zero_ids)


def query(idx: Index, query_id: str, include_self: bool = True) -> RankedList:
    """Full ascending sort by Euclidean distance to the query row.

    Ties break by id, except the query itself wins its distance-0 tie when
    included; with include_self=False the query row is dropped.
    """
    try:
        pos = idx.ids.index(query_id)
    except ValueError:
        raise KeyError(f"unknown query id {query_id!r}") from None
    diffs = idx.matrix - idx.matrix[pos]
    dists = np.sqrt(np.einsum("nd,nd->n", diffs, diffs))
    ids = np.asarray(idx.ids)
    not_self = ids != query_id
    order = np.lexsort((ids, not_self, dists))  # keys: dist, then self-first, then id
    ranked = []
    for i in order:
        if not include_self and not not_self[i]:
            continue
        ranked.append((str(ids[i]), float(dists[i])))
    return RankedList(query_id, tuple(ranked), include_self)


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
    matrix = tensors["matrix"].copy()
    ids = tuple(meta.per_row("ids", matrix))
    class_of = dict(zip(ids, meta.per_row("classes", matrix)))
    norms = np.linalg.norm(matrix, axis=1)
    zero = norms <= ZERO_NORM_EPS
    matrix[~zero] /= norms[~zero, None]
    matrix.flags.writeable = False
    return Index(ids, matrix, class_of, meta["encoder_tag"], frozenset(meta["zero_ids"]))
