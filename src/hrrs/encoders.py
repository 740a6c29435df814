"""Local-descriptor extraction and the aggregation encoders (BOVW, VLAD, IFK).

A rank-3 feature map [h, w, c] flattens into m = h*w local descriptors of
dimension c (one per spatial site, row-major order). Encoders turn a
descriptor set into a single compact vector:

  bovw  histogram of hard nearest-centroid assignments       -> k values
  vlad  per-centroid sums of descriptor residuals            -> k*d values
  ifk   Fisher vector w.r.t. GMM means and diagonal variances -> 2*k*d values
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .codebooks import Codebook, GmmModel, _nearest, _segment_sum, gmm_responsibilities
from .tensor_store import BundleError, load_bundle, save_bundle

ZERO_NORM_EPS = 1e-12
DEFAULT_ALPHA = 0.5  # IFK power-normalization exponent


@dataclass(frozen=True)
class EncodedFeature:
    vector: np.ndarray
    encoder_tag: str
    normalized: bool

    @property
    def dim(self) -> int:
        return self.vector.shape[0]


def extract_descriptors(feature_map: np.ndarray, apply_relu: bool = False) -> np.ndarray:
    """Flatten a [h, w, c] feature map into (h*w, c) local descriptors."""
    fmap = np.asarray(feature_map, dtype=np.float64)
    if fmap.ndim != 3:
        raise ValueError(f"feature map must be rank 3 [h, w, c], got rank {fmap.ndim}")
    h, w, c = fmap.shape
    descriptors = fmap.reshape(h * w, c)
    if apply_relu:
        descriptors = np.maximum(descriptors, 0.0)
    return descriptors


def power_normalize(v: np.ndarray, alpha: float) -> np.ndarray:
    """Signed power normalization sign(z) * |z|**alpha."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.abs(v) ** alpha


def l2_normalize(v: np.ndarray) -> tuple[np.ndarray, bool]:
    """Return (v / ||v||, True), or (v, False) when the norm is ~zero."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm <= ZERO_NORM_EPS:
        return v, False
    return v / norm, True


def _check_descriptors(descriptors: np.ndarray, dim: int) -> np.ndarray:
    X = np.asarray(descriptors, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"descriptors must be 2-D (m, n), got shape {X.shape}")
    if X.shape[0] == 0:
        raise ValueError("empty descriptor set (no spatial sites)")
    if X.shape[1] != dim:
        raise ValueError(f"descriptor dim {X.shape[1]} does not match model dim {dim}")
    return X


def encode_bovw(cb: Codebook, descriptors: np.ndarray) -> EncodedFeature:
    """L2-normalized histogram of hard assignments over the codebook."""
    X = _check_descriptors(descriptors, cb.dim)
    counts = np.bincount(_nearest(X, cb.centroids), minlength=cb.k).astype(np.float64)
    vec, normalized = l2_normalize(counts)
    return EncodedFeature(vec, "bovw", normalized)


def vlad_residuals(cb: Codebook, descriptors: np.ndarray) -> np.ndarray:
    """Raw VLAD matrix (k, d): per-cluster sums of (x - centroid) residuals."""
    X = _check_descriptors(descriptors, cb.dim)
    labels = _nearest(X, cb.centroids)
    return _segment_sum(X - cb.centroids[labels], labels, cb.k)


def encode_vlad(cb: Codebook, descriptors: np.ndarray) -> EncodedFeature:
    """Concatenated residual sums, globally L2-normalized (k*d values)."""
    raw = vlad_residuals(cb, descriptors).ravel()
    vec, normalized = l2_normalize(raw)
    return EncodedFeature(vec, "vlad", normalized)


def fisher_vector_raw(g: GmmModel, descriptors: np.ndarray) -> np.ndarray:
    """Unnormalized Fisher vector w.r.t. means and diagonal variances (2*k*d).

    For component j and dimension r, with responsibilities gamma_i(j) and
    sigma = sqrt(variance):

      mean part     (1 / (m*sqrt(w_j)))   * sum_i gamma_i(j) * (x_ir - mu_jr) / sigma_jr
      variance part (1 / (m*sqrt(2 w_j))) * sum_i gamma_i(j) * ((x_ir - mu_jr)^2 / sigma_jr^2 - 1)
    """
    X = _check_descriptors(descriptors, g.dim)
    m = X.shape[0]
    resp = gmm_responsibilities(g, X)
    s0 = resp.sum(axis=0)  # (k,)
    s1 = resp.T @ X  # (k, d)
    s2 = resp.T @ (X * X)  # (k, d)
    mu, var = g.means, g.variances
    sigma = np.sqrt(var)
    w = g.weights
    active = w > 0
    wsafe = np.where(active, w, 1.0)
    g_mu = (s1 - s0[:, None] * mu) / sigma / (m * np.sqrt(wsafe))[:, None]
    g_var = (s2 - 2.0 * mu * s1 + s0[:, None] * (mu * mu - var)) / var
    g_var /= (m * np.sqrt(2.0 * wsafe))[:, None]
    g_mu[~active] = 0.0
    g_var[~active] = 0.0
    return np.concatenate([g_mu.ravel(), g_var.ravel()])


def encode_ifk(g: GmmModel, descriptors: np.ndarray, alpha: float = DEFAULT_ALPHA) -> EncodedFeature:
    """Improved Fisher kernel: signed power normalization then global L2."""
    raw = fisher_vector_raw(g, descriptors)
    vec, normalized = l2_normalize(power_normalize(raw, alpha))
    return EncodedFeature(vec, "ifk", normalized)


def encode_fc(fc_vector: np.ndarray, apply_relu: bool = False) -> EncodedFeature:
    """L2-normalized fully-connected activation vector (optional ReLU first)."""
    v = np.asarray(fc_vector, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("empty Fc vector")
    if apply_relu:
        v = np.maximum(v, 0.0)
    vec, normalized = l2_normalize(v)
    return EncodedFeature(vec, "fc_raw", normalized)


# ---------------------------------------------------------------------------
# Feature sets: row r of one (N, d) float64 matrix is image ids[r], with the
# ids sorted and distinct. A "features" bundle stores the matrix in float32;
# meta holds the ids, the encoder tag and the per-row normalization flags.


@dataclass(frozen=True)
class FeatureSet:
    ids: tuple[str, ...]  # sorted, distinct
    tag: str
    matrix: np.ndarray  # (N, d) float64, row r is ids[r]
    normalized: tuple[bool, ...]


def feature_set(sources: Mapping, encode: Callable = lambda feature: feature) -> FeatureSet:
    """Encode `sources` (id -> source) in sorted-id order into one preallocated float64
    matrix, holding one vector at a time; `encode(source)` gives an EncodedFeature.
    The one check of a feature set: non-empty, one encoder tag, one dimension."""
    ids = tuple(sorted(sources))
    if not ids:
        raise ValueError("empty feature set")
    first = encode(sources[ids[0]])
    tag, matrix, normalized = first.encoder_tag, np.empty((len(ids), first.dim)), []
    for r, image_id in enumerate(ids):
        feat = encode(sources[image_id]) if r else first
        if feat.encoder_tag != tag:
            raise ValueError(f"mixed encoder tags: {sorted({tag, feat.encoder_tag})}")
        if feat.dim != first.dim:
            raise ValueError(f"mixed feature dimensions: {sorted({first.dim, feat.dim})}")
        matrix[r] = feat.vector
        normalized.append(feat.normalized)
    return FeatureSet(ids, tag, matrix, tuple(normalized))


def save_features(out_dir: str | Path, fs: FeatureSet) -> Path:
    """Write the feature set as one bundle; returns the sidecar path."""
    meta = {"encoder_tag": fs.tag, "ids": list(fs.ids), "normalized": list(fs.normalized)}
    return save_bundle(out_dir, "features", {"matrix": fs.matrix.astype(np.float32)}, meta)


def load_features(feature_dir: str | Path) -> FeatureSet:
    """Load a feature set; `meta.ids` must be sorted and distinct, as `save_features` writes."""
    tensors, meta = load_bundle(feature_dir, "features")
    stored = tensors.matrix("matrix")
    ids = tuple(meta.per_row("ids", stored, str))
    if any(a >= b for a, b in zip(ids, ids[1:])):
        raise BundleError(
            f"{meta.sidecar}: field 'meta.ids' must list distinct ids in sorted order"
        )
    normalized = tuple(meta.per_row("normalized", stored, bool))
    return FeatureSet(ids, meta["encoder_tag"], stored, normalized)
