"""Visual dictionaries: k-means codebooks and diagonal-covariance GMMs.

Both fits are deterministic given (data, k, seed) and record their objective
at every iteration so convergence behaviour can be audited after the fact:
k-means keeps the per-iteration inertia, EM the per-iteration mean
log-likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor_store import BundleError, load_bundle, save_bundle

# Codebook training on very large descriptor pools works on a seeded uniform
# subsample to bound memory.
SUBSAMPLE_LIMIT = 500_000
VARIANCE_FLOOR = 1e-6
# Default iteration cap and stopping tolerance of both fits (`codebook train`, the sweep).
MAX_ITER = 100
TOL = 1e-4


@dataclass(frozen=True)
class Codebook:
    """k-means centroids plus the inertia recorded at each Lloyd iteration."""

    centroids: np.ndarray  # (k, d) float64
    inertia_history: tuple[float, ...]

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


@dataclass(frozen=True)
class GmmModel:
    """Diagonal-covariance Gaussian mixture with its EM log-likelihood trace."""

    weights: np.ndarray  # (k,)
    means: np.ndarray  # (k, d)
    variances: np.ndarray  # (k, d)
    loglik_history: tuple[float, ...]

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _as_points(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"descriptor set must be 2-D (N, d), got shape {X.shape}")
    return X


def _row_norms(X: np.ndarray) -> np.ndarray:
    return np.einsum("nd,nd->n", X, X)


def _dist_blocks(X: np.ndarray, C: np.ndarray, x2: np.ndarray):
    """Clamped squared distances to C, yielded as (lo, hi, block) row chunks.

    `x2` holds the squared row norms of X. The chunk step bounds a block at
    2**24 values; it is fixed so that every row sees the same BLAS product.
    """
    n, k = X.shape[0], C.shape[0]
    c2 = np.einsum("kd,kd->k", C, C)
    step = max(1, (1 << 24) // max(k, 1))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        block = X[lo:hi] @ C.T
        block *= -2.0
        block += x2[lo:hi, None]
        block += c2
        yield lo, hi, np.maximum(block, 0.0, out=block)


def _nearest(X: np.ndarray, C: np.ndarray, x2: np.ndarray | None = None) -> np.ndarray:
    """Index of the nearest centroid per row; ties resolve to the lowest index."""
    if x2 is None:
        x2 = _row_norms(X)
    labels = np.empty(X.shape[0], dtype=np.intp)
    for lo, hi, block in _dist_blocks(X, C, x2):
        np.argmin(block, axis=1, out=labels[lo:hi])
    return labels


def _assign(X: np.ndarray, C: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid labels and exact squared point-to-centroid distances.

    The expansion in `_dist_blocks` leaves float crumbs, so the point
    distances are recomputed as |x - c|^2 in row chunks of one reused buffer.
    """
    labels = _nearest(X, C, x2)
    n, d = X.shape
    point_d2 = np.empty(n)
    step = max(1, (1 << 16) // max(d, 1))
    buf = np.empty((min(n, step), d))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        diffs = np.subtract(X[lo:hi], C[labels[lo:hi]], out=buf[: hi - lo])
        point_d2[lo:hi] = np.einsum("nd,nd->n", diffs, diffs)
    return labels, point_d2


def _segment_sum(X: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Per-label row sums (k, d), bit-identical to an unbuffered scatter-add into zeros.

    Rows are stable-sorted by label; step r adds the r-th row of every label
    that has more than r rows, so each sum adds its rows in input order from
    0.0, one rounding per row, as numpy's `ufunc.at` does. np.add.reduceat
    and a per-segment np.add.reduce (pairwise when the reduced axis is
    innermost) round differently.
    """
    counts = np.bincount(labels, minlength=k)
    order = np.argsort(labels, kind="stable")
    starts = np.cumsum(counts) - counts
    by_size = np.argsort(-counts, kind="stable")  # active labels form a prefix
    sizes, firsts = counts[by_size], starts[by_size]
    out = np.empty((k, X.shape[1]))
    acc = np.zeros_like(out)
    rows = np.empty_like(out)
    active = k
    for r in range(int(sizes[0])):
        while sizes[active - 1] <= r:
            active -= 1
        np.take(X, order[firsts[:active] + r], axis=0, out=rows[:active])
        np.add(acc[:active], rows[:active], out=acc[:active])
    out[by_size] = acc
    return out


def _kmeans_pp_init(
    X: np.ndarray, x2: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = np.empty(n)
    for lo, hi, block in _dist_blocks(X, centers[:1], x2):
        d2[lo:hi] = block[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[j] = X[idx]
        for lo, hi, block in _dist_blocks(X, centers[j : j + 1], x2):
            np.minimum(d2[lo:hi], block[:, 0], out=d2[lo:hi])
    return centers


def _update_centroids(
    X: np.ndarray, labels: np.ndarray, point_d2: np.ndarray, k: int, old: np.ndarray
) -> np.ndarray:
    counts = np.bincount(labels, minlength=k)
    sums = _segment_sum(X, labels, k)
    new = old.copy()
    nonempty = counts > 0
    new[nonempty] = sums[nonempty] / counts[nonempty, None]
    # Empty clusters are re-seeded to the point currently farthest from its
    # assigned centroid; repeated empties take distinct points.
    if not nonempty.all():
        d2 = point_d2.copy()
        for j in np.flatnonzero(~nonempty):
            far = int(np.argmax(d2))
            new[j] = X[far]
            d2[far] = 0.0
    return new


def _maybe_subsample(X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    if X.shape[0] > SUBSAMPLE_LIMIT:
        return X[rng.choice(X.shape[0], SUBSAMPLE_LIMIT, replace=False)]
    return X


def kmeans_fit(X, k: int, seed: int = 0, max_iter: int = MAX_ITER, tol: float = TOL) -> Codebook:
    """Lloyd's algorithm from k-means++ seeding.

    Stops when the relative inertia decrease falls below `tol` or after
    `max_iter` update steps. Deterministic given (X, k, seed, max_iter, tol).
    """
    return _lloyd(_as_points(X), k, seed, max_iter, tol)[0]


def _lloyd(
    X: np.ndarray, k: int, seed: int, max_iter: int, tol: float
) -> tuple[Codebook, np.ndarray]:
    """`kmeans_fit` on 2-D points; also returns the labels of the final centroids."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if tol < 0:
        raise ValueError("tol must be >= 0")
    rng = np.random.default_rng(seed)
    X = _maybe_subsample(X, rng)
    if X.shape[0] < k:
        raise ValueError(f"insufficient data: {X.shape[0]} points for k={k}")
    x2 = _row_norms(X)
    centers = _kmeans_pp_init(X, x2, k, rng)
    labels, d2 = _assign(X, centers, x2)
    history = [float(d2.sum())]
    for _ in range(max_iter):
        centers = _update_centroids(X, labels, d2, k, centers)
        labels, d2 = _assign(X, centers, x2)
        inertia = float(d2.sum())
        history.append(inertia)
        prev = history[-2]
        if prev == 0.0 or (prev - inertia) < tol * prev:
            break
    centers = centers.copy()
    centers.flags.writeable = False
    return Codebook(centers, tuple(history)), labels


def _log_joint(X: np.ndarray, XX: np.ndarray, weights, means, variances) -> np.ndarray:
    """log(w_j) + log N(x | mu_j, diag var_j) for every point/component pair; XX = X*X."""
    inv = 1.0 / variances
    const = -0.5 * (means.shape[1] * math.log(2.0 * math.pi) + np.log(variances).sum(axis=1))
    quad = XX @ inv.T - 2.0 * (X @ (means * inv).T) + (means * means * inv).sum(axis=1)
    with np.errstate(divide="ignore"):
        logw = np.log(weights)
    return logw + const - 0.5 * quad


def _e_step(X, XX, weights, means, variances) -> tuple[np.ndarray, float]:
    logj = _log_joint(X, XX, weights, means, variances)
    m = logj.max(axis=1, keepdims=True)
    ll = m[:, 0] + np.log(np.exp(logj - m).sum(axis=1))
    resp = np.exp(logj - ll[:, None])
    return resp, float(ll.mean())


def gmm_fit(X, k: int, seed: int = 0, max_iter: int = MAX_ITER, tol: float = TOL) -> GmmModel:
    """Diagonal-covariance EM initialized from a k-means fit.

    Initial means are the centroids, variances the within-cluster variances
    (floored at VARIANCE_FLOOR), weights the cluster fractions. Stops when
    the mean log-likelihood improves by less than `tol`.
    """
    X = _as_points(X)
    rng = np.random.default_rng(seed)
    X = _maybe_subsample(X, rng)
    if X.shape[0] < k:
        raise ValueError(f"insufficient data: {X.shape[0]} points for k={k}")
    n, d = X.shape
    cb, labels = _lloyd(X, k, seed, max_iter, tol)
    counts = np.bincount(labels, minlength=k)
    weights = counts / n
    means = cb.centroids.copy()
    variances = np.full((k, d), VARIANCE_FLOOR)
    # One stable sort groups each cluster's rows, in input order, into a slice.
    groups = np.split(np.argsort(labels, kind="stable"), np.cumsum(counts)[:-1])
    for j in np.flatnonzero(counts):
        variances[j] = np.maximum(((X[groups[j]] - means[j]) ** 2).mean(axis=0), VARIANCE_FLOOR)
    XX = X * X
    history: list[float] = []
    for it in range(max_iter):
        resp, mean_ll = _e_step(X, XX, weights, means, variances)
        history.append(mean_ll)
        if it >= 1 and history[-1] - history[-2] < tol:
            break
        nk = resp.sum(axis=0)
        weights = nk / n
        active = nk > 0
        if active.any():
            mu_new = (resp.T @ X)[active] / nk[active, None]
            ex2 = (resp.T @ XX)[active] / nk[active, None]
            means[active] = mu_new
            variances[active] = np.maximum(ex2 - mu_new**2, VARIANCE_FLOOR)
    for arr in (weights, means, variances):
        arr.flags.writeable = False
    return GmmModel(weights, means, variances, tuple(history))


def gmm_responsibilities(g: GmmModel, X) -> np.ndarray:
    """Posterior component probabilities (N, k), rows summing to 1."""
    X = _as_points(X)
    if X.shape[1] != g.dim:
        raise ValueError(f"expected descriptors of dim {g.dim}, got {X.shape[1]}")
    resp, _ = _e_step(X, X * X, g.weights, g.means, g.variances)
    return resp


# ---------------------------------------------------------------------------
# Bundles: kind "kmeans" (centroids) and kind "gmm" (weights, means,
# variances), each with the fit's objective trace as meta "history".


def save_codebook(out_dir: str | Path, cb: Codebook) -> None:
    meta = {"history": list(cb.inertia_history)}
    save_bundle(out_dir, "kmeans", {"centroids": cb.centroids}, meta)


def load_codebook(model_dir: str | Path) -> Codebook:
    tensors, meta = load_bundle(model_dir, "kmeans")
    return Codebook(tensors.matrix("centroids"), tuple(meta.numbers("history")))


def save_gmm(out_dir: str | Path, g: GmmModel) -> None:
    tensors = {"weights": g.weights, "means": g.means, "variances": g.variances}
    save_bundle(out_dir, "gmm", tensors, {"history": list(g.loglik_history)})


def load_gmm(model_dir: str | Path) -> GmmModel:
    tensors, meta = load_bundle(model_dir, "gmm")
    weights = tensors["weights"]
    means, variances = tensors.matrix("means"), tensors.matrix("variances")
    if weights.ndim != 1 or means.shape != variances.shape or means.shape[0] != weights.shape[0]:
        raise BundleError(
            f"{meta.sidecar}: GMM tensors disagree on k: weights {list(weights.shape)}, "
            f"means {list(means.shape)}, variances {list(variances.shape)}"
        )
    return GmmModel(weights, means, variances, tuple(meta.numbers("history")))
