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

from .tensor_store import PASS_BYTES, TILE_BYTES, BundleError, load_bundle, save_bundle, row_tiles

# Both fits of a larger descriptor pool work on a seeded subsample (`_fit_points`) to bound memory.
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


def _row_norms(X: np.ndarray) -> np.ndarray:
    return np.einsum("nd,nd->n", X, X)


def _dist_blocks(X: np.ndarray, C: np.ndarray, x2: np.ndarray):
    """Clamped squared distances to C, yielded as (lo, hi, block) row tiles.

    `x2` holds the squared row norms of X. A tile's rows of X and of the block fit TILE_BYTES,
    above `row_tiles`' floor, so each row keeps one product's bits. A one-centre product (k-means++
    seeding) stays one call: 14 of 16 row tilings (15 with 2 threads) changed its bits.
    """
    (n, d), k = X.shape, C.shape[0]
    c2 = np.einsum("kd,kd->k", C, C)
    for lo, hi in row_tiles(n, 8 * (d + k), TILE_BYTES, d * k) if k > 1 else [(0, n)]:
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


def _residuals(X: np.ndarray, C: np.ndarray, labels: np.ndarray):
    """X - C[labels], yielded as (lo, hi, rows) over PASS_BYTES row tiles of one reused buffer."""
    tiles = row_tiles(X.shape[0], 8 * X.shape[1], PASS_BYTES)
    buf = np.empty((tiles[0][1], X.shape[1]))
    for lo, hi in tiles:
        yield lo, hi, np.subtract(X[lo:hi], C[labels[lo:hi]], out=buf[: hi - lo])


def _assign(X: np.ndarray, C: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid labels and exact squared point-to-centroid distances.

    The expansion in `_dist_blocks` leaves float crumbs, so the point distances are recomputed
    as |x - c|^2, one `_residuals` tile at a time."""
    labels = _nearest(X, C, x2)
    point_d2 = np.empty(X.shape[0])
    for lo, hi, diffs in _residuals(X, C, labels):
        point_d2[lo:hi] = np.einsum("nd,nd->n", diffs, diffs)
    return labels, point_d2


def _segment_sum(X: np.ndarray, labels: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """Per-label row sums (k, d) added into `out` (zeros by default), as an unbuffered scatter-add.

    Rank r holds the r-th row, in input order, of each label with more than r rows, a prefix of
    the labels in by-size order; one add into that prefix of a (k, d) accumulator serves it, so
    each sum adds its rows in input order onto its start (np.add.reduceat and reduces do not),
    and calls on consecutive row tiles with one `out` add them as one call does.
    """
    n, d = X.shape
    counts = np.bincount(labels, minlength=k)
    order = np.argsort(labels, kind="stable")
    grouped = labels[order]
    rank = np.arange(n) - (np.cumsum(counts) - counts)[grouped]
    by_size = np.argsort(-counts, kind="stable")
    place = np.argsort(by_size)  # each label's place by size
    order = order[np.lexsort((place[grouped], rank))]  # rank-major
    ends = np.cumsum(np.bincount(rank))  # where each rank's rows end in `order`
    buf = np.empty((min(n, max(k, PASS_BYTES // (8 * d))), d))  # holds whole ranks
    acc = np.zeros((k, d)) if out is None else out[by_size]
    lo = hi = 0  # `buf` holds rows [lo, hi)
    for a, b in zip([0, *ends[:-1].tolist()], ends.tolist()):  # one rank: rows [a, b)
        if b > hi:  # gather the most whole ranks from row a that fit; "clip" skips a copy
            lo, hi = a, int(ends[np.searchsorted(ends, a + len(buf), side="right") - 1])
            np.take(X, order[lo:hi], axis=0, out=buf[: hi - lo], mode="clip")
        head = acc[: b - a]
        np.add(head, buf[a - lo : b - lo], head)  # `out` positionally: a cheaper call
    return np.take(acc, place, axis=0, out=out)


def _kmeans_pp_init(
    X: np.ndarray, x2: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    d2 = np.full(n, np.inf)  # squared distance to the nearest center placed so far
    for j in range(k):
        total = d2.sum()
        centers[j] = X[rng.choice(n, p=d2 / total) if j and total > 0 else rng.integers(n)]
        if j + 1 < k:
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


def _fit_points(X, seed: int) -> np.ndarray:
    """The one subsample rule of both fits: a fit of X is the fit of this seeded uniform
    subsample of SUBSAMPLE_LIMIT rows, or of X when it has no more; rows are taken, then widened."""
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError(f"descriptor set must be 2-D (N, d), got shape {X.shape}")
    if X.shape[0] > SUBSAMPLE_LIMIT:
        X = X[np.random.default_rng(seed).choice(X.shape[0], SUBSAMPLE_LIMIT, replace=False)]
    return np.asarray(X, dtype=np.float64)


def _check_fit(X: np.ndarray, k: int, max_iter: int, tol: float) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if X.shape[0] < k:
        raise ValueError(f"insufficient data: {X.shape[0]} points for k={k}")


def kmeans_fit(X, k: int, seed: int = 0, max_iter: int = MAX_ITER, tol: float = TOL) -> Codebook:
    """Lloyd's algorithm from k-means++ seeding drawn from a fresh `default_rng(seed)`.

    Stops when the relative inertia decrease falls below `tol` or after
    `max_iter` update steps. Deterministic given (X, k, seed, max_iter, tol).
    """
    X = _fit_points(X, seed)
    _check_fit(X, k, max_iter, tol)
    x2 = _row_norms(X)
    centers = _kmeans_pp_init(X, x2, k, np.random.default_rng(seed))
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
    centers.flags.writeable = False
    return Codebook(centers, tuple(history))


def _em_pass(X, weights, means, variances) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The one E-step, as expected sufficient statistics: the responsibilities' column sums
    nk (k,), per-row log-likelihoods (n,) and the moment sums s1 = resp.T @ X and
    s2 = resp.T @ (X * X), in one pass over products' `row_tiles` of X, with no (n, k) array.

    Each tile squares its rows into one reused buffer and writes its log-joint
    log(w_j) + log N(x | mu_j, diag var_j), in place, then its responsibilities after row 0 of one
    reused (rows + 1, k) buffer, and sums that buffer's used rows over axis 0 into row 0 (0.0 at
    first). numpy sums axis 0 of k >= 2 columns row by row, so the last sum, nk, has the bits of
    `resp.sum(axis=0)` over the pool; at k = 1 every responsibility is 1.0, and the pairwise sum
    of one column is exact. s1 and s2 add the tiles' products in tile order, the first
    assigned: one tile keeps one product's bits, more sum in another order.
    """
    n, d = X.shape
    k = means.shape[0]
    inv = 1.0 / variances
    const = -0.5 * (d * math.log(2.0 * math.pi) + np.log(variances).sum(axis=1))
    scaled, offset = (means * inv).T, (means * means * inv).sum(axis=1)
    with np.errstate(divide="ignore"):
        lead = np.log(weights) + const
    tiles = row_tiles(n, 8 * d, TILE_BYTES, d * k)
    rows = tiles[0][1]  # the first tile is the largest
    squares, scratch = np.empty((rows, d)), np.empty((rows, k))
    buf, loglik = np.zeros((rows + 1, k)), np.empty(n)
    for lo, hi in tiles:
        x, xx, tmp = X[lo:hi], squares[: hi - lo], scratch[: hi - lo]
        np.multiply(x, x, out=xx)
        logj = np.matmul(xx, inv.T, out=buf[1 : hi - lo + 1])  # then - 2 x @ scaled + offset
        cross = np.matmul(x, scaled, out=tmp)
        cross *= 2.0
        logj -= cross
        logj += offset
        logj *= 0.5
        np.subtract(lead, logj, out=logj)
        top = logj.max(axis=1, keepdims=True)
        np.subtract(logj, top, out=tmp)
        ll = np.add(top[:, 0], np.log(np.exp(tmp, out=tmp).sum(axis=1)), out=loglik[lo:hi])
        logj -= ll[:, None]
        np.exp(logj, out=logj)
        buf[0] = buf[: hi - lo + 1].sum(axis=0)
        if lo == 0:
            s1, s2 = logj.T @ x, logj.T @ xx
        else:
            s1 += logj.T @ x
            s2 += logj.T @ xx
    return buf[0].copy(), loglik, s1, s2


def gmm_fit(X, k: int, seed: int = 0, max_iter: int = MAX_ITER, tol: float = TOL) -> GmmModel:
    """`gmm_em` from `kmeans_fit(X, k, seed, max_iter, tol)`, on X subsampled and widened once."""
    X = _fit_points(X, seed)
    return gmm_em(X, kmeans_fit(X, k, seed, max_iter, tol), seed, max_iter, tol)


def gmm_em(X, codebook: Codebook, seed: int, max_iter: int, tol: float) -> GmmModel:
    """Diagonal-covariance EM from a k-means codebook of X, subsampled by `kmeans_fit`'s rule.

    Each point starts in its nearest centroid's cluster: initial means are the
    centroids, variances the within-cluster variances (floored at
    VARIANCE_FLOOR), weights the cluster fractions. Stops when the mean
    log-likelihood improves by less than `tol` or after `max_iter` E-steps.

    Each iteration is one `_em_pass`: column sums nk (with the bits of one `resp.sum(axis=0)`,
    by numpy's row-by-row axis-0 order, which the variance init below keeps too), log-likelihoods
    and moment sums. On a pool of several tiles the moment sums round differently from one
    product over the pool: after 6 iterations, weights, means, variances and log-likelihoods
    stay within 1e-12 of it as max |difference| over max |value|.
    """
    X = _fit_points(X, seed)
    n, d = X.shape
    k = codebook.k
    _check_fit(X, k, max_iter, tol)
    if codebook.dim != d:
        raise ValueError(f"codebook of k={k} has dim {codebook.dim}; the descriptors have dim {d}")
    labels = _nearest(X, codebook.centroids)
    counts = np.bincount(labels, minlength=k)
    weights = counts / n
    means = codebook.centroids.copy()
    # Sum each cluster's squared deviations as its rows' mean over axis 0 does: in input order from
    # 0.0 (here a `_residuals` tile at a time, copying no cluster), but pairwise for one column.
    variances = np.zeros((k, d))  # the sums, then the variances
    if d == 1:
        for j in np.flatnonzero(counts):
            variances[j] = np.square(X[labels == j] - means[j]).sum(axis=0)
    else:
        for lo, hi, dev in _residuals(X, means, labels):
            _segment_sum(np.multiply(dev, dev, out=dev), labels[lo:hi], k, variances)
        del dev  # the tile buffer, before EM
    variances[counts > 0] /= counts[counts > 0, None]
    np.maximum(variances, VARIANCE_FLOOR, out=variances)
    history: list[float] = []
    for it in range(max_iter):
        nk, loglik, s1, s2 = _em_pass(X, weights, means, variances)
        history.append(float(loglik.mean()))
        if it >= 1 and history[-1] - history[-2] < tol:
            break
        weights = nk / n
        active = nk > 0
        if active.any():
            mu_new = s1[active] / nk[active, None]
            ex2 = s2[active] / nk[active, None]
            means[active] = mu_new
            variances[active] = np.maximum(ex2 - mu_new**2, VARIANCE_FLOOR)
    for arr in (weights, means, variances):
        arr.flags.writeable = False
    return GmmModel(weights, means, variances, tuple(history))


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
