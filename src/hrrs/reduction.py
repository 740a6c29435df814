"""PCA projection of high-dimensional features to compact vectors."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .tensor_store import BundleError, load_bundle, save_bundle


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray  # (D,)
    components: np.ndarray  # (d, D), orthonormal rows
    explained_variance: np.ndarray  # (d,), nonincreasing

    @property
    def in_dim(self) -> int:
        return self.mean.shape[0]

    @property
    def out_dim(self) -> int:
        return self.components.shape[0]


def max_axes(n: int, dim: int) -> int:
    """The most principal axes N rows of D-dimensional data have: centred, they span at most
    N - 1 axes."""
    return min(n - 1, dim)


def check_axes(n: int, dim: int, d: int) -> None:
    """`pca_fit`'s checks of N rows of D-dimensional data and of d, made without the data."""
    if n < 2:
        raise ValueError("need at least 2 samples to fit PCA")
    if not 1 <= d <= max_axes(n, dim):
        raise ValueError(f"d must lie in [1, {max_axes(n, dim)}], got {d}")


def pca_fit(X, d: int) -> PcaModel:
    """The top-d principal axes of X (N, D): `pca_fits` at d alone."""
    return next(pca_fits(X, [d]))


def pca_fits(X, dims):
    """Yield the fit of X (N, D) at each d of `dims`, in order, with the bytes of a fit at d alone,
    cut from one `eigh` of the centered Gram on the short side: Xc Xcᵀ when N <= D, where an axis
    is Xcᵀ u / sqrt(λ) (the method of snapshots), else Xcᵀ Xc, whose eigenvectors are the axes.
    An axis has variance λ / (N - 1) and a positive largest-magnitude entry. A d above `max_axes`
    or the rank (λ > max(N, D)·eps·λ_max, `matrix_rank`'s rule on the Gram) raises on reaching it."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D (N, D), got shape {X.shape}")
    n, dim = X.shape
    snapshots = n <= dim
    for i, d in enumerate(dims):
        check_axes(n, dim, d)
        if i == 0:  # the one decomposition, once the first d is known to fit
            mean = X.mean(axis=0)
            centered = X - mean
            lam, vecs = np.linalg.eigh(centered @ centered.T if snapshots else centered.T @ centered)
            lam, vecs = lam[::-1], vecs[:, ::-1]  # eigh sorts ascending
            rank = int(np.count_nonzero(lam > max(n, dim) * np.finfo(np.float64).eps * lam[0]))
        if d > rank:
            raise ValueError(f"data supports only {rank} principal axes, requested {d}")
        top = vecs[:, :d]
        components = ((top / np.sqrt(lam[:d])).T @ (centered if i == 0 else X - mean) if snapshots
                      else top.T.copy())
        flip = components[np.arange(d), np.argmax(np.abs(components), axis=1)] < 0
        components[flip] *= -1.0
        explained = lam[:d] / (n - 1)
        for arr in (mean, components, explained):
            arr.flags.writeable = False
        centered = None  # a later d centres X again: no N × D copy is held while a fit is in use
        yield PcaModel(mean, components, explained)


def pca_apply(model: PcaModel, X) -> np.ndarray:
    """Project the rows of X (N, D) onto the principal axes: row i becomes
    components @ (X[i] - mean), giving an (N, d) float64 matrix.

    One vector is projected as a (1, D) matrix. Callers re-L2-normalize the
    rows before any similarity measure.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D (N, D) matrix, got rank {X.ndim}")
    if X.shape[1] != model.in_dim:
        raise ValueError(f"expected dim {model.in_dim}, got {X.shape[1]}")
    return (X - model.mean) @ model.components.T


def save_pca(out_dir: str | Path, model: PcaModel) -> None:
    save_bundle(out_dir, "pca", asdict(model), {})


def load_pca(model_dir: str | Path) -> PcaModel:
    tensors, meta = load_bundle(model_dir, "pca")
    mean, components, variance = (tensors[n] for n in ("mean", "components", "explained_variance"))
    if mean.ndim != 1 or variance.ndim != 1 or components.shape != variance.shape + mean.shape:
        raise BundleError(
            f"{meta.sidecar}: PCA tensors disagree: mean {list(mean.shape)}, components "
            f"{list(components.shape)}, explained_variance {list(variance.shape)}; "
            "expected (D,), (d, D), (d,)"
        )
    return PcaModel(mean, components, variance)
