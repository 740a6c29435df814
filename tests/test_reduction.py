import json
import re

import numpy as np
import pytest

from hrrs.reduction import load_pca, pca_apply, pca_fit, pca_fits, save_pca
from hrrs.tensor_store import BundleError, write_tensor


def _svd_fit(X, d):
    """The thin-SVD fit `pca_fit` used before the Gram eigendecomposition: the oracle for the
    sign-aligned components and the explained variance."""
    centered = X - X.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:d].copy()
    flip = components[np.arange(d), np.argmax(np.abs(components), axis=1)] < 0
    components[flip] *= -1.0
    return components, s[:d] ** 2 / (X.shape[0] - 1)


def _svd_rank(X):
    """The SVD rule's rank: singular values of the centered data above max(N, D)·eps·s_max."""
    return int(np.linalg.matrix_rank(X - X.mean(axis=0)))


def _near_degenerate():
    rng = np.random.default_rng(0)
    t = rng.standard_normal(200)
    return np.stack([t, t + 1e-6 * rng.standard_normal(200)], axis=1)


def _low_rank(n, dim, rank, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, rank)) @ rng.standard_normal((rank, dim))


def _duplicate_rows():
    return np.repeat(np.random.default_rng(13).standard_normal((12, 40)), 3, axis=0)


EPS = np.finfo(np.float64).eps

# Tolerances against the SVD. Components: 1e-10 absolute (measured at most 5e-14 here). Explained
# variance: 1e-12 relative, plus max(N, D)·eps times the top variance absolute, since the Gram
# holds a small variance only to about eps times the largest (the near-degenerate case's second
# variance is off by 5e-4 relative, 3e-16 absolute).
SVD_CASES = {
    "wide": (lambda: np.random.default_rng(14).standard_normal((30, 200)), 9),
    "tall": (lambda: np.random.default_rng(15).standard_normal((200, 30)), 9),
    "square": (lambda: np.random.default_rng(16).standard_normal((50, 50)), 9),
    "duplicate-rows": (_duplicate_rows, 11),
    "rank-5-wide": (lambda: _low_rank(40, 60, 5, 17), 5),
    "rank-7-tall": (lambda: _low_rank(80, 20, 7, 18), 7),
    "near-degenerate": (_near_degenerate, 2),
}


class TestPcaFit:
    def test_line_first_axis_symmetry(self):
        t = np.linspace(-2, 2, 9)
        X = np.stack([t, t], axis=1)  # points on y = x
        model = pca_fit(X, 1)
        np.testing.assert_allclose(model.components[0], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)
        assert model.components[0][0] > 0  # sign convention

    def test_rank_deficient_request_errors(self):
        t = np.linspace(-2, 2, 9)
        X = np.stack([t, t], axis=1)
        with pytest.raises(ValueError, match="1 principal axes"):
            pca_fit(X, 2)

    def test_near_degenerate_second_variance_tiny(self):
        model = pca_fit(_near_degenerate(), 2)
        assert model.explained_variance[1] < 1e-10
        np.testing.assert_allclose(np.abs(model.components[0]), [1 / np.sqrt(2)] * 2, atol=1e-5)

    def test_full_dim_preserves_distances(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((40, 6))
        model = pca_fit(X, 6)
        Y = pca_apply(model, X)
        dx = np.linalg.norm(X[:, None] - X[None, :], axis=2)
        dy = np.linalg.norm(Y[:, None] - Y[None, :], axis=2)
        np.testing.assert_allclose(dx, dy, atol=1e-9)

    def test_reconstruction_error_equals_discarded_eigenvalues(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((100, 64))
        d = 16
        model = pca_fit(X, d)
        Y = pca_apply(model, X)
        recon = Y @ model.components + model.mean
        err = ((X - recon) ** 2).sum() / (X.shape[0] - 1)
        # independent oracle: eigenvalues of the sample covariance matrix
        cov = np.cov(X, rowvar=False)
        eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
        np.testing.assert_allclose(err, eigvals[d:].sum(), atol=1e-6)

    def test_orthonormal_components(self):
        rng = np.random.default_rng(3)
        model = pca_fit(rng.standard_normal((50, 12)), 5)
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-8)

    def test_projected_covariance_is_explained_variance(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((80, 10)) * np.array([5, 4, 3, 2, 1, 1, 1, 1, 1, 1])
        model = pca_fit(X, 4)
        Y = pca_apply(model, X)
        cov = np.cov(Y, rowvar=False)
        np.testing.assert_allclose(np.diag(cov), model.explained_variance, atol=1e-6)
        np.testing.assert_allclose(cov - np.diag(np.diag(cov)), 0.0, atol=1e-6)

    def test_explained_variance_nonincreasing(self):
        rng = np.random.default_rng(5)
        model = pca_fit(rng.standard_normal((60, 8)), 8)
        assert np.all(np.diff(model.explained_variance) <= 1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((30, 7))
        a = pca_fit(X, 3)
        b = pca_fit(X, 3)
        assert a.components.tobytes() == b.components.tobytes()

    def test_d_out_of_range(self):
        X = np.random.default_rng(7).standard_normal((10, 5))
        with pytest.raises(ValueError):
            pca_fit(X, 0)
        with pytest.raises(ValueError):
            pca_fit(X, 6)

    def test_d_bounded_by_one_less_than_the_rows(self):
        """N centred rows span at most N - 1 axes, so d = N fails the bound, not the rank."""
        X = np.random.default_rng(7).standard_normal((5, 10))
        assert pca_fit(X, 4).out_dim == 4
        with pytest.raises(ValueError, match=re.escape("d must lie in [1, 4], got 5")):
            pca_fit(X, 5)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="2 samples"):
            pca_fit(np.zeros((1, 5)), 1)

    def test_rank_1_input_rejected(self):
        with pytest.raises(ValueError, match=re.escape("X must be 2-D (N, D), got shape (5,)")):
            pca_fit(np.arange(5.0), 1)


class TestAgainstSvd:
    @pytest.mark.parametrize("case", SVD_CASES)
    def test_components_and_variance_match_the_svd(self, case):
        make, d = SVD_CASES[case]
        X = make()
        model = pca_fit(X, d)
        components, variance = _svd_fit(X, d)
        np.testing.assert_allclose(model.components, components, rtol=0, atol=1e-10)
        np.testing.assert_allclose(model.explained_variance, variance, rtol=1e-12,
                                   atol=max(X.shape) * EPS * variance[0])

    @pytest.mark.parametrize("case", ["duplicate-rows", "rank-5-wide", "rank-7-tall"])
    def test_rank_deficient_inputs_report_the_svd_rank(self, case):
        make, d = SVD_CASES[case]
        X = make()
        assert _svd_rank(X) == d
        pca_fit(X, d)
        with pytest.raises(ValueError, match=f"data supports only {d} principal axes, requested {d + 1}"):
            pca_fit(X, d + 1)

    @pytest.mark.parametrize(("ratio", "rank"), [(1e-6, 3), (7e-8, 2), (1e-9, 2)])
    def test_rank_threshold_is_on_eigenvalues(self, ratio, rank):
        """An axis whose singular-value ratio to the first lies between max(N, D)·eps and
        sqrt(max(N, D)·eps) passed the SVD rule and is now rejected."""
        n, dim = 50, 4
        rng = np.random.default_rng(19)
        # Centered rows by construction: orthonormal columns orthogonal to the ones vector.
        q, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.standard_normal((n, 3))]))
        v, _ = np.linalg.qr(rng.standard_normal((dim, 3)))
        X = (q[:, 1:] * [1.0, 0.5, ratio]) @ v.T
        assert max(n, dim) * EPS < ratio and _svd_rank(X) == 3
        assert (ratio > np.sqrt(max(n, dim) * EPS)) == (rank == 3)
        pca_fit(X, rank)
        with pytest.raises(ValueError, match=f"data supports only {rank} principal axes, requested {rank + 1}"):
            pca_fit(X, rank + 1)


def _gaussian_f32(n, dim, seed):
    """Gaussian rows rounded to float32, as feature maps are stored."""
    return np.random.default_rng(seed).standard_normal((n, dim)).astype(np.float32)


# (X, dims) per case. Snapshot cases (N <= D) form each axis set in a (d, N) x (N, D) product:
# "wide" stays within 10^6 multiply-adds at every d, "wide-floor" is at 10^6 for d = 10 and above
# it for d = 64, "wide-8192" is above it at every d. Tall cases (N > D) copy eigenvectors.
FITS_CASES = {
    "wide": (lambda: np.random.default_rng(20).standard_normal((30, 200)), [9, 2, 5, 29]),
    "wide-floor": (lambda: _gaussian_f32(100, 1000, 21), [1, 10, 64]),
    "wide-8192": (lambda: _gaussian_f32(126, 8192, 22), [2, 8, 12, 32, 64]),
    "square": (lambda: np.random.default_rng(23).standard_normal((50, 50)), [49, 1, 7]),
    "tall": (lambda: np.random.default_rng(24).standard_normal((200, 30)), [1, 9, 30]),
    "tall-f32": (lambda: _gaussian_f32(2100, 64, 25), [2, 8, 12, 32, 64]),
}


class TestPcaFits:
    @pytest.mark.parametrize("case", FITS_CASES)
    def test_each_fit_has_the_bytes_of_a_fit_at_its_dim(self, case):
        make, dims = FITS_CASES[case]
        X = make()
        fits = list(pca_fits(X, dims))
        assert [fit.out_dim for fit in fits] == dims
        for d, fit in zip(dims, fits):
            alone = pca_fit(X, d)
            for name in ("mean", "components", "explained_variance"):
                got, want = getattr(fit, name), getattr(alone, name)
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
                assert not got.flags.writeable

    @pytest.mark.parametrize(("dims", "message"), [
        ([2, 5, 7, 3], "data supports only 5 principal axes, requested 7"),
        ([5, 1, 40], "d must lie in [1, 39], got 40"),
    ])
    def test_a_dim_that_does_not_fit_raises_after_the_earlier_fits(self, dims, message):
        X = _low_rank(40, 60, 5, 17)
        fits = pca_fits(X, dims)
        bad = next(i for i, d in enumerate(dims) if d > 5)
        for d in dims[:bad]:
            assert next(fits).components.tobytes() == pca_fit(X, d).components.tobytes()
        with pytest.raises(ValueError, match=re.escape(message)):
            next(fits)

    def test_one_decomposition_and_none_before_the_first_dim(self, monkeypatch):
        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or real(a))
        fits = pca_fits(np.zeros((1, 5)), [1])  # a generator: nothing is checked or fit yet
        with pytest.raises(ValueError, match="2 samples"):
            next(fits)
        assert list(pca_fits(np.random.default_rng(26).standard_normal((20, 6)), [])) == []
        assert calls == []
        assert len(list(pca_fits(np.random.default_rng(26).standard_normal((20, 6)), [1, 6, 3]))) == 3
        assert calls == [(6, 6)]


class TestPcaApply:
    def test_mean_maps_to_zero(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((30, 5))
        model = pca_fit(X, 3)
        np.testing.assert_allclose(pca_apply(model, model.mean[None, :]), np.zeros((1, 3)), atol=1e-12)

    def test_matrix_and_vector_agree(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((20, 6))
        model = pca_fit(X, 4)
        batch = pca_apply(model, X)
        assert batch.shape == (20, 4)
        for i in range(20):
            np.testing.assert_allclose(batch[i], model.components @ (X[i] - model.mean), atol=1e-12)

    def test_dimension_mismatch(self):
        model = pca_fit(np.random.default_rng(10).standard_normal((20, 6)), 2)
        with pytest.raises(ValueError, match="dim"):
            pca_apply(model, np.zeros((3, 5)))

    def test_rank_1_input_rejected(self):
        model = pca_fit(np.random.default_rng(10).standard_normal((20, 6)), 2)
        with pytest.raises(ValueError, match="2-D"):
            pca_apply(model, np.zeros(6))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        model = pca_fit(rng.standard_normal((40, 8)), 3)
        save_pca(tmp_path / "pca", model)
        back = load_pca(tmp_path / "pca")
        assert (back.in_dim, back.out_dim) == (8, 3)
        np.testing.assert_allclose(back.mean, model.mean, atol=1e-6)
        np.testing.assert_allclose(back.components, model.components, atol=1e-6)
        np.testing.assert_allclose(back.explained_variance, model.explained_variance, rtol=1e-6)

    @pytest.mark.parametrize(
        ("name", "shape"),
        [("mean", (9,)), ("components", (3, 9)), ("components", (2, 8)),
         ("explained_variance", (2,)), ("mean", (8, 1))],
    )
    def test_pca_tensors_must_agree(self, tmp_path, name, shape):
        model = pca_fit(np.random.default_rng(12).standard_normal((40, 8)), 3)
        save_pca(tmp_path / "pca", model)
        sidecar = tmp_path / "pca" / "bundle.json"
        doc = json.loads(sidecar.read_text())
        doc["tensors"][name] = list(shape)
        sidecar.write_text(json.dumps(doc))
        write_tensor(tmp_path / "pca" / f"{name}.ftns", np.zeros(shape))
        with pytest.raises(BundleError, match="bundle.json: PCA tensors disagree"):
            load_pca(tmp_path / "pca")
