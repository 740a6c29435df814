import json

import numpy as np
import pytest

from hrrs.reduction import load_pca, pca_apply, pca_fit, save_pca
from hrrs.tensor_store import BundleError, write_tensor


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
        rng = np.random.default_rng(0)
        t = rng.standard_normal(200)
        X = np.stack([t, t + 1e-6 * rng.standard_normal(200)], axis=1)
        model = pca_fit(X, 2)
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

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="2 samples"):
            pca_fit(np.zeros((1, 5)), 1)


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
