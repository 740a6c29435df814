import json

import numpy as np
import pytest

from hrrs.codebooks import (
    VARIANCE_FLOOR,
    gmm_fit,
    gmm_responsibilities,
    kmeans_fit,
    load_codebook,
    load_gmm,
    save_codebook,
    save_gmm,
)
from hrrs.encoders import encode_bovw
from hrrs.tensor_store import BundleError, write_tensor

from oracles import best_two_partition, nearest_centroid_scan


class TestKmeansFit:
    def test_matches_exhaustive_two_partition(self):
        points = [0.0, 1.0, 9.0, 10.0]
        X = np.array(points)[:, None]
        cb = kmeans_fit(X, 2, seed=0)
        best_centroids, best_sse = best_two_partition(points)
        assert best_centroids == [0.5, 9.5]
        assert best_sse == 1.0
        np.testing.assert_allclose(sorted(cb.centroids[:, 0]), best_centroids, atol=1e-12)
        np.testing.assert_allclose(cb.inertia_history[-1], best_sse, atol=1e-12)

    def test_k_equals_n_distinct_points(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((6, 3))
        cb = kmeans_fit(X, 6, seed=4)
        assert cb.inertia_history[-1] == 0.0
        found = {tuple(np.round(c, 10)) for c in cb.centroids}
        expected = {tuple(np.round(x, 10)) for x in X}
        assert found == expected

    def test_k1_is_sample_mean(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 4))
        cb = kmeans_fit(X, 1, seed=0)
        np.testing.assert_allclose(cb.centroids[0], X.mean(axis=0), atol=1e-12)

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match="insufficient"):
            kmeans_fit(np.zeros((3, 2)), 4, seed=0)

    def test_inertia_nonincreasing(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            X = rng.standard_normal((120, 5))
            cb = kmeans_fit(X, 6, seed=trial)
            h = np.array(cb.inertia_history)
            assert np.all(np.diff(h) <= 1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((80, 3))
        a = kmeans_fit(X, 5, seed=9)
        b = kmeans_fit(X, 5, seed=9)
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert a.inertia_history == b.inertia_history

    def test_duplicate_points_no_crash(self):
        X = np.ones((20, 3))
        cb = kmeans_fit(X, 3, seed=0)
        assert np.all(np.isfinite(cb.centroids))
        assert cb.inertia_history[-1] == 0.0


def _assigned(cb, x) -> int:
    """Centroid index of one descriptor: the single non-zero bin of its BOVW histogram."""
    (j,) = np.flatnonzero(encode_bovw(cb, np.asarray(x, dtype=np.float64)[None, :]).vector)
    return int(j)


class TestKmeansAssign:
    def test_nearest(self):
        cb = kmeans_fit(np.array([[0.0], [10.0], [0.0], [10.0]]), 2, seed=0)
        centroids = np.sort(cb.centroids[:, 0])
        np.testing.assert_allclose(centroids, [0.0, 10.0])

    def test_examples(self):
        from hrrs.codebooks import Codebook

        cb = Codebook(np.array([[0.0], [10.0]]), (0.0,))
        assert _assigned(cb, [1.0]) == 0
        assert _assigned(cb, [5.0]) == 0  # tie breaks to the lowest index
        assert _assigned(cb, [10.0]) == 1  # exact centroid

    def test_dimension_mismatch(self):
        from hrrs.codebooks import Codebook

        cb = Codebook(np.zeros((2, 3)), (0.0,))
        with pytest.raises(ValueError, match="dim"):
            _assigned(cb, [1.0, 2.0])

    def test_agrees_with_brute_force_scan(self):
        rng = np.random.default_rng(5)
        cb = kmeans_fit(rng.standard_normal((200, 4)), 7, seed=1)
        probes = rng.standard_normal((1000, 4))
        for x in probes:
            assert _assigned(cb, x) == nearest_centroid_scan(cb.centroids, x)


class TestGmmFit:
    def test_single_component_mle(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((200, 3)) * 2.0 + 5.0
        g = gmm_fit(X, 1, seed=0)
        np.testing.assert_allclose(g.weights, [1.0], atol=1e-12)
        np.testing.assert_allclose(g.means[0], X.mean(axis=0), atol=1e-8)
        np.testing.assert_allclose(g.variances[0], X.var(axis=0), atol=1e-6)

    def test_two_separated_blobs(self):
        rng = np.random.default_rng(7)
        X = np.concatenate([rng.standard_normal(150) + 0.0, rng.standard_normal(150) + 10.0])
        g = gmm_fit(X[:, None], 2, seed=0)
        means = np.sort(g.means[:, 0])
        assert abs(means[0] - 0.0) < 0.5
        assert abs(means[1] - 10.0) < 0.5
        np.testing.assert_allclose(np.sort(g.weights), [0.5, 0.5], atol=0.1)

    def test_loglik_nondecreasing(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            X = np.concatenate(
                [rng.standard_normal((60, 3)), rng.standard_normal((60, 3)) + 4.0]
            )
            g = gmm_fit(X, 3, seed=trial)
            h = np.array(g.loglik_history)
            assert len(h) >= 1
            assert np.all(np.diff(h) >= -1e-7)

    def test_degenerate_identical_data(self):
        X = np.full((30, 2), 3.0)
        g = gmm_fit(X, 2, seed=0)
        assert np.all(g.variances >= VARIANCE_FLOOR)
        assert np.all(np.isfinite(g.means))
        np.testing.assert_allclose(g.weights.sum(), 1.0, atol=1e-12)

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match="insufficient"):
            gmm_fit(np.zeros((2, 2)), 3, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((100, 4))
        a = gmm_fit(X, 3, seed=2)
        b = gmm_fit(X, 3, seed=2)
        assert a.means.tobytes() == b.means.tobytes()
        assert a.loglik_history == b.loglik_history


class TestGmmPosteriors:
    def _symmetric_model(self):
        from hrrs.codebooks import GmmModel

        return GmmModel(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.0], [10.0]]),
            variances=np.array([[1.0], [1.0]]),
            loglik_history=(),
        )

    def test_symmetry(self):
        g = self._symmetric_model()
        np.testing.assert_allclose(gmm_responsibilities(g, [[5.0]])[0], [0.5, 0.5], atol=1e-12)

    def test_dominant_component(self):
        from hrrs.codebooks import GmmModel

        g = GmmModel(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.0], [10.0]]),
            variances=np.array([[1e-4], [1.0]]),
            loglik_history=(),
        )
        assert gmm_responsibilities(g, [[0.0]])[0, 0] >= 0.999

    def test_single_component(self):
        from hrrs.codebooks import GmmModel

        g = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)), ())
        np.testing.assert_allclose(gmm_responsibilities(g, [[3.0, -1.0]])[0], [1.0])

    def test_sums_to_one(self):
        rng = np.random.default_rng(10)
        g = gmm_fit(rng.standard_normal((100, 3)), 4, seed=0)
        probes = rng.standard_normal((200, 3)) * 5
        resp = gmm_responsibilities(g, probes)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-12)

    def test_dimension_mismatch(self):
        g = gmm_fit(np.random.default_rng(0).standard_normal((20, 3)), 2, seed=0)
        with pytest.raises(ValueError, match="dim"):
            gmm_responsibilities(g, [[1.0]])


class TestSerialization:
    def test_codebook_round_trip(self, tmp_path):
        cb = kmeans_fit(np.random.default_rng(0).standard_normal((40, 3)), 4, seed=0)
        save_codebook(tmp_path / "cb", cb)
        back = load_codebook(tmp_path / "cb")
        np.testing.assert_allclose(back.centroids, cb.centroids, rtol=1e-6)
        np.testing.assert_allclose(back.inertia_history, cb.inertia_history)

    def test_gmm_round_trip(self, tmp_path):
        g = gmm_fit(np.random.default_rng(1).standard_normal((60, 2)), 3, seed=0)
        save_gmm(tmp_path / "g", g)
        back = load_gmm(tmp_path / "g")
        np.testing.assert_allclose(back.weights, g.weights, atol=1e-7)
        np.testing.assert_allclose(back.means, g.means, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(back.variances, g.variances, rtol=1e-6, atol=1e-6)

    def test_unknown_kind(self, tmp_path):
        d = tmp_path / "bad"
        d.mkdir()
        (d / "bundle.json").write_text('{"kind": "mystery", "version": 1, "tensors": {}, "meta": {}}')
        with pytest.raises(ValueError, match="kind"):
            load_codebook(d)

    def test_gmm_tensors_must_agree_on_k(self, tmp_path):
        g = gmm_fit(np.random.default_rng(2).standard_normal((60, 2)), 3, seed=0)
        save_gmm(tmp_path / "g", g)
        doc = json.loads((tmp_path / "g" / "bundle.json").read_text())
        doc["tensors"]["weights"] = [2]
        (tmp_path / "g" / "bundle.json").write_text(json.dumps(doc))
        write_tensor(tmp_path / "g" / "weights.ftns", g.weights[:2])
        with pytest.raises(BundleError, match="bundle.json.*disagree on k"):
            load_gmm(tmp_path / "g")
