import math
import re

import numpy as np
import pytest

from hrrs import codebooks
from hrrs.codebooks import Codebook, GmmModel, gmm_em, gmm_fit, kmeans_fit
from hrrs.encoders import (
    EncodedFeature,
    encode_bovw,
    encode_fc,
    encode_ifk,
    encode_vlad,
    extract_descriptors,
    feature_set,
    fisher_vector_raw,
    l2_normalize,
    load_features,
    power_normalize,
    save_features,
    vlad_residuals,
)
from hrrs.tensor_store import load_bundle

from oracles import central_difference_5pt, gmm_mean_loglik
from test_codebooks import _ref_e_step


def _codebook(centroids):
    return Codebook(np.asarray(centroids, dtype=np.float64), (0.0,))


class TestExtractDescriptors:
    def test_shape_bookkeeping(self):
        fmap = np.arange(2 * 2 * 3, dtype=np.float32).reshape(2, 2, 3)
        D = extract_descriptors(fmap)
        assert D.shape == (4, 3)
        # row-major site order: descriptor i holds the channel values at site i
        np.testing.assert_allclose(D[0], fmap[0, 0])
        np.testing.assert_allclose(D[1], fmap[0, 1])
        np.testing.assert_allclose(D[3], fmap[1, 1])

    def test_relu_on_negatives(self):
        fmap = -np.ones((3, 2, 4))
        D = extract_descriptors(fmap, apply_relu=True)
        assert np.all(D == 0.0)

    def test_conv5_shape(self):
        fmap = np.zeros((6, 6, 512), dtype=np.float32)
        D = extract_descriptors(fmap)
        assert D.shape == (36, 512)

    def test_rank_check(self):
        with pytest.raises(ValueError, match="rank 3"):
            extract_descriptors(np.zeros((4, 4)))

    def test_float32_map_gives_a_float32_view(self):
        fmap = np.arange(2 * 3 * 4, dtype=np.float32).reshape(2, 3, 4)
        D = extract_descriptors(fmap)
        assert D.dtype == np.float32 and np.shares_memory(D, fmap)

    @pytest.mark.parametrize("dtype", [np.float64, np.int32, np.int64, np.float16])
    def test_other_dtypes_become_float64(self, dtype):
        fmap = np.arange(2 * 3 * 4).reshape(2, 3, 4).astype(dtype)
        D = extract_descriptors(fmap)
        assert D.dtype == np.float64 and D.tolist() == fmap.reshape(6, 4).tolist()

    def test_relu_on_float32_matches_the_float64_path_bytewise(self):
        fmap = np.random.default_rng(4).standard_normal((3, 5, 6)).astype(np.float32)
        fmap.flat[::4] = -0.0
        D = extract_descriptors(fmap, apply_relu=True)
        assert D.dtype == np.float32 and not np.shares_memory(D, fmap)
        wide = extract_descriptors(fmap.astype(np.float64), apply_relu=True)
        assert D.astype(np.float64).tobytes() == wide.tobytes()


def _relu(v: np.ndarray) -> np.ndarray:
    """ReLU of a vector through extract_descriptors(apply_relu=True) on a 1x1 map."""
    v = np.asarray(v, dtype=np.float64)
    return extract_descriptors(v.reshape(1, 1, -1), apply_relu=True)[0]


class TestElementwiseOps:
    def test_relu_definition(self):
        np.testing.assert_allclose(_relu(np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_relu_fixed_point(self):
        v = np.array([0.0, 1.5, 3.0])
        np.testing.assert_allclose(_relu(v), v)

    def test_relu_idempotent(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(100)
        np.testing.assert_array_equal(_relu(_relu(v)), _relu(v))

    def test_power_normalize_analytic(self):
        np.testing.assert_allclose(power_normalize(np.array([4.0, -9.0]), 0.5), [2.0, -3.0])

    def test_power_normalize_identity(self):
        v = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(power_normalize(v, 1.0), v)

    def test_power_normalize_zero(self):
        np.testing.assert_allclose(power_normalize(np.zeros(4), 0.5), np.zeros(4))

    def test_power_normalize_alpha_range(self):
        with pytest.raises(ValueError):
            power_normalize(np.ones(2), 0.0)

    def test_l2_normalize_345(self):
        vec, ok = l2_normalize(np.array([3.0, 4.0]))
        assert ok
        np.testing.assert_allclose(vec, [0.6, 0.8])

    def test_l2_normalize_unit_unchanged(self):
        v = np.array([0.0, 1.0])
        vec, ok = l2_normalize(v)
        assert ok
        np.testing.assert_allclose(vec, v)

    def test_l2_normalize_zero_flagged(self):
        vec, ok = l2_normalize(np.zeros(3))
        assert not ok
        np.testing.assert_allclose(vec, np.zeros(3))


class TestBovw:
    def test_hand_assignment(self):
        cb = _codebook([[0.0], [10.0]])
        D = np.array([[-1.0], [1.0], [12.0]])
        feat = encode_bovw(cb, D)
        np.testing.assert_allclose(feat.vector, [2 / math.sqrt(5), 1 / math.sqrt(5)])
        assert feat.encoder_tag == "bovw"
        assert feat.normalized

    def test_degenerate_one_hot(self):
        cb = _codebook([[0.0], [100.0]])
        D = np.array([[0.1], [-0.2], [0.3]])
        feat = encode_bovw(cb, D)
        np.testing.assert_allclose(feat.vector, [1.0, 0.0])

    def test_paper_dictionary_size(self):
        rng = np.random.default_rng(1)
        cb = _codebook(rng.standard_normal((1000, 8)))
        feat = encode_bovw(cb, rng.standard_normal((30, 8)))
        assert feat.dim == 1000

    def test_scale_covariance(self):
        rng = np.random.default_rng(2)
        centroids = rng.standard_normal((5, 3))
        D = rng.standard_normal((40, 3))
        a = encode_bovw(_codebook(centroids), D)
        b = encode_bovw(_codebook(centroids * 3.7), D * 3.7)
        np.testing.assert_array_equal(a.vector, b.vector)

    def test_empty_descriptor_set(self):
        with pytest.raises(ValueError, match="empty"):
            encode_bovw(_codebook([[0.0]]), np.zeros((0, 1)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            encode_bovw(_codebook([[0.0, 0.0]]), np.zeros((3, 3)))

    def test_descriptors_must_be_2d(self):
        with pytest.raises(ValueError, match=re.escape("descriptors must be 2-D (m, n), got shape (3,)")):
            encode_bovw(_codebook([[0.0]]), np.zeros(3))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        cb = _codebook(rng.standard_normal((4, 2)))
        D = rng.standard_normal((25, 2))
        perm = rng.permutation(25)
        a = encode_bovw(cb, D)
        b = encode_bovw(cb, D[perm])
        np.testing.assert_array_equal(a.vector, b.vector)


class TestVlad:
    def test_hand_residuals(self):
        cb = _codebook([[0.0], [10.0]])
        D = np.array([[-1.0], [1.0], [12.0]])
        raw = vlad_residuals(cb, D)
        np.testing.assert_allclose(raw, [[0.0], [2.0]])
        feat = encode_vlad(cb, D)
        np.testing.assert_allclose(feat.vector, [0.0, 1.0])
        assert feat.normalized

    def test_zero_residuals_flagged(self):
        cb = _codebook([[0.0, 0.0], [5.0, 5.0]])
        D = np.array([[0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
        feat = encode_vlad(cb, D)
        assert not feat.normalized
        np.testing.assert_allclose(feat.vector, np.zeros(4))

    def test_paper_dimension(self):
        rng = np.random.default_rng(4)
        cb = _codebook(rng.standard_normal((100, 512)))
        feat = encode_vlad(cb, rng.standard_normal((36, 512)))
        assert feat.dim == 100 * 512

    def test_residual_sum_identity(self):
        # sum over clusters of residual rows == sum(x) - sum_j count_j * c_j
        rng = np.random.default_rng(5)
        for trial in range(10):
            cb = _codebook(rng.standard_normal((6, 4)))
            D = rng.standard_normal((50, 4))
            raw = vlad_residuals(cb, D)
            labels = np.array([np.argmin(((cb.centroids - x) ** 2).sum(axis=1)) for x in D])
            counts = np.bincount(labels, minlength=6)
            expected = D.sum(axis=0) - counts @ cb.centroids
            np.testing.assert_allclose(raw.sum(axis=0), expected, atol=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        cb = _codebook(rng.standard_normal((4, 3)))
        D = rng.standard_normal((30, 3))
        a = encode_vlad(cb, D)
        b = encode_vlad(cb, D[rng.permutation(30)])
        np.testing.assert_allclose(a.vector, b.vector, atol=1e-12)


def _fd_fisher_oracle(g: GmmModel, X: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """Fisher entries from finite differences of the mean log-likelihood.

    mean part  = (sigma_jr / sqrt(w_j))     * d loglik / d mu_jr
    var part   = (sigma_jr / sqrt(2 w_j))   * d loglik / d sigma_jr

    Five-point stencil with a generous step: the O(step^4) truncation term is
    negligible while roundoff (the binding error for tiny entries) shrinks
    with 1/step.
    """
    sigmas = np.sqrt(g.variances)
    k, d = g.means.shape
    g_mu = np.zeros((k, d))
    g_sig = np.zeros((k, d))
    for j in range(k):
        for r in range(d):
            def ll_mu(v):
                means = g.means.copy()
                means[j, r] = v
                return gmm_mean_loglik(X, g.weights, means, sigmas)

            def ll_sigma(v):
                sig = sigmas.copy()
                sig[j, r] = v
                return gmm_mean_loglik(X, g.weights, g.means, sig)

            g_mu[j, r] = central_difference_5pt(ll_mu, g.means[j, r], step) * sigmas[j, r]
            g_mu[j, r] /= math.sqrt(g.weights[j])
            g_sig[j, r] = central_difference_5pt(ll_sigma, sigmas[j, r], step) * sigmas[j, r]
            g_sig[j, r] /= math.sqrt(2.0 * g.weights[j])
    return np.concatenate([g_mu.ravel(), g_sig.ravel()])


def _ref_fisher(g, X):
    """`fisher_vector_raw` before the EM kernel: `_ref_e_step`, resp.T @ X, resp.T @ (X * X)."""
    m = X.shape[0]
    resp, _ = _ref_e_step(X, g.weights, g.means, g.variances)
    s0, s1, s2 = resp.sum(axis=0), resp.T @ X, resp.T @ (X * X)
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


class TestFisher:
    @pytest.mark.parametrize("weights", [[0.4, 0.3, 0.2, 0.1], [0.5, 0.0, 0.3, 0.2]],
                             ids=["positive", "zero-weight"])
    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("side", [13, 6], ids=["169-rows", "36-rows"])
    def test_matches_the_expression_before_the_em_kernel(self, side, relu, weights):
        rng = np.random.default_rng(side)
        fmap = rng.standard_normal((side, side, 512)).astype(np.float32)
        X = extract_descriptors(fmap, relu).astype(np.float64)
        X[::5, :3] = -0.0
        assert (X >= 0).all() == relu
        g = GmmModel(np.array(weights), rng.standard_normal((4, 512)) * 0.5,
                     rng.uniform(0.5, 2.0, (4, 512)), ())
        assert fisher_vector_raw(g, X).tobytes() == _ref_fisher(g, X).tobytes()

    def test_single_component_single_descriptor(self):
        g = GmmModel(np.array([1.0]), np.array([[0.0]]), np.array([[1.0]]), ())
        raw = fisher_vector_raw(g, np.array([[1.0]]))
        np.testing.assert_allclose(raw, [1.0, 0.0], atol=1e-12)
        feat = encode_ifk(g, np.array([[1.0]]))
        np.testing.assert_allclose(feat.vector, [1.0, 0.0], atol=1e-12)

    def test_descriptors_at_means_zero_mean_part(self):
        g = GmmModel(
            np.array([0.5, 0.5]),
            np.array([[0.0, 0.0], [4.0, 4.0]]),
            np.array([[1.0, 1.0], [1.0, 1.0]]),
            (),
        )
        D = np.array([[0.0, 0.0], [4.0, 4.0]])
        raw = fisher_vector_raw(g, D)
        mean_part = raw[: 2 * 2]
        np.testing.assert_allclose(mean_part, 0.0, atol=1e-3)

    def test_paper_dimension(self):
        rng = np.random.default_rng(7)
        g = GmmModel(
            np.full(100, 0.01),
            rng.standard_normal((100, 512)),
            np.abs(rng.standard_normal((100, 512))) + 0.5,
            (),
        )
        feat = encode_ifk(g, rng.standard_normal((36, 512)))
        assert feat.dim == 2 * 100 * 512

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for k, d, m in [(1, 2, 5), (3, 2, 12), (4, 3, 20)]:
            X = rng.standard_normal((60, d)) + rng.integers(0, 3, size=(60, 1)) * 2.0
            g = gmm_fit(X, k, seed=0)
            D = rng.standard_normal((m, d))
            raw = fisher_vector_raw(g, D)
            oracle = _fd_fisher_oracle(g, D)
            denom = np.maximum(np.abs(oracle), np.abs(raw))
            denom = np.maximum(denom, 1e-6 * denom.max())
            rel = np.abs(raw - oracle) / denom
            assert rel.max() < 1e-4

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        g = gmm_fit(rng.standard_normal((80, 3)), 3, seed=1)
        D = rng.standard_normal((20, 3))
        a = encode_ifk(g, D)
        b = encode_ifk(g, D[rng.permutation(20)])
        np.testing.assert_allclose(a.vector, b.vector, atol=1e-12)

    def test_empty_descriptor_set(self):
        g = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)), ())
        with pytest.raises(ValueError, match="empty"):
            encode_ifk(g, np.zeros((0, 2)))


class TestFloat32Descriptors:
    """Every kernel widens float32 descriptors on entry: its output bytes are those of the
    float64 widening, with relu off and on, with and without the fits' subsample."""

    @staticmethod
    def _descriptors(relu):
        rng = np.random.default_rng(21)
        maps = [(rng.standard_normal((5, 6, 8)) + 2.0 * (i % 3)).astype(np.float32)
                for i in range(12)]
        for fmap in maps:
            fmap.flat[::9] = -0.0
        narrow = [extract_descriptors(fmap, relu) for fmap in maps]
        assert all(D.dtype == np.float32 for D in narrow)
        return narrow, [D.astype(np.float64) for D in narrow]

    @staticmethod
    def _same(a, b):
        for name in ("centroids", "inertia_history", "weights", "means", "variances",
                     "loglik_history"):
            if hasattr(a, name):
                left, right = getattr(a, name), getattr(b, name)
                assert np.asarray(left).tobytes() == np.asarray(right).tobytes(), name

    @pytest.mark.parametrize("limit", [None, 200], ids=["whole", "subsampled"])
    @pytest.mark.parametrize("relu", [False, True])
    def test_fits(self, monkeypatch, relu, limit):
        if limit is not None:
            monkeypatch.setattr(codebooks, "SUBSAMPLE_LIMIT", limit)
        narrow, wide = self._descriptors(relu)
        pool32, pool64 = np.concatenate(narrow), np.concatenate(wide)
        assert pool32.dtype == np.float32
        cb = kmeans_fit(pool32, 4, seed=2, max_iter=5, tol=0.0)
        self._same(cb, kmeans_fit(pool64, 4, seed=2, max_iter=5, tol=0.0))
        self._same(gmm_fit(pool32, 4, seed=2, max_iter=4, tol=0.0),
                   gmm_fit(pool64, 4, seed=2, max_iter=4, tol=0.0))
        self._same(gmm_em(pool32, cb, 2, 4, 0.0), gmm_em(pool64, cb, 2, 4, 0.0))

    @pytest.mark.parametrize("relu", [False, True])
    def test_encoders(self, relu):
        narrow, wide = self._descriptors(relu)
        pool = np.concatenate(wide)
        cb = kmeans_fit(pool, 4, seed=1, max_iter=5)
        g = gmm_fit(pool, 4, seed=1, max_iter=4)
        for encode, model in ((encode_bovw, cb), (encode_vlad, cb), (encode_ifk, g)):
            for D32, D64 in zip(narrow, wide):
                a, b = encode(model, D32), encode(model, D64)
                assert a.vector.tobytes() == b.vector.tobytes() and a.normalized == b.normalized


class TestOutputDimensions:
    def test_random_k_d(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            k = int(rng.integers(2, 12))
            d = int(rng.integers(2, 9))
            cb = _codebook(rng.standard_normal((k, d)))
            g = GmmModel(
                np.full(k, 1.0 / k),
                rng.standard_normal((k, d)),
                np.abs(rng.standard_normal((k, d))) + 0.5,
                (),
            )
            D = rng.standard_normal((15, d))
            assert encode_bovw(cb, D).dim == k
            assert encode_vlad(cb, D).dim == k * d
            assert encode_ifk(g, D).dim == 2 * k * d


class TestNormalizationContract:
    def test_encoder_outputs_unit_norm(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            k = int(rng.integers(2, 8))
            d = int(rng.integers(2, 6))
            cb = _codebook(rng.standard_normal((k, d)))
            g = GmmModel(
                np.full(k, 1.0 / k),
                rng.standard_normal((k, d)),
                np.abs(rng.standard_normal((k, d))) + 0.5,
                (),
            )
            D = rng.standard_normal((12, d))
            for feat in (encode_bovw(cb, D), encode_vlad(cb, D), encode_ifk(g, D)):
                if feat.normalized:
                    assert abs(np.linalg.norm(feat.vector) - 1.0) < 1e-9


class TestFcEncoding:
    def test_normalizes(self):
        feat = encode_fc(np.array([3.0, 4.0]))
        np.testing.assert_allclose(feat.vector, [0.6, 0.8])
        assert feat.encoder_tag == "fc_raw"

    def test_relu_toggle(self):
        feat = encode_fc(np.array([-3.0, 4.0]), apply_relu=True)
        np.testing.assert_allclose(feat.vector, [0.0, 1.0])

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError, match="empty Fc vector"):
            encode_fc(np.zeros((2, 0)))


class TestFeatureSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        cb = _codebook(rng.standard_normal((4, 3)))
        feats = {
            f"img{i}": encode_vlad(cb, rng.standard_normal((10, 3))) for i in range(5)
        }
        save_features(tmp_path / "f", feature_set(feats))
        back = load_features(tmp_path / "f")
        assert set(back.ids) == set(feats)
        for r, image_id in enumerate(back.ids):
            np.testing.assert_allclose(back.matrix[r], feats[image_id].vector, atol=1e-7)
        assert back.tag == "vlad"

    def test_loaded_matrix_is_the_bundles_read_only_array(self, tmp_path):
        feats = {f"img{i}": encode_fc(np.arange(4.0) - i) for i in range(3)}
        save_features(tmp_path / "f", feature_set(feats))
        matrix = load_features(tmp_path / "f").matrix
        stored = load_bundle(tmp_path / "f", "features")[0].matrix("matrix")
        assert matrix.dtype == np.float64 and matrix.tobytes() == stored.tobytes()
        assert not matrix.flags.writeable  # code that writes into a loaded set raises
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1.0

    def test_mixed_tags_rejected(self, tmp_path):
        from hrrs.encoders import EncodedFeature

        feats = {
            "a": EncodedFeature(np.ones(2), "bovw", True),
            "b": EncodedFeature(np.ones(2), "vlad", True),
        }
        with pytest.raises(ValueError, match="mixed"):
            save_features(tmp_path / "f", feature_set(feats))


class TestFeatureSet:
    def test_rows_follow_the_sorted_ids(self):
        feats = {"b": EncodedFeature(np.full(3, 2.0), "vlad", True),
                 "a": EncodedFeature(np.full(3, 1.0), "vlad", False)}
        fs = feature_set(feats)
        assert fs.ids == ("a", "b") and fs.tag == "vlad" and fs.normalized == (False, True)
        assert fs.matrix.dtype == np.float64
        np.testing.assert_array_equal(fs.matrix, [[1.0] * 3, [2.0] * 3])

    def test_encodes_each_source_in_sorted_id_order(self):
        seen = []

        def encode(value):
            seen.append(value)
            return EncodedFeature(np.full(2, value), "fc_raw", True)

        fs = feature_set({"c": 3.0, "a": 1.0, "b": 2.0}, encode)
        assert seen == [1.0, 2.0, 3.0]
        np.testing.assert_array_equal(fs.matrix[:, 0], [1.0, 2.0, 3.0])

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty feature set"):
            feature_set({})
