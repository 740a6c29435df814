import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from hrrs import codebooks
from hrrs.codebooks import (
    MAX_ITER,
    TOL,
    VARIANCE_FLOOR,
    Codebook,
    _em_pass,
    _segment_sum,
    gmm_em,
    gmm_fit,
    kmeans_fit,
    load_codebook,
    load_gmm,
    save_codebook,
    save_gmm,
)
from hrrs.encoders import encode_bovw, encode_ifk, vlad_residuals
from hrrs.tensor_store import PASS_BYTES, TILE_BYTES, BundleError, row_tiles, write_tensor

from oracles import best_two_partition, nearest_centroid_scan

# ---------------------------------------------------------------------------
# Reference: the codebook layer as it was before segment sums and chunked
# assignment (np.add.at, one (n, k) distance matrix, an n x d difference
# array, X*X formed per use). The current code must reproduce its bytes.


def _ref_sq_dists(X, C):
    n, k = X.shape[0], C.shape[0]
    x2 = np.einsum("nd,nd->n", X, X)
    c2 = np.einsum("kd,kd->k", C, C)
    out = np.empty((n, k))
    step = max(1, (1 << 24) // max(k, 1))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        block = x2[lo:hi, None] - 2.0 * (X[lo:hi] @ C.T) + c2[None, :]
        np.maximum(block, 0.0, out=out[lo:hi])
    return out


def _ref_assign(X, C):
    labels = np.argmin(_ref_sq_dists(X, C), axis=1)
    diffs = X - C[labels]
    return labels, np.einsum("nd,nd->n", diffs, diffs)


def _ref_kmeans(X, k, seed, max_iter, tol):
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = _ref_sq_dists(X, centers[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        idx = rng.choice(n, p=d2 / total) if total > 0 else rng.integers(n)
        centers[j] = X[idx]
        np.minimum(d2, _ref_sq_dists(X, centers[j : j + 1])[:, 0], out=d2)
    labels, d2 = _ref_assign(X, centers)
    history = [float(d2.sum())]
    for _ in range(max_iter):
        counts = np.bincount(labels, minlength=k)
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, X)
        new = centers.copy()
        nonempty = counts > 0
        new[nonempty] = sums[nonempty] / counts[nonempty, None]
        if not nonempty.all():
            far_d2 = d2.copy()
            for j in np.flatnonzero(~nonempty):
                far = int(np.argmax(far_d2))
                new[j] = X[far]
                far_d2[far] = 0.0
        centers = new
        labels, d2 = _ref_assign(X, centers)
        history.append(float(d2.sum()))
        if history[-2] == 0.0 or (history[-2] - history[-1]) < tol * history[-2]:
            break
    return centers, history


def _ref_e_step(X, weights, means, variances):
    inv = 1.0 / variances
    const = -0.5 * (means.shape[1] * math.log(2.0 * math.pi) + np.log(variances).sum(axis=1))
    quad = (X * X) @ inv.T - 2.0 * (X @ (means * inv).T) + (means * means * inv).sum(axis=1)
    with np.errstate(divide="ignore"):
        logj = np.log(weights) + const - 0.5 * quad
    m = logj.max(axis=1, keepdims=True)
    ll = m[:, 0] + np.log(np.exp(logj - m).sum(axis=1))
    return np.exp(logj - ll[:, None]), float(ll.mean())


def _ref_gmm(X, k, seed, max_iter, tol):
    centroids, _ = _ref_kmeans(X, k, seed, max_iter, tol)
    return _ref_em(X, centroids, max_iter, tol)


def _ref_em(X, centroids, max_iter, tol):
    n, d = X.shape
    k = len(centroids)
    labels, _ = _ref_assign(X, centroids)
    weights = np.bincount(labels, minlength=k) / n
    means = centroids.copy()
    variances = np.full((k, d), VARIANCE_FLOOR)
    for j in range(k):
        members = X[labels == j]
        if len(members):
            variances[j] = np.maximum(((members - means[j]) ** 2).mean(axis=0), VARIANCE_FLOOR)
    history = []
    for it in range(max_iter):
        resp, mean_ll = _ref_e_step(X, weights, means, variances)
        history.append(mean_ll)
        if it >= 1 and history[-1] - history[-2] < tol:
            break
        nk = resp.sum(axis=0)
        weights = nk / n
        active = nk > 0
        if active.any():
            mu_new = (resp.T @ X)[active] / nk[active, None]
            ex2 = (resp.T @ (X * X))[active] / nk[active, None]
            means[active] = mu_new
            variances[active] = np.maximum(ex2 - mu_new**2, VARIANCE_FLOOR)
    return weights, means, variances, history


def _ref_vlad(C, X):
    labels, _ = _ref_assign(X, C)
    residuals = np.zeros_like(C)
    np.add.at(residuals, labels, X - C[labels])
    return residuals


def _add_at(X, labels, k):
    out = np.zeros((k, X.shape[1]))
    np.add.at(out, labels, X)
    return out


def _fixture(name):
    """(points, k) pools; "relu-d64" spans four PASS_BYTES tiles of point distances and of the
    variance init, and "k2-d64" four segment-sum gather chunks of as many rows, mostly in one
    cluster."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "d1":
        return rng.standard_normal((3000, 1)) * 1e3, 8
    if name == "duplicates":  # 5 distinct rows for k=9: empty clusters are re-seeded every step
        return np.repeat(rng.standard_normal((5, 4)), 40, axis=0), 9
    if name == "magnitudes":
        return rng.standard_normal((2500, 7)) * np.logspace(-3, 6, 7), 12
    if name == "relu-d64":
        X = np.maximum(rng.standard_normal((3500, 64)), 0.0)
        X[::5, :3] = -0.0
        return X, 16
    if name == "k2-d64":
        X = rng.standard_normal((3500, 64))
        X[:300] += 4.0
        return X, 2
    raise KeyError(name)


FIXTURES = ["d1", "duplicates", "magnitudes", "relu-d64", "k2-d64"]
# EM over several row tiles sums the M-step moments in tile order: README's bound for a
# 6-iteration fit, as max |difference| over max |reference| per array.
EM_TILE_TOLERANCE = 1e-12


class TestSegmentSum:
    @pytest.mark.parametrize("d", [1, 2, 7, 512])
    @pytest.mark.parametrize("case", [
        "shuffled", "empty-clusters", "one-cluster", "sorted", "negative-zero", "wide-rank",
        "skewed",
    ])
    def test_matches_add_at_bytes(self, d, case):
        """"wide-rank" has ranks of k=300 rows, wider than 2**16 // 512 = 128; in "skewed" about
        97% of the rows share one of k=2 labels, so at d=512 its ranks span 24 gather chunks."""
        rng = np.random.default_rng(d)
        n, k = {"wide-rank": (3000, 300), "skewed": (3000, 2)}.get(case, (700, 9))
        X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 6, (n, 1))
        labels = rng.integers(0, k, n)
        if case == "skewed":
            labels = (rng.random(n) < 0.97).astype(np.intp)
        elif case == "empty-clusters":
            labels = rng.choice([1, 4, 5], n)
        elif case == "one-cluster":
            labels = np.full(n, 3)
        elif case == "sorted":
            labels = np.sort(labels)
        elif case == "negative-zero":
            X[rng.random((n, d)) < 0.3] = -0.0
            X[labels == 2] = -0.0  # a cluster whose every entry is -0.0 sums to +0.0
        assert _segment_sum(X, labels, k).tobytes() == _add_at(X, labels, k).tobytes()

    def test_cancellation_keeps_input_order(self):
        # Reordering these rows changes the float64 sum; input order must be kept.
        X = np.array([[1e16], [2.0], [1.0], [-1e16]])
        labels = np.array([0, 1, 0, 0])
        out = _segment_sum(X, labels, 2)
        assert out.tobytes() == _add_at(X, labels, 2).tobytes()
        assert out[:, 0].tolist() == [0.0, 2.0]  # (1e16 + 1) - 1e16, not 1e16 - 1e16 + 1

    def test_no_rows(self):
        assert _segment_sum(np.empty((0, 3)), np.empty(0, dtype=np.intp), 4).tobytes() == bytes(96)


class TestByteIdentityWithReference:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_kmeans_fit(self, name):
        X, k = _fixture(name)
        cb = kmeans_fit(X, k, seed=3, max_iter=6, tol=0.0)
        centroids, history = _ref_kmeans(X, k, 3, 6, 0.0)
        assert cb.centroids.tobytes() == centroids.tobytes()
        assert cb.inertia_history == tuple(history)

    def test_kmeans_fit_across_distance_blocks(self):
        # k=4096 at d=2 gives TILE_BYTES // (8 * 4098) = 255-row tiles: 33 tiles here, against
        # the reference's three blocks of 2**24 // 4096 rows.
        X = np.random.default_rng(12).standard_normal((8300, 2))
        assert len(row_tiles(8300, 8 * 4098, TILE_BYTES, 2 * 4096)) == 33
        cb = kmeans_fit(X, 4096, seed=1, max_iter=1)
        centroids, history = _ref_kmeans(X, 4096, 1, 1, 1e-4)
        assert cb.centroids.tobytes() == centroids.tobytes()
        assert cb.inertia_history == tuple(history)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_gmm_fit(self, name):
        X, k = _fixture(name)
        g = gmm_fit(X, k, seed=5, max_iter=5, tol=0.0)
        weights, means, variances, history = _ref_gmm(X, k, 5, 5, 0.0)
        assert g.weights.tobytes() == weights.tobytes()
        assert g.means.tobytes() == means.tobytes()
        assert g.variances.tobytes() == variances.tobytes()
        assert g.loglik_history == tuple(history)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_vlad_residuals(self, name):
        X, k = _fixture(name)
        cb = kmeans_fit(X[::3], k, seed=2, max_iter=3)
        for rows in (X[:169], X[169:1200], X):
            assert vlad_residuals(cb, rows).tobytes() == _ref_vlad(cb.centroids, rows).tobytes()


def test_gmm_fit_assigns_once_per_lloyd_step(monkeypatch):
    """EM labels the k-means fit's final centroids with one more `_nearest` pass."""
    X, k = _fixture("relu-d64")
    calls = {"_assign": 0, "_nearest": 0}
    for name in calls:
        original = getattr(codebooks, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(codebooks, name, counted)
    passes = len(kmeans_fit(X, k, seed=4, max_iter=4, tol=0.0).inertia_history)
    assert passes == 5  # the seeding assignment plus one per Lloyd step
    calls.update(_assign=0, _nearest=0)
    gmm_fit(X, k, seed=4, max_iter=4, tol=0.0)
    assert calls == {"_assign": passes, "_nearest": passes + 1}


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

    @pytest.mark.parametrize("fit", [kmeans_fit, gmm_fit])
    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_rejected(self, fit, max_iter):
        X = np.random.default_rng(5).standard_normal((20, 2))
        with pytest.raises(ValueError, match=f"max_iter must be >= 1, got {max_iter}"):
            fit(X, 2, seed=0, max_iter=max_iter)

    @pytest.mark.parametrize("fit", [kmeans_fit, gmm_fit])
    @pytest.mark.parametrize(
        ("shape", "kwargs", "message"),
        [
            ((20,), {}, "descriptor set must be 2-D (N, d), got shape (20,)"),
            ((20, 2), {"k": 0}, "k must be >= 1"),
            ((20, 2), {"tol": -1e-3}, "tol must be finite and >= 0, got -0.001"),
        ],
        ids=["points-1d", "k-0", "tol-negative"],
    )
    def test_bad_arguments_rejected(self, fit, shape, kwargs, message):
        X = np.random.default_rng(5).standard_normal(shape)
        with pytest.raises(ValueError, match=re.escape(message)):
            fit(X, **{"k": 2, "seed": 0, **kwargs})

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

    def test_subsampled_fit_is_deterministic(self, monkeypatch):
        """Above SUBSAMPLE_LIMIT rows the seeding sees a seeded subsample of that many rows."""
        monkeypatch.setattr(codebooks, "SUBSAMPLE_LIMIT", 40)
        real_init, seen = codebooks._kmeans_pp_init, []

        def spy(X, *args):
            seen.append(X.shape[0])
            return real_init(X, *args)

        monkeypatch.setattr(codebooks, "_kmeans_pp_init", spy)
        X = np.random.default_rng(11).standard_normal((100, 3))
        a, b = kmeans_fit(X, 4, seed=6), kmeans_fit(X, 4, seed=6)
        assert seen == [40, 40]
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert a.inertia_history == b.inertia_history

    def test_subsampled_fit_equals_fit_on_the_seeded_subsample(self, monkeypatch):
        monkeypatch.setattr(codebooks, "SUBSAMPLE_LIMIT", 60)
        X = np.random.default_rng(12).standard_normal((150, 4))
        seed = 3
        subsample = X[np.random.default_rng(seed).choice(150, 60, replace=False)]
        a, b = kmeans_fit(X, 3, seed=seed), kmeans_fit(subsample, 3, seed=seed)
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert a.inertia_history == b.inertia_history


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

    def test_subsampled_fit_equals_fit_on_the_seeded_subsample(self, monkeypatch):
        monkeypatch.setattr(codebooks, "SUBSAMPLE_LIMIT", 60)
        X = np.random.default_rng(12).standard_normal((150, 4))
        seed = 3
        subsample = X[np.random.default_rng(seed).choice(150, 60, replace=False)]
        a, b = gmm_fit(X, 3, seed=seed), gmm_fit(subsample, 3, seed=seed)
        for name in ("weights", "means", "variances"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert a.loglik_history == b.loglik_history

    def test_em_extra_peak_is_one_tile_and_a_few_n_by_k_arrays(self):
        """EM squares one row tile at a time into one buffer, and the variance init one
        PASS_BYTES tile: neither keeps a copy as large as the pool (an earlier X*X) or as a
        cluster, only one EM tile plus a few (n, k) arrays."""
        n, d, k = 8_000, 256, 2
        X = np.random.default_rng(19).standard_normal((n, d))
        cb = kmeans_fit(X, k, seed=0, max_iter=3)
        tiles = row_tiles(n, 8 * d, TILE_BYTES, d * k)
        assert len(tiles) == 2
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            gmm_em(X, cb, 0, 3, 0.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 8 * d * tiles[0][1] + 8 * n * k * 8 < X.nbytes * 0.7

    @pytest.mark.parametrize("k", [2, 16])
    @pytest.mark.parametrize("relu", [False, True], ids=["relu-off", "relu-on"])
    def test_variance_init_keeps_the_per_cluster_mean_bytes(self, monkeypatch, k, relu):
        """The initial variances add squared deviations over several PASS_BYTES tiles into one
        `_segment_sum` accumulator: the bytes of each cluster's gathered rows' mean over axis 0,
        the former rule, and no copy of a cluster (here 90% of the rows sit near one point)."""
        rng = np.random.default_rng(k)
        n, d = 12_000, 64
        X = rng.standard_normal((n, d)) * np.logspace(-2, 3, d) + 3.0 * (rng.random((n, 1)) < 0.9)
        if relu:
            X = np.maximum(X, 0.0)
            X[::7, :5] = -0.0
        cb = kmeans_fit(X, k, seed=0, max_iter=2)
        labels = codebooks._nearest(X, cb.centroids)
        expected = np.full((k, d), VARIANCE_FLOOR)
        for j in np.unique(labels):
            rows = X[labels == j]
            rows -= cb.centroids[j]
            expected[j] = np.maximum(np.multiply(rows, rows, out=rows).mean(axis=0), VARIANCE_FLOOR)

        class FirstPass(Exception):
            pass

        seen = {}

        def first_pass(X, weights, means, variances):
            seen.update(peak=tracemalloc.get_traced_memory()[1] - base, variances=variances.copy())
            raise FirstPass

        monkeypatch.setattr(codebooks, "_em_pass", first_pass)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with pytest.raises(FirstPass):
                gmm_em(X, cb, 0, 3, 0.0)
        finally:
            tracemalloc.stop()
        assert len(row_tiles(n, 8 * d, PASS_BYTES)) == 12
        assert seen["variances"].tobytes() == expected.tobytes()
        assert seen["peak"] <= 2 * PASS_BYTES + 8 * n * (k + 3)

    @pytest.mark.parametrize(
        ("centroids", "message"),
        [
            (np.zeros((2, 3)), "codebook of k=2 has dim 3; the descriptors have dim 4"),
            (np.zeros((21, 4)), "insufficient data: 20 points for k=21"),
            (np.zeros((0, 4)), "k must be >= 1"),
        ],
        ids=["dim", "k-above-points", "k-0"],
    )
    def test_em_rejects_a_codebook_that_does_not_fit(self, centroids, message):
        X = np.random.default_rng(13).standard_normal((20, 4))
        with pytest.raises(ValueError, match=re.escape(message)):
            gmm_em(X, Codebook(centroids, ()), 0, MAX_ITER, TOL)


def _normwise(a, ref) -> float:
    """max |a - ref| over max |ref|: the error measure of EM's tile-order sums."""
    return float(np.abs(np.asarray(a) - ref).max() / np.abs(ref).max())


class TestRowTiles:
    """`row_tiles`, the one tile rule, and the bytes of the kernels that run over its tiles."""

    @pytest.mark.parametrize(
        ("n", "d", "k", "tile_rows", "sizes"),
        [
            (12_000, 64, 6, 3_000, [3_000] * 4),
            (10_001, 64, 6, 4_000, [3_334, 3_334, 3_333]),  # not 4,000, 4,000 and 2,001
            # 1,000-row tiles would be products of 384,000 multiply-adds: fewer, larger tiles
            (12_000, 64, 6, 1_000, [3_000] * 4),
            (500, 4, 2, 10, [500]),  # a pool of one small product stays whole
            # 20-row tiles exceed 10^6 multiply-adds but are under 128 rows: 1,000 // 128 tiles
            (1_000, 512, 100, 20, [143] * 6 + [142]),
            (1_000, 512, 0, 300, [250] * 4),  # an elementwise pass has no floor
            (0, 512, 100, 300, []),
        ],
        ids=["even", "near-equal", "product-floor", "one-small-tile", "row-floor", "elementwise",
             "no-rows"],
    )
    def test_tiles(self, n, d, k, tile_rows, sizes):
        tiles = row_tiles(n, 8 * d, tile_rows * d * 8, d * k)
        assert [hi - lo for lo, hi in tiles] == sizes
        assert [lo for lo, _ in tiles] == [0, *np.cumsum(sizes)[:-1].tolist()][: len(sizes)]
        assert not k or len(tiles) == 1 or all(
            (hi - lo) * d * k > 10**6 and hi - lo >= 128 for lo, hi in tiles)

    def test_floor_holds_whenever_there_is_a_choice(self):
        """Over random shapes: near-equal tiles, larger first, covering [0, n); several product
        tiles each above 10^6 multiply-adds and at least 128 rows; a tile over the budget only
        where one more tile would break the floor; and never a tile more than the budget needs."""
        rng = np.random.default_rng(37)
        for _ in range(3_000):
            n, row_bytes = int(rng.integers(1, 20_000)), int(rng.integers(1, 9_000))
            budget = int(row_bytes * rng.integers(1, 5_000))
            macs = int(rng.choice([0, 1, 64, 1_024, 8_192, 51_200, 2_000_000]))
            tiles = row_tiles(n, row_bytes, budget, macs)
            sizes = [hi - lo for lo, hi in tiles]
            assert tiles[0][0] == 0 and tiles[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(tiles, tiles[1:]))
            assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1
            floor = max(128, 10**6 // macs + 1) if macs else 1
            most = budget // row_bytes
            if len(tiles) > 1:
                assert sizes[-1] >= floor and (not macs or sizes[-1] * macs > 10**6)
                assert -(-n // (len(tiles) - 1)) > most
            assert sizes[0] <= most or n // (len(tiles) + 1) < floor

    @pytest.mark.parametrize("k", [2, 4, 16, 100])
    @pytest.mark.parametrize("budget", ["TILE_BYTES", "floor"])
    def test_distance_tiles_keep_one_product_bytes(self, k, budget):
        """On a conv5-sized pool of float32-rounded rows, `_dist_blocks`' tiles of X @ C.T, at
        TILE_BYTES and at the floor alone (a budget of one row), equal one product."""
        rng = np.random.default_rng(k)
        n, d = 10_647, 512
        X = rng.standard_normal((n, d)).astype(np.float32).astype(np.float64)
        C = rng.standard_normal((k, d)) * 0.1 + X[rng.choice(n, k, replace=False)]
        tiles = row_tiles(n, 8 * (d + k), TILE_BYTES if budget == "TILE_BYTES" else 1, d * k)
        whole = X @ C.T
        assert len(tiles) >= 6
        for lo, hi in tiles:
            assert (X[lo:hi] @ C.T).tobytes() == whole[lo:hi].tobytes(), (lo, hi)

    @pytest.mark.parametrize("fit", [kmeans_fit, gmm_fit])
    def test_fits_over_several_tiles_equal_one_tile(self, monkeypatch, fit):
        """Distance blocks, point distances, segment sums and the variance init over several row
        tiles give a fit's one-tile bytes, k-means++ seeding included. EM keeps one tile here:
        its M-step sums round by tile order (`test_em_over_several_tiles`)."""
        rng = np.random.default_rng(31)
        n, d, k = 20_000, 8, 32
        X = (rng.standard_normal((n, d)) + rng.integers(0, 4, (n, 1))).astype(np.float32)

        def run(tile_bytes, pass_bytes):
            monkeypatch.setattr(codebooks, "TILE_BYTES", tile_bytes)
            monkeypatch.setattr(codebooks, "PASS_BYTES", pass_bytes)
            calls = []
            monkeypatch.setattr(codebooks, "row_tiles",
                                lambda *a: calls.append((a, row_tiles(*a))) or calls[-1][1])
            model = fit(X, k, seed=2, max_iter=4, tol=0.0)
            counts = {"distance": {len(t) for a, t in calls if a[1] == 8 * (d + k)},
                      "em": {len(t) for a, t in calls if a[1] == 8 * d and len(a) == 4},
                      "pass": {len(t) for a, t in calls if len(a) == 3}}
            return model, counts

        whole, one = run(1 << 40, 1 << 40)
        tiled, several = run(n * d * 8, 1_000 * d * 8)
        assert one == {"distance": {1}, "em": {1} if fit is gmm_fit else set(), "pass": {1}}
        assert several == {"distance": {5}, "em": one["em"], "pass": {20}}
        for name, value in vars(whole).items():
            assert np.asarray(getattr(tiled, name)).tobytes() == np.asarray(value).tobytes(), name

    def test_em_over_several_tiles(self, monkeypatch):
        """EM over four row tiles, with a zero-weight component and ReLU'd rows holding -0.0:
        the first E-step keeps the one-product bytes, the fit stays within the documented
        tolerance of the one-product reference and repeats byte for byte."""
        rng = np.random.default_rng(23)
        n, d = 12_000, 64
        X = np.maximum(rng.standard_normal((n, d)) + rng.integers(0, 3, (n, 1)), 0.0)
        X[::7, :5] = -0.0
        centroids = np.vstack([kmeans_fit(X, 5, seed=1, max_iter=3).centroids,
                               np.full((1, d), 1e3)])  # nearest to no row: weight 0
        cb = Codebook(centroids, ())
        monkeypatch.setattr(codebooks, "TILE_BYTES", 3_000 * d * 8)
        calls, passes = [], []
        em_pass = codebooks._em_pass
        monkeypatch.setattr(codebooks, "row_tiles",
                            lambda *a: calls.append((a, row_tiles(*a))) or calls[-1][1])
        monkeypatch.setattr(codebooks, "_em_pass",  # gmm_em updates the means in place: copy
                            lambda X, *model: passes.append(([m.copy() for m in model],
                                                             em_pass(X, *model))) or passes[-1][1])
        runs = [gmm_em(X, cb, 0, 6, 0.0) for _ in range(2)]
        tiles = [t for a, t in calls if a == (n, 8 * d, codebooks.TILE_BYTES, d * 6)]
        assert len(tiles) == 12 and all(len(t) == 4 for t in tiles)
        assert all((hi - lo) * d * 6 > 10**6 and hi - lo >= 128 for t in tiles for lo, hi in t)
        (weights, means, variances), (nk, loglik, _, _) = passes[0]
        ref_resp, ref_ll = _ref_e_step(X, weights, means, variances)
        assert weights[5] == 0 and nk[5] == 0
        assert nk.tobytes() == ref_resp.sum(axis=0).tobytes() and float(loglik.mean()) == ref_ll
        a, b = runs
        for name in ("weights", "means", "variances", "loglik_history"):
            assert np.asarray(getattr(a, name)).tobytes() == np.asarray(getattr(b, name)).tobytes()
        weights, means, variances, history = _ref_em(X, centroids, 6, 0.0)
        assert a.loglik_history[0] == history[0] and a.weights[5] == 0.0
        assert a.means[5].tobytes() == means[5].tobytes()
        assert (a.variances[5] == VARIANCE_FLOOR).all()
        pairs = [(a.weights, weights), (a.means[:5], means[:5]), (a.variances, variances),
                 (a.loglik_history, history)]
        assert all(_normwise(got, want) <= EM_TILE_TOLERANCE for got, want in pairs)


class TestEStep:
    @pytest.mark.parametrize("weights", [[0.5, 0.3, 0.2], [0.6, 0.0, 0.4]],
                             ids=["positive", "zero-weight"])
    def test_matches_the_out_of_place_expression(self, weights):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((400, 5)) * np.logspace(-2, 3, 5)
        means = rng.standard_normal((3, 5)) * 10.0
        variances = rng.uniform(0.5, 50.0, (3, 5))
        weights = np.array(weights)
        nk, loglik, s1, s2 = _em_pass(X, weights, means, variances)
        ref_resp, ref_ll = _ref_e_step(X, weights, means, variances)
        assert nk.tobytes() == ref_resp.sum(axis=0).tobytes() and float(loglik.mean()) == ref_ll
        assert not nk[weights == 0].any()
        assert s1.tobytes() == (ref_resp.T @ X).tobytes()
        assert s2.tobytes() == (ref_resp.T @ (X * X)).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 16, 100])
    def test_column_sums_over_several_tiles_equal_one_sum(self, monkeypatch, k):
        """Row 0 of the tile buffer carries the running sum, so nk over three tiles has the bits
        of one `resp.sum(axis=0)` over the pool, with a zero-weight component and ReLU'd rows
        holding -0.0 (summing each tile on its own and adding the sums would round apart)."""
        rng = np.random.default_rng(41)
        n, d = 6_000, 512
        X = np.maximum(rng.standard_normal((n, d)) + rng.integers(0, 3, (n, 1)), 0.0)
        X[::7, :5] = -0.0
        means = 1.0 + 0.02 * rng.standard_normal((k, d))  # near each other: soft responsibilities
        variances = np.full((k, d), 1.5)
        weights = np.ones(k)
        weights[2:3] = 0.0  # at k >= 3 a zero-weight component
        weights /= weights.sum()
        monkeypatch.setattr(codebooks, "TILE_BYTES", 2_000 * d * 8)
        assert len(row_tiles(n, 8 * d, codebooks.TILE_BYTES, d * k)) == 3
        nk, loglik, _, _ = _em_pass(X, weights, means, variances)
        ref_resp, ref_ll = _ref_e_step(X, weights, means, variances)
        assert nk.tobytes() == ref_resp.sum(axis=0).tobytes() and float(loglik.mean()) == ref_ll
        assert not nk[weights == 0].any() and (k == 1 or ref_resp[:, 0].max() < 0.9)

    def test_extra_peak_is_below_one_responsibility_matrix(self, monkeypatch):
        """Over three tiles the pass holds a tile's log-joint buffer and scratch array, never
        an (n, k) float64 array: the (n, k) responsibilities and their tiles' scratch held
        about 1.4 of one."""
        n, k = 20_000, 50
        rng = np.random.default_rng(18)
        X = rng.standard_normal((n, 4))
        weights = np.full(k, 1.0 / k)
        means, variances = rng.standard_normal((k, 4)), rng.uniform(0.5, 2.0, (k, 4))
        monkeypatch.setattr(codebooks, "TILE_BYTES", 64_000)
        assert len(row_tiles(n, 8 * 4, codebooks.TILE_BYTES, 4 * k)) == 3
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            nk, _, _, _ = _em_pass(X, weights, means, variances)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert nk.shape == (k,) and peak < n * k * 8


def _posteriors(g, X) -> np.ndarray:
    """Posterior component probabilities (N, k): the `nk` of `_em_pass` over each row alone."""
    X = np.asarray(X, dtype=np.float64)
    return np.stack([_em_pass(x[None], g.weights, g.means, g.variances)[0] for x in X])


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
        np.testing.assert_allclose(_posteriors(g, [[5.0]])[0], [0.5, 0.5], atol=1e-12)

    def test_dominant_component(self):
        from hrrs.codebooks import GmmModel

        g = GmmModel(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.0], [10.0]]),
            variances=np.array([[1e-4], [1.0]]),
            loglik_history=(),
        )
        assert _posteriors(g, [[0.0]])[0, 0] >= 0.999

    def test_single_component(self):
        from hrrs.codebooks import GmmModel

        g = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)), ())
        np.testing.assert_allclose(_posteriors(g, [[3.0, -1.0]])[0], [1.0])

    def test_sums_to_one(self):
        rng = np.random.default_rng(10)
        g = gmm_fit(rng.standard_normal((100, 3)), 4, seed=0)
        probes = rng.standard_normal((200, 3)) * 5
        resp = _posteriors(g, probes)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-12)

    def test_dimension_mismatch(self):
        g = gmm_fit(np.random.default_rng(0).standard_normal((20, 3)), 2, seed=0)
        with pytest.raises(ValueError, match="dim"):
            encode_ifk(g, [[1.0]])


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
