import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hrrs import retrieval
from hrrs.encoders import ZERO_NORM_EPS, EncodedFeature, FeatureSet, feature_set
from hrrs.retrieval import _unit_rows, build_index, distances, index_rows, load_index, rank, save_index
from hrrs.tensor_store import BundleError
from hrrs.tensor_store import ManifestEntry, make_manifest

from oracles import ranked_scan


def _manifest(ids, labels=None):
    labels = labels or {i: "c0" for i in ids}
    return make_manifest(
        [ManifestEntry(i, labels[i], Path(f"{i}.ftns"), "all") for i in ids]
    )


def _features(vectors, tag="fc_raw"):
    return {i: EncodedFeature(np.asarray(v, dtype=np.float64), tag, False) for i, v in vectors.items()}


def _pairs(idx, rows, include_self=True):
    """`rank`'s blocks flattened into (row, order) pairs, in query order."""
    return [(row, order) for blk, orders in rank(idx, rows, include_self)
            for row, order in zip(blk.tolist(), orders)]


def _ranked(idx, query_id, include_self=True):
    """One query through `rank`, as (id, exact distance) pairs in rank order."""
    [(row, order)] = _pairs(idx, [idx.row(query_id)], include_self)
    assert idx.ids[row] == query_id
    dists = distances(idx, row, order)
    return [(idx.ids[r], d) for r, d in zip(order.tolist(), dists.tolist())]


class TestBuildIndex:
    def test_rows_unit_norm(self):
        feats = _features({"a": [1, 0], "b": [3, 4], "c": [0, 2]})
        idx = build_index(feats, _manifest(["a", "b", "c"]))
        assert idx.size == 3
        np.testing.assert_allclose(np.linalg.norm(idx.matrix, axis=1), 1.0, atol=1e-9)

    def test_mixed_tags_rejected(self):
        feats = {
            "a": EncodedFeature(np.ones(2), "bovw", True),
            "b": EncodedFeature(np.ones(2), "vlad", True),
        }
        with pytest.raises(ValueError, match="mixed encoder tags"):
            build_index(feats, _manifest(["a", "b"]))

    def test_mixed_dims_rejected(self):
        feats = {
            "a": EncodedFeature(np.ones(2), "bovw", True),
            "b": EncodedFeature(np.ones(3), "bovw", True),
        }
        with pytest.raises(ValueError, match="dimensions"):
            build_index(feats, _manifest(["a", "b"]))

    def test_unknown_id_rejected(self):
        feats = _features({"a": [1, 0], "zz": [0, 1]})
        with pytest.raises(ValueError, match="not present"):
            build_index(feats, _manifest(["a"]))

    def test_zero_rows_flagged(self):
        feats = _features({"a": [1, 0], "b": [0, 0]})
        idx = build_index(feats, _manifest(["a", "b"]))
        assert idx.zero.tolist() == [False, True]
        np.testing.assert_allclose(idx.matrix[idx.ids.index("b")], [0, 0])

    def test_normalization_idempotent(self):
        feats = _features({"a": [0.6, 0.8], "b": [1.0, 0.0]})
        idx = build_index(feats, _manifest(["a", "b"]))
        np.testing.assert_allclose(idx.matrix[0], [0.6, 0.8], atol=1e-12)


    @pytest.mark.parametrize(
        ("vectors", "ids"),
        [
            ({"a": [1, 0], "b": [3, 4], "c": [0, 2]}, ["a", "b", "c"]),
            ({"q": [1, 0], "bbb": [0, 1], "aaa": [0, 1]}, ["q", "bbb", "aaa"]),
            ({"b": [1, 1], "z1": [0, 0], "a": [1, 0], "z0": [0, 0]}, ["b", "z1", "a", "z0"]),
            ({"a": [1, 0], "zz": [0, 1]}, ["x", "zz", "a"]),  # a manifest id with no row
        ],
    )
    def test_build_index_is_index_rows_of_the_feature_set(self, vectors, ids):
        feats = _features(vectors)
        built, rows = build_index(feats, _manifest(ids)), index_rows(feature_set(feats), _manifest(ids))
        assert (built.ids, built.labels, built.encoder_tag) == (rows.ids, rows.labels, rows.encoder_tag)
        np.testing.assert_array_equal(built.matrix, rows.matrix)
        np.testing.assert_array_equal(built.zero, rows.zero)
        assert built.ids == tuple(i for i in ids if i in vectors)


def _scaled_rows(shape, seed):
    """Gaussian rows scaled by 1e-200, 1 or 1e150, with an all-zero and a 1e-170 row."""
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal(shape) * rng.choice([1e-200, 1.0, 1e150], size=(shape[0], 1))
    matrix[1] = 0.0
    matrix[2] = 1e-170
    return matrix


class TestUnitRows:
    @pytest.mark.parametrize("rows_per_tile", [1, 4, None])
    @pytest.mark.parametrize("shape", [(37, 5), (421, 4097), (9, 100_000)])
    def test_bytes_match_the_boolean_mask_division(self, monkeypatch, shape, rows_per_tile):
        matrix = _scaled_rows(shape, seed=shape[0])
        norms = np.linalg.norm(matrix, axis=1)  # the former whole-matrix expression
        zero = norms <= ZERO_NORM_EPS
        expected = matrix.copy()
        expected[~zero] /= norms[~zero, None]
        if rows_per_tile:
            monkeypatch.setattr(retrieval, "PASS_BYTES", rows_per_tile * 8 * shape[1])
        unit, flags = _unit_rows(matrix)
        assert unit is matrix and unit.tobytes() == expected.tobytes()
        assert flags.tobytes() == zero.tobytes() and flags[1] and flags[2]
        assert not unit.flags.writeable and not flags.flags.writeable

    def test_index_rows_peak_is_the_index_plus_one_tile(self):
        n, d = 600, 4096
        ids = tuple(f"i{r:04d}" for r in range(n))
        fs = FeatureSet(ids, "fc_raw", np.random.default_rng(0).standard_normal((n, d)),
                        (False,) * n)
        manifest = _manifest(list(ids))
        tracemalloc.start()
        try:
            idx = index_rows(fs, manifest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= idx.matrix.nbytes + retrieval.TILE_BYTES + (1 << 20)


class TestQuery:
    def test_self_first_with_distance_zero(self):
        rng = np.random.default_rng(0)
        feats = _features({f"i{k}": rng.standard_normal(4) for k in range(5)})
        idx = build_index(feats, _manifest(list(feats)))
        ranked = _ranked(idx, "i3", include_self=True)
        assert ranked[0] == ("i3", 0.0)
        assert len(ranked) == 5

    def test_hand_distances(self):
        s = 1 / math.sqrt(2)
        feats = _features({"e1": [1, 0], "mid": [s, s], "e2": [0, 1]})
        idx = build_index(feats, _manifest(["e1", "mid", "e2"]))
        ranked = _ranked(idx, "e1")
        assert [i for i, _ in ranked] == ["e1", "mid", "e2"]
        np.testing.assert_allclose(
            [d for _, d in ranked],
            [0.0, math.sqrt(2 - math.sqrt(2)), math.sqrt(2)],
            atol=1e-12,
        )
        assert abs(ranked[1][1] - 0.7654) < 1e-4

    def test_tie_broken_lexicographically(self):
        feats = _features({"q": [1, 0], "bbb": [0, 1], "aaa": [0, 1]})
        idx = build_index(feats, _manifest(["q", "bbb", "aaa"]))
        assert [i for i, _ in _ranked(idx, "q")] == ["q", "aaa", "bbb"]

    def test_exclude_self(self):
        feats = _features({"a": [1, 0], "b": [0, 1]})
        idx = build_index(feats, _manifest(["a", "b"]))
        assert [i for i, _ in _ranked(idx, "a", include_self=False)] == ["b"]

    def test_unknown_id(self):
        feats = _features({"a": [1, 0]})
        idx = build_index(feats, _manifest(["a"]))
        with pytest.raises(KeyError, match="unknown query id 'nope'"):
            idx.row("nope")

    def test_zero_row_query_ranks_unit_rows_by_id(self):
        # [1, 1] normalizes to a row whose squared norm rounds below 1, so
        # computed distances would put "b" before "a"; the zero query sits
        # at exactly 1 from every unit row instead.
        feats = _features({"b": [1, 1], "z1": [0, 0], "a": [1, 0], "z0": [0, 0]})
        idx = build_index(feats, _manifest(["b", "z1", "a", "z0"]))
        assert _ranked(idx, "z0") == [("z0", 0.0), ("z1", 0.0), ("a", 1.0), ("b", 1.0)]
        assert _ranked(idx, "z1", include_self=False) == [("z0", 0.0), ("a", 1.0), ("b", 1.0)]

    def test_euclidean_order_equals_cosine_order(self):
        rng = np.random.default_rng(1)
        vecs = rng.standard_normal((30, 6))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        ids = [f"v{k:02d}" for k in range(30)]
        idx = build_index(_features(dict(zip(ids, vecs))), _manifest(ids))
        by_euclid = [i for i, _ in _ranked(idx, "v00", include_self=False)]
        q = vecs[0]
        cosines = {i: float(v @ q) for i, v in zip(ids, vecs) if i != "v00"}
        by_cosine = sorted(cosines, key=lambda i: (-cosines[i], i))
        assert by_euclid == by_cosine

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(2)
        for trial in range(100):
            n = int(rng.integers(3, 200))
            dim = int(rng.integers(2, 8))
            ids = [f"x{k:03d}" for k in range(n)]
            vecs = rng.standard_normal((n, dim))
            idx = build_index(_features(dict(zip(ids, vecs))), _manifest(ids))
            q_id = ids[int(rng.integers(n))]
            include_self = bool(rng.integers(2))
            oracle = ranked_scan(ids, idx.matrix, q_id, include_self)
            assert [i for i, _ in _ranked(idx, q_id, include_self)] == [i for i, _ in oracle]
        # Exact duplicate vectors, zero rows (never the query: the oracle's
        # sequential sums carry rounding noise at distance 1) and ids out of
        # row order; every query row, both self rules, the whole batch at once.
        for trial in range(30):
            n = int(rng.integers(3, 40))
            dim = int(rng.integers(2, 8))
            ids = [f"y{k:03d}" for k in rng.permutation(n)]
            vecs = rng.standard_normal((n, dim))
            dup = rng.random(n) < 0.3
            vecs[dup] = vecs[rng.integers(0, n, int(dup.sum()))]
            vecs[rng.random(n) < 0.15] = 0.0
            idx = build_index(_features(dict(zip(ids, vecs))), _manifest(ids))
            rows = np.flatnonzero(~idx.zero)
            for include_self in (True, False):
                for row, order in _pairs(idx, rows, include_self):
                    oracle = ranked_scan(idx.ids, idx.matrix, idx.ids[row], include_self)
                    assert [idx.ids[r] for r in order] == [i for i, _ in oracle]

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(3)
        ids = [f"p{k}" for k in range(12)]
        vecs = {i: rng.standard_normal(5) for i in ids}
        idx1 = build_index(_features(vecs), _manifest(ids))
        shuffled = list(ids)
        rng.shuffle(shuffled)
        idx2 = build_index(_features(vecs), _manifest(shuffled))
        for q_id in ids:
            r1 = _ranked(idx1, q_id)
            r2 = _ranked(idx2, q_id)
            assert [i for i, _ in r1] == [i for i, _ in r2]


def _rank_by_difference_rows(idx, rows, include_self):
    """The ranking loop the Gram screen replaced, kept as its reference: one
    N x d difference array per query, lexsort on (distance, self first, id)."""
    matrix, zero = idx.matrix, idx.zero
    id_rank = np.argsort(np.argsort(np.asarray(idx.ids)))
    diffs = np.empty_like(matrix)
    for row in rows:
        np.subtract(matrix, matrix[row], out=diffs)
        dists = np.sqrt(np.einsum("nd,nd->n", diffs, diffs))
        if zero[row]:
            dists[~zero] = 1.0
        key = id_rank.copy()
        key[row] = -1
        order = np.lexsort((key, dists))
        if not include_self:
            order = order[order != row]
        yield row, order, dists


def _screen_fixture(name, rng):
    """(row vectors, ids) whose Gram values tie or nearly tie in many places."""
    if name == "perturbed":  # copies of 12 vectors, moved by 1e-9 .. 1e-14
        base = rng.standard_normal((12, 16))
        vecs = base[rng.integers(0, 12, 120)]
        vecs = vecs + 10.0 ** rng.integers(-14, -8, (120, 1)) * rng.standard_normal((120, 16))
    elif name == "near-zero":  # norms around ZERO_NORM_EPS, exact zeros, duplicates
        vecs = rng.standard_normal((80, 8))
        scale = rng.choice([0.0, 0.5e-12, 1e-12, 2e-12], 30)
        vecs[:30] *= (scale / np.linalg.norm(vecs[:30], axis=1))[:, None]
        vecs[30:40] = vecs[rng.integers(0, 30, 10)]
    elif name == "histograms":  # permuted count vectors and duplicates
        base = rng.multinomial(169, np.full(16, 1 / 16), size=40).astype(float)
        vecs = np.concatenate([base] + [base[:, rng.permutation(16)] for _ in range(2)])
        vecs[rng.random(120) < 0.2] = base[0]
    elif name == "integer-ties":
        vecs = rng.integers(0, 3, (150, 6)).astype(float)
    elif name == "block-boundary":  # more rows than one tile holds
        vecs = rng.standard_normal((1100, 4))
        vecs[rng.random(1100) < 0.05] = vecs[0]
    ids = [f"r{k:04d}" for k in rng.permutation(len(vecs))]  # ids out of row order
    return vecs, ids


class TestGramScreen:
    """`rank` gives the orders of the loop it replaced, row for row, bit for bit."""

    @pytest.mark.parametrize(
        ("name", "seed"),
        [("perturbed", 1), ("near-zero", 2), ("histograms", 3), ("integer-ties", 4),
         ("block-boundary", 5)],
    )
    def test_orders_match_difference_rows(self, name, seed):
        rng = np.random.default_rng(seed)
        vecs, ids = _screen_fixture(name, rng)
        idx = build_index(_features(dict(zip(ids, vecs))), _manifest(ids))
        every, odd = np.arange(idx.size), np.arange(1, idx.size, 2)  # sliced and copied rows
        for rows in (every, odd):
            for include_self in (True, False):
                got = _pairs(idx, rows, include_self)
                want = _rank_by_difference_rows(idx, rows, include_self)
                assert [r for r, _ in got] == rows.tolist()
                assert np.array_equal([o for _, o in got], [o for _, o, _ in want])
        for row, _, dists in _rank_by_difference_rows(idx, rng.choice(idx.size, 8), True):
            assert distances(idx, row, every).tobytes() == dists.tobytes()
            cols = rng.permutation(idx.size)[: idx.size // 2]
            assert distances(idx, row, cols).tobytes() == dists[cols].tobytes()
        # the brute-force oracle agrees up to its own rounding of near-ties
        for row in rng.choice(np.flatnonzero(~idx.zero), 3):
            oracle = dict(ranked_scan(idx.ids, idx.matrix, idx.ids[row], True))
            ranked = [oracle[i] for i, _ in _ranked(idx, idx.ids[row])]
            assert ranked[0] == 0.0 and np.all(np.diff(ranked) >= -1e-12)

    def test_small_tiles_split_every_block(self, monkeypatch):
        """With a tile of a few rows, blocks and distance chunks split everywhere."""

        rng = np.random.default_rng(7)
        vecs, ids = _screen_fixture("perturbed", rng)
        vecs[rng.random(len(vecs)) < 0.1] = 0.0
        idx = build_index(_features(dict(zip(ids, vecs))), _manifest(ids))
        rows = rng.permutation(idx.size)
        want = [o.tolist() for _, o, _ in _rank_by_difference_rows(idx, rows, False)]
        monkeypatch.setattr(retrieval, "TILE_BYTES", 8 * (idx.size + idx.dim) * 3)
        monkeypatch.setattr(retrieval, "PASS_BYTES", 8 * idx.dim * 3)
        assert [o.tolist() for _, o in _pairs(idx, rows, False)] == want

    @pytest.mark.parametrize("include_self", [True, False])
    def test_blocks_are_one_tile_of_queries(self, monkeypatch, include_self):
        """Blocks are the fewest near-equal runs of at most TILE_BYTES // (8 N) consecutive
        queries, or TILE_BYTES // (8 (N + d)) copied ones, the larger first, each with one
        (queries, N or N - 1) intp array of orders."""
        rng = np.random.default_rng(8)
        vecs, ids = _screen_fixture("integer-ties", rng)
        idx = build_index(_features(dict(zip(ids, vecs))), _manifest(ids))
        n, d = idx.size, idx.dim
        monkeypatch.setattr(retrieval, "TILE_BYTES", 8 * n * 7 + 8)
        for rows, size in ((np.arange(3, n), 7), (np.arange(0, n, 2), 8 * n * 7 // (8 * (n + d)))):
            blocks = list(rank(idx, rows, include_self))
            assert [b.tolist() for b, _ in blocks] == [
                part.tolist() for part in np.array_split(rows, -(-rows.size // size))]
            assert max(b.size for b, _ in blocks) == size
            for blk, orders in blocks:
                assert orders.dtype == np.intp and orders.shape == (blk.size, n - (not include_self))
        assert list(rank(idx, [], include_self)) == []


class TestIndexSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        ids = [f"s{k}" for k in range(8)]
        idx = build_index(
            _features({i: rng.standard_normal(4) for i in ids}), _manifest(ids)
        )
        save_index(tmp_path / "idx", idx)
        back = load_index(tmp_path / "idx")
        assert back.ids == idx.ids
        assert back.encoder_tag == idx.encoder_tag
        np.testing.assert_allclose(np.linalg.norm(back.matrix, axis=1), 1.0, atol=1e-9)
        for q_id in ids:
            a = _ranked(idx, q_id)
            b = _ranked(back, q_id)
            assert [i for i, _ in a] == [i for i, _ in b]
            np.testing.assert_allclose([d for _, d in a], [d for _, d in b], atol=1e-6)

    def test_round_trip_keeps_rows_labels_and_zero_rows(self, tmp_path):
        ids = ["z", "a", "b", "y"]
        feats = _features({"z": [0, 0], "a": [3, 4], "b": [1, 0], "y": [0, 0]})
        idx = build_index(feats, _manifest(ids, dict(zip(ids, ["c1", "c0", "c1", "c0"]))))
        save_index(tmp_path / "idx", idx)
        meta = json.loads((tmp_path / "idx" / "bundle.json").read_text())["meta"]
        assert meta["classes"] == ["c1", "c0", "c1", "c0"]
        assert meta["zero_ids"] == ["y", "z"]
        back = load_index(tmp_path / "idx")
        assert back.labels == idx.labels == ("c1", "c0", "c1", "c0")
        assert back.zero.tolist() == idx.zero.tolist() == [True, False, False, True]

    def test_ids_must_be_distinct(self, tmp_path):
        ids = ["z", "a", "y"]
        save_index(tmp_path / "idx", build_index(_features({i: [1, 2] for i in ids}), _manifest(ids)))
        sidecar = tmp_path / "idx" / "bundle.json"
        doc = json.loads(sidecar.read_text())
        doc["meta"]["ids"] = ["z", "a", "z"]
        sidecar.write_text(json.dumps(doc))
        with pytest.raises(BundleError, match=r"bundle.json: field 'meta.ids' must not repeat an id"):
            load_index(tmp_path / "idx")

    @pytest.mark.parametrize("zero_ids", [["a"], [], ["y", "z", "z"], "y,z"])
    def test_zero_ids_must_name_the_zero_rows(self, tmp_path, zero_ids):
        ids = ["z", "a", "y"]
        idx = build_index(_features({"z": [0, 0], "a": [3, 4], "y": [0, 0]}), _manifest(ids))
        save_index(tmp_path / "idx", idx)
        sidecar = tmp_path / "idx" / "bundle.json"
        doc = json.loads(sidecar.read_text())
        doc["meta"]["zero_ids"] = zero_ids
        sidecar.write_text(json.dumps(doc))
        message = r"'meta.zero_ids' must .* zero rows of matrix.ftns \(2 of 3 rows\)"
        with pytest.raises(BundleError, match=message):
            load_index(tmp_path / "idx")
        doc["meta"]["zero_ids"] = ["z", "y"]  # any order
        sidecar.write_text(json.dumps(doc))
        assert load_index(tmp_path / "idx").zero.tolist() == [True, False, True]
