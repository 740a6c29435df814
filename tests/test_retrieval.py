import math
from pathlib import Path

import numpy as np
import pytest

from hrrs.encoders import EncodedFeature
from hrrs.retrieval import build_index, load_index, rank, save_index
from hrrs.tensor_store import ManifestEntry, make_manifest

from oracles import ranked_scan


def _manifest(ids, labels=None):
    labels = labels or {i: "c0" for i in ids}
    return make_manifest(
        [ManifestEntry(i, labels[i], Path(f"{i}.ftns"), "all") for i in ids]
    )


def _features(vectors, tag="fc_raw"):
    return {i: EncodedFeature(np.asarray(v, dtype=np.float64), tag, False) for i, v in vectors.items()}


def _ranked(idx, query_id, include_self=True):
    """One query through `rank`, as (id, distance) pairs in rank order."""
    [(row, order, dists)] = rank(idx, [idx.row(query_id)], include_self)
    assert idx.ids[row] == query_id
    return [(idx.ids[r], d) for r, d in zip(order.tolist(), dists.tolist())]


class TestBuildIndex:
    def test_rows_unit_norm(self):
        feats = _features({"a": [1, 0], "b": [3, 4], "c": [0, 2]})
        idx = build_index(feats, _manifest(["a", "b", "c"]))
        assert idx.size == 3
        np.testing.assert_allclose(np.linalg.norm(idx.matrix, axis=1), 1.0, atol=1e-9)

    def test_duplicate_id_rejected(self):
        feats = list(_features({"a": [1, 0]}).items()) * 2
        with pytest.raises(ValueError, match="duplicate"):
            build_index(feats, _manifest(["a"]))

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
        assert idx.zero_ids == {"b"}
        np.testing.assert_allclose(idx.matrix[idx.ids.index("b")], [0, 0])

    def test_normalization_idempotent(self):
        feats = _features({"a": [0.6, 0.8], "b": [1.0, 0.0]})
        idx = build_index(feats, _manifest(["a", "b"]))
        np.testing.assert_allclose(idx.matrix[0], [0.6, 0.8], atol=1e-12)


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
            rows = [r for r, i in enumerate(idx.ids) if i not in idx.zero_ids]
            for include_self in (True, False):
                for row, order, _ in rank(idx, rows, include_self):
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
