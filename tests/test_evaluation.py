import csv
import json
from pathlib import Path

import numpy as np
import pytest

from hrrs.encoders import EncodedFeature
from hrrs.evaluation import (
    EvalProtocol,
    QueryJudgment,
    anmrr,
    average_precision,
    evaluate_dataset,
    mean_ap,
    nmrr,
    precision_at_k,
    write_report,
)
from hrrs.retrieval import build_index
from hrrs.tensor_store import ManifestEntry, make_manifest

from oracles import (
    avep_transcription,
    chance_anmrr,
    nmrr_transcription,
    p_at_k_transcription,
    random_judgment,
)


def _judgment(ng, ranks, length=1000):
    return QueryJudgment("q", tuple(ranks), ng, length)


def _evaluate(vectors, labels, protocol=None):
    """evaluate_dataset over hand-placed vectors; per-query results by id."""
    manifest = _dataset(list(vectors), labels)
    report = evaluate_dataset(build_index(_unit_features(vectors), manifest), manifest, protocol)
    return {r.query_id: r for r in report.per_query}


class TestJudge:
    """Hit ranks as evaluate_dataset finds them: same-class rows in each ranking."""

    def test_perfect_retrieval(self):
        vecs = {"q": [1, 0], "a": [1, 0.01], "b": [1, 0.02], "x": [0, 1], "y": [-0.01, 1]}
        labels = {"q": "c", "a": "c", "b": "c", "x": "d", "y": "d"}
        r = _evaluate(vecs, labels, EvalProtocol(k_list=(1, 3, 5, 6)))["q"]
        # hit ranks (1, 2, 3) with NG 3 in a list of length 5
        assert r.nmrr == 0.0 and r.avep == 1.0
        assert r.p_at_k == {1: 1.0, 3: 1.0, 5: 0.6}

    def test_missing_relevant_id(self):
        # Every ranking holds the whole index, so a far relevant row is found
        # at the last rank instead of being penalized as never retrieved.
        vecs = {"q": [1, 0], "x": [1, 0.1], "a": [-1, 0]}
        labels = {"q": "c", "x": "d", "a": "c"}
        r = _evaluate(vecs, labels, EvalProtocol(self_included=False, k_list=(2, 3)))["q"]
        assert r.p_at_k == {2: 0.5}
        assert r.nmrr == nmrr_transcription(1, [2]) < 1.0

    def test_empty_relevant_set(self):
        vecs = {"a": [1, 0], "b": [0, 1]}
        with pytest.raises(ValueError, match="no evaluable queries"):
            _evaluate(vecs, {"a": "x", "b": "y"}, EvalProtocol(self_included=False))

    def test_self_included_class_of_100(self):
        ids = ["q"] + [f"r{k:02d}" for k in range(99)] + [f"z{k:02d}" for k in range(60)]
        labels = {i: "z" if i.startswith("z") else "r" for i in ids}
        # identical vectors: self first, then ids ascending
        protocol = EvalProtocol(k_list=(1, 100, 160))
        r = _evaluate({i: [1.0, 0.0] for i in ids}, labels, protocol)["q"]
        assert r.nmrr == 0.0 and r.avep == 1.0
        assert r.p_at_k == {1: 1.0, 100: 1.0, 160: 100 / 160}


class TestNmrr:
    def test_hand_example_no_penalty(self):
        # NG=2, ranks {1,3}: AR=2, NMRR=(2-1.5)/(5-1.5)
        value = nmrr(_judgment(2, [1, 3]))
        assert abs(value - 0.142857) < 5e-7
        assert f"{value:.6f}" == "0.142857"

    def test_hand_example_with_penalty(self):
        # NG=2, ranks {1,6}: rank 6 > K=4 penalized to 5, AR=3
        value = nmrr(_judgment(2, [1, 6]))
        assert abs(value - 0.428571) < 5e-7
        assert f"{value:.6f}" == "0.428571"

    def test_best_and_worst(self):
        assert nmrr(_judgment(4, [1, 2, 3, 4])) == 0.0
        assert nmrr(_judgment(3, [7, 8, 9])) == 1.0  # all ranks > K=6

    def test_never_retrieved_penalized(self):
        # one hit found, one missing entirely: same as both penalized cases
        assert nmrr(_judgment(2, [1])) == nmrr(_judgment(2, [1, 99]))

    def test_ng_zero_rejected(self):
        with pytest.raises(ValueError):
            nmrr(_judgment(0, []))


class TestAnmrrMeanAp:
    def test_anmrr_mean(self):
        assert anmrr([0.0, 1.0]) == 0.5
        assert anmrr([0.0, 0.0, 0.0]) == 0.0
        assert anmrr([0.37]) == 0.37

    def test_mean_ap(self):
        assert mean_ap([1.0, 0.5]) == 0.75
        assert mean_ap([0.9]) == 0.9
        assert mean_ap([1.0, 1.0, 1.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            anmrr([])
        with pytest.raises(ValueError):
            mean_ap([])


class TestAveragePrecision:
    def test_hand_example(self):
        value = average_precision(_judgment(3, [1, 3, 4]))
        assert abs(value - (1 + 2 / 3 + 3 / 4) / 3) < 1e-12
        assert f"{value:.6f}" == "0.805556"

    def test_perfect_ranking(self):
        assert average_precision(_judgment(4, [1, 2, 3, 4])) == 1.0

    def test_single_hit_at_rank_two(self):
        assert average_precision(_judgment(1, [2])) == 0.5


class TestPrecisionAtK:
    def test_hand_count(self):
        assert precision_at_k(_judgment(2, [1, 3]), 5) == 0.4

    def test_top_hit(self):
        assert precision_at_k(_judgment(1, [1]), 1) == 1.0

    def test_configured_k_set(self):
        j = _judgment(10, list(range(1, 11)), length=1000)
        for k in (5, 10, 50, 100, 1000):
            assert 0.0 <= precision_at_k(j, k) <= 1.0

    def test_k_out_of_range(self):
        j = _judgment(1, [1], length=10)
        with pytest.raises(ValueError):
            precision_at_k(j, 0)
        with pytest.raises(ValueError):
            precision_at_k(j, 11)


class TestOracleEquivalence:
    def test_200_random_judgments(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            ng, ranks, length = random_judgment(rng)
            j = _judgment(ng, ranks, length)
            assert abs(nmrr(j) - nmrr_transcription(ng, ranks)) < 1e-12
            assert abs(average_precision(j) - avep_transcription(ng, ranks, length)) < 1e-12
            k = int(rng.integers(1, length + 1))
            assert abs(precision_at_k(j, k) - p_at_k_transcription(ranks, k)) < 1e-12

    def test_monotonicity_under_rank_improvement(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            ng, ranks, length = random_judgment(rng, max_ng=10, max_len=60)
            j = _judgment(ng, ranks, length)
            pick = int(rng.integers(len(ranks)))
            better = ranks[pick] - 1
            if better < 1 or better in ranks:
                continue
            improved = sorted(ranks[:pick] + ranks[pick + 1 :] + [better])
            j2 = _judgment(ng, improved, length)
            assert nmrr(j2) <= nmrr(j) + 1e-12
            assert average_precision(j2) >= average_precision(j) - 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            ng, ranks, length = random_judgment(rng)
            j = _judgment(ng, ranks, length)
            assert 0.0 <= nmrr(j) <= 1.0
            assert 0.0 <= average_precision(j) <= 1.0
            assert 0.0 <= precision_at_k(j, length) <= 1.0


def _dataset(ids, labels):
    return make_manifest(
        [ManifestEntry(i, labels[i], Path(f"{i}.ftns"), "all") for i in ids]
    )


def _unit_features(vectors):
    return {
        i: EncodedFeature(np.asarray(v, dtype=np.float64), "fc_raw", False)
        for i, v in vectors.items()
    }


class TestEvaluateDataset:
    def test_perfectly_clustered_features(self):
        rng = np.random.default_rng(45)
        ids, labels, vecs = [], {}, {}
        for c in range(3):
            anchor = np.zeros(6)
            anchor[c] = 1.0
            for k in range(8):
                i = f"c{c}-{k}"
                ids.append(i)
                labels[i] = f"class{c}"
                vecs[i] = anchor + 0.01 * rng.standard_normal(6)
        report = evaluate_dataset(build_index(_unit_features(vecs), _dataset(ids, labels)), _dataset(ids, labels))
        assert report.anmrr < 0.01
        assert report.mean_ap > 0.99

    def test_identical_features_match_tie_rule_simulation(self):
        rng = np.random.default_rng(46)
        n, classes = 120, 4
        ids = [f"n{k:03d}" for k in rng.permutation(n)]
        labels = {i: f"c{k % classes}" for k, i in enumerate(ids)}
        manifest = _dataset(ids, labels)
        feats = _unit_features({i: [1.0, 0.0] for i in ids})
        report = evaluate_dataset(build_index(feats, manifest), manifest)
        # Exact match against a direct transcription of the tie ordering:
        # self pinned first, remaining ids ascending.
        sims = []
        for q in ids:
            order = [q] + sorted(i for i in ids if i != q)
            relevant = {i for i in ids if labels[i] == labels[q]}
            ranks = [r + 1 for r, i in enumerate(order) if i in relevant]
            sims.append(nmrr_transcription(len(relevant), ranks))
        assert abs(report.anmrr - sum(sims) / len(sims)) < 1e-12
        # And the tie ordering behaves like chance because ids are
        # uncorrelated with class labels.
        sizes = [sum(1 for i in ids if labels[i] == labels[q]) for q in ids]
        baseline = chance_anmrr(sizes, n, self_included=True, trials=20, seed=7)
        assert abs(report.anmrr - baseline) < 0.05

    def test_ucmd_shaped_query_count(self):
        rng = np.random.default_rng(47)
        ids, labels, vecs = [], {}, {}
        for c in range(21):
            for k in range(100):
                i = f"c{c:02d}-{k:03d}"
                ids.append(i)
                labels[i] = f"class{c:02d}"
                vecs[i] = rng.standard_normal(4)
        manifest = _dataset(ids, labels)
        report = evaluate_dataset(build_index(_unit_features(vecs), manifest), manifest)
        assert len(report.per_query) == 2100
        assert 1000 in report.p_at_k  # list length 2100 admits P@1000

    def test_singleton_class_skipped_when_self_excluded(self):
        ids = ["a", "b", "solo"]
        labels = {"a": "x", "b": "x", "solo": "y"}
        manifest = _dataset(ids, labels)
        feats = _unit_features({i: np.random.default_rng(1).standard_normal(3) for i in ids})
        report = evaluate_dataset(
            build_index(feats, manifest), manifest, EvalProtocol(self_included=False, k_list=(1,))
        )
        assert report.skipped == ("solo",)
        assert len(report.per_query) == 2

    def test_aggregates_are_arithmetic_means(self):
        rng = np.random.default_rng(48)
        ids = [f"i{k}" for k in range(20)]
        labels = {i: f"c{k % 2}" for k, i in enumerate(ids)}
        manifest = _dataset(ids, labels)
        feats = _unit_features({i: rng.standard_normal(5) for i in ids})
        report = evaluate_dataset(build_index(feats, manifest), manifest)
        assert abs(report.anmrr - np.mean([r.nmrr for r in report.per_query])) < 1e-12
        assert abs(report.mean_ap - np.mean([r.avep for r in report.per_query])) < 1e-12
        assert 0.0 <= report.anmrr <= 1.0
        assert 0.0 <= report.mean_ap <= 1.0

    def test_query_order_invariance(self):
        rng = np.random.default_rng(49)
        ids = [f"i{k}" for k in range(12)]
        labels = {i: f"c{k % 3}" for k, i in enumerate(ids)}
        vecs = {i: rng.standard_normal(4) for i in ids}
        r1 = evaluate_dataset(
            build_index(_unit_features(vecs), _dataset(ids, labels)), _dataset(ids, labels)
        )
        shuffled = ids[::-1]
        r2 = evaluate_dataset(
            build_index(_unit_features(vecs), _dataset(shuffled, labels)),
            _dataset(shuffled, labels),
        )
        assert abs(r1.anmrr - r2.anmrr) < 1e-12
        assert abs(r1.mean_ap - r2.mean_ap) < 1e-12


class TestWriteReport:
    def test_report_files(self, tmp_path):
        rng = np.random.default_rng(50)
        ids = [f"i{k}" for k in range(10)]
        labels = {i: f"c{k % 2}" for k, i in enumerate(ids)}
        manifest = _dataset(ids, labels)
        feats = _unit_features({i: rng.standard_normal(3) for i in ids})
        report = evaluate_dataset(build_index(feats, manifest), manifest)
        write_report(report, tmp_path)
        with open(tmp_path / "per_query.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["query_id", "class", "NMRR", "AveP"]
        assert len(rows) == 11
        assert rows[1][2] == f"{report.per_query[0].nmrr:.4f}"
        # P@1000 exceeds the list length -> blank cell
        assert rows[1][-1] == ""
        with open(tmp_path / "aggregate.csv") as fh:
            agg = {r[0]: r[1] for r in list(csv.reader(fh))[1:]}
        assert agg["ANMRR"] == f"{report.anmrr:.4f}"
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["ANMRR"] == report.anmrr  # full precision in JSON
        assert len(doc["per_query"]) == 10
