import argparse
import csv
import io
import json
import re
import os
import pkgutil
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hrrs
from hrrs import cli, tensor_store
from hrrs.cli import ENCODERS, CliError, _descriptor_pool, main
from hrrs.encoders import extract_descriptors, load_features
from hrrs.head import HeadConfig, TrainConfig, load_head
from hrrs.retrieval import load_index
from hrrs.tensor_store import (
    BundleError,
    ManifestError,
    TensorFormatError,
    load_bundle,
    load_manifest,
)


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def dataset(tmp_path):
    out = tmp_path / "ds"
    assert run(
        "synth", "--classes", 2, "--per-class", 6, "--shape", "3,3,6",
        "--separation", 6.0, "--seed", 5, "--out", out,
    ) == 0
    return out / "manifest.json"


def test_synth_outputs(dataset):
    ds_dir = dataset.parent
    doc = json.loads(dataset.read_text())
    assert len(doc["entries"]) == 12
    assert (ds_dir / "class00-000.ftns").exists()
    assert (ds_dir / "effective_config.json").exists()


def test_codebook_encode_index_query_eval(dataset, tmp_path):
    cb = tmp_path / "cb"
    assert run("codebook", "train", "--kind", "kmeans", "--k", 3,
               "--manifest", dataset, "--seed", 1, "--out", cb) == 0
    assert (cb / "centroids.ftns").exists()
    sidecar = json.loads((cb / "bundle.json").read_text())
    assert sidecar["kind"] == "kmeans" and sidecar["tensors"]["centroids"] == [3, 6]

    feats = tmp_path / "feats"
    assert run("encode", "--manifest", dataset, "--encoder", "vlad",
               "--model", cb, "--out", feats) == 0
    index_doc = json.loads((feats / "bundle.json").read_text())
    assert index_doc["meta"]["encoder_tag"] == "vlad"
    assert index_doc["tensors"]["matrix"] == [12, 3 * 6]
    assert len(index_doc["meta"]["ids"]) == 12

    idx = tmp_path / "idx"
    assert run("index", "build", "--features", feats, "--manifest", dataset, "--out", idx) == 0

    qcsv = tmp_path / "q.csv"
    assert run("query", "--index", idx, "--id", "class00-000", "--out", qcsv) == 0
    with open(qcsv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rank", "id", "class", "distance"]
    assert rows[1][1] == "class00-000" and float(rows[1][3]) == 0.0
    assert len(rows) == 13

    per_query_dir = tmp_path / "per_query"
    assert run("query", "--index", idx, "--all", "--out", per_query_dir) == 0
    assert len(list(per_query_dir.glob("*.csv"))) == 12

    long_csv = tmp_path / "long.csv"
    assert run("query", "--index", idx, "--all", "--long", "--out", long_csv) == 0
    with open(long_csv) as fh:
        long_rows = list(csv.reader(fh))
    assert long_rows[0] == ["query_id", "rank", "id", "class", "distance"]
    assert len(long_rows) == 1 + 12 * 12

    rep = tmp_path / "rep"
    assert run("eval", "--manifest", dataset, "--features", feats,
               "--k-list", "1,5", "--out", rep) == 0
    assert (rep / "per_query.csv").exists()
    assert (rep / "aggregate.csv").exists()
    summary = json.loads((rep / "report.json").read_text())
    assert len(summary["per_query"]) == 12

    # reproducibility: identical bytes on rerun
    before = (rep / "per_query.csv").read_bytes()
    assert run("eval", "--manifest", dataset, "--features", feats,
               "--k-list", "1,5", "--out", rep) == 0
    assert (rep / "per_query.csv").read_bytes() == before


def _fc_index(dataset, tmp_path):
    feats, idx = tmp_path / "feats", tmp_path / "idx"
    assert run("encode", "--manifest", dataset, "--encoder", "fc_raw", "--out", feats) == 0
    assert run("index", "build", "--features", feats, "--manifest", dataset, "--out", idx) == 0
    return idx


@pytest.mark.parametrize("self_rule", ["--self-included", "--no-self-included"])
def test_query_modes_agree(dataset, tmp_path, self_rule):
    idx = _fc_index(dataset, tmp_path)
    ids = [e["id"] for e in json.loads(dataset.read_text())["entries"]]
    assert run("query", "--index", idx, "--all", self_rule, "--out", tmp_path / "all") == 0
    assert run("query", "--index", idx, "--all", "--long", self_rule,
               "--out", tmp_path / "long.csv") == 0
    expected = ["query_id,rank,id,class,distance"]
    for image_id in sorted(ids):
        single = tmp_path / f"{image_id}.csv"
        assert run("query", "--index", idx, "--id", image_id, self_rule, "--out", single) == 0
        assert single.read_bytes() == (tmp_path / "all" / f"{image_id}.csv").read_bytes()
        expected += [f"{image_id},{line}" for line in single.read_text().splitlines()[1:]]
    assert (tmp_path / "long.csv").read_text().splitlines() == expected


@pytest.mark.parametrize("bad_id", ["../escaped", "..", "."])
def test_query_all_rejects_ids_that_are_not_file_names(dataset, tmp_path, capsys, bad_id):
    doc = json.loads(dataset.read_text())
    doc["entries"][0]["id"] = bad_id
    dataset.write_text(json.dumps(doc))
    idx = _fc_index(dataset, tmp_path)
    work = tmp_path / "work"
    work.mkdir()
    capsys.readouterr()
    assert run("query", "--index", idx, "--all", "--out", work / "q") == 1
    assert repr(bad_id) in capsys.readouterr().err
    assert list(work.iterdir()) == []


def test_gmm_ifk_encode(dataset, tmp_path, capsys):
    g = tmp_path / "gmm"
    assert run("codebook", "train", "--kind", "gmm", "--k", 2,
               "--manifest", dataset, "--seed", 2, "--out", g) == 0
    feats = tmp_path / "ifk"
    assert run("encode", "--manifest", dataset, "--encoder", "ifk",
               "--model", g, "--relu", "--out", feats) == 0
    doc = json.loads((feats / "bundle.json").read_text())
    assert doc["tensors"]["matrix"] == [12, 2 * 2 * 6]

    # kind mismatch is a user error (exit 1) naming the sidecar and its field
    capsys.readouterr()
    assert run("encode", "--manifest", dataset, "--encoder", "bovw",
               "--model", g, "--out", tmp_path / "x") == 1
    err = capsys.readouterr().err
    assert f"{g / 'bundle.json'}: field 'kind' is 'gmm', expected 'kmeans'" in err


def test_pca_commands(dataset, tmp_path, capsys):
    cb = tmp_path / "cb"
    run("codebook", "train", "--kind", "kmeans", "--k", 3, "--manifest", dataset, "--out", cb)
    feats = tmp_path / "feats"
    run("encode", "--manifest", dataset, "--encoder", "vlad", "--model", cb, "--out", feats)

    model = tmp_path / "pca"
    assert run("pca", "fit", "--features", feats, "--d", 4, "--out", model) == 0
    assert json.loads((model / "effective_config.json").read_text())["split"] == "all"
    projected = tmp_path / "proj"
    assert run("pca", "apply", "--features", feats, "--model", model, "--out", projected) == 0
    doc = json.loads((projected / "bundle.json").read_text())
    assert doc["tensors"]["matrix"] == [12, 4]

    # 12 images of 18-D VLAD: dims above 12 are dropped with a message, the rest scored.
    out_csv = tmp_path / "sweep.csv"
    capsys.readouterr()
    assert run("pca", "sweep", "--features", feats, "--manifest", dataset,
               "--dims", "2,16,4,30", "--k-list", "1,5", "--out", out_csv) == 0
    assert "capping sweep at 12-D: dropping [16, 30]" in capsys.readouterr().out
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["dim", "ANMRR", "mAP"]
    assert [r[0] for r in rows[1:]] == ["2", "4"]


def test_head_train_and_ldcnn_encode(dataset, tmp_path):
    head_dir = tmp_path / "head"
    assert run(
        "head", "train", "--manifest", dataset, "--hidden1", 8, "--hidden2", 8,
        "--init-std", 0.1, "--lr0", 0.02, "--batch", 8, "--max-epochs", 3,
        "--seed", 0, "--out", head_dir,
    ) == 0
    assert json.loads((head_dir / "bundle.json").read_text())["tensors"]["W1"] == [3, 3, 6, 8]
    with open(head_dir / "history.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "lr", "train_loss", "train_acc", "test_acc"]
    assert len(rows) == 4

    feats = tmp_path / "ldcnn"
    assert run("encode", "--manifest", dataset, "--encoder", "ldcnn",
               "--head", head_dir, "--out", feats) == 0
    doc = json.loads((feats / "bundle.json").read_text())
    assert doc["meta"]["encoder_tag"] == "ldcnn"
    assert doc["tensors"]["matrix"] == [12, 2]  # one dimension per class


def test_sweep_with_cache(dataset, tmp_path, capsys, monkeypatch):
    config = {
        "dataset": {"manifest": str(dataset)},
        "encoder": {"kind": ["bovw", "vlad", "ifk"], "k": 3, "relu": [False, True]},
        "eval": {"k_list": [1, 5]},
        "seed": 3,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    monkeypatch.setenv("HRRS_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "sweep"
    assert run("sweep", "--config", config_path, "--out", out) == 0
    capsys.readouterr()
    with open(out / "sweep.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 6  # header + 3 encoders x 2 relu settings
    assert rows[0][:5] == ["kind", "relu", "pca_dim", "ANMRR", "mAP"]
    first = (out / "sweep.csv").read_bytes()

    # second run is served from the cache and produces identical bytes
    assert run("sweep", "--config", config_path, "--out", out) == 0
    captured = capsys.readouterr()
    assert captured.out.count("cache hit") == 6
    assert (out / "sweep.csv").read_bytes() == first
    assert (tmp_path / "cache").exists()


def test_sweep_with_pca_axis(dataset, tmp_path):
    config = {
        "dataset": {"manifest": str(dataset)},
        "encoder": {"kind": "vlad", "k": 3},
        "pca": {"dims": [2, 4]},
        "eval": {"k_list": [1, 5]},
        "seed": 1,
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "pca-sweep"
    assert run("sweep", "--config", path, "--out", out) == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.reader(fh))
    assert [(r[0], r[2]) for r in rows[1:]] == [("vlad", "2"), ("vlad", "4")]


def test_sweep_with_ldcnn_checkpoint(dataset, tmp_path):
    head_dir = tmp_path / "head"
    run("head", "train", "--manifest", dataset, "--hidden1", 8, "--hidden2", 8,
        "--init-std", 0.1, "--lr0", 0.02, "--batch", 8, "--max-epochs", 2,
        "--out", head_dir)
    config = {
        "dataset": {"manifest": str(dataset)},
        "encoder": {"kind": ["ldcnn", "fc_raw"], "relu": [False, True]},
        "head": {"checkpoint": str(head_dir)},
        "eval": {"k_list": [1]},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "ldcnn-sweep"
    assert run("sweep", "--config", path, "--out", out) == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.reader(fh))
    # ldcnn applies no ReLU: one relu-0 cell, while fc_raw gets both.
    assert [r[:2] for r in rows[1:]] == [["ldcnn", "0"], ["fc_raw", "0"], ["fc_raw", "1"]]
    assert len(list((out / "cache").glob("*.json"))) == 3

    # ldcnn without a checkpoint is a config error
    bad = {"dataset": {"manifest": str(dataset)}, "encoder": {"kind": "ldcnn"}}
    path.write_text(json.dumps(bad))
    assert run("sweep", "--config", path, "--out", tmp_path / "x") == 1


def test_sweep_keys_only_values_a_kind_reads(dataset, tmp_path, capsys):
    """fc_raw fits no codebook and ignores alpha: editing k or alpha hits the cache."""
    path = tmp_path / "c.json"
    out = tmp_path / "sweep"
    for k, alpha in ((2, 0.5), (3, 0.5), (3, 0.25)):
        config = {
            "dataset": {"manifest": str(dataset)},
            "encoder": {"kind": "fc_raw", "k": k, "alpha": alpha},
            "eval": {"k_list": [1]},
        }
        path.write_text(json.dumps(config))
        assert run("sweep", "--config", path, "--out", out) == 0
    assert capsys.readouterr().out.count("cache hit") == 2
    assert len(list((out / "cache").glob("*.json"))) == 1
    # ifk reads both: each edit is a new cell
    for k, alpha in ((2, 0.5), (3, 0.5), (3, 0.25)):
        config["encoder"] = {"kind": "ifk", "k": k, "alpha": alpha}
        path.write_text(json.dumps(config))
        assert run("sweep", "--config", path, "--out", out) == 0
    assert "cache hit" not in capsys.readouterr().out
    assert len(list((out / "cache").glob("*.json"))) == 4


def test_pca_fit_set_restriction(dataset, tmp_path):
    cb = tmp_path / "cb"
    run("codebook", "train", "--kind", "kmeans", "--k", 3, "--manifest", dataset, "--out", cb)
    feats = tmp_path / "feats"
    run("encode", "--manifest", dataset, "--encoder", "vlad", "--model", cb, "--out", feats)
    model = tmp_path / "pca-train"
    assert run("pca", "fit", "--features", feats, "--d", 2,
               "--manifest", dataset, "--split", "train", "--out", model) == 0
    doc = json.loads((model / "bundle.json").read_text())
    assert doc["tensors"]["components"] == [2, 18]


@pytest.mark.parametrize(
    ("edit", "argv", "message"),
    [
        pytest.param({"bogus": 1}, [], "unknown top-level keys", id="unknown-key"),
        pytest.param({"encoder": {"kind": ["bovw", "bovw"]}}, [], "encoder.kind repeats",
                     id="repeated-kind"),
        pytest.param({"encoder": {"kind": "vlad", "relu": [True, True]}}, [],
                     "encoder.relu repeats", id="repeated-relu"),
        pytest.param({"pca": {"dims": [8, 8]}}, [], "pca.dims repeats", id="repeated-dims"),
        pytest.param({"pca": {"dims": 8}}, [], "pca.dims must be a list", id="scalar-dims"),
        pytest.param({"pca": {"dims": [2, 0]}}, [], "pca.dims must be >= 1", id="dims-below-1"),
        pytest.param({"pca": {"d": 0}}, [], "pca.d must be >= 1", id="d-below-1"),
        pytest.param({"encoder": {"kind": "ifk", "alpha": 0}}, [], "encoder.alpha", id="alpha-0"),
        pytest.param({"encoder": {"kind": "ifk", "alpha": 1.5}}, [], "encoder.alpha",
                     id="alpha-above-1"),
        pytest.param({"encoder": {"kind": "ifk", "alpha": True}}, [],
                     "encoder.alpha must be a number in (0, 1], got True", id="alpha-bool"),
        pytest.param({"eval": {"k_list": [5, 0]}}, [], "eval.k_list must be >= 1",
                     id="k-list-below-1"),
        pytest.param({"eval": {"k_list": [5, 1, 5]}}, [], "eval.k_list repeats [5]",
                     id="repeated-k-list"),
        pytest.param({"encoder": {"kind": []}}, [], "encoder.kind must not be empty",
                     id="empty-kind"),
        pytest.param({"encoder": {"kind": "vlad", "relu": []}}, [],
                     "encoder.relu must not be empty", id="empty-relu"),
        pytest.param({"pca": {"dims": []}}, [], "pca.dims must not be empty", id="empty-dims"),
        pytest.param({"seed": "x"}, [], "seed must be an integer, got 'x'", id="string-seed"),
        pytest.param({"seed": -1}, [], "seed must be >= 0", id="negative-seed"),
        pytest.param({"encoder": {"kind": "vlad", "k": True}}, [],
                     "encoder.k must be an integer, got True", id="bool-k"),
        pytest.param({"pca": {"d": 2.7}}, [], "pca.d must be an integer, got 2.7", id="float-d"),
        pytest.param({"pca": {"dims": [2, "5"]}}, [], "pca.dims must be an integer, got '5'",
                     id="string-dims-entry"),
        pytest.param({"eval": {"k_list": [1, True]}}, [],
                     "eval.k_list must be an integer, got True", id="bool-k-list-entry"),
        pytest.param({"dataset": {"manifest": 5}}, [], "dataset.manifest must be a non-empty path",
                     id="manifest-not-a-string"),
        pytest.param({"encoder": {"kind": "ldcnn"}, "head": {"checkpoint": 5}}, [],
                     "head.checkpoint must be a non-empty path", id="checkpoint-not-a-string"),
        pytest.param({"eval": {"self_included": "false"}}, [],
                     "eval.self_included must be a boolean", id="string-self-included"),
        pytest.param('{"encoder": ', [], "bad.json: invalid JSON", id="invalid-json"),
        pytest.param("[]", [], "config must be a JSON object", id="config-not-an-object"),
        pytest.param({"pca": 5}, [], "config section 'pca' must be an object",
                     id="section-not-an-object"),
        pytest.param({"eval": {"bogus": 1}}, [], "config section 'eval' has unknown keys ['bogus']",
                     id="unknown-section-key"),
        pytest.param('{"dataset": {"manifest": "m.json"}}', [],
                     "config requires an 'encoder' section", id="no-encoder-section"),
        pytest.param({"pca": {"d": 2, "dims": [2]}}, [], "either 'd' or 'dims', not both",
                     id="d-and-dims"),
    ],
)
def test_sweep_config_validation(dataset, tmp_path, capsys, edit, argv, message):
    """`edit` replaces sections of a valid config; a string is the whole file's text."""
    bad = {"dataset": {"manifest": str(dataset)}, "encoder": {"kind": "vlad"}}
    path = tmp_path / "bad.json"
    path.write_text(edit if isinstance(edit, str) else json.dumps({**bad, **edit}))
    assert run("sweep", "--config", path, *argv, "--out", tmp_path / "o") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # rejected before any cell ran


def _train_head(dataset, out, seed):
    assert run("head", "train", "--manifest", dataset, "--hidden1", 8, "--hidden2", 8,
               "--init-std", 0.1, "--lr0", 0.02, "--batch", 8, "--max-epochs", 2,
               "--seed", seed, "--out", out) == 0


def _sweep_rows(config, config_path, out):
    config_path.write_text(json.dumps(config))
    assert run("sweep", "--config", config_path, "--out", out) == 0
    with open(out / "sweep.csv") as fh:
        return list(csv.DictReader(fh))


def _eval_report(dataset, features, out):
    assert run("eval", "--manifest", dataset, "--features", features,
               "--k-list", "1,5", "--out", out) == 0
    return json.loads((out / "report.json").read_text())


@pytest.mark.parametrize(
    ("kind", "relu", "dim"),
    [
        pytest.param(kind, relu, dim, id=f"{kind}-relu{int(relu)}-{f'pca{dim}' if dim else 'full'}")
        for kind, spec in ENCODERS.items()
        for relu in ((False, True) if spec.reads_relu else (False,))
        for dim in ((None,) if kind == "ldcnn" else (None, 2))
    ],
)
def test_sweep_matches_cli_chain(dataset, tmp_path, kind, relu, dim):
    """A sweep row scores what `codebook train` -> `encode` -> `pca` -> `eval` scores."""
    seed, k = 4, 3
    relu_flag = ["--relu"] if relu else []
    config = {
        "dataset": {"manifest": str(dataset)},
        "encoder": {"kind": kind, "k": k, "relu": relu},
        "eval": {"k_list": [1, 5]},
        "seed": seed,
    }
    model_args = []
    codebook = {"bovw": "kmeans", "vlad": "kmeans", "ifk": "gmm"}.get(kind)
    if codebook:
        assert run("codebook", "train", "--kind", codebook, "--k", k, "--manifest", dataset,
                   "--split", "all", *relu_flag, "--seed", seed, "--out", tmp_path / "cb") == 0
        model_args = ["--model", tmp_path / "cb"]
    elif kind == "ldcnn":
        _train_head(dataset, tmp_path / "head", seed)
        config["head"] = {"checkpoint": str(tmp_path / "head")}
        model_args = ["--head", tmp_path / "head"]
    features = tmp_path / "feats"
    assert run("encode", "--manifest", dataset, "--encoder", kind, *model_args, *relu_flag,
               "--out", features) == 0
    if dim:
        config["pca"] = {"d": dim}
        assert run("pca", "fit", "--features", features, "--d", dim, "--out", tmp_path / "pm") == 0
        assert run("pca", "apply", "--features", features, "--model", tmp_path / "pm",
                   "--out", tmp_path / "projected") == 0
        features = tmp_path / "projected"
    report = _eval_report(dataset, features, tmp_path / "eval")

    [row] = _sweep_rows(config, tmp_path / "c.json", tmp_path / "sweep")
    assert (row["kind"], row["relu"], row["pca_dim"]) == (kind, str(int(relu)), str(dim or ""))
    assert row["ANMRR"] == f"{report['ANMRR']:.4f}"
    assert row["mAP"] == f"{report['mAP']:.4f}"


def test_sweep_rekeys_ldcnn_on_retrained_checkpoint(dataset, tmp_path, capsys):
    head = tmp_path / "head"
    config = {
        "dataset": {"manifest": str(dataset)},
        "encoder": {"kind": "ldcnn"},
        "head": {"checkpoint": str(head)},
        "eval": {"k_list": [1, 5]},
    }
    _train_head(dataset, head, seed=1)
    [first] = _sweep_rows(config, tmp_path / "c.json", tmp_path / "sweep")
    _sweep_rows(config, tmp_path / "c.json", tmp_path / "sweep")
    assert "cache hit" in capsys.readouterr().out

    # Retrained in place: same path, new content, so the cached row must not be served.
    _train_head(dataset, head, seed=7)
    assert run("encode", "--manifest", dataset, "--encoder", "ldcnn", "--head", head,
               "--out", tmp_path / "feats") == 0
    report = _eval_report(dataset, tmp_path / "feats", tmp_path / "eval")
    assert f"{report['ANMRR']:.4f}" != first["ANMRR"]
    capsys.readouterr()
    [second] = _sweep_rows(config, tmp_path / "c.json", tmp_path / "sweep")
    assert "cache hit" not in capsys.readouterr().out
    assert second["ANMRR"] == f"{report['ANMRR']:.4f}"


@pytest.fixture()
def sweep_calls(monkeypatch):
    """Counts of the sweep's pool builds, encode passes and checkpoint loads."""
    calls = dict.fromkeys(("_descriptor_pool", "_encode_entries", "load_head"), 0)

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    return calls


@pytest.fixture()
def fit_inputs(monkeypatch):
    """The X of every `pca_fit` call and every feature set loaded or encoded, in call order."""
    seen = {name: [] for name in ("pca_fit", "load_features", "_encode_entries")}

    def recorded(name, real):
        def wrapper(*args, **kwargs):
            result = real(*args, **kwargs)
            seen[name].append(args[0] if name == "pca_fit" else result)
            return result
        return wrapper

    for name in seen:
        monkeypatch.setattr(cli, name, recorded(name, getattr(cli, name)))
    return seen


def test_pca_fits_read_the_feature_set_matrix_itself(dataset, tmp_path, fit_inputs):
    """`pca fit`, `pca sweep --split all` and a sweep cell fit on the set's matrix, not a restack."""
    feats = tmp_path / "feats"
    assert run("encode", "--manifest", dataset, "--encoder", "fc_raw", "--out", feats) == 0
    assert run("pca", "fit", "--features", feats, "--d", 2, "--out", tmp_path / "p") == 0
    assert run("pca", "sweep", "--features", feats, "--manifest", dataset, "--dims", "1,2",
               "--out", tmp_path / "ps.csv") == 0
    config = {
        "dataset": {"manifest": str(dataset)},
        "encoder": {"kind": "fc_raw"},
        "pca": {"dims": [1, 2]},
        "eval": {"k_list": [1]},
    }
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert run("sweep", "--config", tmp_path / "c.json", "--out", tmp_path / "sweep") == 0
    fitted, swept = fit_inputs["load_features"]
    _, cell_set = fit_inputs["_encode_entries"]
    expected = [fitted.matrix] + [swept.matrix] * 2 + [cell_set.matrix] * 2
    assert len(fit_inputs["pca_fit"]) == len(expected)
    assert all(X is matrix for X, matrix in zip(fit_inputs["pca_fit"], expected))


def test_sweep_encodes_each_kind_and_relu_once(dataset, tmp_path, capsys, sweep_calls):
    config = {
        "dataset": {"manifest": str(dataset)},
        "encoder": {"kind": "vlad", "k": 3, "relu": [False, True]},
        "pca": {"dims": [1, 2, 3]},
        "eval": {"k_list": [1, 5]},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "sweep"
    assert run("sweep", "--config", path, "--out", out) == 0
    assert sweep_calls == {"_descriptor_pool": 2, "_encode_entries": 2, "load_head": 0}
    with open(out / "sweep.csv") as fh:
        assert [r[1:3] for r in list(csv.reader(fh))[1:]] == [
            [relu, dim] for relu in "01" for dim in "123"
        ]
    cold = (out / "sweep.csv").read_bytes()

    # One deleted entry: only its (kind, relu) pair is fitted and encoded again.
    entries = sorted((out / "cache").glob("*.json"))
    assert len(entries) == 6
    entries[3].unlink()
    sweep_calls.update(dict.fromkeys(sweep_calls, 0))
    capsys.readouterr()
    assert run("sweep", "--config", path, "--out", out) == 0
    assert sweep_calls == {"_descriptor_pool": 1, "_encode_entries": 1, "load_head": 0}
    assert capsys.readouterr().out.count("cache hit") == 5
    assert (out / "sweep.csv").read_bytes() == cold
    assert entries[3].exists()


def test_sweep_fits_one_codebook_for_bovw_and_vlad(dataset, tmp_path, sweep_calls):
    """bovw and vlad at equal k and relu share one pool and k-means fit, with unchanged bytes."""
    def sweep(kinds, out):
        config = {
            "dataset": {"manifest": str(dataset)},
            "encoder": {"kind": kinds, "k": 3, "relu": [False, True]},
            "eval": {"k_list": [1, 5]},
        }
        (tmp_path / "c.json").write_text(json.dumps(config))
        assert run("sweep", "--config", tmp_path / "c.json", "--out", out) == 0
        return {p.name: p.read_bytes() for p in (out / "cache").glob("*.json")}

    both = sweep(["bovw", "vlad"], tmp_path / "both")
    assert sweep_calls == {"_descriptor_pool": 2, "_encode_entries": 4, "load_head": 0}
    apart = {**sweep("bovw", tmp_path / "bovw"), **sweep("vlad", tmp_path / "vlad")}
    assert sweep_calls["_descriptor_pool"] == 6
    assert len(both) == 4 and both == apart
    with open(tmp_path / "bovw" / "sweep.csv") as fh:
        bovw = list(csv.reader(fh))
    with open(tmp_path / "vlad" / "sweep.csv") as fh:
        vlad = list(csv.reader(fh))
    with open(tmp_path / "both" / "sweep.csv") as fh:
        assert list(csv.reader(fh)) == bovw + vlad[1:]


def test_sweep_names_the_cell_of_a_k_too_large(dataset, tmp_path, capsys):
    config = {
        "dataset": {"manifest": str(dataset)},
        "encoder": {"kind": ["fc_raw", "vlad", "bovw"], "k": 1000, "relu": [True, False]},
        "eval": {"k_list": [1]},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert run("sweep", "--config", path, "--out", tmp_path / "sweep") == 1
    assert ("error: encoder.k 1000 does not fit encoder 'vlad' with relu=True: "
            "insufficient data: 108 points for k=1000") in capsys.readouterr().err
    assert not (tmp_path / "sweep" / "sweep.csv").exists()


def test_sweep_reads_the_checkpoint_once(dataset, tmp_path, sweep_calls):
    _train_head(dataset, tmp_path / "head", seed=1)
    config = {
        "dataset": {"manifest": str(dataset)},
        "encoder": {"kind": "ldcnn"},
        "head": {"checkpoint": str(tmp_path / "head")},
        "pca": {"dims": [1, 2]},
        "eval": {"k_list": [1]},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert run("sweep", "--config", path, "--out", tmp_path / "sweep") == 0
    assert sweep_calls == {"_descriptor_pool": 0, "_encode_entries": 1, "load_head": 1}


def test_sweep_has_no_workers_flag(dataset, tmp_path):
    path = tmp_path / "c.json"
    config = {"dataset": {"manifest": str(dataset)}, "encoder": {"kind": "vlad"}}
    path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        run("sweep", "--config", path, "--workers", 2, "--out", tmp_path / "o")
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(lambda doc: "", id="empty"),
        pytest.param(lambda doc: json.dumps(doc)[:-5], id="truncated"),
        pytest.param(lambda doc: json.dumps({k: v for k, v in doc.items() if k != "P_at_k"}),
                     id="missing-field"),
        pytest.param(lambda doc: json.dumps([doc]), id="not-an-object"),
        pytest.param(lambda doc: json.dumps({**doc, "P_at_k": [0.5]}), id="p-at-k-not-an-object"),
    ],
)
def test_sweep_recomputes_an_unreadable_cache_entry(dataset, tmp_path, capsys, sweep_calls, damage):
    config = {
        "dataset": {"manifest": str(dataset)},
        "encoder": {"kind": ["bovw", "vlad"], "k": 3},
        "eval": {"k_list": [1, 5]},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "sweep"
    assert run("sweep", "--config", path, "--out", out) == 0
    cold = (out / "sweep.csv").read_bytes()
    entry = sorted((out / "cache").glob("*.json"))[0]
    body = entry.read_bytes()
    entry.write_text(damage(json.loads(body)))
    sweep_calls.update(dict.fromkeys(sweep_calls, 0))
    capsys.readouterr()
    assert run("sweep", "--config", path, "--out", out) == 0
    printed = capsys.readouterr().out
    assert f"unreadable cache entry {entry}: recomputing" in printed
    assert printed.count("cache hit") == 1
    assert sweep_calls["_encode_entries"] == 1
    assert (out / "sweep.csv").read_bytes() == cold
    assert entry.read_bytes() == body  # republished


def test_sweep_names_the_cell_of_a_pca_dim_too_large(dataset, tmp_path, capsys):
    config = {
        "dataset": {"manifest": str(dataset)},
        "encoder": {"kind": "bovw", "k": 3},
        "pca": {"dims": [2, 4]},
        "eval": {"k_list": [1, 5]},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "sweep"
    assert run("sweep", "--config", path, "--out", out) == 1
    err = capsys.readouterr().err
    assert ("pca.dims entry 4 does not fit encoder 'bovw' with relu=False: "
            "d must lie in [1, 3], got 4") in err
    assert not (out / "sweep.csv").exists()
    # The cell computed before the failure was cached.
    config["pca"] = {"dims": [2]}
    path.write_text(json.dumps(config))
    assert run("sweep", "--config", path, "--out", out) == 0
    assert capsys.readouterr().out.count("cache hit") == 1


def test_exit_codes(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("eval", "--manifest", "m.json", "--features", "f", "--out", "o", "--bad-flag")
    assert exc.value.code == 2
    # missing manifest: runtime error path
    assert run("eval", "--manifest", tmp_path / "none.json",
               "--features", tmp_path, "--out", tmp_path / "r") == 1
    capsys.readouterr()
    assert run("query", "--index", tmp_path, "--id", "x", "--long", "--out", tmp_path / "q") == 1
    assert "--long requires --all" in capsys.readouterr().err


def test_modules_import_alone_and_version_matches_pyproject():
    """Each hrrs module imports in a fresh interpreter; `hrrs --version` reads pyproject's."""
    src = Path(hrrs.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    for module in pkgutil.iter_modules(hrrs.__path__):
        proc = subprocess.run([sys.executable, "-c", f"import hrrs.{module.name}"],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, f"hrrs.{module.name}: {proc.stderr}"
    pyproject = (src.parent / "pyproject.toml").read_text()
    version = re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1)
    proc = subprocess.run([sys.executable, "-m", "hrrs.cli", "--version"],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == f"hrrs {version}\n"


def _command_paths(parser, prefix=()):
    """Every command path of `parser`, depth first: ("synth",), ("codebook",), ("codebook", "train")…"""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield prefix + (name,)
                yield from _command_paths(sub, prefix + (name,))


def _usage_exit(parse, argv):
    """(exit code, stdout, stderr) of a parse that exits, as help and usage errors do."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parse(list(argv))
    return exc.value.code, out.getvalue(), err.getvalue()


def _full_parse(argv):
    return cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("path", [(), *_command_paths(cli.build_parser())],
                         ids=lambda path: " ".join(path) or "hrrs")
def test_help_matches_the_full_parser(monkeypatch, path):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [*path, "--help"]
    code, out, err = _usage_exit(main, argv)
    assert (code, out, err) == _usage_exit(_full_parse, argv)
    assert code == 0 and out.startswith(f"usage: {' '.join(('hrrs', *path))}") and err == ""


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["pca"],
        ["sweep", "--config", "a", "--out", "b", "--bogus"],
        ["sweep", "--config", "a"],
        ["pca", "fit", "--features", "f", "--out", "o"],
        # argparse dispatches on the first argument that is not an option
        ["--bogus", "sweep", "--config", "a", "--out", "b"],
    ],
    ids=["no-command", "invalid-choice", "no-subcommand", "unrecognized", "missing-out",
         "missing-d", "option-before-command"],
)
def test_usage_errors_match_the_full_parser(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _usage_exit(main, argv)
    assert (code, out, err) == _usage_exit(_full_parse, argv)
    assert code == 2 and out == "" and err.startswith("usage: hrrs")


def test_main_declares_only_the_named_commands_arguments(dataset, tmp_path, monkeypatch):
    declared = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(parser, *names, **kwargs):
        if names != ("-h", "--help"):
            declared.append((parser.prog, names))
        return add_argument(parser, *names, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"dataset": {"manifest": str(dataset)},
                                "encoder": {"kind": "fc_raw"}}))
    assert run("sweep", "--config", path, "--out", tmp_path / "sweep") == 0
    assert declared == [("hrrs", ("--version",)),
                        ("hrrs sweep", ("--config",)), ("hrrs sweep", ("--out",))]
    declared.clear()
    cli.build_parser()
    assert len(declared) == 72  # the full parser: 88 arguments, less its 16 parsers' --help


def test_main_reads_sys_argv(tmp_path, monkeypatch):
    out = tmp_path / "ds"
    monkeypatch.setattr(sys, "argv", ["hrrs", "synth", "--classes", "2", "--per-class", "2",
                                      "--shape", "1,1,2", "--out", str(out)])
    assert main() == 0
    assert (out / "manifest.json").exists()
    assert json.loads((out / "effective_config.json").read_text())["command"] == "synth"


ODD_MAP_MESSAGE = "{odd_map}: feature map has shape (3, 3, 5), expected (h, w, c) = (3, 3, 6)"


def _odd_map_inputs(dataset, tmp_path):
    """A copy of the dataset whose map class01-001 is 3x3x5, one whose first map is a vector,
    a head trained on the 3x3x6 original, and a sweep config with an ldcnn cell over the
    first copy."""
    odd, flat = tmp_path / "odd", tmp_path / "flat"
    shutil.copytree(dataset.parent, odd)
    shutil.copytree(dataset.parent, flat)
    odd_map = odd / "class01-001.ftns"
    tensor_store.write_tensor(odd_map, np.ones((3, 3, 5), dtype=np.float32))
    tensor_store.write_tensor(flat / "class00-000.ftns", np.ones(54, dtype=np.float32))
    head = tmp_path / "head"
    assert run("head", "train", "--manifest", dataset, "--hidden1", 2, "--hidden2", 2,
               "--max-epochs", 1, "--out", head) == 0
    config = tmp_path / "odd-sweep.json"
    config.write_text(json.dumps({"dataset": {"manifest": str(odd / "manifest.json")},
                                  "encoder": {"kind": "ldcnn"},
                                  "head": {"checkpoint": str(head)}}))
    return {"{odd}": odd / "manifest.json", "{odd_map}": odd_map, "{head}": head,
            "{odd_sweep}": config, "{flat}": flat / "manifest.json",
            "{flat_map}": flat / "class00-000.ftns"}


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        pytest.param(["eval", "--manifest", "{ds}", "--features", "{feats}", "--k-list", "0",
                      "--out", "{out}"], "--k-list must be >= 1, got 0", id="eval-k-list-0"),
        pytest.param(["pca", "sweep", "--features", "{feats}", "--manifest", "{ds}",
                      "--dims", "0,2", "--out", "{out}"], "--dims must be >= 1, got 0",
                     id="pca-sweep-dims-0"),
        pytest.param(["eval", "--manifest", "{ds}", "--features", "{feats}", "--k-list", "1,1",
                      "--out", "{out}"], "--k-list repeats [1]", id="eval-k-list-repeat"),
        pytest.param(["pca", "sweep", "--features", "{feats}", "--manifest", "{ds}",
                      "--dims", "2,2", "--out", "{out}"], "--dims repeats [2]",
                     id="pca-sweep-dims-repeat"),
        pytest.param(["synth", "--classes", 2, "--per-class", 2, "--shape", "1,2",
                      "--out", "{out}"], "--shape must be h,w,c", id="synth-shape-rank-2"),
        pytest.param(["encode", "--manifest", "{ds}", "--encoder", "vlad", "--out", "{out}"],
                     "--model is required for encoder 'vlad'", id="encode-without-model"),
        pytest.param(["encode", "--manifest", "{ds}", "--encoder", "ldcnn", "--head", "{out}",
                      "--relu", "--out", "{out}"], "--relu does not apply to encoder 'ldcnn'",
                     id="encode-ldcnn-relu"),
        pytest.param(["encode", "--manifest", "{ds}", "--encoder", "vlad", "--model", "{out}",
                      "--alpha", 0.2, "--out", "{out}"], "--alpha does not apply to encoder 'vlad'",
                     id="encode-vlad-alpha"),
        pytest.param(["encode", "--manifest", "{ds}", "--encoder", "fc_raw", "--alpha", 0.5,
                      "--out", "{out}"], "--alpha does not apply to encoder 'fc_raw'",
                     id="encode-fc_raw-alpha"),
        pytest.param(["encode", "--manifest", "{ds}", "--encoder", "fc_raw", "--model", "{out}",
                      "--out", "{out}"], "--model does not apply to encoder 'fc_raw'",
                     id="encode-fc_raw-model"),
        pytest.param(["encode", "--manifest", "{ds}", "--encoder", "vlad", "--model", "{out}",
                      "--head", "{out}", "--out", "{out}"],
                     "--head does not apply to encoder 'vlad'", id="encode-vlad-head"),
        pytest.param(["encode", "--manifest", "{ds}", "--encoder", "ldcnn", "--model", "{out}",
                      "--out", "{out}"], "--model does not apply to encoder 'ldcnn'",
                     id="encode-ldcnn-model"),
        pytest.param(["query", "--index", "{out}", "--out", "{out}"],
                     "pass exactly one of --id or --all", id="query-without-id-or-all"),
        pytest.param(["pca", "fit", "--features", "{feats}", "--d", 2, "--split", "train",
                      "--out", "{out}"], "--split selects fit-set entries of --manifest",
                     id="pca-fit-split-without-manifest"),
        pytest.param(["codebook", "train", "--kind", "gmm", "--k", 2, "--manifest", "{ds}",
                      "--max-iter", 0, "--out", "{out}"], "max_iter must be >= 1, got 0",
                     id="codebook-gmm-max-iter-0"),
        pytest.param(["codebook", "train", "--kind", "kmeans", "--k", 2, "--manifest", "{ds}",
                      "--max-iter", -1, "--out", "{out}"], "max_iter must be >= 1, got -1",
                     id="codebook-kmeans-max-iter-negative"),
        pytest.param(["pca", "fit", "--features", "{feats}", "--d", 2, "--manifest", "{ds}",
                      "--split", "all", "--out", "{out}"], "fit-set ids missing from features",
                     id="pca-fit-set-not-encoded"),
        pytest.param(["head", "train", "--manifest", "{ds}", "--lr0", "nan", "--out", "{out}"],
                     "lr0 must be finite, got nan", id="head-train-lr0-nan"),
        pytest.param(["head", "train", "--manifest", "{ds}", "--init-std", "nan", "--out", "{out}"],
                     "init_std must be finite, got nan", id="head-train-init-std-nan"),
        pytest.param(["head", "train", "--manifest", "{ds}", "--weight-decay", -1, "--out", "{out}"],
                     "weight_decay must be >= 0, got -1.0", id="head-train-weight-decay-negative"),
        pytest.param(["head", "train", "--manifest", "{odd}", "--hidden1", 2, "--hidden2", 2,
                      "--out", "{out}"], ODD_MAP_MESSAGE, id="head-train-map-shape"),
        pytest.param(["head", "train", "--manifest", "{flat}", "--out", "{out}"],
                     "{flat_map}: feature map has shape (54,), expected (h, w, c)",
                     id="head-train-map-rank"),
        pytest.param(["encode", "--manifest", "{odd}", "--encoder", "ldcnn", "--head", "{head}",
                      "--out", "{out}"], ODD_MAP_MESSAGE, id="encode-ldcnn-map-shape"),
        pytest.param(["sweep", "--config", "{odd_sweep}", "--out", "{out}"], ODD_MAP_MESSAGE,
                     id="sweep-ldcnn-map-shape"),
    ],
)
def test_cli_rejects_bad_arguments(dataset, tmp_path, capsys, monkeypatch, argv, message):
    """Each bad argument exits 1 naming the flag or fault; features cover the train split only."""
    feats = tmp_path / "feats"
    assert run("encode", "--manifest", dataset, "--encoder", "fc_raw", "--split", "train",
               "--out", feats) == 0
    paths = {"{ds}": dataset, "{feats}": feats, "{out}": tmp_path / "out"}
    if any(str(a).startswith(("{odd", "{flat", "{head")) for a in argv):
        paths.update(_odd_map_inputs(dataset, tmp_path))
    monkeypatch.setenv(cli.CACHE_ENV_VAR, str(tmp_path / "cache"))
    for placeholder, path in paths.items():
        message = message.replace(placeholder, str(path))
    capsys.readouterr()
    assert run(*(paths.get(a, a) for a in argv)) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()



@pytest.mark.parametrize(
    ("text", "message"),
    [
        pytest.param("{", "invalid JSON", id="invalid-json"),
        pytest.param("{}", "must contain an 'entries' list", id="no-entries"),
        pytest.param('{"entries": {}}', "must contain an 'entries' list", id="entries-not-a-list"),
        pytest.param('{"entries": [], "bogus": 1}', "unknown top-level keys ['bogus']",
                     id="unknown-top-level-key"),
        pytest.param('{"entries": [5]}', "entry 0 is not an object", id="entry-not-an-object"),
        pytest.param('{"entries": [{"id": "a", "class": "c", "path": "a.ftns", "split": "all"},'
                     ' {"id": "b"}]}', "entry 1 missing keys ['class', 'path', 'split']",
                     id="missing-entry-keys"),
        pytest.param('{"entries": [{"id": "a", "class": "c", "path": "a.ftns", "split": "all",'
                     ' "x": 0}]}', "entry 0 has unknown keys ['x']", id="unknown-entry-keys"),
        pytest.param('{"entries": []}', "manifest has no entries", id="empty-entries"),
        pytest.param('{"entries": [{"id": "a", "class": null, "path": "a.ftns", "split": "all"}]}',
                     "entry 0 key 'class' must be a string, got None", id="null-class"),
        pytest.param('{"entries": [{"id": "a", "class": "c", "path": "a.ftns", "split": "all"},'
                     ' {"id": null, "class": "c", "path": "b.ftns", "split": "all"}]}',
                     "entry 1 key 'id' must be a string, got None", id="null-id"),
        pytest.param('{"entries": [{"id": 3, "class": "c", "path": "a.ftns", "split": "all"}]}',
                     "entry 0 key 'id' must be a string, got 3", id="int-id"),
        pytest.param('{"entries": [{"id": "a", "class": "c", "path": ["a.ftns"], "split": "all"}]}',
                     "entry 0 key 'path' must be a string, got ['a.ftns']", id="list-path"),
        pytest.param('{"entries": [{"id": "a", "class": "c", "path": "a.ftns", "split": true}]}',
                     "entry 0 key 'split' must be a string, got True", id="bool-split"),
        pytest.param(b'{"entries": ["\xff"]}', "invalid JSON ('utf-8' codec can't decode byte 0xff",
                     id="not-utf-8"),
    ],
)
def test_manifest_loader_rejections(tmp_path, capsys, text, message):
    """`text` is the manifest's text; bytes are written as they are."""
    path = tmp_path / "manifest.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ManifestError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
        load_manifest(path)
    assert run("eval", "--manifest", path, "--features", tmp_path / "f",
               "--out", tmp_path / "r") == 1
    err = capsys.readouterr().err
    assert str(path) in err and message in err


def test_codebook_and_encode_reproducible_bytes(dataset, tmp_path):
    outs = []
    for name in ("a", "b"):
        cb = tmp_path / f"cb-{name}"
        run("codebook", "train", "--kind", "kmeans", "--k", 3,
            "--manifest", dataset, "--seed", 7, "--out", cb)
        feats = tmp_path / f"feats-{name}"
        run("encode", "--manifest", dataset, "--encoder", "bovw", "--model", cb, "--out", feats)
        outs.append((cb, feats))
    (cb_a, feats_a), (cb_b, feats_b) = outs
    assert (cb_a / "centroids.ftns").read_bytes() == (cb_b / "centroids.ftns").read_bytes()
    assert (cb_a / "bundle.json").read_bytes() == (cb_b / "bundle.json").read_bytes()
    for path in feats_a.glob("*.ftns"):
        assert path.read_bytes() == (feats_b / path.name).read_bytes()


def test_effective_config_written(dataset, tmp_path):
    """`main` writes every command's effective config, named by the parsed command path."""
    t = tmp_path
    config = {"dataset": {"manifest": str(dataset)}, "encoder": {"kind": "fc_raw"}}
    (t / "c.json").write_text(json.dumps(config))
    commands = [
        (["synth", "--classes", 2, "--per-class", 2, "--shape", "2,2,2", "--out", t / "syn"],
         t / "syn" / "effective_config.json"),
        (["codebook", "train", "--kind", "kmeans", "--k", 3, "--manifest", dataset,
          "--out", t / "cb"], t / "cb" / "effective_config.json"),
        (["encode", "--manifest", dataset, "--encoder", "fc_raw", "--out", t / "f"],
         t / "f" / "effective_config.json"),
        (["pca", "fit", "--features", t / "f", "--d", 2, "--out", t / "pm"],
         t / "pm" / "effective_config.json"),
        (["pca", "apply", "--features", t / "f", "--model", t / "pm", "--out", t / "pf"],
         t / "pf" / "effective_config.json"),
        (["pca", "sweep", "--features", t / "f", "--manifest", dataset, "--dims", "1,2",
          "--no-self-included", "--out", t / "ps.csv"], t / "ps.csv.config.json"),
        (["head", "train", "--manifest", dataset, "--hidden1", 2, "--hidden2", 2,
          "--max-epochs", 1, "--out", t / "h"], t / "h" / "effective_config.json"),
        (["index", "build", "--features", t / "f", "--manifest", dataset, "--out", t / "i"],
         t / "i" / "effective_config.json"),
        (["query", "--index", t / "i", "--id", "class00-000", "--out", t / "q.csv"],
         t / "q.csv.config.json"),
        (["eval", "--manifest", dataset, "--features", t / "f", "--out", t / "e"],
         t / "e" / "effective_config.json"),
        (["sweep", "--config", t / "c.json", "--out", t / "s"], t / "s" / "effective_config.json"),
    ]
    for argv, written in commands:
        assert run(*argv) == 0
        doc = json.loads(written.read_text())
        path = argv[:2] if argv[0] in ("codebook", "pca", "head", "index") else argv[:1]
        assert doc["command"] == " ".join(path)
        assert not {"func", "subcommand"} & doc.keys()
    doc = json.loads((t / "cb" / "effective_config.json").read_text())
    assert doc["k"] == 3
    assert doc["seed"] == 0  # default filled in
    assert json.loads((t / "ps.csv.config.json").read_text())["self_included"] is False
    assert json.loads((t / "q.csv.config.json").read_text())["self_included"] is True
    sweep = json.loads((t / "s" / "effective_config.json").read_text())
    assert sweep["config"] == str(t / "c.json") and sweep["kinds"] == ["fc_raw"]


def test_encode_alpha_defaults_only_where_read(dataset, tmp_path):
    """`--alpha` resolves to 0.5 when omitted and reaches ifk when given."""
    cb, g = tmp_path / "cb", tmp_path / "gmm"
    run("codebook", "train", "--kind", "kmeans", "--k", 2, "--manifest", dataset, "--out", cb)
    run("codebook", "train", "--kind", "gmm", "--k", 2, "--manifest", dataset, "--out", g)
    assert run("encode", "--manifest", dataset, "--encoder", "vlad", "--model", cb,
               "--out", tmp_path / "vlad") == 0
    assert json.loads((tmp_path / "vlad" / "effective_config.json").read_text())["alpha"] == 0.5
    outs = {}
    for name, flag in (("default", ()), ("half", ("--alpha", 0.5)), ("low", ("--alpha", 0.2))):
        assert run("encode", "--manifest", dataset, "--encoder", "ifk", "--model", g,
                   *flag, "--out", tmp_path / name) == 0
        config = json.loads((tmp_path / name / "effective_config.json").read_text())
        outs[name] = ((tmp_path / name / "matrix.ftns").read_bytes(), config["alpha"])
    assert outs["default"] == outs["half"]
    assert outs["low"][0] != outs["half"][0] and outs["low"][1] == 0.2


def _mixed_manifest(tmp_path, shapes):
    """A manifest over random float32 maps of the given shapes, with some -0.0 entries."""
    rng = np.random.default_rng(11)
    entries = []
    for i, shape in enumerate(shapes):
        fmap = rng.standard_normal(shape).astype(np.float32)
        fmap.flat[::7] = -0.0
        tensor_store.write_tensor(tmp_path / f"m{i}.ftns", fmap)
        entries.append({"id": f"m{i}", "class": f"c{i % 2}", "path": f"m{i}.ftns", "split": "all"})
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"entries": entries}))
    return load_manifest(path)


@pytest.mark.parametrize("relu", [False, True])
def test_descriptor_pool_matches_concatenation(dataset, tmp_path, relu):
    """The preallocated pool holds the bytes of concatenating every map's descriptors."""
    for manifest in (load_manifest(dataset),
                     _mixed_manifest(tmp_path, [(3, 3, 5), (1, 4, 5), (2, 1, 5), (4, 4, 5)])):
        expected = np.concatenate([
            extract_descriptors(tensor_store.read_tensor(e.tensor_path), relu)
            for e in manifest.select("all")
        ])
        pool = _descriptor_pool(manifest, "all", relu)
        assert pool.dtype == np.float64 and pool.shape == expected.shape
        assert pool.tobytes() == expected.tobytes()


def test_descriptor_pool_rejects_mixed_channels(tmp_path):
    manifest = _mixed_manifest(tmp_path, [(2, 2, 4), (2, 2, 3)])
    with pytest.raises(CliError, match="differ in rank or channels"):
        _descriptor_pool(manifest, "all", False)


def test_sweep_resolves_checkpoint_against_config(dataset, tmp_path, monkeypatch):
    run("head", "train", "--manifest", dataset, "--hidden1", 4, "--hidden2", 4,
        "--init-std", 0.1, "--max-epochs", 1, "--out", tmp_path / "head")
    config = {
        "dataset": {"manifest": str(dataset)},
        "encoder": {"kind": "ldcnn"},
        "head": {"checkpoint": "head"},
        "eval": {"k_list": [1]},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert run("sweep", "--config", path, "--out", tmp_path / "out") == 0
    with open(tmp_path / "out" / "sweep.csv") as fh:
        assert list(csv.reader(fh))[1][0] == "ldcnn"


def _edit_sidecar(bundle_dir, edit):
    path = bundle_dir / "bundle.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


def test_index_ids_must_match_matrix_rows(dataset, tmp_path, capsys):
    idx = _fc_index(dataset, tmp_path)
    sidecar = _edit_sidecar(idx, lambda doc: doc["meta"]["ids"].append("extra"))
    capsys.readouterr()
    assert run("query", "--index", idx, "--id", "extra", "--out", tmp_path / "q.csv") == 1
    err = capsys.readouterr().err
    assert f"{sidecar}: field 'meta.ids' must list one entry per row of matrix.ftns (12 rows)" in err


@pytest.mark.parametrize(
    ("bundle", "field", "value", "expected"),
    [
        pytest.param("idx", "ids", 7, "str", id="index-int-id"),
        pytest.param("idx", "classes", None, "str", id="index-null-class"),
        pytest.param("feats", "ids", 7, "str", id="features-int-id"),
        pytest.param("feats", "normalized", 1, "bool", id="features-int-normalized"),
    ],
)
def test_bundle_per_row_entries_must_have_their_type(dataset, tmp_path, capsys,
                                                     bundle, field, value, expected):
    _fc_index(dataset, tmp_path)
    sidecar = _edit_sidecar(tmp_path / bundle, lambda doc: doc["meta"][field].__setitem__(3, value))
    capsys.readouterr()
    if bundle == "idx":
        argv = ("query", "--index", tmp_path / "idx", "--all", "--out", tmp_path / "q")
    else:
        argv = ("eval", "--manifest", dataset, "--features", tmp_path / "feats",
                "--out", tmp_path / "q")
    assert run(*argv) == 1
    message = f"{sidecar}: field 'meta.{field}' entry 3 is {value!r}, expected a {expected}"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "q").exists()


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda ids: ids.__setitem__(1, ids[0]), id="repeated"),
        pytest.param(lambda ids: ids.insert(0, ids.pop(1)), id="unsorted"),
    ],
)
def test_feature_ids_must_be_sorted_and_distinct(dataset, tmp_path, capsys, edit):
    """A repeated id would silently score one image's vector under another's id."""
    _fc_index(dataset, tmp_path)
    sidecar = _edit_sidecar(tmp_path / "feats", lambda doc: edit(doc["meta"]["ids"]))
    message = f"{sidecar}: field 'meta.ids' must list distinct ids in sorted order"
    with pytest.raises(BundleError, match=re.escape(message)):
        load_features(tmp_path / "feats")
    capsys.readouterr()
    assert run("eval", "--manifest", dataset, "--features", tmp_path / "feats",
               "--out", tmp_path / "q") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "q").exists()


def _flatten_member(bundle_dir, name):
    """Rewrite member `name` as a 1-D tensor and record that shape in the sidecar."""
    flat = tensor_store.read_tensor(bundle_dir / f"{name}.ftns").ravel()
    tensor_store.write_tensor(bundle_dir / f"{name}.ftns", flat)
    return _edit_sidecar(bundle_dir, lambda doc: doc["tensors"].__setitem__(name, [flat.size]))


_LOADS = {
    "cb": ["encode", "--manifest", "{ds}", "--encoder", "bovw", "--model", "{cb}", "--out", "{out}"],
    "gmm": ["encode", "--manifest", "{ds}", "--encoder", "ifk", "--model", "{gmm}", "--out", "{out}"],
    "eval": ["eval", "--manifest", "{ds}", "--features", "{feats}", "--out", "{out}"],
    "pca": ["pca", "fit", "--features", "{feats}", "--d", 2, "--out", "{out}"],
    "query": ["query", "--index", "{idx}", "--id", "class00-000", "--out", "{out}"],
}


@pytest.mark.parametrize(
    ("bundle", "damage", "load", "message"),
    [
        pytest.param("cb", "centroids", "cb",
                     "field 'tensors.centroids' must be a 2-D tensor, got shape [18]",
                     id="kmeans-1d-centroids"),
        pytest.param("gmm", "means", "gmm", "field 'tensors.means' must be a 2-D tensor, got shape",
                     id="gmm-1d-means"),
        pytest.param("gmm", "variances", "gmm",
                     "field 'tensors.variances' must be a 2-D tensor, got shape", id="gmm-1d-variances"),
        pytest.param("feats", "matrix", "eval", "field 'tensors.matrix' must be a 2-D tensor, got "
                     "shape [648]", id="features-1d-matrix-eval"),
        pytest.param("feats", "matrix", "pca", "field 'tensors.matrix' must be a 2-D tensor",
                     id="features-1d-matrix-pca-fit"),
        pytest.param("idx", "matrix", "query", "field 'tensors.matrix' must be a 2-D tensor",
                     id="index-1d-matrix"),
        pytest.param("cb", {"history": 5}, "cb",
                     "field 'meta.history' must be a list of numbers, got 5", id="kmeans-int-history"),
        pytest.param("gmm", {"history": [1.5, "x"]}, "gmm",
                     "field 'meta.history' must be a list of numbers, got [1.5, 'x']",
                     id="gmm-string-in-history"),
        pytest.param("cb", {"history": [True]}, "cb",
                     "field 'meta.history' must be a list of numbers, got [True]",
                     id="kmeans-bool-in-history"),
    ],
)
def test_bundle_tensors_must_be_matrices_and_history_numbers(dataset, tmp_path, capsys,
                                                             bundle, damage, load, message):
    """A 1-D member where a matrix belongs, or a malformed `meta.history`, exits 1 naming both."""
    paths = {"{ds}": dataset, "{out}": tmp_path / "out"}
    paths.update({f"{{{name}}}": tmp_path / name for name in ("cb", "gmm", "feats", "idx")})
    assert run("codebook", "train", "--kind", "kmeans", "--k", 3, "--manifest", dataset,
               "--out", tmp_path / "cb") == 0
    assert run("codebook", "train", "--kind", "gmm", "--k", 2, "--manifest", dataset,
               "--out", tmp_path / "gmm") == 0
    _fc_index(dataset, tmp_path)
    if isinstance(damage, str):
        sidecar = _flatten_member(tmp_path / bundle, damage)
    else:
        sidecar = _edit_sidecar(tmp_path / bundle, lambda doc: doc["meta"].update(damage))
    capsys.readouterr()
    assert run(*(paths.get(a, a) for a in _LOADS[load])) == 1
    assert f"{sidecar}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_index_zero_ids_must_match_zero_rows(dataset, tmp_path, capsys):
    idx = _fc_index(dataset, tmp_path)
    sidecar = _edit_sidecar(idx, lambda doc: doc["meta"].update(zero_ids=["class00-001"]))
    with pytest.raises(BundleError, match=re.escape(f"{sidecar}: field 'meta.zero_ids'")):
        load_index(idx)
    capsys.readouterr()
    assert run("query", "--index", idx, "--id", "class00-000", "--out", tmp_path / "q.csv") == 1
    assert f"{sidecar}: field 'meta.zero_ids'" in capsys.readouterr().err
    assert not (tmp_path / "q.csv").exists()


def test_index_ids_must_be_distinct(dataset, tmp_path, capsys):
    """A repeated id would make `query --all` overwrite one per-query file with another."""
    idx = _fc_index(dataset, tmp_path)
    sidecar = _edit_sidecar(idx, lambda doc: doc["meta"]["ids"].__setitem__(1, doc["meta"]["ids"][0]))
    message = f"{sidecar}: field 'meta.ids' must not repeat an id"
    with pytest.raises(BundleError, match=re.escape(message)):
        load_index(idx)
    capsys.readouterr()
    assert run("query", "--index", idx, "--all", "--out", tmp_path / "q") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "q").exists()


def test_feature_set_missing_meta_field(dataset, tmp_path, capsys):
    feats = tmp_path / "feats"
    run("encode", "--manifest", dataset, "--encoder", "fc_raw", "--out", feats)
    sidecar = _edit_sidecar(feats, lambda doc: doc["meta"].pop("ids"))
    capsys.readouterr()
    assert run("eval", "--manifest", dataset, "--features", feats, "--out", tmp_path / "r") == 1
    assert f"{sidecar}: missing field 'meta.ids'" in capsys.readouterr().err


def test_interrupted_head_retrain_is_rejected(dataset, tmp_path, monkeypatch, capsys):
    # A retrain at the same path fails after its first member: the directory
    # now mixes old and new parameters and must not load.
    head_dir = tmp_path / "head"
    train = ("head", "train", "--manifest", dataset, "--hidden1", 4, "--hidden2", 4,
             "--max-epochs", 1, "--out", head_dir)
    assert run(*train) == 0
    real_write = tensor_store.write_tensor
    written = []

    def write_then_fail(target, values):
        if written:
            raise OSError("disk full")
        real_write(target, values)
        written.append(target)

    monkeypatch.setattr(tensor_store, "write_tensor", write_then_fail)
    assert run(*train[:-2], "--seed", 1, "--out", head_dir) == 1
    monkeypatch.undo()
    assert written == [head_dir / "W1.ftns"]
    with pytest.raises(BundleError, match="no bundle.json"):
        load_head(head_dir)
    capsys.readouterr()
    assert run("encode", "--manifest", dataset, "--encoder", "ldcnn",
               "--head", head_dir, "--out", tmp_path / "f") == 1
    assert f"{head_dir / 'bundle.json'}: no bundle.json" in capsys.readouterr().err


@pytest.mark.parametrize(("field", "value"),
                         [("in_channels", 6.0), ("hidden2", 4.0), ("in_spatial", [3, 3.0])])
def test_head_checkpoint_sizes_must_be_integers(dataset, tmp_path, capsys, field, value):
    # Each value equals the trained size, so only the integer check can reject it.
    head_dir = tmp_path / "head"
    assert run("head", "train", "--manifest", dataset, "--hidden1", 4, "--hidden2", 4,
               "--max-epochs", 1, "--out", head_dir) == 0
    sidecar = _edit_sidecar(head_dir, lambda doc: doc["meta"]["config"].__setitem__(field, value))
    message = f"{sidecar}: field 'meta.config' does not fit the parameters ({field} must be an integer"
    with pytest.raises(BundleError, match=re.escape(message)):
        load_head(head_dir)
    capsys.readouterr()
    assert run("encode", "--manifest", dataset, "--encoder", "ldcnn", "--head", head_dir,
               "--out", tmp_path / "f") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


def test_head_train_defaults_are_the_config_defaults():
    args = cli.build_parser("head").parse_args(["head", "train", "--manifest", "m", "--out", "o"])
    head, hp = HeadConfig(), TrainConfig()
    assert (args.hidden1, args.hidden2, args.dropout, args.init_std) == (
        head.hidden1, head.hidden2, head.dropout_rate, head.init_std)
    assert (args.lr0, args.momentum, args.weight_decay, args.batch, args.patience, args.lr_drop,
            args.min_lr, args.max_epochs, args.min_improvement) == (
        hp.lr0, hp.momentum, hp.weight_decay, hp.batch_size, hp.plateau_patience, hp.lr_drop,
        hp.min_lr, hp.max_epochs, hp.min_improvement)


@pytest.fixture(scope="module")
def saved_bundles(tmp_path_factory):
    """One feature set, GMM and head bundle, each with the CLI command that loads it."""
    root = tmp_path_factory.mktemp("bundles")
    ds = root / "ds"
    run("synth", "--classes", 2, "--per-class", 4, "--shape", "2,2,3",
        "--separation", 4.0, "--out", ds)
    manifest = ds / "manifest.json"
    run("encode", "--manifest", manifest, "--encoder", "fc_raw", "--out", root / "features")
    run("codebook", "train", "--kind", "gmm", "--k", 2, "--manifest", manifest,
        "--out", root / "gmm")
    run("head", "train", "--manifest", manifest, "--hidden1", 2, "--hidden2", 2,
        "--max-epochs", 1, "--out", root / "head")
    out = root / "unused"
    return {
        "features": (root / "features",
                     ["eval", "--manifest", manifest, "--features", "{dir}", "--out", out]),
        "gmm": (root / "gmm",
                ["encode", "--manifest", manifest, "--encoder", "ifk", "--model", "{dir}",
                 "--out", out]),
        "head": (root / "head",
                 ["encode", "--manifest", manifest, "--encoder", "ldcnn", "--head", "{dir}",
                  "--out", out]),
    }


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_truncated_bundle_file_is_rejected(saved_bundles, data):
    kind = data.draw(st.sampled_from(sorted(saved_bundles)))
    source, argv = saved_bundles[kind]
    members = json.loads((source / "bundle.json").read_text())["tensors"]
    name = data.draw(st.sampled_from(["bundle.json"] + [f"{m}.ftns" for m in members]))
    length = data.draw(st.integers(0, (source / name).stat().st_size - 1))
    with tempfile.TemporaryDirectory() as tmp:
        bundle_dir = Path(tmp) / kind
        shutil.copytree(source, bundle_dir)
        cut = bundle_dir / name
        cut.write_bytes(cut.read_bytes()[:length])
        with pytest.raises((BundleError, TensorFormatError), match=re.escape(str(cut))):
            load_bundle(bundle_dir, kind)
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main([str(bundle_dir) if a == "{dir}" else str(a) for a in argv])
        assert code == 1
        assert str(cut) in err.getvalue()
