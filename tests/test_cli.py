import csv
import io
import json
import re
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrrs import tensor_store
from hrrs.cli import main
from hrrs.head import load_head
from hrrs.tensor_store import BundleError, TensorFormatError, load_bundle


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
    projected = tmp_path / "proj"
    assert run("pca", "apply", "--features", feats, "--model", model, "--out", projected) == 0
    doc = json.loads((projected / "bundle.json").read_text())
    assert doc["tensors"]["matrix"] == [12, 4]

    out_csv = tmp_path / "sweep.csv"
    assert run("pca", "sweep", "--features", feats, "--manifest", dataset,
               "--dims", "2,4", "--k-list", "1,5", "--out", out_csv) == 0
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
        "encoder": {"kind": "ldcnn"},
        "head": {"checkpoint": str(head_dir)},
        "eval": {"k_list": [1]},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "ldcnn-sweep"
    assert run("sweep", "--config", path, "--out", out) == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][0] == "ldcnn"

    # ldcnn without a checkpoint is a config error
    bad = {"dataset": {"manifest": str(dataset)}, "encoder": {"kind": "ldcnn"}}
    path.write_text(json.dumps(bad))
    assert run("sweep", "--config", path, "--out", tmp_path / "x") == 1


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


def test_sweep_config_validation(dataset, tmp_path):
    bad = {"dataset": {"manifest": str(dataset)}, "encoder": {"kind": "vlad"}, "bogus": 1}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run("sweep", "--config", path, "--out", tmp_path / "o") == 1


def test_sweep_workers(dataset, tmp_path):
    config = {
        "dataset": {"manifest": str(dataset)},
        "encoder": {"kind": ["bovw", "vlad"], "k": 3},
        "eval": {"k_list": [1]},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "par"
    assert run("sweep", "--config", path, "--workers", 2, "--out", out) == 0
    with open(out / "sweep.csv") as fh:
        assert len(list(csv.reader(fh))) == 3


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
    cb = tmp_path / "cb"
    run("codebook", "train", "--kind", "kmeans", "--k", 3, "--manifest", dataset, "--out", cb)
    doc = json.loads((cb / "effective_config.json").read_text())
    assert doc["command"] == "codebook train"
    assert doc["k"] == 3
    assert doc["seed"] == 0  # default filled in


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
