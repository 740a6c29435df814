"""Fault injection over every command whose output a later command reads.

Each command runs once cleanly. It then runs again over that output once per write it makes,
with that write (a `write_tensor` or `publish` call) raising OSError, so the writes before it
land and the rest do not. This is the in-process form of the prefix replay of Pillai et al.,
"All File Systems Are Not Created Equal" (OSDI 2014). After each failure the command has exited
1, the loader of its output rejects it naming the file a reader trusts (for the sweep, each cache
entry published before the failure has the clean run's bytes), and a clean re-run gives the
clean run's bytes.
"""

import json
import re
import shutil
from contextlib import contextmanager

import pytest

from hrrs import cli, tensor_store
from hrrs.cli import main
from hrrs.codebooks import load_codebook, load_gmm
from hrrs.encoders import load_features
from hrrs.head import load_head
from hrrs.reduction import load_pca
from hrrs.retrieval import load_index
from hrrs.tensor_store import BundleError, load_manifest

_REAL = {"write_tensor": tensor_store.write_tensor, "publish": tensor_store.publish}
_DS = "{root}/ds/manifest.json"
_SYNTH = ("synth", "--classes", 2, "--per-class", 6, "--shape", "3,3,6", "--separation", 6.0,
          "--seed", 5)

# name: (argv without --out, {root} naming the inputs directory; the file readers trust; its
# loader, or None for the sweep; the number of writes of one run)
COMMANDS = {
    "synth": (_SYNTH, "manifest.json", lambda out: load_manifest(out / "manifest.json"), 13),
    "kmeans": (("codebook", "train", "--kind", "kmeans", "--k", 2, "--manifest", _DS),
               "bundle.json", load_codebook, 2),
    "gmm": (("codebook", "train", "--kind", "gmm", "--k", 2, "--manifest", _DS),
            "bundle.json", load_gmm, 4),
    "encode": (("encode", "--manifest", _DS, "--encoder", "vlad", "--model", "{root}/cb"),
               "bundle.json", load_features, 2),
    "pca-fit": (("pca", "fit", "--features", "{root}/feats", "--d", 2),
                "bundle.json", load_pca, 4),
    "pca-apply": (("pca", "apply", "--features", "{root}/feats", "--model", "{root}/pca"),
                  "bundle.json", load_features, 2),
    "index": (("index", "build", "--features", "{root}/feats", "--manifest", _DS),
              "bundle.json", load_index, 2),
    "head": (("head", "train", "--manifest", _DS, "--hidden1", 4, "--hidden2", 4,
              "--max-epochs", 1), "bundle.json", load_head, 7),
    "sweep": (("sweep", "--config", "{root}/sweep.json"), None, None, 4),
}


def run(*argv):
    return main([str(a) for a in argv])


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@contextmanager
def _writes(fail_at=None):
    """Record each `write_tensor` and `publish` target; call number `fail_at` raises OSError.
    Both `tensor_store` names and `cli`'s imported `publish` are patched."""
    targets = []

    def wrap(real):
        def write(target, *rest):
            if len(targets) == fail_at:
                raise OSError(f"injected failure of write {fail_at}")
            targets.append(target)
            return real(target, *rest)
        return write

    with pytest.MonkeyPatch.context() as mp:
        for module, name in ((tensor_store, "write_tensor"), (tensor_store, "publish"),
                             (cli, "publish")):
            mp.setattr(module, name, wrap(_REAL[name]))
        yield targets


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A dataset, a k-means codebook, a VLAD feature set, a PCA model and a sweep config."""
    root = tmp_path_factory.mktemp("inputs")
    ds = root / "ds" / "manifest.json"
    assert run(*_SYNTH, "--out", ds.parent) == 0
    assert run("codebook", "train", "--kind", "kmeans", "--k", 2, "--manifest", ds,
               "--out", root / "cb") == 0
    assert run("encode", "--manifest", ds, "--encoder", "vlad", "--model", root / "cb",
               "--out", root / "feats") == 0
    assert run("pca", "fit", "--features", root / "feats", "--d", 2, "--out", root / "pca") == 0
    (root / "sweep.json").write_text(json.dumps({
        "dataset": {"manifest": "ds/manifest.json"},
        "encoder": {"kind": ["bovw", "vlad"], "k": 2, "relu": [False, True]}}))
    return root


@pytest.mark.parametrize("name", list(COMMANDS))
def test_every_interrupted_write_is_rejected(name, inputs, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    args, trusted, load, count = COMMANDS[name]
    out = tmp_path / "out"
    argv = [str(a).format(root=inputs) for a in args] + ["--out", str(out)]
    with _writes() as targets:
        assert run(*argv) == 0
    assert len(targets) == count
    clean = _tree(out)
    for i in range(count):
        if load is None:
            shutil.rmtree(out / "cache")
        capsys.readouterr()
        with _writes(fail_at=i):
            assert run(*argv) == 1
        assert capsys.readouterr().err == f"error: injected failure of write {i}\n"
        if load is None:  # the entries published before the failure, each as the clean run wrote it
            entries = _tree(out / "cache")
            assert len(entries) == i
            assert all(clean["cache" / path] == blob for path, blob in entries.items())
        else:
            with pytest.raises((BundleError, FileNotFoundError),
                               match=re.escape(str(out / trusted))):
                load(out)
        assert run(*argv) == 0
        assert _tree(out) == clean
        if load is None:  # the re-run read back every entry published before the failure
            assert capsys.readouterr().out.count("cache hit") == i
