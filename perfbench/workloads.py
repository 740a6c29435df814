"""The benchmark's workloads: timed pipelines through ``hrrs`` and their checks.

Each workload is a batch job run as a closed loop with one client: the
worker calls ``pipeline`` again only after the previous call returned. The
pipeline is the timed part; ``collect`` then reads the outputs, checks them
and returns the retrieval scores, untimed.

Only the stable public surface is called. Anything that writes or reads a
feature set, a model bundle or the sweep cache goes through ``hrrs.cli.main``;
everything else uses library functions that stay in the package's plans.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from hrrs.cli import main as hrrs_main
from hrrs.codebooks import gmm_fit, kmeans_fit
from hrrs.encoders import EncodedFeature, encode_bovw, encode_ifk, encode_vlad, extract_descriptors
from hrrs.evaluation import evaluate_dataset, write_report
from hrrs.head import HeadConfig, TrainConfig, head_feature, head_init, head_train
from hrrs.reduction import pca_apply, pca_fit
from hrrs.retrieval import build_index
from hrrs.tensor_store import load_manifest, read_tensor

from inputs import DatasetSpec, read_ftns
from oracle import check_queries

CHECKED_QUERIES = 24  # per evaluation, drawn with the run seed
NORM_TOLERANCE = 1e-9
MONOTONE_TOLERANCE = 1e-9  # relative, for k-means inertia and EM log-likelihood

# conv5-codebook: scaled from the paper's k=1000 / 100 EM iterations so a
# pipeline takes a few seconds. tol=0 pins the iteration count to max_iter.
CODEBOOK_K = 16
CODEBOOK_ITERS = 6
PCA_DIM = 64

# head-train: hidden width 4096 costs minutes per epoch in numpy. These
# settings lift training accuracy above the 1/21 chance level in 2 epochs.
HEAD_HIDDEN = 64
HEAD_EPOCHS = 2
HEAD_BATCH = 25
HEAD_INIT_STD = 0.05
HEAD_LR0 = 0.01

# sweep-warm: 2 encoders x relu on/off = 4 cells; a small k keeps the cold
# fill (done in set-up) cheap.
SWEEP_CONFIG = {"encoder": {"kind": ["bovw", "vlad"], "k": 2, "relu": [False, True]}}
SWEEP_CELLS = 4


def run_cli(argv: list) -> None:
    """One in-process ``hrrs`` command; its console output is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = hrrs_main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"hrrs {argv[0]} exited with code {code}")


def read_dataset(rec, manifest_path):
    """Manifest plus every tensor, each read through the tensor_store layer."""
    with rec.span("tensor_store.load_manifest"):
        manifest = load_manifest(manifest_path)
    maps = {}
    for entry in manifest.entries:
        with rec.span("tensor_store.read_tensor") as attrs:
            maps[entry.image_id] = read_tensor(entry.tensor_path)
        attrs["bytes"] = maps[entry.image_id].nbytes
    return manifest, maps


def index_and_evaluate(rec, features: dict, manifest, report_dir: Path):
    n = len(features)
    dim = next(iter(features.values())).dim
    with rec.span("retrieval.build_index") as attrs:
        idx = build_index(features, manifest)
    attrs.update(rows=n, dim=dim)
    with rec.span("evaluation.evaluate_dataset") as attrs:
        report = evaluate_dataset(idx, manifest)
    attrs.update(queries=len(report.per_query), distance_bytes=n * n * dim * 8)
    with rec.span("evaluation.write_report"):
        write_report(report, report_dir)
    return report


class Workload:
    """Inputs and scratch space for one workload; subclasses add the pipeline."""

    def __init__(self, manifest: Path, seed: int, work: Path, spec: DatasetSpec):
        self.manifest = Path(manifest)
        self.seed = seed
        self.work = Path(work)
        self.spec = spec
        doc = json.loads(self.manifest.read_text())
        self.ids = [e["id"] for e in doc["entries"]]
        self.labels = [e["class"] for e in doc["entries"]]
        self.paths = [self.manifest.parent / e["path"] for e in doc["entries"]]

    def setup(self) -> None:
        """Work done once in set-up, before any timed call."""

    def prepare(self) -> None:
        """Untimed, before each pipeline call."""

    def pipeline(self, rec) -> dict:
        raise NotImplementedError

    def collect(self, rec, out: dict) -> tuple[float, float]:
        raise NotImplementedError

    def sample(self) -> list[int]:
        rng = np.random.default_rng([self.seed, 7])
        count = min(CHECKED_QUERIES, len(self.ids))
        return sorted(int(i) for i in rng.choice(len(self.ids), count, replace=False))

    def check_report(self, rec, what, report, matrix) -> tuple[float, float]:
        """Query count, then the oracle on the sampled queries; returns (ANMRR, mAP)."""
        rec.check(len(report.per_query) == len(self.ids), f"{what}: {len(report.per_query)} queries")
        reported = {r.query_id: (r.nmrr, r.avep) for r in report.per_query}
        check_queries(rec, what, matrix, self.ids, self.labels, reported, self.sample())
        return report.anmrr, report.mean_ap

    def check_features(self, rec, what, features: dict, dim: int) -> np.ndarray:
        matrix = np.stack([features[i].vector for i in self.ids])
        rec.check(matrix.shape[1] == dim, f"{what}: dimension {matrix.shape[1]}, expected {dim}")
        norms = np.linalg.norm(matrix, axis=1)
        rec.check(
            bool(np.all(np.abs(norms - 1.0) <= NORM_TOLERANCE)),
            f"{what}: row norms in [{norms.min()!r}, {norms.max()!r}]",
        )
        return matrix


class FcRank(Workload):
    """4096-D Fc vectors: `hrrs encode --encoder fc_raw`, then `hrrs eval`."""

    def prepare(self) -> None:
        for name in ("features", "report"):
            shutil.rmtree(self.work / name, ignore_errors=True)

    def pipeline(self, rec) -> dict:
        features, report = self.work / "features", self.work / "report"
        with rec.span("cli.encode") as attrs:
            run_cli(["encode", "--manifest", self.manifest, "--encoder", "fc_raw", "--out", features])
        with rec.span("cli.eval"):
            run_cli(["eval", "--manifest", self.manifest, "--features", features, "--out", report])
        return {"encode_attrs": attrs}

    def collect(self, rec, out: dict) -> tuple[float, float]:
        out["encode_attrs"]["feature_files"] = sum(1 for _ in (self.work / "features").iterdir())
        doc = json.loads((self.work / "report" / "report.json").read_text())
        per_query = doc["per_query"]
        rec.check(len(per_query) == len(self.ids), f"fc_raw: {len(per_query)} queries")
        # The CLI L2-normalizes in float64 and stores the feature set as float32.
        vectors = np.stack([read_ftns(p).astype(np.float64) for p in self.paths])
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        matrix = vectors.astype(np.float32).astype(np.float64)
        reported = {r["query_id"]: (r["NMRR"], r["AveP"]) for r in per_query}
        check_queries(rec, "fc_raw", matrix, self.ids, self.labels, reported, self.sample())
        return doc["ANMRR"], doc["mAP"]


class Conv5Codebook(Workload):
    """k-means and GMM codebooks, BOVW/VLAD/IFK encoding, PCA, three evaluations."""

    def pipeline(self, rec) -> dict:
        manifest, maps = read_dataset(rec, self.manifest)
        descriptors = {}
        for image_id in self.ids:
            with rec.span("encoders.extract_descriptors"):
                descriptors[image_id] = extract_descriptors(maps[image_id])
        train = [e.image_id for e in manifest.entries if e.split == "train"]
        pool = np.concatenate([descriptors[i] for i in train])
        with rec.span("codebooks.kmeans_fit") as attrs:
            codebook = kmeans_fit(pool, CODEBOOK_K, seed=self.seed, max_iter=CODEBOOK_ITERS, tol=0.0)
        passes = len(codebook.inertia_history)  # the initial assignment plus one per iteration
        attrs.update(iters=passes - 1, flops=2 * pool.shape[0] * CODEBOOK_K * pool.shape[1] * passes)
        with rec.span("codebooks.gmm_fit") as attrs:
            gmm = gmm_fit(pool, CODEBOOK_K, seed=self.seed, max_iter=CODEBOOK_ITERS, tol=0.0)
        attrs["iters"] = len(gmm.loglik_history)
        encoded = {"bovw": {}, "vlad": {}, "ifk": {}}
        for image_id in self.ids:
            x = descriptors[image_id]
            with rec.span("encoders.encode_bovw"):
                encoded["bovw"][image_id] = encode_bovw(codebook, x)
            with rec.span("encoders.encode_vlad"):
                encoded["vlad"][image_id] = encode_vlad(codebook, x)
            with rec.span("encoders.encode_ifk"):
                encoded["ifk"][image_id] = encode_ifk(gmm, x)
        indexed = {"bovw": encoded["bovw"]}
        for name in ("vlad", "ifk"):
            matrix = np.stack([encoded[name][i].vector for i in self.ids])
            with rec.span("reduction.pca_fit"):
                model = pca_fit(matrix, PCA_DIM)
            with rec.span("reduction.pca_apply"):
                reduced = pca_apply(model, matrix)
            tag = f"{name}+pca{PCA_DIM}"
            indexed[name] = {i: EncodedFeature(reduced[r], tag, False) for r, i in enumerate(self.ids)}
        reports = {
            name: index_and_evaluate(rec, feats, manifest, self.work / f"report-{name}")
            for name, feats in indexed.items()
        }
        return {"codebook": codebook, "gmm": gmm, "encoded": encoded, "indexed": indexed, "reports": reports}

    def collect(self, rec, out: dict) -> tuple[float, float]:
        k, c = CODEBOOK_K, self.spec.shape[-1]
        for name, dim in (("bovw", k), ("vlad", k * c), ("ifk", 2 * k * c)):
            self.check_features(rec, name, out["encoded"][name], dim)
        inertia = out["codebook"].inertia_history
        rec.check(
            all(b <= a + MONOTONE_TOLERANCE * abs(a) for a, b in zip(inertia, inertia[1:])),
            f"k-means inertia increased: {inertia}",
        )
        loglik = out["gmm"].loglik_history
        rec.check(
            all(b >= a - MONOTONE_TOLERANCE * abs(a) for a, b in zip(loglik, loglik[1:])),
            f"EM log-likelihood decreased: {loglik}",
        )
        scores = []
        for name, feats in out["indexed"].items():
            matrix = np.stack([feats[i].vector for i in self.ids])
            scores.append(self.check_report(rec, name, out["reports"][name], matrix))
        return mean_scores(scores)


class HeadTrain(Workload):
    """mlpconv+GAP head: train 2 epochs on pool5 maps, extract 21-D features, evaluate."""

    def pipeline(self, rec) -> dict:
        manifest, maps = read_dataset(rec, self.manifest)
        classes = sorted(set(self.labels))
        label_index = {label: j for j, label in enumerate(classes)}

        def arrays(split):
            chosen = [e for e in manifest.entries if e.split == split]
            x = np.stack([maps[e.image_id] for e in chosen]).astype(np.float64)
            return x, np.array([label_index[e.class_label] for e in chosen])

        train, test = arrays("train"), arrays("test")
        h, w, c = self.spec.shape
        config = HeadConfig(
            in_channels=c, in_spatial=(h, w), hidden1=HEAD_HIDDEN, hidden2=HEAD_HIDDEN,
            classes=len(classes), init_std=HEAD_INIT_STD,
        )
        hp = TrainConfig(lr0=HEAD_LR0, batch_size=HEAD_BATCH, max_epochs=HEAD_EPOCHS)
        with rec.span("head.head_init"):
            head = head_init(config, seed=self.seed)
        with rec.span("head.head_train") as attrs:
            head, state = head_train(head, train, test, hp, seed=self.seed)
        epochs = len(state.history)
        n_train, n_test = len(train[1]), len(test[1])
        # Forward flops per map; a training step costs a forward and a
        # backward pass (twice the forward), and every epoch ends with
        # eval-mode forward passes over the train and test sets.
        forward = 2 * h * w * (9 * c * HEAD_HIDDEN + HEAD_HIDDEN * HEAD_HIDDEN + HEAD_HIDDEN * len(classes))
        attrs.update(
            epochs=epochs,
            samples=n_train * epochs,
            flops=epochs * (3 * n_train + n_train + n_test) * forward,
            final_train_acc=state.history[-1].train_acc,
        )
        features = {}
        for image_id in self.ids:
            with rec.span("head.head_feature"):
                features[image_id] = head_feature(head, maps[image_id])
        report = index_and_evaluate(rec, features, manifest, self.work / "report")
        return {"epochs": epochs, "classes": len(classes), "features": features, "report": report}

    def collect(self, rec, out: dict) -> tuple[float, float]:
        rec.check(out["epochs"] == HEAD_EPOCHS, f"head trained {out['epochs']} epochs")
        matrix = self.check_features(rec, "ldcnn", out["features"], out["classes"])
        return self.check_report(rec, "ldcnn", out["report"], matrix)


class SweepWarm(Workload):
    """`hrrs sweep` over the conv5 dataset with every cell already cached."""

    @property
    def config(self) -> Path:
        return self.work / "sweep.json"

    @property
    def out_dir(self) -> Path:
        return self.work / "sweep"

    def setup(self) -> None:
        """The cold sweep: computes every cell and fills the cache."""
        doc = {
            "dataset": {"manifest": str(self.manifest.resolve())},
            "seed": self.seed,
            **SWEEP_CONFIG,
        }
        self.config.write_text(json.dumps(doc, indent=2) + "\n")
        shutil.rmtree(self.out_dir, ignore_errors=True)
        run_cli(["sweep", "--config", self.config, "--out", self.out_dir])
        shutil.copyfile(self.out_dir / "sweep.csv", self.work / "sweep.cold.csv")

    def cache_state(self) -> dict:
        cache = self.out_dir / "cache"
        return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in cache.rglob("*") if p.is_file()}

    def prepare(self) -> None:
        self._before = self.cache_state()

    def pipeline(self, rec) -> dict:
        with rec.span("cli.sweep") as attrs:
            run_cli(["sweep", "--config", self.config, "--out", self.out_dir])
        return {"sweep_attrs": attrs}

    def collect(self, rec, out: dict) -> tuple[float, float]:
        # A missed cell writes its cache entry; a hit leaves the cache as it was.
        after = self.cache_state()
        misses = sum(1 for p, state in after.items() if self._before.get(p) != state)
        out["sweep_attrs"].update(cells=SWEEP_CELLS, hits=SWEEP_CELLS - misses)
        rec.check(len(self._before) > 0, "sweep cache is empty after the cold run")
        rec.check(misses == 0, f"warm sweep missed {misses} of {SWEEP_CELLS} cells")
        csv_path = self.out_dir / "sweep.csv"
        same = csv_path.read_bytes() == (self.work / "sweep.cold.csv").read_bytes()
        rec.check(same, "warm sweep.csv differs from the cold run's")
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        rec.check(len(rows) == SWEEP_CELLS, f"sweep.csv has {len(rows)} rows")
        return mean_scores([(float(r["ANMRR"]), float(r["mAP"])) for r in rows])


def mean_scores(scores) -> tuple[float, float]:
    scores = list(scores)
    return math.fsum(s[0] for s in scores) / len(scores), math.fsum(s[1] for s in scores) / len(scores)


WORKLOADS = {
    "fc-rank": FcRank,
    "conv5-codebook": Conv5Codebook,
    "head-train": HeadTrain,
    "sweep-warm": SweepWarm,
}
