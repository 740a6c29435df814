"""Command-line surface for the retrieval pipeline.

Subcommands: synth, codebook, encode, pca, head, index, query, eval, sweep.
Every command takes long-form flags, honors --seed for all randomness, writes
its effective (default-filled) configuration next to its outputs, and exits
0 on success, 1 on validation/runtime errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .codebooks import gmm_fit, kmeans_fit, load_codebook, load_gmm, save_codebook, save_gmm
from .encoders import (
    EncodedFeature,
    encode_bovw,
    encode_fc,
    encode_ifk,
    encode_vlad,
    extract_descriptors,
    load_features,
    save_features,
)
from .evaluation import DEFAULT_K_LIST, EvalProtocol, evaluate_dataset, write_report
from .head import (
    HeadConfig,
    TrainConfig,
    head_feature,
    head_init,
    head_train,
    load_head,
    save_head,
)
from .reduction import load_pca, pca_apply, pca_fit, save_pca
from .retrieval import build_index, load_index, rank, save_index
from .tensor_store import (
    DatasetManifest,
    gen_synthetic,
    load_manifest,
    read_tensor,
    write_synthetic,
)

# Dictionary sizes used when a sweep config leaves encoder.k unset.
DEFAULT_CODEBOOK_SIZES = {"bovw": 1000, "vlad": 100, "ifk": 100}

CACHE_ENV_VAR = "HRRS_CACHE_DIR"


class CliError(ValueError):
    """User-facing command error: reported on stderr, exit code 1."""


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise CliError(f"expected a comma-separated integer list, got {text!r}") from None
    if not values:
        raise CliError(f"empty integer list {text!r}")
    return values


def _write_effective_config(out: Path, command: str, params: dict) -> None:
    """Provenance: the default-filled configuration next to every output."""
    params = {k: v for k, v in params.items() if k not in ("func", "command", "subcommand")}
    doc = {"command": command, **params}
    if out.is_dir():
        target = out / "effective_config.json"
    else:
        target = out.with_name(out.name + ".config.json")
    target.write_text(json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n")


def _load_split_maps(manifest: DatasetManifest, split: str):
    entries = manifest.select(split)
    if not entries:
        raise CliError(f"manifest has no entries for split {split!r}")
    return [(e.image_id, e.class_label, read_tensor(e.tensor_path)) for e in entries]


def _descriptor_pool(manifest: DatasetManifest, split: str, apply_relu: bool) -> np.ndarray:
    chunks = [
        extract_descriptors(fmap, apply_relu) for _, _, fmap in _load_split_maps(manifest, split)
    ]
    return np.concatenate(chunks, axis=0)


def _encode_entries(
    manifest: DatasetManifest,
    split: str,
    encoder: str,
    apply_relu: bool,
    alpha: float,
    model=None,
    head=None,
) -> dict[str, EncodedFeature]:
    feats: dict[str, EncodedFeature] = {}
    for image_id, _, fmap in _load_split_maps(manifest, split):
        if encoder == "fc_raw":
            feats[image_id] = encode_fc(fmap, apply_relu)
            continue
        if encoder == "ldcnn":
            feats[image_id] = head_feature(head, fmap)
            continue
        descriptors = extract_descriptors(fmap, apply_relu)
        if encoder == "bovw":
            feats[image_id] = encode_bovw(model, descriptors)
        elif encoder == "vlad":
            feats[image_id] = encode_vlad(model, descriptors)
        elif encoder == "ifk":
            feats[image_id] = encode_ifk(model, descriptors, alpha)
        else:
            raise CliError(f"unknown encoder {encoder!r}")
    return feats


def _feature_matrix(features: dict[str, EncodedFeature]) -> tuple[list[str], np.ndarray]:
    ids = sorted(features)
    return ids, np.stack([features[i].vector for i in ids])


def _project_features(
    features: dict[str, EncodedFeature], model, dim_label: str
) -> dict[str, EncodedFeature]:
    out = {}
    for image_id, feat in features.items():
        vec = pca_apply(model, feat.vector)
        out[image_id] = EncodedFeature(vec, f"{feat.encoder_tag}+{dim_label}", False)
    return out


# ---------------------------------------------------------------------------
# Subcommand implementations.


def cmd_synth(args) -> int:
    shape = _parse_int_list(args.shape)
    if len(shape) != 3:
        raise CliError(f"--shape must be h,w,c, got {args.shape!r}")
    manifest, maps = gen_synthetic(
        args.classes, args.per_class, shape, args.separation, args.seed, args.train_frac
    )
    out = Path(args.out)
    manifest_path = write_synthetic(out, manifest, maps)
    _write_effective_config(out, "synth", vars(args))
    print(f"wrote {len(maps)} tensors and {manifest_path}")
    return 0


def cmd_codebook_train(args) -> int:
    manifest = load_manifest(args.manifest)
    pool = _descriptor_pool(manifest, args.split, args.relu)
    out = Path(args.out)
    if args.kind == "kmeans":
        model = kmeans_fit(pool, args.k, seed=args.seed, max_iter=args.max_iter, tol=args.tol)
        save_codebook(out, model)
        print(f"kmeans codebook k={model.k} d={model.dim} inertia={model.inertia_history[-1]:.4f}")
    else:
        model = gmm_fit(pool, args.k, seed=args.seed, max_iter=args.max_iter, tol=args.tol)
        save_gmm(out, model)
        print(f"gmm k={model.k} d={model.dim} loglik={model.loglik_history[-1]:.4f}")
    _write_effective_config(out, "codebook train", vars(args))
    return 0


def cmd_encode(args) -> int:
    manifest = load_manifest(args.manifest)
    model = head = None
    if args.encoder in ("bovw", "vlad", "ifk"):
        if not args.model:
            raise CliError(f"--model is required for encoder {args.encoder!r}")
        model = load_gmm(args.model) if args.encoder == "ifk" else load_codebook(args.model)
    elif args.encoder == "ldcnn":
        if not args.head:
            raise CliError("--head is required for encoder 'ldcnn'")
        head, _ = load_head(args.head)
    feats = _encode_entries(
        manifest, args.split, args.encoder, args.relu, args.alpha, model=model, head=head
    )
    out = Path(args.out)
    sidecar = save_features(out, feats)
    _write_effective_config(out, "encode", vars(args))
    print(f"encoded {len(feats)} images -> {sidecar}")
    return 0


def _fit_set_matrix(features, args) -> np.ndarray:
    """Feature matrix for PCA fitting, restricted to an explicit fit manifest."""
    if args.manifest:
        manifest = load_manifest(args.manifest)
        keep = {e.image_id for e in manifest.select(args.split)}
        missing = keep - set(features)
        if missing:
            raise CliError(f"fit-set ids missing from features: {sorted(missing)[:5]}")
        features = {i: f for i, f in features.items() if i in keep}
        if not features:
            raise CliError(f"fit set is empty for split {args.split!r}")
    _, matrix = _feature_matrix(features)
    return matrix


def cmd_pca_fit(args) -> int:
    features = load_features(args.features)
    matrix = _fit_set_matrix(features, args)
    model = pca_fit(matrix, args.d)
    out = Path(args.out)
    save_pca(out, model)
    _write_effective_config(out, "pca fit", vars(args))
    print(f"pca {model.in_dim}-D -> {model.out_dim}-D on {matrix.shape[0]} samples")
    return 0


def cmd_pca_apply(args) -> int:
    features = load_features(args.features)
    model = load_pca(args.model)
    projected = _project_features(features, model, f"pca{model.out_dim}")
    out = Path(args.out)
    save_features(out, projected)
    _write_effective_config(out, "pca apply", vars(args))
    print(f"projected {len(projected)} features to {model.out_dim}-D")
    return 0


def cmd_pca_sweep(args) -> int:
    features = load_features(args.features)
    manifest = load_manifest(args.manifest)
    dims = _parse_int_list(args.dims)
    k_list = _parse_int_list(args.k_list)
    protocol = EvalProtocol(self_included=args.self_included, k_list=k_list)
    matrix = _fit_set_matrix(features, args)
    cap = min(matrix.shape)
    capped = tuple(d for d in dims if d <= cap)
    if capped != dims:
        print(f"capping sweep at {cap}-D: dropping {[d for d in dims if d > cap]}")
    rows = []
    for d in capped:
        model = pca_fit(matrix, d)
        projected = _project_features(features, model, f"pca{d}")
        report = evaluate_dataset(build_index(projected, manifest), manifest, protocol)
        rows.append((d, report))
        print(f"dim {d}: ANMRR={report.anmrr:.4f} mAP={report.mean_ap:.4f}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dim", "ANMRR", "mAP"] + [f"P@{k}" for k in k_list])
        for d, report in rows:
            row = [d, f"{report.anmrr:.4f}", f"{report.mean_ap:.4f}"]
            row += [f"{report.p_at_k[k]:.4f}" if k in report.p_at_k else "" for k in k_list]
            writer.writerow(row)
    _write_effective_config(out, "pca sweep", vars(args))
    return 0


def cmd_head_train(args) -> int:
    manifest = load_manifest(args.manifest)
    train_items = _load_split_maps(manifest, "train")
    test_items = _load_split_maps(manifest, "test")
    shape = train_items[0][2].shape
    config = HeadConfig(
        in_channels=shape[2],
        in_spatial=(shape[0], shape[1]),
        hidden1=args.hidden1,
        hidden2=args.hidden2,
        classes=manifest.n_classes,
        dropout_rate=args.dropout,
        init_std=args.init_std,
    )
    hp = TrainConfig(
        lr0=args.lr0,
        momentum=args.momentum,
        weight_decay=args.weight_decay,
        batch_size=args.batch,
        plateau_patience=args.patience,
        lr_drop=args.lr_drop,
        min_lr=args.min_lr,
        max_epochs=args.max_epochs,
        min_improvement=args.min_improvement,
    )

    def as_arrays(items):
        maps = np.stack([fmap for _, _, fmap in items]).astype(np.float64)
        labels = np.array([manifest.class_index[label] for _, label, _ in items])
        return maps, labels

    head = head_init(config, seed=args.seed)
    head, state = head_train(head, as_arrays(train_items), as_arrays(test_items), hp, seed=args.seed)
    out = Path(args.out)
    save_head(out, head, state)
    with open(out / "history.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "lr", "train_loss", "train_acc", "test_acc"])
        for r in state.history:
            writer.writerow(
                [r.epoch, f"{r.lr:.6g}", f"{r.train_loss:.6f}", f"{r.train_acc:.4f}", f"{r.test_acc:.4f}"]
            )
    _write_effective_config(out, "head train", vars(args))
    last = state.history[-1]
    print(
        f"trained {state.epoch} epochs: train_acc={last.train_acc:.4f} "
        f"test_acc={last.test_acc:.4f} lr_drops={state.lr_drops}"
    )
    return 0


def cmd_index_build(args) -> int:
    features = load_features(args.features)
    manifest = load_manifest(args.manifest)
    idx = build_index(features, manifest)
    out = Path(args.out)
    save_index(out, idx)
    _write_effective_config(out, "index build", vars(args))
    print(f"indexed {idx.size} features of dim {idx.dim}")
    return 0


def _write_rankings(path: Path, idx, ranking, query_column: bool) -> None:
    """One CSV of ranked rows from `rank`; `query_column` prefixes the query id."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id"] * query_column + ["rank", "id", "class", "distance"])
        for row, order, dists in ranking:
            prefix = [idx.ids[row]] * query_column
            for pos, (hit, dist) in enumerate(zip(order.tolist(), dists.tolist()), start=1):
                image_id = idx.ids[hit]
                writer.writerow(prefix + [pos, image_id, idx.class_of[image_id], f"{dist:.6f}"])


def cmd_query(args) -> int:
    if bool(args.id) == bool(args.all):
        raise CliError("pass exactly one of --id or --all")
    if args.long and not args.all:
        raise CliError("--long requires --all")
    idx = load_index(args.index)
    out = Path(args.out)
    rows = range(idx.size) if args.all else [idx.row(args.id)]
    ranking = rank(idx, rows, args.self_included)
    if args.all and not args.long:
        # Per-query files are named by id: an id must not name a path outside --out.
        for image_id in idx.ids:
            if "/" in image_id or image_id in ("", ".", ".."):
                raise CliError(f"query id {image_id!r} is not a plain file name")
        out.mkdir(parents=True, exist_ok=True)
        for ranked in ranking:
            _write_rankings(out / f"{idx.ids[ranked[0]]}.csv", idx, [ranked], False)
        written = f"{idx.size} per-query files"
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_rankings(out, idx, ranking, args.long)
        rows_written = idx.size - (not args.self_included)
        written = f"{idx.size} queries" if args.long else f"{rows_written} rows"
    _write_effective_config(out, "query", vars(args))
    print(f"wrote {written} to {out}")
    return 0


def cmd_eval(args) -> int:
    manifest = load_manifest(args.manifest)
    features = load_features(args.features)
    protocol = EvalProtocol(
        self_included=args.self_included, k_list=_parse_int_list(args.k_list)
    )
    report = evaluate_dataset(build_index(features, manifest), manifest, protocol)
    out = Path(args.out)
    write_report(report, out)
    _write_effective_config(out, "eval", vars(args))
    print(f"ANMRR={report.anmrr:.4f} mAP={report.mean_ap:.4f} queries={len(report.per_query)}")
    return 0


# ---------------------------------------------------------------------------
# Sweep: Cartesian product over config axes with content-hash result caching.

_CONFIG_SECTIONS = {"dataset", "encoder", "pca", "head", "eval", "seed"}


def _require_keys(section: str, doc: dict, allowed: set[str], required: set[str] = frozenset()):
    if not isinstance(doc, dict):
        raise CliError(f"config section {section!r} must be an object")
    unknown = set(doc) - allowed
    if unknown:
        raise CliError(f"config section {section!r} has unknown keys {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise CliError(f"config section {section!r} missing keys {sorted(missing)}")


def validate_config(doc: dict) -> dict:
    """Schema-check a pipeline config and fill defaults; unknown keys are rejected."""
    if not isinstance(doc, dict):
        raise CliError("config must be a JSON object")
    unknown = set(doc) - _CONFIG_SECTIONS
    if unknown:
        raise CliError(f"config has unknown top-level keys {sorted(unknown)}")
    _require_keys("dataset", doc.get("dataset", {}), {"manifest"}, {"manifest"})
    encoder = doc.get("encoder")
    if encoder is None:
        raise CliError("config requires an 'encoder' section")
    _require_keys("encoder", encoder, {"kind", "k", "alpha", "relu"}, {"kind"})
    kinds = encoder["kind"] if isinstance(encoder["kind"], list) else [encoder["kind"]]
    valid_kinds = {"bovw", "vlad", "ifk", "fc_raw", "ldcnn"}
    bad = [k for k in kinds if k not in valid_kinds]
    if bad:
        raise CliError(f"invalid encoder kind(s) {bad}; choose from {sorted(valid_kinds)}")
    relu = encoder.get("relu", False)
    relus = relu if isinstance(relu, list) else [relu]
    if any(not isinstance(r, bool) for r in relus):
        raise CliError("encoder.relu must be a boolean or list of booleans")
    k = encoder.get("k")
    if k is not None:
        try:
            k = int(k)
        except (TypeError, ValueError):
            raise CliError(f"encoder.k must be an integer, got {k!r}") from None
        if k < 1:
            raise CliError(f"encoder.k must be >= 1, got {k}")
    pca = doc.get("pca", {})
    _require_keys("pca", pca, {"d", "dims"})
    if "d" in pca and "dims" in pca:
        raise CliError("pca section takes either 'd' or 'dims', not both")
    dims = [None]
    if "dims" in pca:
        dims = [int(v) for v in pca["dims"]]
    elif "d" in pca:
        dims = [int(pca["d"])]
    head = doc.get("head", {})
    _require_keys("head", head, {"checkpoint"})
    if "ldcnn" in kinds and "checkpoint" not in head:
        raise CliError("encoder kind 'ldcnn' requires head.checkpoint in the config")
    ev = doc.get("eval", {})
    _require_keys("eval", ev, {"self_included", "k_list"})
    return {
        "manifest": doc["dataset"]["manifest"],
        "kinds": kinds,
        "relus": relus,
        "dims": dims,
        "k": k,
        "alpha": float(encoder.get("alpha", 0.5)),
        "head_checkpoint": head.get("checkpoint"),
        "self_included": bool(ev.get("self_included", True)),
        "k_list": tuple(int(v) for v in ev.get("k_list", DEFAULT_K_LIST)),
        "seed": int(doc.get("seed", 0)),
    }


def _cell_key(cell: dict, manifest_sha: str) -> str:
    blob = json.dumps({**cell, "manifest_sha": manifest_sha}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _run_cell(cfg: dict, cell: dict, manifest: DatasetManifest) -> dict:
    kind, use_relu, dim = cell["kind"], cell["relu"], cell["dim"]
    seed = cfg["seed"]
    if kind == "fc_raw":
        feats = _encode_entries(manifest, "all", kind, use_relu, cfg["alpha"])
    elif kind == "ldcnn":
        head, _ = load_head(cell["head_checkpoint"])
        feats = _encode_entries(manifest, "all", kind, use_relu, cfg["alpha"], head=head)
    else:
        pool = _descriptor_pool(manifest, "all", use_relu)
        k = cell["k"]
        model = (
            gmm_fit(pool, k, seed=seed) if kind == "ifk" else kmeans_fit(pool, k, seed=seed)
        )
        feats = _encode_entries(manifest, "all", kind, use_relu, cfg["alpha"], model=model)
    if dim is not None:
        _, matrix = _feature_matrix(feats)
        feats = _project_features(feats, pca_fit(matrix, dim), f"pca{dim}")
    protocol = EvalProtocol(self_included=cfg["self_included"], k_list=cfg["k_list"])
    report = evaluate_dataset(build_index(feats, manifest), manifest, protocol)
    return {
        "kind": kind,
        "relu": use_relu,
        "pca_dim": dim,
        "ANMRR": report.anmrr,
        "mAP": report.mean_ap,
        "P_at_k": {str(k): v for k, v in report.p_at_k.items()},
    }


def run_sweep(config_path: Path, out_dir: Path, workers: int = 1) -> Path:
    """Evaluate the Cartesian product of the config's axes; rows are cached."""
    doc = json.loads(config_path.read_text())
    cfg = validate_config(doc)
    manifest_path = (config_path.parent / cfg["manifest"]).resolve()
    manifest = load_manifest(manifest_path)
    manifest_sha = hashlib.sha256(manifest_path.read_bytes()).hexdigest()
    checkpoint = cfg["head_checkpoint"]
    if checkpoint is not None:
        checkpoint = str((config_path.parent / checkpoint).resolve())
    cache_dir = Path(os.environ.get(CACHE_ENV_VAR) or out_dir / "cache")
    cache_dir.mkdir(parents=True, exist_ok=True)
    cells = []
    for kind in cfg["kinds"]:
        for use_relu in cfg["relus"]:
            for dim in cfg["dims"]:
                cell = {
                    "kind": kind,
                    "relu": use_relu,
                    "dim": dim,
                    "k": cfg["k"] or DEFAULT_CODEBOOK_SIZES.get(kind),
                    "alpha": cfg["alpha"],
                    "head_checkpoint": checkpoint if kind == "ldcnn" else None,
                    "self_included": cfg["self_included"],
                    "k_list": list(cfg["k_list"]),
                    "seed": cfg["seed"],
                }
                cells.append((cell, _cell_key(cell, manifest_sha)))

    def compute(entry):
        cell, key = entry
        cache_file = cache_dir / f"{key}.json"
        if cache_file.exists():
            print(f"cache hit {key[:12]} ({cell['kind']}, relu={cell['relu']}, dim={cell['dim']})")
            return json.loads(cache_file.read_text())
        row = _run_cell(cfg, cell, manifest)
        tmp = cache_file.with_suffix(f".{os.getpid()}.tmp")  # atomic publish
        tmp.write_text(json.dumps(row, indent=2) + "\n")
        os.replace(tmp, cache_file)
        return row

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(compute, cells))
    else:
        rows = [compute(entry) for entry in cells]
    out_dir.mkdir(parents=True, exist_ok=True)
    out_csv = out_dir / "sweep.csv"
    k_list = cfg["k_list"]
    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "relu", "pca_dim", "ANMRR", "mAP"] + [f"P@{k}" for k in k_list])
        for row in rows:
            out_row = [
                row["kind"],
                int(row["relu"]),
                "" if row["pca_dim"] is None else row["pca_dim"],
                f"{row['ANMRR']:.4f}",
                f"{row['mAP']:.4f}",
            ]
            out_row += [
                f"{row['P_at_k'][str(k)]:.4f}" if str(k) in row["P_at_k"] else "" for k in k_list
            ]
            writer.writerow(out_row)
    _write_effective_config(out_dir, "sweep", {"config": str(config_path), **cfg})
    return out_csv


def cmd_sweep(args) -> int:
    out_csv = run_sweep(Path(args.config), Path(args.out), workers=args.workers)
    print(f"sweep report: {out_csv}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.


def _add_seed(p):
    p.add_argument("--seed", type=int, default=0, help="seed for all randomness")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hrrs", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hrrs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labelled feature-map dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--shape", required=True, help="feature-map shape h,w,c")
    p.add_argument("--separation", type=float, default=0.0)
    p.add_argument("--train-frac", type=float, default=0.8)
    _add_seed(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p_cb = sub.add_parser("codebook", help="visual dictionary training")
    cb_sub = p_cb.add_subparsers(dest="subcommand", required=True)
    p = cb_sub.add_parser("train", help="fit k-means or GMM on local descriptors")
    p.add_argument("--kind", choices=("kmeans", "gmm"), required=True)
    p.add_argument("--k", type=int, required=True, help="dictionary size")
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", choices=("train", "test", "all"), default="all")
    p.add_argument("--relu", action="store_true", help="apply ReLU to descriptors")
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-4)
    _add_seed(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_codebook_train)

    p = sub.add_parser("encode", help="encode every image into one feature vector")
    p.add_argument("--manifest", required=True)
    p.add_argument("--encoder", choices=("bovw", "vlad", "ifk", "fc_raw", "ldcnn"), required=True)
    p.add_argument("--model", help="codebook/GMM bundle (bovw, vlad, ifk)")
    p.add_argument("--head", help="head checkpoint directory (ldcnn)")
    p.add_argument("--alpha", type=float, default=0.5, help="power-normalization exponent (ifk)")
    p.add_argument("--relu", action="store_true")
    p.add_argument("--split", choices=("train", "test", "all"), default="all")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p_pca = sub.add_parser("pca", help="dimensionality reduction")
    pca_sub = p_pca.add_subparsers(dest="subcommand", required=True)
    p = pca_sub.add_parser("fit", help="fit a PCA model on a feature set")
    p.add_argument("--features", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--manifest", help="explicit fit-set manifest (optional)")
    p.add_argument("--split", choices=("train", "test", "all"), default="all")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pca_fit)
    p = pca_sub.add_parser("apply", help="project a feature set with a fitted model")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pca_apply)
    p = pca_sub.add_parser("sweep", help="evaluate retrieval across target dimensions")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--dims", required=True, help="comma-separated dimension list")
    p.add_argument("--split", choices=("train", "test", "all"), default="all",
                   help="fit-set split for the PCA model")
    p.add_argument("--self-included", dest="self_included", action="store_true", default=True)
    p.add_argument("--no-self-included", dest="self_included", action="store_false")
    p.add_argument("--k-list", default=",".join(str(k) for k in DEFAULT_K_LIST))
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_pca_sweep)

    p_head = sub.add_parser("head", help="mlpconv retrieval head")
    head_sub = p_head.add_subparsers(dest="subcommand", required=True)
    p = head_sub.add_parser("train", help="train the head on a labelled manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--hidden1", type=int, default=4096)
    p.add_argument("--hidden2", type=int, default=4096)
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--init-std", type=float, default=0.01)
    p.add_argument("--lr0", type=float, default=0.001)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=5e-4)
    p.add_argument("--batch", type=int, default=50)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--lr-drop", type=float, default=0.1)
    p.add_argument("--min-lr", type=float, default=1e-6)
    p.add_argument("--max-epochs", type=int, default=30)
    p.add_argument("--min-improvement", type=float, default=1e-3)
    _add_seed(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_head_train)

    p_idx = sub.add_parser("index", help="retrieval index")
    idx_sub = p_idx.add_subparsers(dest="subcommand", required=True)
    p = idx_sub.add_parser("build", help="build an index from a feature set")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index_build)

    p = sub.add_parser("query", help="rank the whole index against query id(s)")
    p.add_argument("--index", required=True)
    p.add_argument("--id", help="single query id")
    p.add_argument("--all", action="store_true", help="batch mode: query every indexed id")
    p.add_argument("--long", action="store_true",
                   help="with --all, write one long-format CSV instead of per-query files")
    p.add_argument("--self-included", dest="self_included", action="store_true", default=True)
    p.add_argument("--no-self-included", dest="self_included", action="store_false")
    p.add_argument("--out", required=True, help="output CSV path (or directory with --all)")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("eval", help="score retrieval over a whole manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--self-included", dest="self_included", action="store_true", default=True)
    p.add_argument("--no-self-included", dest="self_included", action="store_false")
    p.add_argument("--k-list", default=",".join(str(k) for k in DEFAULT_K_LIST))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="evaluate a config's axis product with caching")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
