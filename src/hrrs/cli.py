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
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .codebooks import (MAX_ITER, TOL, gmm_fit, kmeans_fit, load_codebook, load_gmm,
                        save_codebook, save_gmm)
from .encoders import (
    DEFAULT_ALPHA,
    FeatureSet,
    encode_bovw,
    encode_fc,
    encode_ifk,
    encode_vlad,
    extract_descriptors,
    feature_set,
    load_features,
    save_features,
)
from .evaluation import DEFAULT_K_LIST, EvalProtocol, evaluate_dataset, score_cells, write_report
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
from .retrieval import distances, index_rows, load_index, rank, save_index
from .tensor_store import (
    VALID_SPLITS,
    DatasetManifest,
    bundle_digest,
    gen_synthetic,
    load_manifest,
    read_json,
    read_tensor,
    write_synthetic,
)


class EncoderSpec(NamedTuple):
    """How one encoder kind gets its model and turns a feature map into a vector."""

    encode: Callable  # (model, feature map, relu, alpha) -> EncodedFeature
    model_flag: str | None = None  # `encode` option naming the model bundle
    load: Callable | None = None  # loader of that bundle
    fit: Callable | None = None  # sweep: seeded fit on the descriptor pool
    default_k: int | None = None  # sweep: dictionary size when encoder.k is unset
    reads_relu: bool = True  # False: `encode --relu` is an error, the sweep keeps relu 0
    reads_alpha: bool = False  # True only for ifk: its sweep cells key on encoder.alpha


# The only list of encoder kinds: `encode --encoder`, the sweep config check
# and the sweep cells all read it. fc_raw and ldcnn take no codebook; ldcnn
# reads a trained head instead, and applies no ReLU.
ENCODERS = {
    "bovw": EncoderSpec(
        lambda cb, fmap, relu, alpha: encode_bovw(cb, extract_descriptors(fmap, relu)),
        "model", load_codebook, kmeans_fit, 1000,
    ),
    "vlad": EncoderSpec(
        lambda cb, fmap, relu, alpha: encode_vlad(cb, extract_descriptors(fmap, relu)),
        "model", load_codebook, kmeans_fit, 100,
    ),
    "ifk": EncoderSpec(
        lambda gmm, fmap, relu, alpha: encode_ifk(gmm, extract_descriptors(fmap, relu), alpha),
        "model", load_gmm, gmm_fit, 100, reads_alpha=True,
    ),
    "fc_raw": EncoderSpec(lambda _, fc, relu, alpha: encode_fc(fc, relu)),
    "ldcnn": EncoderSpec(
        lambda head, fmap, relu, alpha: head_feature(head, fmap),
        "head", load_head, reads_relu=False,
    ),
}

CACHE_ENV_VAR = "HRRS_CACHE_DIR"
K_LIST_TEXT = ",".join(str(k) for k in DEFAULT_K_LIST)  # the --k-list default


class CliError(ValueError):
    """User-facing command error: reported on stderr, exit code 1."""


def _int(key: str, value, minimum: int = 1) -> int:
    """A JSON integer (not a bool, float or string) of at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise CliError(f"{key} must be an integer, got {value!r}")
    if value < minimum:
        raise CliError(f"{key} must be >= {minimum}, got {value}")
    return value


def _positive_ints(key: str, values) -> list[int]:
    if not isinstance(values, list):
        raise CliError(f"{key} must be a list of integers, got {values!r}")
    return [_int(key, v) for v in values]


def _distinct(key: str, values: list) -> list:
    """A list that names each value once: a repeat would score one cell twice."""
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise CliError(f"{key} repeats {repeated}")
    return values


def _parse_int_list(flag: str, text: str) -> tuple[int, ...]:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise CliError(f"{flag} expects a comma-separated integer list, got {text!r}") from None
    if not values:
        raise CliError(f"{flag}: empty integer list {text!r}")
    return tuple(_positive_ints(flag, values))


def _parse_distinct(flag: str, text: str) -> tuple[int, ...]:
    """`_parse_int_list` for a flag listing scored cells, which may not repeat."""
    return tuple(_distinct(flag, list(_parse_int_list(flag, text))))


def _write_effective_config(args, params: dict) -> None:
    """Provenance: the configuration a command ran with, default-filled, next to its outputs."""
    command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    params = {k: v for k, v in params.items() if k not in ("func", "command", "subcommand")}
    doc = {"command": command, **params}
    out = Path(args.out)
    if out.is_dir():
        target = out / "effective_config.json"
    else:
        target = out.with_name(out.name + ".config.json")
    target.write_text(json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n")


def _load_split_maps(manifest: DatasetManifest, split: str):
    """(entry, map) pairs of a split, in manifest order."""
    entries = manifest.select(split)
    if not entries:
        raise CliError(f"manifest has no entries for split {split!r}")
    return [(e, read_tensor(e.tensor_path)) for e in entries]


def _check_map_shapes(items, shape: tuple[int, ...]) -> None:
    """A head reads maps of one (h, w, c): name the first tensor file of another shape."""
    for entry, fmap in items:
        if fmap.shape != shape:
            raise CliError(f"{entry.tensor_path}: feature map has shape {fmap.shape}, "
                           f"expected (h, w, c) = {shape}")


def _descriptor_pool(manifest: DatasetManifest, split: str, apply_relu: bool) -> np.ndarray:
    """Every map's descriptors stacked in manifest order, filled into one float64 array."""
    maps = _load_split_maps(manifest, split)
    shapes = [np.shape(fmap) for _, fmap in maps]
    if any(len(shape) != 3 or shape[2] != shapes[0][2] for shape in shapes):
        raise CliError(f"feature maps of split {split!r} differ in rank or channels: {shapes}")
    pool = np.empty((sum(h * w for h, w, _ in shapes), shapes[0][2]))
    lo = 0
    for _, fmap in maps:
        descriptors = extract_descriptors(fmap, apply_relu)
        pool[lo : lo + len(descriptors)] = descriptors
        lo += len(descriptors)
    return pool


def _encode_entries(
    manifest: DatasetManifest, split: str, encoder: str, apply_relu: bool, alpha: float, model
) -> FeatureSet:
    """Encode every map of a split; `model` is the kind's codebook, GMM or head (or None)."""
    spec = ENCODERS[encoder]
    items = _load_split_maps(manifest, split)
    if spec.model_flag == "head":
        _check_map_shapes(items, model.config.map_shape)
    maps = {entry.image_id: fmap for entry, fmap in items}
    return feature_set(maps, lambda fmap: spec.encode(model, fmap, apply_relu, alpha))


def _project_features(fs: FeatureSet, model) -> FeatureSet:
    """PCA-project a feature set with one batched `pca_apply` call."""
    tag = f"{fs.tag}+pca{model.out_dim}"
    return FeatureSet(fs.ids, tag, pca_apply(model, fs.matrix), (False,) * len(fs.ids))


# ---------------------------------------------------------------------------
# Subcommand implementations.


def cmd_synth(args) -> dict:
    shape = _parse_int_list("--shape", args.shape)
    if len(shape) != 3:
        raise CliError(f"--shape must be h,w,c, got {args.shape!r}")
    manifest, maps = gen_synthetic(
        args.classes, args.per_class, shape, args.separation, args.seed, args.train_frac
    )
    manifest_path = write_synthetic(Path(args.out), manifest, maps)
    print(f"wrote {len(maps)} tensors and {manifest_path}")
    return vars(args)


def cmd_codebook_train(args) -> dict:
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
    return vars(args)


def cmd_encode(args) -> dict:
    spec = ENCODERS[args.encoder]
    if args.relu and not spec.reads_relu:
        raise CliError(f"--relu does not apply to encoder {args.encoder!r}")
    if args.alpha is None:
        args.alpha = DEFAULT_ALPHA
    elif not spec.reads_alpha:
        raise CliError(f"--alpha does not apply to encoder {args.encoder!r}")
    for flag in ("model", "head"):
        if getattr(args, flag) and flag != spec.model_flag:
            raise CliError(f"--{flag} does not apply to encoder {args.encoder!r}")
    manifest = load_manifest(args.manifest)
    model = None
    if spec.model_flag:
        path = getattr(args, spec.model_flag)
        if not path:
            raise CliError(f"--{spec.model_flag} is required for encoder {args.encoder!r}")
        model = spec.load(path)
    fs = _encode_entries(manifest, args.split, args.encoder, args.relu, args.alpha, model)
    sidecar = save_features(Path(args.out), fs)
    print(f"encoded {len(fs.ids)} images -> {sidecar}")
    return vars(args)


def _fit_set_matrix(fs: FeatureSet, args) -> np.ndarray:
    """Feature matrix for PCA fitting: `fs.matrix` itself, or the rows of an explicit fit
    manifest's split when it names fewer ids."""
    if not args.manifest:
        return fs.matrix
    fit_ids = {e.image_id for e in load_manifest(args.manifest).select(args.split)}
    missing = sorted(fit_ids.difference(fs.ids))
    if missing:
        raise CliError(f"fit-set ids missing from features: {missing[:5]}")
    if not fit_ids:
        raise CliError(f"fit set is empty for split {args.split!r}")
    if len(fit_ids) == len(fs.ids):
        return fs.matrix
    return fs.matrix[[r for r, image_id in enumerate(fs.ids) if image_id in fit_ids]]


def cmd_pca_fit(args) -> dict:
    if args.split is None:
        args.split = "all"
    elif not args.manifest:
        raise CliError("--split selects fit-set entries of --manifest; pass --manifest too")
    matrix = _fit_set_matrix(load_features(args.features), args)
    model = pca_fit(matrix, args.d)
    save_pca(Path(args.out), model)
    print(f"pca {model.in_dim}-D -> {model.out_dim}-D on {matrix.shape[0]} samples")
    return vars(args)


def cmd_pca_apply(args) -> dict:
    fs = load_features(args.features)
    model = load_pca(args.model)
    save_features(Path(args.out), _project_features(fs, model))
    print(f"projected {len(fs.ids)} features to {model.out_dim}-D")
    return vars(args)


def cmd_pca_sweep(args) -> dict:
    fs = load_features(args.features)
    manifest = load_manifest(args.manifest)
    dims = _parse_distinct("--dims", args.dims)
    k_list = _parse_distinct("--k-list", args.k_list)
    protocol = EvalProtocol(self_included=args.self_included, k_list=k_list)
    matrix = _fit_set_matrix(fs, args)
    cap = min(matrix.shape)
    capped = tuple(d for d in dims if d <= cap)
    if capped != dims:
        print(f"capping sweep at {cap}-D: dropping {[d for d in dims if d > cap]}")
    rows = []
    for d in capped:
        projected = _project_features(fs, pca_fit(matrix, d))
        report = evaluate_dataset(index_rows(projected, manifest), manifest, protocol)
        rows.append([d] + score_cells((report.anmrr, report.mean_ap), report.p_at_k, k_list))
        print(f"dim {d}: ANMRR={report.anmrr:.4f} mAP={report.mean_ap:.4f}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dim", "ANMRR", "mAP"] + [f"P@{k}" for k in k_list])
        writer.writerows(rows)
    return vars(args)


# `head train` has one flag per HeadConfig/TrainConfig hyperparameter, in field order, named
# after its field (these three shortened) and defaulting to the field's default.
_HEAD_FLAG_NAMES = {"dropout_rate": "dropout", "batch_size": "batch", "plateau_patience": "patience"}


def _head_flags(owner) -> dict[str, str]:
    """Flag dest -> field, for each `head train` flag that fills a field of `owner`."""
    from_data = ("in_channels", "in_spatial", "classes")  # read off the maps and the manifest
    return {_HEAD_FLAG_NAMES.get(f.name, f.name): f.name for f in fields(owner)
            if f.name not in from_data}


def cmd_head_train(args) -> dict:
    manifest = load_manifest(args.manifest)
    train_items = _load_split_maps(manifest, "train")
    test_items = _load_split_maps(manifest, "test")
    first, shape = train_items[0][0], train_items[0][1].shape
    if len(shape) != 3:
        raise CliError(f"{first.tensor_path}: feature map has shape {shape}, expected (h, w, c)")
    _check_map_shapes(train_items + test_items, shape)
    config = HeadConfig(
        in_channels=shape[2], in_spatial=(shape[0], shape[1]), classes=manifest.n_classes,
        **{name: getattr(args, dest) for dest, name in _head_flags(HeadConfig).items()},
    )
    hp = TrainConfig(**{name: getattr(args, dest) for dest, name in _head_flags(TrainConfig).items()})

    def as_arrays(items):
        maps = np.stack([fmap for _, fmap in items]).astype(np.float64)
        labels = np.array([manifest.class_index[entry.class_label] for entry, _ in items])
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
    last = state.history[-1]
    print(
        f"trained {state.epoch} epochs: train_acc={last.train_acc:.4f} "
        f"test_acc={last.test_acc:.4f} lr_drops={state.lr_drops}"
    )
    return vars(args)


def cmd_index_build(args) -> dict:
    idx = index_rows(load_features(args.features), load_manifest(args.manifest))
    save_index(Path(args.out), idx)
    print(f"indexed {idx.size} features of dim {idx.dim}")
    return vars(args)


def _write_rankings(path: Path, idx, ranking, query_column: bool) -> None:
    """One CSV of ranked rows from `rank`, with exact `distances`; `query_column`
    prefixes the query id."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id"] * query_column + ["rank", "id", "class", "distance"])
        for row, order in ranking:
            prefix = [idx.ids[row]] * query_column
            dists = distances(idx, row, order)
            for pos, (hit, dist) in enumerate(zip(order.tolist(), dists.tolist()), start=1):
                writer.writerow(prefix + [pos, idx.ids[hit], idx.labels[hit], f"{dist:.6f}"])


def cmd_query(args) -> dict:
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
    print(f"wrote {written} to {out}")
    return vars(args)


def cmd_eval(args) -> dict:
    manifest = load_manifest(args.manifest)
    fs = load_features(args.features)
    protocol = EvalProtocol(
        self_included=args.self_included, k_list=_parse_distinct("--k-list", args.k_list)
    )
    report = evaluate_dataset(index_rows(fs, manifest), manifest, protocol)
    write_report(report, Path(args.out))
    print(f"ANMRR={report.anmrr:.4f} mAP={report.mean_ap:.4f} queries={len(report.per_query)}")
    return vars(args)


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


def _path(key: str, value) -> str:
    if not isinstance(value, str) or not value:
        raise CliError(f"{key} must be a non-empty path string, got {value!r}")
    return value


def _axis(key: str, value) -> list:
    """A sweep axis: one value or a non-empty list; a repeat would give two cells one cache key."""
    values = value if isinstance(value, list) else [value]
    if not values:
        raise CliError(f"{key} must not be empty")
    return _distinct(key, values)


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
    kinds = _axis("encoder.kind", encoder["kind"])
    bad = [k for k in kinds if not isinstance(k, str) or k not in ENCODERS]
    if bad:
        raise CliError(f"invalid encoder kind(s) {bad}; choose from {sorted(ENCODERS)}")
    relus = _axis("encoder.relu", encoder.get("relu", False))
    if any(not isinstance(r, bool) for r in relus):
        raise CliError("encoder.relu must be a boolean or list of booleans")
    k = encoder.get("k")
    if k is not None:
        k = _int("encoder.k", k)
    alpha = encoder.get("alpha", DEFAULT_ALPHA)
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)) or not 0.0 < alpha <= 1.0:
        raise CliError(f"encoder.alpha must be a number in (0, 1], got {alpha!r}")
    pca = doc.get("pca", {})
    _require_keys("pca", pca, {"d", "dims"})
    if "d" in pca and "dims" in pca:
        raise CliError("pca section takes either 'd' or 'dims', not both")
    dims = [None]
    if "dims" in pca:
        dims = _axis("pca.dims", _positive_ints("pca.dims", pca["dims"]))
    elif "d" in pca:
        dims = [_int("pca.d", pca["d"])]
    head = doc.get("head", {})
    _require_keys("head", head, {"checkpoint"})
    if "checkpoint" in head:
        _path("head.checkpoint", head["checkpoint"])
    for kind in kinds:
        if ENCODERS[kind].model_flag == "head" and "checkpoint" not in head:
            raise CliError(f"encoder kind {kind!r} requires head.checkpoint in the config")
    ev = doc.get("eval", {})
    _require_keys("eval", ev, {"self_included", "k_list"})
    self_included = ev.get("self_included", True)
    if not isinstance(self_included, bool):
        raise CliError(f"eval.self_included must be a boolean, got {self_included!r}")
    k_list = ev.get("k_list", list(DEFAULT_K_LIST))
    return {
        "manifest": _path("dataset.manifest", doc["dataset"]["manifest"]),
        "kinds": kinds,
        "relus": relus,
        "dims": dims,
        "k": k,
        "alpha": float(alpha),
        "head_checkpoint": head.get("checkpoint"),
        "self_included": self_included,
        "k_list": tuple(_distinct("eval.k_list", _positive_ints("eval.k_list", k_list))),
        "seed": _int("seed", doc.get("seed", 0), minimum=0),
    }


def _cell_key(cell: dict, manifest_sha: str) -> str:
    blob = json.dumps({**cell, "manifest_sha": manifest_sha}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _cached_row(cache_file: Path) -> dict | None:
    """The row cached in `cache_file`, or None to recompute it: absent, or unreadable."""
    if not cache_file.exists():
        return None
    try:
        row = json.loads(cache_file.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError):
        row = None
    fields = {"kind", "relu", "pca_dim", "ANMRR", "mAP", "P_at_k"}
    if isinstance(row, dict) and fields <= row.keys() and isinstance(row["P_at_k"], dict):
        return row
    print(f"unreadable cache entry {cache_file}: recomputing")
    return None


def _cell_row(cell: dict, fs: FeatureSet, manifest: DatasetManifest) -> dict:
    """Score the cell's features, PCA-projected to the cell's dim if it has one."""
    if cell["dim"] is not None:
        try:
            model = pca_fit(fs.matrix, cell["dim"])
        except ValueError as exc:
            where = f"encoder {cell['kind']!r} with relu={cell['relu']}"
            raise CliError(f"pca.dims entry {cell['dim']} does not fit {where}: {exc}") from None
        fs = _project_features(fs, model)
    protocol = EvalProtocol(self_included=cell["self_included"], k_list=tuple(cell["k_list"]))
    report = evaluate_dataset(index_rows(fs, manifest), manifest, protocol)
    return {
        "kind": cell["kind"],
        "relu": cell["relu"],
        "pca_dim": cell["dim"],
        "ANMRR": report.anmrr,
        "mAP": report.mean_ap,
        "P_at_k": {str(k): v for k, v in report.p_at_k.items()},
    }


def cmd_sweep(args) -> dict:
    """Evaluate the config's axis product one cell at a time, caching each row. A (kind, relu)
    pair is encoded once, on its first missed cell, for all of its PCA dims; bovw and vlad
    share one k-means fit at equal k and relu."""
    config_path, out_dir = Path(args.config), Path(args.out)
    cfg = validate_config(read_json(config_path, CliError))
    manifest_path = (config_path.parent / cfg["manifest"]).resolve()
    manifest = load_manifest(manifest_path)
    manifest_sha = hashlib.sha256(manifest_path.read_bytes()).hexdigest()
    # The run's models: the head under "head", and one fit per (fit, k, relu).
    models = {}
    head_key = None  # a head cell keys on its checkpoint's content, so retraining in place misses
    if any(ENCODERS[kind].model_flag == "head" for kind in cfg["kinds"]):
        checkpoint = (config_path.parent / cfg["head_checkpoint"]).resolve()
        models["head"] = load_head(checkpoint)  # a malformed checkpoint fails here, naming its file
        head_key = f"sha256:{bundle_digest(checkpoint)}"
    cache_dir = Path(os.environ.get(CACHE_ENV_VAR) or out_dir / "cache")
    cache_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for kind in cfg["kinds"]:
        spec = ENCODERS[kind]
        # A kind that reads no ReLU gets one relu-0 cell whatever the relu axis holds;
        # k (read only by kinds with a fit) and alpha are None in cells that do not read them.
        for use_relu in cfg["relus"] if spec.reads_relu else [False]:
            fs = None
            for dim in cfg["dims"]:
                cell = {
                    "kind": kind,
                    "relu": use_relu,
                    "dim": dim,
                    "k": (cfg["k"] or spec.default_k) if spec.fit else None,
                    "alpha": cfg["alpha"] if spec.reads_alpha else None,
                    "head_checkpoint": head_key if spec.model_flag == "head" else None,
                    "self_included": cfg["self_included"],
                    "k_list": list(cfg["k_list"]),
                    "seed": cfg["seed"],
                }
                key = _cell_key(cell, manifest_sha)
                cache_file = cache_dir / f"{key}.json"
                row = _cached_row(cache_file)
                if row is not None:
                    print(f"cache hit {key[:12]} ({kind}, relu={use_relu}, dim={dim})")
                    rows.append(row)
                    continue
                if fs is None:  # once per (kind, relu)
                    model_key = (spec.fit, cell["k"], use_relu) if spec.fit else spec.model_flag
                    if spec.fit and model_key not in models:
                        pool = _descriptor_pool(manifest, "all", use_relu)
                        try:
                            models[model_key] = spec.fit(pool, cell["k"], seed=cell["seed"])
                        except ValueError as exc:
                            raise CliError(f"encoder.k {cell['k']} does not fit encoder {kind!r} "
                                           f"with relu={use_relu}: {exc}") from None
                        del pool  # dropped before the encode pass re-reads the maps
                    model = models.get(model_key)
                    fs = _encode_entries(manifest, "all", kind, use_relu, cell["alpha"], model)
                row = _cell_row(cell, fs, manifest)
                tmp = cache_file.with_suffix(f".{os.getpid()}.tmp")  # atomic publish
                tmp.write_text(json.dumps(row, indent=2) + "\n")
                os.replace(tmp, cache_file)
                rows.append(row)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_csv = out_dir / "sweep.csv"
    k_list = cfg["k_list"]
    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "relu", "pca_dim", "ANMRR", "mAP"] + [f"P@{k}" for k in k_list])
        for row in rows:
            p_at_k = {int(k): v for k, v in row["P_at_k"].items()}
            scores = score_cells((row["ANMRR"], row["mAP"]), p_at_k, k_list)
            writer.writerow([row["kind"], int(row["relu"]), row["pca_dim"]] + scores)  # None -> ""
    print(f"sweep report: {out_csv}")
    return {"config": str(config_path), **cfg}


# ---------------------------------------------------------------------------
# Argument parsing.


def _add_seed(p):
    p.add_argument("--seed", type=int, default=0, help="seed for all randomness")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `hrrs` parser. Every command is declared with its help, but only `command` (each
    command when None) gets its arguments; help, usage and errors read as the full parser's."""
    parser = argparse.ArgumentParser(prog="hrrs", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hrrs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def declare(name: str, text: str) -> argparse.ArgumentParser | None:
        """The parser of top-level command `name` to fill, or None when it is only declared."""
        p = sub.add_parser(name, help=text)
        return p if command in (None, name) else None

    if p := declare("synth", "generate a synthetic labelled feature-map dataset"):
        p.add_argument("--classes", type=int, required=True)
        p.add_argument("--per-class", type=int, required=True)
        p.add_argument("--shape", required=True, help="feature-map shape h,w,c")
        p.add_argument("--separation", type=float, default=0.0)
        p.add_argument("--train-frac", type=float, default=0.8)
        _add_seed(p)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_synth)

    if p_cb := declare("codebook", "visual dictionary training"):
        cb_sub = p_cb.add_subparsers(dest="subcommand", required=True)
        p = cb_sub.add_parser("train", help="fit k-means or GMM on local descriptors")
        p.add_argument("--kind", choices=("kmeans", "gmm"), required=True)
        p.add_argument("--k", type=int, required=True, help="dictionary size")
        p.add_argument("--manifest", required=True)
        p.add_argument("--split", choices=VALID_SPLITS, default="all")
        p.add_argument("--relu", action="store_true", help="apply ReLU to descriptors")
        p.add_argument("--max-iter", type=int, default=MAX_ITER)
        p.add_argument("--tol", type=float, default=TOL)
        _add_seed(p)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_codebook_train)

    if p := declare("encode", "encode every image into one feature vector"):
        p.add_argument("--manifest", required=True)
        p.add_argument("--encoder", choices=tuple(ENCODERS), required=True)
        p.add_argument("--model", help="codebook/GMM bundle (bovw, vlad, ifk)")
        p.add_argument("--head", help="head checkpoint directory (ldcnn)")
        p.add_argument("--alpha", type=float,
                       help=f"power-normalization exponent (ifk; default {DEFAULT_ALPHA})")
        p.add_argument("--relu", action="store_true")
        p.add_argument("--split", choices=VALID_SPLITS, default="all")
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_encode)

    if p_pca := declare("pca", "dimensionality reduction"):
        pca_sub = p_pca.add_subparsers(dest="subcommand", required=True)
        p = pca_sub.add_parser("fit", help="fit a PCA model on a feature set")
        p.add_argument("--features", required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--manifest", help="explicit fit-set manifest (optional)")
        p.add_argument("--split", choices=VALID_SPLITS,
                       help="fit-set split of --manifest (default all)")
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
        p.add_argument("--split", choices=VALID_SPLITS, default="all",
                       help="fit-set split for the PCA model")
        p.add_argument("--self-included", action=argparse.BooleanOptionalAction, default=True)
        p.add_argument("--k-list", default=K_LIST_TEXT)
        p.add_argument("--out", required=True, help="output CSV path")
        p.set_defaults(func=cmd_pca_sweep)

    if p_head := declare("head", "mlpconv retrieval head"):
        head_sub = p_head.add_subparsers(dest="subcommand", required=True)
        p = head_sub.add_parser("train", help="train the head on a labelled manifest")
        p.add_argument("--manifest", required=True)
        for owner in (HeadConfig, TrainConfig):
            for dest, name in _head_flags(owner).items():
                default = getattr(owner, name)
                p.add_argument("--" + dest.replace("_", "-"), type=type(default), default=default)
        _add_seed(p)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_head_train)

    if p_idx := declare("index", "retrieval index"):
        idx_sub = p_idx.add_subparsers(dest="subcommand", required=True)
        p = idx_sub.add_parser("build", help="build an index from a feature set")
        p.add_argument("--features", required=True)
        p.add_argument("--manifest", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_index_build)

    if p := declare("query", "rank the whole index against query id(s)"):
        p.add_argument("--index", required=True)
        p.add_argument("--id", help="single query id")
        p.add_argument("--all", action="store_true", help="batch mode: query every indexed id")
        p.add_argument("--long", action="store_true",
                       help="with --all, write one long-format CSV instead of per-query files")
        p.add_argument("--self-included", action=argparse.BooleanOptionalAction, default=True)
        p.add_argument("--out", required=True, help="output CSV path (or directory with --all)")
        p.set_defaults(func=cmd_query)

    if p := declare("eval", "score retrieval over a whole manifest"):
        p.add_argument("--manifest", required=True)
        p.add_argument("--features", required=True)
        p.add_argument("--self-included", action=argparse.BooleanOptionalAction, default=True)
        p.add_argument("--k-list", default=K_LIST_TEXT)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_eval)

    if p := declare("sweep", "evaluate a config's axis product with caching"):
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argparse dispatches on the first argument that is not an option: fill only that command.
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        _write_effective_config(args, args.func(args))
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
