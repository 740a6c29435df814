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
import math
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .codebooks import (MAX_ITER, TOL, gmm_em, gmm_fit, kmeans_fit, load_codebook, load_gmm,
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
from .evaluation import DEFAULT_K_LIST, EvalProtocol, evaluate_dataset, write_report, write_scores
from .head import (
    HeadConfig,
    TrainConfig,
    head_feature,
    head_init,
    head_train,
    load_head,
    save_head,
)
from .reduction import check_axes, load_pca, max_axes, pca_apply, pca_fit, pca_fits, save_pca
from .retrieval import distances, index_rows, load_index, rank, save_index
from .tensor_store import (
    VALID_SPLITS,
    DatasetManifest,
    ManifestEntry,
    bundle_digest,
    gen_synthetic,
    load_manifest,
    publish,
    read_json,
    read_shape,
    read_tensor,
    write_synthetic,
)


class EncoderSpec(NamedTuple):
    """How one encoder kind gets its model and turns a feature map into a vector."""

    encode: Callable  # (model, feature map, relu, alpha) -> EncodedFeature
    model_flag: str | None = None  # `encode` option naming the model bundle
    load: Callable | None = None  # loader of that bundle
    fit: Callable | None = None  # sweep: kmeans_fit, or gmm_em to run EM from that k-means fit
    default_k: int | None = None  # sweep: dictionary size when encoder.k is unset
    reads_relu: bool = True  # False: `encode --relu` is an error, the sweep keeps relu 0
    reads_alpha: bool = False  # True only for ifk: its sweep cells key on encoder.alpha
    size: Callable | None = None  # sweep: (k, first entry, head) -> the vector's length, unfitted


# The only list of encoder kinds: `encode --encoder`, the sweep config check
# and the sweep cells all read it. fc_raw and ldcnn take no codebook; ldcnn
# reads a trained head instead, and applies no ReLU.
ENCODERS = {
    "bovw": EncoderSpec(
        lambda cb, fmap, relu, alpha: encode_bovw(cb, extract_descriptors(fmap, relu)),
        "model", load_codebook, kmeans_fit, 1000, size=lambda k, first, head: k,
    ),
    "vlad": EncoderSpec(
        lambda cb, fmap, relu, alpha: encode_vlad(cb, extract_descriptors(fmap, relu)),
        "model", load_codebook, kmeans_fit, 100,
        size=lambda k, first, head: k * _map_shape(first, (None, None, None))[2],
    ),
    "ifk": EncoderSpec(
        lambda gmm, fmap, relu, alpha: encode_ifk(gmm, extract_descriptors(fmap, relu), alpha),
        "model", load_gmm, gmm_em, 100, reads_alpha=True,
        size=lambda k, first, head: 2 * k * _map_shape(first, (None, None, None))[2],
    ),
    "fc_raw": EncoderSpec(
        lambda _, fc, relu, alpha: encode_fc(fc, relu),
        size=lambda k, first, head: math.prod(read_shape(first.tensor_path)),
    ),
    "ldcnn": EncoderSpec(
        lambda head, fmap, relu, alpha: head_feature(head, fmap),
        "head", load_head, reads_relu=False, size=lambda k, first, head: head.config.classes,
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


def _split_entries(manifest: DatasetManifest, split: str):
    entries = manifest.select(split)
    if not entries:
        raise CliError(f"manifest has no entries for split {split!r}")
    return entries


def _check_map(entry: ManifestEntry, got: tuple, shape: tuple | None) -> tuple:
    """The one map-shape rule: given an (h, w, c) `shape` in which None matches any size, reject
    an entry's map shape `got` of another rank or size, naming its file; returns `got`."""
    if shape is not None and (len(got) != 3 or any(
            want not in (None, have) for want, have in zip(shape, got))):
        expected = ", ".join("hwc"[i] if want is None else str(want) for i, want in enumerate(shape))
        raise CliError(f"{entry.tensor_path}: feature map has shape {got}, "
                       f"expected (h, w, c) = ({expected})")
    return got


def _map_shape(entry: ManifestEntry, shape: tuple) -> tuple:
    """An entry's map shape, read from its header and checked against `shape` by `_check_map`."""
    return _check_map(entry, read_shape(entry.tensor_path), shape)


def _read_map(entry: ManifestEntry, shape: tuple | None) -> np.ndarray:
    """An entry's tensor, read and checked against `shape` by `_check_map`."""
    fmap = read_tensor(entry.tensor_path)
    _check_map(entry, fmap.shape, shape)
    return fmap


def _descriptor_pool(manifest: DatasetManifest, split: str, apply_relu: bool) -> np.ndarray:
    """Every map's descriptors in manifest order in one float64 array sized from the tensor
    headers, filled one map at a time; a map must match its header's (h, w) and the first c."""
    entries = _split_entries(manifest, split)
    c = _map_shape(entries[0], (None, None, None))[2]
    shapes = [_map_shape(e, (None, None, c)) for e in entries]
    ends = np.cumsum([h * w for h, w, _ in shapes])
    pool = np.empty((ends[-1], c))
    for entry, (h, w, _), end in zip(entries, shapes, ends):
        pool[end - h * w : end] = extract_descriptors(_read_map(entry, (h, w, c)), apply_relu)
    return pool


def _encode_entries(
    manifest: DatasetManifest, split: str, encoder: str, apply_relu: bool, alpha: float, model
) -> FeatureSet:
    """Encode every map of a split, reading one map at a time; `model` is the kind's codebook,
    GMM or head (or None), and gives the maps' shape rule."""
    spec = ENCODERS[encoder]
    shape = None  # fc_raw flattens a tensor of any shape
    if spec.model_flag == "head":
        shape = model.config.map_shape
    elif model is not None:
        shape = (None, None, model.dim)
    entries = {entry.image_id: entry for entry in _split_entries(manifest, split)}
    return feature_set(
        entries, lambda entry: spec.encode(model, _read_map(entry, shape), apply_relu, alpha)
    )


def _project_features(fs: FeatureSet, model) -> FeatureSet:
    """PCA-project a feature set with one batched `pca_apply` call."""
    tag = f"{fs.tag}+pca{model.out_dim}"
    return FeatureSet(fs.ids, tag, pca_apply(model, fs.matrix), (False,) * len(fs.ids))


# ---------------------------------------------------------------------------
# Subcommand implementations.


def cmd_synth(args) -> None:
    shape = _parse_int_list("--shape", args.shape)
    if len(shape) != 3:
        raise CliError(f"--shape must be h,w,c, got {args.shape!r}")
    manifest, maps = gen_synthetic(
        args.classes, args.per_class, shape, args.separation, args.seed, args.train_frac
    )
    manifest_path = write_synthetic(Path(args.out), manifest, maps)
    print(f"wrote {len(maps)} tensors and {manifest_path}")


def cmd_codebook_train(args) -> None:
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


def cmd_encode(args) -> None:
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


def cmd_pca_fit(args) -> None:
    if args.split is None:
        args.split = "all"
    elif not args.manifest:
        raise CliError("--split selects fit-set entries of --manifest; pass --manifest too")
    matrix = _fit_set_matrix(load_features(args.features), args)
    try:
        model = pca_fit(matrix, args.d)
    except ValueError as exc:  # d above `max_axes` or the fit set's rank
        raise CliError(f"--d {args.d} does not fit the fit set: {exc}") from None
    save_pca(Path(args.out), model)
    print(f"pca {model.in_dim}-D -> {model.out_dim}-D on {matrix.shape[0]} samples")


def cmd_pca_apply(args) -> None:
    fs = load_features(args.features)
    model = load_pca(args.model)
    if fs.matrix.shape[1] != model.in_dim:
        raise CliError(f"--features {args.features} holds {fs.matrix.shape[1]}-D features; "
                       f"--model {args.model} was fit on {model.in_dim}-D features")
    save_features(Path(args.out), _project_features(fs, model))
    print(f"projected {len(fs.ids)} features to {model.out_dim}-D")


def _dim_reports(fs: FeatureSet, matrix: np.ndarray, manifest: DatasetManifest,
                 protocol: EvalProtocol, dims: list, dim_error: Callable):
    """Yield (dim, report) per dim in order: `fs` unprojected for None, else projected by one
    `pca_fits` decomposition of the fit set `matrix`. A dim it cannot fit raises `dim_error`."""
    fits = pca_fits(matrix, [dim for dim in dims if dim is not None])
    for dim in dims:
        try:
            model = None if dim is None else next(fits)
        except ValueError as exc:  # the fit set's rank, or a dim above `max_axes`
            raise dim_error(dim, exc) from None
        scored = fs if model is None else _project_features(fs, model)
        yield dim, evaluate_dataset(index_rows(scored, manifest), manifest, protocol)


def cmd_pca_sweep(args) -> None:
    fs = load_features(args.features)
    manifest = load_manifest(args.manifest)
    dims = _parse_distinct("--dims", args.dims)
    k_list = _parse_distinct("--k-list", args.k_list)
    protocol = EvalProtocol(self_included=args.self_included, k_list=k_list)
    matrix = _fit_set_matrix(fs, args)
    cap = max_axes(*matrix.shape)
    capped = [d for d in dims if d <= cap]
    if not capped:
        raise CliError(f"--dims leaves nothing to sweep: capping at {cap}-D drops {list(dims)}")
    if len(capped) < len(dims):
        print(f"capping sweep at {cap}-D: dropping {[d for d in dims if d > cap]}")
    rows = []
    for d, report in _dim_reports(fs, matrix, manifest, protocol, capped, lambda d, exc: CliError(
            f"--dims entry {d} does not fit the fit set: {exc}")):
        rows.append(([d], (report.anmrr, report.mean_ap), report.p_at_k))
        print(f"dim {d}: ANMRR={report.anmrr:.4f} mAP={report.mean_ap:.4f}")
    write_scores(args.out, ["dim", "ANMRR", "mAP"], k_list, rows)


# `head train` has one flag per HeadConfig/TrainConfig hyperparameter, in field order, named
# after its field (these three shortened) and defaulting to the field's default.
_HEAD_FLAG_NAMES = {"dropout_rate": "dropout", "batch_size": "batch", "plateau_patience": "patience"}


def _head_flags(owner) -> dict[str, str]:
    """Flag dest -> field, for each `head train` flag that fills a field of `owner`."""
    from_data = ("in_channels", "in_spatial", "classes")  # read off the maps and the manifest
    return {_HEAD_FLAG_NAMES.get(f.name, f.name): f.name for f in fields(owner)
            if f.name not in from_data}


def cmd_head_train(args) -> None:
    manifest = load_manifest(args.manifest)
    train, test = _split_entries(manifest, "train"), _split_entries(manifest, "test")
    shape = _map_shape(train[0], (None, None, None))  # every map has the first's shape
    config = HeadConfig(
        in_channels=shape[2], in_spatial=(shape[0], shape[1]), classes=manifest.n_classes,
        **{name: getattr(args, dest) for dest, name in _head_flags(HeadConfig).items()},
    )
    hp = TrainConfig(**{name: getattr(args, dest) for dest, name in _head_flags(TrainConfig).items()})

    def as_arrays(entries):
        maps = np.empty((len(entries), *shape))
        for i, entry in enumerate(entries):
            maps[i] = _read_map(entry, shape)
        return maps, np.array([manifest.class_index[entry.class_label] for entry in entries])

    head = head_init(config, seed=args.seed)
    head, state = head_train(head, as_arrays(train), as_arrays(test), hp, seed=args.seed)
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


def cmd_index_build(args) -> None:
    idx = index_rows(load_features(args.features), load_manifest(args.manifest))
    save_index(Path(args.out), idx)
    print(f"indexed {idx.size} features of dim {idx.dim}")


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


def cmd_query(args) -> None:
    if bool(args.id) == bool(args.all):
        raise CliError("pass exactly one of --id or --all")
    if args.long and not args.all:
        raise CliError("--long requires --all")
    idx = load_index(args.index)
    out = Path(args.out)
    if args.id and args.id not in idx.ids:
        raise CliError(f"--id {args.id!r} names no image in index {args.index}")
    rows = range(idx.size) if args.all else [idx.row(args.id)]
    blocks = rank(idx, rows, args.self_included)
    ranking = ((row, order) for blk, orders in blocks for row, order in zip(blk.tolist(), orders))
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


def cmd_eval(args) -> None:
    manifest = load_manifest(args.manifest)
    fs = load_features(args.features)
    protocol = EvalProtocol(
        self_included=args.self_included, k_list=_parse_distinct("--k-list", args.k_list)
    )
    report = evaluate_dataset(index_rows(fs, manifest), manifest, protocol)
    write_report(report, Path(args.out))
    print(f"ANMRR={report.anmrr:.4f} mAP={report.mean_ap:.4f} queries={len(report.per_query)}")


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
    """A cell's cache name; keyed on the package version, so no release serves another's rows."""
    blob = json.dumps({**cell, "manifest_sha": manifest_sha, "version": __version__}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _cached_row(cache_file: Path, cell: dict) -> dict | None:
    """The row cached in `cache_file`, printed as a hit, or None to recompute it: absent, unreadable,
    or not a row of `cell` (its kind, relu and pca_dim, numeric scores, P_at_k keyed by integers)."""
    try:
        row = json.loads(cache_file.read_text())
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, UnicodeDecodeError):
        row = None
    if isinstance(row, dict) and isinstance(row.get("P_at_k"), dict):
        want = (cell["kind"], cell["relu"], cell["dim"])
        got = (row.get("kind"), row.get("relu"), row.get("pca_dim"))
        scores = [row.get("ANMRR"), row.get("mAP"), *row["P_at_k"].values()]
        if (got == want and list(map(type, got)) == list(map(type, want))  # 7.0 is not dim 7
                and all(type(s) in (int, float) for s in scores)  # a bool is no score
                and all(k.isascii() and k.isdigit() for k in row["P_at_k"])):
            print("cache hit {} ({}, relu={}, dim={})".format(cache_file.stem[:12], *want))
            return row
    print(f"unreadable cache entry {cache_file}: recomputing")
    return None


def _dim_error(cell: dict, dim: int, exc: ValueError) -> CliError:
    where = f"encoder {cell['kind']!r} with relu={cell['relu']}"
    return CliError(f"pca.dims entry {dim} does not fit {where}: {exc}")


def _check_dims(dims: list, cell: dict, spec: EncoderSpec, manifest: DatasetManifest, head):
    """Reject a PCA dim above `max_axes` of a (kind, relu) pair's feature set before the pair's
    fit and encode: the set has a row per entry, and `spec.size` needs no fit."""
    if None not in dims:  # `validate_config`'s dims are positive integers, or None alone
        entries = _split_entries(manifest, "all")
        size = spec.size(cell["k"], entries[0], head)
        for dim in dims:
            try:
                check_axes(len(entries), size, dim)
            except ValueError as exc:
                raise _dim_error(cell, dim, exc) from None


def _sweep_model(models: dict, manifest: DatasetManifest, cell: dict, spec: EncoderSpec):
    """A sweep cell's model: bovw, vlad and ifk share one k-means fit per (k, relu) in `models`,
    and ifk runs EM from it. A pool is built only to fit, and dropped before the encode pass."""
    if not spec.fit:
        return models.get(spec.model_flag)  # the head, or None for fc_raw
    k, relu, pool = cell["k"], cell["relu"], None
    if (k, relu) not in models:
        pool = _descriptor_pool(manifest, "all", relu)
        try:
            models[k, relu] = kmeans_fit(pool, k, seed=cell["seed"])
        except ValueError as exc:
            raise CliError(f"encoder.k {k} does not fit encoder {cell['kind']!r} "
                           f"with relu={relu}: {exc}") from None
    if spec.fit is not gmm_em:
        return models[k, relu]
    pool = _descriptor_pool(manifest, "all", relu) if pool is None else pool
    return gmm_em(pool, models[k, relu], cell["seed"], MAX_ITER, TOL)


def cmd_sweep(args) -> dict:
    """Evaluate the config's axis product, caching each cell's row. A (kind, relu) pair looks up
    all of its cells, then is fitted, encoded and PCA-decomposed once for all of its misses."""
    config_path, out_dir = Path(args.config), Path(args.out)
    cfg = validate_config(read_json(config_path, CliError))
    manifest_path = (config_path.parent / cfg["manifest"]).resolve()
    blob = manifest_path.read_bytes()  # one read: the cells key on the bytes that were parsed
    manifest = load_manifest(manifest_path, blob)
    manifest_sha = hashlib.sha256(blob).hexdigest()
    # The run's models: the head under "head", and one k-means fit per (k, relu).
    models = {}
    head_key = None  # a head cell keys on its checkpoint's content, so retraining in place misses
    if any(ENCODERS[kind].model_flag == "head" for kind in cfg["kinds"]):
        checkpoint = (config_path.parent / cfg["head_checkpoint"]).resolve()
        models["head"] = load_head(checkpoint)  # a malformed checkpoint fails here, naming its file
        head_key = f"sha256:{bundle_digest(checkpoint)}"
    cache_dir = Path(os.environ.get(CACHE_ENV_VAR) or out_dir / "cache")
    cache_dir.mkdir(parents=True, exist_ok=True)
    protocol = EvalProtocol(self_included=cfg["self_included"], k_list=cfg["k_list"])
    rows = []
    for kind in cfg["kinds"]:
        spec = ENCODERS[kind]
        # A kind that reads no ReLU gets one relu-0 cell whatever the relu axis holds;
        # k, seed (read only by kinds with a fit) and alpha are None in cells that do not read them.
        for use_relu in cfg["relus"] if spec.reads_relu else [False]:
            pair = {  # every field of the pair's cells but their dim
                "kind": kind, "relu": use_relu,
                "k": (cfg["k"] or spec.default_k) if spec.fit else None,
                "alpha": cfg["alpha"] if spec.reads_alpha else None,
                "head_checkpoint": head_key if spec.model_flag == "head" else None,
                "self_included": cfg["self_included"], "k_list": list(cfg["k_list"]),
                "seed": cfg["seed"] if spec.fit else None,
            }
            missed = {}  # dim -> (its row's place in rows, its cache file), for each missed cell
            for dim in cfg["dims"]:
                cell = {**pair, "dim": dim}
                cache_file = cache_dir / f"{_cell_key(cell, manifest_sha)}.json"
                rows.append(_cached_row(cache_file, cell))
                if rows[-1] is None:
                    missed[dim] = (len(rows) - 1, cache_file)
            if missed:  # one fit, encode and PCA decomposition serve all of the pair's misses
                _check_dims(cfg["dims"], pair, spec, manifest, models.get("head"))
                model = _sweep_model(models, manifest, pair, spec)
                fs = _encode_entries(manifest, "all", kind, use_relu, pair["alpha"], model)
                for dim, report in _dim_reports(fs, fs.matrix, manifest, protocol, list(missed),
                                                lambda dim, exc: _dim_error(pair, dim, exc)):
                    at, cache_file = missed[dim]
                    rows[at] = {"kind": kind, "relu": use_relu, "pca_dim": dim,
                                "ANMRR": report.anmrr, "mAP": report.mean_ap,
                                "P_at_k": {str(k): v for k, v in report.p_at_k.items()}}
                    publish(cache_file, json.dumps(rows[at], indent=2) + "\n")
                del fs  # not held through the next pair's fit and encode
    out_csv = out_dir / "sweep.csv"
    write_scores(out_csv, ["kind", "relu", "pca_dim", "ANMRR", "mAP"], cfg["k_list"], (
        ([row["kind"], int(row["relu"]), row["pca_dim"]],  # pca_dim None -> ""
         (row["ANMRR"], row["mAP"]), {int(k): v for k, v in row["P_at_k"].items()})
        for row in rows))
    print(f"sweep report: {out_csv}")
    return {"config": str(config_path), **cfg}


# ---------------------------------------------------------------------------
# Argument parsing.


# Every command flag but `head train`'s hyperparameters, with its `add_argument` keywords.
_FLAGS = {
    "classes": dict(type=int, required=True),
    "per-class": dict(type=int, required=True),
    "shape": dict(required=True, help="feature-map shape h,w,c"),
    "separation": dict(type=float, default=0.0),
    "train-frac": dict(type=float, default=0.8),
    "kind": dict(choices=("kmeans", "gmm"), required=True),
    "k": dict(type=int, required=True, help="dictionary size"),
    "manifest": dict(required=True),
    "split": dict(choices=VALID_SPLITS, default="all"),
    "relu": dict(action="store_true"),
    "max-iter": dict(type=int, default=MAX_ITER),
    "tol": dict(type=float, default=TOL),
    "encoder": dict(choices=tuple(ENCODERS), required=True),
    "model": dict(required=True),
    "head": dict(help="head checkpoint directory (ldcnn)"),
    "alpha": dict(type=float, help=f"power-normalization exponent (ifk; default {DEFAULT_ALPHA})"),
    "features": dict(required=True),
    "d": dict(type=int, required=True),
    "dims": dict(required=True, help="comma-separated dimension list"),
    "self-included": dict(action=argparse.BooleanOptionalAction, default=True),
    "k-list": dict(default=K_LIST_TEXT),
    "index": dict(required=True),
    "id": dict(help="single query id"),
    "all": dict(action="store_true", help="batch mode: query every indexed id"),
    "long": dict(action="store_true",
                 help="with --all, write one long-format CSV instead of per-query files"),
    "config": dict(required=True),
    "seed": dict(type=int, default=0, help="seed for all randomness"),
    "out": dict(required=True),
}

# Each command path -> (help, handler or None for a group, flags in help order). A flag is a
# `_FLAGS` name, or a (name, keywords) pair whose keywords are merged over its entry, if any.
_COMMANDS = {
    ("synth",): ("generate a synthetic labelled feature-map dataset", cmd_synth, [
        "classes", "per-class", "shape", "separation", "train-frac", "seed", "out"]),
    ("codebook",): ("visual dictionary training", None, []),
    ("codebook", "train"): ("fit k-means or GMM on local descriptors", cmd_codebook_train, [
        "kind", "k", "manifest", "split", ("relu", dict(help="apply ReLU to descriptors")),
        "max-iter", "tol", "seed", "out"]),
    ("encode",): ("encode every image into one feature vector", cmd_encode, [
        "manifest", "encoder",
        ("model", dict(required=False, help="codebook/GMM bundle (bovw, vlad, ifk)")),
        "head", "alpha", "relu", "split", "out"]),
    ("pca",): ("dimensionality reduction", None, []),
    ("pca", "fit"): ("fit a PCA model on a feature set", cmd_pca_fit, [
        "features", "d",
        ("manifest", dict(required=False, help="explicit fit-set manifest (optional)")),
        ("split", dict(default=None, help="fit-set split of --manifest (default all)")), "out"]),
    ("pca", "apply"): ("project a feature set with a fitted model", cmd_pca_apply, [
        "features", "model", "out"]),
    ("pca", "sweep"): ("evaluate retrieval across target dimensions", cmd_pca_sweep, [
        "features", "manifest", "dims", ("split", dict(help="fit-set split for the PCA model")),
        "self-included", "k-list", ("out", dict(help="output CSV path"))]),
    ("head",): ("mlpconv retrieval head", None, []),
    ("head", "train"): ("train the head on a labelled manifest", cmd_head_train, [
        "manifest",
        *((dest.replace("_", "-"), dict(type=type(getattr(o, name)), default=getattr(o, name)))
          for o in (HeadConfig, TrainConfig) for dest, name in _head_flags(o).items()),
        "seed", "out"]),
    ("index",): ("retrieval index", None, []),
    ("index", "build"): ("build an index from a feature set", cmd_index_build, [
        "features", "manifest", "out"]),
    ("query",): ("rank the whole index against query id(s)", cmd_query, [
        "index", "id", "all", "long", "self-included",
        ("out", dict(help="output CSV path (or directory with --all)"))]),
    ("eval",): ("score retrieval over a whole manifest", cmd_eval, [
        "manifest", "features", "self-included", "k-list", "out"]),
    ("sweep",): ("evaluate a config's axis product with caching", cmd_sweep, ["config", "out"]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `hrrs` parser, built from `_COMMANDS`: every command, or, when `command` names a
    top-level command, that command alone with its subcommands. The lone command's usage line
    spells out every command, so its usage and errors read as the full parser's."""
    lone = (command,) in _COMMANDS
    names = ",".join(path[0] for path in _COMMANDS if len(path) == 1)
    # The full parser keeps argparse's own metavar: it names the argument `command` in errors.
    metavar = f"{{{names}}}" if lone else None
    parser = argparse.ArgumentParser(prog="hrrs", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hrrs {__version__}")
    groups = {(): parser.add_subparsers(dest="command", required=True, metavar=metavar)}
    for path, (text, handler, flags) in _COMMANDS.items():
        if lone and path[0] != command:
            continue
        p = groups[path[:-1]].add_parser(path[-1], help=text)
        if handler is None:
            groups[path] = p.add_subparsers(dest="subcommand", required=True)
            continue
        for name, keywords in ((f, {}) if isinstance(f, str) else f for f in flags):
            p.add_argument("--" + name, **{**_FLAGS.get(name, {}), **keywords})
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Only a command named first is built alone: an option before it (`hrrs -h sweep`) is read
    # by the top-level parser, which then needs every command.
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:  # a command that returns None ran with its parsed, default-filled arguments
        _write_effective_config(args, args.func(args) or vars(args))
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
