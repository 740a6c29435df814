"""Binary tensor files, bundles, dataset manifests, and synthetic dataset generation.

All bulk data (feature maps, Fc vectors, model parameters, encoded features)
moves through a small binary format: magic ``FTNS``, a fixed little-endian
header, and a raw row-major float32 payload. Every saved model, index and
feature set is a bundle: a directory of FTNS tensors plus one ``bundle.json``
sidecar. Dataset metadata lives in JSON manifests mapping image ids to class
labels and tensor files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"FTNS"
FORMAT_VERSION = 1
DTYPE_FLOAT32 = 1

VALID_SPLITS = ("train", "test", "all")

BUNDLE_SIDECAR = "bundle.json"
BUNDLE_VERSION = 1

_HEADER = struct.Struct("<III")  # version, dtype code, rank

# Row-tile budgets: TILE_BYTES for a BLAS product's tile (a distance block, an EM tile, a ranking
# block, the head's im2col chunk), as each multithreaded call has a fixed cost; PASS_BYTES,
# 2**16 float64 values, for an elementwise pass's: on a 10,647 x 512 pool `_assign`'s point
# distances took 15.9/21.5/37.9 ms at k = 2/16/100 in it and 27.2/35.6/48.5 ms in TILE_BYTES.
TILE_BYTES = 8 << 20
PASS_BYTES = 8 << 16


def row_tiles(n: int, row_bytes: int, budget: int, macs_per_row: int = 0) -> list[tuple[int, int]]:
    """[lo, hi) bounds of n rows in the fewest tiles of at most `budget` bytes, `row_bytes` a row,
    sizes differing by at most one, the larger first (a much smaller last tile's GEMM stalled
    for up to 100 ms beside a busy process). A product of `macs_per_row` multiply-adds a row
    takes fewer, larger tiles rather than any of 10^6 multiply-adds or fewer or under 128 rows:
    OpenBLAS rounded row tiles of (rows, 512) @ (512, k) differently from one product there (with
    2 threads, 48-96 rows at k = 100) and kept the bits above both, at 1 and 2 threads."""
    if n == 0:
        return []
    parts = -(-n // max(1, budget // row_bytes))
    if macs_per_row:
        parts = max(1, min(parts, n // max(128, 10**6 // macs_per_row + 1)))
    q, r = divmod(n, parts)
    cuts = [i * q + min(i, r) for i in range(parts + 1)]
    return list(zip(cuts, cuts[1:]))


class TensorFormatError(ValueError):
    """A tensor (in memory or on disk) violates the FTNS contract."""


class ManifestError(ValueError):
    """A dataset manifest violates its schema or invariants."""


class BundleError(ValueError):
    """A bundle directory is incomplete or its sidecar is missing, malformed or inconsistent."""


def validate_tensor(values: np.ndarray) -> np.ndarray:
    """Check tensor invariants and return a contiguous little-endian float32 copy."""
    arr = np.asarray(values)
    if arr.ndim < 1:
        raise TensorFormatError("tensor rank must be >= 1")
    if any(dim < 1 for dim in arr.shape):
        raise TensorFormatError(f"empty dimension in shape {tuple(arr.shape)}")
    with np.errstate(over="ignore"):  # checked below: a value past float32's range becomes inf
        out = np.ascontiguousarray(arr, dtype="<f4")
    if not np.all(np.isfinite(out)):
        raise TensorFormatError("tensor contains non-finite values or values outside the "
                                f"float32 range ±{np.finfo(np.float32).max:.7g}")
    return out


def write_tensor(path: str | Path, values: np.ndarray) -> None:
    """Write an array as an FTNS file (validates invariants first)."""
    arr = validate_tensor(values)
    path = Path(path)
    try:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(_HEADER.pack(FORMAT_VERSION, DTYPE_FLOAT32, arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.tobytes(order="C"))
    except OSError as exc:
        raise OSError(f"cannot write tensor file {path}: {exc}") from exc


def _parse_header(path: Path, blob: bytes) -> tuple[tuple[int, ...], int]:
    """The shape and payload offset of the FTNS header that `blob` starts with, checked."""
    if len(blob) < 4 or blob[:4] != MAGIC:
        raise TensorFormatError(f"{path}: bad magic (expected FTNS)")
    if len(blob) < 4 + _HEADER.size:
        raise TensorFormatError(f"{path}: truncated header")
    version, dtype, rank = _HEADER.unpack_from(blob, 4)
    if version != FORMAT_VERSION:
        raise TensorFormatError(f"{path}: unknown version {version}")
    if dtype != DTYPE_FLOAT32:
        raise TensorFormatError(f"{path}: unknown dtype code {dtype}")
    if rank < 1:
        raise TensorFormatError(f"{path}: rank must be >= 1, got {rank}")
    dims_end = 4 + _HEADER.size + 8 * rank
    if len(blob) < dims_end:
        raise TensorFormatError(f"{path}: truncated dims (rank {rank})")
    shape = struct.unpack_from(f"<{rank}Q", blob, 4 + _HEADER.size)
    if any(dim < 1 for dim in shape):
        raise TensorFormatError(f"{path}: empty dimension in shape {shape}")
    return shape, dims_end


def read_shape(path: str | Path) -> tuple[int, ...]:
    """An FTNS file's shape, read from its header alone with `read_tensor`'s header checks."""
    with open(path, "rb") as fh:
        blob = fh.read(4 + _HEADER.size)
        rank = _HEADER.unpack_from(blob, 4)[2] if len(blob) == 4 + _HEADER.size else 0
        blob += fh.read(min(8 * rank, os.fstat(fh.fileno()).st_size))  # the dims, within the file
    return _parse_header(Path(path), blob)[0]


def read_tensor(path: str | Path) -> np.ndarray:
    """Read an FTNS file into a read-only float32 array, checking its header (`_parse_header`),
    then its payload's length and finiteness; errors name the file and the failing field."""
    path = Path(path)
    blob = path.read_bytes()
    shape, dims_end = _parse_header(path, blob)
    expected = 4 * math.prod(shape)
    payload_bytes = len(blob) - dims_end
    if payload_bytes != expected:
        raise TensorFormatError(
            f"{path}: payload length mismatch (expected {expected} bytes, got {payload_bytes})"
        )
    arr = np.frombuffer(blob, dtype="<f4", offset=dims_end).reshape(shape)  # no copy of the payload
    if not np.all(np.isfinite(arr)):
        raise TensorFormatError(f"{path}: payload contains non-finite values")
    arr.flags.writeable = False
    return arr


def read_json(path: str | Path, error: type[ValueError], blob: bytes | None = None):
    """Parse a JSON file, or `blob` when the caller has read its bytes; a file that is not UTF-8
    JSON raises `error` naming it."""
    try:
        return json.loads(Path(path).read_text() if blob is None else blob.decode())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{path}: invalid JSON ({exc})") from None


class BundleFields(dict):
    """The tensors or meta of a loaded bundle; reading a missing key raises a BundleError."""

    def __init__(self, values: dict, sidecar: Path, section: str):
        super().__init__(values)
        self.sidecar = sidecar
        self.section = section

    def __missing__(self, key):
        raise BundleError(f"{self.sidecar}: missing field '{self.section}.{key}'")

    def matrix(self, key: str) -> np.ndarray:
        """Tensor `key`, checked to be 2-D."""
        value = self[key]
        if value.ndim != 2:
            raise BundleError(f"{self.sidecar}: field '{self.section}.{key}' must be a 2-D "
                              f"tensor, got shape {list(value.shape)}")
        return value

    def numbers(self, key: str) -> list:
        """Field `key`, checked to be a list of JSON numbers."""
        values = self[key]
        if not isinstance(values, list) or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in values
        ):
            raise BundleError(f"{self.sidecar}: field '{self.section}.{key}' must be a list "
                              f"of numbers, got {values!r}")
        return values

    def per_row(self, key: str, matrix: np.ndarray, of: type) -> list:
        """Field `key`, checked to be a list of one `of` per row of `matrix`."""
        values = self[key]
        if not isinstance(values, list) or len(values) != len(matrix):
            raise BundleError(
                f"{self.sidecar}: field '{self.section}.{key}' must list one entry "
                f"per row of matrix.ftns ({len(matrix)} rows)"
            )
        for r, value in enumerate(values):
            if not isinstance(value, of):
                raise BundleError(
                    f"{self.sidecar}: field '{self.section}.{key}' entry {r} is {value!r}, "
                    f"expected a {of.__name__}"
                )
        return values


def _fsync(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def publish(path: Path, text: str) -> None:
    """Replace `path` by `text` atomically: write a temp file beside it, fsync it, rename it onto
    `path` and fsync the directory. A failure leaves the old file, or none, and perhaps the temp
    file, which no reader opens."""
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(text)
    _fsync(tmp)
    os.replace(tmp, path)
    _fsync(path.parent)


def _write_members(out_dir: Path, index_name: str, tensors: dict, text: str) -> Path:
    """Remove the index file readers trust (`bundle.json`, `manifest.json`), write and fsync each
    `<name>.ftns` member, then `publish` the index as `text`; returns its path. An interrupted
    write leaves a directory that every reader rejects, never a mix that it would accept."""
    out_dir.mkdir(parents=True, exist_ok=True)
    index = out_dir / index_name
    index.unlink(missing_ok=True)
    _fsync(out_dir)
    for name, values in tensors.items():
        write_tensor(out_dir / f"{name}.ftns", values)
        _fsync(out_dir / f"{name}.ftns")
    publish(index, text)
    return index


def save_bundle(out_dir: str | Path, kind: str, tensors: dict[str, np.ndarray], meta: dict) -> Path:
    """Write tensors as `<name>.ftns` files and then `bundle.json` by `_write_members`; returns
    the sidecar's path. The sidecar has no trailing newline, so no strict prefix of it parses."""
    shapes = {name: list(np.shape(values)) for name, values in tensors.items()}
    doc = {"kind": kind, "version": BUNDLE_VERSION, "tensors": shapes, "meta": meta}
    return _write_members(Path(out_dir), BUNDLE_SIDECAR, tensors, json.dumps(doc, indent=2))


def load_bundle(bundle_dir: str | Path, kind: str) -> tuple[BundleFields, BundleFields]:
    """Read a bundle of `kind` as (tensors, meta); tensors are read-only float64.

    Checks the sidecar's schema, kind and version, and that every listed
    member exists with the recorded shape. Errors name the file and field.
    """
    sidecar = Path(bundle_dir) / BUNDLE_SIDECAR
    if not sidecar.is_file():
        raise BundleError(
            f"{sidecar}: no {BUNDLE_SIDECAR}; not a bundle, an interrupted write, or an "
            "older layout (re-run the command that wrote it)"
        )
    doc = read_json(sidecar, BundleError)
    if not (isinstance(doc, dict) and isinstance(doc.get("tensors"), dict)
            and isinstance(doc.get("meta"), dict)):
        raise BundleError(f"{sidecar}: expected an object with object fields 'tensors' and 'meta'")
    for field, expected in (("kind", kind), ("version", BUNDLE_VERSION)):
        if doc.get(field) != expected:
            raise BundleError(
                f"{sidecar}: field '{field}' is {doc.get(field)!r}, expected {expected!r}"
            )
    tensors = {}
    for name, shape in doc["tensors"].items():
        path = sidecar.with_name(f"{name}.ftns")
        if not path.is_file():
            raise BundleError(f"{path}: missing member listed in {sidecar}")
        arr = read_tensor(path)
        if list(arr.shape) != shape:
            raise BundleError(
                f"{path}: shape {list(arr.shape)} differs from {sidecar} "
                f"field 'tensors.{name}' {shape}"
            )
        tensors[name] = arr.astype(np.float64)
        tensors[name].flags.writeable = False
    return BundleFields(tensors, sidecar, "tensors"), BundleFields(doc["meta"], sidecar, "meta")


def bundle_digest(bundle_dir: str | Path) -> str:
    """sha256 over a loadable bundle's sidecar bytes, then each member's, in sidecar order."""
    sidecar = Path(bundle_dir) / BUNDLE_SIDECAR
    digest = hashlib.sha256(sidecar.read_bytes())
    for name in read_json(sidecar, BundleError)["tensors"]:
        digest.update(sidecar.with_name(f"{name}.ftns").read_bytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class ManifestEntry:
    image_id: str
    class_label: str
    tensor_path: Path
    split: str


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple[ManifestEntry, ...]
    class_index: dict[str, int]
    label_of: dict[str, str]

    @property
    def n_classes(self) -> int:
        return len(self.class_index)

    def select(self, split: str) -> tuple[ManifestEntry, ...]:
        """Entries belonging to a split; entries marked 'all' match every split."""
        if split not in VALID_SPLITS:
            raise ManifestError(f"unknown split {split!r}")
        if split == "all":
            return self.entries
        return tuple(e for e in self.entries if e.split in (split, "all"))


def make_manifest(entries: list[ManifestEntry]) -> DatasetManifest:
    """Validate entries and assign the class index (lexicographic by label)."""
    seen: set[str] = set()
    for e in entries:
        if e.image_id in seen:
            raise ManifestError(f"duplicate id {e.image_id!r}")
        seen.add(e.image_id)
        if e.split not in VALID_SPLITS:
            raise ManifestError(f"entry {e.image_id!r}: unknown split {e.split!r}")
        if not e.class_label:
            raise ManifestError(f"entry {e.image_id!r}: empty class label")
    if not entries:
        raise ManifestError("manifest has no entries")
    labels = sorted({e.class_label for e in entries})
    class_index = {label: i for i, label in enumerate(labels)}
    label_of = {e.image_id: e.class_label for e in entries}
    return DatasetManifest(tuple(entries), class_index, label_of)


def load_manifest(path: str | Path, blob: bytes | None = None) -> DatasetManifest:
    """Load a JSON manifest, from `blob` when the caller has read its bytes; tensor paths
    resolve relative to the manifest's directory."""
    path = Path(path)
    doc = read_json(path, ManifestError, blob)
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise ManifestError(f"{path}: top-level object must contain an 'entries' list")
    unknown = set(doc) - {"entries"}
    if unknown:
        raise ManifestError(f"{path}: unknown top-level keys {sorted(unknown)}")
    root = path.parent
    entries = []
    for i, raw in enumerate(doc["entries"]):
        if not isinstance(raw, dict):
            raise ManifestError(f"{path}: entry {i} is not an object")
        missing = {"id", "class", "path", "split"} - set(raw)
        if missing:
            raise ManifestError(f"{path}: entry {i} missing keys {sorted(missing)}")
        unknown = set(raw) - {"id", "class", "path", "split"}
        if unknown:
            raise ManifestError(f"{path}: entry {i} has unknown keys {sorted(unknown)}")
        for key, value in raw.items():
            if not isinstance(value, str):
                raise ManifestError(
                    f"{path}: entry {i} key {key!r} must be a string, got {value!r}"
                )
        entries.append(ManifestEntry(raw["id"], raw["class"], root / raw["path"], raw["split"]))
    try:
        return make_manifest(entries)
    except ManifestError as exc:
        raise ManifestError(f"{path}: {exc}") from None


def gen_synthetic(
    classes: int,
    per_class: int,
    map_shape: tuple[int, int, int],
    separation: float,
    seed: int,
    train_frac: float = 0.8,
) -> tuple[DatasetManifest, dict[str, np.ndarray]]:
    """Generate a labelled set of synthetic feature maps.

    Class j gets a mean template map whose channel-mean vectors are exactly
    `separation` apart between any two classes; on top of the channel offsets
    the template carries zero-channel-mean spatial texture at scale
    separation/4, so class structure survives aggregation even when a small
    codebook absorbs the channel offsets. Each map is the class template plus
    unit Gaussian noise per element. Pure function of its arguments;
    separation 0 makes all classes statistically identical.
    """
    if classes < 1 or per_class < 1:
        raise ValueError("classes and per_class must be >= 1")
    if not 0 <= separation < math.inf:
        raise ValueError(f"separation must be finite and >= 0, got {separation}")
    if len(map_shape) != 3 or any(d < 1 for d in map_shape):
        raise ValueError(f"map_shape must be [h, w, c] with positive dims, got {map_shape}")
    if not 0.0 <= train_frac <= 1.0:
        raise ValueError("train_frac must lie in [0, 1]")
    h, w, c = map_shape
    if classes > c:
        raise ValueError(
            f"need at least as many channels as classes for mutually separated means "
            f"(classes={classes}, channels={c})"
        )
    rng = np.random.default_rng(seed)
    # Scaled standard-basis channel offsets: ||mean_i - mean_j|| = separation
    # for all i != j in channel-mean space.
    offset = separation / math.sqrt(2.0)
    site_scale = separation / 4.0
    maps: dict[str, np.ndarray] = {}
    entries: list[ManifestEntry] = []
    for j in range(classes):
        label = f"class{j:02d}"
        mu = np.zeros(c)
        mu[j] = offset
        texture = rng.standard_normal((h, w, c))
        texture -= texture.mean(axis=(0, 1), keepdims=True)  # keeps channel means exact
        template = mu + site_scale * texture
        ids = []
        for i in range(per_class):
            image_id = f"{label}-{i:03d}"
            arr = validate_tensor(template + rng.standard_normal((h, w, c)))
            arr.flags.writeable = False
            maps[image_id] = arr
            ids.append(image_id)
        order = rng.permutation(per_class)
        n_train = max(1, int(round(train_frac * per_class))) if train_frac > 0 else 0
        train_set = {ids[k] for k in order[:n_train]}
        for image_id in ids:
            split = "train" if image_id in train_set else "test"
            entries.append(ManifestEntry(image_id, label, Path(f"{image_id}.ftns"), split))
    return make_manifest(entries), maps


def write_synthetic(out_dir: str | Path, manifest: DatasetManifest,
                    maps: dict[str, np.ndarray]) -> Path:
    """Write synthetic maps and then `manifest.json` by `_write_members`; returns its path."""
    entries = [{"id": e.image_id, "class": e.class_label, "path": f"{e.image_id}.ftns",
                "split": e.split} for e in manifest.entries]
    text = json.dumps({"entries": entries}, indent=2) + "\n"
    tensors = {e.image_id: maps[e.image_id] for e in manifest.entries}
    return _write_members(Path(out_dir), "manifest.json", tensors, text)
