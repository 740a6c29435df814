"""Seeded synthetic inputs for the benchmark, written as FTNS v1 plus manifest.json.

The generator and the FTNS writer live here, not in ``hrrs``, so that a change
to the package's own synthetic generator or tensor writer cannot change the
data the benchmark measures. Every dataset is a pure function of its kind and
the run seed; the sha256 digest of every byte written (manifest first, then
the tensors in manifest order) identifies it.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLASSES = 21


@dataclass(frozen=True)
class DatasetSpec:
    """One synthetic archive: `per_class` tensors of `shape` for each of 21 classes.

    Class j has a random template tensor scaled by `separation`; each tensor
    is its class template plus unit Gaussian noise. `train_every` marks every
    n-th tensor of a class (by position) as test, the rest as train.
    """

    tag: int  # keeps the random streams of different datasets apart
    shape: tuple[int, ...]
    per_class: int
    separation: float
    train_every: int  # 2: half train; 5: 80/20


# Sizes are scaled from the paper's 2,100-image archive so that one pipeline
# takes a few seconds on a 2-core machine; the tensor shapes are the paper's.
DATASETS = {
    # 4096-D Fc vectors (rank-1 tensors).
    "fc": DatasetSpec(tag=1, shape=(4096,), per_class=20, separation=0.12, train_every=5),
    # conv5 maps; also the sweep dataset.
    "conv5": DatasetSpec(tag=2, shape=(13, 13, 512), per_class=6, separation=0.2, train_every=2),
    # pool5 maps for the mlpconv head.
    "pool5": DatasetSpec(tag=3, shape=(6, 6, 512), per_class=20, separation=0.7, train_every=5),
}

# The dataset each workload runs on; sweep-warm sweeps the conv5 archive.
WORKLOAD_DATASETS = {
    "fc-rank": "fc",
    "conv5-codebook": "conv5",
    "head-train": "pool5",
    "sweep-warm": "conv5",
}

_FTNS_HEADER = struct.Struct("<4sIII")  # magic, version 1, dtype 1 (float32), rank


def ftns_bytes(arr: np.ndarray) -> bytes:
    """FTNS v1 encoding of a float32 array: header, uint64 dims, row-major payload."""
    arr = np.ascontiguousarray(arr, dtype="<f4")
    header = _FTNS_HEADER.pack(b"FTNS", 1, 1, arr.ndim)
    return header + struct.pack(f"<{arr.ndim}Q", *arr.shape) + arr.tobytes()


def split_of(i: int, spec: DatasetSpec) -> str:
    return "test" if i % spec.train_every == spec.train_every - 1 else "train"


def generate(kind: str, seed: int, out_dir: Path) -> dict:
    """Write dataset `kind` for `seed` into out_dir; returns its description.

    The description holds the manifest path, the entry count and the sha256
    digest of the written bytes.
    """
    spec = DATASETS[kind]
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, spec.tag])
    entries = []
    blobs = []
    for j in range(CLASSES):
        label = f"class{j:02d}"
        template = spec.separation * rng.standard_normal(spec.shape)
        for i in range(spec.per_class):
            image_id = f"{label}-{i:03d}"
            tensor = (template + rng.standard_normal(spec.shape)).astype("<f4")
            blob = ftns_bytes(tensor)
            (out_dir / f"{image_id}.ftns").write_bytes(blob)
            blobs.append(blob)
            entries.append(
                {"id": image_id, "class": label, "path": f"{image_id}.ftns", "split": split_of(i, spec)}
            )
    manifest = (json.dumps({"entries": entries}, indent=2) + "\n").encode()
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_bytes(manifest)
    digest = hashlib.sha256(manifest)
    for blob in blobs:
        digest.update(blob)
    return {
        "kind": kind,
        "manifest": str(manifest_path),
        "entries": len(entries),
        "bytes": len(manifest) + sum(len(b) for b in blobs),
        "sha256": digest.hexdigest(),
    }


def read_ftns(path: Path) -> np.ndarray:
    """Read an FTNS v1 float32 file written by `ftns_bytes`."""
    blob = Path(path).read_bytes()
    magic, version, dtype, rank = _FTNS_HEADER.unpack_from(blob, 0)
    if (magic, version, dtype) != (b"FTNS", 1, 1):
        raise ValueError(f"{path}: not an FTNS v1 float32 file")
    shape = struct.unpack_from(f"<{rank}Q", blob, _FTNS_HEADER.size)
    return np.frombuffer(blob, dtype="<f4", offset=_FTNS_HEADER.size + 8 * rank).reshape(shape)
