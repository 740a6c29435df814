import hashlib
import json
import os
import re
import struct

import numpy as np
import pytest

from hrrs.head import PARAM_NAMES, HeadConfig, head_init, save_head
from hrrs.tensor_store import (
    BundleError,
    ManifestError,
    TensorFormatError,
    bundle_digest,
    gen_synthetic,
    load_bundle,
    load_manifest,
    publish,
    read_shape,
    read_tensor,
    save_bundle,
    write_synthetic,
    write_tensor,
)


class TestTensorRoundTrip:
    def test_round_trip_bit_exact(self, tmp_path):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        path = tmp_path / "t.ftns"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.shape == (2, 2)
        assert back.tobytes() == arr.tobytes()

    def test_round_trip_random_shapes(self, tmp_path):
        rng = np.random.default_rng(7)
        for shape in [(5,), (3, 4), (2, 3, 4), (1, 1, 1, 6)]:
            arr = rng.standard_normal(shape).astype(np.float32)
            path = tmp_path / "t.ftns"
            write_tensor(path, arr)
            back = read_tensor(path)
            assert back.shape == shape
            assert back.tobytes() == arr.tobytes()

    def test_header_and_payload_byte_count(self, tmp_path):
        # fixed header 16 bytes, one u64 per dim, then 4 bytes per value
        path = tmp_path / "t.ftns"
        write_tensor(path, np.zeros((2, 2), dtype=np.float32))
        assert path.stat().st_size == 16 + 2 * 8 + 16

    def test_conv5_map_payload_size(self, tmp_path):
        # 6*6*512 float32 values -> 73728 payload bytes
        arr = np.zeros((6, 6, 512), dtype=np.float32)
        path = tmp_path / "big.ftns"
        write_tensor(path, arr)
        expected_payload = 6 * 6 * 512 * 4
        assert expected_payload == 73728
        assert path.stat().st_size == 16 + 3 * 8 + expected_payload

    def test_loaded_tensor_is_read_only(self, tmp_path):
        path = tmp_path / "t.ftns"
        write_tensor(path, np.ones(3, dtype=np.float32))
        back = read_tensor(path)
        with pytest.raises(ValueError):
            back[0] = 2.0


class TestTensorValidation:
    def test_empty_dimension_rejected(self, tmp_path):
        with pytest.raises(TensorFormatError, match="empty dimension"):
            write_tensor(tmp_path / "t.ftns", np.zeros((0,), dtype=np.float32))

    def test_rank_zero_rejected(self, tmp_path):
        with pytest.raises(TensorFormatError, match="rank"):
            write_tensor(tmp_path / "t.ftns", np.float32(1.0))

    def test_non_finite_rejected_on_write(self, tmp_path):
        with pytest.raises(TensorFormatError, match="non-finite"):
            write_tensor(tmp_path / "t.ftns", np.array([1.0, np.nan]))

    def test_value_beyond_float32_range_rejected_before_writing(self, tmp_path):
        path = tmp_path / "t.ftns"
        message = "non-finite values or values outside the float32 range ±3.402823e+38"
        with pytest.raises(TensorFormatError, match=re.escape(message)):
            write_tensor(path, np.array([1.0, 1e39]))
        assert not path.exists()

    def test_write_into_a_missing_directory_names_the_file(self, tmp_path):
        path = tmp_path / "missing" / "t.ftns"
        with pytest.raises(OSError, match=re.escape(f"cannot write tensor file {path}")):
            write_tensor(path, np.ones(2))

    @pytest.mark.parametrize(
        ("dims", "message"),
        [((), "rank must be >= 1, got 0"), ((2, 0), "empty dimension in shape (2, 0)")],
        ids=["rank-0", "zero-dimension"],
    )
    def test_header_without_elements_rejected_on_read(self, tmp_path, dims, message):
        path = tmp_path / "t.ftns"
        path.write_bytes(b"FTNS" + struct.pack(f"<III{len(dims)}Q", 1, 1, len(dims), *dims))
        with pytest.raises(TensorFormatError, match=re.escape(f"{path}: {message}")):
            read_tensor(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.ftns"
        write_tensor(path, np.ones(2, dtype=np.float32))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(TensorFormatError, match="magic"):
            read_tensor(path)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "t.ftns"
        write_tensor(path, np.ones(2, dtype=np.float32))
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(TensorFormatError, match="version"):
            read_tensor(path)

    def test_unknown_dtype(self, tmp_path):
        path = tmp_path / "t.ftns"
        write_tensor(path, np.ones(2, dtype=np.float32))
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 7)
        path.write_bytes(bytes(blob))
        with pytest.raises(TensorFormatError, match="dtype"):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.ftns"
        write_tensor(path, np.ones(4, dtype=np.float32))
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(TensorFormatError, match="length mismatch"):
            read_tensor(path)

    def test_read_shape_reads_the_header_alone(self, tmp_path):
        path = tmp_path / "t.ftns"
        write_tensor(path, np.ones((3, 2, 5), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-7])  # a payload fault is left to read_tensor
        assert read_shape(path) == (3, 2, 5)

    @pytest.mark.parametrize(
        ("blob", "message"),
        [
            (b"", "bad magic (expected FTNS)"),
            (b"XXXX" + struct.pack("<III1Q", 1, 1, 1, 2), "bad magic (expected FTNS)"),
            (b"FTNS" + struct.pack("<II", 1, 1), "truncated header"),
            (b"FTNS" + struct.pack("<III1Q", 1, 1, 3, 2), "truncated dims (rank 3)"),
            (b"FTNS" + struct.pack("<III", 1, 1, 0xFFFFFFFF), "truncated dims (rank 4294967295)"),
            (b"FTNS" + struct.pack("<III1Q", 2, 1, 1, 2), "unknown version 2"),
        ],
        ids=["empty", "bad-magic", "truncated-header", "truncated-dims", "huge-rank", "version"],
    )
    @pytest.mark.parametrize("reader", [read_shape, read_tensor], ids=["shape", "tensor"])
    def test_header_faults_name_the_file(self, tmp_path, reader, blob, message):
        path = tmp_path / "t.ftns"
        path.write_bytes(blob)
        with pytest.raises(TensorFormatError, match=re.escape(f"{path}: {message}")):
            reader(path)

    def test_non_finite_payload_rejected_on_read(self, tmp_path):
        path = tmp_path / "t.ftns"
        write_tensor(path, np.ones(2, dtype=np.float32))
        blob = bytearray(path.read_bytes())
        blob[-8:] = struct.pack("<ff", np.inf, 1.0)
        path.write_bytes(bytes(blob))
        with pytest.raises(TensorFormatError, match="non-finite"):
            read_tensor(path)


class TestBundle:
    def _save(self, out_dir):
        tensors = {"matrix": np.arange(6.0).reshape(3, 2) / 7.0, "scale": np.ones(2)}
        meta = {"ids": ["a", "b", "c"], "tag": "demo"}
        return save_bundle(out_dir, "demo", tensors, meta), tensors

    def test_round_trip(self, tmp_path):
        sidecar, tensors = self._save(tmp_path / "b")
        assert sidecar == tmp_path / "b" / "bundle.json"
        doc = json.loads(sidecar.read_text())
        assert doc == {
            "kind": "demo",
            "version": 1,
            "tensors": {"matrix": [3, 2], "scale": [2]},
            "meta": {"ids": ["a", "b", "c"], "tag": "demo"},
        }
        back, meta = load_bundle(tmp_path / "b", "demo")
        assert set(back) == set(tensors)
        for name, arr in tensors.items():
            assert back[name].dtype == np.float64
            assert not back[name].flags.writeable
            np.testing.assert_array_equal(back[name], arr.astype(np.float32))
        assert meta == {"ids": ["a", "b", "c"], "tag": "demo"}
        assert meta.per_row("ids", back["matrix"], str) == ["a", "b", "c"]
        assert not list((tmp_path / "b").glob("*.tmp"))

    def test_layout_without_sidecar_rejected(self, tmp_path):
        # An older layout (model.json sidecar) or an interrupted write.
        write_tensor(tmp_path / "centroids.ftns", np.ones((2, 2)))
        (tmp_path / "model.json").write_text('{"kind": "kmeans"}')
        with pytest.raises(BundleError, match=r"bundle\.json: no bundle\.json"):
            load_bundle(tmp_path, "kmeans")

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("kind", "other", "field 'kind' is 'other', expected 'demo'"),
            ("version", 2, "field 'version' is 2, expected 1"),
            ("tensors", [], "object fields 'tensors' and 'meta'"),
            ("meta", None, "object fields 'tensors' and 'meta'"),
        ],
    )
    def test_sidecar_fields_checked(self, tmp_path, field, value, match):
        sidecar, _ = self._save(tmp_path)
        doc = json.loads(sidecar.read_text())
        doc[field] = value
        sidecar.write_text(json.dumps(doc))
        with pytest.raises(BundleError, match=match):
            load_bundle(tmp_path, "demo")

    def test_members_checked(self, tmp_path):
        self._save(tmp_path)
        write_tensor(tmp_path / "scale.ftns", np.ones(3))
        with pytest.raises(BundleError, match=r"scale\.ftns: shape \[3\] differs .*'tensors\.scale' \[2\]"):
            load_bundle(tmp_path, "demo")
        (tmp_path / "scale.ftns").unlink()
        with pytest.raises(BundleError, match=r"scale\.ftns: missing member"):
            load_bundle(tmp_path, "demo")

    def test_fields_and_rows_checked_when_read(self, tmp_path):
        self._save(tmp_path)
        tensors, meta = load_bundle(tmp_path, "demo")
        with pytest.raises(BundleError, match="bundle.json: missing field 'meta.labels'"):
            meta["labels"]
        with pytest.raises(BundleError, match="bundle.json: missing field 'tensors.weights'"):
            tensors["weights"]
        with pytest.raises(BundleError, match=r"'meta.ids' must list one entry per row .*\(2 rows\)"):
            meta.per_row("ids", tensors["scale"], str)
        with pytest.raises(BundleError, match="'meta.tag' must list one entry per row"):
            meta.per_row("tag", tensors["matrix"], str)
        with pytest.raises(BundleError, match="'meta.ids' entry 0 is 'a', expected a bool"):
            meta.per_row("ids", tensors["matrix"], bool)

    def test_matrices_and_number_lists_checked_when_read(self, tmp_path):
        sidecar, _ = self._save(tmp_path)
        doc = json.loads(sidecar.read_text())
        doc["meta"].update(history=[1, 2.5], flags=[1, True], count=5)
        sidecar.write_text(json.dumps(doc))
        tensors, meta = load_bundle(tmp_path, "demo")
        assert tensors.matrix("matrix").shape == (3, 2)
        with pytest.raises(BundleError, match=r"bundle\.json: field 'tensors\.scale' must be a 2-D "
                                              r"tensor, got shape \[2\]"):
            tensors.matrix("scale")
        assert meta.numbers("history") == [1, 2.5]
        for key, value in (("flags", [1, True]), ("count", 5), ("ids", ["a", "b", "c"])):
            with pytest.raises(BundleError, match=re.escape(
                f"bundle.json: field 'meta.{key}' must be a list of numbers, got {value!r}"
            )):
                meta.numbers(key)

    def test_digest_of_a_head_checkpoint_hashes_sidecar_then_parameters(self, tmp_path):
        """The sweep keys ldcnn cells on this digest: its bytes must not move."""
        head = head_init(HeadConfig(in_channels=3, in_spatial=(2, 2), hidden1=2, hidden2=2,
                                    classes=2), seed=0)
        save_head(tmp_path, head)
        expected = hashlib.sha256()
        for name in ("bundle.json", *(f"{p}.ftns" for p in PARAM_NAMES)):
            expected.update((tmp_path / name).read_bytes())
        assert PARAM_NAMES == ("W1", "b1", "W2", "b2", "W3", "b3")
        assert bundle_digest(tmp_path) == expected.hexdigest()
        (tmp_path / "b3.ftns").write_bytes((tmp_path / "b3.ftns").read_bytes()[:-1] + b"\x01")
        assert bundle_digest(tmp_path) != expected.hexdigest()


class TestPublish:
    def test_replaces_the_target_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "manifest.json"
        target.write_text("old")
        publish(target, '{"entries": []}\n')
        assert target.read_text() == '{"entries": []}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("call", ["replace", "fsync"])
    def test_a_failure_keeps_the_old_target(self, tmp_path, monkeypatch, call):
        manifest, maps = gen_synthetic(2, 2, (2, 2, 4), 1.0, seed=0)
        target = write_synthetic(tmp_path, manifest, maps)
        before = target.read_bytes()

        def fail(*args):
            raise OSError(f"injected {call} failure")

        monkeypatch.setattr(os, call, fail)
        with pytest.raises(OSError, match=f"injected {call} failure"):
            publish(target, '{"entries": []}\n')
        monkeypatch.undo()
        assert target.read_bytes() == before
        assert load_manifest(target).label_of == manifest.label_of


def _write_manifest(path, entries):
    path.write_text(json.dumps({"entries": entries}))


class TestManifest:
    def test_ucmd_shaped_manifest(self, tmp_path):
        entries = [
            {"id": f"c{c:02d}-{i:03d}", "class": f"class{c:02d}", "path": "x.ftns", "split": "all"}
            for c in range(21)
            for i in range(100)
        ]
        path = tmp_path / "manifest.json"
        _write_manifest(path, entries)
        manifest = load_manifest(path)
        assert len(manifest.entries) == 2100
        assert manifest.n_classes == 21

    def test_singleton(self, tmp_path):
        path = tmp_path / "m.json"
        _write_manifest(path, [{"id": "a", "class": "only", "path": "a.ftns", "split": "train"}])
        manifest = load_manifest(path)
        assert manifest.n_classes == 1
        assert manifest.class_index == {"only": 0}

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "m.json"
        _write_manifest(
            path,
            [
                {"id": "a", "class": "x", "path": "a.ftns", "split": "all"},
                {"id": "a", "class": "y", "path": "b.ftns", "split": "all"},
            ],
        )
        with pytest.raises(ManifestError, match="duplicate id"):
            load_manifest(path)

    def test_unknown_split(self, tmp_path):
        path = tmp_path / "m.json"
        _write_manifest(path, [{"id": "a", "class": "x", "path": "a.ftns", "split": "dev"}])
        with pytest.raises(ManifestError, match="split"):
            load_manifest(path)

    def test_empty_class_label(self, tmp_path):
        path = tmp_path / "m.json"
        _write_manifest(path, [{"id": "a", "class": "", "path": "a.ftns", "split": "all"}])
        with pytest.raises(ManifestError, match="empty class"):
            load_manifest(path)

    def test_class_index_lexicographic_and_order_invariant(self, tmp_path):
        entries = [
            {"id": "1", "class": "zebra", "path": "a.ftns", "split": "all"},
            {"id": "2", "class": "apple", "path": "b.ftns", "split": "all"},
            {"id": "3", "class": "mango", "path": "c.ftns", "split": "all"},
        ]
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        _write_manifest(p1, entries)
        _write_manifest(p2, entries[::-1])
        m1, m2 = load_manifest(p1), load_manifest(p2)
        assert m1.class_index == {"apple": 0, "mango": 1, "zebra": 2}
        assert m1.class_index == m2.class_index

    def test_tensor_paths_resolve_relative_to_manifest_dir(self, tmp_path):
        sub = tmp_path / "data"
        sub.mkdir()
        path = sub / "m.json"
        _write_manifest(path, [{"id": "a", "class": "x", "path": "maps/a.ftns", "split": "all"}])
        manifest = load_manifest(path)
        assert manifest.entries[0].tensor_path == sub / "maps" / "a.ftns"

    def test_split_selection(self, tmp_path):
        path = tmp_path / "m.json"
        _write_manifest(
            path,
            [
                {"id": "a", "class": "x", "path": "a.ftns", "split": "train"},
                {"id": "b", "class": "x", "path": "b.ftns", "split": "test"},
                {"id": "c", "class": "x", "path": "c.ftns", "split": "all"},
            ],
        )
        manifest = load_manifest(path)
        assert [e.image_id for e in manifest.select("train")] == ["a", "c"]
        assert [e.image_id for e in manifest.select("test")] == ["b", "c"]
        assert len(manifest.select("all")) == 3
        with pytest.raises(ManifestError, match="unknown split 'val'"):
            manifest.select("val")


class TestGenSynthetic:
    def test_deterministic(self):
        m1, maps1 = gen_synthetic(2, 3, (2, 2, 4), 5.0, seed=11)
        m2, maps2 = gen_synthetic(2, 3, (2, 2, 4), 5.0, seed=11)
        assert m1.entries == m2.entries
        for image_id in maps1:
            assert maps1[image_id].tobytes() == maps2[image_id].tobytes()

    def test_different_seed_differs(self):
        _, maps1 = gen_synthetic(2, 3, (2, 2, 4), 5.0, seed=11)
        _, maps2 = gen_synthetic(2, 3, (2, 2, 4), 5.0, seed=12)
        assert maps1["class00-000"].tobytes() != maps2["class00-000"].tobytes()

    def test_zero_separation_classes_statistically_identical(self):
        _, maps = gen_synthetic(3, 200, (4, 4, 6), 0.0, seed=3)
        for j in range(3):
            stack = np.stack([maps[f"class{j:02d}-{i:03d}"] for i in range(200)])
            # With zero separation every map is pure unit noise.
            assert abs(stack.mean()) < 0.05
            assert abs(stack.std() - 1.0) < 0.05

    def test_channel_mean_separation(self):
        classes, per_class = 3, 200
        sep = 6.0
        _, maps = gen_synthetic(classes, per_class, (4, 4, 8), sep, seed=5)
        means = [
            np.stack(
                [maps[f"class{j:02d}-{i:03d}"].astype(np.float64) for i in range(per_class)]
            ).mean(axis=(0, 1, 2))
            for j in range(classes)
        ]
        for a in range(classes):
            for b in range(a + 1, classes):
                dist = np.linalg.norm(means[a] - means[b])
                assert abs(dist - sep) < 0.2

    def test_split_fractions(self):
        manifest, _ = gen_synthetic(2, 20, (2, 2, 4), 1.0, seed=0)
        for label in ("class00", "class01"):
            train = [e for e in manifest.entries if e.class_label == label and e.split == "train"]
            test = [e for e in manifest.entries if e.class_label == label and e.split == "test"]
            assert len(train) == 16
            assert len(test) == 4

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_synthetic(0, 5, (2, 2, 4), 1.0, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic(2, 0, (2, 2, 4), 1.0, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic(5, 2, (2, 2, 4), 1.0, seed=0)  # more classes than channels
        with pytest.raises(ValueError):
            gen_synthetic(2, 2, (2, 2, 4), -1.0, seed=0)
        with pytest.raises(ValueError, match=re.escape("map_shape must be [h, w, c] with positive "
                                                       "dims, got (2, 0, 4)")):
            gen_synthetic(2, 2, (2, 0, 4), 1.0, seed=0)
        with pytest.raises(ValueError, match=re.escape("map_shape must be [h, w, c]")):
            gen_synthetic(2, 2, (2, 4), 1.0, seed=0)
        with pytest.raises(ValueError, match=re.escape("train_frac must lie in [0, 1]")):
            gen_synthetic(2, 2, (2, 2, 4), 1.0, seed=0, train_frac=1.5)

    def test_write_and_reload(self, tmp_path):
        manifest, maps = gen_synthetic(2, 4, (2, 2, 4), 3.0, seed=9)
        manifest_path = write_synthetic(tmp_path / "ds", manifest, maps)
        loaded = load_manifest(manifest_path)
        assert [e.image_id for e in loaded.entries] == [e.image_id for e in manifest.entries]
        arr = read_tensor(loaded.entries[0].tensor_path)
        assert arr.tobytes() == maps[loaded.entries[0].image_id].tobytes()
        # Pinned text: paths are bare file names, indent 2, one trailing newline.
        text = manifest_path.read_text()
        split = manifest.entries[0].split
        assert text.startswith(
            '{\n  "entries": [\n    {\n      "id": "class00-000",\n      "class": "class00",\n'
            f'      "path": "class00-000.ftns",\n      "split": "{split}"\n    }},\n'
        )
        assert text.endswith('"\n    }\n  ]\n}\n')
        assert json.loads(text)["entries"] == [
            {"id": e.image_id, "class": e.class_label, "path": f"{e.image_id}.ftns",
             "split": e.split}
            for e in manifest.entries
        ]
