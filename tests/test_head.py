import json
import math
import re
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from hrrs import head as head_module
from hrrs.encoders import l2_normalize
from hrrs.head import (
    LDCNN_HEAD_LAYERS,
    VGGM_FC_LAYERS,
    VGGM_FINETUNE_FC_LAYERS,
    HeadConfig,
    MlpconvHead,
    TrainConfig,
    _accuracy,
    _apply_dropout,
    _check_maps,
    _dropout_mask,
    _forward,
    _gap,
    _im2col3_batch,
    _loss_and_grads,
    _softmax_xent_batch,
    head_backward,
    head_feature,
    head_init,
    head_loss,
    head_train,
    load_head,
    param_count,
    save_head,
)
from hrrs.tensor_store import BundleError, gen_synthetic, load_bundle

from oracles import naive_head_gap

SMALL_CFG = HeadConfig(
    in_channels=4, in_spatial=(8, 8), hidden1=6, hidden2=5, classes=3,
    dropout_rate=0.5, init_std=0.1,
)


def _zero_head(cfg):
    return MlpconvHead(cfg, {k: np.zeros(s) for k, s in cfg.param_shapes().items()})


def _eval_forward(head, fmap):
    """Eval-mode forward cache of one map, `gap` (1, classes) and `a3` (h*w, classes):
    `_forward` without an rng, whose `gap` is `_gap`'s bit for bit."""
    maps = np.asarray(fmap)[None]
    cache = _forward(head, maps, None)
    assert cache["gap"].tobytes() == _gap(head, maps).tobytes()
    return cache


def _xent(logits, label):
    """Cross-entropy loss and logit gradient of one logit row."""
    losses, dlogits = _softmax_xent_batch(np.asarray(logits)[None], np.array([label]))
    return float(losses[0]), dlogits[0]


def _synthetic_dataset(separation, seed=42, shape=(6, 6, 32)):
    manifest, maps = gen_synthetic(3, 20, shape, separation, seed=seed)

    def arrays(split):
        items = manifest.select(split)
        stacked = np.stack([maps[e.image_id] for e in items]).astype(np.float64)
        labels = np.array([manifest.class_index[e.class_label] for e in items])
        return stacked, labels

    return arrays("train"), arrays("test")


class TestHeadInit:
    def test_gaussian_statistics(self):
        cfg = HeadConfig(in_channels=128, in_spatial=(4, 4), hidden1=100, hidden2=8, classes=3)
        head = head_init(cfg, seed=0)
        w = head.params["W1"].ravel()
        assert w.size >= 1e5
        assert abs(w.mean()) < 3 * 0.01 / math.sqrt(w.size)
        assert abs(w.std() - 0.01) < 0.05 * 0.01

    def test_biases_zero(self):
        head = head_init(SMALL_CFG, seed=1)
        for name in ("b1", "b2", "b3"):
            assert np.all(head.params[name] == 0.0)

    def test_deterministic(self):
        a = head_init(SMALL_CFG, seed=7)
        b = head_init(SMALL_CFG, seed=7)
        for name in a.params:
            assert a.params[name].tobytes() == b.params[name].tobytes()


class TestHeadConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HeadConfig(in_channels=0)
        with pytest.raises(ValueError):
            HeadConfig(dropout_rate=1.0)
        with pytest.raises(ValueError):
            HeadConfig(init_std=0.0)
        with pytest.raises(ValueError):
            HeadConfig(in_spatial=(0, 3))

    @pytest.mark.parametrize(
        ("config", "name", "value", "bad"),
        [
            (HeadConfig, "in_channels", 6.0, 6.0),
            (HeadConfig, "hidden1", True, True),
            (HeadConfig, "hidden2", 4.5, 4.5),
            (HeadConfig, "classes", np.float64(3.0), np.float64(3.0)),
            (HeadConfig, "in_spatial", (6, 6.0), 6.0),
            (HeadConfig, "in_spatial", [False, 6], False),
            (TrainConfig, "batch_size", 50.0, 50.0),
            (TrainConfig, "plateau_patience", True, True),
            (TrainConfig, "max_epochs", 30.0, 30.0),
        ],
    )
    def test_rejects_non_integer_sizes(self, config, name, value, bad):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {bad!r}")):
            config(**{name: value})

    def test_accepts_numpy_integer_sizes(self):
        cfg = HeadConfig(in_channels=np.int64(4), in_spatial=[np.int32(8), 8], hidden1=np.uint8(6),
                         hidden2=5, classes=np.int16(3))
        assert cfg.map_shape == (8, 8, 4)
        assert TrainConfig(batch_size=np.int64(7), max_epochs=np.int32(2)).batch_size == 7

    @pytest.mark.parametrize(
        ("config", "name", "value", "message"),
        [
            (HeadConfig, "init_std", math.nan, "init_std must be finite, got nan"),
            (HeadConfig, "dropout_rate", math.nan, "dropout_rate must be finite, got nan"),
            (TrainConfig, "lr0", math.nan, "lr0 must be finite, got nan"),
            (TrainConfig, "lr0", math.inf, "lr0 must be finite, got inf"),
            (TrainConfig, "momentum", math.nan, "momentum must be finite, got nan"),
            (TrainConfig, "momentum", 1.0, "momentum must lie in [0, 1), got 1.0"),
            (TrainConfig, "momentum", -0.5, "momentum must lie in [0, 1), got -0.5"),
            (TrainConfig, "weight_decay", -1.0, "weight_decay must be >= 0, got -1.0"),
            (TrainConfig, "weight_decay", math.inf, "weight_decay must be finite, got inf"),
            (TrainConfig, "lr_drop", math.nan, "lr_drop must be finite, got nan"),
            (TrainConfig, "min_lr", math.nan, "min_lr must be finite, got nan"),
            (TrainConfig, "min_improvement", math.nan, "min_improvement must be finite, got nan"),
            (TrainConfig, "min_improvement", -1e-3, "min_improvement must be >= 0, got -0.001"),
            (TrainConfig, "lr0", 0.0, "learning rates must be > 0"),
            (TrainConfig, "min_lr", -1e-6, "learning rates must be > 0"),
            (TrainConfig, "batch_size", 0, "batch_size, plateau_patience and max_epochs must be >= 1"),
            (TrainConfig, "plateau_patience", 0,
             "batch_size, plateau_patience and max_epochs must be >= 1"),
            (TrainConfig, "max_epochs", 0, "batch_size, plateau_patience and max_epochs must be >= 1"),
            (TrainConfig, "lr_drop", 1.0, "lr_drop must lie in (0, 1)"),
            (TrainConfig, "lr_drop", 0.0, "lr_drop must lie in (0, 1)"),
        ],
    )
    def test_rejects_bad_floats_naming_the_field(self, config, name, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            config(**{name: value})


class TestHeadForward:
    def test_zero_network_uniform_softmax(self):
        head = _zero_head(SMALL_CFG)
        fmap = np.random.default_rng(0).standard_normal((8, 8, 4))
        cache = _eval_forward(head, fmap)
        np.testing.assert_array_equal(cache["gap"], np.zeros((1, 3)))
        np.testing.assert_array_equal(cache["a3"], np.zeros((8 * 8, 3)))
        loss, dlogits = _xent(cache["gap"][0], 0)
        np.testing.assert_allclose(loss, math.log(3))
        p = dlogits + np.eye(3)[0]
        np.testing.assert_allclose(p, np.full(3, 1 / 3), atol=1e-12)

    def test_constant_class_map_gap(self):
        # zero weights + bias c on the last stage -> every class map constant c
        head = _zero_head(SMALL_CFG)
        head.params["b3"][:] = [2.5, -1.0, 0.0]
        gap = _eval_forward(head, np.zeros((8, 8, 4)))["gap"][0]
        np.testing.assert_allclose(gap, [2.5, -1.0, 0.0], atol=1e-12)

    def test_gap_is_spatial_mean_of_class_maps(self):
        head = head_init(SMALL_CFG, seed=3)
        fmap = np.random.default_rng(3).standard_normal((8, 8, 4))
        cache = _eval_forward(head, fmap)
        class_maps = cache["a3"].reshape(8, 8, 3)
        np.testing.assert_allclose(cache["gap"][0], class_maps.mean(axis=(0, 1)), atol=1e-12)

    def test_matches_naive_convolution_oracle(self):
        cfg = HeadConfig(in_channels=512, in_spatial=(6, 6), hidden1=32, hidden2=24, classes=7)
        head = head_init(cfg, seed=4)
        fmap = np.random.default_rng(4).standard_normal((6, 6, 512))
        gap = _eval_forward(head, fmap)["gap"][0]
        oracle = naive_head_gap(head.params, fmap)
        rel = np.abs(gap - oracle) / np.maximum(np.abs(oracle), 1e-12)
        assert rel.max() < 1e-5

    def test_eval_mode_bit_stable(self):
        head = head_init(SMALL_CFG, seed=5)
        fmap = np.random.default_rng(5).standard_normal((8, 8, 4))
        a = _eval_forward(head, fmap)["gap"]
        b = _eval_forward(head, fmap)["gap"]
        assert a.tobytes() == b.tobytes()

    def test_train_mode_needs_rng(self):
        head = head_init(SMALL_CFG, seed=6)
        with pytest.raises(ValueError, match="rng"):
            _loss_and_grads(head, np.zeros((1, 8, 8, 4)), np.array([0]), rng=None)

    def test_forward_without_rng_has_no_dropout(self, monkeypatch):
        head = head_init(SMALL_CFG, seed=6)  # dropout_rate 0.5
        maps = np.random.default_rng(6).standard_normal((2, 8, 8, 4))
        masks = []
        monkeypatch.setattr(head_module, "_dropout_mask", lambda *a: masks.append(a))
        legacy = np.random.get_state()
        cache = _forward(head, maps, rng=None)
        assert cache["m1"] is None and cache["m2"] is None
        assert masks == []
        assert np.random.get_state()[1].tobytes() == legacy[1].tobytes()
        no_dropout = MlpconvHead(replace(SMALL_CFG, dropout_rate=0.0), head.params)
        assert cache["gap"].tobytes() == _forward(no_dropout, maps, rng=None)["gap"].tobytes()

    def test_shape_mismatch(self):
        head = head_init(SMALL_CFG, seed=6)
        with pytest.raises(ValueError, match="shape"):
            head_feature(head, np.zeros((4, 4, 4)))

    def test_gap_linearity(self):
        rng = np.random.default_rng(7)
        m1 = rng.standard_normal((5, 5, 4))
        m2 = rng.standard_normal((5, 5, 4))
        gap = lambda m: m.mean(axis=(0, 1))
        np.testing.assert_allclose(
            gap(2.0 * m1 - 0.5 * m2), 2.0 * gap(m1) - 0.5 * gap(m2), atol=1e-12
        )


class TestSoftmaxXent:
    def test_uniform_loss(self):
        loss, _ = _xent(np.zeros(30), 11)
        assert round(loss, 4) == 3.4012

    def test_saturated_correct(self):
        logits = np.full(5, -50.0)
        logits[2] = 50.0
        loss, _ = _xent(logits, 2)
        assert loss < 1e-8

    def test_dlogits_sums_to_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            logits = rng.standard_normal(6) * 10
            _, dlogits = _xent(logits, int(rng.integers(6)))
            assert abs(dlogits.sum()) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        logits = rng.standard_normal(7)
        a, _ = _xent(logits, 3)
        b, _ = _xent(logits + 123.456, 3)
        assert abs(a - b) < 1e-9

    def test_label_out_of_range(self):
        head = head_init(SMALL_CFG, seed=10)
        with pytest.raises(ValueError, match="label 3 out of range"):
            head_loss(head, np.zeros((8, 8, 4)), 3, dropout_mask_seed=0)


def gradient_check_fixture():
    """Small head at a generic parameter point: biases nonzero so every kept
    pre-activation sits clear of the ReLU kink within the FD step radius."""
    head = head_init(SMALL_CFG, seed=2)
    brng = np.random.default_rng(1002)
    head.params["b1"][:] = brng.normal(0, 0.3, SMALL_CFG.hidden1)
    head.params["b2"][:] = brng.normal(0, 0.3, SMALL_CFG.hidden2)
    head.params["b3"][:] = brng.normal(0, 0.3, SMALL_CFG.classes)
    fmap = np.random.default_rng(1).standard_normal((8, 8, 4))
    return head, fmap


class TestHeadBackward:
    def test_finite_differences(self):
        head, fmap = gradient_check_fixture()
        grads = head_backward(head, fmap, label=1, dropout_mask_seed=1)
        step = 1e-3
        worst = 0.0
        for name in grads:
            arr = head.params[name]
            flat_grad = grads[name].ravel()
            scale = np.abs(flat_grad).max()
            for i in range(arr.size):
                orig = arr.flat[i]
                arr.flat[i] = orig + step
                up = head_loss(head, fmap, 1, 1)
                arr.flat[i] = orig - step
                down = head_loss(head, fmap, 1, 1)
                arr.flat[i] = orig
                fd = (up - down) / (2 * step)
                denom = max(abs(fd), abs(flat_grad[i]), 1e-6 * scale)
                if denom > 0:
                    worst = max(worst, abs(fd - flat_grad[i]) / denom)
        assert worst < 1e-4

    def test_zero_input_map(self):
        head = head_init(SMALL_CFG, seed=11)
        head.params["b1"][:] = 0.5  # open the first ReLU so bias gradients can flow
        grads = head_backward(head, np.zeros((8, 8, 4)), label=0, dropout_mask_seed=5)
        np.testing.assert_array_equal(grads["W1"], np.zeros_like(head.params["W1"]))
        assert np.abs(grads["b1"]).max() > 0

    def test_b3_gradient_equals_dlogits(self):
        head = head_init(SMALL_CFG, seed=12)
        fmap = np.random.default_rng(12).standard_normal((8, 8, 4))
        grads = head_backward(head, fmap, label=2, dropout_mask_seed=9)
        # recompute the forward pass with the same masks to get the logits
        rng = np.random.default_rng(9)
        cache = _forward(head, fmap[None], rng=rng)
        _, dlogits = _xent(cache["gap"][0], 2)
        np.testing.assert_allclose(grads["b3"], dlogits, atol=1e-12)

    def test_cache_keeps_no_pre_activations(self):
        """The backward masks on d > 0: the cache holds d1 and d2, each the reference's
        bytes, and neither pre-activation a1 nor a2; its dropout masks are the bool
        survivors of the reference's float masks."""
        head = _open_head(SMALL_CFG, seed=13)
        maps = _maps_with_negative_zeros((3, *SMALL_CFG.map_shape), seed=13)
        cache = _forward(head, maps, rng=np.random.default_rng(4))
        ref = _reference_forward(head, maps, True, np.random.default_rng(4))
        assert not {"a1", "a2"} & cache.keys()
        for name in ("d1", "d2", "gap"):
            assert cache[name].tobytes() == ref[name].tobytes()
        for name in ("m1", "m2"):
            assert cache[name].tobytes() == (ref[name] > 0).tobytes()


class TestDropout:
    def test_inverted_dropout_expectation(self):
        rng = np.random.default_rng(13)
        rate = 0.5
        x = rng.standard_normal(32) + 2.0
        trials = 10_000
        acc = np.zeros_like(x)
        for _ in range(trials):
            y = x.copy()
            _apply_dropout(y, _dropout_mask(rng, x.shape, rate), rate)
            acc += y
        mean = acc / trials
        sigma = np.abs(x) * math.sqrt(rate / (1 - rate) / trials)
        assert np.all(np.abs(mean - x) <= 3 * sigma + 1e-12)

    def test_mask_values(self):
        rng = np.random.default_rng(14)
        mask = _dropout_mask(rng, (1000,), 0.5)
        assert mask.dtype == bool
        x = np.ones(1000)
        _apply_dropout(x, mask, 0.5)
        assert set(np.unique(x)) == {0.0, 2.0}

    @pytest.mark.parametrize("rate", [0.1, 0.5, 0.7])
    def test_apply_matches_the_float_mask_product(self, rate):
        """Signed zeros, infs and NaNs come out as from one product with a float mask."""
        rng = np.random.default_rng(15)
        x = rng.standard_normal(4000)
        x[::5], x[1::5], x[2::7], x[3::11] = -0.0, np.inf, -np.inf, np.nan
        keep = _dropout_mask(rng, x.shape, rate)
        y = x.copy()
        with np.errstate(invalid="ignore"):  # inf * 0 is NaN on both sides
            _apply_dropout(y, keep, rate)
            expected = x * (keep / (1.0 - rate))
        assert y.tobytes() == expected.tobytes()


class TestParamCount:
    def test_ldcnn_head(self):
        assert param_count([(3, 3, 512, 4096)]) == 18_878_464
        assert param_count([(1, 1, 4096, 4096)]) == 16_781_312
        assert param_count([(1, 1, 4096, 30)]) == 122_910
        assert param_count(LDCNN_HEAD_LAYERS) == 35_782_686

    def test_vggm_fc_stack(self):
        assert param_count(VGGM_FC_LAYERS) == 96_379_880

    def test_vggm_finetune_stack(self):
        assert param_count(VGGM_FINETUNE_FC_LAYERS) == 92_405_790

    def test_parameter_ratios(self):
        ldcnn = param_count(LDCNN_HEAD_LAYERS)
        assert abs(param_count(VGGM_FC_LAYERS) / ldcnn - 2.69) < 0.01
        assert abs(param_count(VGGM_FINETUNE_FC_LAYERS) / ldcnn - 2.58) < 0.01

    def test_invalid_layers(self):
        with pytest.raises(ValueError):
            param_count([(1, 2, 3)])
        with pytest.raises(ValueError):
            param_count([(0, 5)])


class TestHeadTrain:
    def test_separable_data_reaches_high_accuracy(self):
        train, test = _synthetic_dataset(8.0)
        cfg = HeadConfig(
            in_channels=32, in_spatial=(6, 6), hidden1=32, hidden2=32, classes=3,
            dropout_rate=0.5, init_std=0.1,
        )
        hp = TrainConfig(lr0=0.02, batch_size=16, max_epochs=30)
        _, state = head_train(head_init(cfg, seed=0), train, test, hp, seed=0)
        assert max(r.train_acc for r in state.history) >= 0.95
        assert state.epoch <= 30

    def test_lr_drop_fires_on_plateau(self):
        train, test = _synthetic_dataset(0.0)
        cfg = HeadConfig(
            in_channels=32, in_spatial=(6, 6), hidden1=32, hidden2=32, classes=3,
            dropout_rate=0.5, init_std=0.01,
        )
        hp = TrainConfig(lr0=0.001, batch_size=16, max_epochs=12)
        _, state = head_train(head_init(cfg, seed=0), train, test, hp, seed=0)
        assert state.lr_drops, "expected at least one learning-rate drop"
        first = state.lr_drops[0]
        assert state.history[first - 1].lr == pytest.approx(0.001)
        assert state.history[first].lr == pytest.approx(0.0001)

    def test_full_batch_descent_loss_nonincreasing(self):
        # Convex-ish probe: positive biases keep every ReLU active, so with
        # momentum 0, weight decay 0 and a tiny step the loss must descend.
        rng = np.random.default_rng(15)
        cfg = HeadConfig(
            in_channels=4, in_spatial=(4, 4), hidden1=6, hidden2=6, classes=3,
            dropout_rate=0.0, init_std=0.05,
        )
        head = head_init(cfg, seed=15)
        head.params["b1"][:] = 10.0
        head.params["b2"][:] = 10.0
        maps = rng.standard_normal((12, 4, 4, 4))
        labels = rng.integers(0, 3, size=12)
        hp = TrainConfig(
            lr0=1e-4, momentum=0.0, weight_decay=0.0, batch_size=12, max_epochs=10,
            plateau_patience=5,
        )
        _, state = head_train(head, (maps, labels), (maps, labels), hp, seed=0)
        losses = [r.train_loss for r in state.history]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_deterministic(self):
        train, test = _synthetic_dataset(2.0)
        cfg = HeadConfig(
            in_channels=32, in_spatial=(6, 6), hidden1=8, hidden2=8, classes=3, init_std=0.1
        )
        hp = TrainConfig(lr0=0.01, batch_size=16, max_epochs=3)
        a, sa = head_train(head_init(cfg, seed=1), train, test, hp, seed=3)
        b, sb = head_train(head_init(cfg, seed=1), train, test, hp, seed=3)
        for name in a.params:
            assert a.params[name].tobytes() == b.params[name].tobytes()
        assert sa.history == sb.history

    def test_empty_dataset_rejected(self):
        cfg = SMALL_CFG
        head = head_init(cfg, seed=0)
        empty = (np.zeros((0, 8, 8, 4)), np.zeros(0, dtype=int))
        good = (np.zeros((2, 8, 8, 4)), np.array([0, 1]))
        with pytest.raises(ValueError, match="empty"):
            head_train(head, empty, good)

    def test_bad_labels_rejected(self):
        head = head_init(SMALL_CFG, seed=0)
        data = (np.zeros((2, 8, 8, 4)), np.array([0, 3]))
        with pytest.raises(ValueError, match="labels"):
            head_train(head, data, data)

    def test_maps_and_labels_must_have_one_count(self):
        head = head_init(SMALL_CFG, seed=0)
        good = (np.zeros((2, 8, 8, 4)), np.array([0, 1]))
        with pytest.raises(ValueError, match="maps and labels disagree on sample count"):
            head_train(head, (np.zeros((2, 8, 8, 4)), np.array([0])), good)


class TestHeadFeature:
    def test_dimension_is_class_count(self):
        cfg = HeadConfig(in_channels=8, in_spatial=(3, 3), hidden1=6, hidden2=6, classes=30)
        head = head_init(cfg, seed=16)
        feat = head_feature(head, np.random.default_rng(16).standard_normal((3, 3, 8)))
        assert feat.dim == 30
        assert feat.encoder_tag == "ldcnn"

    def test_eval_determinism(self):
        head = head_init(SMALL_CFG, seed=17)
        fmap = np.random.default_rng(17).standard_normal((8, 8, 4))
        a = head_feature(head, fmap)
        b = head_feature(head, fmap)
        assert a.vector.tobytes() == b.vector.tobytes()

    def test_unit_norm(self):
        head = head_init(SMALL_CFG, seed=18)
        feat = head_feature(head, np.random.default_rng(18).standard_normal((8, 8, 4)))
        assert feat.normalized
        assert abs(np.linalg.norm(feat.vector) - 1.0) < 1e-9


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        train, test = _synthetic_dataset(4.0)
        cfg = HeadConfig(
            in_channels=32, in_spatial=(6, 6), hidden1=8, hidden2=8, classes=3, init_std=0.1
        )
        hp = TrainConfig(lr0=0.01, batch_size=16, max_epochs=2)
        head, state = head_train(head_init(cfg, seed=2), train, test, hp, seed=2)
        save_head(tmp_path / "head", head, state)
        back = load_head(tmp_path / "head")
        sidecar = load_bundle(tmp_path / "head", "head")[1]
        assert back.config == head.config
        for name in head.params:
            np.testing.assert_allclose(back.params[name], head.params[name], atol=1e-5)
        assert len(sidecar["history"]) == 2
        assert sidecar["history"][0]["epoch"] == 1

    def test_numpy_integer_sizes_round_trip(self, tmp_path):
        cfg = HeadConfig(in_channels=np.int64(4), in_spatial=(np.int32(3), 3), hidden1=np.uint8(6),
                         hidden2=5, classes=np.int16(3))
        hp = TrainConfig(batch_size=np.int64(7), plateau_patience=np.int8(2), max_epochs=np.int32(2))
        sizes = [cfg.in_channels, *cfg.in_spatial, cfg.hidden1, cfg.hidden2, cfg.classes,
                 hp.batch_size, hp.plateau_patience, hp.max_epochs]
        assert all(type(v) is int for v in sizes)
        head = head_init(cfg, seed=0)
        save_head(tmp_path / "head", head)
        assert asdict(load_head(tmp_path / "head").config) == asdict(cfg)

    def test_parameters_that_disagree_with_the_config_rejected(self, tmp_path):
        save_head(tmp_path / "head", head_init(SMALL_CFG, seed=0))
        sidecar = tmp_path / "head" / "bundle.json"
        doc = json.loads(sidecar.read_text())
        doc["meta"]["config"]["in_channels"] = 5
        sidecar.write_text(json.dumps(doc))
        message = (f"{sidecar}: field 'meta.config' does not fit the parameters "
                   "(W1 has shape (3, 3, 4, 6), expected (3, 3, 5, 6))")
        with pytest.raises(BundleError, match=re.escape(message)):
            load_head(tmp_path / "head")

    def test_head_needs_every_finite_parameter(self):
        params = head_init(SMALL_CFG, seed=0).params
        missing = {name: arr for name, arr in params.items() if name != "b3"}
        with pytest.raises(ValueError, match=re.escape("params must have exactly keys")):
            MlpconvHead(SMALL_CFG, missing)
        with pytest.raises(ValueError, match="W2 contains non-finite values"):
            MlpconvHead(SMALL_CFG, {**params, "W2": np.full_like(params["W2"], np.nan)})


# ---------------------------------------------------------------------------
# References: the im2col, forward, backward and accuracy pass that the slice-copy
# im2col, the in-place training steps and the chunked cache-free `_gap` replaced.
# The new code must reproduce them byte for byte.


def _reference_im2col3_batch(maps):
    b, h, w, c = maps.shape
    padded = np.pad(maps, ((0, 0), (1, 1), (1, 1), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(1, 2))
    # windows: (B, h, w, c, 3, 3) -> patch layout (di, dj, channel)
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(b * h * w, 9 * c)


def _reference_forward(head, maps, train, rng):
    cfg = head.config
    maps = _check_maps(maps, cfg)
    b = maps.shape[0]
    hw = cfg.in_spatial[0] * cfg.in_spatial[1]
    drop = train and cfg.dropout_rate > 0
    w1 = head.params["W1"].reshape(-1, cfg.hidden1)
    w2 = head.params["W2"].reshape(cfg.hidden1, cfg.hidden2)
    w3 = head.params["W3"].reshape(cfg.hidden2, cfg.classes)
    cols = _reference_im2col3_batch(maps)
    a1 = cols @ w1 + head.params["b1"]
    d1 = np.maximum(a1, 0.0)
    m1 = None
    if drop:
        m1 = _dropout_mask(rng, a1.shape, cfg.dropout_rate) / (1.0 - cfg.dropout_rate)
        d1 = d1 * m1
    a2 = d1 @ w2 + head.params["b2"]
    d2 = np.maximum(a2, 0.0)
    m2 = None
    if drop:
        m2 = _dropout_mask(rng, a2.shape, cfg.dropout_rate) / (1.0 - cfg.dropout_rate)
        d2 = d2 * m2
    a3 = d2 @ w3 + head.params["b3"]
    gap = a3.reshape(b, hw, cfg.classes).mean(axis=1)
    return {"hw": hw, "cols": cols, "a1": a1, "d1": d1, "m1": m1, "a2": a2, "d2": d2, "m2": m2,
            "gap": gap}


def _reference_loss_and_grads(head, maps, labels, rng, buf=None, shifted=None):
    cfg = head.config
    cache = _reference_forward(head, maps, True, rng)
    losses, dlogits = _softmax_xent_batch(cache["gap"], labels)
    hw = cache["hw"]
    w2 = head.params["W2"].reshape(cfg.hidden1, cfg.hidden2)
    w3 = head.params["W3"].reshape(cfg.hidden2, cfg.classes)
    da3 = np.repeat(dlogits / len(labels) / hw, hw, axis=0)
    dd2 = da3 @ w3.T
    if cache["m2"] is not None:
        dd2 = dd2 * cache["m2"]
    da2 = dd2 * (cache["a2"] > 0)
    dd1 = da2 @ w2.T
    if cache["m1"] is not None:
        dd1 = dd1 * cache["m1"]
    da1 = dd1 * (cache["a1"] > 0)
    grads = {
        "W1": (cache["cols"].T @ da1).reshape(head.params["W1"].shape), "b1": da1.sum(axis=0),
        "W2": (cache["d1"].T @ da2).reshape(head.params["W2"].shape), "b2": da2.sum(axis=0),
        "W3": (cache["d2"].T @ da3).reshape(head.params["W3"].shape), "b3": da3.sum(axis=0),
    }
    return float(losses.mean()), grads


def _reference_accuracy(head, maps, labels, chunk=256, buf=None):
    hits = 0
    for lo in range(0, len(labels), chunk):
        cache = _reference_forward(head, maps[lo : lo + chunk], False, None)
        hits += int((cache["gap"].argmax(axis=1) == labels[lo : lo + chunk]).sum())
    return hits / len(labels)


def _maps_with_negative_zeros(shape, seed):
    maps = np.random.default_rng(seed).standard_normal(shape)
    maps[..., ::2] = -0.0
    return maps


def _open_head(cfg, seed):
    """A head at a generic point: nonzero biases, so every stage passes signal."""
    head = head_init(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    for name in ("b1", "b2", "b3"):
        head.params[name][:] = rng.normal(0, 0.3, head.params[name].shape)
    return head


class TestIm2col:
    @pytest.mark.parametrize("shape", [(1, 1, 1, 3), (4, 5, 7, 3), (25, 6, 6, 512)])
    def test_matches_the_pad_and_window_reference(self, shape):
        maps = _maps_with_negative_zeros(shape, seed=sum(shape))
        ours, ref = _im2col3_batch(maps), _reference_im2col3_batch(maps)
        assert ours.shape == ref.shape and ours.dtype == ref.dtype
        assert ours.tobytes() == ref.tobytes()

    def test_reused_buffer_takes_a_smaller_batch(self):
        buf = np.zeros((6, 4, 5, 9, 3))
        _im2col3_batch(_maps_with_negative_zeros((6, 4, 5, 3), seed=1), buf)
        small = _maps_with_negative_zeros((2, 4, 5, 3), seed=2)
        cols = _im2col3_batch(small, buf)
        assert np.shares_memory(cols, buf)
        assert cols.tobytes() == _reference_im2col3_batch(small).tobytes()


# pool5-like maps at the benchmark's hidden width: 9c is the widest activation
POOL5_CFG = HeadConfig(in_channels=512, in_spatial=(6, 6), hidden1=64, hidden2=64, classes=21)

CHUNK_CONFIGS = [
    POOL5_CFG,
    # hidden1 is the widest activation, on non-square maps
    HeadConfig(in_channels=2, in_spatial=(4, 3), hidden1=24, hidden2=7, classes=4),
]


class TestEvalForward:
    @pytest.mark.parametrize("per_chunk", [1, 3, 5, 11])
    @pytest.mark.parametrize("cfg", CHUNK_CONFIGS, ids=["9c-widest", "hidden1-widest"])
    def test_gap_bytes_do_not_depend_on_the_chunk(self, monkeypatch, cfg, per_chunk):
        """11 maps go in the fewest near-equal chunks of at most `per_chunk`, the larger first:
        at 5 per chunk that is 4, 4, 3, not 5, 5, 1."""
        head = _open_head(cfg, seed=per_chunk)
        maps = _maps_with_negative_zeros((11, *cfg.map_shape), seed=per_chunk)
        expected = _reference_forward(head, maps, False, None)["gap"]  # all 11 maps in one GEMM
        hw = cfg.in_spatial[0] * cfg.in_spatial[1]
        widest = max(9 * cfg.in_channels, cfg.hidden1, cfg.hidden2)
        monkeypatch.setattr(head_module, "TILE_BYTES", per_chunk * 8 * hw * widest)
        sizes = []
        im2col = head_module._im2col3_batch
        monkeypatch.setattr(head_module, "_im2col3_batch",
                            lambda maps, buf=None: sizes.append(len(maps)) or im2col(maps, buf))
        assert _gap(head, maps).tobytes() == expected.tobytes()
        assert sizes == {1: [1] * 11, 3: [3, 3, 3, 2], 5: [4, 4, 3], 11: [11]}[per_chunk]

    @pytest.mark.parametrize(
        ("n_train", "batch_size", "per_chunk"),
        [(20, 7, 3), (5, 16, None)],
        ids=["batch-does-not-divide-n", "n-below-batch"],
    )
    def test_train_and_feature_bytes_match_the_reference(self, monkeypatch, n_train, batch_size,
                                                         per_chunk):
        cfg = HeadConfig(in_channels=6, in_spatial=(5, 4), hidden1=12, hidden2=9, classes=3,
                         dropout_rate=0.5, init_std=0.1)
        rng = np.random.default_rng(n_train)
        maps = _maps_with_negative_zeros((n_train + 4, *cfg.map_shape), seed=n_train)
        labels = rng.integers(0, 3, size=n_train + 4)
        train, test = (maps[:n_train], labels[:n_train]), (maps[n_train:], labels[n_train:])
        hp = TrainConfig(lr0=0.05, batch_size=batch_size, max_epochs=4, plateau_patience=1)
        init = _open_head(cfg, seed=n_train)
        if per_chunk:
            monkeypatch.setattr(head_module, "TILE_BYTES", per_chunk * 8 * 20 * 9 * 6)
        head, state = head_train(init, train, test, hp, seed=5)
        with monkeypatch.context() as patched:
            patched.setattr(head_module, "_loss_and_grads", _reference_loss_and_grads)
            patched.setattr(head_module, "_accuracy", _reference_accuracy)
            ref_head, ref_state = head_train(init, train, test, hp, seed=5)
        for name in head.params:
            assert head.params[name].tobytes() == ref_head.params[name].tobytes()
        assert state.history == ref_state.history
        assert state.lr_drops == ref_state.lr_drops
        for fmap in maps:
            ref_vec, _ = l2_normalize(_reference_forward(head, fmap[None], False, None)["gap"][0])
            assert head_feature(head, fmap).vector.tobytes() == ref_vec.tobytes()

    def test_accuracy_peak_does_not_grow_with_the_map_count(self):
        # 8 MiB holds 6 of these maps' patch rows: 12 maps already take two full chunks.
        cfg = HeadConfig(in_channels=512, in_spatial=(6, 6), hidden1=8, hidden2=8, classes=3)
        head = head_init(cfg, seed=0)
        maps = np.random.default_rng(0).standard_normal((64, *cfg.map_shape))
        labels = np.arange(64) % 3

        def peak(n):
            tracemalloc.start()
            try:
                _accuracy(head, maps[:n], labels[:n])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(12), peak(64)
        assert large - small < 64 << 10, (small, large)


class TestChunkedStep:
    """A training step takes its patch rows in near-equal chunks of at most one buffer of
    maps and W1's gradient one 3x3 offset at a time; the full-batch reference builds the
    whole patch matrix."""

    @pytest.mark.parametrize(
        ("cfg", "batch", "chunks"),
        [
            # 8 MiB holds 6 maps' patch rows at c=512: 25 maps take 5 chunks of 5, not 6,6,6,6,1
            (POOL5_CFG, 25, [5, 5, 5, 5, 5]),
            (POOL5_CFG, 13, [5, 4, 4]),
            (POOL5_CFG, 4, [4]),
            # one chunk: its W1 gradient stays one GEMM, as nine would each be small
            # enough (32 x 8 x 1800) for OpenBLAS's small-matrix kernel on AVX-512
            (replace(POOL5_CFG, in_channels=32, hidden1=8, hidden2=8, classes=3), 50, [50]),
        ],
        ids=["even-chunks", "short-last-chunk", "batch-below-chunk", "small-products-one-chunk"],
    )
    def test_step_bytes_match_the_full_batch_reference(self, monkeypatch, cfg, batch, chunks):
        head = _open_head(cfg, seed=batch)
        maps = _maps_with_negative_zeros((batch, *cfg.map_shape), seed=batch)
        labels = np.random.default_rng(batch).integers(0, cfg.classes, size=batch)
        buf = head_module._patch_buffer(cfg, 50)
        sizes = []
        im2col = head_module._im2col3_batch
        monkeypatch.setattr(head_module, "_im2col3_batch",
                            lambda maps, buf=None: sizes.append(len(maps)) or im2col(maps, buf))
        loss, grads = _loss_and_grads(head, maps, labels, np.random.default_rng(7), buf)
        ref_loss, ref_grads = _reference_loss_and_grads(head, maps, labels, np.random.default_rng(7))
        assert sizes == chunks
        assert loss == ref_loss
        for name in ref_grads:
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name

    def test_reused_shifted_buffer_keeps_the_bytes(self):
        # head_train hands every step one copy buffer sized to the batch; a smaller
        # last batch takes its leading rows, and no value left in it reaches a gradient
        batch = 13
        head = _open_head(POOL5_CFG, seed=batch)
        maps = _maps_with_negative_zeros((batch, *POOL5_CFG.map_shape), seed=batch)
        labels = np.random.default_rng(batch).integers(0, POOL5_CFG.classes, size=batch)
        buf = head_module._patch_buffer(POOL5_CFG, 50)
        shifted = np.full((batch + 2, *POOL5_CFG.map_shape), np.nan)
        _, grads = _loss_and_grads(head, maps, labels, np.random.default_rng(7), buf, shifted)
        _, ref_grads = _reference_loss_and_grads(head, maps, labels, np.random.default_rng(7))
        assert not np.isnan(shifted[:batch]).any() and np.isnan(shifted[batch:]).all()
        for name in ref_grads:
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name

    def test_train_peak_stays_below_one_batch_patch_matrix(self):
        cfg = replace(POOL5_CFG, hidden1=8, hidden2=8, classes=3)
        rng = np.random.default_rng(0)
        maps = rng.standard_normal((60, *cfg.map_shape))
        labels = np.arange(60) % 3
        hp = TrainConfig(batch_size=25, max_epochs=1)
        head = head_init(cfg, seed=0)
        patch_matrix = 25 * 36 * 9 * 512 * 8  # one batch's patch rows, 33.2 MB
        tracemalloc.start()
        try:
            head_train(head, (maps[:50], labels[:50]), (maps[50:], labels[50:]), hp, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < patch_matrix, (peak, patch_matrix)
