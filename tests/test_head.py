import math

import numpy as np
import pytest

from hrrs.head import (
    LDCNN_HEAD_LAYERS,
    VGGM_FC_LAYERS,
    VGGM_FINETUNE_FC_LAYERS,
    HeadConfig,
    MlpconvHead,
    TrainConfig,
    _dropout_mask,
    _forward,
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
from hrrs.tensor_store import gen_synthetic, load_bundle

from oracles import naive_head_gap

SMALL_CFG = HeadConfig(
    in_channels=4, in_spatial=(8, 8), hidden1=6, hidden2=5, classes=3,
    dropout_rate=0.5, init_std=0.1,
)


def _zero_head(cfg):
    return MlpconvHead(cfg, {k: np.zeros(s) for k, s in cfg.param_shapes().items()})


def _eval_forward(head, fmap):
    """Eval-mode forward cache of one map: `gap` (1, classes), `a3` (h*w, classes)."""
    return _forward(head, np.asarray(fmap)[None], train=False, rng=None)


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
            _forward(head, np.zeros((1, 8, 8, 4)), train=True, rng=None)

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
        cache = _forward(head, fmap[None], train=True, rng=rng)
        _, dlogits = _xent(cache["gap"][0], 2)
        np.testing.assert_allclose(grads["b3"], dlogits, atol=1e-12)


class TestDropout:
    def test_inverted_dropout_expectation(self):
        rng = np.random.default_rng(13)
        rate = 0.5
        x = rng.standard_normal(32) + 2.0
        trials = 10_000
        acc = np.zeros_like(x)
        for _ in range(trials):
            acc += x * _dropout_mask(rng, x.shape, rate)
        mean = acc / trials
        sigma = np.abs(x) * math.sqrt(rate / (1 - rate) / trials)
        assert np.all(np.abs(mean - x) <= 3 * sigma + 1e-12)

    def test_mask_values(self):
        rng = np.random.default_rng(14)
        mask = _dropout_mask(rng, (1000,), 0.5)
        assert set(np.unique(mask)) == {0.0, 2.0}


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
