"""Trainable retrieval head: mlpconv stack + global average pooling + softmax.

The head sits on top of frozen backbone feature maps consumed from files. It
is a three-stage shared perceptron applied at every spatial site — one 3x3
convolution (padding 1, stride 1) followed by two 1x1 convolutions — whose
final stage emits one map per class. Global average pooling turns those class
maps into the logits; the same pooled vector, L2-normalized, is the retrieval
feature.

Everything here is plain numpy: forward, exact backprop, and minibatch SGD
with momentum, weight decay and a plateau-triggered learning-rate drop.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .encoders import EncodedFeature, l2_normalize
from .retrieval import TILE_BYTES
from .tensor_store import BundleError, load_bundle, save_bundle

PARAM_NAMES = ("W1", "b1", "W2", "b2", "W3", "b3")


def _check_finite(config, names) -> None:
    for name in names:
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _check_ints(config, names) -> None:
    """Sizes (each entry, for a tuple) are Python or numpy integers, never bools or floats."""
    for name in names:
        value = getattr(config, name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {v!r}")


@dataclass(frozen=True)
class HeadConfig:
    in_channels: int = 512
    in_spatial: tuple[int, int] = (6, 6)
    hidden1: int = 4096
    hidden2: int = 4096
    classes: int = 30
    dropout_rate: float = 0.5
    init_std: float = 0.01

    def __post_init__(self):
        _check_finite(self, ("dropout_rate", "init_std"))
        object.__setattr__(self, "in_spatial", tuple(self.in_spatial))
        _check_ints(self, ("in_channels", "in_spatial", "hidden1", "hidden2", "classes"))
        for name in ("in_channels", "hidden1", "hidden2", "classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if len(self.in_spatial) != 2 or any(s < 1 for s in self.in_spatial):
            raise ValueError(f"in_spatial must be [h, w] with positive dims, got {self.in_spatial}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if self.init_std <= 0:
            raise ValueError("init_std must be > 0")

    @property
    def map_shape(self) -> tuple[int, int, int]:
        """The (h, w, c) of every feature map the head reads."""
        return (*self.in_spatial, self.in_channels)

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        return {
            "W1": (3, 3, self.in_channels, self.hidden1),
            "b1": (self.hidden1,),
            "W2": (1, 1, self.hidden1, self.hidden2),
            "b2": (self.hidden2,),
            "W3": (1, 1, self.hidden2, self.classes),
            "b3": (self.classes,),
        }


class MlpconvHead:
    """Parameter container; all math lives in the module-level functions."""

    def __init__(self, config: HeadConfig, params: dict[str, np.ndarray]):
        shapes = config.param_shapes()
        if set(params) != set(PARAM_NAMES):
            raise ValueError(f"params must have exactly keys {PARAM_NAMES}")
        for name, arr in params.items():
            if arr.shape != shapes[name]:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shapes[name]}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
        self.config = config
        self.params = {name: np.asarray(params[name], dtype=np.float64) for name in PARAM_NAMES}

    def copy(self) -> "MlpconvHead":
        return MlpconvHead(self.config, {k: v.copy() for k, v in self.params.items()})


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 50
    plateau_patience: int = 5
    lr_drop: float = 0.1
    min_lr: float = 1e-6
    max_epochs: int = 30
    min_improvement: float = 1e-3

    def __post_init__(self):
        _check_finite(self, ("lr0", "momentum", "weight_decay", "lr_drop", "min_lr", "min_improvement"))
        _check_ints(self, ("batch_size", "plateau_patience", "max_epochs"))
        if self.lr0 <= 0 or self.min_lr <= 0:
            raise ValueError("learning rates must be > 0")
        if self.batch_size < 1 or self.plateau_patience < 1 or self.max_epochs < 1:
            raise ValueError("batch_size, plateau_patience and max_epochs must be >= 1")
        if not 0.0 < self.lr_drop < 1.0:
            raise ValueError("lr_drop must lie in (0, 1)")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        for name in ("weight_decay", "min_improvement"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    train_acc: float
    test_acc: float


@dataclass
class TrainState:
    epoch: int
    learning_rate: float
    velocities: dict[str, np.ndarray]
    seed: int
    history: list[EpochRecord] = field(default_factory=list)
    lr_drops: list[int] = field(default_factory=list)


def head_init(config: HeadConfig, seed: int = 0) -> MlpconvHead:
    """Gaussian(0, init_std) weights, zero biases; deterministic given seed."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in config.param_shapes().items():
        if name.startswith("W"):
            params[name] = rng.normal(0.0, config.init_std, shape)
        else:
            params[name] = np.zeros(shape)
    return MlpconvHead(config, params)


def _im2col3_batch(maps: np.ndarray, buf: np.ndarray | None = None) -> np.ndarray:
    """(B, h, w, c) -> (B*h*w, 9c) patch matrix for a 3x3 pad-1 convolution.

    Patch layout (di, dj, channel), one slice copy per offset into a zeroed
    (B, h, w, 9, c) buffer. A reused `buf` (B or more rows) keeps its zero border:
    every call writes the same interior slices.
    """
    b, h, w, c = maps.shape
    if buf is None:
        buf = np.zeros((b, h, w, 9, c))
    patches = buf[:b]

    def spans(d, n):
        """At offset d, output sites [lo, hi) read map sites [lo + d - 1, hi + d - 1)."""
        return slice(max(0, 1 - d), min(n, n + 1 - d)), slice(max(0, d - 1), min(n, n + d - 1))

    for di in range(3):
        out_i, in_i = spans(di, h)
        for dj in range(3):
            out_j, in_j = spans(dj, w)
            patches[:, out_i, out_j, 3 * di + dj] = maps[:, in_i, in_j]
    return patches.reshape(b * h * w, 9 * c)


def _dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Inverted-dropout mask with values in {0, 1/(1-rate)}."""
    return (rng.random(shape) >= rate) / (1.0 - rate)


def _check_maps(maps: np.ndarray, config: HeadConfig) -> np.ndarray:
    maps = np.asarray(maps, dtype=np.float64)
    expected = config.map_shape
    if maps.ndim != 4 or maps.shape[1:] != expected:
        raise ValueError(f"feature maps must have shape (B, {expected[0]}, {expected[1]}, {expected[2]})")
    return maps


def _forward(head: MlpconvHead, maps: np.ndarray, rng=None, buf: np.ndarray | None = None) -> dict:
    """The one forward pass. With an `rng`, dropout masks are drawn from it (training);
    without one there is no dropout (eval). Every activation is kept for backprop."""
    cfg = head.config
    maps = _check_maps(maps, cfg)
    hw = cfg.in_spatial[0] * cfg.in_spatial[1]
    drop = rng is not None and cfg.dropout_rate > 0
    w1 = head.params["W1"].reshape(-1, cfg.hidden1)
    w2 = head.params["W2"].reshape(cfg.hidden1, cfg.hidden2)
    w3 = head.params["W3"].reshape(cfg.hidden2, cfg.classes)
    cols = _im2col3_batch(maps, buf)
    a1 = cols @ w1
    a1 += head.params["b1"]
    d1 = np.maximum(a1, 0.0, out=a1)  # the backward masks on d1 > 0, so a1 is not kept
    m1 = None
    if drop:
        m1 = _dropout_mask(rng, a1.shape, cfg.dropout_rate)
        d1 *= m1
    a2 = d1 @ w2
    a2 += head.params["b2"]
    d2 = np.maximum(a2, 0.0, out=a2)
    m2 = None
    if drop:
        m2 = _dropout_mask(rng, a2.shape, cfg.dropout_rate)
        d2 *= m2
    a3 = d2 @ w3
    a3 += head.params["b3"]
    gap = a3.reshape(len(maps), hw, cfg.classes).mean(axis=1)
    return {"hw": hw, "cols": cols, "d1": d1, "m1": m1, "d2": d2, "m2": m2, "a3": a3, "gap": gap}


def _gap(head: MlpconvHead, maps: np.ndarray) -> np.ndarray:
    """Eval-mode GAP matrix (N, classes): `_forward` without an rng, chunk by chunk.

    Maps go through in chunks whose widest activation, hw * max(9c, hidden1, hidden2)
    float64 values per map, fits TILE_BYTES; every chunk reuses one im2col buffer. A
    GEMM row depends on its own map alone, so the chunk size changes no bit of the result.
    """
    cfg = head.config
    maps = _check_maps(maps, cfg)
    n = maps.shape[0]
    hw = cfg.in_spatial[0] * cfg.in_spatial[1]
    chunk = max(1, TILE_BYTES // (8 * hw * max(9 * cfg.in_channels, cfg.hidden1, cfg.hidden2)))
    buf = np.zeros((min(chunk, n), *cfg.in_spatial, 9, cfg.in_channels))
    gap = np.empty((n, cfg.classes))
    for lo in range(0, n, chunk):
        gap[lo : lo + chunk] = _forward(head, maps[lo : lo + chunk], None, buf)["gap"]
    return gap


def _grads_from_cache(head: MlpconvHead, cache: dict, dgap: np.ndarray) -> dict[str, np.ndarray]:
    cfg = head.config
    hw = cache["hw"]
    w2 = head.params["W2"].reshape(cfg.hidden1, cfg.hidden2)
    w3 = head.params["W3"].reshape(cfg.hidden2, cfg.classes)
    da3 = np.repeat(dgap / hw, hw, axis=0)  # GAP spreads each class gradient over sites
    g_w3 = cache["d2"].T @ da3
    g_b3 = da3.sum(axis=0)
    da2 = da3 @ w3.T
    if cache["m2"] is not None:
        da2 *= cache["m2"]
    da2 *= cache["d2"] > 0  # a unit dropout zeroed is already 0 here, and the scale is >= 1
    g_w2 = cache["d1"].T @ da2
    g_b2 = da2.sum(axis=0)
    da1 = da2 @ w2.T
    if cache["m1"] is not None:
        da1 *= cache["m1"]
    da1 *= cache["d1"] > 0
    g_w1 = cache["cols"].T @ da1
    g_b1 = da1.sum(axis=0)
    return {
        "W1": g_w1.reshape(head.params["W1"].shape), "b1": g_b1,
        "W2": g_w2.reshape(head.params["W2"].shape), "b2": g_b2,
        "W3": g_w3.reshape(head.params["W3"].shape), "b3": g_b3,
    }


def _softmax_xent_batch(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = logits.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    logp = logits - lse
    rows = np.arange(len(labels))
    losses = -logp[rows, labels]
    dlogits = np.exp(logp)
    dlogits[rows, labels] -= 1.0
    return losses, dlogits


def _loss_and_grads(head, maps, labels, rng, buf=None) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch plus exact parameter gradients."""
    if rng is None and head.config.dropout_rate > 0:
        raise ValueError("training with dropout needs an rng")
    cache = _forward(head, maps, rng, buf)
    losses, dlogits = _softmax_xent_batch(cache["gap"], labels)
    grads = _grads_from_cache(head, cache, dlogits / len(labels))
    return float(losses.mean()), grads


def head_backward(head: MlpconvHead, feature_map, label: int, dropout_mask_seed: int) -> dict[str, np.ndarray]:
    """Exact loss gradients for one sample with dropout masks fixed by seed."""
    _, grads = _train_sample(head, feature_map, label, dropout_mask_seed)
    return grads


def head_loss(head: MlpconvHead, feature_map, label: int, dropout_mask_seed: int) -> float:
    """Train-mode loss with the same masks head_backward(seed) samples."""
    loss, _ = _train_sample(head, feature_map, label, dropout_mask_seed)
    return loss


def _train_sample(head, feature_map, label, dropout_mask_seed):
    fmap = np.asarray(feature_map, dtype=np.float64)
    if not 0 <= label < head.config.classes:
        raise ValueError(f"label {label} out of range for {head.config.classes} classes")
    rng = np.random.default_rng(dropout_mask_seed)
    return _loss_and_grads(head, fmap[None], np.array([label]), rng)


def _accuracy(head: MlpconvHead, maps: np.ndarray, labels: np.ndarray) -> float:
    return int((_gap(head, maps).argmax(axis=1) == labels).sum()) / len(labels)


def _check_dataset(data, config: HeadConfig) -> tuple[np.ndarray, np.ndarray]:
    maps, labels = data
    maps = _check_maps(np.asarray(maps, dtype=np.float64), config)
    labels = np.asarray(labels)
    if maps.shape[0] == 0:
        raise ValueError("empty dataset")
    if maps.shape[0] != labels.shape[0]:
        raise ValueError("maps and labels disagree on sample count")
    if labels.min() < 0 or labels.max() >= config.classes:
        raise ValueError(f"labels must lie in [0, {config.classes})")
    return maps, labels.astype(np.int64)


def head_train(
    head: MlpconvHead,
    train: tuple[np.ndarray, np.ndarray],
    test: tuple[np.ndarray, np.ndarray],
    hp: TrainConfig | None = None,
    seed: int = 0,
) -> tuple[MlpconvHead, TrainState]:
    """Minibatch SGD with momentum and weight decay.

    After each epoch the train accuracy is recorded (eval mode); when the best
    value has not improved by more than `min_improvement` for
    `plateau_patience` epochs, the learning rate drops by `lr_drop`. Training
    stops when the rate falls below `min_lr` or `max_epochs` is reached.
    Deterministic given seeds (shuffling and dropout are re-seeded per epoch).
    """
    hp = hp or TrainConfig()
    maps_tr, y_tr = _check_dataset(train, head.config)
    maps_te, y_te = _check_dataset(test, head.config)
    head = head.copy()
    state = TrainState(
        epoch=0,
        learning_rate=hp.lr0,
        velocities={name: np.zeros_like(arr) for name, arr in head.params.items()},
        seed=seed,
    )
    best_acc = -np.inf
    stall = 0
    n = len(y_tr)
    buf = np.zeros((min(hp.batch_size, n), *head.config.in_spatial, 9, head.config.in_channels))
    for epoch in range(1, hp.max_epochs + 1):
        rng = np.random.default_rng([seed, epoch])
        perm = rng.permutation(n)
        losses = []
        for lo in range(0, n, hp.batch_size):
            idx = perm[lo : lo + hp.batch_size]
            loss, grads = _loss_and_grads(head, maps_tr[idx], y_tr[idx], rng, buf)
            losses.append(loss)
            for name, grad in grads.items():
                vel = state.velocities[name]
                vel *= hp.momentum
                vel -= state.learning_rate * (grad + hp.weight_decay * head.params[name])
                head.params[name] += vel
        train_acc = _accuracy(head, maps_tr, y_tr)
        test_acc = _accuracy(head, maps_te, y_te)
        state.history.append(
            EpochRecord(epoch, state.learning_rate, float(np.mean(losses)), train_acc, test_acc)
        )
        state.epoch = epoch
        if train_acc > best_acc + hp.min_improvement:
            best_acc = train_acc
            stall = 0
        else:
            stall += 1
        if stall >= hp.plateau_patience:
            state.learning_rate *= hp.lr_drop
            state.lr_drops.append(epoch)
            stall = 0
            if state.learning_rate < hp.min_lr:
                break
    return head, state


def head_feature(head: MlpconvHead, feature_map) -> EncodedFeature:
    """Eval-mode GAP vector (pre-softmax), L2-normalized; dimension = classes."""
    fmap = np.asarray(feature_map, dtype=np.float64)
    vec, normalized = l2_normalize(_gap(head, fmap[None])[0])
    return EncodedFeature(vec, "ldcnn", normalized)


# ---------------------------------------------------------------------------
# Parameter accounting. A layer is (in, out) for fully-connected stages or
# (kh, kw, in_channels, out_channels) for convolutions; each contributes its
# weight count plus one bias per output.

LDCNN_HEAD_LAYERS = ((3, 3, 512, 4096), (1, 1, 4096, 4096), (1, 1, 4096, 30))
VGGM_FC_LAYERS = ((18432, 4096), (4096, 4096), (4096, 1000))
VGGM_FINETUNE_FC_LAYERS = ((18432, 4096), (4096, 4096), (4096, 30))


def param_count(layers) -> int:
    """Exact weights + biases count for a stack of conv / fully-connected layers."""
    total = 0
    for layer in layers:
        t = tuple(int(x) for x in layer)
        if any(x < 1 for x in t):
            raise ValueError(f"layer sizes must be >= 1, got {layer}")
        if len(t) == 2:
            din, dout = t
            total += din * dout + dout
        elif len(t) == 4:
            kh, kw, cin, cout = t
            total += kh * kw * cin * cout + cout
        else:
            raise ValueError(f"layer must be (in, out) or (kh, kw, cin, cout), got {layer}")
    return total


# ---------------------------------------------------------------------------
# Checkpoints: a "head" bundle, one tensor per parameter; meta holds the
# config and the training history.


def save_head(out_dir: str | Path, head: MlpconvHead, state: TrainState | None = None) -> None:
    meta = {
        "config": asdict(head.config),
        "history": [asdict(r) for r in (state.history if state else [])],
        "lr_drops": list(state.lr_drops) if state else [],
        "seed": state.seed if state else None,
    }
    save_bundle(out_dir, "head", head.params, meta)


def load_head(model_dir: str | Path) -> MlpconvHead:
    """Load a checkpoint's head; its training history stays in the bundle's meta."""
    tensors, meta = load_bundle(model_dir, "head")
    params = {name: tensors[name] for name in PARAM_NAMES}
    config = meta["config"]
    try:
        head = MlpconvHead(HeadConfig(**config), params)
    except (TypeError, ValueError) as exc:
        raise BundleError(
            f"{meta.sidecar}: field 'meta.config' does not fit the parameters ({exc})"
        ) from None
    return head
