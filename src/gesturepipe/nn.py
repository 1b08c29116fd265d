"""Sequence classifier trained from scratch on numpy arrays.

Architecture, applied to a window of per-frame feature vectors:

    Linear(N -> 2048) + ReLU, applied per frame
    Linear(2048 -> 1024) + ReLU, applied per frame
    GRU(1024 -> 256), final hidden state summarizes the window
    Linear(256 -> 128) + ReLU
    Linear(128 -> M) producing raw logits

The GRU is three tensors, ``wg`` (3g x 1024), ``ug`` (3g x g) and ``bg``
(3g) with g = 256, each stacking the update (z), reset (r) and candidate (c)
gate blocks in that order.

The forward has two halves: ``forward_frames`` (dense1, dense2 and the GRU
input projection, each frame on its own) and ``forward_recurrent`` (the GRU
time loop and the head). The per-frame half runs each layer as one matrix
product over all B·T rows. Training, ``predict_batch`` and ``forward``
compose the halves; a stream keeps each frame's gate inputs between
evaluations (``recognizer.WindowState``).

Everything runs in float64: exact gradient checking matters more than speed
at this scale. The weights and a gradient are each one flat vector with named
views per tensor; ``train`` owns Adam's two moments, as one (2, n) array, and
its step number, and ``adam_step`` updates weights and moments in place.
Gradients come from full backpropagation through time (no truncation); the
optimizer is Adam with bias correction. All functions are deterministic given
the seeds, and batch gradients are plain sums over the batch, so duplicating a
sample exactly doubles its gradient.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (
    EmptyDataset,
    EncodingMismatch,
    InconsistentShapes,
    IoError,
    LabelOutOfRange,
    MalformedJson,
    NonFiniteGradient,
    ShapeMismatch,
)
from .features import Encoding

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 32768  # adam_step's block: w, m, v, g and two scratch rows of 256 KB fit a 2 MB L2
PREDICT_CHUNK = 16  # windows per forward in predict_batch, which bounds the memory in flight

WEIGHT_FORMAT = "gesturepipe-weights"
WEIGHT_VERSION = 2


@dataclass(frozen=True)
class ModelConfig:
    """Layer sizes and the init seed.

    Defaults are the production architecture; tests shrink every dimension.
    """

    input_dim: int
    output_dim: int = 8
    hidden_dims: tuple[int, int] = (2048, 1024)
    gru_hidden: int = 256
    head_dims: tuple[int, ...] = (128,)
    seed: int = 0

    def __post_init__(self):
        for name in ("input_dim", "output_dim", "gru_hidden", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be positive")
        if len(self.hidden_dims) != 2 or len(self.head_dims) != 1:
            raise ValueError("architecture is fixed at two dense layers, a GRU, and a two-layer head")
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        object.__setattr__(self, "head_dims", tuple(int(d) for d in self.head_dims))
        if min(*self.hidden_dims, self.gru_hidden, *self.head_dims) < 1:
            raise ValueError("hidden_dims, gru_hidden and head_dims must be positive")


@dataclass
class ModelParams:
    """What a weight file holds: the config and the weights. ``weights`` is one flat vector in
    ``_tensor_specs`` order and ``tensors`` names views of it; ``adam_step`` updates it in place."""

    config: ModelConfig
    weights: np.ndarray

    def __post_init__(self):
        self.tensors = _views(self.config, self.weights)


def _tensor_specs(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) for every parameter tensor, in weight-file order."""
    n = config.input_dim
    h1, h2 = config.hidden_dims
    g = config.gru_hidden
    hd = config.head_dims[0]
    m = config.output_dim
    return [
        ("w1", (h1, n)),
        ("b1", (h1,)),
        ("w2", (h2, h1)),
        ("b2", (h2,)),
        ("wg", (3 * g, h2)),
        ("ug", (3 * g, g)),
        ("bg", (3 * g,)),
        ("w3", (hd, g)),
        ("b3", (hd,)),
        ("w4", (m, hd)),
        ("b4", (m,)),
    ]


def _weight_count(config: ModelConfig) -> int:
    return sum(math.prod(shape) for _, shape in _tensor_specs(config))


def _tensor_index(config: ModelConfig) -> list[dict]:
    return [{"name": name, "shape": list(shape)} for name, shape in _tensor_specs(config)]


def _views(config: ModelConfig, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Named views of ``flat``, a vector laid out in ``_tensor_specs`` order."""
    views, start = {}, 0
    for name, shape in _tensor_specs(config):
        stop = start + math.prod(shape)
        views[name], start = flat[start:stop].reshape(shape), stop
    return views


def init_params(config: ModelConfig) -> ModelParams:
    """Initialize every tensor uniformly in +-1/sqrt(fan_in) from the config seed.

    The GRU is drawn gate by gate (z, r, c), each gate's w, u and b in turn,
    into its rows of wg, ug and bg: the draw order of weight format v1, so a
    seed still gives the same model.
    """
    rng = np.random.default_rng(config.seed)

    def draw(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    params = ModelParams(config, np.zeros(_weight_count(config)))
    t = params.tensors
    n, (h1, h2), g, hd = config.input_dim, config.hidden_dims, config.gru_hidden, config.head_dims[0]
    for name, fan_in in (("w1", n), ("b1", n), ("w2", h1), ("b2", h1)):
        t[name][...] = draw(t[name].shape, fan_in)
    for k in range(3):
        rows = slice(k * g, (k + 1) * g)
        t["wg"][rows], t["ug"][rows], t["bg"][rows] = draw((g, h2), g), draw((g, g), g), draw((g,), g)
    for name, fan_in in (("w3", g), ("b3", g), ("w4", hd), ("b4", hd)):
        t[name][...] = draw(t[name].shape, fan_in)
    return params


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def _dense(x: np.ndarray, w: np.ndarray, b: np.ndarray, relu: bool) -> np.ndarray:
    """``x @ w.T + b``, then ReLU if asked, with bias and ReLU applied in place on the product."""
    h = x @ w.T
    h += b
    return np.maximum(h, 0.0, out=h) if relu else h


def forward_frames(params: ModelParams, x: np.ndarray, need_cache: bool = False):
    """The per-frame half: dense1, dense2 and the GRU input projection map
    (..., T, N) rows to (..., T, 3g) gate inputs, each row from its own row
    alone, each layer one product over all B·T rows. Returns (gate inputs,
    cache); the cache is (h1, h2), each (B·T, width)."""
    t = params.tensors
    h1 = _dense(x.reshape(-1, x.shape[-1]), t["w1"], t["b1"], relu=True)
    h2 = _dense(h1, t["w2"], t["b2"], relu=True)
    if not need_cache:
        h1 = None  # free it before the gate projection is allocated
    xg = _dense(h2, t["wg"], t["bg"], relu=False)
    return xg.reshape(*x.shape[:-1], -1), ((h1, h2) if need_cache else None)


def forward_recurrent(params: ModelParams, xg: np.ndarray, need_cache: bool = False):
    """The recurrent half: the GRU time loop and the head map (B, T, 3g) gate
    inputs to (B, M) logits. Returns (logits, cache); the cache is (gates, hs, h3)."""
    t = params.tensors
    batch, steps, _ = xg.shape
    g = params.config.gru_hidden
    u_zr, u_c = t["ug"][: 2 * g], t["ug"][2 * g :]
    h = np.zeros((batch, g))
    gates = hs = None
    if need_cache:
        gates = np.empty((batch, steps, 3 * g))
        hs = np.empty((batch, steps + 1, g))
        hs[:, 0] = h
    for k in range(steps):
        zr = _sigmoid(xg[:, k, : 2 * g] + h @ u_zr.T)
        z, r = zr[:, :g], zr[:, g:]
        c = np.tanh(xg[:, k, 2 * g :] + (r * h) @ u_c.T)
        h = (1.0 - z) * h + z * c
        if need_cache:
            gates[:, k, : 2 * g], gates[:, k, 2 * g :], hs[:, k + 1] = zr, c, h

    h3 = _dense(h, t["w3"], t["b3"], relu=True)
    logits = _dense(h3, t["w4"], t["b4"], relu=False)
    return logits, ((gates, hs, h3) if need_cache else None)


def _forward_batch(params: ModelParams, x: np.ndarray, need_cache: bool):
    """Run the network over a (B, T, N) batch; returns (logits, cache)."""
    xg, dense = forward_frames(params, x, need_cache)
    logits, recurrent = forward_recurrent(params, xg, need_cache)
    return logits, ((*dense, *recurrent) if need_cache else None)


def forward(params: ModelParams, window: np.ndarray) -> np.ndarray:
    """Logits for one (T, N) window. No softmax is applied."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2 or window.shape[1] != params.config.input_dim:
        raise ShapeMismatch(f"window must be (frames, {params.config.input_dim}), got {window.shape}")
    logits, _ = _forward_batch(params, window[None], need_cache=False)
    return logits[0]


def cross_entropy(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Summed stable cross-entropy and its gradient w.r.t. the logits.

    ``logits`` is (B, M) with B labels; one (M,) vector with one label is the
    B=1 case.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    m = logits.shape[-1]
    if labels.min() < 0 or labels.max() >= m:
        raise LabelOutOfRange(f"labels must lie in [0, {m})")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    onehot = np.arange(m) == labels[..., None]
    return float(-log_p[onehot].sum()), np.exp(log_p) - onehot


def _backward_batch(params: ModelParams, x: np.ndarray, labels: np.ndarray):
    """Summed loss and summed gradient, one flat vector laid out as ``weights``, over a (B, T, N) batch."""
    t = params.tensors
    logits, cache = _forward_batch(params, x, need_cache=True)
    loss_sum, dlogits = cross_entropy(logits, labels)
    steps = x.shape[1]
    g = params.config.gru_hidden

    h1, h2, gates, hs, h3 = cache
    grad = np.empty_like(params.weights)
    grads = _views(params.config, grad)
    np.matmul(dlogits.T, h3, out=grads["w4"])
    dlogits.sum(axis=0, out=grads["b4"])
    da3 = dlogits @ t["w4"]
    np.multiply(da3, h3 > 0.0, out=da3)
    np.matmul(da3.T, hs[:, steps], out=grads["w3"])
    da3.sum(axis=0, out=grads["b3"])
    dh = da3 @ t["w3"]

    # gate pre-activation gradients per step, blocks z, r, c
    dgates = np.empty_like(gates)
    u_zr, u_c = t["ug"][: 2 * g], t["ug"][2 * g :]
    for k in range(steps - 1, -1, -1):
        z, r, c, h_prev = gates[:, k, :g], gates[:, k, g : 2 * g], gates[:, k, 2 * g :], hs[:, k]
        dac = dh * z * (1.0 - c * c)
        drh = dac @ u_c
        dgates[:, k, :g] = dh * (c - h_prev) * z * (1.0 - z)
        dgates[:, k, g : 2 * g] = drh * h_prev * r * (1.0 - r)
        dgates[:, k, 2 * g :] = dac
        dh = dh * (1.0 - z) + drh * r + dgates[:, k, : 2 * g] @ u_zr

    flat = dgates.reshape(-1, 3 * g)
    h_prev = hs[:, :-1].reshape(-1, g)
    rh_prev = (gates[:, :, g : 2 * g] * hs[:, :-1]).reshape(-1, g)
    np.matmul(flat[:, : 2 * g].T, h_prev, out=grads["ug"][: 2 * g])
    np.matmul(flat[:, 2 * g :].T, rh_prev, out=grads["ug"][2 * g :])
    np.matmul(flat.T, h2, out=grads["wg"])
    flat.sum(axis=0, out=grads["bg"])
    da2 = flat @ t["wg"]
    del dgates, flat, h_prev, rh_prev  # free them before the dense layers' gradients

    np.multiply(da2, h2 > 0.0, out=da2)
    np.matmul(da2.T, h1, out=grads["w2"])
    da2.sum(axis=0, out=grads["b2"])
    da1 = da2 @ t["w2"]
    np.multiply(da1, h1 > 0.0, out=da1)
    np.matmul(da1.T, x.reshape(-1, x.shape[-1]), out=grads["w1"])
    da1.sum(axis=0, out=grads["b1"])
    return loss_sum, grad


def adam_step(params: ModelParams, moments: np.ndarray, grad: np.ndarray, lr: float, t: int) -> ModelParams:
    """Adam's step ``t`` (from 1), in place on ``params`` and its (2, n) ``moments`` (m, v), by the flat ``grad``.

    All checks finish before the first write, so a rejected step changes nothing. Returns ``params``
    after one loop over blocks of ``ADAM_BLOCK`` of the textbook formula, in order.
    """
    if not lr > 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if t < 1:
        raise ValueError(f"Adam's step number starts at 1, got {t}")
    n = params.weights.size
    if grad.shape != (n,) or moments.shape != (2, n):
        raise ShapeMismatch(f"need a ({n},) gradient and (2, {n}) moments, got {grad.shape} and {moments.shape}")
    for lo in range(0, n, ADAM_BLOCK):
        if not np.isfinite(grad[lo : lo + ADAM_BLOCK]).all():
            name = next(name for name, g in _views(params.config, grad).items() if not np.isfinite(g).all())
            raise NonFiniteGradient(f"gradient for {name} contains NaN or Inf")

    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    x, y = np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)
    for lo in range(0, n, ADAM_BLOCK):
        w, m, v, g = (a[lo : lo + ADAM_BLOCK] for a in (params.weights, moments[0], moments[1], grad))
        xb, yb = x[: g.size], y[: g.size]
        # m = b1 * m + (1 - b1) * g; v = b2 * v + (1 - b2) * g * g
        # w = w - lr * (m / bias1) / (sqrt(v / bias2) + eps)
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=xb)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(g, 1.0 - ADAM_BETA2, out=xb), g, out=xb)
        np.multiply(np.divide(m, bias1, out=xb), lr, out=xb)
        np.add(np.sqrt(np.divide(v, bias2, out=yb), out=yb), ADAM_EPS, out=yb)
        w -= np.divide(xb, yb, out=xb)
    return params


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float


@dataclass
class TrainResult:
    params: ModelParams
    history: list[EpochStats]
    best_epoch: int
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray


def split_dataset(n: int, split_seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic 60/10/30 index split."""
    perm = np.random.default_rng(split_seed).permutation(n)
    n_train = int(round(0.6 * n))
    n_val = int(round(0.1 * n))
    return perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]


def predict_batch(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Argmax labels and softmax confidences for a (B, T, N) batch, ``PREDICT_CHUNK`` windows at a time."""
    x = np.asarray(x, dtype=np.float64)
    logits = np.empty((len(x), params.config.output_dim))
    for start in range(0, len(x), PREDICT_CHUNK):
        logits[start : start + PREDICT_CHUNK], _ = _forward_batch(params, x[start : start + PREDICT_CHUNK], False)
    probs = softmax(logits)
    pred = probs.argmax(axis=1)
    return pred, probs[np.arange(len(pred)), pred]


def accuracy(params: ModelParams, x: np.ndarray, y: np.ndarray) -> float:
    """Share of the (B, T, N) windows ``x`` whose predicted label is their label in ``y``."""
    pred, _ = predict_batch(params, x)
    return float((pred == y).mean())


def train(
    x: np.ndarray,
    y: np.ndarray,
    config: ModelConfig,
    epochs: int = 30,
    lr: float = 1e-3,
    batch_size: int = 16,
    split_seed: int = 0,
) -> TrainResult:
    """Minibatch-train on a 60/10/30 split; returns the best-validation params.

    ``x`` holds n windows as an (n, T, N) array and ``y`` their n labels. The
    split, the per-epoch shuffles, and the weight init are all seeded, so
    identical inputs reproduce identical histories bit for bit. When the
    validation slice is empty (tiny datasets) the training slice stands in for
    epoch selection.
    """
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y)
    if x.ndim != 3 or x.shape[2] != config.input_dim or y.shape != x.shape[:1]:
        raise InconsistentShapes(
            f"need (n, frames, {config.input_dim}) windows and n labels, got {x.shape} and {y.shape}"
        )
    if len(x) == 0:
        raise EmptyDataset("dataset is empty")
    if y.min() < 0 or y.max() >= config.output_dim:
        raise LabelOutOfRange(f"labels must lie in [0, {config.output_dim})")
    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be positive")

    train_idx, val_idx, test_idx = split_dataset(len(x), split_seed)
    eval_idx = val_idx if len(val_idx) else train_idx

    params = init_params(config)
    moments, t = np.zeros((2, params.weights.size)), 0
    shuffle_rng = np.random.default_rng([split_seed, config.seed, 1])
    history: list[EpochStats] = []
    best_params, best_acc, best_epoch = None, -1.0, 0  # epoch 1 always replaces them
    for epoch in range(1, epochs + 1):
        order = train_idx[shuffle_rng.permutation(len(train_idx))]
        loss_total = 0.0
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            loss_sum, grad = _backward_batch(params, x[batch], y[batch])
            t += 1
            adam_step(params, moments, grad, lr, t)
            loss_total += loss_sum
        val_acc = accuracy(params, x[eval_idx], y[eval_idx])
        history.append(EpochStats(epoch, loss_total / len(order), val_acc))
        if val_acc >= best_acc:
            best_acc, best_epoch = val_acc, epoch
            best_params = ModelParams(config, params.weights.copy())
    return TrainResult(best_params, history, best_epoch, train_idx, val_idx, test_idx)


def save_model(path: str | Path, params: ModelParams, encoding: Encoding) -> None:
    """Write weights to a deterministic binary container.

    Layout: one JSON header line (format, version, encoding, config, tensor
    index), then the raw little-endian float64 bytes of every tensor in index
    order. Adam moments are not stored; a loaded model starts a fresh
    optimizer state.
    """
    header = {
        "format": WEIGHT_FORMAT,
        "version": WEIGHT_VERSION,
        "encoding": encoding.value,
        "config": asdict(params.config),
        "tensors": _tensor_index(params.config),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(params.weights.astype("<f8", copy=False))


def load_model(
    path: str | Path, expect_encoding: Encoding | None = None
) -> tuple[ModelParams, Encoding]:
    """Read a weight file; refuses encoding or layout mismatches."""
    path = Path(path)
    if not path.is_file():
        raise IoError(f"{path} does not exist")
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise MalformedJson(f"{path}: bad weight header: {exc}") from exc
        if header.get("format") != WEIGHT_FORMAT or header.get("version") != WEIGHT_VERSION:
            raise MalformedJson(f"{path}: not a {WEIGHT_FORMAT} v{WEIGHT_VERSION} file")
        try:
            encoding = Encoding(header["encoding"])
            config = ModelConfig(**{f.name: header["config"][f.name] for f in fields(ModelConfig)})
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedJson(f"{path}: bad weight header: {exc!r}") from exc
        if expect_encoding is not None and encoding is not expect_encoding:
            raise EncodingMismatch(
                f"{path}: model encodes {encoding.value}, expected {expect_encoding.value}"
            )
        if header.get("tensors") != _tensor_index(config):
            raise ShapeMismatch(f"{path}: tensor index does not match the layout of the config")
        nbytes = 8 * _weight_count(config)  # checked against the file size before anything is read
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        if remaining < nbytes:
            raise MalformedJson(f"{path}: truncated tensor data")
        if remaining > nbytes:
            raise MalformedJson(f"{path}: trailing bytes after tensor data")
        if config.input_dim != encoding.dim:
            raise ShapeMismatch(f"{path}: model takes {config.input_dim} features, {encoding.value} has {encoding.dim}")
        weights = np.empty(nbytes // 8, dtype="<f8")
        if fh.readinto(weights) != nbytes:  # the file shrank since it was measured
            raise MalformedJson(f"{path}: truncated tensor data")
    return ModelParams(config, weights.astype(np.float64, copy=False)), encoding
