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

The backward keeps only what a later gradient reads. The per-frame half
caches dense2's output alone and the backward recomputes dense1 from the
input, a product with K = N that is under 1 % of a training step's
multiply-adds; the recurrent half caches each step's gates, entering hidden
state and r*h. Each cached array is dropped after its last reader, and each
layer's input gradient is written over the activation it replaces: the gate
gradients over the gates, da2 over h2 and da1 over h1. No operation changes,
so the gradients are the bits a backward that kept every activation gives.

Training holds four model-sized arrays at a time, and one batch's activations:
the weights, Adam's two moments and one gradient (a step's is dropped before
the next backward allocates its own). It keeps no copy of the best epoch: it
hands the live weights to its caller's ``on_best``, which saves or copies them.
``init_params`` draws each tensor straight into its view of the weights.

Everything runs in float64: exact gradient checking matters more than speed
at this scale. The weights and a gradient are each one flat vector with named
views per tensor; ``train`` owns Adam's two moments, as one (2, n) array, and
its step number, and ``adam_step`` updates weights and moments in place.
Gradients come from full backpropagation through time (no truncation); the
optimizer is Adam with bias correction. All functions are deterministic given
the seeds, and batch gradients are plain sums over the batch, so duplicating a
sample exactly doubles its gradient.

Every ``ModelConfig`` value is an integer, and the config refuses a bool, a
float or a string rather than truncate it. The weight header, read by
``skeleton.load_json``, must be a JSON object whose version is the integer 2;
any other header is refused as ``MalformedJson`` (exit 3).
"""
from __future__ import annotations

import json
import math
import os
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (
    EncodingMismatch,
    IoError,
    LabelOutOfRange,
    MalformedJson,
    NonFiniteGradient,
    ShapeMismatch,
    TooShort,
)
from .features import Encoding
from .skeleton import GestureLabel, load_json

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 32768  # adam_step's block: w, m, v, g and two scratch rows of 256 KB fit a 2 MB L2
PREDICT_CHUNK = 16  # windows per forward in predict_batch, which bounds the memory in flight

WEIGHT_FORMAT = "gesturepipe-weights"
WEIGHT_VERSION = 2
HEADER_LIMIT = 65536  # longest weight header line read, in bytes; a production header is under 1 kB


@dataclass(frozen=True)
class ModelConfig:
    """Layer sizes and the init seed.

    Defaults are the production architecture; tests shrink every dimension.
    Every value is an integer, and ``hidden_dims``/``head_dims`` are sequences
    of them. A bool, a float (4.0 included) or a string is refused with
    ``ValueError`` rather than truncated; a numpy integer is stored as ``int``.
    """

    input_dim: int
    output_dim: int = len(GestureLabel)
    hidden_dims: tuple[int, int] = (2048, 1024)
    gru_hidden: int = 256
    head_dims: tuple[int, ...] = (128,)
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            sizes = f.name in ("hidden_dims", "head_dims")
            for v in value if sizes else [value]:
                if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                    raise ValueError(f"config {f.name} is not an integer: {v!r}")
            object.__setattr__(self, f.name, tuple(map(int, value)) if sizes else int(value))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be positive")
        if len(self.hidden_dims) != 2 or len(self.head_dims) != 1:
            raise ValueError("architecture is fixed at two dense layers, a GRU, and a two-layer head")
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

    def draw(view, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        rng.random(out=view)  # then Generator.uniform's low + (high - low) * u, with no temporary
        view *= bound - -bound
        view += -bound

    params = ModelParams(config, np.empty(_weight_count(config)))
    t = params.tensors
    n, h1, g, hd = config.input_dim, config.hidden_dims[0], config.gru_hidden, config.head_dims[0]
    for name, fan_in in (("w1", n), ("b1", n), ("w2", h1), ("b2", h1)):
        draw(t[name], fan_in)
    for k in range(3):
        rows = slice(k * g, (k + 1) * g)
        for name in ("wg", "ug", "bg"):
            draw(t[name][rows], g)
    for name, fan_in in (("w3", g), ("b3", g), ("w4", hd), ("b4", hd)):
        draw(t[name], fan_in)
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
    cache); the cache is (h2,), the (B·T, width) output of dense2. Dense1's
    output is freed before the gate projection; the backward recomputes it."""
    t = params.tensors
    h2 = _dense(_dense(x.reshape(-1, x.shape[-1]), t["w1"], t["b1"], relu=True), t["w2"], t["b2"], relu=True)
    xg = _dense(h2, t["wg"], t["bg"], relu=False)
    return xg.reshape(*x.shape[:-1], -1), ((h2,) if need_cache else None)


def forward_recurrent(params: ModelParams, xg: np.ndarray, need_cache: bool = False):
    """The recurrent half: the GRU time loop and the head map (B, T, 3g) gate
    inputs to (B, M) logits. Returns (logits, cache); the cache is (gates, hs,
    rhs, h, h3): per step, the gate activations z, r, c, the hidden state
    entering the step and r*h, each (B, T, width); then the final hidden state
    and the head's hidden layer."""
    t = params.tensors
    batch, steps, _ = xg.shape
    g = params.config.gru_hidden
    u_zr, u_c = t["ug"][: 2 * g], t["ug"][2 * g :]
    h = np.zeros((batch, g))
    if need_cache:
        gates, hs, rhs = np.empty((batch, steps, 3 * g)), np.empty((batch, steps, g)), np.empty((batch, steps, g))
    for k in range(steps):
        zr = _sigmoid(xg[:, k, : 2 * g] + h @ u_zr.T)
        z, r = zr[:, :g], zr[:, g:]
        rh = r * h
        c = np.tanh(xg[:, k, 2 * g :] + rh @ u_c.T)
        if need_cache:
            gates[:, k, : 2 * g], gates[:, k, 2 * g :], hs[:, k], rhs[:, k] = zr, c, h, rh
        h = (1.0 - z) * h + z * c

    h3 = _dense(h, t["w3"], t["b3"], relu=True)
    logits = _dense(h3, t["w4"], t["b4"], relu=False)
    return logits, ((gates, hs, rhs, h, h3) if need_cache else None)


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


def _gru_backward(params: ModelParams, gates: np.ndarray, hs: np.ndarray, dh: np.ndarray) -> None:
    """Backpropagation through the GRU's steps, last first, from ``dh``, the final hidden state's
    gradient: each step's gates (z, r, c) are overwritten by the gradients of their pre-activations.
    A function of its own so that no view of ``gates`` or ``hs`` outlives the loop."""
    g = params.config.gru_hidden
    u_zr, u_c = params.tensors["ug"][: 2 * g], params.tensors["ug"][2 * g :]
    for k in range(gates.shape[1] - 1, -1, -1):
        z, r, c, h_prev = gates[:, k, :g], gates[:, k, g : 2 * g], gates[:, k, 2 * g :], hs[:, k]
        dac = dh * z * (1.0 - c * c)
        drh = dac @ u_c
        dz = dh * (c - h_prev) * z * (1.0 - z)
        dr = drh * h_prev * r * (1.0 - r)
        dh = dh * (1.0 - z) + drh * r
        gates[:, k, :g], gates[:, k, g : 2 * g], gates[:, k, 2 * g :] = dz, dr, dac
        dh += gates[:, k, : 2 * g] @ u_zr


def _backward_batch(params: ModelParams, x: np.ndarray, labels: np.ndarray):
    """Summed loss and summed gradient, one flat vector laid out as ``weights``, over a (B, T, N) batch.
    Keeps only what a later gradient reads, as the module docstring says."""
    t = params.tensors
    logits, (h2, gates, hs, rhs, h, h3) = _forward_batch(params, x, need_cache=True)
    loss_sum, dlogits = cross_entropy(logits, labels)
    g = params.config.gru_hidden

    grad = np.empty_like(params.weights)
    grads = _views(params.config, grad)
    np.matmul(dlogits.T, h3, out=grads["w4"])
    dlogits.sum(axis=0, out=grads["b4"])
    da3 = dlogits @ t["w4"]
    np.multiply(da3, h3 > 0.0, out=da3)
    np.matmul(da3.T, h, out=grads["w3"])
    da3.sum(axis=0, out=grads["b3"])
    _gru_backward(params, gates, hs, da3 @ t["w3"])

    dgates = gates.reshape(-1, 3 * g)
    np.matmul(dgates[:, : 2 * g].T, hs.reshape(-1, g), out=grads["ug"][: 2 * g])
    np.matmul(dgates[:, 2 * g :].T, rhs.reshape(-1, g), out=grads["ug"][2 * g :])
    np.matmul(dgates.T, h2, out=grads["wg"])
    dgates.sum(axis=0, out=grads["bg"])
    relu = h2 > 0.0
    da2 = np.matmul(dgates, t["wg"], out=h2)
    da2 *= relu
    del gates, dgates, hs, rhs, h2, relu  # before dense1's output is recomputed

    rows = x.reshape(-1, x.shape[-1])
    h1 = _dense(rows, t["w1"], t["b1"], relu=True)  # K = N: under 1 % of the step's multiply-adds
    np.matmul(da2.T, h1, out=grads["w2"])
    da2.sum(axis=0, out=grads["b2"])
    relu = h1 > 0.0
    da1 = np.matmul(da2, t["w2"], out=h1)
    da1 *= relu
    np.matmul(da1.T, rows, out=grads["w1"])
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
    *,
    epochs: int,
    lr: float,
    batch_size: int,
    split_seed: int,
    on_best: Callable[[ModelParams], None],
) -> list[EpochStats]:
    """Minibatch-train on a 60/10/30 split, handing each best-validation epoch to ``on_best``;
    returns the history, one ``EpochStats`` per epoch.

    ``on_best`` gets the live params after each epoch whose validation accuracy
    matches or beats every earlier one, so its last call holds the best epoch,
    the latest on a tie. Training goes on updating them in place, so it must
    save or copy them before it returns. The test slice is
    ``split_dataset(len(x), split_seed)[2]``; training never reads it.

    ``x`` holds n windows as an (n, T, N) array and ``y`` their n labels. The
    split, the per-epoch shuffles, and the weight init are all seeded, so
    identical inputs reproduce identical histories bit for bit. When the
    validation slice is empty (tiny datasets) the training slice stands in for
    epoch selection.
    """
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y)
    if x.ndim != 3 or x.shape[2] != config.input_dim or y.shape != x.shape[:1]:
        raise ShapeMismatch(
            f"need (n, frames, {config.input_dim}) windows and n labels, got {x.shape} and {y.shape}"
        )
    if len(x) == 0:
        raise TooShort("dataset is empty")
    if y.min() < 0 or y.max() >= config.output_dim:
        raise LabelOutOfRange(f"labels must lie in [0, {config.output_dim})")
    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be positive")

    train_idx, val_idx, _ = split_dataset(len(x), split_seed)
    eval_idx = val_idx if len(val_idx) else train_idx

    params = init_params(config)
    moments, t = np.zeros((2, params.weights.size)), 0
    shuffle_rng = np.random.default_rng([split_seed, config.seed, 1])
    history: list[EpochStats] = []
    best_acc = -1.0  # epoch 1 always replaces it
    for epoch in range(1, epochs + 1):
        order = train_idx[shuffle_rng.permutation(len(train_idx))]
        loss_total = 0.0
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            loss_sum, grad = _backward_batch(params, x[batch], y[batch])
            t += 1
            adam_step(params, moments, grad, lr, t)
            del grad  # before the next backward allocates its own: one gradient alive at a time
            loss_total += loss_sum
        val_acc = accuracy(params, x[eval_idx], y[eval_idx])
        history.append(EpochStats(epoch, loss_total / len(order), val_acc))
        if val_acc >= best_acc:
            best_acc = val_acc
            on_best(params)
    return history


def save_model(path: str | Path, params: ModelParams, encoding: Encoding) -> None:
    """Write weights to a deterministic binary container.

    Layout: one JSON header line (format, version, encoding, config, tensor
    index), then the raw little-endian float64 bytes of every tensor in index
    order. Adam moments are not stored; a loaded model starts a fresh
    optimizer state. The file is written beside ``path`` and renamed over it,
    so ``path`` holds either its old bytes or the new ones, never a part.
    """
    partial = Path(f"{path}.partial")
    header = {
        "format": WEIGHT_FORMAT,
        "version": WEIGHT_VERSION,
        "encoding": encoding.value,
        "config": asdict(params.config),
        "tensors": _tensor_index(params.config),
    }
    try:
        with open(partial, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            fh.write(params.weights.astype("<f8", copy=False))
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def load_model(
    path: str | Path, expect_encoding: Encoding | None = None
) -> tuple[ModelParams, Encoding]:
    """Read a weight file; refuses encoding or layout mismatches. The header line
    goes through ``skeleton.load_json`` and one guarded check (a JSON object, the
    format and integer version, the encoding, then ``ModelConfig``'s own checks);
    each refusal there is ``MalformedJson`` "bad weight header"."""
    path = Path(path)
    if not path.is_file():
        raise IoError(f"{path} does not exist")
    with open(path, "rb") as fh:
        header_line = fh.readline(HEADER_LIMIT + 1)
        if len(header_line) > HEADER_LIMIT:
            raise MalformedJson(f"{path}: weight header is longer than {HEADER_LIMIT} bytes")
        header = load_json(header_line, f"{path}: bad weight header")
        try:
            if not isinstance(header, dict):
                raise TypeError("not a JSON object")
            version = header.get("version")
            if header.get("format") != WEIGHT_FORMAT or type(version) is not int or version != WEIGHT_VERSION:
                raise ValueError(f"not a {WEIGHT_FORMAT} v{WEIGHT_VERSION} file")
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
