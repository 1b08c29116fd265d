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
time loop and the head). Training, ``predict_batch`` and ``forward`` compose
them; a stream keeps each frame's gate inputs between evaluations
(``recognizer.WindowState``).

Everything runs in float64: exact gradient checking matters more than speed
at this scale. Gradients come from full backpropagation through time (no
truncation); the optimizer is Adam with bias correction. All functions are
deterministic given the seeds, and batch gradients are plain sums over the
batch, so duplicating a sample exactly doubles its gradient.
"""
from __future__ import annotations

import copy
import json
from dataclasses import dataclass
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
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be positive")
        if len(self.hidden_dims) != 2 or len(self.head_dims) != 1:
            raise ValueError("architecture is fixed at two dense layers, a GRU, and a two-layer head")
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        object.__setattr__(self, "head_dims", tuple(int(d) for d in self.head_dims))


@dataclass
class ModelParams:
    """All weights plus Adam moment buffers and the step counter."""

    config: ModelConfig
    tensors: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    adam_t: int = 0


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

    n = config.input_dim
    h1, h2 = config.hidden_dims
    g = config.gru_hidden
    hd = config.head_dims[0]
    m = config.output_dim
    tensors = {"w1": draw((h1, n), n), "b1": draw((h1,), n), "w2": draw((h2, h1), h1), "b2": draw((h2,), h1)}
    wg, ug, bg = np.empty((3 * g, h2)), np.empty((3 * g, g)), np.empty(3 * g)
    for k in range(3):
        rows = slice(k * g, (k + 1) * g)
        wg[rows], ug[rows], bg[rows] = draw((g, h2), g), draw((g, g), g), draw((g,), g)
    tensors.update(wg=wg, ug=ug, bg=bg)
    tensors.update(w3=draw((hd, g), g), b3=draw((hd,), g), w4=draw((m, hd), hd), b4=draw((m,), hd))
    zeros = {name: np.zeros_like(t) for name, t in tensors.items()}
    return ModelParams(config, tensors, copy.deepcopy(zeros), copy.deepcopy(zeros), 0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def forward_frames(params: ModelParams, x: np.ndarray, need_cache: bool = False):
    """The per-frame half: dense1, dense2 and the GRU input projection map
    (..., T, N) rows to (..., T, 3g) gate inputs, each row from its own row
    alone. Returns (gate inputs, cache); the cache is (h1, h2)."""
    t = params.tensors
    h1 = np.maximum(x @ t["w1"].T + t["b1"], 0.0)
    h2 = np.maximum(h1 @ t["w2"].T + t["b2"], 0.0)
    if not need_cache:
        h1 = None  # free it before the gate projection is allocated
    xg = h2 @ t["wg"].T + t["bg"]
    return xg, ((h1, h2) if need_cache else None)


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

    h3 = np.maximum(h @ t["w3"].T + t["b3"], 0.0)
    logits = h3 @ t["w4"].T + t["b4"]
    return logits, ((gates, hs, h3) if need_cache else None)


def _forward_batch(params: ModelParams, x: np.ndarray, need_cache: bool):
    """Run the network over a (B, T, N) batch; returns (logits, cache)."""
    xg, dense = forward_frames(params, x, need_cache)
    logits, recurrent = forward_recurrent(params, xg, need_cache)
    return logits, ((*dense, *recurrent) if need_cache else None)


def _check_window(config: ModelConfig, window: np.ndarray) -> np.ndarray:
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2 or window.shape[1] != config.input_dim:
        raise ShapeMismatch(
            f"window must be (frames, {config.input_dim}), got {window.shape}"
        )
    return window


def forward(params: ModelParams, window: np.ndarray) -> np.ndarray:
    """Logits for one (T, N) window. No softmax is applied."""
    window = _check_window(params.config, window)
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
    """Summed loss and summed gradients over a (B, T, N) batch."""
    t = params.tensors
    logits, cache = _forward_batch(params, x, need_cache=True)
    loss_sum, dlogits = cross_entropy(logits, labels)
    steps = x.shape[1]
    g = params.config.gru_hidden

    h1, h2, gates, hs, h3 = cache
    grads = {}
    grads["w4"] = dlogits.T @ h3
    grads["b4"] = dlogits.sum(axis=0)
    dh3 = dlogits @ t["w4"]
    da3 = dh3 * (h3 > 0.0)
    grads["w3"] = da3.T @ hs[:, steps]
    grads["b3"] = da3.sum(axis=0)
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
    grads["ug"] = np.concatenate([flat[:, : 2 * g].T @ h_prev, flat[:, 2 * g :].T @ rh_prev])
    grads["wg"] = flat.T @ h2.reshape(-1, h2.shape[-1])
    grads["bg"] = flat.sum(axis=0)
    du = (flat @ t["wg"]).reshape(h2.shape)
    del dgates, flat, h_prev, rh_prev  # free them before the dense layers' gradients

    da2 = du * (h2 > 0.0)
    flat_da2 = da2.reshape(-1, da2.shape[-1])
    grads["w2"] = flat_da2.T @ h1.reshape(-1, h1.shape[-1])
    grads["b2"] = flat_da2.sum(axis=0)
    dh1 = da2 @ t["w2"]
    da1 = dh1 * (h1 > 0.0)
    flat_da1 = da1.reshape(-1, da1.shape[-1])
    grads["w1"] = flat_da1.T @ x.reshape(-1, x.shape[-1])
    grads["b1"] = flat_da1.sum(axis=0)
    return loss_sum, grads


def backward(params: ModelParams, window: np.ndarray, label: int) -> dict[str, np.ndarray]:
    """Exact gradients of cross_entropy(forward(window), label) for every tensor."""
    window = _check_window(params.config, window)
    _, grads = _backward_batch(params, window[None], np.asarray([label]))
    return grads


def adam_step(params: ModelParams, grads: dict[str, np.ndarray], lr: float) -> ModelParams:
    """One Adam update; returns new params with moments and step advanced."""
    if not lr > 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    for name, tensor in params.tensors.items():
        g = grads.get(name)
        if g is None or g.shape != tensor.shape:
            got = None if g is None else g.shape
            raise ShapeMismatch(f"gradient for {name}: expected {tensor.shape}, got {got}")
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"gradient for {name} contains NaN or Inf")

    t = params.adam_t + 1
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    new_tensors, new_m, new_v = {}, {}, {}
    for name, w in params.tensors.items():
        g = grads[name]
        m = ADAM_BETA1 * params.adam_m[name] + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * params.adam_v[name] + (1.0 - ADAM_BETA2) * g * g
        new_tensors[name] = w - lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
        new_m[name] = m
        new_v[name] = v
    return ModelParams(params.config, new_tensors, new_m, new_v, t)


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


def _stack_dataset(dataset) -> tuple[np.ndarray, np.ndarray]:
    if not dataset:
        raise EmptyDataset("dataset is empty")
    windows, labels = zip(*dataset)
    shapes = {np.asarray(w).shape for w in windows}
    if len(shapes) != 1 or len(next(iter(shapes))) != 2:
        raise InconsistentShapes(f"windows must share one (frames, dim) shape, got {sorted(shapes)}")
    x = np.stack([np.asarray(w, dtype=np.float64) for w in windows])
    y = np.asarray([int(l) for l in labels])
    return x, y


def predict_batch(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Argmax labels and their softmax confidences for a (B, T, N) batch."""
    logits, _ = _forward_batch(params, np.asarray(x, dtype=np.float64), need_cache=False)
    probs = softmax(logits)
    pred = probs.argmax(axis=1)
    return pred, probs[np.arange(len(pred)), pred]


def accuracy(params: ModelParams, x: np.ndarray, y: np.ndarray) -> float:
    pred, _ = predict_batch(params, x)
    return float((pred == y).mean())


def evaluate(params: ModelParams, dataset) -> float:
    """Accuracy over a list of (window, label) pairs."""
    x, y = _stack_dataset(dataset)
    return accuracy(params, x, y)


def train(
    dataset,
    config: ModelConfig,
    epochs: int = 30,
    lr: float = 1e-3,
    batch_size: int = 16,
    split_seed: int = 0,
) -> TrainResult:
    """Minibatch-train on a 60/10/30 split; returns the best-validation params.

    ``dataset`` is a list of (window, label) pairs with one shared (T, N)
    window shape. The split, the per-epoch shuffles, and the weight init are
    all seeded, so identical inputs reproduce identical histories bit for
    bit. When the validation slice is empty (tiny datasets) the training
    slice stands in for epoch selection.
    """
    x_all, y_all = _stack_dataset(dataset)
    if x_all.shape[2] != config.input_dim:
        raise InconsistentShapes(
            f"windows have dim {x_all.shape[2]} but config.input_dim is {config.input_dim}"
        )
    if y_all.min() < 0 or y_all.max() >= config.output_dim:
        raise LabelOutOfRange(f"labels must lie in [0, {config.output_dim})")
    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be positive")

    train_idx, val_idx, test_idx = split_dataset(len(x_all), split_seed)
    if len(train_idx) == 0:
        raise EmptyDataset("60% training slice is empty")
    eval_idx = val_idx if len(val_idx) else train_idx

    params = init_params(config)
    shuffle_rng = np.random.default_rng([split_seed, config.seed, 1])
    history: list[EpochStats] = []
    best_params = copy.deepcopy(params)
    best_acc = -1.0
    best_epoch = 0
    for epoch in range(1, epochs + 1):
        order = train_idx[shuffle_rng.permutation(len(train_idx))]
        loss_total = 0.0
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            loss_sum, grads = _backward_batch(params, x_all[batch], y_all[batch])
            params = adam_step(params, grads, lr)
            loss_total += loss_sum
        val_acc = accuracy(params, x_all[eval_idx], y_all[eval_idx])
        history.append(EpochStats(epoch, loss_total / len(order), val_acc))
        if val_acc >= best_acc:
            best_acc = val_acc
            best_epoch = epoch
            best_params = copy.deepcopy(params)
    return TrainResult(best_params, history, best_epoch, train_idx, val_idx, test_idx)


def save_model(path: str | Path, params: ModelParams, encoding: Encoding) -> None:
    """Write weights to a deterministic binary container.

    Layout: one JSON header line (format, version, encoding, config, tensor
    index), then the raw little-endian float64 bytes of every tensor in index
    order. Adam moments are not stored; a loaded model starts a fresh
    optimizer state.
    """
    names = [name for name, _ in _tensor_specs(params.config)]
    header = {
        "format": WEIGHT_FORMAT,
        "version": WEIGHT_VERSION,
        "encoding": encoding.value,
        "config": {
            "input_dim": params.config.input_dim,
            "output_dim": params.config.output_dim,
            "hidden_dims": list(params.config.hidden_dims),
            "gru_hidden": params.config.gru_hidden,
            "head_dims": list(params.config.head_dims),
            "seed": params.config.seed,
        },
        "tensors": [{"name": n, "shape": list(params.tensors[n].shape)} for n in names],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for name in names:
            fh.write(np.ascontiguousarray(params.tensors[name], dtype="<f8").tobytes())


def load_model(
    path: str | Path, expect_encoding: Encoding | None = None
) -> tuple[ModelParams, Encoding]:
    """Read a weight file; refuses encoding or layout mismatches."""
    path = Path(path)
    if not path.is_file():
        raise IoError(f"{path} does not exist")
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedJson(f"{path}: bad weight header: {exc}") from exc
    if header.get("format") != WEIGHT_FORMAT or header.get("version") != WEIGHT_VERSION:
        raise MalformedJson(f"{path}: not a {WEIGHT_FORMAT} v{WEIGHT_VERSION} file")
    encoding = Encoding(header["encoding"])
    if expect_encoding is not None and encoding is not expect_encoding:
        raise EncodingMismatch(
            f"{path}: model encodes {encoding.value}, expected {expect_encoding.value}"
        )
    cfg = header["config"]
    config = ModelConfig(
        input_dim=int(cfg["input_dim"]),
        output_dim=int(cfg["output_dim"]),
        hidden_dims=tuple(cfg["hidden_dims"]),
        gru_hidden=int(cfg["gru_hidden"]),
        head_dims=tuple(cfg["head_dims"]),
        seed=int(cfg["seed"]),
    )
    specs = dict(_tensor_specs(config))
    tensors: dict[str, np.ndarray] = {}
    offset = 0
    for entry in header["tensors"]:
        name, shape = entry["name"], tuple(entry["shape"])
        if name not in specs or specs[name] != shape:
            raise ShapeMismatch(f"{path}: tensor {name} {shape} does not fit the config")
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(blob):
            raise MalformedJson(f"{path}: truncated tensor data at {name}")
        tensors[name] = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape).astype(np.float64)
        offset += nbytes
    if set(tensors) != set(specs):
        raise MalformedJson(f"{path}: weight file is missing tensors")
    if offset != len(blob):
        raise MalformedJson(f"{path}: trailing bytes after tensor data")
    zeros = {name: np.zeros_like(t) for name, t in tensors.items()}
    params = ModelParams(config, tensors, copy.deepcopy(zeros), copy.deepcopy(zeros), 0)
    return params, encoding
