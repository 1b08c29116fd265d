"""Finite-difference gradient oracle shared by the unit and acceptance suites."""
import numpy as np

from gesturepipe import nn


def window_grads(params, window, label):
    """Analytic gradients per tensor for one (T, N) window: the B=1 case of the batch backward."""
    return nn._views(params.config, nn._backward_batch(params, window[None], np.array([label]))[1])


def numeric_grads(params, window, label, eps=1e-4):
    """Central-difference gradient of cross_entropy(forward(...)) per tensor.

    Independent of the backward pass: evaluates the loss through the public
    forward path only.
    """
    out = {}
    for name, tensor in params.tensors.items():
        grad = np.zeros_like(tensor)
        flat = tensor.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp, _ = nn.cross_entropy(nn.forward(params, window), label)
            flat[i] = orig - eps
            lm, _ = nn.cross_entropy(nn.forward(params, window), label)
            flat[i] = orig
            gflat[i] = (lp - lm) / (2.0 * eps)
        out[name] = grad
    return out


def random_tiny_setup(rng):
    """A random small config, window, and label for gradient checking."""
    config = nn.ModelConfig(
        input_dim=int(rng.integers(2, 7)),
        output_dim=int(rng.integers(2, 4)),
        hidden_dims=(int(rng.integers(3, 9)), int(rng.integers(3, 9))),
        gru_hidden=int(rng.integers(2, 7)),
        head_dims=(int(rng.integers(2, 5)),),
        seed=int(rng.integers(0, 10_000)),
    )
    params = nn.init_params(config)
    window = rng.normal(size=(int(rng.integers(2, 7)), config.input_dim))
    label = int(rng.integers(config.output_dim))
    return params, window, label


def max_relative_error(analytic, numeric):
    worst = 0.0
    for name in analytic:
        a, n = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst
