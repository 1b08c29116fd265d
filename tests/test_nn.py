import dataclasses
import errno
import hashlib
import io
import json
import math

import numpy as np
import pytest

from gesturepipe import nn
from gesturepipe.errors import (
    EncodingMismatch,
    LabelOutOfRange,
    MalformedJson,
    NonFiniteGradient,
    ShapeMismatch,
    TooShort,
)
from gesturepipe.features import Encoding

from conftest import train_keeping_best, traced_peak
from gradcheck import max_relative_error, numeric_grads, random_tiny_setup, window_grads

TINY = nn.ModelConfig(input_dim=5, output_dim=3, hidden_dims=(8, 8), gru_hidden=4, head_dims=(4,), seed=7)
# w2 spans more than one Adam block and ends in a partial one
BLOCKS = nn.ModelConfig(input_dim=5, output_dim=3, hidden_dims=(200, 190), gru_hidden=7, head_dims=(4,), seed=7)
TINY_ANGLE_SHA256 = "b9cbdb4754af35442d6891db204310c3d4224b1967db092763c16e100c3b419f"


def naive_forward(params, window):
    """Straightforward per-step re-implementation used as the oracle."""
    t = params.tensors
    g = params.config.gru_hidden
    z_, r_, c_ = slice(0, g), slice(g, 2 * g), slice(2 * g, 3 * g)
    h = np.zeros(g)
    for x in window:
        h1 = np.maximum(t["w1"] @ x + t["b1"], 0.0)
        h2 = np.maximum(t["w2"] @ h1 + t["b2"], 0.0)
        z = 1.0 / (1.0 + np.exp(-(t["wg"][z_] @ h2 + t["ug"][z_] @ h + t["bg"][z_])))
        r = 1.0 / (1.0 + np.exp(-(t["wg"][r_] @ h2 + t["ug"][r_] @ h + t["bg"][r_])))
        c = np.tanh(t["wg"][c_] @ h2 + t["ug"][c_] @ (r * h) + t["bg"][c_])
        h = (1.0 - z) * h + z * c
    h3 = np.maximum(t["w3"] @ h + t["b3"], 0.0)
    return t["w4"] @ h3 + t["b4"]


class TestModelConfig:
    @pytest.mark.parametrize("field, value", [
        ("hidden_dims", (0, 8)),
        ("hidden_dims", (8, -1)),
        ("gru_hidden", 0),
        ("gru_hidden", -3),
        ("head_dims", (0,)),
    ])
    def test_layer_size_below_one_refused(self, field, value):
        with pytest.raises(ValueError, match="hidden_dims, gru_hidden and head_dims must be positive"):
            nn.ModelConfig(**{**TINY.__dict__, field: value})


class TestForward:
    def test_zero_params_zero_window_give_zero_logits(self):
        params = nn.init_params(TINY)
        for name in params.tensors:
            params.tensors[name][:] = 0.0
        logits = nn.forward(params, np.zeros((6, 5)))
        np.testing.assert_array_equal(logits, np.zeros(3))

    def test_matches_naive_reimplementation(self, rng):
        params = nn.init_params(TINY)
        for _ in range(10):
            window = rng.normal(size=(8, 5))
            got = nn.forward(params, window)
            np.testing.assert_allclose(got, naive_forward(params, window), atol=1e-10)

    def test_bitwise_reproducible(self, rng):
        window = rng.normal(size=(8, 5))
        a = nn.forward(nn.init_params(TINY), window)
        b = nn.forward(nn.init_params(TINY), window)
        np.testing.assert_array_equal(a, b)

    def test_shape_mismatch(self):
        params = nn.init_params(TINY)
        with pytest.raises(ShapeMismatch):
            nn.forward(params, np.zeros((4, 6)))

    @pytest.mark.parametrize("batch", [1, 4])
    def test_halves_compose_to_forward(self, rng, batch):
        params = nn.init_params(TINY)
        x = rng.normal(size=(batch, 8, 5))
        xg, _ = nn.forward_frames(params, x)
        logits, _ = nn.forward_recurrent(params, xg)
        probs = nn.softmax(logits)
        pred, conf = nn.predict_batch(params, x)
        np.testing.assert_array_equal(pred, probs.argmax(axis=1))
        np.testing.assert_array_equal(conf, probs.max(axis=1))
        if batch == 1:
            np.testing.assert_array_equal(logits[0], nn.forward(params, x[0]))
        # a frame's gate inputs do not depend on the frames projected with it
        for b in range(batch):
            np.testing.assert_array_equal(nn.forward_frames(params, x[b, 5:])[0], xg[b, 5:])

    # OpenBLAS picks its kernel by problem size, so at some shapes a product over
    # all B·T rows rounds an ulp away from T-row products; TINY is not one of them
    @pytest.mark.parametrize("config, atol", [(TINY, 0.0), (BLOCKS, 1e-13)], ids=["tiny", "blocks"])
    def test_frames_match_a_per_window_chain(self, rng, config, atol):
        params = nn.init_params(config)
        t = params.tensors
        x = rng.normal(size=(4, 8, 5))
        before = x.copy()
        xg, (h2,) = nn.forward_frames(params, x, need_cache=True)
        np.testing.assert_array_equal(x, before)
        g3, d2 = 3 * config.gru_hidden, config.hidden_dims[1]
        assert xg.shape == (4, 8, g3) and h2.shape == (32, d2)
        assert nn.forward_frames(params, x[0])[0].shape == (8, g3)
        for b in range(len(x)):
            a1 = np.maximum(x[b] @ t["w1"].T + t["b1"], 0.0)
            a2 = np.maximum(a1 @ t["w2"].T + t["b2"], 0.0)
            np.testing.assert_allclose(h2[8 * b : 8 * (b + 1)], a2, rtol=0, atol=atol)
            np.testing.assert_allclose(xg[b], a2 @ t["wg"].T + t["bg"], rtol=0, atol=atol)

    def test_predict_batch_forwards_in_chunks(self, rng, monkeypatch):
        params = nn.init_params(TINY)
        x = rng.normal(size=(2 * nn.PREDICT_CHUNK + 5, 8, 5))
        probs = nn.softmax(nn.forward_recurrent(params, nn.forward_frames(params, x)[0])[0])
        seen, forward_batch = [], nn._forward_batch
        monkeypatch.setattr(nn, "_forward_batch", lambda p, xb, cache: seen.append(len(xb)) or forward_batch(p, xb, cache))
        pred, conf = nn.predict_batch(params, x)
        assert max(seen) <= nn.PREDICT_CHUNK and sum(seen) == len(x)
        np.testing.assert_array_equal(pred, probs.argmax(axis=1))
        np.testing.assert_allclose(conf, probs.max(axis=1), rtol=0, atol=1e-12)

    def test_init_is_seeded(self):
        a = nn.init_params(TINY)
        b = nn.init_params(TINY)
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name], b.tensors[name])
        c = nn.init_params(nn.ModelConfig(**{**TINY.__dict__, "seed": 8}))
        assert any(not np.array_equal(a.tensors[n], c.tensors[n]) for n in a.tensors)

    @pytest.mark.parametrize("config", [TINY, BLOCKS, nn.ModelConfig(input_dim=18, seed=3)], ids=["tiny", "blocks", "production"])
    def test_init_matches_uniform_draws_in_v1_order(self, config):
        # Generator.uniform per tensor, the GRU gate by gate: if numpy's uniform arithmetic
        # ever parts from init_params' in-place draws, a seed stops giving the same model
        rng = np.random.default_rng(config.seed)
        n, (h1, h2), g, hd, m = config.input_dim, config.hidden_dims, config.gru_hidden, config.head_dims[0], config.output_dim

        def draw(shape, fan_in):
            bound = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-bound, bound, size=shape)

        want = {"w1": draw((h1, n), n), "b1": draw((h1,), n), "w2": draw((h2, h1), h1), "b2": draw((h2,), h1)}
        gates = [(draw((g, h2), g), draw((g, g), g), draw((g,), g)) for _ in range(3)]
        for i, name in enumerate(("wg", "ug", "bg")):
            want[name] = np.concatenate([gate[i] for gate in gates])
        want.update(w3=draw((hd, g), g), b3=draw((hd,), g), w4=draw((m, hd), hd), b4=draw((m,), hd))
        got = nn.init_params(config).tensors
        assert got.keys() == want.keys()
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    def test_init_draws_into_the_weights(self):
        # no tensor-sized temporary beside the weights: b1 is far smaller than w2
        config = nn.ModelConfig(input_dim=18, output_dim=8, hidden_dims=(1024, 512), gru_hidden=64, head_dims=(32,))
        bound = 8 * nn._weight_count(config) + 8 * config.hidden_dims[0]
        assert traced_peak(lambda: nn.init_params(config)) < bound


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = nn.cross_entropy(np.zeros(8), 3)
        assert loss == pytest.approx(math.log(8.0), abs=1e-12)

    def test_saturated_correct_prediction(self):
        logits = np.zeros(8)
        logits[2] = 1e6
        loss, _ = nn.cross_entropy(logits, 2)
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_gradient_matches_finite_differences(self, rng):
        eps = 1e-6
        for _ in range(20):
            logits = rng.normal(size=6) * 3.0
            label = int(rng.integers(6))
            _, grad = nn.cross_entropy(logits, label)
            for i in range(6):
                bumped = logits.copy()
                bumped[i] += eps
                lp, _ = nn.cross_entropy(bumped, label)
                bumped[i] -= 2 * eps
                lm, _ = nn.cross_entropy(bumped, label)
                numeric = (lp - lm) / (2 * eps)
                assert grad[i] == pytest.approx(numeric, rel=1e-6, abs=1e-9)

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            nn.cross_entropy(np.zeros(4), 4)

    def test_extreme_logits_stay_finite(self):
        loss, grad = nn.cross_entropy(np.array([1e4, -1e4, 0.0]), 1)
        assert np.isfinite(loss) and np.all(np.isfinite(grad))


class TestBackward:
    def test_gradient_check_many_tiny_configs(self):
        rng = np.random.default_rng(20240101)
        for _ in range(10):
            params, window, label = random_tiny_setup(rng)
            analytic = window_grads(params, window, label)
            numeric = numeric_grads(params, window, label)
            assert max_relative_error(analytic, numeric) < 1e-4

    def test_gradient_shapes_match_parameters(self, rng):
        params = nn.init_params(TINY)
        _, grad = nn._backward_batch(params, rng.normal(size=(1, 4, 5)), np.array([1]))
        assert grad.shape == params.weights.shape
        grads = window_grads(params, rng.normal(size=(4, 5)), 1)
        assert set(grads) == set(params.tensors)
        for name in grads:
            assert grads[name].shape == params.tensors[name].shape

    def test_duplicated_window_doubles_gradient(self, rng):
        # summed loss is linear in the samples; the batched matmul kernels
        # differ from the single-sample path by at most an ulp
        params = nn.init_params(TINY)
        window = rng.normal(size=(4, 5))
        single = window_grads(params, window, 2)
        double = nn._views(TINY, nn._backward_batch(params, np.stack([window, window]), np.array([2, 2]))[1])
        for name in single:
            np.testing.assert_allclose(double[name], 2.0 * single[name], rtol=1e-12, atol=1e-15)

    def test_peak_allocation_holds_one_activation_per_layer(self, rng):
        # the gradient vector, plus one float64 per frame row and unit of dense1, dense2 and
        # the gates: recomputing dense1 and writing each input gradient over the activation it
        # replaces keeps the step under it, where holding them all at once does not
        config = nn.ModelConfig(input_dim=18, output_dim=8, hidden_dims=(512, 256), gru_hidden=64, head_dims=(32,))
        params = nn.init_params(config)
        x, y = rng.normal(size=(16, 20, 18)), rng.integers(0, 8, size=16)
        (d1, d2), g = config.hidden_dims, config.gru_hidden
        bound = params.weights.nbytes + 8 * x[..., 0].size * (d1 + d2 + 3 * g)
        assert traced_peak(lambda: nn._backward_batch(params, x, y)) < bound

    def test_label_out_of_range(self, rng):
        params = nn.init_params(TINY)
        with pytest.raises(LabelOutOfRange):
            window_grads(params, rng.normal(size=(4, 5)), 3)


def reference_adam(w, m, v, t, grads, lr):
    """Adam as whole-tensor expressions: new dicts of weights and moments, and the step."""
    t += 1
    bias1 = 1.0 - nn.ADAM_BETA1**t
    bias2 = 1.0 - nn.ADAM_BETA2**t
    new_w, new_m, new_v = {}, {}, {}
    for name, g in grads.items():
        new_m[name] = nn.ADAM_BETA1 * m[name] + (1.0 - nn.ADAM_BETA1) * g
        new_v[name] = nn.ADAM_BETA2 * v[name] + (1.0 - nn.ADAM_BETA2) * g * g
        new_w[name] = w[name] - lr * (new_m[name] / bias1) / (np.sqrt(new_v[name] / bias2) + nn.ADAM_EPS)
    return new_w, new_m, new_v, t


def state_of(params, moments):
    return params.weights.copy(), moments.copy()


def fresh_moments(params):
    return np.zeros((2, params.weights.size))


class TestAdamStep:
    def test_zero_gradients_leave_fresh_params_unchanged(self):
        params = nn.init_params(TINY)
        before = params.weights.copy()
        stepped = nn.adam_step(params, fresh_moments(params), np.zeros_like(params.weights), 1e-3, 1)
        np.testing.assert_array_equal(stepped.weights, before)

    def test_constant_gradient_update_magnitude_approaches_lr(self):
        params = nn.init_params(TINY)
        moments, grad = fresh_moments(params), np.full_like(params.weights, 0.37)
        lr = 1e-3
        prev = None
        for t in range(1, 2001):
            prev = params.tensors["w1"].copy()
            params = nn.adam_step(params, moments, grad, lr, t)
        delta = np.abs(params.tensors["w1"] - prev)
        # fixed gradient g: m_hat -> g, v_hat -> g^2, so |step| -> lr * g / (g + eps)
        np.testing.assert_allclose(delta, lr, rtol=1e-6)

    def test_nan_gradient_rejected(self):
        params = nn.init_params(TINY)
        grad = np.zeros_like(params.weights)
        grads = nn._views(TINY, grad)
        grads["w2"][0, 0], grads["w4"][-1, -1] = np.nan, np.inf
        with pytest.raises(NonFiniteGradient, match="gradient for w2 "):
            nn.adam_step(params, fresh_moments(params), grad, 1e-3, 1)

    def test_missing_tensor_rejected(self):
        params = nn.init_params(TINY)
        grad = np.zeros(params.weights.size - params.tensors["b4"].size)
        with pytest.raises(ShapeMismatch):
            nn.adam_step(params, fresh_moments(params), grad, 1e-3, 1)

    def test_updates_in_place_and_returns_same_object(self, rng):
        params = nn.init_params(TINY)
        weights, w1, moments = params.weights, params.tensors["w1"], fresh_moments(params)
        before = w1.copy()
        assert nn.adam_step(params, moments, rng.normal(size=weights.shape), 1e-2, 1) is params
        assert params.weights is weights and params.tensors["w1"] is w1
        assert np.all(w1 != before) and np.all(moments != 0.0)

    @pytest.mark.parametrize("fault", [
        "nan_in_last_element", "missing_tensor", "gradient_one_short", "moments_one_short", "one_moment_row",
        "zero_lr", "negative_lr", "step_zero",
    ])
    def test_rejected_step_leaves_state_unchanged(self, rng, fault):
        error = {
            "nan_in_last_element": NonFiniteGradient, "zero_lr": ValueError, "negative_lr": ValueError,
            "step_zero": ValueError,
        }.get(fault, ShapeMismatch)
        params = nn.init_params(BLOCKS)
        moments = fresh_moments(params)
        nn.adam_step(params, moments, rng.normal(size=params.weights.shape), 1e-2, 1)
        before = state_of(params, moments)
        grad = rng.normal(size=params.weights.shape)
        lr = {"zero_lr": 0.0, "negative_lr": -1e-3}.get(fault, 1e-2)
        t = 0 if fault == "step_zero" else 2
        step_moments, step_grad = moments, grad
        if fault == "nan_in_last_element":
            grad[-1] = np.nan
        if fault == "missing_tensor":
            step_grad = grad[: -params.tensors["b4"].size]
        if fault == "gradient_one_short":
            step_grad = grad[:-1]
        if fault == "moments_one_short":
            step_moments = moments[:, :-1]
        if fault == "one_moment_row":
            step_moments = moments[0]
        with pytest.raises(error):
            nn.adam_step(params, step_moments, step_grad, lr, t)
        for got, want in zip(state_of(params, moments), before):
            np.testing.assert_array_equal(got, want)

    def test_matches_reference_bit_for_bit(self, rng):
        params = nn.init_params(BLOCKS)
        sizes = [t.size for t in params.tensors.values()]
        assert max(sizes) > nn.ADAM_BLOCK and all(size % nn.ADAM_BLOCK for size in sizes)
        w = {name: t.copy() for name, t in params.tensors.items()}
        m = {name: np.zeros_like(t) for name, t in w.items()}
        v = {name: np.zeros_like(t) for name, t in w.items()}
        t = 0
        moments = fresh_moments(params)
        for _ in range(5):
            grad = rng.normal(size=params.weights.shape)
            w, m, v, t = reference_adam(w, m, v, t, nn._views(BLOCKS, grad), 1e-2)
            nn.adam_step(params, moments, grad, 1e-2, t)
        for name in w:
            np.testing.assert_array_equal(params.tensors[name], w[name])
            np.testing.assert_array_equal(nn._views(BLOCKS, moments[0])[name], m[name])
            np.testing.assert_array_equal(nn._views(BLOCKS, moments[1])[name], v[name])

    def test_peak_allocation_is_a_fraction_of_the_parameters(self, rng):
        config = nn.ModelConfig(input_dim=50, hidden_dims=(1024, 512), gru_hidden=256, head_dims=(128,))
        params = nn.init_params(config)
        assert params.weights.size >= 1_000_000
        moments, grad = fresh_moments(params), rng.normal(size=params.weights.shape)
        assert traced_peak(lambda: nn.adam_step(params, moments, grad, 1e-3, 1)) < params.weights.nbytes / 8


def ignore(params):
    """An ``on_best`` that keeps nothing."""


def small_dataset(rng, n=40, t=6, classes=3):
    """(x, y): windows drawn around class-specific anchors, linearly separable."""
    anchors = rng.normal(size=(classes, TINY.input_dim)) * 2.0
    y = np.arange(n) % classes
    x = np.stack([anchors[label] + 0.1 * rng.normal(size=(t, TINY.input_dim)) for label in y])
    return x, y


class TestTrain:
    def test_single_class_degenerate(self, rng):
        x = np.stack([rng.normal(size=(4, 5)) for _ in range(40)])
        result = nn.train(x, np.zeros(40, dtype=int), TINY, epochs=1, lr=0.1, batch_size=4, split_seed=0, on_best=ignore)
        assert result.history[0].val_accuracy == 1.0

    def test_tied_validation_keeps_latest_epoch(self, rng):
        x = np.stack([rng.normal(size=(4, 5)) for _ in range(40)])
        result = nn.train(x, np.zeros(40, dtype=int), TINY, epochs=3, lr=0.1, batch_size=4, split_seed=0, on_best=ignore)
        assert [h.val_accuracy for h in result.history] == [1.0, 1.0, 1.0]
        assert result.best_epoch == 3

    def test_learns_separable_classes(self, rng):
        x, y = small_dataset(rng)
        result = train_keeping_best(x, y, TINY, epochs=30, lr=3e-3, batch_size=8, split_seed=1)
        assert nn.accuracy(result.params, x[result.test_idx], y[result.test_idx]) == 1.0

    def test_same_seed_bitwise_identical_history(self, rng):
        x, y = small_dataset(rng)
        a = train_keeping_best(x, y, TINY, epochs=3, lr=1e-3, batch_size=8, split_seed=3)
        b = train_keeping_best(x, y, TINY, epochs=3, lr=1e-3, batch_size=8, split_seed=3)
        assert a.history == b.history
        for name in a.params.tensors:
            np.testing.assert_array_equal(a.params.tensors[name], b.params.tensors[name])

    def test_best_epoch_equals_a_run_stopped_there(self, rng):
        x, y = small_dataset(rng)
        full = train_keeping_best(x, y, TINY, epochs=6, lr=0.1, batch_size=8, split_seed=1)
        assert full.best_epoch < 6
        stopped = train_keeping_best(x, y, TINY, epochs=full.best_epoch, lr=0.1, batch_size=8, split_seed=1)
        assert stopped.best_epoch == full.best_epoch
        np.testing.assert_array_equal(full.params.weights, stopped.params.weights)

    def test_on_best_gets_each_epoch_that_matches_or_beats_the_best(self, rng):
        x, y = small_dataset(rng)
        copies = []
        result = nn.train(x, y, TINY, epochs=6, lr=0.1, batch_size=8, split_seed=1,
                          on_best=lambda params: copies.append(params.weights.copy()))
        accs = [h.val_accuracy for h in result.history]
        best_epochs = [e for e, acc in enumerate(accs, 1) if acc >= max(accs[: e - 1], default=-1.0)]
        assert len(copies) == len(best_epochs) > 1
        assert best_epochs[-1] == result.best_epoch
        for epoch, weights in zip(best_epochs, copies):
            stopped = train_keeping_best(x, y, TINY, epochs=epoch, lr=0.1, batch_size=8, split_seed=1)
            np.testing.assert_array_equal(weights, stopped.params.weights)

    def test_peak_allocation_holds_one_gradient(self, rng):
        # weights, Adam's two moments and one gradient are four weight vectors; the half
        # more covers adam_step's scratch blocks, and the second term one batch's
        # activations. A best-epoch snapshot inside train would make five, and keeping a
        # step's gradient into the next backward would hold two gradients.
        config = nn.ModelConfig(input_dim=18, output_dim=8, hidden_dims=(1024, 512), gru_hidden=64, head_dims=(32,))
        x, y = rng.normal(size=(32, 4, 18)), rng.integers(0, 8, size=32)
        (d1, d2), g = config.hidden_dims, config.gru_hidden
        bound = 4.5 * 8 * nn._weight_count(config) + 8 * 4 * x.shape[1] * (d1 + d2 + 3 * g)
        assert traced_peak(lambda: nn.train(x, y, config, epochs=2, batch_size=4, on_best=ignore)) < bound

    def test_split_is_60_10_30(self):
        train_idx, val_idx, test_idx = nn.split_dataset(320, split_seed=0)
        assert (len(train_idx), len(val_idx), len(test_idx)) == (192, 32, 96)
        together = np.sort(np.concatenate([train_idx, val_idx, test_idx]))
        np.testing.assert_array_equal(together, np.arange(320))

    def test_empty_dataset(self):
        with pytest.raises(TooShort, match="dataset is empty"):
            nn.train(np.empty((0, 4, 5)), np.empty(0, dtype=int), TINY, epochs=1, on_best=ignore)

    def test_inconsistent_shapes(self, rng):
        with pytest.raises(ShapeMismatch, match="windows and n labels"):
            nn.train(rng.normal(size=(4, 5)), np.zeros(4, dtype=int), TINY, epochs=1, on_best=ignore)

    @pytest.mark.parametrize("n_labels", [2, 4])
    def test_x_and_y_lengths_differ(self, rng, n_labels):
        with pytest.raises(ShapeMismatch, match="windows and n labels"):
            nn.train(rng.normal(size=(3, 4, 5)), np.zeros(n_labels, dtype=int), TINY, epochs=1, on_best=ignore)

    def test_wrong_feature_dim(self, rng):
        with pytest.raises(ShapeMismatch, match="windows and n labels"):
            nn.train(rng.normal(size=(1, 4, 9)), np.zeros(1, dtype=int), TINY, epochs=1, on_best=ignore)


class TestNumericalHygiene:
    def test_single_sample_overfits_below_1e_3(self, rng):
        params = nn.init_params(TINY)
        moments = fresh_moments(params)
        window = rng.normal(size=(5, 5))
        label = 1
        loss = math.inf
        for t in range(1, 501):
            loss_sum, grad = nn._backward_batch(params, window[None], np.array([label]))
            params = nn.adam_step(params, moments, grad, 1e-2, t)
            loss = loss_sum
            if loss < 1e-3:
                break
        assert loss < 1e-3

    def test_parameters_finite_through_10k_steps(self, rng):
        config = nn.ModelConfig(input_dim=3, output_dim=2, hidden_dims=(4, 4), gru_hidden=3, head_dims=(3,), seed=0)
        params = nn.init_params(config)
        moments = fresh_moments(params)
        for step in range(10_000):
            window = rng.normal(size=(3, 3)) * 5.0
            label = step % 2
            _, grad = nn._backward_batch(params, window[None], np.array([label]))
            params = nn.adam_step(params, moments, grad, 1e-3, step + 1)
        for tensor in params.tensors.values():
            assert np.all(np.isfinite(tensor))


class TestWeightFile:
    def test_round_trip_bitwise(self, tmp_path, rng):
        params = nn.init_params(TINY)
        result = train_keeping_best(*small_dataset(rng, n=12), TINY, epochs=2, lr=1e-3, batch_size=4)
        path = tmp_path / "weights.gpw"
        nn.save_model(path, result.params, Encoding.ANGLE)
        loaded, encoding = nn.load_model(path)
        assert encoding is Encoding.ANGLE
        assert loaded.config == TINY
        for name in result.params.tensors:
            np.testing.assert_array_equal(loaded.tensors[name], result.params.tensors[name])
        assert [f.name for f in dataclasses.fields(loaded)] == ["config", "weights"]
        assert loaded.weights.flags.writeable

    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "weights.gpw"
        nn.save_model(path, nn.init_params(TINY), Encoding.ANGLE)
        before = path.read_bytes()

        class FullDisk(io.FileIO):
            def write(self, data):
                super().write(bytes(data)[:10])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(nn, "open", lambda file, mode: FullDisk(file, mode), raising=False)
        with pytest.raises(OSError, match="No space left"):
            nn.save_model(path, nn.init_params(dataclasses.replace(TINY, seed=8)), Encoding.ANGLE)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["weights.gpw"]

    def test_file_bytes_are_pinned(self, tmp_path):
        # weight format v2 and init_params' draw order, TINY at seed 7
        path = tmp_path / "weights.gpw"
        nn.save_model(path, nn.init_params(TINY), Encoding.ANGLE)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == TINY_ANGLE_SHA256

    @pytest.mark.parametrize("fault", [
        "no tensors key", "null tensors", "entry without name", "w1 twice", "reversed index", "wrong shape",
        "missing tensor", "one float short", "8 trailing bytes", "huge config, little data",
        "encoding of another dim",
    ])
    def test_bad_layout_refused(self, tmp_path, fault):
        # the index must be the config's layout: no writer lists the tensors another way
        error, message = {
            "one float short": (MalformedJson, "truncated tensor data"),
            "8 trailing bytes": (MalformedJson, "trailing bytes after tensor data"),
            "huge config, little data": (MalformedJson, "truncated tensor data"),
            "encoding of another dim": (ShapeMismatch, "model takes 5 features, coordinate has 18"),
        }.get(fault, (ShapeMismatch, "tensor index"))
        path = tmp_path / "weights.gpw"
        nn.save_model(path, nn.init_params(TINY), Encoding.ANGLE)
        header_line, blob = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        index, chunks, offset = header["tensors"], {}, 0
        for entry in index:
            size = 8 * math.prod(entry["shape"])
            chunks[entry["name"]], offset = blob[offset : offset + size], offset + size
        if fault == "no tensors key":
            del header["tensors"]
        elif fault == "null tensors":
            header["tensors"] = None
        elif fault == "entry without name":
            del index[0]["name"]
        elif fault == "w1 twice":
            index.insert(0, dict(index[0]))
            blob = chunks["w1"] + blob
        elif fault == "reversed index":
            index.reverse()
            blob = b"".join(chunks[entry["name"]] for entry in index)
        elif fault == "wrong shape":
            index[0]["shape"].reverse()
        elif fault == "missing tensor":
            index.pop()
            blob = blob[: -len(chunks["b4"])]
        elif fault == "one float short":
            blob = blob[:-8]
        elif fault == "8 trailing bytes":
            blob += bytes(8)
        elif fault == "huge config, little data":  # 15 TiB of weights, refused before allocating them
            header["config"]["input_dim"] = 10**9
            header["tensors"] = nn._tensor_index(nn.ModelConfig(**header["config"]))
        elif fault == "encoding of another dim":
            header["encoding"] = "coordinate"
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        with pytest.raises(error, match=message):
            nn.load_model(path)

    def test_encoding_mismatch_refused(self, tmp_path):
        params = nn.init_params(TINY)
        path = tmp_path / "weights.gpw"
        nn.save_model(path, params, Encoding.ANGLE)
        with pytest.raises(EncodingMismatch):
            nn.load_model(path, expect_encoding=Encoding.COORDINATE)

    def test_same_params_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.gpw", tmp_path / "b.gpw"
        nn.save_model(a, nn.init_params(TINY), Encoding.ANGLE)
        nn.save_model(b, nn.init_params(TINY), Encoding.ANGLE)
        assert a.read_bytes() == b.read_bytes()

    def test_version_1_refused(self, tmp_path):
        path = tmp_path / "weights.gpw"
        nn.save_model(path, nn.init_params(TINY), Encoding.ANGLE)
        header, blob = path.read_bytes().split(b"\n", 1)
        path.write_bytes(header.replace(b'"version": 2', b'"version": 1') + b"\n" + blob)
        with pytest.raises(MalformedJson):
            nn.load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda header: header.update(encoding="xyz"),
        lambda header: header["config"].update(gru_hidden=0),
        lambda header: header.pop("config"),
    ], ids=["unknown encoding", "zero gru_hidden", "no config"])
    def test_bad_header_fields_refused(self, tmp_path, edit):
        path = tmp_path / "weights.gpw"
        nn.save_model(path, nn.init_params(TINY), Encoding.ANGLE)
        header_line, blob = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        edit(header)
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        with pytest.raises(MalformedJson, match="bad weight header"):
            nn.load_model(path)

    def test_header_at_the_limit_loads(self, tmp_path):
        path = tmp_path / "weights.gpw"
        params = nn.init_params(TINY)
        nn.save_model(path, params, Encoding.ANGLE)
        header_line, blob = path.read_bytes().split(b"\n", 1)
        path.write_bytes(header_line.ljust(nn.HEADER_LIMIT - 1) + b"\n" + blob)  # JSON allows trailing spaces
        loaded, _ = nn.load_model(path)
        np.testing.assert_array_equal(loaded.weights, params.weights)
        path.write_bytes(header_line.ljust(nn.HEADER_LIMIT) + b"\n" + blob)
        with pytest.raises(MalformedJson, match=f"weight header is longer than {nn.HEADER_LIMIT} bytes"):
            nn.load_model(path)

    def test_header_without_newline_read_bounded(self, tmp_path):
        path = tmp_path / "weights.gpw"
        path.write_bytes(b"a" * (4 << 20))

        def refused():
            with pytest.raises(MalformedJson, match="weight header is longer than"):
                nn.load_model(path)

        assert traced_peak(refused) < 4 * nn.HEADER_LIMIT

    def test_garbage_refused(self, tmp_path):
        path = tmp_path / "weights.gpw"
        path.write_bytes(b"not a weight file\n\x00\x01")
        with pytest.raises(MalformedJson):
            nn.load_model(path)
