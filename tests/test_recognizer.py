import itertools
import math

import numpy as np
import pytest

from gesturepipe import nn
from gesturepipe.errors import InvalidConfig, ShapeMismatch
from gesturepipe.features import Encoding
from gesturepipe.recognizer import (
    Emission,
    WindowConfig,
    WindowState,
    effective_window,
    majority_vote,
    make_window_state,
)
from gesturepipe.skeleton import MAX_FRAMES, GestureLabel

MODEL = nn.ModelConfig(input_dim=5, output_dim=8, hidden_dims=(6, 6), gru_hidden=4, head_dims=(4,), seed=3)


def angle_row(rng):
    return rng.uniform(0, 1, 5)


class TestEffectiveWindow:
    def test_half_speed_doubles_window(self):
        assert effective_window(WindowConfig(speed_ratio=0.5), fps=30.0) == 100

    def test_double_speed_halves_window(self):
        assert effective_window(WindowConfig(speed_ratio=2.0), fps=30.0) == 25

    def test_double_fps_doubles_window(self):
        # double FPS needs double the frames for the same wall-clock span
        assert effective_window(WindowConfig(speed_ratio=1.0), fps=60.0) == 100

    def test_minimum_two(self):
        assert effective_window(WindowConfig(speed_ratio=25.0), fps=1.0) == 2

    @pytest.mark.parametrize("ratio", [0.5, 0.75, 0.9, 1.0, 1.1, 1.3, 2.0])
    def test_window_speed_product_is_base(self, ratio):
        frames = effective_window(WindowConfig(speed_ratio=ratio), fps=30.0)
        assert abs(frames * ratio - 50.0) <= 0.5 * ratio  # within rounding

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            WindowConfig(base_len=1)
        with pytest.raises(InvalidConfig):
            WindowConfig(retention=1.0)
        with pytest.raises(InvalidConfig):
            WindowConfig(speed_ratio=0.0)
        with pytest.raises(InvalidConfig, match="speed_ratio must be positive and finite"):
            WindowConfig(speed_ratio=math.inf)
        with pytest.raises(InvalidConfig, match="base_fps must be positive and finite"):
            WindowConfig(base_fps=math.inf)
        with pytest.raises(InvalidConfig):
            effective_window(WindowConfig(), fps=0.0)
        with pytest.raises(InvalidConfig, match="fps must be positive and finite"):
            effective_window(WindowConfig(), fps=math.inf)

    @pytest.mark.parametrize("config, fps", [
        (WindowConfig(base_len=MAX_FRAMES + 1), 30.0),
        (WindowConfig(base_len=2 * MAX_FRAMES + 1, speed_ratio=2.0), 30.0),  # rounds half up to MAX_FRAMES + 1
        (WindowConfig(speed_ratio=1e-300), 30.0),  # floors to more frames than numpy can index
        (WindowConfig(base_fps=1e-300), 1e308),  # fps / base_fps overflows to inf
    ])
    def test_window_over_max_frames_is_refused(self, config, fps):
        with pytest.raises(InvalidConfig, match=f"is over {MAX_FRAMES}"):
            effective_window(config, fps)

    def test_window_of_max_frames_is_accepted(self):
        assert effective_window(WindowConfig(base_len=MAX_FRAMES), fps=30.0) == MAX_FRAMES
        assert effective_window(WindowConfig(base_len=2 * MAX_FRAMES, speed_ratio=2.0), fps=30.0) == MAX_FRAMES


def reference_vote(history):
    """Independent re-statement of the vote rule for enumeration audits."""
    best = None
    for candidate in set(history):
        count = sum(1 for v in history if v == candidate)
        recency = max(i for i, v in enumerate(history) if v == candidate)
        key = (count, recency)
        if best is None or key > best[0]:
            best = (key, candidate)
    return best[1]


class TestMajorityVote:
    def test_strict_majority(self):
        assert majority_vote([0, 0, 1]) == 0

    def test_tie_resolves_to_most_recent(self):
        assert majority_vote([0, 1]) == 1
        assert majority_vote([1, 0]) == 0
        assert majority_vote([0, 0, 1, 1]) == 1

    def test_exhaustive_enumeration_matches_reference(self):
        for length in (1, 2, 3, 4):
            for history in itertools.product(range(3), repeat=length):
                assert majority_vote(list(history)) == reference_vote(history)

    def test_single_aberrant_vote_never_flips_outcome(self):
        for vote_n in (3, 4, 5):
            for slot in range(vote_n):
                history = [0] * vote_n
                history[slot] = 1
                assert majority_vote(history) == 0


class TestWindowState:
    def test_no_output_until_capacity(self, rng):
        params = nn.init_params(MODEL)
        state = WindowState(capacity=10, vote_n=3, retention=0.5, encoding=Encoding.ANGLE)
        for i in range(9):
            assert state.push(angle_row(rng), params) is None

    def test_first_emission_at_capacity_then_cadence(self, rng):
        params = nn.init_params(MODEL)
        state = WindowState(capacity=10, vote_n=3, retention=0.5, encoding=Encoding.ANGLE)
        emitted = []
        for i in range(1, 31):
            emission = state.push(angle_row(rng), params)
            if emission is not None:
                emitted.append((i, emission.frame_index))
        assert [idx for _, idx in emitted] == [10, 15, 20, 25, 30]
        assert all(i == idx for i, idx in emitted)
        assert state.cadence == math.ceil(0.5 * 10)

    def test_encoding_mismatch(self, rng):
        params = nn.init_params(MODEL)
        state = WindowState(capacity=4, vote_n=3, retention=0.5, encoding=Encoding.COORDINATE)
        with pytest.raises(ShapeMismatch, match="row has shape"):
            state.push(angle_row(rng), params)
        with pytest.raises(ShapeMismatch, match="row has shape"):
            state.push(np.zeros((1, 18)), params)
        assert state.frames_seen == 0

    def test_push_keeps_a_copy(self, rng):
        params = nn.init_params(MODEL)
        state = WindowState(capacity=4, vote_n=3, retention=0.5, encoding=Encoding.ANGLE)
        row = angle_row(rng)
        state.push(row, params)
        row[:] = -1.0
        assert np.all(state.buffer[0] >= 0.0)

    @pytest.mark.parametrize("capacity,retention", [(10, 0.5), (10, 0.95), (10, 0.01), (7, 0.3), (6, 0.75), (2, 0.5)])
    def test_emissions_equal_full_forward(self, rng, monkeypatch, capacity, retention):
        params = nn.init_params(MODEL)
        projected = []

        def counted(p, rows, need_cache=False):
            projected.append(len(rows))
            return nn.forward_frames(p, rows, need_cache)

        monkeypatch.setattr("gesturepipe.recognizer.forward_frames", counted)
        state = WindowState(capacity=capacity, vote_n=3, retention=retention, encoding=Encoding.ANGLE)
        rows = rng.uniform(0, 1, (40, 5))
        evaluations = 0
        for i, row in enumerate(rows, start=1):
            emission = state.push(row, params)
            if emission is not None:
                probs = nn.softmax(nn.forward(params, rows[i - capacity : i]))
                assert emission.raw == probs.argmax()
                assert emission.confidence == probs.max()
                evaluations += 1
        assert evaluations == 1 + (40 - capacity) // state.cadence
        # each frame goes through the per-frame layers once, two rows at least
        assert projected == [capacity] + [max(state.cadence, 2)] * (evaluations - 1)

    def test_second_params_object_refused(self, rng):
        a = nn.init_params(MODEL)
        b = nn.init_params(MODEL)  # equal weights, another object
        state = WindowState(capacity=10, vote_n=3, retention=0.5, encoding=Encoding.ANGLE)
        for _ in range(15):  # evaluations at frames 10 and 15
            state.push(angle_row(rng), a)
        assert state.model is a
        frames_seen, buffer, votes = state.frames_seen, state.buffer.copy(), list(state.votes)
        with pytest.raises(InvalidConfig):
            state.push(angle_row(rng), b)
        assert state.model is a and state.frames_seen == frames_seen and list(state.votes) == votes
        np.testing.assert_array_equal(state.buffer, buffer)

    def test_model_of_another_width_refused(self, rng):
        params = nn.init_params(nn.ModelConfig(**{**MODEL.__dict__, "input_dim": 18}))
        state = WindowState(capacity=2, vote_n=3, retention=0.5, encoding=Encoding.ANGLE)
        with pytest.raises(ShapeMismatch):
            state.push(angle_row(rng), params)
        assert state.frames_seen == 0 and state.model is None

    def test_emission_fields(self, rng):
        params = nn.init_params(MODEL)
        state = make_window_state(WindowConfig(base_len=6, vote_n=3), fps=30.0, encoding=Encoding.ANGLE)
        assert state.capacity == 6
        emission = None
        while emission is None:
            emission = state.push(angle_row(rng), params)
        assert isinstance(emission, Emission)
        assert isinstance(emission.raw, GestureLabel)
        assert isinstance(emission.smoothed, GestureLabel)
        assert 0.0 < emission.confidence <= 1.0

    def test_smoothing_suppresses_isolated_flicker(self, rng, monkeypatch):
        # force raw predictions with one aberrant value and check the
        # smoothed stream never follows it
        params = nn.init_params(MODEL)
        raw_stream = iter([2, 2, 5, 2, 2, 2])
        logits_for = lambda label: np.eye(8)[label] * 10.0

        def fake_forward(p, window):
            return logits_for(next(raw_stream))

        monkeypatch.setattr("gesturepipe.recognizer.forward", fake_forward)
        state = WindowState(capacity=4, vote_n=3, retention=0.5, encoding=Encoding.ANGLE)
        smoothed = []
        for _ in range(14):
            emission = state.push(angle_row(rng), params)
            if emission is not None:
                smoothed.append(int(emission.smoothed))
        assert 5 not in smoothed
        assert smoothed == [2] * len(smoothed)
