"""Streaming sliding-window classification with vote smoothing.

Frames stream into a ring buffer sized for the stream's FPS and speed ratio.
Once the buffer fills, the model runs on its contents; afterwards it re-runs
every ceil((1 - retention) * capacity) frames, so half the window carries
over between evaluations by default. Raw predictions feed a majority vote
over the last few outputs, which suppresses single-frame flicker.

A window state keeps each frame's gate inputs (``nn.forward_frames``) in a
ring beside the raw rows: an evaluation projects the frames pushed since the
last one in one matrix product, then runs the recurrent half (``forward``).
So a state serves one model, whose weights must not change while it streams.
"""
from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, ShapeMismatch
from .features import Encoding
from .nn import ModelParams, forward_frames, forward_recurrent, softmax
from .skeleton import MAX_FRAMES, GestureLabel


@dataclass(frozen=True)
class WindowConfig:
    base_len: int = 50
    base_fps: float = 30.0
    speed_ratio: float = 1.0
    vote_n: int = 5
    retention: float = 0.5

    def __post_init__(self):
        if self.base_len < 2:
            raise InvalidConfig("base_len must be at least 2")
        if not 0 < self.base_fps < math.inf:
            raise InvalidConfig("base_fps must be positive and finite")
        if not 0 < self.speed_ratio < math.inf:
            raise InvalidConfig("speed_ratio must be positive and finite")
        if self.vote_n < 1:
            raise InvalidConfig("vote_n must be positive")
        if not 0.0 < self.retention < 1.0:
            raise InvalidConfig("retention must lie strictly between 0 and 1")


def effective_window(config: WindowConfig, fps: float) -> int:
    """Window length in frames for a stream at ``fps``.

    Scales the base length so the window spans the same wall-clock time as at
    base_fps, then divides by the speed ratio so faster gestures get shorter
    windows (at 30 fps: ratio 0.5 -> 100 frames, ratio 2.0 -> 25 frames). A
    window longer than ``MAX_FRAMES`` is refused.
    """
    if not 0 < fps < math.inf:
        raise InvalidConfig("fps must be positive and finite")
    frames = config.base_len * (fps / config.base_fps) / config.speed_ratio
    if not frames + 0.5 < MAX_FRAMES + 1:  # checked before flooring, so inf and nan are refused too
        raise InvalidConfig(f"a window of {frames:.3g} frames is over {MAX_FRAMES} (base_len {config.base_len}, "
                            f"fps {fps:g}, base_fps {config.base_fps:g}, speed_ratio {config.speed_ratio:g})")
    return max(2, math.floor(frames + 0.5))


def majority_vote(votes) -> int:
    """Most frequent value; ties resolve to the most recent among the tied."""
    counts = Counter(votes)
    best = max(counts.values())
    tied = {v for v, c in counts.items() if c == best}
    for v in reversed(list(votes)):
        if v in tied:
            return v
    raise ValueError("empty vote history")


def forward(params: ModelParams, gate_rows: np.ndarray) -> np.ndarray:
    """(M,) logits of one window from its (T, 3g) gate inputs: nn.forward's recurrent half."""
    return forward_recurrent(params, gate_rows[None])[0][0]


@dataclass(frozen=True)
class Emission:
    """One recognizer output.

    ``frame_index`` counts frames consumed so far, so the first emission
    carries frame_index == capacity. ``confidence`` is the softmax maximum of
    the raw prediction.
    """

    frame_index: int
    raw: GestureLabel
    smoothed: GestureLabel
    confidence: float


class WindowState:
    """Ring buffers of recent feature rows and of their gate-input rows, plus
    the recent-vote history.

    Single-writer: one stream owns one state, and one state serves one model: the
    first push binds its parameters object as ``model``, another object is refused,
    and the weights must not change while the state streams (gate inputs are kept).
    """

    def __init__(self, capacity: int, vote_n: int, retention: float, encoding: Encoding):
        if capacity < 2:
            raise InvalidConfig("capacity must be at least 2")
        if not 0.0 < retention < 1.0:
            raise InvalidConfig("retention must lie strictly between 0 and 1")
        self.capacity = capacity
        self.cadence = math.ceil((1.0 - retention) * capacity)
        self.encoding = encoding
        self.buffer = np.zeros((capacity, encoding.dim))  # frame i in slot i % capacity
        self.model: ModelParams | None = None  # bound by the first push
        self.gate_rows: np.ndarray | None = None  # (capacity, 3g), slotted like buffer
        self.projected = 0  # frames_seen at the last projection
        self.votes: deque[int] = deque(maxlen=vote_n)
        self.frames_seen = 0

    def push(self, row: np.ndarray, params: ModelParams) -> Emission | None:
        """Append one (dim,) feature row; evaluate the window when it is due. The first push binds ``params``."""
        if row.shape != (self.encoding.dim,):
            raise ShapeMismatch(
                f"row has shape {row.shape}, {self.encoding.value} features need ({self.encoding.dim},)"
            )
        if params is not self.model:
            if self.model is not None:
                raise InvalidConfig("this window state serves another parameters object")
            if params.config.input_dim != self.encoding.dim:
                raise ShapeMismatch(f"model takes {params.config.input_dim} features, rows have {self.encoding.dim}")
            self.model, self.gate_rows = params, np.empty((self.capacity, 3 * params.config.gru_hidden))
        self.buffer[self.frames_seen % self.capacity] = row
        self.frames_seen += 1
        if self.frames_seen < self.capacity:
            return None
        if (self.frames_seen - self.capacity) % self.cadence != 0:
            return None
        logits = forward(params, self._window_gate_rows())
        probs = softmax(logits)
        raw = int(probs.argmax())
        self.votes.append(raw)
        smoothed = majority_vote(self.votes)
        return Emission(self.frames_seen, GestureLabel(raw), GestureLabel(smoothed), float(probs[raw]))

    def _window_gate_rows(self) -> np.ndarray:
        """The window's (capacity, 3g) gate inputs, oldest first, projecting the frames pushed since the last call."""
        # at least two rows: numpy runs one row as a matrix-vector product,
        # whose sums round otherwise than the matrix product over a window
        count = max(self.frames_seen - self.projected, 2)
        window = np.arange(self.frames_seen - self.capacity, self.frames_seen) % self.capacity
        self.gate_rows[window[-count:]], _ = forward_frames(self.model, self.buffer[window[-count:]])
        self.projected = self.frames_seen
        return self.gate_rows[window]


def make_window_state(config: WindowConfig, fps: float, encoding: Encoding) -> WindowState:
    return WindowState(effective_window(config, fps), config.vote_n, config.retention, encoding)

