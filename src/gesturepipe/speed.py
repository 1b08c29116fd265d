"""Execution-speed estimation for cyclic gestures.

A cyclic gesture periodically revisits a characteristic start pose. Given a
per-frame Euclidean distance series between the window contents and that
reference pose, the frame distance between the first two local minima is the
gesture's period; dividing the FPS by it yields cycles per second.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    InsufficientMinima,
    IoError,
    LengthMismatch,
    MalformedJson,
    NotCyclic,
    TooShort,
)
from .features import Encoding, encode_frame
from .skeleton import GestureLabel

StartPositionTable = dict[GestureLabel, np.ndarray]

CYCLIC_GESTURES = tuple(g for g in GestureLabel if g is not GestureLabel.StandStill)


@dataclass(frozen=True)
class SpeedEstimate:
    period_frames: int
    cycles_per_second: float
    minima_indices: tuple[int, ...]


def distance_series(window, reference: np.ndarray) -> np.ndarray:
    """Per-frame Euclidean distance between the window's rows and the reference.

    ``window`` is a (T, dim) matrix or a list of T (dim,) rows.
    """
    try:
        rows = np.asarray(window, dtype=np.float64)
    except ValueError as exc:
        raise LengthMismatch(f"window rows differ in length: {exc}") from exc
    if rows.ndim != 2 or rows.shape[1:] != np.shape(reference):
        raise LengthMismatch(
            f"window of shape {rows.shape} does not match a reference of shape {np.shape(reference)}"
        )
    return np.linalg.norm(rows - reference, axis=1)


def local_minima(series, radius: int) -> list[int]:
    """Indices of neighborhood minima, plateaus collapsed to their first index.

    An index i (radius <= i < len - radius) qualifies when series[i] is no
    larger than any value within ``radius`` of it and strictly smaller than at
    least one of them.
    """
    if radius < 1:
        raise ValueError("radius must be a positive integer")
    s = np.asarray(series, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("series must be one-dimensional")
    n = len(s)
    if n <= 2 * radius:
        raise TooShort(f"series of {n} values cannot fit a radius-{radius} neighborhood")
    out: list[int] = []
    for i in range(radius, n - radius):
        neighborhood = s[i - radius : i + radius + 1]
        if s[i] <= neighborhood.min() and s[i] < neighborhood.max():
            if out and s[out[-1]] == s[i] and bool(np.all(s[out[-1] : i + 1] == s[i])):
                continue
            out.append(i)
    return out


def estimate_speed(
    window,
    label: GestureLabel,
    table: StartPositionTable,
    fps: float,
    radius: int = 2,
) -> SpeedEstimate:
    """Estimate the gesture period from the first two distance minima."""
    if label not in table:
        raise NotCyclic(f"{label.name} has no start position (not a cyclic gesture?)")
    series = distance_series(window, table[label])
    minima = local_minima(series, radius)
    if len(minima) < 2:
        raise InsufficientMinima(
            f"found {len(minima)} minima; the window is too short or the signal is not periodic"
        )
    period = minima[1] - minima[0]
    return SpeedEstimate(period, fps / period, tuple(minima))


def load_start_positions(path: str | Path) -> tuple[StartPositionTable, Encoding]:
    path = Path(path)
    if not path.is_file():
        raise IoError(f"{path} does not exist")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        encoding = Encoding(doc["encoding"])
        table = {
            GestureLabel[name]: np.asarray(values, dtype=np.float64)
            for name, values in doc["positions"].items()
        }
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedJson(f"{path}: bad start-position file: {exc}") from exc
    for label, row in table.items():
        if row.shape != (encoding.dim,):
            raise MalformedJson(
                f"{path}: {label.name} start position has shape {row.shape}, "
                f"{encoding.value} features need ({encoding.dim},)"
            )
        if encoding is Encoding.ANGLE and not np.all((row >= 0.0) & (row <= 1.0)):
            raise MalformedJson(f"{path}: {label.name} angle start position lies outside [0, 1]")
    return table, encoding


def default_start_positions(encoding: Encoding) -> StartPositionTable:
    """Start positions for every cyclic gesture, taken from the first frame of
    a noiseless canonical synthetic cycle. Real deployments should supply
    references captured from their own recordings instead.
    """
    from . import synth

    table: StartPositionTable = {}
    for gesture in CYCLIC_GESTURES:
        config = synth.SynthConfig(gesture=gesture, n_frames=1, noise_sigma=0.0, seed=0)
        seq = synth.generate(config)
        table[gesture] = encode_frame(seq.kp[0], encoding)
    return table
