"""Execution-speed estimation for cyclic gestures.

A cyclic gesture periodically revisits a characteristic start pose, so the
per-frame Euclidean distance between the window's rows and that reference
pose repeats with the gesture's period. The period is read off the
autocorrelation of that series: the shortest lag whose peak reaches
``PEAK_SHARE`` of the highest one, the key-maximum pick of McLeod and
Wyvill's "A Smarter Way to Find Pitch" (ICMC 2005). A peak under their
clarity threshold, ``CLARITY``, is noise and yields no period. Dividing the
FPS by the period yields cycles per second.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import synth
from .errors import IoError, MalformedJson, NoPeriod, ShapeMismatch, TooShort, UnknownLabel
from .features import Encoding, encode_frame
from .skeleton import GestureLabel, gesture_table, load_json

StartPositionTable = dict[GestureLabel, np.ndarray]

CYCLIC_GESTURES = tuple(synth.MOTIONS)

# shortest period considered, in frames, and the share of the highest
# autocorrelation peak that the period's peak must reach
MIN_LAG = 5
PEAK_SHARE = 0.8
# McLeod and Wyvill's clarity threshold: the chosen peak's floor. True synth
# cycles peak at 0.6 or more, noise on a still pose at 0.42 or less.
CLARITY = 0.5


@dataclass(frozen=True)
class SpeedEstimate:
    period_frames: int
    cycles_per_second: float


def distance_series(window, reference: np.ndarray) -> np.ndarray:
    """Per-frame Euclidean distance between the window's rows and the reference.

    ``window`` is a (T, dim) matrix or a list of T (dim,) rows.
    """
    try:
        rows = np.asarray(window, dtype=np.float64)
    except ValueError as exc:
        raise ShapeMismatch(f"window rows differ in length: {exc}") from exc
    if rows.ndim != 2 or rows.shape[1:] != np.shape(reference):
        raise ShapeMismatch(
            f"window of shape {rows.shape} does not match a reference of shape {np.shape(reference)}"
        )
    return np.linalg.norm(rows - reference, axis=1)


def estimate_speed(window, label: GestureLabel, table: StartPositionTable, fps: float) -> SpeedEstimate:
    """Estimate the gesture period from the autocorrelation of the distance series.

    The autocorrelation of the mean-removed series is normalized at each lag
    by the energy of its two overlapping parts (McLeod and Wyvill's NSDF), so
    that a peak's height does not fall with its lag. The period is the
    shortest lag in ``MIN_LAG`` .. T // 2 with a positive local maximum of at
    least ``PEAK_SHARE`` times the highest such maximum. A chosen peak under
    ``CLARITY`` is noise, not a period, and raises ``NoPeriod``.
    """
    if label not in table:
        why = "the start-position table has no row for it" if label in CYCLIC_GESTURES else "not a cyclic gesture"
        raise UnknownLabel(f"{label.name} has no start position ({why})")
    series = distance_series(window, table[label])
    n = len(series)
    if n // 2 <= MIN_LAG:
        raise TooShort(f"a {n}-frame window is too short; periods of {MIN_LAG}+ frames need {2 * MIN_LAG + 2}")
    if np.ptp(series) == 0:
        raise NoPeriod("the distance to the start pose never changes; the signal is not periodic")
    centered = series - series.mean()
    energy = np.concatenate(([0.0], np.cumsum(centered * centered)))
    lags = np.arange(n // 2 + 2)
    overlap = energy[n - lags] + energy[n] - energy[lags]
    ac = np.correlate(centered, centered, "full")[n - 1 : n + 1 + n // 2]
    nsdf = np.divide(2 * ac, overlap, out=np.zeros_like(ac), where=overlap > 0)
    lags = lags[MIN_LAG:-1]
    lags = lags[(nsdf[lags] > 0) & (nsdf[lags] > nsdf[lags - 1]) & (nsdf[lags] >= nsdf[lags + 1])]
    if not len(lags):
        raise NoPeriod(f"no autocorrelation peak at lags {MIN_LAG} to {n // 2}; the signal is not periodic")
    period = int(lags[np.argmax(nsdf[lags] >= PEAK_SHARE * nsdf[lags].max())])
    if nsdf[period] < CLARITY:
        raise NoPeriod(
            f"the autocorrelation peaks at {nsdf[period]:.2f} (lag {period}), "
            f"under the clarity floor {CLARITY}; the signal is not periodic"
        )
    return SpeedEstimate(period, fps / period)


def load_start_positions(path: str | Path) -> tuple[StartPositionTable, Encoding]:
    path = Path(path)
    if not path.is_file():
        raise IoError(f"{path} does not exist")
    doc = load_json(path.read_bytes(), where := f"{path}: bad start-position file")
    try:
        encoding = Encoding(doc["encoding"])
        table = gesture_table(doc["positions"], encoding.dim, path, "'positions'", "start position")
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedJson(f"{where}: {exc}") from exc
    for label, row in table.items():
        if encoding is Encoding.ANGLE and not np.all((row >= 0.0) & (row <= 1.0)):
            raise MalformedJson(f"{path}: {label.name} angle start position lies outside [0, 1]")
    return table, encoding


def default_start_positions(encoding: Encoding) -> StartPositionTable:
    """Start positions for every cyclic gesture, taken from the first frame of
    a noiseless canonical synthetic cycle. Real deployments should supply
    references captured from their own recordings instead.
    """
    table: StartPositionTable = {}
    for gesture in CYCLIC_GESTURES:
        config = synth.SynthConfig(gesture=gesture, n_frames=1, noise_sigma=0.0, seed=0)
        seq = synth.generate(config)
        table[gesture] = encode_frame(seq.kp[0], encoding)
    return table
