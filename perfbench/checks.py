"""Correctness checks for the benchmark's workloads.

Every check compares the program's output with a computation made here,
apart from the program (plain numpy on raw keypoint arrays), or with a
property the method must have. None of them compares with a stored copy of
earlier output. A check raises CheckError on the first violation; it never
imports gesturepipe, so the self-tests can feed it corrupted outputs.
"""
from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np

NECK = 1
N_UPPER = 9
# (a, vertex, b) keypoint triples of the angle encoding: elbows, shoulders, neck
ANGLE_TRIPLES = ((2, 3, 4), (5, 6, 7), (1, 2, 3), (1, 5, 6), (0, 1, 8))


class CheckError(AssertionError):
    """An output of the program differs from what the check expects."""


def _fail(message: str) -> None:
    raise CheckError(message)


# --- references ---

def ref_coordinates(kp: np.ndarray) -> np.ndarray:
    """Neck-centred, 1x1-scaled upper-body coordinates of (n, 25, 3) frames as (n, 18)."""
    upper = kp[:, :N_UPPER, :2]
    shifted = upper - upper[:, NECK : NECK + 1, :]
    extent = shifted.max(axis=1) - shifted.min(axis=1)
    return (shifted / extent[:, None, :]).reshape(len(kp), 2 * N_UPPER)


def ref_angles(kp: np.ndarray) -> np.ndarray:
    """Unsigned joint angles of (n, 25, 3) frames, atan2(|a x b|, a . b) / 180 deg, as (n, 5)."""
    pts = kp[:, :N_UPPER, :2]
    out = np.empty((len(kp), len(ANGLE_TRIPLES)))
    for j, (a, v, b) in enumerate(ANGLE_TRIPLES):
        ra = pts[:, a] - pts[:, v]
        rb = pts[:, b] - pts[:, v]
        cross = np.abs(ra[:, 0] * rb[:, 1] - ra[:, 1] * rb[:, 0])
        dot = ra[:, 0] * rb[:, 0] + ra[:, 1] * rb[:, 1]
        out[:, j] = np.degrees(np.arctan2(cross, dot)) / 180.0
    return out


def ref_majority(votes) -> int:
    """Most frequent vote; a tie goes to the most recent of the tied values."""
    counts = Counter(votes)
    best = max(counts.values())
    return next(v for v in reversed(list(votes)) if counts[v] == best)


def round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def parse_sequence_file(text: str) -> tuple[dict, np.ndarray]:
    """Independent reader of the package's sequence format: (metadata, (n, 25, 3) array)."""
    lines = [line for line in text.splitlines() if line.strip()]
    meta = json.loads(lines[0])
    kp = np.array([json.loads(line)["kp"] for line in lines[1:]], dtype=np.float64)
    return meta, kp


# --- stream ---

def ref_capacity(base_len: int, base_fps: float, speed_ratio: float, fps: float) -> int:
    """Documented window length: base_len scaled to the stream's fps and the speed ratio."""
    return max(2, round_half_away(base_len * (fps / base_fps) / speed_ratio))


def ref_cadence(retention: float, capacity: int) -> int:
    """Documented frames between evaluations: ceil((1 - retention) * capacity)."""
    return math.ceil((1.0 - retention) * capacity)


def check_schedule(frame_indices, frames_pushed: int, capacity: int, cadence: int) -> None:
    """Emissions at the capacity, then every cadence frames, up to the frames pushed."""
    expected = list(range(capacity, frames_pushed + 1, cadence))
    if list(frame_indices) != expected:
        _fail(f"emission frames {list(frame_indices)} differ from schedule {expected}")


def check_raw(labels, confidences, ref_labels, ref_confidences, tol: float = 1e-9) -> None:
    """Streamed raw labels and confidences equal a batched offline prediction."""
    labels, ref_labels = np.asarray(labels), np.asarray(ref_labels)
    if labels.shape != ref_labels.shape or not np.array_equal(labels, ref_labels):
        _fail(f"raw labels {labels.tolist()} differ from offline {ref_labels.tolist()}")
    diff = np.abs(np.asarray(confidences) - np.asarray(ref_confidences))
    if diff.size and not diff.max() <= tol:
        _fail(f"confidence differs from offline by {diff.max():.3g} > {tol:g}")


def check_votes(raw, smoothed, vote_n: int) -> None:
    """Each smoothed label is the majority of the last vote_n raw labels."""
    for k, got in enumerate(smoothed):
        want = ref_majority(list(raw)[max(0, k + 1 - vote_n) : k + 1])
        if got != want:
            _fail(f"emission {k}: smoothed {got}, majority vote gives {want}")


def first_gap(kp: np.ndarray) -> tuple[int, int] | None:
    """(frame, keypoint) of the first missing upper-body keypoint, or None."""
    missing = kp[:, :N_UPPER, 2] <= 0.0
    frames = np.flatnonzero(missing.any(axis=1))
    if not len(frames):
        return None
    f = int(frames[0])
    return f, int(np.flatnonzero(missing[f])[0])


def check_gap_failure(failure, kp: np.ndarray) -> None:
    """The stream fails exactly at the first frame with a missing upper-body keypoint."""
    if failure != first_gap(kp):
        _fail(f"stream failed at (frame, keypoint) {failure}, first gap is {first_gap(kp)}")


# --- train ---

def class_counts(pred, labels, n_classes: int) -> np.ndarray:
    """(true, predicted) count matrix."""
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (np.asarray(labels), np.asarray(pred)), 1)
    return counts


def check_class_accuracy(counts: np.ndarray, floor: float) -> None:
    """Every class's held-out accuracy reaches the floor."""
    for c, row in enumerate(counts):
        acc = row[c] / row.sum() if row.sum() else 0.0
        if not acc >= floor:
            _fail(f"class {c}: held-out accuracy {acc:.4f} < {floor}")


def check_confusion_csv(text: str, counts: np.ndarray, names) -> None:
    """eval's confusion.csv holds one row per class whose counts equal ``counts``."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    if header[3:] != list(names):
        _fail(f"confusion.csv columns {header[3:]} differ from {list(names)}")
    seen = set()
    for line in lines[1:]:
        cells = line.split(",")
        c = list(names).index(cells[0])
        n = int(cells[2])
        rates = np.array([float(v) for v in cells[3:]])
        if n != counts[c].sum() or not np.array_equal(np.rint(rates * n), counts[c]):
            _fail(f"confusion.csv row {cells[0]}: n={n} rates {rates.tolist()} "
                  f"disagree with counts {counts[c].tolist()}")
        seen.add(c)
    if seen != {c for c in range(len(counts)) if counts[c].sum()}:
        _fail(f"confusion.csv covers classes {sorted(seen)}")


def check_history(text: str, epochs: int, loss_bound: float) -> float:
    """history.csv has one row per epoch and a final training loss below the bound."""
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    if [int(r[0]) for r in rows] != list(range(1, epochs + 1)):
        _fail(f"history.csv has epochs {[r[0] for r in rows]}, expected 1..{epochs}")
    final = float(rows[-1][1])
    if not final < loss_bound:
        _fail(f"final training loss {final} is not below {loss_bound}")
    return final


def check_identical(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape or a.tobytes() != b.tobytes():
        _fail(f"{what} differ")


# --- prep ---

def check_unit_box(coords: np.ndarray, tol: float = 1e-12) -> None:
    """Every coordinate frame spans exactly 1 in x and y, with the neck at the origin."""
    pts = coords.reshape(len(coords), N_UPPER, 2)
    extent = pts.max(axis=1) - pts.min(axis=1)
    if not np.all(np.abs(extent - 1.0) <= tol):
        _fail(f"coordinate extent off 1 by {np.abs(extent - 1.0).max():.3g}")
    if not np.all(np.abs(pts[:, NECK]) <= tol):
        _fail(f"neck off the origin by {np.abs(pts[:, NECK]).max():.3g}")


def check_angles(angles: np.ndarray, kp: np.ndarray, tol: float = 1e-6) -> None:
    """Angle features equal the atan2 reference."""
    diff = np.abs(angles - ref_angles(kp))
    if not diff.max() <= tol:
        _fail(f"angle feature differs from atan2 reference by {diff.max():.3g}")


def check_rotation(src: np.ndarray, rot: np.ndarray) -> None:
    """Rotation about the vertical axis keeps y, the confidences and the neck x."""
    if src.shape != rot.shape:
        _fail(f"rotation changed the shape {src.shape} -> {rot.shape}")
    if src[..., 1:].tobytes() != rot[..., 1:].tobytes():
        _fail("rotation changed y or a confidence")
    if src[:, NECK, 0].tobytes() != rot[:, NECK, 0].tobytes():
        _fail("rotation moved the neck x")


def check_resample(src: np.ndarray, out: np.ndarray, ratio: float) -> None:
    """Resampling gives max(2, round(n / ratio)) frames with the source's ends at its ends."""
    want = max(2, round_half_away(len(src) / ratio))
    if len(out) != want:
        _fail(f"resampling {len(src)} frames at {ratio:g} gave {len(out)}, expected {want}")
    if out[0].tobytes() != src[0].tobytes() or out[-1].tobytes() != src[-1].tobytes():
        _fail("resampled sequence does not start and end on the source's end frames")


def period_missed(estimate: int | None, period: int, noisy: bool) -> bool:
    """Whether a speed estimate misses the generator's period by more than the
    acceptance tolerance (2 frames noiseless, 3 with noise); None = no estimate."""
    return estimate is None or abs(estimate - period) > (3 if noisy else 2)
