"""Pose domain types and OpenPose BODY-25 ingestion.

A frame is 25 keypoints in image coordinates (x rightward, y downward), each
with a confidence in [0, 1]. Confidence 0 marks a missing keypoint whose
coordinates are meaningless and must never feed downstream math. Only the
upper body named below (nose, neck, both arm chains, mid-hip) is used by the
rest of the pipeline; the remaining 16 are carried through untouched.
"""
from __future__ import annotations

import json
import logging
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import IoError, MalformedJson, NoPerson, PipelineError

log = logging.getLogger(__name__)

N_KEYPOINTS = 25
# the upper body the pipeline reads, the BODY-25 ids below N_UPPER: the nose,
# the neck, the mid-hip and two arm chains, each (shoulder, elbow, wrist)
NOSE, NECK, MID_HIP = 0, 1, 8
ARM_A, ARM_B = (2, 3, 4), (5, 6, 7)
N_UPPER = 9
# the longest sequence synthesis or resampling writes, and the longest stream window
MAX_FRAMES = 100_000  # about 60 MB of keypoints; a longer one is refused before it is allocated

# write_sequence formats this many frames with one % and one write, which keeps
# the text of a long recording in bounded memory
_FRAMES_PER_WRITE = 256
# one frame line exactly as json.dumps({"kp": frame.tolist()}) writes it: %r of
# a finite float is float.__repr__, which json.dumps uses too
_FRAME_LINE = '{"kp": [' + ", ".join(["[%r, %r, %r]"] * N_KEYPOINTS) + "]}\n"


class GestureLabel(IntEnum):
    """Closed eight-gesture vocabulary; the enum value doubles as the class index.

    Member names are the exact tokens used in files and on the CLI. The
    "LeftHand" gestures animate chain A (ids 2-3-4) and the "RightHand"
    gestures chain B (ids 5-6-7).
    """
    RightHandLeftCircle = 0
    RightHandRightCircle = 1
    StandStill = 2
    LeftHandWave = 3
    RightHandWave = 4
    CallToPass = 5
    LeftHandRightCircle = 6
    LeftHandLeftCircle = 7


def _keypoint_frames(frames) -> np.ndarray:
    """T frames, as (25, 3) arrays, nested lists or poses, in a new read-only
    float64 (T, 25, 3) array, checked once: a ValueError names the first frame
    of another shape, with a non-finite value or with a confidence outside
    [0, 1], by its index among the frames, and carries that index as ``frame``.
    """
    if not len(frames):
        raise ValueError("a sequence needs at least one frame")
    try:
        kp = np.array(frames, dtype=np.float64)
    except (TypeError, ValueError):
        kp = np.empty(0)
    if kp.shape[1:] != (N_KEYPOINTS, 3):
        t = next((i for i, f in enumerate(frames) if np.shape(f) != (N_KEYPOINTS, 3)), 0)
        error = ValueError(f"frame {t}: a pose must have shape ({N_KEYPOINTS}, 3)")
    elif not (np.isfinite(kp).all() and kp[..., 2].min() >= 0.0 and kp[..., 2].max() <= 1.0):
        conf, finite = kp[..., 2], np.isfinite(kp).all(axis=2)
        t, k = np.argwhere(~finite | (conf < 0.0) | (conf > 1.0))[0]
        what = "a confidence outside [0, 1]" if finite[t, k] else "a non-finite value"
        error = ValueError(f"frame {t}: keypoint {k} has {what}")
    else:
        kp.setflags(write=False)
        return kp
    error.frame = int(t)
    raise error


@dataclass(frozen=True, eq=False)
class Pose:
    """One frame of 25 keypoints as a read-only (25, 3) array of x, y, confidence,
    checked as a one-frame sequence."""

    kp: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kp", _keypoint_frames((self.kp,))[0])

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.kp, dtype=dtype, copy=copy)


@dataclass(frozen=True, eq=False)
class Sequence:
    """T frames at a fixed frame rate as one read-only (T, 25, 3) float64 array
    ``kp``, copied and checked once from what :func:`_keypoint_frames` takes.
    ``fps`` is a finite positive number; ``view_angle_deg`` is None or a finite
    number."""

    kp: np.ndarray
    fps: float
    label: GestureLabel | None = None
    view_angle_deg: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kp", _keypoint_frames(self.kp))
        if isinstance(self.fps, bool) or not isinstance(self.fps, numbers.Real):
            raise ValueError(f"fps must be a number, got {self.fps!r}")
        if not self.fps > 0:
            raise ValueError("fps must be positive")
        if self.fps == math.inf:
            raise ValueError("fps must be finite")
        view = self.view_angle_deg
        if view is not None and (
            isinstance(view, bool) or not isinstance(view, numbers.Real) or not math.isfinite(view)
        ):
            raise ValueError(f"view_angle_deg must be null or a finite number, got {view!r}")

    @cached_property
    def frames(self) -> tuple[Pose, ...]:
        """One pose per frame, each a view of its row of ``kp``: no copy, no second check."""
        poses = tuple(object.__new__(Pose) for _ in self.kp)
        for pose, row in zip(poses, self.kp):
            object.__setattr__(pose, "kp", row)
        return poses

    def __len__(self) -> int:
        return len(self.kp)


def parse_openpose_frame(json_text: str) -> np.ndarray:
    """Parse one OpenPose per-frame output document into the first person's keypoints.

    The document carries a ``people`` array whose entries hold
    ``pose_keypoints_2d``: 75 numbers laid out as x, y, confidence triples in
    BODY-25 order. Multi-person frames use the first entry and log a warning.
    The (25, 3) array is not range-checked; :func:`load_sequence` checks all frames.
    """
    try:
        doc = json.loads(json_text)
    except json.JSONDecodeError as exc:
        raise MalformedJson(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "people" not in doc:
        raise MalformedJson("document has no 'people' array")
    people = doc["people"]
    if not isinstance(people, list):
        raise MalformedJson("'people' is not an array")
    if not people:
        raise NoPerson("no person detected in frame")
    if len(people) > 1:
        log.warning("frame has %d people; using the first", len(people))
    raw = people[0].get("pose_keypoints_2d") if isinstance(people[0], dict) else None
    if not isinstance(raw, list):
        raise MalformedJson("person entry has no 'pose_keypoints_2d' array")
    if len(raw) != 3 * N_KEYPOINTS:
        raise MalformedJson(f"expected {3 * N_KEYPOINTS} keypoint values, got {len(raw)}")
    if not set(map(type, raw)) <= {int, float}:  # numpy would read "320" as 320 and true as 1
        i = next(i for i, v in enumerate(raw) if type(v) not in (int, float))
        raise MalformedJson(f"keypoint {i // 3}: {json.dumps(raw[i])} is not a JSON number")
    try:
        return np.asarray(raw, dtype=np.float64).reshape(N_KEYPOINTS, 3)
    except OverflowError as exc:  # an integer beyond float range
        raise MalformedJson(f"bad keypoint values: {exc}") from exc


def load_sequence(
    path: str | Path,
    fps: float,
    label: GestureLabel | None = None,
    view_angle_deg: float | None = None,
) -> Sequence:
    """Load OpenPose output into a Sequence.

    ``path`` is either a directory of per-frame ``*.json`` files (frame order =
    lexicographic filename order) or a JSONL file with one frame document per
    line. Per-frame parse errors are re-raised with the 0-based frame index.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix == ".json" and p.is_file())
        if not files:
            raise IoError(f"no frames in {path}")
        texts = [(p.name, p.read_text(encoding="utf-8")) for p in files]
    elif path.is_file():
        lines = path.read_text(encoding="utf-8").splitlines()
        texts = [(f"line {i}", line) for i, line in enumerate(lines) if line.strip()]
        if not texts:
            raise IoError(f"no frames in {path}")
    else:
        raise IoError(f"{path} does not exist")

    frames = []
    for i, (name, text) in enumerate(texts):
        try:
            frames.append(parse_openpose_frame(text))
        except PipelineError as exc:
            raise type(exc)(f"frame {i} ({name}): {exc}") from exc
    try:
        return Sequence(frames, fps, label=label, view_angle_deg=view_angle_deg)
    except ValueError as exc:
        if not hasattr(exc, "frame"):
            raise
        raise MalformedJson(f"{exc} ({texts[exc.frame][0]})") from exc


def write_sequence(path: str | Path, seq: Sequence) -> None:
    """Write a Sequence to the line-oriented JSON format used by this package.

    Line 1 is a metadata object {fps, label, view_angle_deg}; every following
    line is a frame object {"kp": [[x, y, c] x 25]}, byte for byte what
    ``json.dumps`` writes. Floats are written with full round-trip precision,
    so rereading reproduces poses bit for bit, and the checks of
    :class:`Sequence` keep every number finite, so the file is strict JSON.
    """
    meta = {
        "fps": float(seq.fps),
        "label": seq.label.name if seq.label is not None else None,
        "view_angle_deg": None if seq.view_angle_deg is None else float(seq.view_angle_deg),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta) + "\n")
        for start in range(0, len(seq.kp), _FRAMES_PER_WRITE):
            block = seq.kp[start:start + _FRAMES_PER_WRITE]
            fh.write((_FRAME_LINE * len(block)) % tuple(block.ravel().tolist()))


def read_sequence(path: str | Path) -> Sequence:
    """Read a Sequence written by :func:`write_sequence`."""
    path = Path(path)
    if not path.is_file():
        raise IoError(f"{path} does not exist")
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise IoError(f"{path} is empty")
    try:
        meta = json.loads(lines[0], parse_int=float)  # so an int beyond float range reads as inf
        fps = meta["fps"]
        label = GestureLabel[meta["label"]] if meta.get("label") else None
        view = meta.get("view_angle_deg")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedJson(f"{path}: bad metadata line: {exc}") from exc
    frames = []
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            kp = json.loads(line)["kp"]
            # the one string on a frame line is its "kp" key, and true, false and null each hold
            # a t, f or n, which no JSON number does: a scan of the text, not of every value
            if line.count('"') != 2 or "t" in line or "f" in line or "n" in line:
                raise ValueError("a keypoint value is not a JSON number")
            frames.append(np.asarray(kp, dtype=np.float64))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedJson(f"{path}: frame {len(frames)}: {exc}") from exc
    if not frames:
        raise IoError(f"{path} has no frames")
    try:
        return Sequence(frames, fps, label=label, view_angle_deg=view)
    except ValueError as exc:
        raise MalformedJson(f"{path}: {exc}") from exc
