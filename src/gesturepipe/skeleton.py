"""Pose domain types and OpenPose BODY-25 ingestion.

A frame is 25 keypoints in image coordinates (x rightward, y downward), each
with a confidence in [0, 1]. Confidence 0 marks a missing keypoint whose
coordinates are meaningless and must never feed downstream math. Only
indices 0..8 (nose, neck, both arm chains, mid-hip) are used by the rest of
the pipeline; the remaining 16 are carried through untouched.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import IoError, MalformedJson, NoPerson, PipelineError, WrongArity

log = logging.getLogger(__name__)

N_KEYPOINTS = 25


class Body25(IntEnum):
    """BODY-25 keypoint ids."""
    NOSE = 0
    NECK = 1
    R_SHOULDER = 2
    R_ELBOW = 3
    R_WRIST = 4
    L_SHOULDER = 5
    L_ELBOW = 6
    L_WRIST = 7
    MID_HIP = 8
    R_HIP = 9
    R_KNEE = 10
    R_ANKLE = 11
    L_HIP = 12
    L_KNEE = 13
    L_ANKLE = 14
    R_EYE = 15
    L_EYE = 16
    R_EAR = 17
    L_EAR = 18
    L_BIG_TOE = 19
    L_SMALL_TOE = 20
    L_HEEL = 21
    R_BIG_TOE = 22
    R_SMALL_TOE = 23
    R_HEEL = 24


class GestureLabel(IntEnum):
    """Closed eight-gesture vocabulary; the enum value doubles as the class index.

    Member names are the exact tokens used in files and on the CLI. In this
    vocabulary the "LeftHand" gestures animate the keypoint 2-3-4 chain and
    the "RightHand" gestures the 5-6-7 chain; the side words are display
    labels, not BODY-25 anatomy.
    """
    RightHandLeftCircle = 0
    RightHandRightCircle = 1
    StandStill = 2
    LeftHandWave = 3
    RightHandWave = 4
    CallToPass = 5
    LeftHandRightCircle = 6
    LeftHandLeftCircle = 7


@dataclass(frozen=True, eq=False)
class Pose:
    """One frame of 25 keypoints as a read-only (25, 3) array of x, y, confidence."""

    kp: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.kp, dtype=np.float64)
        if arr.shape != (N_KEYPOINTS, 3):
            raise ValueError(f"pose must have shape ({N_KEYPOINTS}, 3), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("pose contains non-finite values")
        conf = arr[:, 2]
        if np.any(conf < 0.0) or np.any(conf > 1.0):
            raise ValueError("keypoint confidence outside [0, 1]")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "kp", arr)

    def present(self, i: int) -> bool:
        return bool(self.kp[i, 2] > 0.0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Pose) and np.array_equal(self.kp, other.kp)


@dataclass(frozen=True, eq=False)
class Sequence:
    """An ordered run of poses captured at a fixed frame rate."""

    frames: tuple[Pose, ...]
    fps: float
    label: GestureLabel | None = None
    view_angle_deg: float | None = None

    def __post_init__(self):
        frames = tuple(self.frames)
        if not frames:
            raise ValueError("sequence must contain at least one frame")
        if not self.fps > 0:
            raise ValueError("fps must be positive")
        object.__setattr__(self, "frames", frames)

    def __len__(self) -> int:
        return len(self.frames)


def parse_openpose_frame(json_text: str) -> Pose:
    """Parse one OpenPose per-frame output document into the first person's Pose.

    The document carries a ``people`` array whose entries hold
    ``pose_keypoints_2d``: 75 numbers laid out as x, y, confidence triples in
    BODY-25 order. Multi-person frames use the first entry and log a warning.
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
    if raw is None:
        raise MalformedJson("person entry has no 'pose_keypoints_2d'")
    if len(raw) != 3 * N_KEYPOINTS:
        raise WrongArity(f"expected {3 * N_KEYPOINTS} keypoint values, got {len(raw)}")
    try:
        arr = np.asarray(raw, dtype=np.float64).reshape(N_KEYPOINTS, 3)
        return Pose(arr)
    except (TypeError, ValueError) as exc:
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
    return Sequence(tuple(frames), fps, label=label, view_angle_deg=view_angle_deg)


def write_sequence(path: str | Path, seq: Sequence) -> None:
    """Write a Sequence to the line-oriented JSON format used by this package.

    Line 1 is a metadata object {fps, label, view_angle_deg}; every following
    line is a frame object {"kp": [[x, y, c] x 25]}. Floats are written with
    full round-trip precision, so rereading reproduces poses bit for bit.
    """
    meta = {
        "fps": float(seq.fps),
        "label": seq.label.name if seq.label is not None else None,
        "view_angle_deg": None if seq.view_angle_deg is None else float(seq.view_angle_deg),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta) + "\n")
        for pose in seq.frames:
            fh.write(json.dumps({"kp": pose.kp.tolist()}) + "\n")


def read_sequence(path: str | Path) -> Sequence:
    """Read a Sequence written by :func:`write_sequence`."""
    path = Path(path)
    if not path.is_file():
        raise IoError(f"{path} does not exist")
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise IoError(f"{path} is empty")
    try:
        meta = json.loads(lines[0])
        fps = float(meta["fps"])
        label = GestureLabel[meta["label"]] if meta.get("label") else None
        view = meta.get("view_angle_deg")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedJson(f"{path}: bad metadata line: {exc}") from exc
    frames = []
    for i, line in enumerate(lines[1:]):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            frames.append(Pose(np.asarray(doc["kp"], dtype=np.float64)))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise MalformedJson(f"{path}: frame {i}: {exc}") from exc
    if not frames:
        raise IoError(f"{path} has no frames")
    return Sequence(tuple(frames), fps, label=label, view_angle_deg=view)
