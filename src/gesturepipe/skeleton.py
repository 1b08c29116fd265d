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
import sys
from dataclasses import dataclass
from functools import cached_property
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import IoError, MalformedJson, NoPerson, PipelineError, at

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
    float64 (T, 25, 3) array, checked once: the first frame of another shape,
    with a non-finite value or with a confidence outside [0, 1] is a ValueError
    that carries its index among the frames as ``frame`` (:func:`~.errors.at`).
    """
    if not len(frames):
        raise ValueError("a sequence needs at least one frame")
    try:
        kp = np.array(frames, dtype=np.float64)
    except (TypeError, ValueError):
        kp = np.empty(0)
    if kp.shape[1:] != (N_KEYPOINTS, 3):
        t = next((i for i, f in enumerate(frames) if np.shape(f) != (N_KEYPOINTS, 3)), 0)
        error = ValueError(f"a pose must have shape ({N_KEYPOINTS}, 3)")
    elif not (np.isfinite(kp).all() and kp[..., 2].min() >= 0.0 and kp[..., 2].max() <= 1.0):
        conf, finite = kp[..., 2], np.isfinite(kp).all(axis=2)
        t, k = np.argwhere(~finite | (conf < 0.0) | (conf > 1.0))[0]
        what = "a confidence outside [0, 1]" if finite[t, k] else "a non-finite value"
        error = ValueError(f"keypoint {k} has {what}")
    else:
        kp.setflags(write=False)
        return kp
    raise at(error, frame=int(t))


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
    ``fps``, a finite positive number, is stored as a float, ``view_angle_deg``
    as None or a finite float, and ``label`` must be a GestureLabel or None."""

    kp: np.ndarray
    fps: float
    label: GestureLabel | None = None
    view_angle_deg: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kp", _keypoint_frames(self.kp))
        fps, view = self.fps, self.view_angle_deg
        if isinstance(fps, bool) or not isinstance(fps, numbers.Real):
            raise ValueError(f"fps must be a number, got {fps!r}")
        if not fps > 0:
            raise ValueError("fps must be positive")
        if not fps <= sys.float_info.max:  # an exact comparison: inf and an int beyond float range fail it
            raise ValueError("fps must be finite")
        object.__setattr__(self, "fps", float(fps))
        if view is not None:
            if isinstance(view, bool) or not isinstance(view, numbers.Real) or not abs(view) <= sys.float_info.max:
                raise ValueError(f"view_angle_deg must be null or a finite number, got {view!r}")
            object.__setattr__(self, "view_angle_deg", float(view))
        if self.label is not None and not isinstance(self.label, GestureLabel):
            raise ValueError(f"label must be a GestureLabel or None, got {self.label!r}")

    @cached_property
    def frames(self) -> tuple[Pose, ...]:
        """One pose per frame, each a view of its row of ``kp``: no copy, no second check."""
        poses = tuple(object.__new__(Pose) for _ in self.kp)
        for pose, row in zip(poses, self.kp):
            object.__setattr__(pose, "kp", row)
        return poses

    def __len__(self) -> int:
        return len(self.kp)


def _finite_int(text: str) -> int:
    if math.isfinite(float(text)):
        return int(text)
    raise ValueError(f"{text:.12}{'...' * (len(text) > 12)} is not a finite JSON number")


def _unique_names(pairs: list) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        name = next(name for i, (name, _) in enumerate(pairs) if name in dict(pairs[:i]))
        raise ValueError(f"name {name!r} is given twice")
    return doc


# one decoder, built once (a decoder per call costs more than parsing a frame line), whose
# constant hook refuses NaN, Infinity and -Infinity, whose int hook refuses an integer beyond
# float range (one of at most 308 characters is below 10**308, so only a longer one needs the
# float test) and whose object hook refuses an object that gives one name twice
_DECODER = json.JSONDecoder(parse_int=lambda text: int(text) if len(text) <= 308 else _finite_int(text),
                            parse_constant=_finite_int, object_pairs_hook=_unique_names)


def load_json(data: bytes | str, where: str | None):
    """The package's one JSON step: the value in ``data``, UTF-8 bytes or text.
    Bytes that are not UTF-8, text that is not JSON, nesting past the parser's
    stack, a number ``_finite_int`` refuses and a name given twice in one object
    are MalformedJson "<where>: <cause>", or the cause alone if ``where`` is None."""
    try:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        return _DECODER.decode(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:
        raise MalformedJson(exc if where is None else f"{where}: {exc}") from exc


def json_numbers(values, n: int, what: str) -> np.ndarray:
    """``values`` as a float64 array if it is a JSON array of ``n`` finite numbers,
    else MalformedJson naming ``what``: numpy would read "320" as 320, true as 1
    and null as nan, and a float beyond range reads as inf."""
    if isinstance(values, list) and len(values) == n and set(map(type, values)) <= {int, float}:
        row = np.array(values, dtype=np.float64)
        if np.isfinite(row).all():
            return row
    raise MalformedJson(f"{what} is not an array of {n} finite JSON numbers")


def gesture_table(rows, n: int, path, name: str, row: str) -> dict[GestureLabel, np.ndarray]:
    """``rows``, decoded JSON named ``name``, as a float64 array per gesture if it is an object
    from gesture names to arrays of ``n`` finite numbers. Before any row is read, a ``rows``
    that is not an object is TypeError and a name that is no gesture KeyError, for the caller
    to word; a bad row is :func:`json_numbers`'s MalformedJson naming ``path``, gesture and ``row``."""
    if not isinstance(rows, dict):
        raise TypeError(f"{name} is not an object")
    labels = [GestureLabel[gesture] for gesture in rows]
    return {label: json_numbers(v, n, f"{path}: {label.name} {row}") for label, v in zip(labels, rows.values())}


def parse_openpose_frame(json_text: bytes | str) -> np.ndarray:
    """The first person's (25, 3) keypoints in one OpenPose per-frame document,
    whose ``people`` entries hold ``pose_keypoints_2d``, 75 numbers as x, y,
    confidence triples in BODY-25 order. A multi-person frame uses the first entry
    and logs a warning. No range check; :func:`load_sequence` checks all frames."""
    doc = load_json(json_text, "document")
    people = doc.get("people") if isinstance(doc, dict) else None
    if not isinstance(people, list):
        raise MalformedJson("document has no 'people' array")
    if not people:
        raise NoPerson("no person detected in frame")
    if len(people) > 1:
        log.warning("frame has %d people; using the first", len(people))
    raw = people[0].get("pose_keypoints_2d") if isinstance(people[0], dict) else None
    return json_numbers(raw, 3 * N_KEYPOINTS, "pose_keypoints_2d").reshape(N_KEYPOINTS, 3)


def _read_frames(path: Path, texts: list, parse, fps, label, view_angle_deg) -> Sequence:
    """The one frame step of both readers: a Sequence of ``texts``, one (place, text) pair
    per frame, each text read by ``parse``. No frames is IoError. A frame that ``parse``
    refuses keeps its refusal's class, and a frame the Sequence's check refuses is
    MalformedJson; both carry ``path``, ``frame`` (counted from 0) and ``place``, so
    they read "<path>: frame <i> (<place>): <cause>". A ValueError that names no frame
    (fps, label or view angle) is raised as it is."""
    if not texts:
        raise IoError(f"no frames in {path}")
    frames = []
    try:
        for _, text in texts:
            frames.append(parse(text))
        return Sequence(frames, fps, label=label, view_angle_deg=view_angle_deg)
    except PipelineError as exc:
        raise at(exc, path=path, frame=len(frames), place=texts[len(frames)][0])
    except ValueError as exc:
        if not hasattr(exc, "frame"):
            raise
        raise at(MalformedJson(exc), path=path, frame=exc.frame, place=texts[exc.frame][0]) from exc


def load_sequence(
    path: str | Path,
    fps: float,
    label: GestureLabel | None = None,
    view_angle_deg: float | None = None,
) -> Sequence:
    """Load OpenPose output into a Sequence: a directory of per-frame ``*.json``
    files, in filename order, or a JSONL file with one frame document per line,
    blank lines skipped. A frame's refusal reads "<path>: frame <i> (line <j>): <cause>",
    i counted from 0 and j from 1, or "(<name>.json)" for a file of a directory."""
    path = Path(path)
    if path.is_dir():
        texts = [(p.name, p.read_bytes()) for p in sorted(path.iterdir()) if p.suffix == ".json" and p.is_file()]
    elif path.is_file():
        texts = [(f"line {j}", line) for j, line in enumerate(path.read_bytes().splitlines(), 1) if line.strip()]
    else:
        raise IoError(f"{path} does not exist")
    return _read_frames(path, texts, parse_openpose_frame, fps, label, view_angle_deg)


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


_T, _F, _N = b"tfn"  # as ints: a bytes line finds an int faster than a one-byte string


def _frame_line(line: bytes) -> np.ndarray:
    """One frame line of a sequence file as an array; its refusal is MalformedJson naming only the cause."""
    doc = load_json(line, None)
    try:
        # the one string on a frame line is its "kp" key, and true, false and null each hold
        # a t, f or n, which no JSON number does: a scan of the text, not of every value
        if line.count(b'"') != 2 or _T in line or _F in line or _N in line:
            raise ValueError("a keypoint value is not a JSON number")
        return np.asarray(doc["kp"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedJson(exc) from exc


def read_sequence(path: str | Path) -> Sequence:
    """Read a Sequence written by :func:`write_sequence`, blank lines skipped. A frame's
    refusal reads "<path>: frame <i> (line <j>): <cause>", i counted from 0 and j from 1,
    the metadata being line 1."""
    path = Path(path)
    if not path.is_file():
        raise IoError(f"{path} does not exist")
    lines = path.read_bytes().splitlines()
    if not lines:
        raise IoError(f"{path} is empty")
    meta = load_json(lines[0], f"{path}: bad metadata line")
    try:
        fps = meta["fps"]
        label = None if meta.get("label") is None else GestureLabel[meta["label"]]
        view = meta.get("view_angle_deg")
    except (KeyError, TypeError) as exc:
        raise MalformedJson(f"{path}: bad metadata line: {exc}") from exc
    texts = [(f"line {j}", line) for j, line in enumerate(lines[1:], 2) if line.strip()]
    try:
        return _read_frames(path, texts, _frame_line, fps, label, view)
    except ValueError as exc:  # the metadata's fps or view angle
        raise at(MalformedJson(exc), path=path) from exc
