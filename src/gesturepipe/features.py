"""Per-frame feature encodings.

Two representations feed the classifier:

* coordinate: the 9 unit-box normalized upper-body keypoints flattened to 18
  values (x0, y0, ..., x8, y8);
* angle: 5 joint angles (both elbows, both shoulders, the neck) mapped from
  [0, 180] degrees onto [0, 1].

Angles are computed on neck-shifted raw keypoints rather than unit-box
output: the anisotropic 1x1 scaling would distort them.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import IoError, MalformedJson, MissingKeypoint, PipelineError, ZeroLengthRay
from .normalize import N_UPPER, NormalizedPose, normalize_1x1
from .skeleton import Body25, GestureLabel, Pose, Sequence

COORD_DIM = 18
ANGLE_DIM = 5

# (a, vertex, b) keypoint triples: elbows, shoulders, neck
ANGLE_TRIPLES = ((2, 3, 4), (5, 6, 7), (1, 2, 3), (1, 5, 6), (0, 1, 8))


class Encoding(str, Enum):
    COORDINATE = "coordinate"
    ANGLE = "angle"

    @property
    def dim(self) -> int:
        return COORD_DIM if self is Encoding.COORDINATE else ANGLE_DIM


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """One frame's encoded descriptor."""

    values: np.ndarray
    encoding: Encoding

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.encoding.dim,):
            raise ValueError(
                f"{self.encoding.value} features must have length {self.encoding.dim}, "
                f"got shape {vals.shape}"
            )
        if self.encoding is Encoding.ANGLE and (np.any(vals < 0.0) or np.any(vals > 1.0)):
            raise ValueError("angle features must lie in [0, 1]")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def encode_coordinates(np_pose: NormalizedPose) -> FeatureVector:
    """Flatten a fully present normalized pose into an 18-value vector."""
    if not np_pose.present.all():
        missing = int(np.flatnonzero(~np_pose.present)[0])
        raise MissingKeypoint(missing)
    return FeatureVector(np_pose.points.ravel(), Encoding.COORDINATE)


def angle_at(a, vertex, b) -> float:
    """Unsigned angle in degrees [0, 180] between rays vertex->a and vertex->b.

    Taken as atan2(|a x b|, a . b), which stays accurate near 0 and 180
    degrees, where the arccos of the normalized dot product does not.
    """
    vertex = np.asarray(vertex, dtype=np.float64)
    ra = np.asarray(a, dtype=np.float64) - vertex
    rb = np.asarray(b, dtype=np.float64) - vertex
    if not ra.any() or not rb.any():
        raise ZeroLengthRay("angle rays must have nonzero length")
    cross = ra[0] * rb[1] - ra[1] * rb[0]
    dot = ra[0] * rb[0] + ra[1] * rb[1]
    return math.degrees(math.atan2(abs(cross), dot))


def encode_angles(points: np.ndarray) -> FeatureVector:
    """Encode 9 present 2-D upper-body points into 5 normalized joint angles."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape != (N_UPPER, 2):
        raise ValueError(f"expected ({N_UPPER}, 2) points, got {pts.shape}")
    values = np.empty(ANGLE_DIM)
    for j, (a, vertex, b) in enumerate(ANGLE_TRIPLES):
        values[j] = angle_at(pts[a], pts[vertex], pts[b]) / 180.0
    return FeatureVector(values, Encoding.ANGLE)


def encode_frame(pose: Pose, encoding: Encoding) -> FeatureVector:
    """Encode one raw pose under the given representation.

    Both representations require all 9 upper-body keypoints; the first absent
    index is reported via MissingKeypoint.
    """
    if encoding is Encoding.COORDINATE:
        return encode_coordinates(normalize_1x1(pose))
    upper = pose.kp[:N_UPPER]
    present = upper[:, 2] > 0.0
    if not present.all():
        raise MissingKeypoint(int(np.flatnonzero(~present)[0]))
    shifted = upper[:, :2] - upper[Body25.NECK, :2]
    return encode_angles(shifted)


def encode_sequence(seq: Sequence, encoding: Encoding) -> np.ndarray:
    """Encode every frame of a sequence into an (n_frames, dim) matrix.

    Per-frame failures are re-raised with the frame index attached.
    """
    rows = np.empty((len(seq.frames), encoding.dim))
    for i, pose in enumerate(seq.frames):
        try:
            rows[i] = encode_frame(pose, encoding).values
        except MissingKeypoint as exc:
            raise MissingKeypoint(exc.index, f"frame {i}: {exc}") from exc
        except PipelineError as exc:
            raise type(exc)(f"frame {i}: {exc}") from exc
    return rows


def slice_windows(matrix: np.ndarray, window_len: int, stride: int) -> list[np.ndarray]:
    """Cut a feature matrix into (window_len, dim) windows at the given stride."""
    if window_len < 1 or stride < 1:
        raise ValueError("window_len and stride must be positive")
    return [
        matrix[start : start + window_len]
        for start in range(0, matrix.shape[0] - window_len + 1, stride)
    ]


def write_feature_cache(
    path: str | Path,
    windows: list[tuple[np.ndarray, GestureLabel | None]],
    encoding: Encoding,
) -> None:
    """Cache encoded windows to JSONL, one {label, encoding, frames} object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for matrix, label in windows:
            doc = {
                "label": label.name if label is not None else None,
                "encoding": encoding.value,
                "frames": np.asarray(matrix, dtype=np.float64).tolist(),
            }
            fh.write(json.dumps(doc) + "\n")


def read_feature_cache(
    path: str | Path,
) -> tuple[list[tuple[np.ndarray, GestureLabel | None]], Encoding]:
    """Read a cache written by :func:`write_feature_cache`."""
    path = Path(path)
    if not path.is_file():
        raise IoError(f"{path} does not exist")
    windows: list[tuple[np.ndarray, GestureLabel | None]] = []
    encoding: Encoding | None = None
    for i, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            enc = Encoding(doc["encoding"])
            label = GestureLabel[doc["label"]] if doc.get("label") else None
            matrix = np.asarray(doc["frames"], dtype=np.float64)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise MalformedJson(f"{path}: window {i}: {exc}") from exc
        if matrix.ndim != 2 or matrix.shape[1] != enc.dim:
            raise MalformedJson(f"{path}: window {i}: bad frame matrix shape {matrix.shape}")
        if encoding is None:
            encoding = enc
        elif enc is not encoding:
            raise MalformedJson(f"{path}: window {i}: mixed encodings in cache")
        windows.append((matrix, label))
    if encoding is None:
        raise IoError(f"{path} has no windows")
    return windows, encoding
