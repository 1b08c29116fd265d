"""View-angle augmentation and speed resampling.

Rotated-view samples are synthesized from frontal recordings by assigning
manual relative depths to the arm keypoints (2..7), rotating the resulting
pseudo-3D skeleton about the vertical axis through the neck, and dropping the
depth again (orthographic projection). Execution speed is simulated by
linear interpolation between frames.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    InvalidConfig,
    IoError,
    MissingKeypoint,
    NonPositiveRatio,
    PipelineError,
    TooShort,
    UnknownLabel,
)
from .skeleton import Body25, GestureLabel, Pose, Sequence

# keypoints carrying manual depth estimates, in table column order
ARM_KEYPOINTS = tuple(range(2, 8))

DepthTable = dict[GestureLabel, tuple[float, ...]]


@dataclass(frozen=True)
class RotationSpec:
    """Rotation about the vertical axis through the neck.

    Positive angles turn the subject so the keypoint-2 shoulder moves toward
    the camera; negative angles turn the other way.
    """

    angle_deg: float

    def __post_init__(self):
        if not abs(self.angle_deg) <= 90.0:
            raise InvalidConfig(f"|angle_deg| must be <= 90, got {self.angle_deg}")


def rotate_pose(pose: Pose, depths, spec: RotationSpec) -> Pose:
    """Rotate one pose about the vertical axis through the neck and reproject.

    ``depths`` holds six relative depths for keypoints 2..7 as fractions of
    the pose's shoulder width (pixel distance between keypoints 2 and 5);
    positive is farther from the camera. All other keypoints rotate with
    depth 0. y coordinates and confidences pass through untouched.
    """
    depths = tuple(float(d) for d in depths)
    if len(depths) != len(ARM_KEYPOINTS):
        raise InvalidConfig(f"expected {len(ARM_KEYPOINTS)} depths, got {len(depths)}")
    if not pose.present(Body25.NECK):
        raise MissingKeypoint(int(Body25.NECK))
    for i in ARM_KEYPOINTS:
        if not pose.present(i):
            raise MissingKeypoint(i)

    kp = np.array(pose.kp)
    neck_x = kp[Body25.NECK, 0]
    shoulder_w = math.hypot(
        kp[Body25.R_SHOULDER, 0] - kp[Body25.L_SHOULDER, 0],
        kp[Body25.R_SHOULDER, 1] - kp[Body25.L_SHOULDER, 1],
    )
    theta = math.radians(spec.angle_deg)
    c, s = math.cos(theta), math.sin(theta)

    z = np.zeros(kp.shape[0])
    z[list(ARM_KEYPOINTS)] = np.asarray(depths) * shoulder_w
    present = kp[:, 2] > 0.0
    x_rel = kp[present, 0] - neck_x
    kp[present, 0] = neck_x + x_rel * c - z[present] * s
    return Pose(kp)


def rotate_sequence(seq: Sequence, table: DepthTable, spec: RotationSpec) -> Sequence:
    """Rotate every frame with the depth row of the sequence's label."""
    if seq.label is None or seq.label not in table:
        name = seq.label.name if seq.label is not None else "<unlabeled>"
        raise UnknownLabel(f"no depth row for {name}")
    depths = table[seq.label]
    frames = []
    for i, pose in enumerate(seq.frames):
        try:
            frames.append(rotate_pose(pose, depths, spec))
        except MissingKeypoint as exc:
            raise MissingKeypoint(exc.index, f"frame {i}: {exc}") from exc
        except PipelineError as exc:
            raise type(exc)(f"frame {i}: {exc}") from exc
    return Sequence(tuple(frames), seq.fps, label=seq.label, view_angle_deg=spec.angle_deg)


def resample_speed(seq: Sequence, ratio: float) -> Sequence:
    """Resample a sequence to simulate execution at ``ratio`` times its speed.

    The output has round(n / ratio) frames (half away from zero, at least 2);
    output frame j samples source position t = j * (n - 1) / (out - 1), with
    non-integer positions linearly interpolated per keypoint. Interpolated
    confidence is the minimum of the two neighbors, so a keypoint missing on
    either side stays missing.
    """
    if not ratio > 0:
        raise NonPositiveRatio(f"speed ratio must be positive, got {ratio}")
    n = len(seq.frames)
    if n < 2:
        raise TooShort("need at least 2 frames to resample")
    out_len = max(2, math.floor(n / ratio + 0.5))
    src = np.stack([f.kp for f in seq.frames])
    frames: list[Pose] = []
    for j in range(out_len):
        t = j * (n - 1) / (out_len - 1)
        i0 = int(math.floor(t))
        alpha = t - i0
        if alpha == 0.0:
            frames.append(seq.frames[i0])
            continue
        a, b = src[i0], src[i0 + 1]
        conf = np.minimum(a[:, 2], b[:, 2])
        xy = a[:, :2] + alpha * (b[:, :2] - a[:, :2])
        xy[conf == 0.0] = 0.0
        frames.append(Pose(np.column_stack([xy, conf])))
    return Sequence(tuple(frames), seq.fps, label=seq.label, view_angle_deg=seq.view_angle_deg)


def parse_depth_table(text: str) -> DepthTable:
    """Parse the depth config format: one row per gesture, '#' comments.

    Each row is a gesture label followed by six depths for keypoints 2..7.
    """
    table: DepthTable = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 1 + len(ARM_KEYPOINTS):
            raise InvalidConfig(f"depth table line {lineno}: expected label + 6 values")
        try:
            label = GestureLabel[fields[0]]
        except KeyError as exc:
            raise UnknownLabel(f"depth table line {lineno}: unknown gesture {fields[0]!r}") from exc
        try:
            values = tuple(float(v) for v in fields[1:])
        except ValueError as exc:
            raise InvalidConfig(f"depth table line {lineno}: bad number: {exc}") from exc
        if label in table:
            raise InvalidConfig(f"depth table line {lineno}: duplicate row for {label.name}")
        table[label] = values
    return table


def load_depth_table(path: str | Path) -> DepthTable:
    path = Path(path)
    if not path.is_file():
        raise IoError(f"{path} does not exist")
    return parse_depth_table(path.read_text(encoding="utf-8"))


def default_depth_table() -> DepthTable:
    """The depth table shipped with the package (see data/depths.cfg)."""
    text = resources.files("gesturepipe").joinpath("data/depths.cfg").read_text(encoding="utf-8")
    return parse_depth_table(text)
