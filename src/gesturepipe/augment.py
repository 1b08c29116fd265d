"""View-angle augmentation and speed resampling.

Rotated-view samples are synthesized from frontal recordings by assigning
manual relative depths to the keypoints of both arm chains, rotating the
resulting pseudo-3D skeleton about the vertical axis through the neck, and
dropping the depth again (orthographic projection). Execution speed is
simulated by linear interpolation between frames.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, IoError, MissingKeypoint, TooShort, UnknownLabel
from .skeleton import ARM_A, ARM_B, MAX_FRAMES, NECK, GestureLabel, Sequence

# keypoints carrying manual depth estimates, in table column order
ARM_KEYPOINTS = ARM_A + ARM_B

DepthTable = dict[GestureLabel, tuple[float, ...]]


@dataclass(frozen=True)
class RotationSpec:
    """Rotation about the vertical axis through the neck.

    Positive angles turn the subject so the chain A shoulder moves toward
    the camera; negative angles turn the other way.
    """

    angle_deg: float

    def __post_init__(self):
        if not abs(self.angle_deg) <= 90.0:
            raise InvalidConfig(f"|angle_deg| must be <= 90, got {self.angle_deg}")


def rotate_sequence(seq: Sequence, table: DepthTable, spec: RotationSpec) -> Sequence:
    """Rotate every frame about the vertical axis through its neck and reproject.

    The label's table row holds six relative depths for ``ARM_KEYPOINTS``, as
    fractions of each frame's shoulder width (pixel distance between the
    two shoulders); positive is farther from the camera. All other
    keypoints rotate with depth 0; y, confidences and missing keypoints pass
    through untouched. MissingKeypoint names the first frame lacking the
    neck or an arm keypoint.
    """
    if seq.label is None or seq.label not in table:
        name = seq.label.name if seq.label is not None else "<unlabeled>"
        raise UnknownLabel(f"no depth row for {name}")
    depths = np.array([float(d) for d in table[seq.label]])
    if len(depths) != len(ARM_KEYPOINTS):
        raise InvalidConfig(f"expected {len(ARM_KEYPOINTS)} depths, got {len(depths)}")
    needed = [NECK, *ARM_KEYPOINTS]
    missing = seq.kp[:, needed, 2] <= 0.0
    if missing.any():
        t, k = np.argwhere(missing)[0]
        raise MissingKeypoint(needed[k], f"frame {t}: keypoint {needed[k]} is missing")

    kp = np.array(seq.kp)
    neck_x = kp[:, NECK, 0, None]
    # math.hypot, not np.hypot: the two differ in the last bit for some inputs
    shoulder = kp[:, ARM_A[0], :2] - kp[:, ARM_B[0], :2]
    shoulder_w = np.array([math.hypot(dx, dy) for dx, dy in shoulder.tolist()])
    theta = math.radians(spec.angle_deg)
    c, s = math.cos(theta), math.sin(theta)

    z = np.zeros(kp.shape[:2])
    x = kp[:, :, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # Sequence refuses what overflows, below
        z[:, ARM_KEYPOINTS] = depths * shoulder_w[:, None]
        kp[:, :, 0] = np.where(kp[:, :, 2] > 0.0, neck_x + (x - neck_x) * c - z * s, x)
    try:
        return Sequence(kp, seq.fps, label=seq.label, view_angle_deg=spec.angle_deg)
    except ValueError as exc:  # only x changed, so only a rotated x can be out of range
        raise InvalidConfig(f"rotating {seq.label.name} by {spec.angle_deg:g} degrees: {exc}") from exc


def resample_speed(seq: Sequence, ratio: float) -> Sequence:
    """Resample a sequence to simulate execution at ``ratio`` times its speed.

    The output has round(n / ratio) frames (half away from zero, at least 2);
    output frame j samples source position t = j * (n - 1) / (out - 1), with
    non-integer positions linearly interpolated per keypoint. Interpolated
    confidence is the minimum of the two neighbors, so a keypoint missing on
    either side stays missing. Integer positions copy their frame exactly. An
    output longer than ``MAX_FRAMES`` is refused before anything is allocated.
    """
    if not ratio > 0:
        raise InvalidConfig(f"speed ratio must be positive, got {ratio}")
    n = len(seq)
    if n < 2:
        raise TooShort("need at least 2 frames to resample")
    if n / ratio + 0.5 >= MAX_FRAMES + 1:  # round(n / ratio) > MAX_FRAMES, and no overflow at tiny ratios
        raise InvalidConfig(f"speed ratio {ratio:g} would resample {n} frames to {n / ratio:.3g}, over {MAX_FRAMES}")
    out_len = max(2, math.floor(n / ratio + 0.5))
    t = np.arange(out_len) * (n - 1) / (out_len - 1)
    i0 = np.floor(t).astype(np.intp)
    alpha = t - i0
    a, b = seq.kp[i0], seq.kp[np.minimum(i0 + 1, n - 1)]
    conf = np.minimum(a[:, :, 2], b[:, :, 2])
    with np.errstate(over="ignore", invalid="ignore"):  # Sequence refuses what overflows, below
        xy = a[:, :, :2] + alpha[:, None, None] * (b[:, :, :2] - a[:, :, :2])
    xy[conf == 0.0] = 0.0
    out = np.concatenate([xy, conf[:, :, None]], axis=2)
    out[alpha == 0.0] = a[alpha == 0.0]
    try:
        return Sequence(out, seq.fps, label=seq.label, view_angle_deg=seq.view_angle_deg)
    except ValueError as exc:  # only an interpolated x or y can be out of range, near the float limit
        raise InvalidConfig(f"resampling {getattr(seq.label, 'name', 'an unlabeled sequence')} "
                            f"at speed ratio {ratio:g}: {exc}") from exc


def parse_depth_table(text: str) -> DepthTable:
    """Parse the depth config format: one row per gesture, '#' comments.

    Each row is a gesture label followed by six finite depths for ``ARM_KEYPOINTS``.
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
        if not all(map(math.isfinite, values)):
            raise InvalidConfig(f"depth table line {lineno}: depths must be finite")
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
