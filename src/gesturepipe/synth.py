"""Seeded synthetic generator for the eight-gesture vocabulary.

Builds labeled keypoint sequences from a fixed 2-joint arm model over a
static torso, in image coordinates (y grows downward). The "LeftHand"
gestures animate arm chain A (image left), the "RightHand" gestures chain B
(image right). Circles place the elbow by two-bone inverse kinematics with a
deterministic outward branch; waves oscillate the wrist vertically;
CallToPass holds the chain A arm out horizontally while the other wrist
loops through a small beckoning cycle.

A sequence is built by whole-sequence array operations, with no per-frame
loop. Cyclic phases are computed from the integer frame index modulo the
period, so noiseless frames exactly one period apart are bitwise identical
and a clockwise cycle replays a counter-clockwise one in reverse frame order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import InvalidConfig, at
from .skeleton import ARM_A, ARM_B, MAX_FRAMES, MID_HIP, N_KEYPOINTS, N_UPPER, NOSE, GestureLabel, Sequence

# body proportions as fractions of the shoulder width
NOSE_RAISE = 0.35
HIP_DROP = 1.25
UPPER_ARM = 0.45
FOREARM = 0.42
CIRCLE_RADIUS = 0.6
WAVE_AMPLITUDE = 0.5
WAVE_SIDE_REACH = 0.30
WAVE_CENTER_RAISE = 0.20
BECKON_RADIUS = 0.15
BECKON_CENTER = (0.35, -0.30)

# each arm chain with its horizontal side sign
CHAIN_A = (ARM_A, -1.0)
CHAIN_B = (ARM_B, +1.0)

# every moving gesture, in GestureLabel order: the chain it animates, its
# motion and its direction of travel; StandStill, absent here, holds still
MOTIONS = {
    GestureLabel.RightHandLeftCircle: (CHAIN_B, "circle", -1),
    GestureLabel.RightHandRightCircle: (CHAIN_B, "circle", +1),
    GestureLabel.LeftHandWave: (CHAIN_A, "wave", +1),
    GestureLabel.RightHandWave: (CHAIN_B, "wave", +1),
    GestureLabel.CallToPass: (CHAIN_B, "beckon", +1),
    GestureLabel.LeftHandRightCircle: (CHAIN_A, "circle", +1),
    GestureLabel.LeftHandLeftCircle: (CHAIN_A, "circle", -1),
}
# the shortest period, in frames, of the cyclic gestures
MIN_CYCLIC_PERIOD = 4


@dataclass(frozen=True)
class SynthConfig:
    gesture: GestureLabel
    n_frames: int = 100
    fps: float = 30.0
    period_frames: int = 30
    noise_sigma: float = 0.0
    subject_scale: float = 100.0
    offset: tuple[float, float] = (320.0, 180.0)
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n_frames <= MAX_FRAMES:
            raise InvalidConfig(f"n_frames must lie in [1, {MAX_FRAMES}], got {self.n_frames}")
        if not 0 < self.fps < math.inf:
            raise InvalidConfig("fps must be positive and finite")
        if not self.subject_scale > 0:
            raise InvalidConfig("subject_scale must be positive")
        if self.noise_sigma < 0:
            raise InvalidConfig("noise_sigma must be nonnegative")
        min_period = MIN_CYCLIC_PERIOD if self.gesture in MOTIONS else 1
        if self.period_frames < min_period:
            raise InvalidConfig(
                f"period_frames must be >= {min_period} for {self.gesture.name}"
            )


@dataclass(frozen=True)
class JitterSpec:
    """Inclusive parameter ranges for dataset generation.

    ``noise_frac`` draws the noise sigma as a fraction of the drawn subject
    scale. Every range must lie inside the generator's domain, since
    :func:`generate_dataset` draws every gesture from it: a period of at least
    ``MIN_CYCLIC_PERIOD`` frames and below 2**63 (numpy's int64 draw), a
    positive scale and a nonnegative noise.
    """

    period: tuple[int, int] = (20, 40)
    scale: tuple[float, float] = (80.0, 120.0)
    offset_x: tuple[float, float] = (280.0, 360.0)
    offset_y: tuple[float, float] = (140.0, 220.0)
    noise_frac: tuple[float, float] = (0.0, 0.02)

    def __post_init__(self):
        for field in fields(self):
            low, high = getattr(self, field.name)
            if low > high:
                raise InvalidConfig(f"{field.name} range ({low}, {high}) has its low above its high")
        if self.period[0] < MIN_CYCLIC_PERIOD:
            raise InvalidConfig(f"period range {self.period} reaches below {MIN_CYCLIC_PERIOD} frames")
        if self.period[1] >= 2**63:
            raise InvalidConfig(f"period range {self.period} reaches 2**63 frames or more")
        if self.scale[0] <= 0:
            raise InvalidConfig(f"scale range {self.scale} reaches a scale that is not positive")
        if self.noise_frac[0] < 0:
            raise InvalidConfig(f"noise_frac range {self.noise_frac} reaches a negative noise")


def _two_bone_elbow(shoulder: np.ndarray, wrist: np.ndarray, side: float, scale: float) -> np.ndarray:
    """(T, 2) elbow positions for a two-bone arm, deterministic outward branch."""
    l1 = UPPER_ARM * scale
    l2 = FOREARM * scale
    v = wrist - shoulder
    dist = np.hypot(v[:, 0], v[:, 1])
    unreachable = (dist > l1 + l2) | (dist < abs(l1 - l2)) | (dist == 0.0)
    if unreachable.any():
        raise InvalidConfig(f"wrist at distance {dist[unreachable.argmax()]:.3f} is unreachable by the arm")
    a = (l1 * l1 - l2 * l2 + dist * dist) / (2.0 * dist)
    h = np.sqrt(np.maximum(l1 * l1 - a * a, 0.0))
    u = v / dist[:, None]
    normal = side * np.stack([-u[:, 1], u[:, 0]], axis=1)
    return shoulder + a[:, None] * u + h[:, None] * normal


def _upper_body_points(gesture: GestureLabel, n_frames: int, period: int, scale: float) -> np.ndarray:
    """The (T, N_UPPER, 2) upper-body keypoint positions, neck at the origin.

    Every expression keeps the operation order of the scalar per-frame
    formulas, so each frame is bit for bit what that frame alone would give.
    """
    pts = np.zeros((n_frames, N_UPPER, 2))
    pts[:, NOSE] = (0.0, -NOSE_RAISE * scale)
    pts[:, MID_HIP] = (0.0, HIP_DROP * scale)
    for ids, side in (CHAIN_A, CHAIN_B):
        shoulder = np.array([side * 0.5 * scale, 0.0])
        pts[:, ids[0]] = shoulder
        pts[:, ids[1]] = shoulder + (0.0, UPPER_ARM * scale)  # arms at rest
        pts[:, ids[2]] = pts[:, ids[1]] + (0.0, FOREARM * scale)
    if gesture not in MOTIONS:
        return pts
    (ids, side), motion, direction = MOTIONS[gesture]
    phase = 2.0 * math.pi * ((direction * np.arange(n_frames)) % period) / period
    if motion == "circle":
        psi = -math.pi / 2.0 + phase
        reach = CIRCLE_RADIUS * scale * np.stack([np.cos(psi), np.sin(psi)], axis=1)
    elif motion == "wave":
        reach = np.stack([
            np.full(n_frames, side * WAVE_SIDE_REACH * scale),
            -WAVE_CENTER_RAISE * scale - WAVE_AMPLITUDE * scale * np.cos(phase),
        ], axis=1)
    else:  # beckon, with arm A held out horizontally
        ids_a, side_a = CHAIN_A
        elbow = pts[0, ids_a[0]] + (side_a * UPPER_ARM * scale, 0.0)
        pts[:, ids_a[1]] = elbow
        pts[:, ids_a[2]] = elbow + (side_a * FOREARM * scale, 0.0)
        reach = scale * np.stack([
            side * (BECKON_CENTER[0] + BECKON_RADIUS * np.cos(phase)),
            BECKON_CENTER[1] + BECKON_RADIUS * np.sin(phase),
        ], axis=1)
    # the wrist at the shoulder plus reach, the elbow by inverse kinematics
    shoulder = pts[0, ids[0]]
    wrist = shoulder + reach
    pts[:, ids[1]] = _two_bone_elbow(shoulder, wrist, side, scale)
    pts[:, ids[2]] = wrist
    return pts


def generate(config: SynthConfig) -> Sequence:
    """Generate one labeled synthetic sequence."""
    rng = np.random.default_rng(config.seed)
    with np.errstate(over="ignore", invalid="ignore"):  # Sequence refuses what overflows, below
        pts = _upper_body_points(
            config.gesture, config.n_frames, config.period_frames, config.subject_scale
        ) + np.asarray(config.offset)
        if config.noise_sigma > 0.0:
            pts = pts + rng.normal(0.0, config.noise_sigma, size=pts.shape)
    kp = np.zeros((config.n_frames, N_KEYPOINTS, 3))
    kp[:, :N_UPPER, :2] = pts
    kp[:, :N_UPPER, 2] = 1.0
    try:
        return Sequence(kp, config.fps, label=config.gesture, view_angle_deg=0.0)
    except ValueError as exc:  # keypoints that overflow, at a scale or offset near the float limit
        raise at(InvalidConfig(f"{config.gesture.name} at scale {config.subject_scale:g}: {exc}"), **vars(exc)) from exc


def generate_dataset(per_class: int, base: SynthConfig, jitter: JitterSpec) -> list[Sequence]:
    """per_class jittered sequences for every gesture, seeded from base.seed."""
    if per_class < 1:
        raise InvalidConfig("per_class must be positive")
    rng = np.random.default_rng(base.seed)
    sequences = []
    for gesture in GestureLabel:
        for _ in range(per_class):
            period = int(rng.integers(jitter.period[0], jitter.period[1] + 1))
            scale = float(rng.uniform(*jitter.scale))
            ox = float(rng.uniform(*jitter.offset_x))
            oy = float(rng.uniform(*jitter.offset_y))
            noise = float(rng.uniform(*jitter.noise_frac)) * scale
            seed = int(rng.integers(0, 2**32))
            config = replace(
                base,
                gesture=gesture,
                period_frames=period,
                subject_scale=scale,
                offset=(ox, oy),
                noise_sigma=noise,
                seed=seed,
            )
            sequences.append(generate(config))
    return sequences


def drop_keypoints(seq: Sequence, prob: float, seed: int) -> Sequence:
    """Zero each present keypoint, x, y and confidence, with probability ``prob``, to exercise
    missing-keypoint handling."""
    if not 0.0 <= prob <= 1.0:
        raise InvalidConfig("drop probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    kp = np.array(seq.kp)
    kp[(kp[:, :, 2] > 0.0) & (rng.random(kp.shape[:2]) < prob)] = 0.0
    return Sequence(kp, seq.fps, label=seq.label, view_angle_deg=seq.view_angle_deg)
