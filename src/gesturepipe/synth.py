"""Seeded synthetic generator for the eight-gesture vocabulary.

Builds labeled keypoint sequences from a fixed 2-joint arm model over a
static torso, in image coordinates (y grows downward). The "LeftHand"
gestures animate the keypoint 2-3-4 chain (image left), the "RightHand"
gestures the 5-6-7 chain (image right). Circles place the elbow by two-bone
inverse kinematics with a deterministic outward branch; waves oscillate the
wrist vertically; CallToPass holds the 2-3-4 arm out horizontally while the
other wrist loops through a small beckoning cycle.

Cyclic phases are computed from the integer frame index modulo the period,
so noiseless frames exactly one period apart are bitwise identical and a
clockwise cycle replays a counter-clockwise one in reverse frame order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidConfig
from .skeleton import N_KEYPOINTS, GestureLabel, Sequence

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

# (shoulder, elbow, wrist) keypoint ids and the horizontal side sign
CHAIN_A = ((2, 3, 4), -1.0)
CHAIN_B = ((5, 6, 7), +1.0)

STATIC_GESTURES = (GestureLabel.StandStill,)


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
        if self.n_frames < 1:
            raise InvalidConfig("n_frames must be positive")
        if not self.fps > 0:
            raise InvalidConfig("fps must be positive")
        if not self.subject_scale > 0:
            raise InvalidConfig("subject_scale must be positive")
        if self.noise_sigma < 0:
            raise InvalidConfig("noise_sigma must be nonnegative")
        min_period = 1 if self.gesture in STATIC_GESTURES else 4
        if self.period_frames < min_period:
            raise InvalidConfig(
                f"period_frames must be >= {min_period} for {self.gesture.name}"
            )


@dataclass(frozen=True)
class JitterSpec:
    """Inclusive parameter ranges for dataset generation.

    ``noise_frac`` draws the noise sigma as a fraction of the drawn subject
    scale.
    """

    period: tuple[int, int] = (20, 40)
    scale: tuple[float, float] = (80.0, 120.0)
    offset_x: tuple[float, float] = (280.0, 360.0)
    offset_y: tuple[float, float] = (140.0, 220.0)
    noise_frac: tuple[float, float] = (0.0, 0.02)


def _two_bone_elbow(shoulder: np.ndarray, wrist: np.ndarray, side: float, scale: float) -> np.ndarray:
    """Elbow position for a two-bone arm, deterministic outward branch."""
    l1 = UPPER_ARM * scale
    l2 = FOREARM * scale
    v = wrist - shoulder
    dist = float(np.hypot(v[0], v[1]))
    if dist > l1 + l2 or dist < abs(l1 - l2) or dist == 0.0:
        raise InvalidConfig(f"wrist at distance {dist:.3f} is unreachable by the arm")
    a = (l1 * l1 - l2 * l2 + dist * dist) / (2.0 * dist)
    h = math.sqrt(max(l1 * l1 - a * a, 0.0))
    u = v / dist
    normal = side * np.array([-u[1], u[0]])
    return shoulder + a * u + h * normal


def _rest_arm(shoulder: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    elbow = shoulder + np.array([0.0, UPPER_ARM * scale])
    wrist = elbow + np.array([0.0, FOREARM * scale])
    return elbow, wrist


def _extended_arm(shoulder: np.ndarray, side: float, scale: float) -> tuple[np.ndarray, np.ndarray]:
    elbow = shoulder + np.array([side * UPPER_ARM * scale, 0.0])
    wrist = elbow + np.array([side * FOREARM * scale, 0.0])
    return elbow, wrist


def _phase(frame: int, period: int, direction: float) -> float:
    """Angle for the cycle position, from the integer frame index mod period."""
    k = (int(direction) * frame) % period
    return 2.0 * math.pi * k / period


def _upper_body_points(gesture: GestureLabel, frame: int, period: int, scale: float) -> np.ndarray:
    """The 9 upper-body keypoint positions, neck at the origin."""
    pts = np.zeros((9, 2))
    pts[0] = (0.0, -NOSE_RAISE * scale)
    pts[1] = (0.0, 0.0)
    pts[8] = (0.0, HIP_DROP * scale)
    (ids_a, side_a), (ids_b, side_b) = CHAIN_A, CHAIN_B
    pts[ids_a[0]] = (side_a * 0.5 * scale, 0.0)
    pts[ids_b[0]] = (side_b * 0.5 * scale, 0.0)

    def set_arm(ids, elbow, wrist):
        pts[ids[1]] = elbow
        pts[ids[2]] = wrist

    def circle(ids, side, direction):
        shoulder = pts[ids[0]]
        psi = -math.pi / 2.0 + _phase(frame, period, direction)
        wrist = shoulder + CIRCLE_RADIUS * scale * np.array([math.cos(psi), math.sin(psi)])
        set_arm(ids, _two_bone_elbow(shoulder, wrist, side, scale), wrist)

    def wave(ids, side):
        shoulder = pts[ids[0]]
        phi = _phase(frame, period, +1.0)
        wrist = shoulder + np.array(
            [
                side * WAVE_SIDE_REACH * scale,
                -WAVE_CENTER_RAISE * scale - WAVE_AMPLITUDE * scale * math.cos(phi),
            ]
        )
        set_arm(ids, _two_bone_elbow(shoulder, wrist, side, scale), wrist)

    def beckon(ids, side):
        shoulder = pts[ids[0]]
        phi = _phase(frame, period, +1.0)
        wrist = shoulder + scale * np.array(
            [
                side * (BECKON_CENTER[0] + BECKON_RADIUS * math.cos(phi)),
                BECKON_CENTER[1] + BECKON_RADIUS * math.sin(phi),
            ]
        )
        set_arm(ids, _two_bone_elbow(shoulder, wrist, side, scale), wrist)

    set_arm(ids_a, *_rest_arm(pts[ids_a[0]], scale))
    set_arm(ids_b, *_rest_arm(pts[ids_b[0]], scale))

    if gesture is GestureLabel.LeftHandLeftCircle:
        circle(ids_a, side_a, -1.0)
    elif gesture is GestureLabel.LeftHandRightCircle:
        circle(ids_a, side_a, +1.0)
    elif gesture is GestureLabel.RightHandLeftCircle:
        circle(ids_b, side_b, -1.0)
    elif gesture is GestureLabel.RightHandRightCircle:
        circle(ids_b, side_b, +1.0)
    elif gesture is GestureLabel.LeftHandWave:
        wave(ids_a, side_a)
    elif gesture is GestureLabel.RightHandWave:
        wave(ids_b, side_b)
    elif gesture is GestureLabel.CallToPass:
        set_arm(ids_a, *_extended_arm(pts[ids_a[0]], side_a, scale))
        beckon(ids_b, side_b)
    elif gesture is GestureLabel.StandStill:
        pass
    else:  # pragma: no cover - closed enum
        raise InvalidConfig(f"unhandled gesture {gesture}")
    return pts


def generate(config: SynthConfig) -> Sequence:
    """Generate one labeled synthetic sequence."""
    rng = np.random.default_rng(config.seed)
    pts = np.stack([
        _upper_body_points(config.gesture, t, config.period_frames, config.subject_scale)
        for t in range(config.n_frames)
    ]) + np.asarray(config.offset)
    if config.noise_sigma > 0.0:
        pts = pts + rng.normal(0.0, config.noise_sigma, size=pts.shape)
    kp = np.zeros((config.n_frames, N_KEYPOINTS, 3))
    kp[:, :9, :2] = pts
    kp[:, :9, 2] = 1.0
    return Sequence(kp, config.fps, label=config.gesture, view_angle_deg=0.0)


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
    """Zero random keypoint confidences to exercise missing-keypoint handling."""
    if not 0.0 <= prob <= 1.0:
        raise InvalidConfig("drop probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    kp = np.array(seq.kp)
    kp[(kp[:, :, 2] > 0.0) & (rng.random(kp.shape[:2]) < prob)] = 0.0
    return Sequence(kp, seq.fps, label=seq.label, view_angle_deg=seq.view_angle_deg)
