import math
from dataclasses import replace

import numpy as np
import pytest

from gesturepipe import speed, synth
from gesturepipe.errors import InvalidConfig, MissingKeypoint
from gesturepipe.features import Encoding, encode_frame
from gesturepipe.skeleton import N_KEYPOINTS, GestureLabel, Sequence
from gesturepipe.synth import (
    MIN_CYCLIC_PERIOD,
    JitterSpec,
    SynthConfig,
    drop_keypoints,
    generate,
    generate_dataset,
)

CIRCLES = (
    GestureLabel.RightHandLeftCircle,
    GestureLabel.RightHandRightCircle,
    GestureLabel.LeftHandRightCircle,
    GestureLabel.LeftHandLeftCircle,
)


# --- per-frame reference generator: one frame at a time, scalar math ---
# Constants are read from the module at call time, so a monkeypatch reaches
# both this reference and synth.generate.

def reference_elbow(shoulder, wrist, side, scale):
    l1 = synth.UPPER_ARM * scale
    l2 = synth.FOREARM * scale
    v = wrist - shoulder
    dist = float(np.hypot(v[0], v[1]))
    if dist > l1 + l2 or dist < abs(l1 - l2) or dist == 0.0:
        raise InvalidConfig(f"wrist at distance {dist:.3f} is unreachable by the arm")
    a = (l1 * l1 - l2 * l2 + dist * dist) / (2.0 * dist)
    h = math.sqrt(max(l1 * l1 - a * a, 0.0))
    u = v / dist
    normal = side * np.array([-u[1], u[0]])
    return shoulder + a * u + h * normal


def reference_phase(frame, period, direction):
    k = (int(direction) * frame) % period
    return 2.0 * math.pi * k / period


def reference_points(gesture, frame, period, scale):
    pts = np.zeros((9, 2))
    pts[0] = (0.0, -synth.NOSE_RAISE * scale)
    pts[1] = (0.0, 0.0)
    pts[8] = (0.0, synth.HIP_DROP * scale)
    (ids_a, side_a), (ids_b, side_b) = synth.CHAIN_A, synth.CHAIN_B
    pts[ids_a[0]] = (side_a * 0.5 * scale, 0.0)
    pts[ids_b[0]] = (side_b * 0.5 * scale, 0.0)

    def set_arm(ids, elbow, wrist):
        pts[ids[1]] = elbow
        pts[ids[2]] = wrist

    def rest_arm(shoulder):
        elbow = shoulder + np.array([0.0, synth.UPPER_ARM * scale])
        return elbow, elbow + np.array([0.0, synth.FOREARM * scale])

    def extended_arm(shoulder, side):
        elbow = shoulder + np.array([side * synth.UPPER_ARM * scale, 0.0])
        return elbow, elbow + np.array([side * synth.FOREARM * scale, 0.0])

    def circle(ids, side, direction):
        shoulder = pts[ids[0]]
        psi = -math.pi / 2.0 + reference_phase(frame, period, direction)
        wrist = shoulder + synth.CIRCLE_RADIUS * scale * np.array([math.cos(psi), math.sin(psi)])
        set_arm(ids, reference_elbow(shoulder, wrist, side, scale), wrist)

    def wave(ids, side):
        shoulder = pts[ids[0]]
        phi = reference_phase(frame, period, +1.0)
        wrist = shoulder + np.array([
            side * synth.WAVE_SIDE_REACH * scale,
            -synth.WAVE_CENTER_RAISE * scale - synth.WAVE_AMPLITUDE * scale * math.cos(phi),
        ])
        set_arm(ids, reference_elbow(shoulder, wrist, side, scale), wrist)

    def beckon(ids, side):
        shoulder = pts[ids[0]]
        phi = reference_phase(frame, period, +1.0)
        wrist = shoulder + scale * np.array([
            side * (synth.BECKON_CENTER[0] + synth.BECKON_RADIUS * math.cos(phi)),
            synth.BECKON_CENTER[1] + synth.BECKON_RADIUS * math.sin(phi),
        ])
        set_arm(ids, reference_elbow(shoulder, wrist, side, scale), wrist)

    set_arm(ids_a, *rest_arm(pts[ids_a[0]]))
    set_arm(ids_b, *rest_arm(pts[ids_b[0]]))
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
        set_arm(ids_a, *extended_arm(pts[ids_a[0]], side_a))
        beckon(ids_b, side_b)
    return pts


def reference_generate(config):
    rng = np.random.default_rng(config.seed)
    pts = np.stack([
        reference_points(config.gesture, t, config.period_frames, config.subject_scale)
        for t in range(config.n_frames)
    ]) + np.asarray(config.offset)
    if config.noise_sigma > 0.0:
        pts = pts + rng.normal(0.0, config.noise_sigma, size=pts.shape)
    kp = np.zeros((config.n_frames, N_KEYPOINTS, 3))
    kp[:, :9, :2] = pts
    kp[:, :9, 2] = 1.0
    return Sequence(kp, config.fps, label=config.gesture, view_angle_deg=0.0)


def mirror_about(x_axis, pose_kp):
    out = np.array(pose_kp)
    out[:, 0] = 2.0 * x_axis - out[:, 0]
    return out


class TestGenerate:
    def test_standstill_is_static(self):
        seq = generate(SynthConfig(gesture=GestureLabel.StandStill, n_frames=10, noise_sigma=0.0))
        assert np.array_equal(seq.kp, np.broadcast_to(seq.kp[0], seq.kp.shape))

    @pytest.mark.parametrize("gesture", CIRCLES)
    def test_cycle_closure(self, gesture):
        seq = generate(SynthConfig(gesture=gesture, n_frames=31, period_frames=30, noise_sigma=0.0))
        np.testing.assert_allclose(seq.frames[30].kp, seq.frames[0].kp, atol=1e-9)

    def test_seeded_determinism(self):
        cfg = SynthConfig(gesture=GestureLabel.LeftHandWave, n_frames=20, period_frames=10, noise_sigma=2.0, seed=5)
        assert np.array_equal(generate(cfg).kp, generate(cfg).kp)

    def test_noise_matches_per_frame_draws(self):
        cfg = SynthConfig(gesture=GestureLabel.RightHandRightCircle, n_frames=25, period_frames=12,
                          noise_sigma=1.5, seed=11)
        clean = generate(replace(cfg, noise_sigma=0.0))
        rng = np.random.default_rng(cfg.seed)
        for pose_kp, clean_kp in zip(generate(cfg).kp, clean.kp):
            noise = rng.normal(0.0, cfg.noise_sigma, size=(9, 2))
            assert np.array_equal(pose_kp[:9, :2], clean_kp[:9, :2] + noise)
            assert np.array_equal(pose_kp[9:], clean_kp[9:])

    def test_metadata(self):
        seq = generate(SynthConfig(gesture=GestureLabel.CallToPass, n_frames=8, period_frames=8, fps=25.0))
        assert seq.label is GestureLabel.CallToPass
        assert seq.fps == 25.0
        assert seq.view_angle_deg == 0.0

    def test_lower_body_missing_upper_present(self):
        seq = generate(SynthConfig(gesture=GestureLabel.StandStill, n_frames=2))
        assert (seq.kp[:, :9, 2] > 0.0).all()
        assert not (seq.kp[:, 9:, 2] > 0.0).any()

    def test_mirror_symmetry_of_circle_pair(self):
        left = generate(
            SynthConfig(gesture=GestureLabel.LeftHandLeftCircle, n_frames=30, period_frames=15, noise_sigma=0.0)
        )
        right = generate(
            SynthConfig(gesture=GestureLabel.RightHandRightCircle, n_frames=30, period_frames=15, noise_sigma=0.0)
        )
        # chains swap under reflection: 2-3-4 <-> 5-6-7
        swap = [0, 1, 5, 6, 7, 2, 3, 4, 8]
        axis = 320.0  # offset x = torso vertical axis
        for fl, fr in zip(left.frames, right.frames):
            mirrored = mirror_about(axis, fr.kp[:9])[swap]
            np.testing.assert_allclose(fl.kp[:9, :2], mirrored[:, :2], atol=1e-9)

    def test_opposite_directions_replay_reversed(self):
        period = 20
        cw = generate(
            SynthConfig(gesture=GestureLabel.LeftHandRightCircle, n_frames=period, period_frames=period, noise_sigma=0.0)
        )
        ccw = generate(
            SynthConfig(gesture=GestureLabel.LeftHandLeftCircle, n_frames=period, period_frames=period, noise_sigma=0.0)
        )
        for t in range(period):
            assert np.array_equal(ccw.kp[t], cw.kp[(period - t) % period])

    def test_every_pose_normalizes(self):
        base = SynthConfig(gesture=GestureLabel.StandStill, n_frames=30, seed=11)
        jitter = JitterSpec(period=(8, 20), noise_frac=(0.0, 0.02))
        for seq in generate_dataset(2, base, jitter):
            for pose in seq.frames:
                encode_frame(pose, Encoding.COORDINATE)

    def test_invalid_configs(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(gesture=GestureLabel.LeftHandWave, period_frames=3)
        with pytest.raises(InvalidConfig):
            SynthConfig(gesture=GestureLabel.LeftHandWave, n_frames=0)
        with pytest.raises(InvalidConfig):
            SynthConfig(gesture=GestureLabel.LeftHandWave, noise_sigma=-1.0)
        with pytest.raises(InvalidConfig):
            SynthConfig(gesture=GestureLabel.LeftHandWave, subject_scale=0.0)


class TestBitIdentityWithPerFrameReference:
    @pytest.mark.parametrize("gesture", list(GestureLabel), ids=lambda g: g.name)
    def test_every_frame_bit_for_bit(self, gesture):
        for period in (4, 7, 20, 27, 30, 33, 40):
            for scale in (80.0, 99.37, 100.0, 120.0):
                cfg = SynthConfig(gesture=gesture, n_frames=301, period_frames=period,
                                  subject_scale=scale, seed=period)
                clean = reference_generate(cfg).kp
                for n_frames in (1, 2, 301):
                    for noise in (0.0, 0.013 * scale):
                        want = clean[:n_frames].copy()
                        if noise > 0.0:  # the reference's draw, added to its noiseless points
                            rng = np.random.default_rng(cfg.seed)
                            want[:, :9, :2] += rng.normal(0.0, noise, size=(n_frames, 9, 2))
                        got = generate(replace(cfg, n_frames=n_frames, noise_sigma=noise)).kp
                        assert np.array_equal(got, want), (period, scale, noise, n_frames)

    @pytest.mark.parametrize("encoding", list(Encoding), ids=lambda e: e.value)
    def test_default_start_positions(self, encoding, monkeypatch):
        table = speed.default_start_positions(encoding)
        monkeypatch.setattr(synth, "generate", reference_generate)
        expected = speed.default_start_positions(encoding)
        assert table.keys() == expected.keys()
        for label in table:
            assert np.array_equal(table[label], expected[label])

    @pytest.mark.parametrize("name, value, gesture", [
        ("CIRCLE_RADIUS", 1.0, GestureLabel.LeftHandRightCircle),
        # reachable at first: the first unreachable frame lies mid-cycle
        ("WAVE_AMPLITUDE", -0.8, GestureLabel.RightHandWave),
    ])
    def test_unreachable_wrist(self, name, value, gesture, monkeypatch):
        monkeypatch.setattr(synth, name, value)
        cfg = SynthConfig(gesture=gesture, n_frames=40, period_frames=20, subject_scale=99.37)
        with pytest.raises(InvalidConfig) as expected:
            reference_generate(cfg)
        with pytest.raises(InvalidConfig) as got:
            generate(cfg)
        assert str(got.value) == str(expected.value)
        assert "is unreachable by the arm" in str(got.value)


class TestGenerateDataset:
    def test_counts_and_labels(self):
        base = SynthConfig(gesture=GestureLabel.StandStill, n_frames=12, seed=2)
        seqs = generate_dataset(3, base, JitterSpec(period=(8, 12)))
        assert len(seqs) == 24
        for g in GestureLabel:
            assert sum(1 for s in seqs if s.label is g) == 3

    def test_zero_jitter_zero_noise_gives_identical_sequences(self):
        base = SynthConfig(gesture=GestureLabel.StandStill, n_frames=12, seed=2)
        jitter = JitterSpec(
            period=(10, 10), scale=(100.0, 100.0), offset_x=(320.0, 320.0),
            offset_y=(180.0, 180.0), noise_frac=(0.0, 0.0),
        )
        seqs = [s for s in generate_dataset(2, base, jitter) if s.label is GestureLabel.LeftHandWave]
        assert np.array_equal(seqs[0].kp, seqs[1].kp)

    def test_wave_and_standstill_wrist_heights_separate(self):
        base = SynthConfig(gesture=GestureLabel.StandStill, n_frames=40, seed=3)
        jitter = JitterSpec(period=(10, 20), scale=(100.0, 100.0), noise_frac=(0.02, 0.02))
        seqs = generate_dataset(5, base, jitter)
        sigma = 0.02 * 100.0

        def mean_wrist_y(label, wrist):
            ys = [f.kp[wrist, 1] - f.kp[1, 1] for s in seqs if s.label is label for f in s.frames]
            return np.mean(ys)

        gap = abs(mean_wrist_y(GestureLabel.LeftHandWave, 4) - mean_wrist_y(GestureLabel.StandStill, 4))
        assert gap > 3.0 * sigma

    def test_per_class_validation(self):
        base = SynthConfig(gesture=GestureLabel.StandStill, n_frames=12, seed=2)
        with pytest.raises(InvalidConfig):
            generate_dataset(0, base, JitterSpec())

    @pytest.mark.parametrize("field, bounds", [
        ("period", (40, 20)),
        ("scale", (120.0, 80.0)),
        ("offset_x", (360.0, 280.0)),
        ("offset_y", (220.0, 140.0)),
        ("noise_frac", (0.05, 0.01)),
        # ranges that reach outside the generator's domain
        ("period", (MIN_CYCLIC_PERIOD - 1, 40)),
        ("scale", (-50.0, 120.0)),
        ("scale", (0.0, 120.0)),
        ("noise_frac", (-0.01, 0.02)),
        ("period", (20, 2**63)),
        ("period", (20, 10**20)),
    ])
    def test_inverted_range_refused(self, field, bounds):
        with pytest.raises(InvalidConfig, match=f"{field} range"):
            JitterSpec(**{field: bounds})

    def test_shortest_cyclic_period_is_accepted(self):
        base = SynthConfig(gesture=GestureLabel.StandStill, n_frames=12, seed=2)
        jitter = JitterSpec(period=(MIN_CYCLIC_PERIOD, MIN_CYCLIC_PERIOD))
        assert len(generate_dataset(1, base, jitter)) == len(GestureLabel)

    def test_longest_period_is_accepted(self):
        base = SynthConfig(gesture=GestureLabel.StandStill, n_frames=12, seed=2)
        jitter = JitterSpec(period=(2**63 - 1, 2**63 - 1))
        assert {s.label for s in generate_dataset(1, base, jitter)} == set(GestureLabel)


class TestDropKeypoints:
    def test_deterministic_and_surfaces_downstream(self):
        seq = generate(SynthConfig(gesture=GestureLabel.RightHandWave, n_frames=40, period_frames=10, seed=4))
        a = drop_keypoints(seq, 0.3, seed=9)
        b = drop_keypoints(seq, 0.3, seed=9)
        assert np.array_equal(a.kp, b.kp)
        dropped = int((a.kp[:, :9, 2] == 0.0).sum())
        assert dropped > 0
        with pytest.raises(MissingKeypoint):
            for frame in a.frames:
                encode_frame(frame, Encoding.COORDINATE)

    def test_matches_per_frame_draws(self):
        seq = drop_keypoints(
            generate(SynthConfig(gesture=GestureLabel.CallToPass, n_frames=30, period_frames=10)),
            0.2, seed=1,
        )
        out = drop_keypoints(seq, 0.25, seed=6)
        rng = np.random.default_rng(6)
        for before, after in zip(seq.kp, out.kp):
            kp = np.array(before)
            kp[(kp[:, 2] > 0.0) & (rng.random(25) < 0.25)] = 0.0
            assert np.array_equal(after, kp)

    def test_probability_bounds(self):
        seq = generate(SynthConfig(gesture=GestureLabel.RightHandWave, n_frames=4, period_frames=4))
        with pytest.raises(InvalidConfig):
            drop_keypoints(seq, 1.5, seed=0)
