from dataclasses import replace

import numpy as np
import pytest

from gesturepipe.errors import InvalidConfig, MissingKeypoint
from gesturepipe.features import Encoding, encode_frame
from gesturepipe.skeleton import GestureLabel
from gesturepipe.synth import (
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
