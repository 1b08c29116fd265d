import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturepipe import augment
from gesturepipe.augment import (
    RotationSpec,
    default_depth_table,
    load_depth_table,
    parse_depth_table,
    resample_speed,
    rotate_sequence,
)
from gesturepipe.errors import (
    InvalidConfig,
    MissingKeypoint,
    TooShort,
    UnknownLabel,
)
from gesturepipe.skeleton import GestureLabel, Pose, Sequence
from gesturepipe.synth import JitterSpec, SynthConfig, generate, generate_dataset

from conftest import random_pose

STANDSTILL_DEPTHS = (0.0, 0.1, -0.1, 0.0, 0.1, -0.1)


def full_pose(rng):
    return random_pose(rng, present_mask=[True] * 25)


def rotate_pose(pose, depths, angle):
    """One pose rotated as a one-frame sequence under a table holding ``depths``."""
    seq = Sequence((pose,), fps=30.0, label=GestureLabel.StandStill)
    table = {GestureLabel.StandStill: tuple(depths)}
    return rotate_sequence(seq, table, RotationSpec(angle)).frames[0]


def reference_rotate_frame(kp, depths, angle):
    """The per-frame rotation, written out one frame at a time."""
    kp = np.array(kp)
    neck_x = kp[1, 0]
    shoulder_w = math.hypot(kp[2, 0] - kp[5, 0], kp[2, 1] - kp[5, 1])
    theta = math.radians(angle)
    c, s = math.cos(theta), math.sin(theta)
    z = np.zeros(25)
    z[2:8] = np.asarray(depths) * shoulder_w
    present = kp[:, 2] > 0.0
    x_rel = kp[present, 0] - neck_x
    kp[present, 0] = neck_x + x_rel * c - z[present] * s
    return kp


class TestRotatePose:
    def test_zero_angle_is_identity(self, rng):
        pose = full_pose(rng)
        out = rotate_pose(pose, STANDSTILL_DEPTHS, 0.0)
        np.testing.assert_allclose(out.kp[:, 0], pose.kp[:, 0], atol=1e-12)
        np.testing.assert_array_equal(out.kp[:, 1:], pose.kp[:, 1:])

    def test_quarter_turn_zeroes_in_plane_offset(self, rng):
        pose = full_pose(rng)
        kp = np.array(pose.kp)
        kp[10, 0] = kp[1, 0] + 1.0  # depth 0 keypoint one pixel right of the neck
        pose = Pose(kp)
        out = rotate_pose(pose, STANDSTILL_DEPTHS, 90.0)
        assert out.kp[10, 0] - out.kp[1, 0] == pytest.approx(0.0, abs=1e-12)
        assert out.kp[10, 1] == kp[10, 1]

    def test_table_row_worked_example(self):
        # keypoint 3 at neck-relative x = 0.2 * shoulder width, depth 0.1,
        # turned 30 degrees; the oracle evaluates the projection directly.
        w = 140.0
        kp = np.zeros((25, 3))
        kp[:9, 2] = 1.0
        kp[1, :2] = (300.0, 200.0)
        kp[2, :2] = (300.0 - w / 2.0, 200.0)
        kp[5, :2] = (300.0 + w / 2.0, 200.0)
        kp[3, :2] = (300.0 + 0.2 * w, 150.0)
        for i in (0, 4, 6, 7, 8):
            kp[i, :2] = (310.0, 90.0 + 10 * i)
        pose = Pose(kp)
        out = rotate_pose(pose, STANDSTILL_DEPTHS, 30.0)
        expected = 0.2 * w * math.cos(math.radians(30.0)) - 0.1 * w * math.sin(math.radians(30.0))
        assert out.kp[3, 0] - 300.0 == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-90, max_value=90), st.integers(0, 2**32 - 1))
    def test_y_coordinates_preserved_bitwise(self, angle, seed):
        pose = full_pose(np.random.default_rng(seed))
        out = rotate_pose(pose, STANDSTILL_DEPTHS, angle)
        np.testing.assert_array_equal(out.kp[:, 1], pose.kp[:, 1])
        np.testing.assert_array_equal(out.kp[:, 2], pose.kp[:, 2])

    def test_missing_arm_keypoint_rejected(self, rng):
        mask = [True] * 25
        mask[4] = False
        pose = random_pose(rng, present_mask=mask)
        with pytest.raises(MissingKeypoint) as err:
            rotate_pose(pose, STANDSTILL_DEPTHS, 15.0)
        assert err.value.index == 4

    def test_missing_keypoints_left_untouched(self, rng):
        mask = [True] * 25
        mask[20] = False
        pose = random_pose(rng, present_mask=mask)
        out = rotate_pose(pose, STANDSTILL_DEPTHS, 45.0)
        np.testing.assert_array_equal(out.kp[20], pose.kp[20])

    def test_wrong_depth_count(self, rng):
        with pytest.raises(InvalidConfig):
            rotate_pose(full_pose(rng), (0.0, 0.1), 15.0)

    def test_angle_bound(self):
        with pytest.raises(InvalidConfig):
            RotationSpec(91.0)


class TestRotateSequence:
    def test_zero_angle_identity_and_metadata(self):
        seq = generate(SynthConfig(gesture=GestureLabel.LeftHandWave, n_frames=20, period_frames=10))
        out = rotate_sequence(seq, default_depth_table(), RotationSpec(0.0))
        assert out.view_angle_deg == 0.0
        for a, b in zip(out.frames, seq.frames):
            np.testing.assert_allclose(a.kp, b.kp, atol=1e-12)

    def test_vertical_axis_preserves_heights(self):
        seq = generate(SynthConfig(gesture=GestureLabel.LeftHandWave, n_frames=20, period_frames=10))
        for angle in (45.0, -45.0):
            out = rotate_sequence(seq, default_depth_table(), RotationSpec(angle))
            for a, b in zip(out.frames, seq.frames):
                np.testing.assert_array_equal(a.kp[:, 1], b.kp[:, 1])

    def test_unlabeled_rejected(self, rng):
        seq = Sequence((full_pose(rng),), fps=30.0)
        with pytest.raises(UnknownLabel):
            rotate_sequence(seq, default_depth_table(), RotationSpec(15.0))

    def test_full_vocabulary_sixfold(self):
        base = SynthConfig(gesture=GestureLabel.StandStill, n_frames=12, fps=30.0, seed=3)
        jitter = JitterSpec(period=(8, 10), noise_frac=(0.0, 0.0))
        seqs = generate_dataset(1, base, jitter)
        table = default_depth_table()
        rotated = [
            rotate_sequence(s, table, RotationSpec(a))
            for s in seqs
            for a in (15.0, -15.0, 30.0, -30.0, 45.0, -45.0)
        ]
        assert len(rotated) == 6 * len(seqs)
        assert [r.label for r in rotated] == [s.label for s in seqs for _ in range(6)]

    def test_frame_errors_carry_index(self, rng):
        good = full_pose(rng)
        mask = [True] * 25
        mask[3] = False
        bad = random_pose(rng, present_mask=mask)
        seq = Sequence((good, bad), fps=30.0, label=GestureLabel.StandStill)
        with pytest.raises(MissingKeypoint, match="frame 1"):
            rotate_sequence(seq, default_depth_table(), RotationSpec(15.0))

    def test_error_names_the_first_failing_frame(self, rng):
        frames = []
        for missing in (None, None, 6, 1, 3):
            mask = [True] * 25
            if missing is not None:
                mask[missing] = False
            frames.append(random_pose(rng, present_mask=mask))
        seq = Sequence(tuple(frames), fps=30.0, label=GestureLabel.StandStill)
        with pytest.raises(MissingKeypoint, match="frame 2: keypoint 6") as err:
            rotate_sequence(seq, default_depth_table(), RotationSpec(15.0))
        assert err.value.index == 6

    @pytest.mark.parametrize("angle", [-90.0, -45.0, -30.0, -15.0, 15.0, 30.0, 45.0, 90.0])
    def test_matches_per_frame_reference_bitwise(self, rng, angle):
        # enough frames that a shoulder width off in its last bit (np.hypot) shows
        frames = [full_pose(rng).kp for _ in range(300)]
        mask = [True] * 25
        mask[0] = mask[12] = False  # missing non-arm keypoints stay put
        frames.append(random_pose(rng, present_mask=mask).kp)
        seq = Sequence(frames, fps=30.0, label=GestureLabel.LeftHandWave)
        depths = default_depth_table()[GestureLabel.LeftHandWave]
        out = rotate_sequence(seq, default_depth_table(), RotationSpec(angle))
        expected = np.stack([reference_rotate_frame(kp, depths, angle) for kp in frames])
        assert np.array_equal(out.kp, expected)


def naive_resample(seq, ratio):
    """Independent straightforward resampler used as the oracle."""
    n = len(seq.frames)
    out_len = max(2, int(math.floor(n / ratio + 0.5)))
    frames = []
    for j in range(out_len):
        t = j * (n - 1) / (out_len - 1)
        i0 = int(math.floor(t))
        alpha = t - i0
        if alpha == 0.0:
            frames.append(np.array(seq.frames[i0].kp))
            continue
        a = seq.frames[i0].kp
        b = seq.frames[i0 + 1].kp
        kp = np.zeros((25, 3))
        for k in range(25):
            kp[k, 2] = min(a[k, 2], b[k, 2])
            if kp[k, 2] > 0.0:
                kp[k, 0] = a[k, 0] + alpha * (b[k, 0] - a[k, 0])
                kp[k, 1] = a[k, 1] + alpha * (b[k, 1] - a[k, 1])
        frames.append(kp)
    return frames


def reference_resample(seq, ratio):
    """The per-frame resampler, one output frame at a time."""
    n = len(seq)
    out_len = max(2, math.floor(n / ratio + 0.5))
    frames = []
    for j in range(out_len):
        t = j * (n - 1) / (out_len - 1)
        i0 = int(math.floor(t))
        alpha = t - i0
        if alpha == 0.0:
            frames.append(seq.kp[i0])
            continue
        a, b = seq.kp[i0], seq.kp[i0 + 1]
        conf = np.minimum(a[:, 2], b[:, 2])
        xy = a[:, :2] + alpha * (b[:, :2] - a[:, :2])
        xy[conf == 0.0] = 0.0
        frames.append(np.column_stack([xy, conf]))
    return np.stack(frames)


class TestResampleSpeed:
    @pytest.mark.parametrize("ratio", [0.5, 0.7, 1.0, 2.0, 3.0])
    def test_matches_per_frame_reference_bitwise(self, rng, ratio):
        frames = []
        for i in range(31):
            mask = [True] * 25
            mask[(3 * i) % 25] = mask[7] = i % 4 != 0  # confidence-0 neighbours
            frames.append(random_pose(rng, present_mask=mask))
        seq = Sequence(tuple(frames), fps=30.0)
        out = resample_speed(seq, ratio)
        expected = reference_resample(seq, ratio)
        assert out.kp.shape == expected.shape
        assert np.array_equal(out.kp, expected)
        # positions that land on a source frame copy it exactly
        n = len(expected)
        for j in range(n):
            t = j * (len(seq) - 1) / (n - 1)
            if t == int(t):
                assert np.array_equal(out.kp[j], seq.kp[int(t)])

    def test_identity_ratio_is_bitwise(self):
        seq = generate(SynthConfig(gesture=GestureLabel.RightHandWave, n_frames=30, period_frames=10))
        out = resample_speed(seq, 1.0)
        assert np.array_equal(out.kp, seq.kp)

    def test_double_speed_matches_oracle(self):
        seq = generate(
            SynthConfig(gesture=GestureLabel.LeftHandLeftCircle, n_frames=50, period_frames=25, noise_sigma=1.0)
        )
        out = resample_speed(seq, 2.0)
        assert len(out) == 25
        expected = naive_resample(seq, 2.0)
        for frame, exp in zip(out.frames, expected):
            np.testing.assert_allclose(frame.kp, exp, atol=1e-12)

    def test_half_speed_two_frames(self, rng):
        a, b = full_pose(rng), full_pose(rng)
        out = resample_speed(Sequence((a, b), fps=30.0), 0.5)
        assert len(out) == 4
        np.testing.assert_array_equal(out.frames[0].kp, a.kp)
        np.testing.assert_array_equal(out.frames[3].kp, b.kp)
        third = a.kp[:, :2] + (1.0 / 3.0) * (b.kp[:, :2] - a.kp[:, :2])
        np.testing.assert_allclose(out.frames[1].kp[:, :2], third, atol=1e-12)
        two_thirds = a.kp[:, :2] + (2.0 / 3.0) * (b.kp[:, :2] - a.kp[:, :2])
        np.testing.assert_allclose(out.frames[2].kp[:, :2], two_thirds, atol=1e-12)

    def test_missing_neighbor_stays_missing(self, rng):
        a = full_pose(rng)
        kp = np.array(full_pose(rng).kp)
        kp[7] = 0.0
        b = Pose(kp)
        out = resample_speed(Sequence((a, b), fps=30.0), 0.5)
        assert out.kp[1, 7, 2] == 0.0
        assert np.all(out.frames[1].kp[7] == 0.0)

    @pytest.mark.parametrize("ratio", [0.5, 0.75, 0.9, 1.0, 1.1, 1.3, 2.0])
    def test_supported_ratio_grid(self, ratio):
        seq = generate(SynthConfig(gesture=GestureLabel.CallToPass, n_frames=60, period_frames=20))
        out = resample_speed(seq, ratio)
        expected_len = max(2, int(math.floor(60 / ratio + 0.5)))
        assert len(out) == expected_len
        back = resample_speed(out, 1.0 / ratio)
        assert abs(len(back) - len(seq)) <= 1
        # linear interpolation cannot overshoot the per-frame displacement
        src = np.stack([f.kp[:9, :2] for f in seq.frames])
        max_step = np.abs(np.diff(src, axis=0)).max()
        n = min(len(back), len(seq))
        deviation = max(
            np.abs(back.frames[i].kp[:9, :2] - seq.frames[i].kp[:9, :2]).max() for i in range(n)
        )
        assert deviation <= max_step + 1e-9

    def test_too_short(self, rng):
        with pytest.raises(TooShort):
            resample_speed(Sequence((full_pose(rng),), fps=30.0), 1.0)

    def test_nonpositive_ratio(self, rng):
        seq = Sequence((full_pose(rng), full_pose(rng)), fps=30.0)
        with pytest.raises(InvalidConfig, match="speed ratio must be positive"):
            resample_speed(seq, 0.0)

    @pytest.mark.parametrize("ratio", [1e-300, 5e-324, 10 / 100_001])
    def test_output_over_max_frames_refused(self, rng, ratio):
        seq = Sequence(tuple(full_pose(rng) for _ in range(10)), fps=30.0)
        with pytest.raises(InvalidConfig, match=f"speed ratio {ratio:g} would resample 10 frames"):
            resample_speed(seq, ratio)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("keypoint", [4, 20])  # present, and missing from every frame
    def test_keypoints_near_the_float_limit(self, keypoint):
        seq = generate(SynthConfig(gesture=GestureLabel.LeftHandWave, n_frames=10))
        kp = seq.kp.copy()
        kp[0, keypoint, 0], kp[1, keypoint, 0] = 1.5e308, -1.5e308  # their difference overflows
        seq = Sequence(kp, seq.fps, label=seq.label)
        if keypoint == 4:
            with pytest.raises(InvalidConfig, match="resampling LeftHandWave at speed ratio 0.7: frame 1: keypoint 4"):
                resample_speed(seq, 0.7)
        else:
            out = resample_speed(seq, 0.7)
            assert np.isfinite(out.kp).all() and not out.kp[:, keypoint, 2].any()

    def test_output_of_max_frames_allowed(self, rng, monkeypatch):
        monkeypatch.setattr(augment, "MAX_FRAMES", 20)
        seq = Sequence(tuple(full_pose(rng) for _ in range(10)), fps=30.0)
        assert len(resample_speed(seq, 0.5)) == 20
        with pytest.raises(InvalidConfig, match="over 20"):
            resample_speed(seq, 10 / 21)


class TestDepthTable:
    def test_default_covers_vocabulary(self):
        table = default_depth_table()
        assert set(table) == set(GestureLabel)
        assert all(len(v) == 6 for v in table.values())

    def test_known_rows(self):
        table = default_depth_table()
        assert table[GestureLabel.StandStill] == (0.0, 0.1, -0.1, 0.0, 0.1, -0.1)
        assert table[GestureLabel.LeftHandWave] == (0.0, -0.4, -0.4, 0.0, 0.1, -0.1)
        assert table[GestureLabel.LeftHandLeftCircle] == (0.0, -0.1, -0.1, 0.0, 0.1, -0.1)

    def test_parse_rejects_bad_rows(self):
        with pytest.raises(InvalidConfig):
            parse_depth_table("StandStill 1 2 3\n")
        with pytest.raises(UnknownLabel):
            parse_depth_table("NoSuchGesture 0 0 0 0 0 0\n")
        with pytest.raises(InvalidConfig):
            parse_depth_table("StandStill 0 0 x 0 0 0\n")

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "depths.cfg"
        path.write_text("# comment\nCallToPass 0 -0.1 -0.2 0 -0.2 -0.3\n")
        table = load_depth_table(path)
        assert table == {GestureLabel.CallToPass: (0.0, -0.1, -0.2, 0.0, -0.2, -0.3)}
