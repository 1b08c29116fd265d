import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturepipe import synth
from gesturepipe.errors import DegenerateExtent, MissingKeypoint, ZeroLengthRay
from gesturepipe.features import (
    Encoding,
    angle_at,
    encode_frame,
    encode_sequence,
    normalize_1x1,
    slice_windows,
)
from gesturepipe.skeleton import GestureLabel, Sequence

from test_normalize import pose_from_upper, random_nondegenerate_points


def reference_angle(a, vertex, b):
    """Independent oracle: exact cross and dot products, then one atan2."""
    ax, ay = Fraction(a[0]) - Fraction(vertex[0]), Fraction(a[1]) - Fraction(vertex[1])
    bx, by = Fraction(b[0]) - Fraction(vertex[0]), Fraction(b[1]) - Fraction(vertex[1])
    cross = ax * by - ay * bx
    dot = ax * bx + ay * by
    return math.degrees(math.atan2(float(abs(cross)), float(dot)))


# the (a, vertex, b) BODY-25 ids of the five angle features, in feature
# order: both elbows, both shoulders, the neck
ANGLE_TRIPLES = ((2, 3, 4), (5, 6, 7), (1, 2, 3), (1, 5, 6), (0, 1, 8))


def encode_angles(points):
    """Angle features of 9 present upper-body points."""
    return encode_frame(pose_from_upper(points), Encoding.ANGLE)


# An arms-out horizontal posture over a vertical torso. With the vertex at
# the shoulder, the rays to the neck and to the elbow are antiparallel, so
# both shoulder angles measure 180 degrees (1.0 after scaling); verified
# against reference_angle below.
ARMS_OUT = np.array(
    [
        (0.0, -35.0),   # 0 nose
        (0.0, 0.0),     # 1 neck
        (-50.0, 0.0),   # 2 shoulder
        (-95.0, 0.0),   # 3 elbow
        (-137.0, 0.0),  # 4 wrist
        (50.0, 0.0),    # 5 shoulder
        (95.0, 0.0),    # 6 elbow
        (137.0, 0.0),   # 7 wrist
        (0.0, 125.0),   # 8 mid-hip
    ]
)


class TestAngleAt:
    def test_perpendicular_rays(self):
        assert angle_at((1, 0), (0, 0), (0, 1)) == pytest.approx(90.0, abs=1e-12)

    def test_opposite_rays(self):
        assert angle_at((1, 0), (0, 0), (-1, 0)) == pytest.approx(180.0, abs=1e-12)

    def test_parallel_rays(self):
        assert angle_at((1, 0), (0, 0), (2, 0)) == pytest.approx(0.0, abs=1e-7)

    def test_zero_length_ray(self):
        with pytest.raises(ZeroLengthRay):
            angle_at((0, 0), (0, 0), (1, 1))

    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(*[st.floats(-100, 100) for _ in range(6)]),
    )
    def test_matches_reference(self, coords):
        a, vertex, b = (coords[0], coords[1]), (coords[2], coords[3]), (coords[4], coords[5])
        # stay clear of the sub-normal regime where the cross and dot
        # products underflow; real keypoints are pixel-scale
        if math.hypot(a[0] - vertex[0], a[1] - vertex[1]) < 1e-6:
            return
        if math.hypot(b[0] - vertex[0], b[1] - vertex[1]) < 1e-6:
            return
        assert angle_at(a, vertex, b) == pytest.approx(reference_angle(a, vertex, b), abs=1e-12)


class TestEncodeCoordinates:
    def test_neck_slot_is_origin(self, rng):
        pts = random_nondegenerate_points(rng)
        out = encode_frame(pose_from_upper(pts), Encoding.COORDINATE)
        assert out.shape == (18,) and out.dtype == np.float64
        assert out[2] == 0.0 and out[3] == 0.0

    def test_is_concatenation_of_points(self, rng):
        pts = random_nondegenerate_points(rng)
        unit = normalize_1x1(pts)
        out = encode_frame(pose_from_upper(pts), Encoding.COORDINATE)
        expected = [c for point in unit for c in point]  # independent flatten
        assert list(out) == expected
        assert len(out) == 18

    def test_missing_keypoint_rejected(self, rng):
        pts = random_nondegenerate_points(rng)
        present = [True] * 9
        present[6] = False
        with pytest.raises(MissingKeypoint) as err:
            encode_frame(pose_from_upper(pts, present), Encoding.COORDINATE)
        assert err.value.index == 6


class TestEncodeAngles:
    def test_straight_arm_is_one(self):
        pts = ARMS_OUT.copy()
        out = encode_angles(pts)
        assert out[0] == pytest.approx(1.0, abs=1e-12)  # elbow 2-3-4 collinear
        assert out[1] == pytest.approx(1.0, abs=1e-12)

    def test_right_angle_elbow_is_half(self):
        pts = ARMS_OUT.copy()
        pts[4] = (-95.0, 42.0)  # forearm straight down from the elbow
        out = encode_angles(pts)
        assert out[0] == pytest.approx(0.5, abs=1e-12)

    def test_arms_out_shoulder_angles(self):
        # shoulder rays to neck and elbow are antiparallel in this posture
        out = encode_angles(ARMS_OUT)
        for j, (a, v, b) in enumerate(ANGLE_TRIPLES):
            expected = reference_angle(ARMS_OUT[a], ARMS_OUT[v], ARMS_OUT[b]) / 180.0
            assert out[j] == pytest.approx(expected, abs=1e-12)
        assert out[2] == pytest.approx(1.0, abs=1e-12)
        assert out[3] == pytest.approx(1.0, abs=1e-12)

    def test_values_in_unit_interval(self, rng):
        for _ in range(50):
            pts = random_nondegenerate_points(rng)
            out = encode_angles(pts)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.floats(min_value=-1e3, max_value=1e3),
        st.floats(min_value=-1e3, max_value=1e3),
        st.floats(min_value=1e-2, max_value=1e2),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_similarity_invariance(self, theta, dx, dy, scale, seed):
        pts = random_nondegenerate_points(np.random.default_rng(seed))
        base = encode_angles(pts)
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        moved = (pts @ rot.T) * scale + np.array([dx, dy])
        out = encode_angles(moved)
        np.testing.assert_allclose(out, base, atol=1e-9)


def test_coordinate_features_are_not_rotation_invariant(rng):
    # guards against accidentally canonicalizing orientation
    pts = random_nondegenerate_points(rng)
    theta = math.radians(30.0)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    base = encode_frame(pose_from_upper(pts), Encoding.COORDINATE)
    turned = encode_frame(pose_from_upper(pts @ rot.T), Encoding.COORDINATE)
    assert np.abs(base - turned).max() > 1e-3


class TestEncodeFrame:
    def test_angle_path_requires_all_upper_keypoints(self, rng):
        pts = random_nondegenerate_points(rng)
        present = [True] * 9
        present[0] = False
        pose = pose_from_upper(pts, present)
        with pytest.raises(MissingKeypoint) as err:
            encode_frame(pose, Encoding.ANGLE)
        assert (err.value.index, err.value.frame) == (0, 0)
        assert str(err.value) == "frame 0: keypoint 0 is missing"

    def test_angle_path_ignores_unit_box_scaling(self, rng):
        # angles computed on the raw points, not the anisotropic 1x1 output
        pts = random_nondegenerate_points(rng)
        pts[:, 1] *= 3.0
        expected = [reference_angle(pts[a], pts[v], pts[b]) / 180.0 for a, v, b in ANGLE_TRIPLES]
        via_frame = encode_frame(pose_from_upper(pts), Encoding.ANGLE)
        np.testing.assert_allclose(via_frame, expected, rtol=0, atol=1e-12)
        of_unit_box = encode_angles(normalize_1x1(pts))
        assert np.abs(of_unit_box - via_frame).max() > 1e-3

    @pytest.mark.parametrize("encoding", list(Encoding))
    def test_sequence_is_stacked_frames(self, encoding):
        seq = synth.generate(synth.SynthConfig(gesture=GestureLabel.LeftHandWave, seed=2))
        stacked = np.stack([encode_frame(pose, encoding) for pose in seq.frames])
        got = encode_sequence(seq, encoding)
        assert got.shape == (len(seq), encoding.dim) and got.dtype == np.float64
        np.testing.assert_array_equal(got, stacked)

    def test_sequence_encoding_reports_frame(self, rng):
        # the earliest failing frame is reported, whatever fails after it
        good = pose_from_upper(random_nondegenerate_points(rng))
        present = [True] * 9
        present[4] = False
        bad = pose_from_upper(random_nondegenerate_points(rng), present)
        collinear = np.zeros((9, 2))
        collinear[:, 1] = np.arange(9.0)
        seq = Sequence((good, bad, pose_from_upper(collinear)), fps=30.0)
        with pytest.raises(MissingKeypoint, match="^frame 1: keypoint 4 is missing$") as err:
            encode_sequence(seq, Encoding.COORDINATE)
        assert err.value.index == 4

    def test_sequence_encoding_tags_degenerate_frames_too(self, rng):
        good = pose_from_upper(random_nondegenerate_points(rng))
        collinear = np.zeros((9, 2))
        collinear[:, 1] = np.arange(9.0)
        bad = pose_from_upper(collinear)
        present = [True] * 9
        present[5] = False
        gap = pose_from_upper(random_nondegenerate_points(rng), present)
        seq = Sequence((good, bad, gap), fps=30.0)
        with pytest.raises(DegenerateExtent, match="^frame 1: "):
            encode_sequence(seq, Encoding.COORDINATE)
        coincident = random_nondegenerate_points(rng)
        coincident[4] = coincident[3]  # zero-length forearm ray at the elbow
        seq = Sequence((good, good, pose_from_upper(coincident), gap), fps=30.0)
        with pytest.raises(ZeroLengthRay, match="^frame 2: "):
            encode_sequence(seq, Encoding.ANGLE)

    # what each one-frame failure raises per encoding, None when it encodes
    FAILURES = {
        "missing": {Encoding.COORDINATE: MissingKeypoint, Encoding.ANGLE: MissingKeypoint},
        "zero width": {Encoding.COORDINATE: DegenerateExtent, Encoding.ANGLE: None},
        "zero height": {Encoding.COORDINATE: DegenerateExtent, Encoding.ANGLE: None},
        "coincident": {Encoding.COORDINATE: None, Encoding.ANGLE: ZeroLengthRay},
    }

    @staticmethod
    def failing_pose(rng, case):
        pts = random_nondegenerate_points(rng)
        present = [True] * 9
        if case == "missing":
            present[6] = False
        elif case == "zero width":
            pts[:, 0] = 12.5
        elif case == "zero height":
            pts[:, 1] = -3.0
        else:
            pts[4] = pts[3]  # wrist on the elbow
        return pose_from_upper(pts, present)

    @pytest.mark.parametrize("encoding", list(Encoding))
    @pytest.mark.parametrize("case", list(FAILURES))
    def test_frame_fails_as_the_sequence_does_at_that_frame(self, rng, encoding, case):
        good = pose_from_upper(random_nondegenerate_points(rng))
        bad = self.failing_pose(rng, case)
        later = self.failing_pose(rng, "missing")
        expected = self.FAILURES[case][encoding]
        if expected is None:
            np.testing.assert_array_equal(
                encode_frame(bad, encoding), encode_sequence(Sequence((good, bad), fps=30.0), encoding)[1]
            )
            return
        with pytest.raises(expected) as in_seq:
            encode_sequence(Sequence((good, good, bad, later), fps=30.0), encoding)
        with pytest.raises(expected) as alone:
            encode_frame(bad, encoding)
        assert in_seq.value.frame == 2 and alone.value.frame == 0
        cause = alone.value.args[0]
        assert (str(in_seq.value), str(alone.value)) == (f"frame 2: {cause}", f"frame 0: {cause}")
        assert vars(alone.value) == {**vars(in_seq.value), "frame": 0}


class TestWindowsAndCache:
    def test_slice_windows(self):
        m = np.arange(20).reshape(10, 2)
        wins = slice_windows(m, window_len=4, stride=3)
        assert [w[0, 0] for w in wins] == [0, 6, 12]
        assert all(w.shape == (4, 2) for w in wins)

    @pytest.mark.parametrize("n_frames, window_len, stride", [(3, 4, 1), (4, 4, 3), (11, 4, 3)])
    def test_slice_windows_are_the_per_start_slices(self, n_frames, window_len, stride):
        m = np.arange(2.0 * n_frames).reshape(n_frames, 2)
        starts = range(0, n_frames - window_len + 1, stride)
        want = np.array([m[s : s + window_len] for s in starts]).reshape(-1, window_len, 2)
        got = slice_windows(m, window_len, stride)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)
