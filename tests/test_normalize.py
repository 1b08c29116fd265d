import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturepipe.errors import DegenerateExtent, MissingKeypoint
from gesturepipe.features import Encoding, encode_frame, normalize_1x1
from gesturepipe.skeleton import N_KEYPOINTS, Pose


def pose_from_upper(points, present=(True,) * 9):
    """Build a Pose from 9 upper-body (x, y) rows and presence flags."""
    kp = np.zeros((N_KEYPOINTS, 3))
    pts = np.asarray(points, dtype=float)
    kp[:9, :2] = pts
    kp[:9, 2] = np.asarray(present, dtype=float)
    return Pose(kp)


def random_nondegenerate_points(rng, spread=200.0):
    while True:
        pts = rng.uniform(-spread, spread, size=(9, 2))
        if np.ptp(pts[:, 0]) > 1e-3 and np.ptp(pts[:, 1]) > 1e-3:
            return pts


def test_hand_computed_example():
    # neck (2,2), point A (4,6) at slot 0, point B (0,0) at slot 2, the rest
    # at (3,4): shifting by the neck gives (2,4), (0,0), (-2,-2) and (1,2);
    # extents 4 and 6.
    points = np.full((9, 2), (3.0, 4.0))
    points[0] = (4.0, 6.0)
    points[1] = (2.0, 2.0)
    points[2] = (0.0, 0.0)
    out = normalize_1x1(points)
    assert out[1] == pytest.approx((0.0, 0.0), abs=0)
    assert out[0] == pytest.approx((0.5, 2.0 / 3.0), abs=1e-12)
    assert out[2] == pytest.approx((-0.5, -1.0 / 3.0), abs=1e-12)
    for row in out[3:]:
        assert row == pytest.approx((0.25, 1.0 / 3.0), abs=1e-12)


def test_already_normalized_input_is_fixed_point(rng):
    pts = random_nondegenerate_points(rng)
    once = normalize_1x1(pts)
    twice = normalize_1x1(once)
    np.testing.assert_allclose(twice, once, atol=1e-12)


def test_vertical_line_degenerate():
    points = np.zeros((9, 2))
    points[:, 1] = np.arange(9.0)  # all on x = 0
    with pytest.raises(DegenerateExtent):
        normalize_1x1(points)


def test_missing_neck():
    # the neck anchors the 1x1 box; without it both encodings report keypoint 1
    points = np.arange(18.0).reshape(9, 2)
    present = [True] * 9
    present[1] = False
    for encoding in Encoding:
        with pytest.raises(MissingKeypoint) as err:
            encode_frame(pose_from_upper(points, present), encoding)
        assert err.value.index == 1
        assert err.value.frame == 0
        assert str(err.value) == "frame 0: keypoint 1 is missing"


def test_missing_points_excluded_from_extent(rng):
    # lower-body keypoints, missing or present, never reach the 1x1 box
    pts = random_nondegenerate_points(rng)
    kp = pose_from_upper(pts).kp.copy()
    kp[9:, :2] = rng.uniform(-1e4, 1e4, size=(16, 2))
    kp[9:, 2] = rng.choice([0.0, 0.7], size=16)
    out = encode_frame(Pose(kp), Encoding.COORDINATE).reshape(9, 2)
    np.testing.assert_array_equal(out, normalize_1x1(pts))
    assert np.ptp(out[:, 0]) == pytest.approx(1.0, abs=1e-9)
    assert np.ptp(out[:, 1]) == pytest.approx(1.0, abs=1e-9)


coord = st.floats(min_value=-500.0, max_value=500.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=9, max_size=9))
def test_unit_box_and_neck_pin(points):
    pts = np.asarray(points)
    if np.ptp(pts[:, 0]) < 1e-3 or np.ptp(pts[:, 1]) < 1e-3:
        return
    out = normalize_1x1(pts)
    assert out[1, 0] == 0.0 and out[1, 1] == 0.0
    assert np.ptp(out[:, 0]) == pytest.approx(1.0, abs=1e-9)
    assert np.ptp(out[:, 1]) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(coord, coord), min_size=9, max_size=9),
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
)
def test_translation_invariance(points, dx, dy):
    pts = np.asarray(points)
    if np.ptp(pts[:, 0]) < 1e-3 or np.ptp(pts[:, 1]) < 1e-3:
        return
    base = normalize_1x1(pts)
    moved = normalize_1x1(pts + np.array([dx, dy]))
    np.testing.assert_allclose(moved, base, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(coord, coord), min_size=9, max_size=9),
    st.floats(min_value=1e-2, max_value=1e3, allow_nan=False),
    st.floats(min_value=1e-2, max_value=1e3, allow_nan=False),
)
def test_anisotropic_scale_invariance(points, a, b):
    pts = np.asarray(points)
    if np.ptp(pts[:, 0]) < 1e-3 or np.ptp(pts[:, 1]) < 1e-3:
        return
    base = normalize_1x1(pts)
    scaled = normalize_1x1(pts * np.array([a, b]))
    np.testing.assert_allclose(scaled, base, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=9, max_size=9))
def test_idempotence(points):
    pts = np.asarray(points)
    if np.ptp(pts[:, 0]) < 1e-3 or np.ptp(pts[:, 1]) < 1e-3:
        return
    once = normalize_1x1(pts)
    twice = normalize_1x1(once)
    np.testing.assert_allclose(twice, once, atol=1e-9)
