"""Feature encodings of BODY-25 keypoints.

One encoder maps (T, 25, 3) keypoints, the per-person array OpenPose emits
stacked over T frames, to a (T, dim) float64 matrix; a single pose is the
T = 1 case. Every frame needs all ``N_UPPER`` upper-body keypoints (nose,
neck, both arm chains, mid-hip; see :mod:`.skeleton`). Two representations
feed the classifier:

* coordinate: the upper-body points after :func:`normalize_1x1` (neck at
  the origin, bounding box exactly 1 by 1), flattened to x, y pairs in id
  order;
* angle: 5 joint angles (both elbows, both shoulders, the neck) mapped from
  [0, 180] degrees onto [0, 1].

Angles are taken on the raw keypoints rather than the unit-box output: they
do not depend on position, and the anisotropic 1x1 scaling would distort
them.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DegenerateExtent, MissingKeypoint, PipelineError, ZeroLengthRay, at
from .skeleton import ARM_A, ARM_B, MID_HIP, N_UPPER, NECK, NOSE, Pose, Sequence

# (a, vertex, b) keypoint triples: elbows, shoulders, neck
ANGLE_TRIPLES = (ARM_A, ARM_B, (NECK, *ARM_A[:2]), (NECK, *ARM_B[:2]), (NOSE, NECK, MID_HIP))
COORD_DIM = 2 * N_UPPER
ANGLE_DIM = len(ANGLE_TRIPLES)
_RAY_A, _VERTEX, _RAY_B = (list(column) for column in zip(*ANGLE_TRIPLES))


class Encoding(str, Enum):
    COORDINATE = "coordinate"
    ANGLE = "angle"

    @property
    def dim(self) -> int:
        return COORD_DIM if self is Encoding.COORDINATE else ANGLE_DIM


def _at_frame(error: PipelineError, bad: np.ndarray) -> PipelineError:
    """``error`` with ``frame`` set to the first index along axis 0 where ``bad`` is set."""
    return at(error, frame=int(np.argmax(bad.reshape(len(bad), -1).any(axis=1))) if bad.ndim else 0)


def normalize_1x1(points: np.ndarray) -> np.ndarray:
    """Translate the neck to the origin and scale x and y so the box is exactly 1x1.

    ``points`` holds all-present upper-body points, (N_UPPER, 2) for one frame
    or (T, N_UPPER, 2) for T frames. Extents are measured over these points only, so
    lower-body detection noise can never rescale arm geometry. Raises
    DegenerateExtent when a frame's points have zero width or height.
    """
    shifted = points - points[..., NECK, None, :]
    extent = shifted.max(axis=-2) - shifted.min(axis=-2)
    if not extent.all():
        bad = (extent == 0.0).any(axis=-1)
        width, height = extent.reshape(-1, 2)[np.argmax(bad)]
        raise _at_frame(
            DegenerateExtent(f"upper-body extent is degenerate (width={width}, height={height})"),
            bad,
        )
    return shifted * (1.0 / extent)[..., None, :]


def angle_at(a, vertex, b) -> np.ndarray:
    """Unsigned angles in degrees [0, 180] between rays vertex->a and vertex->b.

    Points are (..., 2) arrays; leading axes broadcast. Taken as
    atan2(|a x b|, a . b), which stays accurate near 0 and 180 degrees, where
    the arccos of the normalized dot product does not.
    """
    vertex = np.asarray(vertex, dtype=np.float64)
    ra = np.asarray(a, dtype=np.float64) - vertex
    rb = np.asarray(b, dtype=np.float64) - vertex
    zero = ~(ra.any(axis=-1) & rb.any(axis=-1))
    if zero.any():
        raise _at_frame(ZeroLengthRay("angle rays must have nonzero length"), zero)
    cross = ra[..., 0] * rb[..., 1] - ra[..., 1] * rb[..., 0]
    dot = ra[..., 0] * rb[..., 0] + ra[..., 1] * rb[..., 1]
    return np.degrees(np.arctan2(np.abs(cross), dot))


def _encode(kp: np.ndarray, encoding: Encoding) -> np.ndarray:
    """Encode (T, 25, 3) keypoints into a (T, dim) matrix.

    Raises for the earliest failing frame, whose index the error carries as
    ``frame``: MissingKeypoint with the first absent upper-body index,
    DegenerateExtent or ZeroLengthRay.
    """
    upper = kp[:, :N_UPPER]
    gaps = upper[:, :, 2] <= 0.0
    end = len(kp)
    if gaps.any():
        gap_frames = gaps.any(axis=1)
        end = int(np.argmax(gap_frames))
    points = upper[:end, :, :2]
    if encoding is Encoding.COORDINATE:
        rows = normalize_1x1(points).reshape(end, COORD_DIM)
    else:
        rows = angle_at(points[:, _RAY_A], points[:, _VERTEX], points[:, _RAY_B]) / 180.0
    if end < len(kp):
        raise _at_frame(MissingKeypoint(int(np.argmax(gaps[end]))), gap_frames)
    return rows


def encode_frame(pose: Pose | np.ndarray, encoding: Encoding) -> np.ndarray:
    """Encode one pose or (25, 3) keypoint array: the one-frame :func:`encode_sequence`."""
    return _encode(np.asarray(pose)[None], encoding)[0]


def encode_sequence(seq: Sequence, encoding: Encoding) -> np.ndarray:
    """Encode every frame of a sequence into an (n_frames, dim) matrix; a
    refusal carries the earliest failing frame as ``frame``."""
    return _encode(seq.kp, encoding)


def slice_windows(matrix: np.ndarray, window_len: int, stride: int) -> np.ndarray:
    """Cut a (T, dim) feature matrix into (n, window_len, dim) windows, one
    starting every ``stride`` frames: a read-only strided view of ``matrix``,
    with n = 0 when T < window_len."""
    if window_len < 1 or stride < 1:
        raise ValueError("window_len and stride must be positive")
    n = max(0, (len(matrix) - window_len) // stride + 1)
    return np.lib.stride_tricks.as_strided(
        matrix, (n, window_len, *matrix.shape[1:]), (stride * matrix.strides[0], *matrix.strides),
        writeable=False,
    )

