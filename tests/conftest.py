import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from gesturepipe import nn
from gesturepipe.skeleton import N_KEYPOINTS, Pose


def make_openpose_doc(values=None, n_people=1):
    """Build an OpenPose per-frame JSON document string."""
    if values is None:
        values = [0.0] * (3 * N_KEYPOINTS)
    person = {"person_id": [-1], "pose_keypoints_2d": list(values)}
    return json.dumps({"version": 1.3, "people": [person] * n_people})


def random_pose(rng, present_mask=None):
    """A random pose with coordinates in a realistic pixel range."""
    kp = np.zeros((N_KEYPOINTS, 3))
    kp[:, 0] = rng.uniform(0, 640, N_KEYPOINTS)
    kp[:, 1] = rng.uniform(0, 480, N_KEYPOINTS)
    kp[:, 2] = rng.uniform(0.3, 1.0, N_KEYPOINTS)
    if present_mask is not None:
        kp[~np.asarray(present_mask, dtype=bool)] = 0.0
    return Pose(kp)


def traced_peak(fn) -> int:
    """Call ``fn()`` with tracemalloc on; returns the peak of bytes traced during the call."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def train_keeping_best(*args, **kwargs):
    """``nn.train`` with an ``on_best`` that copies each best epoch's weights. Returns
    the ``TrainResult``'s fields and ``params``, the best epoch's copy."""
    best = []
    result = nn.train(*args, **kwargs, on_best=lambda p: best.append(nn.ModelParams(p.config, p.weights.copy())))
    return SimpleNamespace(**vars(result), params=best[-1])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
