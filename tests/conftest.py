import numpy as np
import pytest

from motok.motion import FRAME_DIM
from motok.vae import SEGMENT_LEN

# An all-zero segment batch: vae.channel_stats maps it to shift 0 and scale 1,
# so vae.init_params seeds an identity input standardization from it.
ZERO_SEGMENTS = np.zeros((1, SEGMENT_LEN, FRAME_DIM))


def rodrigues(axis_angle):
    """Independent axis-angle -> rotation matrix oracle (explicit formula)."""
    v = np.asarray(axis_angle, dtype=np.float64)
    theta = np.linalg.norm(v)
    if theta < 1e-12:
        return np.eye(3)
    k = v / theta
    skew = np.array([
        [0.0, -k[2], k[1]],
        [k[2], 0.0, -k[0]],
        [-k[1], k[0], 0.0],
    ])
    return np.eye(3) + np.sin(theta) * skew + (1.0 - np.cos(theta)) * (skew @ skew)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
