"""Motion sequence types and rigid-frame conversions.

A motion frame is a 75-vector: human root translation (columns 0:3), human
root orientation as an axis-angle rotation vector (3:6), 21 local joint
rotation vectors (6:69), and the 6-DoF pose of an interacting object
(69:75).  Translations are meters, rotations radians.  Y is up; the ground
plane is XZ.

Rotation vectors map to matrices by Rodrigues' formula, and matrices back
to rotation vectors through a unit quaternion found by Shepperd's method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FRAME_DIM = 75
ROOT_POS = slice(0, 3)
ROOT_ROT = slice(3, 6)
JOINT_ROT = slice(6, 69)
OBJ_POS = slice(69, 72)
OBJ_ROT = slice(72, 75)
# The frame columns of one 12-value row of a sampled waypoint track (``motok
# sample``): root pose, then object pose.
WAYPOINT_COLUMNS = np.r_[ROOT_POS, ROOT_ROT, OBJ_POS, OBJ_ROT]
# The 69 columns of a frame's 23 rotation vectors, root, joints, then object:
# frames[:, ROTATION_COLUMNS].reshape(T, 23, 3) holds them in that order.
ROTATION_COLUMNS = np.r_[ROOT_ROT, JOINT_ROT, OBJ_ROT]
# Each rotation block's name and its vectors' slice of those 23.
_ROTATION_BLOCKS = (("root orientation", slice(0, 1)), ("joint rotation", slice(1, 22)),
                    ("object orientation", slice(22, 23)))

# Dataset cap (300 frames at 30 fps) rounded up to a whole 8-frame segment,
# so a tokenize/detokenize round trip of a maximum-length sequence stays
# representable.
MAX_FRAMES = 304

TWO_PI = 2.0 * np.pi
# Below this angle the trigonometric ratios of the rotation maps use their
# Taylor series, which are exact to double precision there.
SMALL_ANGLE = 1e-3


class MotionError(ValueError):
    """Raised for malformed motion data or misused conversions."""


def axis_angle_to_matrix(rotvec: np.ndarray) -> np.ndarray:
    """Convert axis-angle rotation vectors (..., 3) to matrices (..., 3, 3).

    Rodrigues' formula: R = cos(t) I + (sin(t)/t) [r]x + ((1 - cos(t))/t^2) r r^T
    with t = |r|, where 1 - cos(t) = 2 sin^2(t/2) avoids cancellation.
    """
    r = np.asarray(rotvec, dtype=np.float64)
    if r.shape[-1:] != (3,):
        raise MotionError(f"rotation vectors must have shape (..., 3), got {r.shape}")
    theta_sq = np.einsum("...i,...i->...", r, r)
    theta = np.sqrt(theta_sq)
    # a = sin(t)/t and b = (1 - cos(t))/t^2, by their Taylor series when t is small
    small = theta < SMALL_ANGLE
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - theta_sq / 6.0 + theta_sq * theta_sq / 120.0, np.sin(safe) / safe)
    half_sin = np.sin(safe / 2.0)
    b = np.where(small, 0.5 - theta_sq / 24.0 + theta_sq * theta_sq / 720.0,
                 2.0 * half_sin * half_sin / (safe * safe))
    mats = b[..., None, None] * r[..., :, None] * r[..., None, :]
    x, y, z = (a * r[..., i] for i in range(3))
    mats[..., 0, 1] -= z
    mats[..., 1, 0] += z
    mats[..., 0, 2] += y
    mats[..., 2, 0] -= y
    mats[..., 1, 2] -= x
    mats[..., 2, 1] += x
    cos = np.cos(theta)
    for i in range(3):
        mats[..., i, i] += cos
    return mats


def _matrix_to_rotvec(mats: np.ndarray) -> np.ndarray:
    """Rotation vectors (N, 3) of rotation matrices (N, 3, 3).

    Shepperd's method picks the largest of the trace and the three diagonal
    entries to build the quaternion without cancellation.  The quaternion is
    flipped to w >= 0, so angles lie in [0, pi], and angle = 2 atan2(|v|, w).
    """
    num = mats.shape[0]
    diag = np.diagonal(mats, axis1=1, axis2=2)
    trace = diag.sum(axis=1)
    choice = np.argmax(np.concatenate([diag, trace[:, None]], axis=1), axis=1)
    quat = np.empty((num, 4))  # x, y, z, w
    m = mats[choice == 3]
    quat[choice == 3] = np.stack([m[:, 2, 1] - m[:, 1, 2], m[:, 0, 2] - m[:, 2, 0],
                                  m[:, 1, 0] - m[:, 0, 1], 1.0 + trace[choice == 3]], axis=1)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        rows = choice == i
        m = mats[rows]
        q = np.empty((m.shape[0], 4))
        q[:, i] = 1.0 - trace[rows] + 2.0 * m[:, i, i]
        q[:, j] = m[:, j, i] + m[:, i, j]
        q[:, k] = m[:, k, i] + m[:, i, k]
        q[:, 3] = m[:, k, j] - m[:, j, k]
        quat[rows] = q
    quat /= np.linalg.norm(quat, axis=1, keepdims=True)
    quat[quat[:, 3] < 0.0] *= -1.0
    vec = quat[:, :3]
    angle = 2.0 * np.arctan2(np.linalg.norm(vec, axis=1), quat[:, 3])
    small = angle < SMALL_ANGLE
    angle_sq = angle * angle
    scale = np.where(small, 2.0 + angle_sq / 12.0 + 7.0 * angle_sq * angle_sq / 2880.0,
                     angle / np.sin(np.where(small, 1.0, angle) / 2.0))
    return scale[:, None] * vec


def normalize_rotations(frames: np.ndarray) -> np.ndarray:
    """Wrap every rotation vector of a (T, 75) array to magnitude < 2*pi.

    The axis is preserved; only the angle is reduced modulo a full turn.
    Needed when raw decoder output is promoted to a MotionSequence.  Returns
    one float64 copy of ``frames``, whose 23 rotation vectors are wrapped in
    one pass; ``frames`` itself is never written.
    """
    frames = np.array(frames, dtype=np.float64, order="C")
    num = frames.shape[0]
    # a huge vector overflows to inf or NaN, which MotionSequence reports, not numpy
    with np.errstate(over="ignore", invalid="ignore"):
        vecs = frames[:, ROTATION_COLUMNS].reshape(num, -1, 3)
        norms = np.linalg.norm(vecs, axis=2, keepdims=True)
        scale = np.ones_like(norms)
        over = norms >= TWO_PI
        if over.any():  # the modulo is most of the cost, and decoder output rarely needs it
            np.divide(np.mod(norms, TWO_PI), norms, out=scale, where=over)
        frames[:, ROTATION_COLUMNS] = (vecs * scale).reshape(num, -1)
    return frames


@dataclass(frozen=True)
class SixDof:
    """A rigid pose: translation (meters) plus axis-angle orientation (radians)."""

    translation: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=np.float64).reshape(3).copy()
        r = np.asarray(self.orientation, dtype=np.float64).reshape(3).copy()
        if not np.all(np.isfinite(t)):
            raise MotionError("translation contains non-finite values")
        if not np.all(np.isfinite(r)):
            raise MotionError("orientation contains non-finite values")
        # a component above ~1.3e154 squares to inf: its norm reads inf, which the
        # check below rejects, so numpy's overflow warning would only repeat it
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(r, axis=-1)
        if norm >= TWO_PI:
            raise MotionError(f"orientation rotation magnitude must be < 2*pi, got max {norm:.6f}")
        t.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "orientation", r)

    def rotation_matrix(self) -> np.ndarray:
        return axis_angle_to_matrix(self.orientation)


@dataclass(frozen=True)
class MotionSequence:
    """A T x 75 motion table with its frame rate and representation flag.

    ``is_canonical`` distinguishes the root-relative form (first frame at the
    XZ origin with zero yaw) from the world-frame form used for scene work.

    ``frames`` is stored as one read-only float64 copy of what was given,
    so the caller's array is never shared.  Every value must be finite and
    each of the 23 rotation vectors shorter than 2*pi; a longer one is
    reported for the first block that holds one (root, joints, object),
    with that block's largest magnitude.
    """

    frames: np.ndarray
    fps: int = 30
    is_canonical: bool = False

    def __post_init__(self):
        frames = np.array(self.frames, dtype=np.float64, order="C")
        if frames.ndim != 2 or frames.shape[1] != FRAME_DIM:
            raise MotionError(f"frames must be (T, {FRAME_DIM}), got {frames.shape}")
        num = frames.shape[0]
        if not 1 <= num <= MAX_FRAMES:
            raise MotionError(f"frame count must be in [1, {MAX_FRAMES}], got {num}")
        if int(self.fps) < 1:
            raise MotionError(f"fps must be >= 1, got {self.fps}")
        if not np.isfinite(frames).all():
            raise MotionError("frames contain non-finite values")
        # a component above ~1.3e154 squares to inf: its norm reads inf, which the
        # check below rejects, so numpy's overflow warning would only repeat it
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(frames[:, ROTATION_COLUMNS].reshape(num, -1, 3), axis=2)
        if norms.max() >= TWO_PI:
            for what, vectors in _ROTATION_BLOCKS:
                block = norms[:, vectors]
                if block.max() >= TWO_PI:
                    raise MotionError(
                        f"{what} rotation magnitude must be < 2*pi, got max {block.max():.6f}")
        frames.setflags(write=False)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "fps", int(self.fps))
        object.__setattr__(self, "is_canonical", bool(self.is_canonical))

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


def _apply_rigid(frames: np.ndarray, rot: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """Left-compose a world-frame rigid transform onto root and object poses.

    Local joint rotations are untouched; they are relative to the root chain.
    """
    out = frames.copy()
    out[:, ROOT_POS] = frames[:, ROOT_POS] @ rot.T + trans
    out[:, ROOT_ROT] = _matrix_to_rotvec(rot @ axis_angle_to_matrix(frames[:, ROOT_ROT]))
    out[:, OBJ_POS] = frames[:, OBJ_POS] @ rot.T + trans
    out[:, OBJ_ROT] = _matrix_to_rotvec(rot @ axis_angle_to_matrix(frames[:, OBJ_ROT]))
    return out


def yaw_of_matrix(rot: np.ndarray) -> float:
    """Heading angle about +Y extracted from a rotation matrix.

    Uses the image of the body z-axis projected on the ground plane; falls
    back to the x-axis when that projection degenerates (z pointing straight
    up or down).
    """
    fx, fz = rot[0, 2], rot[2, 2]
    if np.hypot(fx, fz) < 1e-9:
        return float(np.arctan2(-rot[2, 0], rot[0, 0]))
    return float(np.arctan2(fx, fz))


def root_pose_of(seq: MotionSequence) -> SixDof:
    """Planar (XZ translation + yaw) part of the first frame's root pose.

    This is the component removed by :func:`to_canonical`, so
    ``to_global(to_canonical(s), root_pose_of(s))`` reproduces ``s``.
    """
    first = seq.frames[0]
    yaw = yaw_of_matrix(axis_angle_to_matrix(first[ROOT_ROT]))
    return SixDof(
        translation=np.array([first[0], 0.0, first[2]]),
        orientation=np.array([0.0, yaw, 0.0]),
    )


def to_global(seq: MotionSequence, root_pose: SixDof) -> MotionSequence:
    """Place a canonical sequence into the world by a rigid offset.

    ``root_pose`` is applied as a world-frame transform to the root and
    object tracks of every frame, so frame-to-frame deltas are preserved.
    For a canonical sequence rooted at the origin with identity orientation
    the first-frame root pose equals ``root_pose``.
    """
    if not seq.is_canonical:
        raise MotionError("to_global expects a canonical sequence")
    rot = root_pose.rotation_matrix()
    frames = _apply_rigid(seq.frames, rot, root_pose.translation)
    return MotionSequence(frames, fps=seq.fps, is_canonical=False)


def to_canonical(seq: MotionSequence) -> MotionSequence:
    """Re-root a global sequence: zero the first frame's XZ position and yaw.

    Height and any residual root tilt are preserved so floor contact
    survives the round trip.
    """
    if seq.is_canonical:
        raise MotionError("to_canonical expects a global sequence")
    planar = root_pose_of(seq)
    rot = planar.rotation_matrix()
    inv_rot = rot.T
    inv_trans = -inv_rot @ planar.translation
    frames = _apply_rigid(seq.frames, inv_rot, inv_trans)
    return MotionSequence(frames, fps=seq.fps, is_canonical=True)
