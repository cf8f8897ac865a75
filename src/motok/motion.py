"""Motion sequence types, rigid-frame conversions, and waypoint extraction.

A motion frame is a 75-vector: human root translation (columns 0:3), human
root orientation as an axis-angle rotation vector (3:6), 21 local joint
rotation vectors (6:69), and the 6-DoF pose of an interacting object
(69:75).  Translations are meters, rotations radians.  Y is up; the ground
plane is XZ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.transform import Rotation

FRAME_DIM = 75
ROOT_POS = slice(0, 3)
ROOT_ROT = slice(3, 6)
JOINT_ROT = slice(6, 69)
OBJ_POS = slice(69, 72)
OBJ_ROT = slice(72, 75)

# Dataset cap (300 frames at 30 fps) rounded up to a whole 8-frame segment,
# so a tokenize/detokenize round trip of a maximum-length sequence stays
# representable.
MAX_FRAMES = 304

TWO_PI = 2.0 * np.pi


class MotionError(ValueError):
    """Raised for malformed motion data or misused conversions."""


def axis_angle_to_matrix(rotvec: np.ndarray) -> np.ndarray:
    """Convert axis-angle rotation vectors (..., 3) to matrices (..., 3, 3)."""
    rotvec = np.array(rotvec, dtype=np.float64, copy=True)  # scipy needs writable input
    flat = rotvec.reshape(-1, 3)
    mats = Rotation.from_rotvec(flat).as_matrix()
    return mats.reshape(rotvec.shape[:-1] + (3, 3))


def _check_rotvec(vec: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(vec)):
        raise MotionError(f"{what} contains non-finite values")
    norms = np.linalg.norm(np.asarray(vec, dtype=np.float64).reshape(-1, 3), axis=1)
    if np.any(norms >= TWO_PI):
        raise MotionError(f"{what} rotation magnitude must be < 2*pi, got max {norms.max():.6f}")


def normalize_rotations(frames: np.ndarray) -> np.ndarray:
    """Wrap every rotation-vector block of a (T, 75) array to magnitude < 2*pi.

    The axis is preserved; only the angle is reduced modulo a full turn.
    Needed when raw decoder output is promoted to a MotionSequence.
    """
    frames = np.asarray(frames, dtype=np.float64).copy()
    num = frames.shape[0]
    for block in (ROOT_ROT, JOINT_ROT, OBJ_ROT):
        vecs = frames[:, block].reshape(num, -1, 3)
        norms = np.linalg.norm(vecs, axis=2, keepdims=True)
        scale = np.ones_like(norms)
        over = norms >= TWO_PI
        np.divide(np.mod(norms, TWO_PI), norms, out=scale, where=over)
        frames[:, block] = (vecs * scale).reshape(num, -1)
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
        _check_rotvec(r, "orientation")
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
    """

    frames: np.ndarray
    fps: int = 30
    is_canonical: bool = False

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[1] != FRAME_DIM:
            raise MotionError(f"frames must be (T, {FRAME_DIM}), got {frames.shape}")
        num = frames.shape[0]
        if not 1 <= num <= MAX_FRAMES:
            raise MotionError(f"frame count must be in [1, {MAX_FRAMES}], got {num}")
        if int(self.fps) < 1:
            raise MotionError(f"fps must be >= 1, got {self.fps}")
        if not np.all(np.isfinite(frames)):
            raise MotionError("frames contain non-finite values")
        _check_rotvec(frames[:, ROOT_ROT], "root orientation")
        _check_rotvec(frames[:, JOINT_ROT].reshape(num, 21, 3), "joint rotation")
        _check_rotvec(frames[:, OBJ_ROT], "object orientation")
        frames = frames.copy()
        frames.setflags(write=False)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "fps", int(self.fps))
        object.__setattr__(self, "is_canonical", bool(self.is_canonical))

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True)
class WaypointTrack:
    """Sparse per-second 6-DoF poses of the human root and object.

    Each row is root translation ++ root orientation ++ object translation ++
    object orientation (12 values) lifted verbatim from a source frame.
    """

    waypoints: np.ndarray
    spacing_frames: int

    def __post_init__(self):
        wp = np.asarray(self.waypoints, dtype=np.float64)
        if wp.ndim != 2 or wp.shape[1] != 12:
            raise MotionError(f"waypoints must be (W, 12), got {wp.shape}")
        if wp.shape[0] < 1:
            raise MotionError("waypoint track is empty")
        if not np.all(np.isfinite(wp)):
            raise MotionError("waypoints contain non-finite values")
        if int(self.spacing_frames) < 1:
            raise MotionError(f"spacing_frames must be >= 1, got {self.spacing_frames}")
        wp = wp.copy()
        wp.setflags(write=False)
        object.__setattr__(self, "waypoints", wp)
        object.__setattr__(self, "spacing_frames", int(self.spacing_frames))

    @property
    def num_waypoints(self) -> int:
        return self.waypoints.shape[0]


def _apply_rigid(frames: np.ndarray, rot: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """Left-compose a world-frame rigid transform onto root and object poses.

    Local joint rotations are untouched; they are relative to the root chain.
    """
    out = frames.copy()
    world = Rotation.from_matrix(rot)
    out[:, ROOT_POS] = frames[:, ROOT_POS] @ rot.T + trans
    out[:, ROOT_ROT] = (world * Rotation.from_rotvec(out[:, ROOT_ROT].copy())).as_rotvec()
    out[:, OBJ_POS] = frames[:, OBJ_POS] @ rot.T + trans
    out[:, OBJ_ROT] = (world * Rotation.from_rotvec(out[:, OBJ_ROT].copy())).as_rotvec()
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


def extract_waypoints(seq: MotionSequence) -> WaypointTrack:
    """Sample the root/object 6-DoF once per second of motion.

    Waypoint ``i`` is frame ``i * fps`` verbatim; a trailing partial second
    contributes the waypoint at its first frame, giving
    ``ceil(T / fps)`` waypoints total.
    """
    if seq.is_canonical:
        raise MotionError("extract_waypoints expects a global sequence")
    spacing = seq.fps
    rows = seq.frames[::spacing]
    waypoints = np.concatenate([rows[:, 0:6], rows[:, 69:75]], axis=1)
    return WaypointTrack(waypoints=waypoints, spacing_frames=spacing)


def repeat_waypoints(track: WaypointTrack, segment_len: int) -> np.ndarray:
    """Tile each waypoint ``segment_len`` times into a (W * segment_len, 12) block.

    This aligns the sparse 6-DoF channel with fixed-length token segments.
    """
    if int(segment_len) < 1:
        raise MotionError(f"segment_len must be >= 1, got {segment_len}")
    return np.repeat(track.waypoints, int(segment_len), axis=0)
