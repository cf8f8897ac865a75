"""Voxel occupancy scenes, signed distance fields, and interaction scoring.

Grid axes follow the scene convention: occupancy[ix, iz, iy] with X and Z
spanning the ground plane and Y the height.  ``origin`` is the world (x, y, z)
corner of cell (0, 0, 0) and distances are meters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .motion import (
    JOINT_ROT,
    MotionSequence,
    OBJ_POS,
    OBJ_ROT,
    ROOT_POS,
    ROOT_ROT,
    axis_angle_to_matrix,
)

# Distance stored when a grid has no occupied (or no free) cells; keeps
# interpolation total while guaranteeing zero collision in empty scenes.
FREE_SENTINEL = 1e9
# Human-object distance (m) below which a frame counts as contact.
CONTACT_THRESHOLD = 0.05
# Frames per block of contact distances; a block's (J, n) buffers stay in cache.
_CONTACT_BLOCK = 4


class SceneError(ValueError):
    """Raised for malformed grids or mismatched frame counts."""


@dataclass(frozen=True)
class SceneVoxelGrid:
    """Binary occupancy grid: 1 = occupied, 0 = free."""

    occupancy: np.ndarray
    origin: np.ndarray
    cell_size: float

    def __post_init__(self):
        occ = np.asarray(self.occupancy)
        if occ.ndim != 3 or min(occ.shape) < 1:
            raise SceneError(f"occupancy must be a non-empty 3-D array, got shape {occ.shape}")
        if not np.all((occ == 0) | (occ == 1)):
            raise SceneError("occupancy must be binary")
        origin = np.asarray(self.origin, dtype=np.float64).reshape(3).copy()
        if not np.all(np.isfinite(origin)):
            raise SceneError("origin contains non-finite values")
        if not 0.0 < self.cell_size < np.inf:  # NaN fails both comparisons
            raise SceneError(f"cell_size must be finite and > 0, got {self.cell_size}")
        occ = occ.astype(np.uint8).copy()
        occ.setflags(write=False)
        origin.setflags(write=False)
        object.__setattr__(self, "occupancy", occ)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "cell_size", float(self.cell_size))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.occupancy.shape

    def cell_center(self, ix: int, iz: int, iy: int) -> np.ndarray:
        """World position of a cell center; indices are (x, z, y)."""
        c = self.cell_size
        return self.origin + c * np.array([ix + 0.5, iy + 0.5, iz + 0.5])


@dataclass(frozen=True)
class SignedDistanceField:
    """Per-cell-center signed distances: negative inside occupied space."""

    distances: np.ndarray
    origin: np.ndarray
    cell_size: float

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=np.float64).copy()
        if d.ndim != 3:
            raise SceneError(f"distances must be 3-D, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            # a NaN distance fails every comparison, which would let
            # placement prune candidates that can still win
            raise SceneError("distances contain non-finite values")
        origin = np.asarray(self.origin, dtype=np.float64).reshape(3).copy()
        if not 0.0 < self.cell_size < np.inf:
            raise SceneError(f"cell_size must be finite and > 0, got {self.cell_size}")
        d.setflags(write=False)
        origin.setflags(write=False)
        object.__setattr__(self, "distances", d)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "cell_size", float(self.cell_size))


def _distance_to(features: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance, in cells, from every cell to the nearest
    ``features`` cell (0 on the features themselves).

    The squared distance is separable (Felzenszwalb & Huttenlocher,
    "Distance Transforms of Sampled Functions", 2012): starting from 0 at
    features and inf elsewhere, each axis in turn takes
    g[i] = min_j f[j] + (i - j)^2 over its grid lines.  The min runs over
    shifts k, two shifted slices per k, on an array whose processed axis
    comes first, so every slice is one contiguous block.  All values are
    integers (or inf) until the final ``sqrt``, so the result is exact.
    """
    f = np.where(features, 0.0, np.inf)
    for _ in range(f.ndim):
        n = f.shape[0]
        g = f.copy()
        shifted = np.empty_like(f)
        for k in range(1, n):
            # g[i] against f[i - k], then against f[i + k]
            np.add(f[:-k], float(k * k), out=shifted[:n - k])
            np.minimum(g[k:], shifted[:n - k], out=g[k:])
            np.add(f[k:], float(k * k), out=shifted[:n - k])
            np.minimum(g[:-k], shifted[:n - k], out=g[:-k])
        # the next axis comes first; after ndim passes the order is restored
        f = np.ascontiguousarray(np.moveaxis(g, 0, -1))
    return np.sqrt(f, out=f)


def build_sdf(grid: SceneVoxelGrid) -> SignedDistanceField:
    """Signed Euclidean distance field over cell centers.

    Outside values are exact center-to-center distances to the nearest
    occupied cell.  Inside values are -(distance to the nearest free center
    minus one cell), so occupied cells that touch free space sit on the zero
    level set.  All-free (or all-occupied) grids get a +/- sentinel.  Both
    transforms are the exact separable EDT of :func:`_distance_to`.
    """
    occ = grid.occupancy.astype(bool)
    c = grid.cell_size
    if not occ.any():
        distances = np.full(grid.shape, FREE_SENTINEL)
    elif occ.all():
        distances = np.full(grid.shape, -FREE_SENTINEL)
    else:
        # exact EDT in cell units; scaled afterwards so brute-force checks see
        # sqrt(integer) * cell_size on both sides
        dist_to_occupied = _distance_to(occ)
        dist_to_free = _distance_to(~occ)
        distances = np.where(occ, -(dist_to_free * c - c), dist_to_occupied * c)
    return SignedDistanceField(distances=distances, origin=grid.origin, cell_size=c)


def sample_sdf(sdf: SignedDistanceField, points: np.ndarray) -> np.ndarray:
    """Trilinear SDF lookup at world points of shape (..., 3).

    Points beyond the cell-center bounding box are clamped onto it and the
    Euclidean distance from the clamp is added, so queries far outside the
    grid keep growing (and stay non-negative once outside).  A single point
    of shape (3,) gives a scalar; any other last axis raises SceneError.

    Each point gets one flat index into ``distances`` and its eight corners
    are eight gathers at fixed offsets from it (offset 0 along an axis with
    one cell).  The arithmetic is the per-axis trilinear formula, lerping x,
    then z, then y, in the same order of operations, so values are
    bit-identical to indexing the 3-D grid corner by corner.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 0 or points.shape[-1] != 3:
        raise SceneError(f"points must have shape (..., 3), got {points.shape}")
    pts = points.reshape(-1, 3)
    d = sdf.distances
    cell = sdf.cell_size
    index = overshoot_sq = None
    weights = []
    # index axes (x, z, y) are world columns 0, 2, 1
    for column, n in zip((0, 2, 1), d.shape):
        frac = np.subtract(pts[:, column], sdf.origin[column])
        frac /= cell
        frac -= 0.5  # 0 is the first cell center
        clamped = np.clip(frac, 0.0, n - 1.0)
        frac -= clamped
        frac *= cell
        frac *= frac
        if overshoot_sq is None:
            overshoot_sq = frac
        else:
            overshoot_sq += frac  # (x^2 + z^2) + y^2, as np.linalg.norm sums
        lo = np.floor(clamped)
        np.minimum(lo, max(n - 2, 0), out=lo)
        clamped -= lo  # now the weight of the upper corner
        weights.append(clamped)
        if index is None:
            index = lo
        else:
            index *= n
            index += lo
    index = index.astype(np.intp)

    nx, nz, ny = d.shape
    step_x = nz * ny if nx > 1 else 0
    step_z = ny if nz > 1 else 0
    step_y = 1 if ny > 1 else 0
    flat = d.reshape(-1)

    def corner(offset: int) -> np.ndarray:
        # a view starting at ``offset`` gathers flat[index + offset] without
        # building the shifted index
        return flat[offset:].take(index)

    def lerp(a: np.ndarray, b: np.ndarray, g: np.ndarray, f: np.ndarray) -> np.ndarray:
        """a * g + b * f, in place in ``a``."""
        a *= g
        b *= f
        a += b
        return a

    fx, fz, fy = weights
    gx = 1 - fx
    c00 = lerp(corner(0), corner(step_x), gx, fx)
    c01 = lerp(corner(step_y), corner(step_x + step_y), gx, fx)
    c10 = lerp(corner(step_z), corner(step_x + step_z), gx, fx)
    c11 = lerp(corner(step_z + step_y), corner(step_x + step_z + step_y), gx, fx)
    gz = 1 - fz
    values = lerp(lerp(c00, c10, gz, fz), lerp(c01, c11, gz, fz), 1 - fy, fy)
    values += np.sqrt(overshoot_sq, out=overshoot_sq)
    return values[0] if points.ndim == 1 else values.reshape(points.shape[:-1])


# ---------------------------------------------------------------------------
# Body keypoints
#
# Joint positions come from forward kinematics over a fixed bone-offset table
# (approximate adult proportions in meters) rather than a skinned mesh.  Joint
# 0 is the pelvis/root; its orientation lives in frame columns 3:6.
# ---------------------------------------------------------------------------

BONE_PARENTS = np.array(
    [-1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 9, 12, 13, 14, 16, 17, 18, 19]
)

BONE_OFFSETS = np.array([
    [0.00, 0.00, 0.00],    # 0 pelvis (root)
    [0.09, -0.09, 0.00],   # 1 left hip
    [-0.09, -0.09, 0.00],  # 2 right hip
    [0.00, 0.11, 0.00],    # 3 spine1
    [0.00, -0.38, 0.00],   # 4 left knee
    [0.00, -0.38, 0.00],   # 5 right knee
    [0.00, 0.13, 0.00],    # 6 spine2
    [0.00, -0.40, 0.00],   # 7 left ankle
    [0.00, -0.40, 0.00],   # 8 right ankle
    [0.00, 0.05, 0.00],    # 9 spine3
    [0.00, -0.06, 0.12],   # 10 left foot
    [0.00, -0.06, 0.12],   # 11 right foot
    [0.00, 0.21, 0.00],    # 12 neck
    [0.08, 0.11, 0.00],    # 13 left collar
    [-0.08, 0.11, 0.00],   # 14 right collar
    [0.00, 0.09, 0.00],    # 15 head
    [0.10, 0.02, 0.00],    # 16 left shoulder
    [-0.10, 0.02, 0.00],   # 17 right shoulder
    [0.26, 0.00, 0.00],    # 18 left elbow
    [-0.26, 0.00, 0.00],   # 19 right elbow
    [0.25, 0.00, 0.00],    # 20 left wrist
    [-0.25, 0.00, 0.00],   # 21 right wrist
])

NUM_KEYPOINTS = BONE_PARENTS.shape[0]


def body_keypoints(seq: MotionSequence) -> np.ndarray:
    """World joint positions per frame, shape (T, 22, 3)."""
    frames = seq.frames
    num = frames.shape[0]
    rot_local = np.empty((num, NUM_KEYPOINTS, 3, 3))
    rot_local[:, 0] = axis_angle_to_matrix(frames[:, ROOT_ROT])
    rot_local[:, 1:] = axis_angle_to_matrix(frames[:, JOINT_ROT].reshape(num, 21, 3))

    positions = np.empty((num, NUM_KEYPOINTS, 3))
    rot_global = np.empty_like(rot_local)
    positions[:, 0] = frames[:, ROOT_POS]
    rot_global[:, 0] = rot_local[:, 0]
    for j in range(1, NUM_KEYPOINTS):
        parent = BONE_PARENTS[j]
        rot_global[:, j] = rot_global[:, parent] @ rot_local[:, j]
        positions[:, j] = positions[:, parent] + np.einsum(
            "tab,b->ta", rot_global[:, parent], BONE_OFFSETS[j]
        )
    return positions


def object_points_track(base_points: np.ndarray, seq: MotionSequence) -> np.ndarray:
    """Object surface points moved by the per-frame object pose: (T, n, 3)."""
    frames = seq.frames
    base = np.asarray(base_points, dtype=np.float64)
    if base.ndim != 2 or base.shape[1] != 3:
        raise SceneError(f"object points must be (n, 3), got {base.shape}")
    rot = axis_angle_to_matrix(frames[:, OBJ_ROT])
    return np.einsum("tab,nb->tna", rot, base) + frames[:, None, OBJ_POS]


def voxelize_points(points: np.ndarray, cell_size: float, padding_cells: int = 2) -> SceneVoxelGrid:
    """Occupancy grid marking every cell that contains at least one point."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] < 1:
        raise SceneError(f"points must be (n, 3) with n >= 1, got {points.shape}")
    lo = points.min(axis=0) - padding_cells * cell_size
    extent = points.max(axis=0) - lo + padding_cells * cell_size
    counts = np.maximum(np.ceil(extent / cell_size).astype(int) + 1, 1)
    occ = np.zeros((counts[0], counts[2], counts[1]), dtype=np.uint8)
    idx = np.floor((points - lo) / cell_size).astype(int)
    occ[idx[:, 0], idx[:, 2], idx[:, 1]] = 1
    return SceneVoxelGrid(occupancy=occ, origin=lo, cell_size=cell_size)


def collision_score(keypoints: np.ndarray, sdf: SignedDistanceField) -> tuple[float, float]:
    """(mean penetration depth, colliding-frame fraction) of keypoints vs an SDF.

    Penetration averages max(0, -sdf) over every frame and keypoint; a frame
    collides when any of its keypoints is strictly inside.
    """
    kp = np.asarray(keypoints, dtype=np.float64)
    if kp.ndim != 3 or kp.shape[2] != 3 or kp.shape[0] < 1:
        raise SceneError(f"keypoints must be (T, J, 3), got {kp.shape}")
    values = sample_sdf(sdf, kp)
    penetration = float(np.maximum(0.0, -values).mean())
    colliding = float((values < 0.0).any(axis=1).mean())
    return penetration, colliding


def _closest_pair_distances(keypoints: np.ndarray, object_points: np.ndarray) -> np.ndarray:
    """Per-frame distance of the closest keypoint-object point pair, shape (T,).

    Squared distances accumulate as (dx^2 + dy^2) + dz^2 over (J, n)
    differences, a block of frames at a time in two reused buffers, from
    coordinate-major copies (3, T, J) and (3, T, n).  ``sqrt`` is monotone
    and correctly rounded, so the root of each frame's minimum is its minimum
    distance.
    """
    kp = np.ascontiguousarray(np.moveaxis(keypoints, 2, 0))
    op = np.ascontiguousarray(np.moveaxis(object_points, 2, 0))
    num = kp.shape[1]
    squared = np.empty((min(_CONTACT_BLOCK, num), kp.shape[2], op.shape[2]))
    delta = np.empty_like(squared)
    closest = np.empty(num)
    for start in range(0, num, _CONTACT_BLOCK):
        stop = min(start + _CONTACT_BLOCK, num)
        block, diff = squared[:stop - start], delta[:stop - start]
        np.subtract(kp[0, start:stop, :, None], op[0, start:stop, None, :], out=block)
        block *= block
        for axis in (1, 2):
            np.subtract(kp[axis, start:stop, :, None], op[axis, start:stop, None, :], out=diff)
            diff *= diff
            block += diff
        block.reshape(stop - start, -1).min(axis=1, out=closest[start:stop])
    return np.sqrt(closest, out=closest)


def contact_score(keypoints: np.ndarray, object_points: np.ndarray) -> float:
    """Fraction of frames whose closest human-object pair is under ``CONTACT_THRESHOLD``.

    The comparison is strict, so a pair at exactly the threshold distance does
    not count as contact.
    """
    kp = np.asarray(keypoints, dtype=np.float64)
    op = np.asarray(object_points, dtype=np.float64)
    if kp.ndim != 3 or op.ndim != 3:
        raise SceneError("keypoints and object_points must be (T, ., 3) arrays")
    if kp.shape[0] != op.shape[0]:
        raise SceneError(f"frame counts differ: {kp.shape[0]} vs {op.shape[0]}")
    closest = _closest_pair_distances(kp, op)
    return np.count_nonzero(closest < CONTACT_THRESHOLD) / kp.shape[0]
