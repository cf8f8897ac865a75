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
# Shifts per block of :func:`sample_sdf_shifted`: its ~10 (block, P)
# temporaries, not (M, P) ones, bound its memory.  In a fresh process, two
# ``populate`` calls of the 301-frame demo walk (first scan chunk 567 shifts x
# 184 points) took 0.57 s each with 15k minor page faults at 128 shifts, 0.63 s
# and 66k at 256, and 0.85 s and 240k in one block: glibc unmaps temporaries
# that large after each call and faults them in again on the next (2 vCPUs).
_SHIFT_BLOCK = 128
# Free cells :func:`voxelize_points` leaves around a point cloud on each side.
POINT_PADDING_CELLS = 2
# Most cells any grid, a scene's or a point cloud's, has on one axis
# (:func:`check_grid_shape`).  ``build_sdf`` peaks near 42 bytes a cell
# (tracemalloc, 1M-cell grids), so the 2**24 cells of a full grid cap one SDF
# near 0.7 GB; at the 5 cm cell of ``motok score`` it is a 12.8 m cube, larger
# than any object, and at 10 cm a 25.6 m room.  The cap is per axis because the
# exact EDT costs about cells times the longest axis: a 2.3M-cell grid 1.4 km
# long and 9 cells wide took 90 s.  The worst grid under the cap, 256**3 with
# one occupied corner cell, takes 31 s and 0.72 GB in ``build_sdf``.
MAX_GRID_AXIS = 1 << 8


class SceneError(ValueError):
    """Raised for malformed grids, point clouds or keypoint arrays."""


def check_grid_shape(shape, what: str) -> None:
    """Raise :class:`SceneError` unless each axis of ``shape`` holds at most
    ``MAX_GRID_AXIS`` cells; a NaN axis fails too.  Run before a grid is built."""
    if not all(axis <= MAX_GRID_AXIS for axis in shape):
        cells = " x ".join(f"{axis:.3g}" for axis in shape)
        raise SceneError(f"{what} needs a grid of {cells} cells, more than "
                         f"{MAX_GRID_AXIS} on an axis")


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
        check_grid_shape(occ.shape, "scene")
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

    A pass stops once no shift can lower a cell: before shift k, if no
    line holds a cell more than k^2 above that line's minimum input value
    ``low``, every shift k' >= k offers only values f[j] + k'^2 >=
    low + k^2, which no cell exceeds, so the skipped shifts would change
    no bit.  A line with no finite value never changes; the check reads it
    as ``inf > inf + k^2``, which is False, so it counts as done (the
    spread itself would read inf - inf = NaN).  The check reads the whole
    array, about as much as a shift, so it runs only at k = 1, 2, 4, 8, ...:
    a pass runs fewer than twice the shifts that a check before every shift
    would allow (its reach), and a pass that never stops pays log2(n)
    checks.  The transform so costs O(cells x reach) instead of
    O(cells x axis length); in a room the reach is about the distance to
    the nearest wall, not the room's width.
    """
    f = np.where(features, 0.0, np.inf)
    for _ in range(f.ndim):
        n = f.shape[0]
        low = f.min(axis=0)
        g = f.copy()
        shifted = np.empty_like(f)
        for k in range(1, n):
            if k & (k - 1) == 0 and not (g.max(axis=0) > low + float(k * k)).any():
                break
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
    transforms are the exact separable EDT of :func:`_distance_to`, whose
    passes stop once no shift can lower a cell, so the cost grows with the
    distance from each cell to the nearest cell of the other class, not
    with the grid's width: the distance to free space stops after a few
    shifts in walls a few cells thick.
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

    This is :func:`sample_sdf_shifted` with one zero shift; the placement
    scan calls that kernel with many shifts, and it computes each axis's
    terms once per distinct shift, bit-identical to a lookup here at the
    shifted points.  Adding 0.0 to a coordinate changes at most the sign of
    a zero, and the first step of the lookup (subtract the origin, divide by
    the cell, subtract 0.5) maps both zeros to the same value, so no later
    bit moves.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 0 or points.shape[-1] != 3:
        raise SceneError(f"points must have shape (..., 3), got {points.shape}")
    values = sample_sdf_shifted(sdf, points.reshape(-1, 3), np.zeros((1, 2)))[0]
    return values[0] if points.ndim == 1 else values.reshape(points.shape[:-1])


def _axis_terms(coords: np.ndarray, origin: float, cell: float, n: int):
    """(lower corner index, upper-corner weight, squared overshoot) of one grid
    axis with ``n`` cells at world coordinates ``coords``."""
    frac = np.subtract(coords, origin)
    frac /= cell
    frac -= 0.5  # 0 is the first cell center
    clamped = np.clip(frac, 0.0, n - 1.0)
    frac -= clamped
    frac *= cell
    frac *= frac
    lo = np.floor(clamped)
    np.minimum(lo, max(n - 2, 0), out=lo)
    clamped -= lo  # now the weight of the upper corner
    return lo.astype(np.intp), clamped, frac


def sample_sdf_shifted(sdf: SignedDistanceField, points: np.ndarray,
                       shifts: np.ndarray) -> np.ndarray:
    """SDF values (M, P) at ``points`` (P, 3) moved by each planar shift (x, z)
    of ``shifts`` (M, 2).

    Each grid axis depends on one world coordinate of a shifted point, so its
    terms (lower corner, weight, overshoot) are computed once per distinct x
    shift and point, once per distinct z shift and point, and once per point
    for y, whose shift is 0.  Each candidate then gathers its rows.  A lattice
    of a few hundred candidates has only a few dozen distinct x and z values.
    The terms are the ones a lookup at ``points + [x, 0, z]`` computes, from
    the same operands, so the values match it bit for bit.

    Each point gets one flat index into ``distances``, summed in exact
    integers, and its eight corners are eight gathers at fixed offsets from it
    (offset 0 along an axis with one cell).  The arithmetic is the per-axis
    trilinear formula, lerping x, then z, then y, with the squared overshoot
    summed as (x^2 + z^2) + y^2 as ``np.linalg.norm`` sums it, so values are
    bit-identical to indexing the 3-D grid corner by corner.

    The gathers and the arithmetic run over ``_SHIFT_BLOCK`` shifts at a time,
    each block writing its rows of the (M, P) result, so the temporaries beyond
    that result stay a block's worth whatever M is.  Values are elementwise,
    so the blocks change no bit.
    """
    pts = np.asarray(points, dtype=np.float64)
    shifts = np.asarray(shifts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise SceneError(f"points must have shape (P, 3), got {pts.shape}")
    if shifts.ndim != 2 or shifts.shape[1] != 2:
        raise SceneError(f"shifts must have shape (M, 2), got {shifts.shape}")
    d = sdf.distances
    nx, nz, ny = d.shape
    cell, origin = sdf.cell_size, sdf.origin
    if shifts.shape[0] == 1:
        # one candidate needs no distinct values: its terms are its rows, and
        # a basic slice gathers them without a copy
        xs, zs, x_row, z_row = shifts[:, 0], shifts[:, 1], slice(None), slice(None)
    else:
        xs, x_row = np.unique(shifts[:, 0], return_inverse=True)
        zs, z_row = np.unique(shifts[:, 1], return_inverse=True)
    lo_x, fx, over_x = _axis_terms(pts[:, 0] + xs[:, None], origin[0], cell, nx)
    lo_z, fz, over_z = _axis_terms(pts[:, 2] + zs[:, None], origin[2], cell, nz)
    lo_y, fy, over_y = _axis_terms(pts[:, 1], origin[1], cell, ny)

    # flat index (lo_x * nz + lo_z) * ny + lo_y, one row gather per axis
    lo_x *= nz * ny
    lo_z *= ny
    gx, gz, gy = 1 - fx, 1 - fz, 1 - fy
    step_x = nz * ny if nx > 1 else 0
    step_z = ny if nz > 1 else 0
    step_y = 1 if ny > 1 else 0
    flat = d.reshape(-1)

    def lerp(a: np.ndarray, b: np.ndarray, g: np.ndarray, f: np.ndarray) -> np.ndarray:
        """a * g + b * f, in place in ``a``."""
        a *= g
        b *= f
        a += b
        return a

    def rows(x_row, z_row, out=None) -> np.ndarray:
        """Values of the candidates whose axis rows are ``x_row`` and ``z_row``."""
        index = lo_x[x_row]
        index += lo_z[z_row]
        index += lo_y
        overshoot_sq = over_x[x_row]
        overshoot_sq += over_z[z_row]
        overshoot_sq += over_y

        def corner(offset: int) -> np.ndarray:
            # a view starting at ``offset`` gathers flat[index + offset] without
            # building the shifted index
            return flat[offset:].take(index)

        wx, vx = gx[x_row], fx[x_row]
        c00 = lerp(corner(0), corner(step_x), wx, vx)
        c01 = lerp(corner(step_y), corner(step_x + step_y), wx, vx)
        c10 = lerp(corner(step_z), corner(step_x + step_z), wx, vx)
        c11 = lerp(corner(step_z + step_y), corner(step_x + step_z + step_y), wx, vx)
        wz, vz = gz[z_row], fz[z_row]
        values = lerp(lerp(c00, c10, wz, vz), lerp(c01, c11, wz, vz), gy, fy)
        return np.add(values, np.sqrt(overshoot_sq, out=overshoot_sq),
                      out=values if out is None else out)

    if shifts.shape[0] == 1:
        return rows(x_row, z_row)
    values = np.empty((shifts.shape[0], pts.shape[0]))
    for start in range(0, shifts.shape[0], _SHIFT_BLOCK):
        block = slice(start, start + _SHIFT_BLOCK)
        rows(x_row[block], z_row[block], values[block])
    return values


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


def voxelize_points(points: np.ndarray, cell_size: float) -> SceneVoxelGrid:
    """Occupancy grid marking every cell that contains at least one point.

    Raises :class:`SceneError` when the grid would need more than
    ``MAX_GRID_AXIS`` cells on an axis, as it would for a non-finite point.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] < 1:
        raise SceneError(f"points must be (n, 3) with n >= 1, got {points.shape}")
    lo = points.min(axis=0) - POINT_PADDING_CELLS * cell_size
    extent = points.max(axis=0) - lo + POINT_PADDING_CELLS * cell_size
    spans = np.maximum(np.ceil(extent / cell_size) + 1, 1)
    check_grid_shape(spans.tolist(), "point cloud")
    counts = spans.astype(int)
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


def _closest_pair_distances(keypoints: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Per-frame closest distance, shape (T,), of keypoints (T, J, 3) to a static cloud (n, 3).

    Squared distances accumulate as (dx^2 + dy^2) + dz^2 over (J, n)
    differences, a block of frames at a time in two reused buffers, from
    coordinate-major copies (3, T, J) and (3, n).  ``sqrt`` is monotone and
    correctly rounded, so the root of each frame's minimum is its minimum.
    """
    kp = np.ascontiguousarray(np.moveaxis(keypoints, 2, 0))
    op = np.ascontiguousarray(points.T)
    num = kp.shape[1]
    squared = np.empty((min(_CONTACT_BLOCK, num), kp.shape[2], op.shape[1]))
    delta = np.empty_like(squared)
    closest = np.empty(num)
    for start in range(0, num, _CONTACT_BLOCK):
        stop = min(start + _CONTACT_BLOCK, num)
        block, diff = squared[:stop - start], delta[:stop - start]
        np.subtract(kp[0, start:stop, :, None], op[0], out=block)
        block *= block
        for axis in (1, 2):
            np.subtract(kp[axis, start:stop, :, None], op[axis], out=diff)
            diff *= diff
            block += diff
        block.reshape(stop - start, -1).min(axis=1, out=closest[start:stop])
    return np.sqrt(closest, out=closest)


def contact_score(keypoints: np.ndarray, points: np.ndarray) -> float:
    """Fraction of frames whose closest keypoint-object pair is under ``CONTACT_THRESHOLD``.

    ``points`` (n, 3) is the object's static cloud and ``keypoints`` (T, J, 3)
    are in its frame.  The comparison is strict, so a pair at exactly the
    threshold distance does not count as contact.

    Only the keypoints inside the cloud's bounding box grown by
    g = 2 ``CONTACT_THRESHOLD`` are measured, and the result is the same.  A
    finite keypoint k is skipped when k_a < c = fl(m_a - g) on some axis a,
    m_a the cloud's least coordinate there (or k_a > fl(M_a + g) at the
    greatest, alike).  c is the float nearest m_a - g, so the float before it,
    and k_a with it, lies below m_a - g: every point p has |k_a - p_a| > g.
    Rounding is monotone and g is a float, so the computed difference is at
    least g in size, its square at least fl(g^2) > T^2 (T the threshold), and
    the squared sum, whose terms are not negative, no less; its correctly
    rounded root is at least T.  No skipped pair is under the threshold, so a
    frame is in contact exactly when one of its measured pairs is.  A keypoint
    with a NaN or infinite coordinate is always measured, so a NaN still
    reaches its frame's minimum.  Each frame's measured keypoints are padded
    to a common count with repeats of its first one, which leave its minimum
    as it is, and a frame with none is not measured.
    """
    kp = np.asarray(keypoints, dtype=np.float64)
    op = np.asarray(points, dtype=np.float64)
    if kp.ndim != 3 or kp.shape[2] != 3 or op.ndim != 2 or op.shape[1] != 3:
        raise SceneError("keypoints must be (T, J, 3) and points (n, 3)")
    grow = 2.0 * CONTACT_THRESHOLD
    far = ((kp < op.min(axis=0) - grow) | (kp > op.max(axis=0) + grow)).any(axis=2)
    far &= np.isfinite(kp).all(axis=2)
    count = far.shape[1] - far.sum(axis=1)
    frames = np.flatnonzero(count)
    width = count.max(initial=0)
    # each frame's measured joints first, in order, then its first one again
    joints = np.argsort(far[frames], axis=1, kind="stable")[:, :width]
    joints = np.where(np.arange(width) < count[frames, None], joints, joints[:, :1])
    closest = _closest_pair_distances(kp[frames[:, None], joints], op)
    return np.count_nonzero(closest < CONTACT_THRESHOLD) / kp.shape[0]
