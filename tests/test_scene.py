from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from motok import cli, fileio, scene
from motok.motion import (
    FRAME_DIM,
    OBJ_POS,
    OBJ_ROT,
    MotionSequence,
    SixDof,
    axis_angle_to_matrix,
    to_global,
)
from motok.scene import (
    BONE_OFFSETS,
    CONTACT_THRESHOLD,
    BONE_PARENTS,
    FREE_SENTINEL,
    MAX_GRID_AXIS,
    SceneError,
    SceneVoxelGrid,
    SignedDistanceField,
    _closest_pair_distances,
    _distance_to,
    body_keypoints,
    build_sdf,
    collision_score,
    contact_score,
    sample_sdf,
    sample_sdf_shifted,
    voxelize_points,
)
from test_populate import demo_room


def brute_force_sdf(occ, cell):
    """O(n^2) oracle: per-cell min center distance to the other class."""
    occ = occ.astype(bool)
    nx, nz, ny = occ.shape
    idx = np.stack(np.meshgrid(np.arange(nx), np.arange(nz), np.arange(ny),
                               indexing="ij"), axis=-1).reshape(-1, 3)
    occupied = idx[occ.reshape(-1)]
    free = idx[~occ.reshape(-1)]
    out = np.empty(occ.size)
    for row, cell_idx in enumerate(idx):
        if occ.reshape(-1)[row]:
            sq = ((free - cell_idx) ** 2).sum(axis=1).min()
            out[row] = -(np.sqrt(float(sq)) * cell - cell)
        else:
            sq = ((occupied - cell_idx) ** 2).sum(axis=1).min()
            out[row] = np.sqrt(float(sq)) * cell
    return out.reshape(occ.shape)


def brute_force_edt(features):
    """numpy oracle for ``_distance_to``: per cell, the minimum over feature
    cells of the squared integer offset, then ``sqrt``."""
    cells = np.indices(features.shape).reshape(features.ndim, -1).T
    targets = cells[features.reshape(-1)]
    sq = np.empty(len(cells))
    for start in range(0, len(cells), 256):  # (256, features) blocks stay small
        block = cells[start:start + 256, None, :] - targets[None]
        sq[start:start + 256] = (block * block).sum(axis=-1).min(axis=1)
    return np.sqrt(sq).reshape(features.shape)


@st.composite
def feature_grids(draw):
    """1-D to 3-D boolean grids with one axis of up to 40 cells, holding from
    a single feature cell to all cells but one."""
    ndim = draw(st.integers(1, 3))
    shape = [draw(st.integers(1, 6)) for _ in range(ndim)]
    shape[draw(st.integers(0, ndim - 1))] = draw(st.integers(2, 40))
    size = int(np.prod(shape))
    count = draw(st.one_of(st.just(1), st.just(size - 1), st.integers(1, size - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = np.zeros(size, dtype=bool)
    features[rng.choice(size, count, replace=False)] = True
    return features.reshape(shape)


def plane_sdf(cell=0.1, dims=(12, 4, 8), x0=0.6):
    """Analytic linear field d(x) = x - x0 sampled at cell centers."""
    nx, nz, ny = dims
    xs = cell * (np.arange(nx) + 0.5)
    distances = np.broadcast_to((xs - x0)[:, None, None], dims).copy()
    return SignedDistanceField(distances=distances, origin=np.zeros(3), cell_size=cell)


class TestBuildSdf:
    def test_single_occupied_cell_neighbor(self):
        occ = np.zeros((5, 5, 5), dtype=np.uint8)
        occ[2, 2, 2] = 1
        sdf = build_sdf(SceneVoxelGrid(occ, np.zeros(3), 0.1))
        assert sdf.distances[3, 2, 2] == pytest.approx(0.1)
        assert sdf.distances[2, 2, 2] == pytest.approx(0.0)
        assert sdf.distances[4, 2, 2] == pytest.approx(0.2)
        assert sdf.distances[3, 3, 2] == pytest.approx(0.1 * np.sqrt(2.0))

    def test_solid_block_center_one_cell_inside(self):
        occ = np.zeros((5, 5, 5), dtype=np.uint8)
        occ[1:4, 1:4, 1:4] = 1
        sdf = build_sdf(SceneVoxelGrid(occ, np.zeros(3), 0.1))
        assert sdf.distances[2, 2, 2] == pytest.approx(-0.1)
        oracle = brute_force_sdf(occ, 0.1)
        np.testing.assert_array_equal(sdf.distances, oracle)

    def test_matches_brute_force_on_random_grid(self, rng):
        occ = (rng.random((9, 7, 8)) < 0.15).astype(np.uint8)
        occ[3, 3, 3] = 1  # at least one occupied
        occ[0, 0, 0] = 0
        sdf = build_sdf(SceneVoxelGrid(occ, np.zeros(3), 0.05))
        np.testing.assert_array_equal(sdf.distances, brute_force_sdf(occ, 0.05))

    def test_all_free_gets_sentinel(self):
        sdf = build_sdf(SceneVoxelGrid(np.zeros((3, 3, 3), dtype=np.uint8),
                                       np.zeros(3), 0.1))
        np.testing.assert_array_equal(sdf.distances, FREE_SENTINEL)

    def test_all_occupied_gets_negative_sentinel(self):
        sdf = build_sdf(SceneVoxelGrid(np.ones((3, 3, 3), dtype=np.uint8),
                                       np.zeros(3), 0.1))
        np.testing.assert_array_equal(sdf.distances, -FREE_SENTINEL)

    def test_unit_cube_against_analytic_sdf(self):
        cell = 0.05
        nx = nz = ny = 32
        origin = np.zeros(3)
        occ = np.zeros((nx, nz, ny), dtype=np.uint8)
        lo, hi = 0.3, 1.3  # aligned with cell boundaries

        centers_x = cell * (np.arange(nx) + 0.5)
        inside = (centers_x > lo) & (centers_x < hi)
        occ[np.ix_(inside, inside, inside)] = 1
        sdf = build_sdf(SceneVoxelGrid(occ, origin, cell))

        xs, zs, ys = np.meshgrid(centers_x, centers_x, centers_x, indexing="ij")
        pts = np.stack([xs, ys, zs], axis=-1)  # world (x, y, z)
        q = np.abs(pts - (lo + hi) / 2.0) - (hi - lo) / 2.0
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
        inside_d = np.minimum(q.max(axis=-1), 0.0)
        analytic = outside + inside_d
        assert np.abs(sdf.distances - analytic).max() <= cell * np.sqrt(3.0)

    def test_sign_consistency_at_cell_centers(self, rng):
        occ = (rng.random((8, 8, 8)) < 0.3).astype(np.uint8)
        occ[4, 4, 4] = 1
        occ[0, 0, 0] = 0
        sdf = build_sdf(SceneVoxelGrid(occ, np.zeros(3), 0.1))
        assert np.all(sdf.distances[occ == 1] <= 0.0)
        assert np.all(sdf.distances[occ == 0] > 0.0)


class TestDistanceTransform:
    """The numpy EDT against scipy's ``distance_transform_edt`` and a brute
    force as oracles, bit for bit."""

    @staticmethod
    def assert_matches_scipy(occ):
        edt = pytest.importorskip("scipy.ndimage").distance_transform_edt
        # both signs: distance to occupied cells and distance to free cells
        for features in (occ, ~occ):
            assert _distance_to(features).tobytes() == edt(~features).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(arrays(bool, st.tuples(*[st.integers(1, 8)] * 3)))
    def test_bit_identical_to_scipy(self, occ):
        assume(occ.any() and not occ.all())
        self.assert_matches_scipy(occ)

    def test_bit_identical_to_scipy_on_demo_room(self):
        self.assert_matches_scipy(demo_room().occupancy.astype(bool))

    @settings(max_examples=300, deadline=None)
    @given(feature_grids())
    def test_bit_identical_to_scipy_where_passes_stop_early(self, features):
        self.assert_matches_scipy(features)

    @settings(max_examples=300, deadline=None)
    @given(feature_grids())
    def test_bit_identical_to_brute_force(self, features):
        # the same property without scipy, so it runs wherever tier-1 does
        for f in (features, ~features):
            assert _distance_to(f).tobytes() == brute_force_edt(f).tobytes()

    @pytest.mark.parametrize("size", [60, 110])
    def test_bit_identical_to_scipy_on_large_walled_rooms(self, size):
        self.assert_matches_scipy(demo_room(nx=size, nz=size).occupancy.astype(bool))

    @pytest.mark.parametrize("shape", [(7,), (5, 9), (4, 6, 3)])
    def test_no_feature_is_inf_and_all_features_are_zero(self, shape):
        none, every = np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool)
        assert _distance_to(none).tobytes() == np.full(shape, np.inf).tobytes()
        assert _distance_to(every).tobytes() == np.zeros(shape).tobytes()

    def test_one_cell_axes(self):
        occ = np.zeros((1, 5, 1), dtype=bool)
        occ[0, 1, 0] = True
        np.testing.assert_array_equal(_distance_to(occ).ravel(), [1.0, 0.0, 1.0, 2.0, 3.0])


class TestSignedDistanceFieldValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_distance_rejected(self, bad):
        distances = np.zeros((3, 3, 3))
        distances[1, 2, 0] = bad
        with pytest.raises(SceneError, match="non-finite"):
            SignedDistanceField(distances, np.zeros(3), 0.1)

    @pytest.mark.parametrize("cell", [0.0, -0.1, np.nan, np.inf])
    def test_non_positive_cell_size_rejected(self, cell):
        with pytest.raises(SceneError, match="cell_size"):
            SignedDistanceField(np.zeros((2, 2, 2)), np.zeros(3), cell)
        with pytest.raises(SceneError, match="cell_size"):
            SceneVoxelGrid(np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(3), cell)


class TestGridCap:
    @pytest.mark.parametrize("shape", [(MAX_GRID_AXIS + 1, 1, 1), (1, MAX_GRID_AXIS + 1, 1),
                                       (1, 1, MAX_GRID_AXIS + 1)])
    def test_scene_grid_beyond_the_cap_rejected(self, shape):
        with pytest.raises(SceneError, match=f"scene needs a grid of .* cells, more than "
                                             f"{MAX_GRID_AXIS} on an axis"):
            SceneVoxelGrid(np.zeros(shape, dtype=np.uint8), np.zeros(3), 0.1)

    def test_point_cloud_grid_at_the_cap_accepted(self):
        # 125.5 m at 0.5 m cells, with two padding cells on each side and the
        # end cell: 251 + 4 + 1 = 256 cells on x; 126 m needs 257
        grid = voxelize_points(np.array([[0.0, 0.0, 0.0], [125.5, 0.0, 0.0]]), 0.5)
        assert grid.shape == (MAX_GRID_AXIS, 5, 5)
        with pytest.raises(SceneError, match="point cloud needs a grid of 257 x 5 x 5 cells"):
            voxelize_points(np.array([[0.0, 0.0, 0.0], [126.0, 0.0, 0.0]]), 0.5)


def _reference_sample_sdf(sdf, points):
    """Trilinear lookup with one 3-D fancy index per corner: the oracle the
    flat-index kernel of ``sample_sdf`` must match bit for bit."""
    points = np.asarray(points, dtype=np.float64)
    squeeze = points.ndim == 1
    pts = np.atleast_2d(points)
    rel = (pts - sdf.origin) / sdf.cell_size - 0.5
    frac = rel[..., [0, 2, 1]]  # world (x, y, z) -> index (x, z, y)
    dims = np.array(sdf.distances.shape, dtype=np.float64)
    clamped = np.clip(frac, 0.0, dims - 1.0)
    overshoot = (frac - clamped) * sdf.cell_size
    increment = np.linalg.norm(overshoot, axis=-1)

    lo = np.floor(clamped).astype(np.int64)
    lo = np.minimum(lo, (dims - 2).clip(min=0).astype(np.int64))
    hi = np.minimum(lo + 1, (dims - 1).astype(np.int64))
    f = clamped - lo

    d = sdf.distances
    ix0, iz0, iy0 = lo[..., 0], lo[..., 1], lo[..., 2]
    ix1, iz1, iy1 = hi[..., 0], hi[..., 1], hi[..., 2]
    fx, fz, fy = f[..., 0], f[..., 1], f[..., 2]

    c00 = d[ix0, iz0, iy0] * (1 - fx) + d[ix1, iz0, iy0] * fx
    c01 = d[ix0, iz0, iy1] * (1 - fx) + d[ix1, iz0, iy1] * fx
    c10 = d[ix0, iz1, iy0] * (1 - fx) + d[ix1, iz1, iy0] * fx
    c11 = d[ix0, iz1, iy1] * (1 - fx) + d[ix1, iz1, iy1] * fx
    c0 = c00 * (1 - fz) + c10 * fz
    c1 = c01 * (1 - fz) + c11 * fz
    values = c0 * (1 - fy) + c1 * fy + increment
    return values[0] if squeeze else values.reshape(points.shape[:-1])


@st.composite
def sdf_queries(draw):
    """A random grid with 1-6 cells per axis and 28 query points, inside and far outside."""
    shape = tuple(draw(st.integers(1, 6)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    occ = (rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 0.7]))).astype(np.uint8)
    origin = np.array([draw(st.floats(-5.0, 5.0)) for _ in range(3)])
    cell = draw(st.floats(0.01, 2.0))
    sdf = build_sdf(SceneVoxelGrid(occ, origin, cell))
    extent = cell * np.array([shape[0], shape[2], shape[1]])
    scale = draw(st.sampled_from([1.0, 3.0, 100.0]))
    lo, hi = origin - (scale - 1.0) * extent, origin + scale * extent
    points = rng.uniform(lo, hi, size=(28, 3))
    # cell centers and grid corners land on integer and boundary indices
    points[0] = origin + cell * 0.5
    points[1] = origin + extent - cell * 0.5
    points[2] = origin
    return sdf, points


@st.composite
def planar_shifts(draw, sdf):
    """1-12 (x, z) shifts: lattice values of ``sdf``'s grid, zeros of both
    signs and arbitrary (also negative) floats, with repeated values and rows."""
    c, origin = sdf.cell_size, sdf.origin
    lattice = [origin[axis] + c * (i + 0.5) for axis in (0, 2) for i in range(-2, 7)]
    value = st.one_of(st.sampled_from(lattice + [0.0, -0.0]), st.floats(-20.0, 20.0))
    rows = draw(st.lists(st.tuples(value, value), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=12))
    return np.array(rows)[picks]


class TestSampleSdf:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_shifted_bit_identical_to_offset_points(self, data):
        sdf, points = data.draw(sdf_queries())
        shifts = data.draw(planar_shifts(sdf))
        offset = np.zeros((shifts.shape[0], 1, 3))
        offset[:, 0, 0], offset[:, 0, 2] = shifts[:, 0], shifts[:, 1]
        shifted = points[None] + offset
        got = sample_sdf_shifted(sdf, points, shifts)
        assert got.shape == shifted.shape[:-1]
        assert got.tobytes() == sample_sdf(sdf, shifted).tobytes()
        assert got.tobytes() == _reference_sample_sdf(sdf, shifted).tobytes()

    @pytest.mark.parametrize("points, shifts", [((5, 2), (1, 2)), ((4, 7, 3), (1, 2)),
                                                ((5, 3), (2,)), ((5, 3), (4, 3))])
    def test_shifted_malformed_shapes_rejected(self, points, shifts):
        with pytest.raises(SceneError, match="must have shape"):
            sample_sdf_shifted(plane_sdf(), np.zeros(points), np.zeros(shifts))

    @settings(max_examples=200, deadline=None)
    @given(query=sdf_queries())
    def test_bit_identical_to_reference(self, query):
        sdf, points = query
        for batch in (points, points.reshape(4, 7, 3)):
            got, want = sample_sdf(sdf, batch), _reference_sample_sdf(sdf, batch)
            assert got.shape == want.shape == batch.shape[:-1]
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()  # signs of zero too
        single = sample_sdf(sdf, points[5])
        assert np.ndim(single) == 0
        assert single == _reference_sample_sdf(sdf, points[5])

    @pytest.mark.parametrize("shape", [(), (2,), (5, 2), (5, 4), (4, 7, 1)])
    def test_malformed_points_rejected(self, shape):
        sdf = plane_sdf()
        with pytest.raises(SceneError, match="points must have shape"):
            sample_sdf(sdf, np.zeros(shape))

    def test_cell_center_exact(self, rng):
        occ = (rng.random((6, 5, 4)) < 0.2).astype(np.uint8)
        occ[2, 2, 2] = 1
        occ[1, 1, 1] = 0
        grid = SceneVoxelGrid(occ, np.array([0.5, -0.2, 0.1]), 0.2)
        sdf = build_sdf(grid)
        for ix, iz, iy in [(0, 0, 0), (2, 2, 2), (5, 4, 3), (1, 3, 2)]:
            point = grid.cell_center(ix, iz, iy)
            assert sample_sdf(sdf, point) == pytest.approx(
                sdf.distances[ix, iz, iy], abs=1e-12)

    def test_midpoint_is_linear(self):
        distances = np.zeros((2, 1, 1))
        distances[0, 0, 0] = 0.1
        distances[1, 0, 0] = 0.3
        sdf = SignedDistanceField(distances, np.zeros(3), 1.0)
        mid = np.array([1.0, 0.5, 0.5])  # halfway between the two centers
        assert sample_sdf(sdf, mid) == pytest.approx(0.2)

    def test_outside_grid_grows_with_distance(self):
        distances = np.full((2, 2, 2), 0.5)
        sdf = SignedDistanceField(distances, np.zeros(3), 1.0)
        near = sample_sdf(sdf, np.array([2.5, 1.0, 1.0]))
        far = sample_sdf(sdf, np.array([5.0, 1.0, 1.0]))
        assert near == pytest.approx(0.5 + 1.0)
        assert far == pytest.approx(0.5 + 3.5)

    def test_random_points_close_to_brute_force(self, rng):
        occ = (rng.random((10, 10, 6)) < 0.2).astype(np.uint8)
        occ[5, 5, 3] = 1
        cell = 0.1
        grid = SceneVoxelGrid(occ, np.zeros(3), cell)
        sdf = build_sdf(grid)
        centers = np.array([[grid.cell_center(ix, iz, iy)
                             for iy in range(6) for iz in range(10)]
                            for ix in range(10)]).reshape(-1, 3)
        occupied_centers = centers[(grid.occupancy == 1).transpose(0, 1, 2)
                                   .reshape(10, 10, 6).reshape(-1).astype(bool)]
        for _ in range(200):
            point = rng.uniform([0.05, 0.05, 0.05], [0.95, 0.55, 0.95])
            value = sample_sdf(sdf, point)
            brute = np.linalg.norm(occupied_centers - point, axis=1).min()
            if value > cell:  # outside the boundary band, signs agree
                assert abs(value - brute) <= cell * np.sqrt(3.0)

    def test_batch_shape(self, rng):
        sdf = build_sdf(SceneVoxelGrid(np.ones((2, 2, 2), np.uint8) * 0,
                                       np.zeros(3), 1.0))
        pts = rng.normal(size=(4, 7, 3))
        assert sample_sdf(sdf, pts).shape == (4, 7)


class TestCollision:
    def test_far_outside_scores_zero(self):
        sdf = plane_sdf()
        kp = np.tile(np.array([1.1, 0.2, 0.2]), (10, 22, 1))
        assert collision_score(kp, sdf) == (0.0, 0.0)

    def test_hand_computed_average(self):
        sdf = plane_sdf(x0=0.6)
        kp = np.tile(np.array([[0.8, 0.2, 0.2]]), (10, 22, 1)).astype(float)
        kp[3, 7] = [0.5, 0.2, 0.2]  # depth 0.1 inside the x < 0.6 halfspace
        pen, frac = collision_score(kp, sdf)
        assert pen == pytest.approx(0.1 / (10 * 22))
        assert frac == pytest.approx(0.1)

    def test_deepening_never_decreases_penetration(self, rng):
        sdf = plane_sdf(x0=0.6)
        kp = rng.uniform(0.0, 1.2, size=(5, 4, 3))
        pen0, _ = collision_score(kp, sdf)
        inside = kp[..., 0] < 0.6
        kp2 = kp.copy()
        kp2[inside, 0] -= 0.05
        pen1, _ = collision_score(kp2, sdf)
        assert pen1 >= pen0


def world_frame_closest(keypoints, base, frames):
    """Oracle: the object cloud moved to each frame's object pose, then each
    frame's ``cdist`` minimum against the world keypoints."""
    cdist = pytest.importorskip("scipy.spatial.distance").cdist
    rot = axis_angle_to_matrix(frames[:, OBJ_ROT])
    track = np.einsum("tab,nb->tna", rot, base) + frames[:, None, OBJ_POS]
    return np.array([cdist(k, p).min() for k, p in zip(keypoints, track)])


def random_vectors(rng, num, max_norm):
    """``num`` vectors with uniform directions and norms uniform in [0, max_norm)."""
    axes = rng.normal(size=(num, 3))
    return axes / np.linalg.norm(axes, axis=1, keepdims=True) * rng.uniform(0, max_norm, (num, 1))


class TestContact:
    def test_coincident_every_frame(self, rng):
        kp = rng.normal(size=(5, 3, 3))
        obj = kp[:, 0, :].copy()
        assert contact_score(kp, obj) == 1.0

    def test_meter_away_never(self, rng):
        kp = np.zeros((4, 2, 3))
        obj = np.full((5, 3), 2.0)
        assert contact_score(kp, obj) == 0.0

    def test_three_of_ten_frames(self):
        kp = np.full((10, 1, 3), 10.0)
        for t in (1, 4, 7):
            kp[t] = [0.04, 0.0, 0.0]
        obj = np.zeros((1, 3))
        assert contact_score(kp, obj) == pytest.approx(0.3)

    def test_strict_threshold_boundary(self):
        kp = np.zeros((1, 1, 3))
        at = np.array([[0.05, 0.0, 0.0]])
        under = np.array([[0.05 - 1e-9, 0.0, 0.0]])
        assert contact_score(kp, at) == 0.0
        assert contact_score(kp, under) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 30), st.integers(1, 30),
           st.integers(0, 2**32 - 1))
    def test_distances_bit_identical_to_cdist(self, num, joints, points, seed):
        cdist = pytest.importorskip("scipy.spatial.distance").cdist
        rng = np.random.default_rng(seed)
        kp = rng.normal(size=(num, joints, 3))
        obj = rng.normal(size=(points, 3))
        want = np.array([cdist(a, obj).min() for a in kp])
        assert _closest_pair_distances(kp, obj).tobytes() == want.tobytes()

    def test_pair_at_threshold_on_every_axis_is_not_contact(self):
        kp = np.zeros((3, 1, 3))
        kp[[0, 1, 2], 0, [0, 1, 2]] = -CONTACT_THRESHOLD
        obj = np.zeros((1, 3))
        np.testing.assert_array_equal(_closest_pair_distances(kp, obj), CONTACT_THRESHOLD)
        assert contact_score(kp, obj) == 0.0
        assert contact_score(np.nextafter(kp, 0.0), obj) == 1.0

    def test_invariant_to_point_relabeling(self, rng):
        kp = rng.normal(size=(6, 4, 3))
        obj = rng.normal(size=(9, 3))
        shuffled = obj[rng.permutation(9)]
        assert contact_score(kp, obj) == contact_score(kp, shuffled)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 5), st.integers(1, 20),
           st.integers(0, 2**32 - 1))
    def test_object_frame_contact_matches_world_frame_oracle(self, num, joints, points, seed):
        """``score``'s contact, from keypoints moved into the object's frame,
        equals contact against the cloud moved into the world."""
        rng = np.random.default_rng(seed)
        frames = np.zeros((num, FRAME_DIM))
        frames[:, OBJ_POS] = rng.uniform(-2.0, 2.0, (num, 3))
        frames[:, OBJ_ROT] = random_vectors(rng, num, np.pi)
        base = rng.normal(scale=0.2, size=(points, 3))
        # each keypoint sits 0 to 3 thresholds from a random point of the moved cloud
        rot = axis_angle_to_matrix(frames[:, OBJ_ROT])
        near = np.einsum("tab,tjb->tja", rot, base[rng.integers(0, points, (num, joints))])
        offsets = random_vectors(rng, num * joints, 3.0 * CONTACT_THRESHOLD)
        keypoints = near + frames[:, None, OBJ_POS] + offsets.reshape(num, joints, 3)
        closest = world_frame_closest(keypoints, base, frames)
        assume(np.all(np.abs(closest - CONTACT_THRESHOLD) > 1e-9))
        args = SimpleNamespace(motion="m.mseq", scene=None, object="o.pts")
        with mock.patch.object(fileio, "read_mseq", return_value=MotionSequence(frames)), \
                mock.patch.object(fileio, "read_pts", return_value=base), \
                mock.patch.object(scene, "body_keypoints", return_value=keypoints):
            report = cli._geometry_scores(args)
        assert report["contact"] == np.count_nonzero(closest < CONTACT_THRESHOLD) / num


def unpruned_contact(keypoints, points):
    """Contact from every keypoint-point pair: ``contact_score`` before it skipped
    the keypoints outside the cloud's grown bounding box."""
    closest = _closest_pair_distances(keypoints, points)
    return np.count_nonzero(closest < CONTACT_THRESHOLD) / keypoints.shape[0]


def contact_edge_case(seed, center_exponent, num_points, num_frames, joints):
    """Keypoints around a cloud centred up to 1e12 from the origin: each coordinate
    inside the box grown by 2 CONTACT_THRESHOLD, on one of its faces, one float
    either side of a face, or one keypoint at or just under a threshold from a point."""
    rng = np.random.default_rng(seed)
    center = rng.choice([-1.0, 1.0], size=3) * 10.0**center_exponent * rng.uniform(0.5, 1.0, 3)
    spread = rng.choice([0.0, 0.01, 0.2])
    points = center + rng.uniform(-spread, spread, (num_points, 3))
    grow = 2.0 * CONTACT_THRESHOLD
    lo, hi = points.min(axis=0) - grow, points.max(axis=0) + grow
    choices = np.stack([
        lo, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf),
        hi, np.nextafter(hi, np.inf), np.nextafter(hi, -np.inf),
    ])
    kp = rng.uniform(lo - grow, hi + grow, (num_frames, joints, 3))
    kind = rng.integers(0, 2 * len(choices), kp.shape)
    on_face = kind < len(choices)
    kp[on_face] = choices[kind[on_face], np.nonzero(on_face)[2]]
    at_threshold = rng.random((num_frames, joints)) < 0.2
    axis = rng.integers(0, 3, at_threshold.sum())
    offset = np.zeros((axis.size, 3))
    offset[np.arange(axis.size), axis] = (rng.choice([-1.0, 1.0], axis.size) * rng.choice(
        [CONTACT_THRESHOLD, np.nextafter(CONTACT_THRESHOLD, 0.0)], axis.size))
    kp[at_threshold] = points[rng.integers(0, num_points, axis.size)] + offset
    return kp, points


class TestContactPruning:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([-3, 0, 1, 3, 6, 9, 12]),
           st.integers(1, 12), st.integers(1, 40), st.integers(1, 6))
    def test_equals_unpruned_predicate(self, seed, center_exponent, num_points, num_frames,
                                       joints):
        kp, points = contact_edge_case(seed, center_exponent, num_points, num_frames, joints)
        assert contact_score(kp, points) == unpruned_contact(kp, points)

    @pytest.mark.parametrize("center", [0.0, 1e12])
    def test_every_face_of_the_grown_box(self, center):
        point = np.full((1, 3), center)
        face = 2.0 * CONTACT_THRESHOLD
        kp = []
        for axis in range(3):
            for bound in (center - face, center + face):
                for value in (bound, np.nextafter(bound, -np.inf), np.nextafter(bound, np.inf)):
                    key = point[0].copy()
                    key[axis] = value
                    kp.append(key)
        kp = np.array(kp)[:, None, :]
        assert contact_score(kp, point) == unpruned_contact(kp, point) == 0.0

    def test_non_finite_keypoint_is_measured_as_before(self):
        points = np.zeros((1, 3))
        # a NaN makes its frame's minimum NaN, so the frame is not in contact
        kp = np.array([[[0.01, 0.0, 0.0], [np.nan, 5.0, 0.0]],
                       [[0.01, 0.0, 0.0], [np.inf, 5.0, 0.0]]])
        assert contact_score(kp, points) == unpruned_contact(kp, points) == 0.5

    @pytest.mark.parametrize("shape", [(2, 3, 2), (2, 3)])
    def test_rejects_keypoints_without_three_coordinates(self, shape):
        with pytest.raises(SceneError, match="keypoints must be"):
            contact_score(np.zeros(shape), np.zeros((1, 3)))


class TestBodyKeypoints:
    def test_zero_pose_is_offset_chain(self):
        kp = body_keypoints(MotionSequence(np.zeros((1, FRAME_DIM))))
        assert kp.shape == (1, 22, 3)
        expected = np.zeros((22, 3))
        for j in range(1, 22):
            expected[j] = expected[BONE_PARENTS[j]] + BONE_OFFSETS[j]
        np.testing.assert_allclose(kp[0], expected, atol=1e-12)

    def test_rigid_equivariance_with_to_global(self, rng):
        frames = np.zeros((4, FRAME_DIM))
        frames[:, 0:3] = rng.normal(size=(4, 3))
        frames[:, 3:69] = rng.uniform(-0.8, 0.8, size=(4, 66))
        seq = MotionSequence(frames, is_canonical=True)
        pose = SixDof(np.array([1.0, 0.0, -2.0]), np.array([0.0, 1.1, 0.0]))
        moved = body_keypoints(to_global(seq, pose))
        direct = body_keypoints(seq) @ pose.rotation_matrix().T + pose.translation
        np.testing.assert_allclose(moved, direct, atol=1e-9)


class TestObjectPoints:
    def test_voxelize_marks_point_cells(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.25]])
        cell = 0.25
        grid = voxelize_points(pts, cell_size=cell)
        assert grid.occupancy.sum() == 2
        for p in pts:
            idx = np.floor((p - grid.origin) / cell).astype(int)
            assert grid.occupancy[idx[0], idx[2], idx[1]] == 1
        # the SDF stays within the one-cell boundary band at the points
        sdf = build_sdf(grid)
        assert np.all(sample_sdf(sdf, pts) <= cell * np.sqrt(3.0))
