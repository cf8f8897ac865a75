import functools
import importlib.util
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motok import populate, scene
from motok.motion import SixDof, to_global
from motok.populate import (
    REFINE_ROUNDS,
    STANDING_HEIGHT,
    SceneLessError,
    _candidate_keypoints,
    find_seed_position,
    optimize_placement,
    placement_lattice,
    wrap_angle,
)
from motok.scene import (
    SceneVoxelGrid,
    body_keypoints,
    build_sdf,
    collision_score,
    sample_sdf,
    sample_sdf_shifted,
)
from motok.synth import make_walk_sequence

CELL = 0.1
# the cell layer the search stands on, in CELL-sized grids with more layers than this
STAND_IY = int(np.floor(STANDING_HEIGHT / CELL))


def empty_room(nx=7, nz=9, ny=4):
    return SceneVoxelGrid(np.zeros((nx, nz, ny), dtype=np.uint8), np.zeros(3), CELL)


def corridor(nx=18, nz=24, ny=16):
    """Closed room with walls on the perimeter; free interior corridor along z.

    Walls are 1.6 m tall: above head height, so nothing leaks over the top.
    """
    occ = np.zeros((nx, nz, ny), dtype=np.uint8)
    occ[0, :, :] = occ[-1, :, :] = 1
    occ[:, 0, :] = occ[:, -1, :] = 1
    return SceneVoxelGrid(occ, np.zeros(3), CELL)


def too_small_pocket():
    """A 0.5 x 1.0 m free pocket: the walk's 1.1 x 1.4 m footprint cannot fit."""
    occ = np.zeros((21, 20, 16), dtype=np.uint8)
    occ[:8, :, :] = occ[-8:, :, :] = 1
    occ[:, :5, :] = occ[:, -5:, :] = 1
    return SceneVoxelGrid(occ, np.zeros(3), CELL)


def demo_room(**size):
    """``build_room`` of the demo script; ``size`` overrides its cell counts."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "demo_scene_pipeline.py"
    spec = importlib.util.spec_from_file_location("demo_scene_pipeline", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_room(**size)


def _brute_force_placement(seq, grid, yaw_count=16):
    """Reference search: score every lattice candidate at every yaw in full.

    This is the exhaustive scan optimize_placement must match bit for bit:
    the first minimum in the order seed, yaw, lattice index, then the same
    coordinate-descent refinement.
    """
    sdf = build_sdf(grid)
    seed = find_seed_position(grid, sdf)
    kp = _candidate_keypoints(seq)

    def score_offsets(xz, yaw):
        cos, sin = np.cos(yaw), np.sin(yaw)
        rot = np.array([[cos, 0.0, sin], [0.0, 1.0, 0.0], [-sin, 0.0, cos]])
        rotated = kp.reshape(-1, 3) @ rot.T
        offsets = np.zeros((xz.shape[0], 1, 3))
        offsets[:, 0, 0] = xz[:, 0]
        offsets[:, 0, 2] = xz[:, 1]
        values = sample_sdf(sdf, rotated[None, :, :] + offsets)
        return np.maximum(0.0, -values).mean(axis=1)

    lattice_xz = placement_lattice(grid)
    best_xz = np.array([seed[0], seed[2]])
    best_yaw = 0.0
    best_score = float(score_offsets(best_xz[None, :], best_yaw)[0])
    evaluated = 1
    for k in range(yaw_count):
        yaw = wrap_angle(-np.pi + 2.0 * np.pi * k / yaw_count)
        scores = score_offsets(lattice_xz, yaw)
        evaluated += scores.size
        idx = int(np.argmin(scores))
        if scores[idx] < best_score:
            best_score = float(scores[idx])
            best_xz = lattice_xz[idx].copy()
            best_yaw = yaw

    step_xz, step_yaw = grid.cell_size, 2.0 * np.pi / yaw_count
    for _ in range(REFINE_ROUNDS):
        improved = True
        while improved:
            improved = False
            moves = [(step_xz, 0.0, 0.0), (-step_xz, 0.0, 0.0),
                     (0.0, step_xz, 0.0), (0.0, -step_xz, 0.0),
                     (0.0, 0.0, step_yaw), (0.0, 0.0, -step_yaw)]
            for dx, dz, dyaw in moves:
                cand_xz = best_xz + np.array([dx, dz])
                cand_yaw = wrap_angle(best_yaw + dyaw)
                score = float(score_offsets(cand_xz[None, :], cand_yaw)[0])
                evaluated += 1
                if score < best_score:
                    best_score, best_xz, best_yaw = score, cand_xz, cand_yaw
                    improved = True
        step_xz *= 0.5
        step_yaw *= 0.5

    offset = SixDof(np.array([best_xz[0], 0.0, best_xz[1]]), np.array([0.0, best_yaw, 0.0]))
    return SimpleNamespace(offset=offset, collision=best_score, candidates_evaluated=evaluated,
                           placed=to_global(seq, offset))


def assert_matches_brute_force(seq, grid, yaw_count=16):
    result = optimize_placement(seq, grid, yaw_count)
    expected = _brute_force_placement(seq, grid, yaw_count)
    np.testing.assert_array_equal(result.offset.translation, expected.offset.translation)
    np.testing.assert_array_equal(result.offset.orientation, expected.offset.orientation)
    assert result.collision == expected.collision
    assert result.candidates_evaluated == expected.candidates_evaluated
    np.testing.assert_array_equal(result.placed.frames, expected.placed.frames)
    assert result.candidates_scored + result.candidates_pruned <= result.candidates_evaluated
    return result


def assert_counters(result, seed_scores_zero):
    if seed_scores_zero:
        # the zero exit: only the seed is scored, nothing is pruned
        assert result.collision == 0.0
        assert (result.candidates_scored, result.candidates_pruned) == (1, 0)
    else:
        assert result.collision > 0.0
        assert result.candidates_pruned > 0


class TestSeedPosition:
    def test_empty_room_picks_geometric_center(self):
        # square room: the clearance maximum is the unique center cell
        grid = empty_room(nx=9, nz=9, ny=12)
        seed = find_seed_position(grid, build_sdf(grid))
        np.testing.assert_allclose(seed, grid.cell_center(4, 4, STAND_IY))

    def test_even_dims_tie_breaks_to_low_index(self):
        grid = empty_room(nx=8, nz=8, ny=12)
        seed = find_seed_position(grid, build_sdf(grid))
        np.testing.assert_allclose(seed[[0, 2]], grid.cell_center(3, 3, STAND_IY)[[0, 2]])

    def test_fully_occupied_raises(self):
        grid = SceneVoxelGrid(np.ones((4, 4, 4), dtype=np.uint8), np.zeros(3), CELL)
        with pytest.raises(SceneLessError):
            find_seed_position(grid, build_sdf(grid))

    def test_l_shaped_region_matches_brute_force(self, rng):
        occ = np.zeros((12, 12, 12), dtype=np.uint8)
        occ[6:, 6:, :] = 1  # occupy one quadrant so the free space is an L
        grid = SceneVoxelGrid(occ, np.zeros(3), CELL)
        iy = STAND_IY
        seed = find_seed_position(grid, build_sdf(grid))

        occupied = np.argwhere(occ == 1)
        best_val, best_cell = -np.inf, None
        for ix in range(12):
            for iz in range(12):
                if occ[ix, iz, iy] == 1:
                    continue
                sq = ((occupied - [ix, iz, iy]) ** 2).sum(axis=1).min()
                sdf_val = np.sqrt(float(sq)) * CELL
                center = grid.cell_center(ix, iz, iy)
                boundary = min(center[0], 12 * CELL - center[0],
                               center[2], 12 * CELL - center[2])
                clearance = min(sdf_val, boundary)
                if clearance > best_val + 1e-12:
                    best_val, best_cell = clearance, (ix, iz)
        np.testing.assert_allclose(seed, grid.cell_center(*best_cell, iy))


def _masked_argmax_seed(grid, sdf):
    """Reference seed and lattice: clearance over the whole standing layer,
    occupied cells masked to -inf, then the first argmax in C order."""
    nx, nz, ny = grid.shape
    c = grid.cell_size
    iy = int(np.clip(np.floor(STANDING_HEIGHT / c), 0, ny - 1))
    xs = grid.origin[0] + c * (np.arange(nx) + 0.5)
    zs = grid.origin[2] + c * (np.arange(nz) + 0.5)
    grid_x, grid_z = np.meshgrid(xs, zs, indexing="ij")
    y = grid.origin[1] + c * (iy + 0.5)
    centers = np.stack([grid_x, np.full((nx, nz), y), grid_z], axis=-1)
    sdf_vals = sample_sdf(sdf, centers.reshape(-1, 3)).reshape(nx, nz)
    edge_x = np.minimum(grid_x - grid.origin[0], grid.origin[0] + nx * c - grid_x)
    edge_z = np.minimum(grid_z - grid.origin[2], grid.origin[2] + nz * c - grid_z)
    clearance = np.minimum(sdf_vals, np.minimum(edge_x, edge_z))
    free = grid.occupancy[:, :, iy] == 0
    lattice = np.stack([grid_x[free], grid_z[free]], axis=-1)
    if not free.any():
        return None, lattice
    masked = np.where(free, clearance, -np.inf)
    best = np.unravel_index(np.argmax(masked), masked.shape)
    return grid.cell_center(int(best[0]), int(best[1]), iy), lattice


@st.composite
def standing_grids(draw):
    """Small grids: random, all-free (ties everywhere) or one free cell, with
    ny = 1 and cell sizes that put the standing layer past either end."""
    shape = (draw(st.integers(1, 9)), draw(st.integers(1, 9)), draw(st.integers(1, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mode = draw(st.sampled_from(["random", "free", "one"]))
    if mode == "random":
        occ = (rng.random(shape) < draw(st.sampled_from([0.2, 0.5, 0.8]))).astype(np.uint8)
    else:
        occ = np.zeros(shape, np.uint8) if mode == "free" else np.ones(shape, np.uint8)
    if mode == "one":
        occ[tuple(int(rng.integers(n)) for n in shape)] = 0
    origin = draw(st.tuples(*[st.floats(-5, 5, allow_nan=False)] * 3))
    cell = draw(st.sampled_from([0.01, 0.1, 0.3, 0.9, 2.5]) | st.floats(0.01, 3.0))
    return SceneVoxelGrid(occ, np.array(origin), cell)


@settings(max_examples=150, deadline=None)
@given(grid=standing_grids())
def test_seed_and_lattice_match_masked_argmax(grid):
    sdf = build_sdf(grid)
    seed, lattice = _masked_argmax_seed(grid, sdf)
    found = placement_lattice(grid)
    assert (found.shape, found.tobytes()) == (lattice.shape, lattice.tobytes())
    if seed is None:
        with pytest.raises(SceneLessError):
            find_seed_position(grid, sdf)
    else:
        assert find_seed_position(grid, sdf).tobytes() == seed.tobytes()


class TestOptimizePlacement:
    def test_all_free_scene_is_seed_with_zero_collision(self):
        grid = empty_room(nx=9, nz=9, ny=12)
        seq = make_walk_sequence(num_frames=15, speed=0.3)
        result = optimize_placement(seq, grid, 16)
        seed = find_seed_position(grid, build_sdf(grid))
        assert result.collision == 0.0
        np.testing.assert_allclose(result.offset.translation[[0, 2]], seed[[0, 2]])
        assert result.offset.orientation[1] == 0.0

    def test_requires_canonical_sequence(self):
        seq = make_walk_sequence(num_frames=10)
        global_seq = seq.__class__(seq.frames, fps=seq.fps, is_canonical=False)
        with pytest.raises(ValueError):
            optimize_placement(global_seq, empty_room(), 16)

    def test_deterministic(self):
        grid = corridor()
        seq = make_walk_sequence(num_frames=25, arm_swing=0.0)
        a = optimize_placement(seq, grid, 16)
        b = optimize_placement(seq, grid, 16)
        assert a.collision == b.collision
        np.testing.assert_array_equal(a.offset.orientation, b.offset.orientation)
        np.testing.assert_array_equal(a.offset.translation, b.offset.translation)

    def test_corridor_selects_straight_heading(self):
        grid = corridor()
        seq = make_walk_sequence(num_frames=25, arm_swing=0.0)
        yaw_count = 16
        result = optimize_placement(seq, grid, yaw_count)
        step = 2.0 * np.pi / yaw_count
        assert abs(result.offset.orientation[1]) < step

        # exhaustive coarse-lattice oracle: every free standing cell x 16 yaws
        sdf = build_sdf(grid)
        kp = body_keypoints(seq)
        best = np.inf
        for k in range(yaw_count):
            yaw = wrap_angle(-np.pi + 2.0 * np.pi * k / yaw_count)
            cos, sin = np.cos(yaw), np.sin(yaw)
            rot = np.array([[cos, 0.0, sin], [0.0, 1.0, 0.0], [-sin, 0.0, cos]])
            rotated = kp.reshape(-1, 3) @ rot.T
            for x, z in placement_lattice(grid):
                values = sample_sdf(sdf, rotated + [x, 0.0, z])
                best = min(best, float(np.maximum(0.0, -values).mean()))
        assert result.collision <= best + 1e-12

    def test_infeasible_for_too_small_pocket(self):
        # the pocket cannot hold the walk in any orientation, so something
        # always sinks into a wall
        seq = make_walk_sequence(num_frames=25, arm_swing=0.0)
        result = optimize_placement(seq, too_small_pocket(), 16)
        assert result.collision > 1e-3  # above populate's default --threshold

    def test_reapplying_offset_reproduces_collision(self):
        grid = corridor()
        seq = make_walk_sequence(num_frames=25, arm_swing=0.0)
        result = optimize_placement(seq, grid, 16)
        placed_kp = body_keypoints(result.placed)
        pen, _ = collision_score(placed_kp, build_sdf(grid))
        assert pen == pytest.approx(result.collision, abs=1e-9)

    def test_scene_less_propagates(self):
        grid = SceneVoxelGrid(np.ones((4, 4, 4), dtype=np.uint8), np.zeros(3), CELL)
        with pytest.raises(SceneLessError):
            optimize_placement(make_walk_sequence(num_frames=9), grid, 16)


@st.composite
def pillared_rooms(draw):
    """Small rooms, walls two cells thick, with up to three pillars of random size and height."""
    nx, nz, ny = draw(st.integers(10, 16)), draw(st.integers(10, 16)), 20
    occ = np.zeros((nx, nz, ny), dtype=np.uint8)
    occ[:2, :, :] = occ[-2:, :, :] = 1
    occ[:, :2, :] = occ[:, -2:, :] = 1
    for _ in range(draw(st.integers(1, 3))):
        x, z = draw(st.integers(2, nx - 3)), draw(st.integers(2, nz - 3))
        w, d, h = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(3, ny))
        occ[x:x + w, z:z + d, :h] = 1
    return SceneVoxelGrid(occ, np.zeros(3), CELL)


class TestBranchAndBound:
    """optimize_placement against the exhaustive scan it replaces."""

    # the 2- and 31-frame walks fit the demo room, so the seed scores 0 and
    # the search returns at once; the 11-frame walk covers 3.3 m and no
    # candidate scores 0, so the bound prunes
    @pytest.mark.parametrize("frames, speed, seed_scores_zero",
                             [(2, 1.0, True), (31, 1.0, True), (11, 9.0, False)])
    def test_demo_room_matches_brute_force(self, frames, speed, seed_scores_zero):
        seq = make_walk_sequence(num_frames=frames, speed=speed, arm_swing=0.2,
                                 with_object=True)
        result = assert_matches_brute_force(seq, demo_room())
        assert_counters(result, seed_scores_zero)

    @pytest.mark.parametrize("grid, seed_scores_zero",
                             [(corridor(), True), (too_small_pocket(), False)],
                             ids=["corridor", "too_small_pocket"])
    def test_fixtures_match_brute_force(self, grid, seed_scores_zero):
        seq = make_walk_sequence(num_frames=25, arm_swing=0.0)
        result = assert_matches_brute_force(seq, grid)
        assert_counters(result, seed_scores_zero)

    @settings(max_examples=30, deadline=None)
    @given(grid=pillared_rooms(), frames=st.integers(2, 12),
           speed=st.sampled_from([0.5, 1.5, 4.0]), with_object=st.booleans(),
           yaw_count=st.sampled_from([1, 5, 16]))
    def test_random_rooms_match_brute_force(self, grid, frames, speed, with_object, yaw_count):
        seq = make_walk_sequence(num_frames=frames, speed=speed, with_object=with_object)
        assert_matches_brute_force(seq, grid, yaw_count)

    def test_scan_samples_through_sample_sdf_shifted(self, monkeypatch):
        # the scan's SDF lookups pass through one seam that a trace can count
        # points at: M candidates x P points per call
        points = []

        def counting(sdf, pts, shifts):
            values = sample_sdf_shifted(sdf, pts, shifts)
            points.append(values.size)
            return values

        monkeypatch.setattr(populate, "sample_sdf_shifted", counting)
        seq = make_walk_sequence(num_frames=11, speed=9.0, arm_swing=0.2, with_object=True)
        result = optimize_placement(seq, demo_room(), 16)
        frames, joints = _candidate_keypoints(seq).shape[:2]
        assert 0 < sum(points) < result.candidates_evaluated * frames * joints



def _reference_scan_yaw(kp, sdf, xz, yaw, bound):
    """The scan with one (lattice x T*J) penetration buffer per yaw: every
    chunk's values land in their candidates' full rows, and survivors are
    scored from those rows."""
    rotated = populate._rotate(kp, yaw)
    n = rotated.shape[0]
    step = populate.CHUNK_FRAMES * kp.shape[1]
    pen = np.empty((xz.shape[0], n))
    partial = np.zeros(xz.shape[0])
    live = np.arange(xz.shape[0])
    for start in range(0, n, step):
        chunk = populate._penetration(rotated[start:start + step], sdf, xz[live])
        pen[live, start:start + step] = chunk
        partial[live] += chunk.sum(axis=1)
        if start == 0 and step < n and live.size > 1:
            probe = live[np.argmin(partial[live])]
            bound = min(bound, float(populate._penetration(rotated, sdf,
                                                           xz[probe:probe + 1]).mean()))
        live = live[partial[live] <= bound * n * (1.0 + populate.PRUNE_SLACK)]
        if not live.size:
            break
    return live, pen[live].mean(axis=1)


@functools.cache
def _demo_scene():
    """The demo room, its SDF and its placement lattice (567 cells)."""
    grid = demo_room()
    return grid, build_sdf(grid), placement_lattice(grid)


def _seed_score(grid, sdf, kp):
    """The seed candidate's score: the bound the scan of the first yaw starts from."""
    seed = find_seed_position(grid, sdf)
    return populate._score(kp, sdf, np.array([seed[0], seed[2]]), 0.0)


class TestScanYaw:
    """_scan_yaw against the scan that keeps every candidate's full row."""

    # 17-41 frames are 3-6 chunks; the first chunk looks up all 567 lattice
    # cells, more than one block of sample_sdf_shifted
    @settings(max_examples=40, deadline=None)
    @given(frames=st.integers(17, 41), speed=st.sampled_from([1.0, 9.0]),
           with_object=st.booleans(), yaw_index=st.integers(0, 15),
           bound_kind=st.sampled_from(["inf", "zero", "seed", "between"]),
           fraction=st.floats(0.05, 0.95))
    def test_matches_full_buffer_scan(self, frames, speed, with_object, yaw_index,
                                      bound_kind, fraction):
        grid, sdf, xz = _demo_scene()
        assert xz.shape[0] > scene._SHIFT_BLOCK
        seq = make_walk_sequence(num_frames=frames, speed=speed, arm_swing=0.2,
                                 with_object=with_object)
        kp = _candidate_keypoints(seq)
        seed_score = _seed_score(grid, sdf, kp)
        bound = {"inf": np.inf, "zero": 0.0, "seed": seed_score,
                 "between": fraction * seed_score}[bound_kind]
        yaw = wrap_angle(-np.pi + 2.0 * np.pi * yaw_index / 16)
        live, scores = populate._scan_yaw(kp, sdf, xz, yaw, bound)
        ref_live, ref_scores = _reference_scan_yaw(kp, sdf, xz, yaw, bound)
        np.testing.assert_array_equal(live, ref_live)
        np.testing.assert_array_equal(scores.view(np.int64), ref_scores.view(np.int64))

    @pytest.mark.parametrize("frames, speed, grid", [
        (11, 9.0, demo_room()), (25, 9.0, demo_room()), (41, 4.0, demo_room()),
        (25, 1.0, too_small_pocket())], ids=["demo-11", "demo-25", "demo-41", "pocket-25"])
    def test_counters_match_full_buffer_scan(self, monkeypatch, frames, speed, grid):
        seq = make_walk_sequence(num_frames=frames, speed=speed, arm_swing=0.2,
                                 with_object=True)
        result = optimize_placement(seq, grid, 16)
        monkeypatch.setattr(populate, "_scan_yaw", _reference_scan_yaw)
        expected = optimize_placement(seq, grid, 16)
        assert result.candidates_pruned > 0
        assert (result.candidates_scored, result.candidates_pruned) == \
            (expected.candidates_scored, expected.candidates_pruned)
        assert result.collision == expected.collision
        np.testing.assert_array_equal(result.placed.frames, expected.placed.frames)

    def test_holds_less_than_a_full_penetration_buffer(self):
        # the 301-frame walk at the first yaw, bounded by the seed's score:
        # 186 of 567 candidates survive, and the scan's peak stays below the
        # (lattice x T*J) float64 buffer a full-row scan allocates
        grid, sdf, xz = _demo_scene()
        seq = make_walk_sequence(num_frames=301, arm_swing=0.2, with_object=True)
        kp = _candidate_keypoints(seq)
        bound = _seed_score(grid, sdf, kp)
        tracemalloc.start()
        try:
            live, _ = populate._scan_yaw(kp, sdf, xz, -np.pi, bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert live.size == 186
        assert peak < xz.shape[0] * kp.shape[0] * kp.shape[1] * 8


class TestPlacementOffset:
    def test_yaw_wraps_to_half_open_interval(self):
        assert wrap_angle(np.pi) == -np.pi
        assert wrap_angle(3 * np.pi) == pytest.approx(-np.pi)
        assert wrap_angle(-0.5) == -0.5

    def test_to_six_dof_layout(self):
        # the offset is the planar pose to_global applied: (x, 0, z) and a yaw about +Y
        seq = make_walk_sequence(num_frames=25, arm_swing=0.0)
        result = optimize_placement(seq, corridor(), 16)
        assert result.offset.translation[1] == 0.0
        np.testing.assert_array_equal(result.offset.orientation[[0, 2]], [0.0, 0.0])
        np.testing.assert_array_equal(to_global(seq, result.offset).frames, result.placed.frames)
