import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motok.motion import (
    FRAME_DIM,
    JOINT_ROT,
    MAX_FRAMES,
    OBJ_ROT,
    ROOT_ROT,
    SMALL_ANGLE,
    MotionError,
    MotionSequence,
    SixDof,
    _matrix_to_rotvec,
    axis_angle_to_matrix,
    normalize_rotations,
    root_pose_of,
    to_canonical,
    to_global,
)
from conftest import rodrigues


def make_seq(frames, **kw):
    return MotionSequence(np.asarray(frames, dtype=np.float64), **kw)


def random_frames(rng, num, scale=1.0):
    frames = np.zeros((num, FRAME_DIM))
    frames[:, 0:3] = rng.normal(0.0, scale, size=(num, 3))
    frames[:, 69:72] = rng.normal(0.0, scale, size=(num, 3))
    rot_cols = np.r_[3:6, 6:69, 72:75]
    frames[:, rot_cols] = rng.uniform(-0.9, 0.9, size=(num, rot_cols.size))
    return frames


class TestValidation:
    def test_frame_dim_enforced(self):
        with pytest.raises(MotionError):
            make_seq(np.zeros((4, 10)))

    def test_frame_count_bounds(self):
        with pytest.raises(MotionError):
            make_seq(np.zeros((0, FRAME_DIM)))
        with pytest.raises(MotionError):
            make_seq(np.zeros((MAX_FRAMES + 1, FRAME_DIM)))
        make_seq(np.zeros((MAX_FRAMES, FRAME_DIM)))

    def test_rejects_nonfinite(self):
        frames = np.zeros((2, FRAME_DIM))
        frames[1, 0] = np.nan
        with pytest.raises(MotionError):
            make_seq(frames)

    def test_rejects_oversized_rotation(self):
        frames = np.zeros((1, FRAME_DIM))
        frames[0, 4] = 2.0 * np.pi
        with pytest.raises(MotionError):
            make_seq(frames)

    # a component above ~1.3e154 squares to inf in the norm; tier-1 fails on
    # the RuntimeWarning that numpy would print for it
    @pytest.mark.parametrize("column", [ROOT_ROT.start, JOINT_ROT.stop - 1, OBJ_ROT.start])
    def test_huge_rotation_rejected_without_a_warning(self, column):
        frames = np.zeros((1, FRAME_DIM))
        frames[0, column] = 1e200
        with pytest.raises(MotionError, match="got max inf"):
            make_seq(frames)

    def test_huge_orientation_rejected_without_a_warning(self):
        with pytest.raises(MotionError, match="got max inf"):
            SixDof(translation=np.zeros(3), orientation=np.array([0.0, 1e200, 0.0]))

    def test_frames_immutable(self):
        seq = make_seq(np.zeros((2, FRAME_DIM)))
        with pytest.raises(ValueError):
            seq.frames[0, 0] = 1.0

    def test_normalize_rotations_wraps(self):
        frames = np.zeros((1, FRAME_DIM))
        frames[0, 3:6] = [0.0, 7.0, 0.0]  # > 2*pi about y
        fixed = normalize_rotations(frames)
        assert np.linalg.norm(fixed[0, 3:6]) < 2.0 * np.pi
        np.testing.assert_allclose(fixed[0, 4], 7.0 - 2.0 * np.pi, atol=1e-12)
        # already-valid rotations untouched
        ok = np.zeros((1, FRAME_DIM))
        ok[0, 5] = 1.5
        np.testing.assert_array_equal(normalize_rotations(ok), ok)


def scipy_rotation():
    return pytest.importorskip("scipy.spatial.transform").Rotation


def unit_axes(rng, num):
    axes = rng.normal(size=(num, 3))
    return axes / np.linalg.norm(axes, axis=1, keepdims=True)


# Angles at the edges of the rotation maps: 0, either side of the Taylor
# switch, and pi, where the rotation vector's sign is ambiguous.
EDGE_ANGLES = [0.0, 1e-300, 1e-12, 1e-8, SMALL_ANGLE * (1 - 1e-9), SMALL_ANGLE,
               SMALL_ANGLE * (1 + 1e-9), 0.5, np.pi - 1e-6, np.pi - 1e-9, np.pi]


class TestRotationMaps:
    """Rodrigues and Shepperd's method against scipy's ``Rotation`` as an oracle."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, np.pi, exclude_max=True))
    def test_round_trip(self, seed, angle):
        rotvec = unit_axes(np.random.default_rng(seed), 1)[0] * angle
        back = _matrix_to_rotvec(axis_angle_to_matrix(rotvec)[None])[0]
        np.testing.assert_allclose(back, rotvec, rtol=0, atol=1e-14)

    def test_matrices_agree_with_scipy(self, rng):
        rotation = scipy_rotation()
        # MotionSequence admits angles up to 2*pi
        rotvecs = unit_axes(rng, 5000) * rng.uniform(0.0, 2 * np.pi, size=(5000, 1))
        mats = axis_angle_to_matrix(rotvecs)
        np.testing.assert_allclose(mats, rotation.from_rotvec(rotvecs).as_matrix(),
                                   rtol=0, atol=1e-14)
        # compare the recovered rotations as matrices: at pi both signs are valid
        want = rotation.from_matrix(mats).as_rotvec()
        np.testing.assert_allclose(axis_angle_to_matrix(_matrix_to_rotvec(mats)),
                                   axis_angle_to_matrix(want), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("angle", EDGE_ANGLES)
    def test_edge_angles(self, rng, angle):
        rotation = scipy_rotation()
        rotvecs = unit_axes(rng, 50) * angle
        mats = axis_angle_to_matrix(rotvecs)
        np.testing.assert_allclose(mats, rotation.from_rotvec(rotvecs).as_matrix(),
                                   rtol=0, atol=1e-14)
        back = _matrix_to_rotvec(mats)
        np.testing.assert_allclose(axis_angle_to_matrix(back), mats, rtol=0, atol=1e-14)
        if angle < np.pi:
            np.testing.assert_allclose(back, rotvecs, rtol=0, atol=1e-14)
        else:
            np.testing.assert_allclose(np.abs(back), np.abs(rotvecs), rtol=0, atol=1e-14)
        np.testing.assert_allclose(np.linalg.norm(back, axis=1), angle, rtol=0, atol=1e-14)

    def test_shapes(self):
        assert axis_angle_to_matrix(np.array([0.0, 0.3, 0.0])).shape == (3, 3)
        np.testing.assert_array_equal(axis_angle_to_matrix(np.zeros((2, 4, 3))),
                                      np.broadcast_to(np.eye(3), (2, 4, 3, 3)))
        for shape in [(4,), (5, 2), ()]:
            with pytest.raises(MotionError, match="shape"):
                axis_angle_to_matrix(np.zeros(shape))

    def test_to_global_composes_like_scipy(self, rng):
        rotation = scipy_rotation()
        frames = random_frames(rng, 40)
        pose = SixDof(rng.normal(size=3), unit_axes(rng, 1)[0] * 2.5)
        out = to_global(make_seq(frames, is_canonical=True), pose)
        world = rotation.from_rotvec(pose.orientation.copy())  # scipy needs writable input
        for block in (slice(3, 6), slice(72, 75)):
            want = (world * rotation.from_rotvec(frames[:, block])).as_matrix()
            np.testing.assert_allclose(axis_angle_to_matrix(out.frames[:, block]), want,
                                       rtol=0, atol=1e-14)


class TestToGlobal:
    def test_identity_offset_keeps_frames(self, rng):
        seq = make_seq(random_frames(rng, 5), is_canonical=True)
        out = to_global(seq, SixDof(np.zeros(3), np.zeros(3)))
        assert not out.is_canonical
        np.testing.assert_allclose(out.frames, seq.frames, atol=1e-12)

    def test_pure_translation_single_frame(self):
        seq = make_seq(np.zeros((1, FRAME_DIM)), is_canonical=True)
        out = to_global(seq, SixDof(np.array([1.0, 0.0, 0.0]), np.zeros(3)))
        np.testing.assert_allclose(out.frames[0, 0:3], [1.0, 0.0, 0.0], atol=1e-12)

    def test_yaw_rotates_deltas_per_matrix_oracle(self):
        frames = np.zeros((2, FRAME_DIM))
        frames[1, 0] = 1.0  # moving +x
        seq = make_seq(frames, is_canonical=True)
        yaw = np.array([0.0, np.pi / 2.0, 0.0])
        out = to_global(seq, SixDof(np.zeros(3), yaw))
        delta = out.frames[1, 0:3] - out.frames[0, 0:3]
        np.testing.assert_allclose(delta, rodrigues(yaw) @ [1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(delta, [0.0, 0.0, -1.0], atol=1e-12)

    def test_rejects_global_input(self, rng):
        seq = make_seq(random_frames(rng, 3), is_canonical=False)
        with pytest.raises(MotionError):
            to_global(seq, SixDof(np.zeros(3), np.zeros(3)))

    def test_root_orientation_composes_with_oracle(self, rng):
        frames = random_frames(rng, 4)
        seq = make_seq(frames, is_canonical=True)
        pose = SixDof(rng.normal(size=3), np.array([0.0, 0.7, 0.0]))
        out = to_global(seq, pose)
        for t in range(4):
            want = rodrigues(pose.orientation) @ rodrigues(frames[t, 3:6])
            got = axis_angle_to_matrix(out.frames[t, 3:6])
            np.testing.assert_allclose(got, want, atol=1e-10)
        # local joint columns untouched
        np.testing.assert_array_equal(out.frames[:, 6:69], frames[:, 6:69])


class TestToCanonical:
    def test_round_trip(self, rng):
        seq = make_seq(random_frames(rng, 50, scale=2.0), is_canonical=False)
        canon = to_canonical(seq)
        back = to_global(canon, root_pose_of(seq))
        np.testing.assert_allclose(back.frames, seq.frames, atol=1e-9)

    def test_fixed_point_at_origin(self, rng):
        frames = random_frames(rng, 6)
        frames[0, 0] = frames[0, 2] = 0.0
        frames[0, 3:6] = 0.0  # zero yaw at frame 0
        seq = make_seq(frames, is_canonical=False)
        canon = to_canonical(seq)
        np.testing.assert_allclose(canon.frames, frames, atol=1e-12)

    def test_frame0_lands_on_origin_zero_yaw(self, rng):
        seq = make_seq(random_frames(rng, 50, scale=3.0), is_canonical=False)
        canon = to_canonical(seq)
        assert canon.is_canonical
        np.testing.assert_allclose(canon.frames[0, [0, 2]], 0.0, atol=1e-9)
        rot = axis_angle_to_matrix(canon.frames[0, 3:6])
        assert abs(np.arctan2(rot[0, 2], rot[2, 2])) < 1e-9

    def test_rejects_canonical_input(self, rng):
        seq = make_seq(random_frames(rng, 3), is_canonical=True)
        with pytest.raises(MotionError):
            to_canonical(seq)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 40))
    def test_round_trip_property(self, seed, num):
        rng = np.random.default_rng(seed)
        seq = make_seq(random_frames(rng, num, scale=2.0), is_canonical=False)
        back = to_global(to_canonical(seq), root_pose_of(seq))
        np.testing.assert_allclose(back.frames, seq.frames, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_canonical_then_global_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        canon = make_seq(random_frames(rng, 8), is_canonical=True)
        pose = SixDof(rng.normal(size=3) * [1, 0, 1],
                      np.array([0.0, rng.uniform(-3.0, 3.0), 0.0]))
        placed = to_global(canon, pose)
        # canonicalizing what we placed recovers the canonical input when the
        # input itself was planar-neutral at frame 0
        frames = canon.frames.copy()
        frames[0, 0] = frames[0, 2] = 0.0
        frames[0, 3:6] = 0.0
        neutral = make_seq(frames, is_canonical=True)
        placed = to_global(neutral, pose)
        again = to_canonical(placed)
        np.testing.assert_allclose(again.frames, neutral.frames, atol=1e-9)
