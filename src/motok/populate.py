"""Scene population: place a canonical motion to minimize collision.

The search space is SE(2): a planar translation plus a yaw about +Y.  A
coarse pass scans every (cell center, yaw) candidate on the grid, then a
coordinate-descent refinement with halving steps polishes the best one.
Scoring rotates/translates the precomputed canonical body keypoints, which
is exactly equivalent to re-rooting the sequence and running forward
kinematics again.

The coarse scan is an exact branch and bound.  A candidate's score is the
mean penetration over its N = T*J points, and penetration is never
negative, so the penetration summed over the frames seen so far bounds the
full sum from below.  Each yaw samples the SDF in chunks of
``CHUNK_FRAMES`` frames and drops a candidate once its partial sum exceeds
``best * N`` (with ``PRUNE_SLACK`` relative slack for summation order).  The
scan stores each chunk's per-point penetration for the candidates still live
only, and a prune drops the pruned candidates' rows from every stored chunk
at once.  A candidate that survives every chunk is scored from its stored
rows joined into one contiguous row of N values, the row an exhaustive scan
reduces, so the result matches the exhaustive scan bit for bit.  A yaw thus
holds the survivors' stored rows plus one block of the SDF kernel's
temporaries, not a (lattice x N) buffer.  Once the best score is 0 nothing
can beat it (both passes accept only strict improvements), so the search
stops there.

Every lookup goes through :func:`scene.sample_sdf_shifted`, which factors
the trilinear arithmetic by axis.  A grid axis's terms (corner, weight,
overshoot) depend on one world coordinate of the shifted point: y on the
point alone, since the y shift is 0, and x and z on the point and one
coordinate of the shift.  Lattice x and z values come from one
``origin + c * (i + 0.5)`` expression per cell column, so a few dozen
distinct values cover hundreds of candidates.  The kernel computes each term
once per distinct value and gathers it per candidate, performing the same
operations on the same operands as the per-candidate lookup, so every value
is bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .motion import OBJ_POS, MotionSequence, SixDof, to_global
from .scene import (
    SceneVoxelGrid,
    SignedDistanceField,
    body_keypoints,
    build_sdf,
    sample_sdf,
    sample_sdf_shifted,
)

# Frames per SDF lookup of the coarse scan.  On the 301-frame demo walk 4 and
# 8 frames ran about equally fast; 32 frames prune later and ran ~1.7x slower.
CHUNK_FRAMES = 8
# Relative slack on the pruning bound: a partial sum and a full mean add the
# same values in different orders, so a candidate that ties the best must not
# be dropped over the last bits.
PRUNE_SLACK = 1e-9
# Height (m) of the cell layer the search stands on: the seed cell and the
# lattice are the cells free at this height.
STANDING_HEIGHT = 0.9
# Coordinate-descent rounds after the coarse scan; each halves the step sizes.
REFINE_ROUNDS = 3
# Unit (dx, dz, dyaw) steps of one refinement pass, scaled by the round's steps.
REFINE_MOVES = ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0))
# Evenly spaced yaws of the coarse scan; their spacing is the refinement's first yaw step.
YAW_COUNT = 16
# Largest mean penetration (m) of a feasible placement.
FEASIBLE_COLLISION = 1e-3


class SceneLessError(RuntimeError):
    """Raised when a scene offers no place to stand."""


@dataclass(frozen=True)
class PlacementResult:
    """Best offset found, its collision score, and the placed sequence.

    ``offset`` is the pose :func:`motion.to_global` applied to the clip:
    translation (x, 0, z) and orientation (0, yaw, 0), yaw in [-pi, pi).
    ``candidates_evaluated`` counts the candidates an exhaustive search
    visits.  Of those, ``candidates_scored`` were scored in full and
    ``candidates_pruned`` dropped by the bound; the zero exit skipped the rest.
    """

    offset: SixDof
    collision: float
    placed: MotionSequence
    candidates_evaluated: int
    candidates_scored: int
    candidates_pruned: int


def wrap_angle(angle: float) -> float:
    """Wrap to [-pi, pi); values already in range pass through untouched."""
    if -np.pi <= angle < np.pi:
        return float(angle)
    return float((angle + np.pi) % (2.0 * np.pi) - np.pi)


def _standing_layer(grid: SceneVoxelGrid):
    """Standing cell layer ``iy``, the (ix, iz) indices of its free cells in C
    order, and their cell-center (x, z)."""
    c = grid.cell_size
    iy = int(np.clip(np.floor(STANDING_HEIGHT / c), 0, grid.shape[2] - 1))
    cells = np.argwhere(grid.occupancy[:, :, iy] == 0)
    return iy, cells, grid.origin[[0, 2]] + c * (cells + 0.5)


def find_seed_position(grid: SceneVoxelGrid, sdf: SignedDistanceField) -> np.ndarray:
    """Free cell center with the most clearance at standing height.

    Clearance is the smaller of the SDF value and the planar distance to the
    grid boundary, so wide-open grids still prefer their centers.  ``sdf`` is
    the grid's own SDF.  Ties break toward the lowest (x, then z) index.
    Raises :class:`SceneLessError` when no cell is free at standing height.
    """
    iy, cells, centers = _standing_layer(grid)
    if not cells.size:
        raise SceneLessError("no free cell at standing height")
    low = grid.origin[[0, 2]]
    y = np.full((cells.shape[0], 1), grid.origin[1] + grid.cell_size * (iy + 0.5))
    sdf_vals = sample_sdf(sdf, np.hstack([centers[:, :1], y, centers[:, 1:]]))
    edge = np.minimum(centers - low, low + np.array(grid.shape[:2]) * grid.cell_size - centers)
    clearance = np.minimum(sdf_vals, edge.min(axis=1))
    return grid.cell_center(*cells[np.argmax(clearance)], iy)  # argmax is the first max


def _candidate_keypoints(seq: MotionSequence) -> np.ndarray:
    """Canonical keypoints (T, J, 3); a nonzero object position joins as an extra point."""
    kp = body_keypoints(seq)
    obj = seq.frames[:, OBJ_POS]
    if np.any(obj != 0.0):
        kp = np.concatenate([kp, obj[:, None, :]], axis=1)
    return kp


def _rotate(kp: np.ndarray, yaw: float) -> np.ndarray:
    """Keypoints (T, J, 3) rotated about +Y by ``yaw``, flattened to (T*J, 3)."""
    cos, sin = np.cos(yaw), np.sin(yaw)
    rot = np.array([[cos, 0.0, sin], [0.0, 1.0, 0.0], [-sin, 0.0, cos]])
    return kp.reshape(-1, 3) @ rot.T


def _penetration(points: np.ndarray, sdf: SignedDistanceField, xz: np.ndarray) -> np.ndarray:
    """Per-point penetration (M, P) of ``points`` (P, 3) shifted by each (x, z) in ``xz`` (M, 2)."""
    return np.maximum(0.0, -sample_sdf_shifted(sdf, points, xz))


def _score(kp: np.ndarray, sdf: SignedDistanceField, xz: np.ndarray, yaw: float) -> float:
    """Mean penetration of the keypoints at one planar offset ``xz`` (2,) and ``yaw``."""
    return float(_penetration(_rotate(kp, yaw), sdf, xz[None, :]).mean())


def _scan_yaw(
    kp: np.ndarray,
    sdf: SignedDistanceField,
    xz: np.ndarray,
    yaw: float,
    bound: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Branch-and-bound scan of the offsets ``xz`` (M, 2) at one yaw.

    Returns the indices of the candidates that may score ``<= bound`` and
    their exact scores, in lattice order; every other candidate scores more
    than ``bound``.  After the first chunk the candidate with the least
    penetration is scored in full, which can only tighten the bound.

    ``chunks`` holds each chunk's (|live|, CHUNK_FRAMES * J) penetration, its
    rows aligned with ``live``; a prune filters ``partial`` and every stored
    chunk with the same mask.  Memory is the live candidates' stored rows
    (twice the survivors' while the final join copies them) plus one block
    of :func:`scene.sample_sdf_shifted`'s temporaries.
    """
    rotated = _rotate(kp, yaw)
    n = rotated.shape[0]
    step = CHUNK_FRAMES * kp.shape[1]
    live = np.arange(xz.shape[0])
    partial = np.zeros(xz.shape[0])
    chunks = []
    for start in range(0, n, step):
        chunk = _penetration(rotated[start:start + step], sdf, xz[live])
        chunks.append(chunk)
        partial += chunk.sum(axis=1)
        if start == 0 and step < n and live.size > 1:
            probe = live[np.argmin(partial)]
            bound = min(bound, float(_penetration(rotated, sdf, xz[probe:probe + 1]).mean()))
        keep = partial <= bound * n * (1.0 + PRUNE_SLACK)
        if not keep.all():
            live, partial = live[keep], partial[keep]
            chunks = [c[keep] for c in chunks]
        if not live.size:
            break
    return live, np.concatenate(chunks, axis=1).mean(axis=1)


def optimize_placement(seq: MotionSequence, grid: SceneVoxelGrid) -> PlacementResult:
    """Coarse lattice search plus coordinate-descent refinement.

    The lattice is every cell center crossed with ``YAW_COUNT`` evenly spaced
    yaws.  The seed candidate (seed cell, yaw 0) wins all ties, so an all-free
    scene reports the seed offset with exactly zero collision.  Refinement
    halves its steps each round and only ever accepts strict improvements.

    The result is that of an exhaustive scan: the first minimum in the order
    seed, yaw 0 .. YAW_COUNT-1, lattice index.  Per yaw, ``_scan_yaw`` prunes
    every candidate whose partial penetration already exceeds the best score
    so far, and scores the rest exactly.  Once the best score is 0 the search
    returns at once.  ``candidates_evaluated`` still counts every candidate
    the exhaustive search visits; ``candidates_scored`` and
    ``candidates_pruned`` say how many were scored in full or dropped.
    """
    if not seq.is_canonical:
        raise ValueError("optimize_placement expects a canonical sequence")
    sdf = build_sdf(grid)
    seed = find_seed_position(grid, sdf)
    kp = _candidate_keypoints(seq)

    lattice_xz = _standing_layer(grid)[2]
    yaws = [wrap_angle(-np.pi + 2.0 * np.pi * k / YAW_COUNT) for k in range(YAW_COUNT)]

    best_xz = np.array([seed[0], seed[2]])
    best_yaw = 0.0
    best_score = _score(kp, sdf, best_xz, best_yaw)
    evaluated = 1 + lattice_xz.shape[0] * len(yaws)
    scored, pruned = 1, 0
    for yaw in yaws:
        if best_score == 0.0:
            break
        live, scores = _scan_yaw(kp, sdf, lattice_xz, yaw, best_score)
        scored += live.size
        pruned += lattice_xz.shape[0] - live.size
        if live.size:
            idx = int(np.argmin(scores))
            if scores[idx] < best_score:
                best_score = float(scores[idx])
                best_xz = lattice_xz[live[idx]].copy()
                best_yaw = yaw

    step_xz, step_yaw = grid.cell_size, 2.0 * np.pi / YAW_COUNT
    if best_score == 0.0:
        # no move can improve on 0, so each round is one pass of all moves
        evaluated += REFINE_ROUNDS * len(REFINE_MOVES)
    else:
        for _ in range(REFINE_ROUNDS):
            improved = True
            while improved:
                improved = False
                for ux, uz, uyaw in REFINE_MOVES:
                    cand_xz = best_xz + np.array([ux * step_xz, uz * step_xz])
                    cand_yaw = wrap_angle(best_yaw + uyaw * step_yaw)
                    score = _score(kp, sdf, cand_xz, cand_yaw)
                    evaluated += 1
                    scored += 1
                    if score < best_score:
                        best_score, best_xz, best_yaw = score, cand_xz, cand_yaw
                        improved = True
            step_xz *= 0.5
            step_yaw *= 0.5

    offset = SixDof(translation=np.array([best_xz[0], 0.0, best_xz[1]]),
                    orientation=np.array([0.0, best_yaw, 0.0]))
    return PlacementResult(
        offset=offset,
        collision=best_score,
        placed=to_global(seq, offset),
        candidates_evaluated=evaluated,
        candidates_scored=scored,
        candidates_pruned=pruned,
    )
