"""Deterministic synthetic motion generators for experiments and tests."""

from __future__ import annotations

import functools
import math

import numpy as np

from .ddim import Condition, gaussian_posterior_denoiser
from .motion import FRAME_DIM, MotionSequence
from .vae import SEGMENT_LEN


_BASE_POSE = np.zeros(FRAME_DIM)
_BASE_POSE[1] = 0.9   # pelvis height
_BASE_POSE[70] = 0.7  # object height

# Frame rate of every synthetic sequence.
FPS = 30
# Sinusoid patterns, and so binary attributes, behind each corpus segment, and
# the geometric decay of their amplitudes.
NUM_PATTERNS = 13
PATTERN_DECAY = 0.85
# Walking speed (m/s) of the toy walk track and the spread the toy denoiser
# assumes around it.
WALK_SPEED = 1.0
WALK_SIGMA = 0.15
# Bound of the toy_walk_track memo: 65 headings (a conditional track plus a
# 64-heading text-free mixture, ROADMAP item 8) at each of up to three widths;
# a two-pass sample uses two.  An LRU smaller than a cyclic working set never
# hits, and random headings must not grow it without limit.
TRACK_MEMO_SIZE = 256


def _segment_patterns(rng: np.random.Generator) -> np.ndarray:
    """Orthonormal 8-frame sinusoid patterns, (NUM_PATTERNS, 8, 75)."""
    t = np.arange(SEGMENT_LEN) / FPS
    raw = np.empty((NUM_PATTERNS, SEGMENT_LEN, FRAME_DIM))
    for i in range(NUM_PATTERNS):
        freq = rng.uniform(0.5, 3.5, size=FRAME_DIM)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=FRAME_DIM)
        amp = rng.uniform(0.3, 1.0, size=FRAME_DIM)
        raw[i] = amp * np.sin(2.0 * np.pi * freq * t[:, None] + phase)
    flat, _ = np.linalg.qr(raw.reshape(NUM_PATTERNS, -1).T)
    return flat.T.reshape(NUM_PATTERNS, SEGMENT_LEN, FRAME_DIM)


def make_corpus(num_sequences: int = 16, num_frames: int = 96,
                seed: int = 0) -> list[MotionSequence]:
    """A reproducible sinusoid-pattern corpus for tokenizer experiments.

    Every 8-frame segment is a random +/-1 mixture of shared orthonormal
    sinusoid patterns whose amplitudes decay geometrically, so each segment
    carries ``NUM_PATTERNS`` binary attributes of steeply decreasing
    importance.  Reconstruction error is then governed by how many attributes
    a code can resolve: room for a clean capacity ladder across vocabulary
    sizes.
    """
    rng = np.random.default_rng(seed)
    patterns = _segment_patterns(rng)
    amplitudes = 1.9 * PATTERN_DECAY ** np.arange(NUM_PATTERNS)
    weighted = amplitudes[:, None, None] * patterns

    # keep rotation channels comfortably inside (-2*pi, 2*pi)
    reach = np.abs(weighted).sum(axis=0).max()
    if reach > 1.8:
        weighted *= 1.8 / reach

    if num_frames % SEGMENT_LEN:
        raise ValueError(f"num_frames must be a multiple of {SEGMENT_LEN}")
    per_seq = num_frames // SEGMENT_LEN
    corpus = []
    for _ in range(num_sequences):
        bits = rng.choice([-1.0, 1.0], size=(per_seq, NUM_PATTERNS))
        segments = _BASE_POSE + np.einsum("sp,ptc->stc", bits, weighted)
        corpus.append(MotionSequence(segments.reshape(num_frames, FRAME_DIM),
                                     fps=FPS, is_canonical=False))
    return corpus


def make_walk_sequence(num_frames: int = 61, speed: float = 1.0, arm_swing: float = 0.4,
                       with_object: bool = False) -> MotionSequence:
    """Canonical straight walk along +z with swinging arms.

    Starts at the XZ origin with zero yaw; handy for placement tests where
    the footprint of the motion matters.
    """
    t = np.arange(num_frames) / FPS
    frames = np.zeros((num_frames, FRAME_DIM))
    frames[:, 1] = 0.9
    frames[:, 2] = speed * t
    swing = arm_swing * np.sin(2.0 * np.pi * 1.5 * t)
    frames[:, 6 + 15 * 3 + 0] = swing   # left shoulder (joint 16)
    frames[:, 6 + 16 * 3 + 0] = -swing  # right shoulder (joint 17)
    if with_object:
        frames[:, 69] = 0.3
        frames[:, 70] = 0.8
        frames[:, 71] = speed * t + 0.4
    return MotionSequence(frames, fps=FPS, is_canonical=True)


def toy_walk_track(num_waypoints: int, heading: float) -> np.ndarray:
    """Per-second waypoint mean track of a straight walk: (W, 12), read-only.

    Columns are root translation, root orientation, object translation,
    object orientation; the object rides slightly ahead of the root.  Tracks
    are memoized (at most ``TRACK_MEMO_SIZE``, least recently used first out)
    and shared between callers, so a sampling run builds each one once; copy
    before writing.  The sign of a zero heading is part of the key, since it
    reaches the track's bytes.
    """
    return _walk_track(num_waypoints, heading, math.copysign(1.0, heading))


@functools.lru_cache(maxsize=TRACK_MEMO_SIZE)
def _walk_track(num_waypoints: int, heading: float, _sign: float) -> np.ndarray:
    steps = np.arange(num_waypoints, dtype=np.float64)
    cos, sin = np.cos(heading), np.sin(heading)
    track = np.zeros((num_waypoints, 12))
    track[:, 0] = WALK_SPEED * steps * sin
    track[:, 1] = 0.9
    track[:, 2] = WALK_SPEED * steps * cos
    track[:, 4] = heading
    carry = np.array([0.3, -0.1, 0.4])
    track[:, 6] = track[:, 0] + carry[0] * cos + carry[2] * sin
    track[:, 7] = track[:, 1] + carry[1]
    track[:, 8] = track[:, 2] - carry[0] * sin + carry[2] * cos
    track.setflags(write=False)
    return track


def toy_walk_denoiser(w_t: np.ndarray, t: int, condition: Condition) -> np.ndarray:
    """Clean-sample predictor pulling a noisy waypoint track toward a walk.

    This is a ``ddim.DenoiserFn``, handed to the sampler as it is.  The
    condition's ``text`` slot, when present, is read as a heading in radians;
    a ``coarse`` track from a first sampling pass is blended into the walk
    mean.  The prediction is :func:`ddim.gaussian_posterior_denoiser` around
    the heading-dependent track with spread ``WALK_SIGMA``, so sampling stays
    deterministic per seed while varying smoothly with the guidance scale.
    """
    heading = 0.0 if condition.text is None else float(condition.text)
    # sized from the noisy input so strided coarse passes work too
    mean = toy_walk_track(w_t.shape[0], heading)
    if condition.coarse is not None:
        mean = 0.5 * (mean + np.asarray(condition.coarse, dtype=np.float64))
    return gaussian_posterior_denoiser(w_t, t, mean, WALK_SIGMA)
