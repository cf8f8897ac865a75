"""Distribution-level generation metrics over feature vectors.

All metrics operate on caller-supplied feature matrices; nothing here knows
about text or learned encoders.  A deterministic handcrafted motion feature
extractor is included so the metrics can be exercised end to end.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .motion import MotionSequence, ROOT_POS

#: per-channel mean, std, mean |velocity| (75 each) + root path length + mean root speed
FEATURE_DIM = 3 * 75 + 2
#: random pairs :func:`diversity` averages over by default
DIVERSITY_PAIRS = 300


class MetricError(ValueError):
    """Raised for shape mismatches or degenerate statistics."""


@dataclass(frozen=True)
class GaussianStats:
    """Mean and covariance summarizing one feature distribution."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1).copy()
        cov = np.asarray(self.covariance, dtype=np.float64).copy()
        if cov.shape != (mean.size, mean.size):
            raise MetricError(f"covariance shape {cov.shape} does not match mean {mean.shape}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise MetricError("non-finite Gaussian statistics")
        if np.abs(cov - cov.T).max() > 1e-10:
            raise MetricError("covariance is not symmetric")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)


def fit_gaussian(features: np.ndarray) -> GaussianStats:
    """Sample mean and unbiased covariance of an (N, F) matrix, N >= 2."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 2:
        raise MetricError(f"need at least 2 rows to fit a Gaussian, got {feats.shape}")
    mean = feats.mean(axis=0)
    centered = feats - mean
    cov = centered.T @ centered / (feats.shape[0] - 1)
    return GaussianStats(mean=mean, covariance=0.5 * (cov + cov.T))


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (matrix + matrix.T))
    vals = np.where(vals < 1e-10, 0.0, vals)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet_distance(a: GaussianStats, b: GaussianStats) -> float:
    """Fréchet distance between two Gaussians:

    ||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_a S_b)^(1/2)).

    The cross square root is evaluated by eigendecomposition of the
    symmetrized product sqrt(S_a) S_b sqrt(S_a); tiny negative results from
    rounding are clipped to zero.
    """
    if a.mean.shape != b.mean.shape:
        raise MetricError(f"dimension mismatch: {a.mean.shape} vs {b.mean.shape}")
    diff = a.mean - b.mean
    root_a = _psd_sqrt(a.covariance)
    inner = root_a @ b.covariance @ root_a
    vals = np.linalg.eigvalsh(0.5 * (inner + inner.T))
    tr_cross = np.sqrt(np.where(vals < 1e-10, 0.0, vals)).sum()
    fid = float(diff @ diff + np.trace(a.covariance) + np.trace(b.covariance) - 2.0 * tr_cross)
    if fid < -1e-6:
        raise MetricError(f"Fréchet distance collapsed to {fid}; statistics are inconsistent")
    return max(fid, 0.0)


def _check_aligned(motion_feats: np.ndarray, text_feats: np.ndarray):
    m = np.asarray(motion_feats, dtype=np.float64)
    t = np.asarray(text_feats, dtype=np.float64)
    if m.ndim != 2 or t.ndim != 2 or m.shape != t.shape:
        raise MetricError(f"aligned (N, F) matrices required, got {m.shape} and {t.shape}")
    return m, t


def r_precision(
    motion_feats: np.ndarray,
    text_feats: np.ndarray,
    pool_size: int = 32,
    k: int = 1,
    seed: int = 0,
) -> float:
    """Top-k retrieval accuracy of each motion against its paired text.

    Every query motion ranks its true text inside a pool of one true plus
    ``pool_size - 1`` seeded random distractor texts by Euclidean distance;
    the true text counts as retrieved when fewer than ``k`` distractors are
    strictly closer.  Pools depend only on (N, pool_size, seed), so accuracy
    at increasing k is computed over identical pools and is non-decreasing.
    """
    m, t = _check_aligned(motion_feats, text_feats)
    n = m.shape[0]
    if n < pool_size:
        raise MetricError(f"need at least pool_size={pool_size} rows, got {n}")
    if not 1 <= k <= pool_size:
        raise MetricError(f"k must be in [1, {pool_size}], got {k}")
    rng = np.random.default_rng(seed)
    hits = 0
    for i in range(n):
        others = rng.permutation(n - 1)[: pool_size - 1]
        others = np.where(others >= i, others + 1, others)
        true_dist = np.linalg.norm(m[i] - t[i])
        distractor_dist = np.linalg.norm(t[others] - m[i], axis=1)
        if (distractor_dist < true_dist).sum() < k:
            hits += 1
    return hits / n


def multimodal_distance(motion_feats: np.ndarray, text_feats: np.ndarray) -> float:
    """Mean Euclidean distance between paired motion and text features."""
    m, t = _check_aligned(motion_feats, text_feats)
    return float(np.linalg.norm(m - t, axis=1).mean())


def diversity_with_replacement(num_rows: int, num_pairs: int = DIVERSITY_PAIRS) -> bool:
    """Whether :func:`diversity` over ``num_rows`` rows samples pairs with replacement."""
    return num_rows < 2 * num_pairs


def diversity(feats: np.ndarray, num_pairs: int = DIVERSITY_PAIRS, seed: int = 0) -> float:
    """Mean distance over seeded random pairs of distinct feature rows.

    With at least 2 * num_pairs rows the pairs are disjoint; smaller sets
    fall back to sampling pairs with replacement (and warn).
    """
    f = np.asarray(feats, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] < 2:
        raise MetricError(f"need at least 2 feature rows, got {f.shape}")
    n = f.shape[0]
    rng = np.random.default_rng(seed)
    if not diversity_with_replacement(n, num_pairs):
        chosen = rng.permutation(n)[: 2 * num_pairs]
        first, second = chosen[:num_pairs], chosen[num_pairs:]
    else:
        warnings.warn(
            f"only {n} rows for {num_pairs} diversity pairs; sampling with replacement",
            stacklevel=2,
        )
        pairs = np.array([rng.choice(n, size=2, replace=False) for _ in range(num_pairs)])
        first, second = pairs[:, 0], pairs[:, 1]
    return float(np.linalg.norm(f[first] - f[second], axis=1).mean())


def handcrafted_motion_features(seq: MotionSequence) -> np.ndarray:
    """Deterministic summary statistics of a global motion sequence.

    Layout (FEATURE_DIM = 227): per-channel mean (75), per-channel population
    std (75), per-channel mean absolute velocity (75), root path length, and
    mean root speed.  Velocity features divide total variation by the clip
    duration T/fps, so duplicating every frame at doubled fps leaves the
    vector unchanged.
    """
    if seq.is_canonical:
        raise MetricError("handcrafted features expect a global sequence")
    frames = seq.frames
    duration = frames.shape[0] / seq.fps
    mean = frames.mean(axis=0)
    std = frames.std(axis=0)
    if frames.shape[0] > 1:
        steps = np.diff(frames, axis=0)
        velocity = np.abs(steps).sum(axis=0) / duration
        path_length = np.linalg.norm(steps[:, ROOT_POS], axis=1).sum()
    else:
        velocity = np.zeros(frames.shape[1])
        path_length = 0.0
    return np.concatenate([mean, std, velocity, [path_length, path_length / duration]])
