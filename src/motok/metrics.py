"""Distribution-level generation metrics over feature vectors.

All metrics operate on caller-supplied feature matrices; nothing here knows
about text or learned encoders.  R-precision is one pass: each query row
gets one seeded retrieval pool, scored once, and the call returns the
accuracy for every k up to ``top_k``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

#: random pairs :func:`diversity` averages over
DIVERSITY_PAIRS = 300
#: query rows :func:`r_precision` scores per block
_R_PRECISION_BLOCK = 16


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
    """Sample mean and unbiased covariance of an (N, F) matrix, N >= 2, F >= 1."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 2:
        raise MetricError(f"need at least 2 rows to fit a Gaussian, got {feats.shape}")
    if feats.shape[1] < 1:
        raise MetricError("need at least 1 feature column to fit a Gaussian, got 0")
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


def _distractor_pools(n: int, pool_size: int, seed: int) -> np.ndarray:
    """Seeded (n, pool_size - 1) distractor indices; row i is a uniform subset of range(n) - {i}.

    Floyd's algorithm samples a k = pool_size - 1 subset of range(n - 1) in k
    draws, vectorised over rows: the pass for j = n - pool_size .. n - 2 draws
    one integer in [0, j] per row and takes j instead where the row already
    holds the draw.  Indices at or past the query then shift up by one.
    """
    rng = np.random.default_rng(seed)
    others = np.empty((n, pool_size - 1), dtype=np.intp)
    for col, j in enumerate(range(n - pool_size, n - 1)):
        draw = rng.integers(j + 1, size=n)
        taken = (others[:, :col] == draw[:, None]).any(axis=1)
        others[:, col] = np.where(taken, j, draw)
    others += others >= np.arange(n)[:, None]
    return others


def r_precision(
    motion_feats: np.ndarray,
    text_feats: np.ndarray,
    pool_size: int,
    top_k: int,
    seed: int,
) -> list[float]:
    """Top-k retrieval accuracy of each motion against its paired text, for k = 1..top_k.

    Every query motion ranks its true text inside one pool of the true text
    plus ``pool_size - 1`` seeded random distractor texts, by Euclidean
    distance.  One pass counts, per query, the distractors strictly closer
    than the true text; the true text counts as retrieved at k when fewer
    than k are.  Entry ``k - 1`` of the result is the accuracy at k, so the
    list is non-decreasing.  Each pool is a uniform draw by Floyd's
    algorithm, made for all rows at once (:func:`_distractor_pools`).  Pools
    depend only on (N, pool_size, seed).  True and distractor distances are
    the same last-axis reduction, so a distractor text equal to the true
    text ties and is not closer.
    """
    m, t = _check_aligned(motion_feats, text_feats)
    n = m.shape[0]
    if n < pool_size:
        raise MetricError(f"need at least pool_size={pool_size} rows, got {n}")
    if not 1 <= top_k <= pool_size:
        raise MetricError(f"top_k must be in [1, {pool_size}], got {top_k}")
    others = _distractor_pools(n, pool_size, seed)
    true_dist = np.sqrt(((m - t) ** 2).sum(axis=1))
    closer = np.empty(n, dtype=np.intp)
    # blocks of rows bound the gathered (rows, pool - 1, F) distractors; all N rows
    # at once would be 56 MB at N=1000, F=227
    for start in range(0, n, _R_PRECISION_BLOCK):
        rows = slice(start, start + _R_PRECISION_BLOCK)
        gap = t[others[rows]]
        gap -= m[rows, None, :]
        gap *= gap
        dist = np.sqrt(gap.sum(axis=2))
        closer[rows] = (dist < true_dist[rows, None]).sum(axis=1)
    return [int((closer < k).sum()) / n for k in range(1, top_k + 1)]


def multimodal_distance(motion_feats: np.ndarray, text_feats: np.ndarray) -> float:
    """Mean Euclidean distance between paired motion and text features."""
    m, t = _check_aligned(motion_feats, text_feats)
    return float(np.linalg.norm(m - t, axis=1).mean())


def diversity_with_replacement(num_rows: int) -> bool:
    """Whether :func:`diversity` over ``num_rows`` rows samples pairs with replacement."""
    return num_rows < 2 * DIVERSITY_PAIRS


def diversity(feats: np.ndarray, seed: int) -> float:
    """Mean distance over ``DIVERSITY_PAIRS`` seeded random pairs of distinct feature rows.

    With at least 2 * DIVERSITY_PAIRS rows the pairs are disjoint; smaller
    sets fall back to sampling pairs with replacement (and warn).
    """
    f = np.asarray(feats, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] < 2:
        raise MetricError(f"need at least 2 feature rows, got {f.shape}")
    n = f.shape[0]
    rng = np.random.default_rng(seed)
    if not diversity_with_replacement(n):
        chosen = rng.permutation(n)[: 2 * DIVERSITY_PAIRS]
        first, second = chosen[:DIVERSITY_PAIRS], chosen[DIVERSITY_PAIRS:]
    else:
        warnings.warn(
            f"only {n} rows for {DIVERSITY_PAIRS} diversity pairs; sampling with replacement",
            stacklevel=2,
        )
        first = rng.integers(n, size=DIVERSITY_PAIRS)
        second = rng.integers(n - 1, size=DIVERSITY_PAIRS)
        second += second >= first
    return float(np.linalg.norm(f[first] - f[second], axis=1).mean())

