"""Distribution-level generation metrics over feature vectors.

All metrics operate on caller-supplied feature matrices; nothing here knows
about text or learned encoders.  R-precision is one pass: each query row
gets one seeded retrieval pool, scored once, and the call returns the
accuracy for every k up to ``top_k``.  It ranks the pool by a float32
filter with a rigorous error bound and recomputes in float64 only the
pairs the bound cannot decide, so its results are those of the float64
distances, bit for bit.  Every paired Euclidean distance in this module is
one reduction, :func:`_paired_distances`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: disjoint pairs :func:`diversity` averages over, or n // 2 for n rows below twice this
DIVERSITY_PAIRS = 300
#: query rows per block of :func:`r_precision`: a block gathers its distractor texts,
#: (rows, pool - 1, F), in float32 for the filter or in float64 for the pairs the
#: filter leaves undecided, 450 or 900 KB at pool 32, F=227
_R_PRECISION_BLOCK = 16
#: values per block of :func:`_paired_distances`, 256 KB: at N=1000, F=227 one whole
#: (N, F) temporary took 0.55-0.57 ms, blocks of 2^15 values 0.44-0.46 ms, and blocks of
#: 2^16 or 2^17 values 0.47-0.53 ms (interleaved medians, 2 vCPUs, numpy 2.4.6)
_PAIRED_BLOCK_VALUES = 2**15
#: unit roundoff of float32, the precision of :func:`r_precision`'s filter
_FLOAT32_ROUNDOFF = 2.0**-24
#: tolerances relative to the covariances' magnitude: asymmetry against the largest
#: entry, a negative Fréchet distance against the two traces
_SYMMETRY_RTOL = 1e-10
_COLLAPSE_RTOL = 1e-6
#: eigenvalue rounding noise against the largest eigenvalue, per row of the matrix:
#: a symmetric eigensolver's error on an F x F matrix is about F eps times the
#: largest eigenvalue, eps = 2^-52.  A fixed 1e-10 would drop true eigenvalues of
#: covariances that span many decades, and two identical such sets read 1.3e-5 of tr S
_EIGENVALUE_RTOL = 2.0**-52


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
        if np.abs(cov - cov.T).max() > _SYMMETRY_RTOL * np.abs(cov).max():
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


def _drop_noise(vals: np.ndarray) -> np.ndarray:
    """Zero the eigenvalues of an F x F PSD spectrum below F ``_EIGENVALUE_RTOL`` of its largest."""
    return np.where(vals < vals.size * _EIGENVALUE_RTOL * max(vals.max(), 0.0), 0.0, vals)


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (matrix + matrix.T))
    return (vecs * np.sqrt(_drop_noise(vals))) @ vecs.T


def frechet_distance(a: GaussianStats, b: GaussianStats) -> float:
    """Fréchet distance between two Gaussians:

    ||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_a S_b)^(1/2)).

    With the Cholesky factor S_a = L L^T, S_a S_b = L (L^T S_b L) L^-1 has
    the eigenvalues of the symmetric PSD matrix L^T S_b L, so
    tr (S_a S_b)^(1/2) is the sum of the square roots of its eigenvalues:
    one factorization and one ``eigvalsh``.  Only an S_a that is not
    positive definite (N <= F rows, or a constant feature column), where
    Cholesky fails, is eigendecomposed instead, and its symmetric square
    root takes the place of L.  Eigenvalues below F eps of the largest
    (F the feature count, eps = 2^-52) are rounding noise and count as
    zero, and a negative result down to -1e-6 (tr S_a + tr S_b) reads as 0:
    every tolerance follows the scale of the covariances, so features scaled
    by c give c^2 times the distance.
    """
    if a.mean.shape != b.mean.shape:
        raise MetricError(f"dimension mismatch: {a.mean.shape} vs {b.mean.shape}")
    diff = a.mean - b.mean
    try:
        factor = np.linalg.cholesky(a.covariance)
    except np.linalg.LinAlgError:
        factor = _psd_sqrt(a.covariance)
    inner = factor.T @ b.covariance @ factor
    vals = np.linalg.eigvalsh(0.5 * (inner + inner.T))
    tr_cross = np.sqrt(_drop_noise(vals)).sum()
    tr_a, tr_b = np.trace(a.covariance), np.trace(b.covariance)
    fid = float(diff @ diff + tr_a + tr_b - 2.0 * tr_cross)
    if fid < -_COLLAPSE_RTOL * (abs(tr_a) + abs(tr_b)):
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
    draws, run for all rows in lockstep: the pass for j = n - pool_size ..
    n - 2 draws one integer in [0, j] per row and takes j instead where the
    row already holds the draw.  The picks are stored column-major, one
    contiguous (n,) row per pass, so a pass compares its draw with every
    earlier pick of all rows in one ``(cols[:col] == draw).any(axis=0)``
    rather than reducing a short row per query.  Indices at or past the query
    then shift up by one, and the result is the transposed (n, k) view.
    """
    rng = np.random.default_rng(seed)
    cols = np.empty((pool_size - 1, n), dtype=np.intp)
    for col, j in enumerate(range(n - pool_size, n - 1)):
        draw = rng.integers(j + 1, size=n)
        draw[(cols[:col] == draw).any(axis=0)] = j
        cols[col] = draw
    cols += cols >= np.arange(n)
    return cols.T


def _paired_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of ``a`` to the same row of ``b``.

    The bits of ``np.linalg.norm(a - b, axis=1)``: each row's squares are
    summed along the row, as they are in the whole matrix, but a block of
    rows at a time in one reused buffer, so no temporary grows with the rows.
    """
    rows = max(1, _PAIRED_BLOCK_VALUES // max(a.shape[1], 1))
    out = np.empty(a.shape[0])
    gap = np.empty((min(rows, a.shape[0]), a.shape[1]))
    for start in range(0, a.shape[0], rows):
        stop = min(start + rows, a.shape[0])
        block = gap[:stop - start]
        np.subtract(a[start:stop], b[start:stop], out=block)
        block *= block
        block.sum(axis=1, out=out[start:stop])
    return np.sqrt(out, out=out)


def _filter_bound(num_features: int) -> tuple[float, float]:
    """``(rel, floor)``: the float32 filter of :func:`r_precision` is off by at most
    ``rel * Q + floor``.

    For a text row x and a motion row y of F float64 features, the filter's
    approximation A = fl64(fl64(|x|^2 + |y|^2) - 2 dot32(x, y)) and the
    squared sum S of the float64 path satisfy |S - A| <= rel * Q + floor,
    where Q = fl64(|x|^2 + |y|^2), as long as A is finite.  With u = 2^-24
    and v = 2^-53:

    - the casts to float32 and the float32 dot product, in any summation
      order, fused or not, are off by at most ((1 + u)^2 (1 + g) - 1) |x||y|
      with g = F u / (1 - F u) < 1, and 2 |x||y| <= |x|^2 + |y|^2;
    - float32 underflow adds at most (1 + g)(1 + u) 2^-149 (sqrt(F) (|x| + |y|)
      + F (1 + 2^-150)) to twice the dot product's error, and
      |x| + |y| <= sqrt(2 Q) <= 1/2 + Q;
    - the float64 norms and combination, the rounding of the bound itself
      and of A +- bound, and the float64 path's own rounding of S (within
      (F + 2) v (1 + o(1)) of |x - y|^2 <= 2 Q) add less than (3F + 12) v Q.

    So rel = (F + 4) u / (1 - (F + 4) u), whose last u covers the float64
    terms and the underflow that grows with Q, and floor = F 2^-147 covers
    the rest.  Past F = 2^23 - 4 the bound is not claimed, and ``rel`` is inf.
    """
    grown = (num_features + 4) * _FLOAT32_ROUNDOFF
    rel = grown / (1.0 - grown) if grown <= 0.5 else np.inf
    return rel, num_features * 2.0**-147


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
    depend only on (N, pool_size, seed).

    The result is that of float64 distances, :func:`_paired_distances` of
    each pair, compared with ``<``: a distractor text equal to the true text
    ties and is not closer.  Those distances are not all computed.  A
    float32 dot product gives each pair the squared distance
    A = |t|^2 + |m|^2 - 2 t.m with a rigorous bound |S - A| <= B on the
    float64 path's squared sum S (:func:`_filter_bound`).  Since a correctly
    rounded ``sqrt`` is monotone, the pair is closer when sqrt(A + B) < the
    true distance and not closer when sqrt(max(A - B, 0)) >= it, exactly as
    the float64 comparison would find.  Only the pairs neither test decides
    (ties, near ties, and a non-finite A or A + B, such as features beyond
    float32's range) take the float64 path.
    """
    m, t = _check_aligned(motion_feats, text_feats)
    n, num_features = m.shape
    if n < pool_size:
        raise MetricError(f"need at least pool_size={pool_size} rows, got {n}")
    if not 1 <= top_k <= pool_size:
        raise MetricError(f"top_k must be in [1, {pool_size}], got {top_k}")
    # before the pools, so that its (N, F) temporary and the pools are not held at once
    true_dist = _paired_distances(m, t)[:, None]
    others = _distractor_pools(n, pool_size, seed)
    rel, floor = _filter_bound(num_features)
    dot = np.empty((n, pool_size - 1, 1), dtype=np.float32)
    # casts and products past float32's range are inf or NaN here, and undecided below
    with np.errstate(over="ignore", invalid="ignore"):
        text32 = t.astype(np.float32)
        for start in range(0, n, _R_PRECISION_BLOCK):
            rows = slice(start, start + _R_PRECISION_BLOCK)
            np.matmul(text32[others[rows]], m[rows, :, None].astype(np.float32),
                      out=dot[rows])
        del text32
        approx = np.einsum("ij,ij->i", t, t)[others]
        approx += np.einsum("ij,ij->i", m, m)[:, None]
        bound = rel * approx
        bound += floor
        approx -= 2.0 * dot[:, :, 0]
        upper = approx + bound
        lower = np.maximum(approx - bound, 0.0, out=approx)
        closer = np.sqrt(upper) < true_dist
        decided = closer | (np.sqrt(lower) >= true_dist)
    decided &= np.isfinite(upper)
    query, col = np.nonzero(~decided)
    # a block's worth of pairs at a time: where every pair ties, the float64 gather
    # stays one block's size
    chunk = _R_PRECISION_BLOCK * max(pool_size - 1, 1)
    for start in range(0, query.size, chunk):
        q, c = query[start:start + chunk], col[start:start + chunk]
        closer[q, c] = _paired_distances(t[others[q, c]], m[q]) < true_dist[q, 0]
    count = closer.sum(axis=1)
    return [int((count < k).sum()) / n for k in range(1, top_k + 1)]


def multimodal_distance(motion_feats: np.ndarray, text_feats: np.ndarray) -> float:
    """Mean Euclidean distance between paired motion and text features."""
    m, t = _check_aligned(motion_feats, text_feats)
    return float(_paired_distances(m, t).mean())


def diversity(feats: np.ndarray, seed: int) -> float:
    """Mean distance over seeded random disjoint pairs of feature rows.

    One seeded permutation gives ``min(DIVERSITY_PAIRS, n // 2)`` pairs, so no
    row is in two pairs, at every set size.
    """
    f = np.asarray(feats, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] < 2:
        raise MetricError(f"need at least 2 feature rows, got {f.shape}")
    count = min(DIVERSITY_PAIRS, f.shape[0] // 2)
    chosen = np.random.default_rng(seed).permutation(f.shape[0])[: 2 * count]
    first, second = chosen[:count], chosen[count:]
    # gathered one block of pairs at a time, in _paired_distances' row blocks,
    # so no copy of all the pairs' rows is made; each pair's sum is unchanged
    rows = max(1, _PAIRED_BLOCK_VALUES // max(f.shape[1], 1))
    dist = np.empty(count)
    for start in range(0, count, rows):
        pairs = slice(start, start + rows)
        dist[pairs] = _paired_distances(f[first[pairs]], f[second[pairs]])
    return float(dist.mean())
