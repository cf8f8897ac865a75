import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motok import metrics
from motok.metrics import (
    DIVERSITY_PAIRS,
    GaussianStats,
    MetricError,
    _distractor_pools,
    _paired_distances,
    diversity,
    fit_gaussian,
    frechet_distance,
    multimodal_distance,
    r_precision,
)
from conftest import rodrigues


class TestGaussianStats:
    def test_fit_matches_numpy_unbiased(self, rng):
        feats = rng.normal(size=(40, 5))
        stats = fit_gaussian(feats)
        np.testing.assert_allclose(stats.mean, feats.mean(axis=0))
        np.testing.assert_allclose(stats.covariance, np.cov(feats, rowvar=False),
                                   atol=1e-12)

    def test_requires_two_rows(self):
        with pytest.raises(MetricError):
            fit_gaussian(np.zeros((1, 3)))

    def test_rejects_asymmetric_covariance(self):
        cov = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(MetricError):
            GaussianStats(mean=np.zeros(2), covariance=cov)

    def test_rejects_asymmetric_covariance_at_small_scale(self):
        cov = np.array([[1.0, 0.5], [0.2, 1.0]]) * 2.0**-40
        with pytest.raises(MetricError, match="not symmetric"):
            GaussianStats(mean=np.zeros(2), covariance=cov)

    @pytest.mark.parametrize("seed", range(20))
    def test_accepts_rotated_covariance_at_large_scale(self, seed):
        rng = np.random.default_rng(seed)
        stats = fit_gaussian(rng.normal(size=(300, 40)) * 1e4)
        rot, _ = np.linalg.qr(rng.normal(size=(40, 40)))
        GaussianStats(rot @ stats.mean, rot @ stats.covariance @ rot.T)


def _reference_psd_sqrt(matrix):
    vals, vecs = np.linalg.eigh(0.5 * (matrix + matrix.T))
    vals = np.where(vals < 1e-10, 0.0, vals)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _reference_frechet_distance(a, b):
    """The eigendecomposition route ``frechet_distance`` replaced, with its absolute tolerances."""
    if a.mean.shape != b.mean.shape:
        raise MetricError(f"dimension mismatch: {a.mean.shape} vs {b.mean.shape}")
    diff = a.mean - b.mean
    root_a = _reference_psd_sqrt(a.covariance)
    inner = root_a @ b.covariance @ root_a
    vals = np.linalg.eigvalsh(0.5 * (inner + inner.T))
    tr_cross = np.sqrt(np.where(vals < 1e-10, 0.0, vals)).sum()
    fid = float(diff @ diff + np.trace(a.covariance) + np.trace(b.covariance) - 2.0 * tr_cross)
    if fid < -1e-6:
        raise MetricError(f"Fréchet distance collapsed to {fid}; statistics are inconsistent")
    return max(fid, 0.0)


def _trace_sum(a, b):
    return np.trace(a.covariance) + np.trace(b.covariance)


def _singular_pairs(seed):
    """Feature pairs, by name, whose covariance S_a or S_b is singular."""
    rng = np.random.default_rng(seed)
    few_rows = rng.normal(size=(40, 64))
    constant = rng.normal(size=(100, 12))
    constant[:, 3] = 2.5
    return {
        "a_rows_le_features": (few_rows, rng.normal(size=(50, 64)) * 1.3 + 0.2),
        "a_constant_column": (constant, rng.normal(size=(90, 12))),
        "a_singular_identical": (few_rows, few_rows),
        "b_rows_le_features": (rng.normal(size=(100, 30)), rng.normal(size=(20, 30))),
    }


def _well_conditioned_pair(seed, rows=200, dim=20):
    rng = np.random.default_rng(seed)
    return (fit_gaussian(rng.normal(size=(rows, dim))),
            fit_gaussian(rng.normal(size=(rows - 30, dim)) * 0.7 + 0.1))


class TestFrechetDistance:
    def test_identical_stats_zero(self, rng):
        stats = fit_gaussian(rng.normal(size=(30, 4)))
        assert frechet_distance(stats, stats) == pytest.approx(0.0, abs=1e-8)

    def test_mean_shift_only(self, rng):
        cov = np.eye(3) * 0.7
        shift = np.array([1.0, -2.0, 0.5])
        a = GaussianStats(np.zeros(3), cov)
        b = GaussianStats(shift, cov.copy())
        assert frechet_distance(a, b) == pytest.approx(shift @ shift, abs=1e-8)

    def test_commuting_diagonal_closed_form(self):
        a = GaussianStats(np.zeros(2), np.eye(2))
        b = GaussianStats(np.zeros(2), 4.0 * np.eye(2))
        # 2 * (1 + 4 - 2 * 2) = 2
        assert frechet_distance(a, b) == pytest.approx(2.0, abs=1e-8)

    def test_symmetric_in_arguments(self, rng):
        a = fit_gaussian(rng.normal(size=(50, 6)))
        b = fit_gaussian(rng.normal(size=(60, 6)) * 1.5 + 0.3)
        assert frechet_distance(a, b) == pytest.approx(frechet_distance(b, a), abs=1e-8)

    def test_invariant_under_common_rotation(self, rng):
        a = fit_gaussian(rng.normal(size=(80, 3)))
        b = fit_gaussian(rng.normal(size=(70, 3)) * 0.5 + 1.0)
        rot = rodrigues(rng.normal(size=3))
        a_rot = GaussianStats(rot @ a.mean, rot @ a.covariance @ rot.T)
        b_rot = GaussianStats(rot @ b.mean, rot @ b.covariance @ rot.T)
        assert frechet_distance(a_rot, b_rot) == pytest.approx(
            frechet_distance(a, b), abs=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(MetricError):
            frechet_distance(GaussianStats(np.zeros(2), np.eye(2)),
                             GaussianStats(np.zeros(3), np.eye(3)))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_eigendecomposition_reference(self, seed):
        a, b = _well_conditioned_pair(seed)
        assert frechet_distance(a, b) == pytest.approx(_reference_frechet_distance(a, b),
                                                       rel=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_sqrtm_oracle(self, seed):
        sqrtm = pytest.importorskip("scipy.linalg").sqrtm
        a, b = _well_conditioned_pair(seed)
        diff = a.mean - b.mean
        oracle = (diff @ diff + _trace_sum(a, b)
                  - 2.0 * np.trace(sqrtm(a.covariance @ b.covariance)).real)
        assert frechet_distance(a, b) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", list(_singular_pairs(0)))
    def test_singular_covariance_matches_reference(self, seed, case):
        feats_a, feats_b = _singular_pairs(seed)[case]
        a, b = fit_gaussian(feats_a), fit_gaussian(feats_b)
        assert abs(frechet_distance(a, b) - _reference_frechet_distance(a, b)) <= (
            1e-6 * _trace_sum(a, b))

    @pytest.mark.parametrize("case", ["a_rows_le_features", "a_constant_column"])
    def test_singular_first_covariance_takes_eigendecomposition(self, monkeypatch, case):
        calls = []
        monkeypatch.setattr(metrics, "_psd_sqrt",
                            lambda matrix: calls.append(matrix) or _reference_psd_sqrt(matrix))
        feats_a, feats_b = _singular_pairs(0)[case]
        frechet_distance(fit_gaussian(feats_a), fit_gaussian(feats_b))
        assert len(calls) == 1

    @pytest.mark.parametrize("case", ["b_rows_le_features", "well_conditioned"])
    def test_positive_definite_first_covariance_skips_eigendecomposition(self, monkeypatch,
                                                                         case):
        def refuse(matrix):
            raise AssertionError("_psd_sqrt called on a positive definite S_a")

        monkeypatch.setattr(metrics, "_psd_sqrt", refuse)
        if case == "well_conditioned":
            a, b = _well_conditioned_pair(0)
        else:
            a, b = (fit_gaussian(f) for f in _singular_pairs(0)[case])
        frechet_distance(a, b)

    @pytest.mark.parametrize("same", [True, False], ids=["identical", "different"])
    @pytest.mark.parametrize("scale", [2.0**-20, 1.0, 2.0**14], ids=["2^-20", "1", "2^14"])
    def test_scales_with_square_of_features(self, scale, same):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(300, 40))
        y = x if same else rng.normal(size=(250, 40)) * 1.2 + 0.1
        a, b = fit_gaussian(x), fit_gaussian(y)
        scaled = frechet_distance(fit_gaussian(scale * x), fit_gaussian(scale * y))
        assert scaled == pytest.approx(scale**2 * frechet_distance(a, b), rel=1e-12,
                                       abs=1e-12 * scale**2 * _trace_sum(a, b))

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("scale", [1e4, 1e6])
    def test_identical_large_scale_stats_do_not_collapse(self, scale, seed):
        stats = fit_gaussian(np.random.default_rng(seed).normal(size=(300, 40)) * scale)
        assert frechet_distance(stats, stats) <= 1e-12 * _trace_sum(stats, stats)

    @pytest.mark.parametrize("seed", range(5))
    def test_identical_stats_spanning_seven_decades_near_zero(self, seed):
        # true eigenvalues down to 1e-14 of the largest are no rounding noise
        feats = np.random.default_rng(seed).normal(size=(500, 20)) * np.logspace(0, -7, 20)
        stats = fit_gaussian(feats)
        assert frechet_distance(stats, stats) <= 1e-6 * np.trace(stats.covariance)


def _reference_pools(n, pool_size, seed):
    """Floyd's algorithm row by row with a Python set, fed the draws of ``_distractor_pools``."""
    rng = np.random.default_rng(seed)
    passes = range(n - pool_size, n - 1)
    draws = [rng.integers(j + 1, size=n) for j in passes]
    pools = []
    for i in range(n):
        chosen, seen = [], set()
        for j, draw in zip(passes, draws):
            pick = j if int(draw[i]) in seen else int(draw[i])
            seen.add(pick)
            chosen.append(pick if pick < i else pick + 1)
        pools.append(chosen)
    return pools


def _reference_r_precision(motion_feats, text_feats, pool_size=32, k=1, seed=0):
    """The per-k loop ``r_precision`` replaced: redraws every pool for one k."""
    m = np.asarray(motion_feats, dtype=np.float64)
    t = np.asarray(text_feats, dtype=np.float64)
    if m.ndim != 2 or t.ndim != 2 or m.shape != t.shape:
        raise MetricError(f"aligned (N, F) matrices required, got {m.shape} and {t.shape}")
    n = m.shape[0]
    if n < pool_size:
        raise MetricError(f"need at least pool_size={pool_size} rows, got {n}")
    if not 1 <= k <= pool_size:
        raise MetricError(f"k must be in [1, {pool_size}], got {k}")
    hits = 0
    for i, others in enumerate(_reference_pools(n, pool_size, seed)):
        # true and distractor distances from one reduction, so equal texts tie exactly
        dist = np.linalg.norm(t[[i, *others]] - m[i], axis=1)
        if (dist[1:] < dist[0]).sum() < k:
            hits += 1
    return hits / n


POOL_SHAPES = [(40, 10), (80, 32), (32, 32), (7, 1), (1, 1)]


class TestDistractorPools:
    @pytest.mark.parametrize("n, pool_size", POOL_SHAPES)
    def test_distinct_and_exclude_the_query(self, n, pool_size):
        for seed in range(5):
            pools = _distractor_pools(n, pool_size, seed)
            assert pools.shape == (n, pool_size - 1)
            for i, row in enumerate(pools.tolist()):
                assert len(set(row)) == pool_size - 1
                assert set(row) <= set(range(n)) - {i}

    @pytest.mark.parametrize("n, pool_size", POOL_SHAPES)
    def test_equal_a_scalar_floyd_loop(self, n, pool_size):
        for seed in range(5):
            assert _distractor_pools(n, pool_size, seed).tolist() == _reference_pools(
                n, pool_size, seed)

    def test_index_frequencies_are_flat(self):
        n, pool_size, seeds = 40, 10, 300
        counts = np.zeros(n)
        for seed in range(seeds):
            counts += np.bincount(_distractor_pools(n, pool_size, seed).ravel(), minlength=n)
        expected = seeds * (pool_size - 1)
        chi_square = ((counts - expected) ** 2 / expected).sum()
        # 96.1 is the 1e-6 upper tail of chi-square with n - 1 = 39 degrees of freedom
        assert chi_square < 96.1


@st.composite
def retrieval_sets(draw):
    """Integer-valued features with repeated rows, so that exact distance ties occur."""
    pool_size = draw(st.integers(1, 32))
    n = draw(st.one_of(st.just(pool_size), st.integers(pool_size, 80)))
    dim = draw(st.integers(1, 6))
    source = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.integers(1, 6))
    values = source.integers(-2, 3, size=(distinct, dim)).astype(np.float64)
    motion = values[source.integers(0, distinct, size=n)]
    text = values[source.integers(0, distinct, size=n)]
    return motion, text, pool_size, draw(st.integers(0, 2**32 - 1))


#: a float32 whose square lies halfway between two float32s
_HALFWAY = 1.0 + 2.0**-12
#: a float64 that casts down to _HALFWAY by almost a full float32 unit roundoff, so
#: that the casts and the product of its float32 dot product with itself all round
#: the same way: the float32 filter's worst case in one feature
_EDGE = _HALFWAY + 2.0**-24 * (1.0 - 2.0**-20)
#: feature values: integers (exact ties), the worst case and a text 1e-4 from it
_PALETTE = np.array([-2.0, -1.0, 0.0, 1.0, 2.0, _HALFWAY, _EDGE, _EDGE + 1e-4])
#: feature scales: +-1, and past float32's range both ways but within float64's
_SCALES = [1.0, -1.0, 2.0**120, 2.0**-120, 1e40, 1e-40, 1e20, -1e20]


@st.composite
def filter_edge_sets(draw):
    """Features at the edges of ``r_precision``'s float32 filter: ties from duplicate
    and mirrored texts, one-ulp perturbations, worst-case float32 rounding, scales
    past float32's range, and NaN or inf entries."""
    pool_size = draw(st.integers(1, 8))
    n = draw(st.integers(pool_size, 16))
    dim = draw(st.sampled_from([1, 1, 2, 3]))
    source = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = _PALETTE[source.integers(0, _PALETTE.size, size=(draw(st.integers(1, 5)), dim))]
    motion = rows[source.integers(0, len(rows), size=n)]
    text = rows[source.integers(0, len(rows), size=n)]
    mirrored = source.random(n) < draw(st.sampled_from([0.0, 0.3]))
    pair = source.integers(0, n, size=n)
    # 2 m - t is as far from m as t is (exactly so for the integer values)
    text[mirrored] = 2.0 * motion[pair[mirrored]] - text[pair[mirrored]]
    nudged = source.random((n, dim)) < draw(st.sampled_from([0.0, 0.2]))
    text[nudged] = np.nextafter(text[nudged], source.choice([-np.inf, np.inf], nudged.sum()))
    scale = draw(st.sampled_from(_SCALES))
    motion, text = motion * scale, text * scale
    if draw(st.booleans()):
        feats = draw(st.sampled_from([motion, text]))
        feats[source.integers(n), source.integers(dim)] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    return motion, text, pool_size, draw(st.integers(0, 2**32 - 1))


class TestRPrecision:
    def test_identical_features_perfect_top1(self, rng):
        feats = rng.normal(size=(64, 8))
        assert r_precision(feats, feats, pool_size=32, top_k=1, seed=0)[0] == 1.0

    def test_text_equal_to_the_true_text_ties(self, rng):
        motion = rng.normal(size=(64, 227))
        text = np.tile(rng.normal(size=227), (64, 1))
        assert r_precision(motion, text, pool_size=32, top_k=3, seed=0) == [1.0, 1.0, 1.0]

    def test_chance_level_on_independent_features(self, rng):
        n = 1024
        motion = rng.normal(size=(n, 6))
        text = rng.normal(size=(n, 6))
        top1 = r_precision(motion, text, pool_size=32, top_k=1, seed=0)[0]
        p = 1.0 / 32
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(top1 - p) < 3 * sigma

    def test_monotone_in_k(self, rng):
        motion = rng.normal(size=(100, 4))
        text = motion + rng.normal(0, 0.8, size=(100, 4))
        acc = r_precision(motion, text, pool_size=32, top_k=3, seed=3)
        assert acc[0] <= acc[1] <= acc[2]

    def test_requires_pool_size_rows(self, rng):
        feats = rng.normal(size=(10, 4))
        with pytest.raises(MetricError):
            r_precision(feats, feats, pool_size=32, top_k=3, seed=0)

    def test_deterministic_per_seed(self, rng):
        motion = rng.normal(size=(64, 4))
        text = rng.normal(size=(64, 4))
        a = r_precision(motion, text, pool_size=32, top_k=3, seed=7)
        b = r_precision(motion, text, pool_size=32, top_k=3, seed=7)
        assert a == b

    @pytest.mark.parametrize("top_k", [0, -1, 5])
    def test_top_k_outside_pool_rejected(self, rng, top_k):
        feats = rng.normal(size=(10, 3))
        with pytest.raises(MetricError):
            r_precision(feats, feats, pool_size=4, top_k=top_k, seed=0)

    def test_matches_reference_on_eval_sized_features(self, rng):
        # text noise of the benchmark's eval inputs: r1..r3 near 0.5 / 0.7 / 0.75,
        # so a wrong pool moves them (at a noise of 1 every pool scores 1.0)
        motion = rng.normal(size=(300, 227))
        text = motion + rng.normal(0, 3.0, size=(300, 227))
        expected = [_reference_r_precision(motion, text, pool_size=32, k=k, seed=5)
                    for k in (1, 2, 3)]
        assert r_precision(motion, text, pool_size=32, top_k=3, seed=5) == expected

    @settings(max_examples=150, deadline=None)
    @given(retrieval_sets())
    def test_matches_reference_for_every_k(self, case):
        motion, text, pool_size, seed = case
        got = r_precision(motion, text, pool_size=pool_size, top_k=pool_size, seed=seed)
        expected = [_reference_r_precision(motion, text, pool_size=pool_size, k=k, seed=seed)
                    for k in range(1, pool_size + 1)]
        assert got == expected
        assert all(type(value) is float for value in got)

    @settings(max_examples=400, deadline=None)
    @given(filter_edge_sets())
    def test_float32_filter_matches_reference_at_its_edges(self, case):
        motion, text, pool_size, seed = case
        # the float64 distances of non-finite features warn in both
        with np.errstate(over="ignore", invalid="ignore"):
            got = r_precision(motion, text, pool_size=pool_size, top_k=pool_size, seed=seed)
            expected = [_reference_r_precision(motion, text, pool_size=pool_size, k=k,
                                               seed=seed) for k in range(1, pool_size + 1)]
        assert got == expected


class TestPairedDistances:
    @pytest.mark.parametrize("dim", [1, 7, 227, 1000])
    @pytest.mark.parametrize("exponent", [-500, -120, -20, 0, 20, 120, 500])
    def test_bits_of_linalg_norm(self, rng, exponent, dim):
        a = rng.normal(size=(64, dim)) * 2.0**exponent
        b = rng.normal(size=(64, dim)) * 2.0**exponent
        np.testing.assert_array_equal(_paired_distances(a, b), np.linalg.norm(a - b, axis=1))

    @pytest.mark.parametrize("rows, dim", [(1000, 227), (5000, 1), (3, 40000), (0, 5), (4, 0)])
    def test_bits_of_linalg_norm_over_many_blocks(self, rng, rows, dim):
        a, b = rng.normal(size=(rows, dim)), rng.normal(size=(rows, dim))
        np.testing.assert_array_equal(_paired_distances(a, b), np.linalg.norm(a - b, axis=1))


class TestMultimodalDistance:
    def test_identical_pairs_zero(self, rng):
        feats = rng.normal(size=(20, 5))
        assert multimodal_distance(feats, feats) == 0.0

    def test_constant_distance(self):
        motion = np.zeros((7, 3))
        text = np.tile([2.0, 0.0, 0.0], (7, 1))
        assert multimodal_distance(motion, text) == pytest.approx(2.0)

    def test_matches_loop_oracle(self, rng):
        motion = rng.normal(size=(15, 6))
        text = rng.normal(size=(15, 6))
        got = multimodal_distance(motion, text)
        total = 0.0
        for i in range(15):
            sq = 0.0
            for j in range(6):
                sq += (motion[i, j] - text[i, j]) ** 2
            total += np.sqrt(sq)
        assert got == pytest.approx(total / 15, abs=1e-10)

    def test_row_mismatch(self, rng):
        with pytest.raises(MetricError):
            multimodal_distance(rng.normal(size=(4, 3)), rng.normal(size=(5, 3)))


class TestDiversity:
    def test_identical_features_zero(self):
        feats = np.tile([1.0, 2.0], (900, 1))
        assert diversity(feats, seed=0) == 0.0

    def test_two_balanced_clusters(self, rng):
        n = 2000
        feats = np.zeros((n, 3))
        feats[n // 2:, 0] = 10.0
        feats[:, 1:] = rng.normal(0, 1e-9, size=(n, 2))
        value = diversity(feats, seed=1)
        # cross-cluster pairs (probability 1/2) contribute 10, others 0
        assert abs(value - 5.0) < 1.0

    def test_deterministic_per_seed(self, rng):
        feats = rng.normal(size=(800, 4))
        assert diversity(feats, seed=5) == diversity(feats, seed=5)

    def test_small_sets_warn_and_sample_with_replacement(self, rng):
        feats = rng.normal(size=(10, 3))
        with pytest.warns(UserWarning):
            value = diversity(feats, seed=2)
        assert value > 0.0

    @pytest.mark.parametrize("n", [2, 10, 2 * DIVERSITY_PAIRS - 1])
    def test_small_set_pairs_are_distinct_rows(self, n):
        # one-hot rows: distinct rows are sqrt(2) apart, a row is 0 from itself
        with pytest.warns(UserWarning):
            value = diversity(np.eye(n), seed=3)
        assert value == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_small_set_matches_loop_over_the_same_draws(self, rng):
        feats = rng.normal(size=(64, 5))
        with pytest.warns(UserWarning):
            got = diversity(feats, seed=4)
        draws = np.random.default_rng(4)
        first = draws.integers(64, size=DIVERSITY_PAIRS)
        second = draws.integers(63, size=DIVERSITY_PAIRS)
        total = 0.0
        for a, b in zip(first, second):
            total += np.linalg.norm(feats[a] - feats[b + (b >= a)])
        assert got == pytest.approx(total / DIVERSITY_PAIRS, abs=1e-10)

    def test_needs_two_rows(self):
        with pytest.raises(MetricError):
            diversity(np.zeros((1, 3)), seed=0)

    @pytest.mark.parametrize("n", [600, 1000, 64])
    @pytest.mark.parametrize("dim", [227, 3])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.filterwarnings("ignore:only 64 rows:UserWarning")
    def test_bits_of_the_whole_pair_gather(self, rng, n, dim, seed):
        # the expression diversity reduced before it gathered its pairs block
        # by block: both sides' rows copied whole, then one _paired_distances
        feats = rng.normal(size=(n, dim))
        draws = np.random.default_rng(seed)
        if n >= 2 * DIVERSITY_PAIRS:
            chosen = draws.permutation(n)[: 2 * DIVERSITY_PAIRS]
            first, second = chosen[:DIVERSITY_PAIRS], chosen[DIVERSITY_PAIRS:]
        else:
            first = draws.integers(n, size=DIVERSITY_PAIRS)
            second = draws.integers(n - 1, size=DIVERSITY_PAIRS)
            second += second >= first
        expected = float(_paired_distances(feats[first], feats[second]).mean())
        assert np.float64(diversity(feats, seed)).tobytes() == np.float64(expected).tobytes()

