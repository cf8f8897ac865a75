import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motok import synth
from motok.ddim import (
    ALPHA_BARS,
    COARSE_STRIDE,
    NUM_TRAIN_STEPS,
    Condition,
    SamplerError,
    apply_cfg,
    ddim_sample,
    gaussian_posterior_denoiser,
    inference_steps,
    two_pass_sample,
)

MU = np.array([1.5, -0.7, 0.3, 2.0])


def posterior(mean, sigma):
    """The Gaussian posterior-mean predictor as a sampler denoiser."""
    return lambda w, t, c: gaussian_posterior_denoiser(w, t, mean, sigma)


class TestSchedule:
    def test_betas_strictly_increasing_in_unit_interval(self):
        # beta_t = 1 - ALPHA_BARS[t] / ALPHA_BARS[t - 1], with ALPHA_BARS[-1] := 1
        betas = 1.0 - ALPHA_BARS / np.concatenate([[1.0], ALPHA_BARS[:-1]])
        assert betas.shape == (NUM_TRAIN_STEPS,)
        assert np.all(np.diff(betas) > 0)
        assert betas[0] > 0 and betas[-1] < 1

    def test_alpha_bars_strictly_decreasing(self):
        ab = ALPHA_BARS
        assert np.all(np.diff(ab) < 0)
        assert 0 < ab[-1] and ab[0] <= 1
        assert ab[0] > 0.999  # near 1 at the first step

    def test_alpha_bars_read_only(self):
        with pytest.raises(ValueError):
            ALPHA_BARS[0] = 0.5


class TestSampler:
    def test_constant_denoiser_fixed_point(self):
        target = np.full((6, 2), 3.25)
        for seed in (0, 1, 99):
            out = ddim_sample(lambda w, t, c: target, (6, 2), 20, Condition(), None, seed=seed)
            np.testing.assert_allclose(out, target, atol=1e-6)

    def test_posterior_mean_denoiser_recovers_mean(self):
        # smaller replica of the acceptance check
        den = posterior(MU, 1.0)
        outs = np.stack([ddim_sample(den, (4,), 20, Condition(), None, seed=s)
                         for s in range(300)])
        se = outs.std(axis=0, ddof=1) / np.sqrt(outs.shape[0])
        assert np.all(np.abs(outs.mean(axis=0) - MU) < 4.0 * se)

    def test_step_count_robustness_on_narrow_toy(self):
        den = posterior(MU, 0.005)
        for seed in range(5):
            few = ddim_sample(den, (4,), 20, Condition(), None, seed=seed)
            full = ddim_sample(den, (4,), NUM_TRAIN_STEPS, Condition(), None, seed=seed)
            np.testing.assert_allclose(few, full, atol=1e-3)

    def test_bit_identical_for_fixed_seed(self):
        den = posterior(MU, 0.5)
        a = ddim_sample(den, (4,), 20, Condition(), None, seed=11)
        b = ddim_sample(den, (4,), 20, Condition(), None, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_inference_steps_descending_from_top(self):
        steps = inference_steps(20)
        assert steps[0] == 999 and steps[-1] == 0
        assert np.all(np.diff(steps) < 0)
        assert inference_steps(1).tolist() == [999]
        full = inference_steps(1000)
        assert full.tolist() == list(range(999, -1, -1))

    def test_rejects_too_many_steps(self):
        with pytest.raises(SamplerError):
            inference_steps(1001)

    def test_denoiser_shape_mismatch_rejected(self):
        bad = lambda w, t, c: np.zeros(3)  # noqa: E731
        with pytest.raises(SamplerError):
            ddim_sample(bad, (4,), 10, Condition(), None, seed=0)

    def test_nonfinite_prediction_rejected(self):
        bad = lambda w, t, c: np.full_like(w, np.nan)  # noqa: E731
        with pytest.raises(SamplerError):
            ddim_sample(bad, (4,), 10, Condition(), None, seed=0)

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
    def test_nonfinite_guidance_scale_rejected(self, scale):
        with pytest.raises(SamplerError, match="guidance scale must be finite"):
            ddim_sample(posterior(MU, 1.0), (4,), 10, Condition(text=1.0), scale, seed=0)

    def test_two_pass_deterministic_and_shaped(self):
        seen = []

        def den(w, t, cond):
            seen.append(cond)
            return gaussian_posterior_denoiser(w, t, np.zeros(3), 0.3)

        a = two_pass_sample(den, (7, 3), 20, Condition(), None, seed=5)
        b = two_pass_sample(den, (7, 3), 20, Condition(), None, seed=5)
        assert a.shape == (7, 3)
        np.testing.assert_array_equal(a, b)
        # unguided, the denoiser still always gets a Condition: an empty one in
        # the first pass, one carrying the coarse track in the second
        assert all(type(c) is Condition and c.text is None for c in seen)
        assert [c.coarse is None for c in seen] == ([True] * 20 + [False] * 20) * 2

    def test_unguided_denoiser_sees_the_callers_condition(self):
        seen = []

        def den(w, t, cond):
            seen.append(cond)
            return np.zeros_like(w)

        condition = Condition(text="walk")
        two_pass_sample(den, (5, 2), 4, condition, None, seed=0)
        first, fine = seen[:4], seen[4:]
        assert len(fine) == 4
        assert all(c is condition for c in first)
        assert all(c.text == "walk" and c.coarse is fine[0].coarse for c in fine)
        assert fine[0].coarse.shape == (5, 2)


class TestGuidance:
    def test_cfg_endpoints(self, rng):
        u = rng.normal(size=(3, 2))
        c = rng.normal(size=(3, 2))
        np.testing.assert_array_equal(apply_cfg(u, c, 0.0), u)
        np.testing.assert_array_equal(apply_cfg(u, c, 1.0), c)

    def test_cfg_extrapolation(self):
        assert apply_cfg(np.zeros(1), np.ones(1), 2.0)[0] == 2.0

    def test_cfg_shape_mismatch(self):
        with pytest.raises(SamplerError):
            apply_cfg(np.zeros(2), np.zeros(3), 1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-4, 4, allow_nan=False), st.integers(0, 2**32 - 1))
    def test_cfg_affine_in_scale(self, s, seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=4)
        c = rng.normal(size=4)
        h = 0.25  # power of two so s +/- h is exact
        slope = (apply_cfg(u, c, s + h) - apply_cfg(u, c, s - h)) / (2 * h)
        np.testing.assert_allclose(slope, c - u, rtol=1e-12, atol=1e-12)

    def test_two_pass_null_branch_keeps_coarse_and_clears_text(self):
        seen = []

        def denoiser(w, t, cond):
            seen.append(cond)
            return np.zeros_like(w)

        two_pass_sample(denoiser, (5, 2), 4, Condition(text="walk"), 2.0, seed=0)
        first, fine = seen[:8], seen[8:]
        assert len(fine) == 8
        assert [c.text for c in first + fine] == ["walk", None] * 8
        assert all(c.coarse is None for c in first)
        coarse = fine[0].coarse
        assert coarse.shape == (5, 2)
        assert all(c.coarse is coarse for c in fine)

    def test_guided_sampling_interpolates_denoisers(self):
        # a denoiser whose output depends affinely on the text payload makes
        # the whole guided sample affine in the guidance scale
        def denoiser(w, t, cond):
            shift = 0.0 if cond is None or cond.text is None else float(cond.text)
            return np.full_like(w, shift)

        def sample(scale):
            return ddim_sample(denoiser, (3,), 20, Condition(text=2.0), scale, seed=0)

        np.testing.assert_allclose(sample(0.0), 0.0, atol=1e-12)
        np.testing.assert_allclose(sample(1.0), 2.0, atol=1e-12)
        np.testing.assert_allclose(sample(2.5), 5.0, atol=1e-9)


def _fresh_walk_track(num_waypoints, heading):
    """``synth.toy_walk_track`` built anew on every call, with no memo."""
    steps = np.arange(num_waypoints, dtype=np.float64)
    cos, sin = np.cos(heading), np.sin(heading)
    track = np.zeros((num_waypoints, 12))
    track[:, 0] = synth.WALK_SPEED * steps * sin
    track[:, 1] = 0.9
    track[:, 2] = synth.WALK_SPEED * steps * cos
    track[:, 4] = heading
    carry = np.array([0.3, -0.1, 0.4])
    track[:, 6] = track[:, 0] + carry[0] * cos + carry[2] * sin
    track[:, 7] = track[:, 1] + carry[1]
    track[:, 8] = track[:, 2] - carry[0] * sin + carry[2] * cos
    return track


def _fresh_walk_denoiser(w_t, t, condition):
    heading = 0.0 if condition.text is None else float(condition.text)
    mean = _fresh_walk_track(w_t.shape[0], heading)
    if condition.coarse is not None:
        mean = 0.5 * (mean + np.asarray(condition.coarse, dtype=np.float64))
    return gaussian_posterior_denoiser(w_t, t, mean, synth.WALK_SIGMA)


def _oracle_ddim(denoiser, shape, num_infer_steps, condition, cfg_scale, seed):
    """The sampler with nothing hoisted: the text-free condition and the step
    coefficients are rebuilt at every step."""
    steps = inference_steps(num_infer_steps)
    w = np.random.default_rng(seed).standard_normal(shape)
    for i, t in enumerate(steps):
        w0_hat = np.asarray(denoiser(w, int(t), condition), dtype=np.float64)
        if cfg_scale is not None:
            uncond = np.asarray(denoiser(w, int(t), replace(condition, text=None)))
            w0_hat = apply_cfg(uncond, w0_hat, cfg_scale)
        if i == len(steps) - 1:
            return w0_hat
        ab_t = ALPHA_BARS[t]
        ab_next = ALPHA_BARS[steps[i + 1]]
        eps_hat = (w - np.sqrt(ab_t) * w0_hat) / np.sqrt(1.0 - ab_t)
        w = np.sqrt(ab_next) * w0_hat + np.sqrt(1.0 - ab_next) * eps_hat


def _oracle_two_pass(denoiser, shape, num_infer_steps, condition, cfg_scale, seed):
    rows = shape[0]
    coarse_rows = (rows + COARSE_STRIDE - 1) // COARSE_STRIDE
    coarse = _oracle_ddim(denoiser, (coarse_rows,) + tuple(shape[1:]), num_infer_steps,
                          condition, cfg_scale, seed)
    upsampled = np.repeat(coarse, COARSE_STRIDE, axis=0)[:rows]
    return _oracle_ddim(denoiser, shape, num_infer_steps, replace(condition, coarse=upsampled),
                        cfg_scale, seed + 1)


class TestSamplerOracle:
    """The memoized walk track, the once-built text-free condition and the
    coefficient table leave every sample's bytes as the unhoisted loop's."""

    @pytest.mark.parametrize("two_pass", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_unhoisted_loop(self, seed, two_pass):
        sampler, oracle = ((two_pass_sample, _oracle_two_pass) if two_pass
                           else (ddim_sample, _oracle_ddim))
        for heading, scale, steps, width in itertools.product(
                [None, 0.0, -0.0, 0.6, -2.5], [None, 1.0, 2.5, 5.0], [1, 2, 20, 50], [1, 7, 8]):
            condition = Condition(text=heading)
            got = sampler(synth.toy_walk_denoiser, (width, 12), steps, condition, scale, seed)
            want = oracle(_fresh_walk_denoiser, (width, 12), steps, condition, scale, seed)
            case = (heading, scale, steps, width)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), case


class TestWalkTrackMemo:
    def test_tracks_are_read_only(self):
        track = synth.toy_walk_track(5, 0.6)
        with pytest.raises(ValueError):
            track[0, 0] = 1.0

    def test_sign_of_a_zero_heading_is_kept(self):
        positive = synth.toy_walk_track(4, 0.0)
        negative = synth.toy_walk_track(4, -0.0)
        for heading, track in ((0.0, positive), (-0.0, negative)):
            np.testing.assert_array_equal(track.view(np.int64),
                                          _fresh_walk_track(4, heading).view(np.int64))
        assert not np.array_equal(positive.view(np.int64), negative.view(np.int64))

    def test_bounded_and_rebuilt_bit_identical_after_eviction(self):
        synth._walk_track.cache_clear()
        first = synth.toy_walk_track(6, 0.25)
        headings = np.linspace(1.0, 2.0, synth.TRACK_MEMO_SIZE + 10)
        for heading in headings:
            synth.toy_walk_track(6, float(heading))
        assert synth._walk_track.cache_info().currsize == synth.TRACK_MEMO_SIZE
        again = synth.toy_walk_track(6, 0.25)
        assert again is not first  # evicted, so built again
        np.testing.assert_array_equal(again.view(np.int64), first.view(np.int64))
        np.testing.assert_array_equal(again, _fresh_walk_track(6, 0.25))


def _unhoisted_posterior(w_t, t, mean, sigma):
    """A test-only copy of the posterior mean with its scalars computed at the call."""
    mean = np.asarray(mean, dtype=np.float64)
    ab = ALPHA_BARS[int(t)]
    denom = ab * sigma * sigma + (1.0 - ab)
    return (np.sqrt(ab) * sigma * sigma * w_t + (1.0 - ab) * mean) / denom


class TestPosteriorMemo:
    """The cached per-step scalars give the posterior mean the formula's bits."""

    @pytest.mark.parametrize("sigma", [synth.WALK_SIGMA, 0.3, 0.1 + 0.2, 1.0, 1e-3, 7.25])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_to_the_unhoisted_formula(self, rng, sigma, dtype):
        w_t = (3.0 * rng.standard_normal((5, 12))).astype(dtype)
        mean = rng.standard_normal((5, 12))
        # the last two repeat a step, so they read the cached coefficients
        for t in [0, 1, 500, 999, *range(0, NUM_TRAIN_STEPS, 7), 500, np.int64(999)]:
            got = gaussian_posterior_denoiser(w_t, t, mean, sigma)
            want = _unhoisted_posterior(w_t, t, mean, sigma)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), t
