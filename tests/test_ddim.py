import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motok.ddim import (
    ALPHA_BARS,
    NUM_TRAIN_STEPS,
    Condition,
    GuidanceConfig,
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
            out = ddim_sample(lambda w, t, c: target, (6, 2), 20, guidance=None, seed=seed)
            np.testing.assert_allclose(out, target, atol=1e-6)

    def test_posterior_mean_denoiser_recovers_mean(self):
        # smaller replica of the acceptance check
        den = posterior(MU, 1.0)
        outs = np.stack([ddim_sample(den, (4,), 20, guidance=None, seed=s) for s in range(300)])
        se = outs.std(axis=0, ddof=1) / np.sqrt(outs.shape[0])
        assert np.all(np.abs(outs.mean(axis=0) - MU) < 4.0 * se)

    def test_step_count_robustness_on_narrow_toy(self):
        den = posterior(MU, 0.005)
        for seed in range(5):
            few = ddim_sample(den, (4,), 20, guidance=None, seed=seed)
            full = ddim_sample(den, (4,), NUM_TRAIN_STEPS, guidance=None, seed=seed)
            np.testing.assert_allclose(few, full, atol=1e-3)

    def test_bit_identical_for_fixed_seed(self):
        den = posterior(MU, 0.5)
        a = ddim_sample(den, (4,), 20, guidance=None, seed=11)
        b = ddim_sample(den, (4,), 20, guidance=None, seed=11)
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
            ddim_sample(bad, (4,), 10, guidance=None, seed=0)

    def test_nonfinite_prediction_rejected(self):
        bad = lambda w, t, c: np.full_like(w, np.nan)  # noqa: E731
        with pytest.raises(SamplerError):
            ddim_sample(bad, (4,), 10, guidance=None, seed=0)

    def test_two_pass_deterministic_and_shaped(self):
        seen = []

        def den(w, t, cond):
            seen.append(cond)
            return gaussian_posterior_denoiser(w, t, np.zeros(3), 0.3)

        a = two_pass_sample(den, (7, 3), 20, guidance=None, seed=5)
        b = two_pass_sample(den, (7, 3), 20, guidance=None, seed=5)
        assert a.shape == (7, 3)
        np.testing.assert_array_equal(a, b)
        # unguided, the denoiser still always gets a Condition: an empty one in
        # the first pass, one carrying the coarse track in the second
        assert all(type(c) is Condition and c.text is None for c in seen)
        assert [c.coarse is None for c in seen] == ([True] * 20 + [False] * 20) * 2


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

        g = GuidanceConfig(scale=2.0, condition=Condition(text="walk"))
        two_pass_sample(denoiser, (5, 2), 4, guidance=g, seed=0)
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
            g = GuidanceConfig(scale=scale, condition=Condition(text=2.0))
            return ddim_sample(denoiser, (3,), 20, guidance=g, seed=0)

        np.testing.assert_allclose(sample(0.0), 0.0, atol=1e-12)
        np.testing.assert_allclose(sample(1.0), 2.0, atol=1e-12)
        np.testing.assert_allclose(sample(2.5), 5.0, atol=1e-9)
