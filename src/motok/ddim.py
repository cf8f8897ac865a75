"""Deterministic DDIM sampling with clean-sample prediction and guidance.

The denoiser is any callable ``f(w_t, t, condition) -> w0_hat`` that predicts
the clean sample directly.  ``condition`` is the :class:`Condition` the
caller passed to the sampler, unchanged when sampling is unguided; guided
sampling also queries it with the text slot cleared.  Sampling walks an
evenly strided, descending subset of the ``NUM_TRAIN_STEPS`` training steps
of one fixed linear-beta schedule with eta = 0, so a (seed, denoiser) pair
always reproduces the same output bit for bit.  What is fixed for a run (the
text-free condition and the step coefficients) is built once per
:func:`ddim_sample` call, not at every step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

import numpy as np

DenoiserFn = Callable[[np.ndarray, int, "Condition"], np.ndarray]

# Row stride of the coarse first pass of two_pass_sample.
COARSE_STRIDE = 2

# The noise schedule: betas rise linearly from 1e-4 to 2e-2 over the training
# steps, and ALPHA_BARS[t] is the product of (1 - beta) up to step t.
NUM_TRAIN_STEPS = 1000
ALPHA_BARS = np.cumprod(1.0 - np.linspace(1e-4, 2e-2, NUM_TRAIN_STEPS))
ALPHA_BARS.setflags(write=False)


class SamplerError(ValueError):
    """Raised for a step count out of range or ill-shaped denoiser output."""


@dataclass(frozen=True)
class Condition:
    """Conditioning payload handed to the denoiser.

    ``text`` is the slot classifier-free guidance blanks out for the
    unconditional branch.  ``coarse`` optionally carries a first-pass track
    for coarse-to-fine sampling and reaches both branches.
    """

    text: Any = None
    coarse: Any = None


def apply_cfg(w_uncond: np.ndarray, w_cond: np.ndarray, scale: float) -> np.ndarray:
    """Guided prediction: uncond + scale * (cond - uncond).

    Evaluated as (1 - scale) * uncond + scale * cond so the scale-0 and
    scale-1 endpoints reproduce their inputs bit for bit.
    """
    w_uncond = np.asarray(w_uncond, dtype=np.float64)
    w_cond = np.asarray(w_cond, dtype=np.float64)
    if w_uncond.shape != w_cond.shape:
        raise SamplerError(
            f"shape mismatch: uncond {w_uncond.shape} vs cond {w_cond.shape}"
        )
    return (1.0 - scale) * w_uncond + scale * w_cond


def inference_steps(num_infer_steps: int) -> np.ndarray:
    """Evenly spaced descending step subset, always starting at the top step."""
    if not 1 <= num_infer_steps <= NUM_TRAIN_STEPS:
        raise SamplerError(
            f"num_infer_steps must be in [1, {NUM_TRAIN_STEPS}], got {num_infer_steps}"
        )
    raw = np.linspace(NUM_TRAIN_STEPS - 1, 0, num_infer_steps)
    steps = np.unique(np.rint(raw).astype(np.int64))[::-1]
    return steps


def _predict_clean(
    denoiser: DenoiserFn,
    w: np.ndarray,
    t: int,
    condition: Condition,
    text_free: Optional[Condition],
    cfg_scale: Optional[float],
) -> np.ndarray:
    pred = np.asarray(denoiser(w, t, condition), dtype=np.float64)
    if cfg_scale is not None:
        uncond = np.asarray(denoiser(w, t, text_free), dtype=np.float64)
        pred = apply_cfg(uncond, pred, cfg_scale)
    if pred.shape != w.shape:
        raise SamplerError(f"denoiser returned shape {pred.shape}, expected {w.shape}")
    if not np.all(np.isfinite(pred)):
        raise SamplerError(f"denoiser returned non-finite values at step {t}")
    return pred


def ddim_sample(
    denoiser: DenoiserFn,
    shape: tuple,
    num_infer_steps: int,
    condition: Condition,
    cfg_scale: Optional[float],
    seed: int,
) -> np.ndarray:
    """Draw one sample by deterministic DDIM over the strided step subset.

    Each step queries the clean-sample prediction at ``condition``, guided
    with scale ``cfg_scale`` against the text-free condition unless it is
    None, recovers the implied noise, and re-noises to the next smaller
    step; the return value is the clean prediction at the final step.  The
    text-free condition and sqrt(alpha_bar), sqrt(1 - alpha_bar) of the step
    subset are built once per call; every step still checks the prediction's
    shape and finiteness and the finiteness of the re-noised sample.
    """
    if cfg_scale is not None and not np.isfinite(cfg_scale):
        raise SamplerError(f"guidance scale must be finite, got {cfg_scale}")
    steps = inference_steps(num_infer_steps)
    text_free = None if cfg_scale is None else replace(condition, text=None)
    alpha_bars = ALPHA_BARS[steps]
    signal, noise = np.sqrt(alpha_bars), np.sqrt(1.0 - alpha_bars)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(shape)
    # a huge condition or scale overflows; the finiteness checks report it, not numpy
    with np.errstate(over="ignore", invalid="ignore"):
        for i, t in enumerate(steps):
            w0_hat = _predict_clean(denoiser, w, int(t), condition, text_free, cfg_scale)
            if i == len(steps) - 1:
                return w0_hat
            eps_hat = (w - signal[i] * w0_hat) / noise[i]
            w = signal[i + 1] * w0_hat + noise[i + 1] * eps_hat
            if not np.all(np.isfinite(w)):
                raise SamplerError(f"non-finite intermediate at step {int(t)}")
    raise AssertionError("unreachable")


def two_pass_sample(
    denoiser: DenoiserFn,
    shape: tuple,
    num_infer_steps: int,
    condition: Condition,
    cfg_scale: Optional[float],
    seed: int,
) -> np.ndarray:
    """Optional coarse-to-fine sampling: a strided first pass conditions a full pass.

    The first pass samples every ``COARSE_STRIDE``-th row with ``seed``; the
    result is nearest-neighbor upsampled and attached to the condition's
    ``coarse`` slot (which both guidance branches see) for a full pass with
    ``seed + 1``.  Denoisers that ignore ``coarse`` reduce this to plain
    sampling with a different seed path.
    """
    rows = shape[0]
    coarse_rows = (rows + COARSE_STRIDE - 1) // COARSE_STRIDE
    coarse = ddim_sample(denoiser, (coarse_rows,) + tuple(shape[1:]), num_infer_steps,
                         condition, cfg_scale, seed)
    upsampled = np.repeat(coarse, COARSE_STRIDE, axis=0)[:rows]
    return ddim_sample(denoiser, shape, num_infer_steps, replace(condition, coarse=upsampled),
                       cfg_scale, seed + 1)


def gaussian_posterior_denoiser(
    w_t: np.ndarray, t: int, mean: np.ndarray, sigma: float
) -> np.ndarray:
    """Analytically optimal clean-sample prediction for N(mean, sigma^2 I) data.

    Under w_t = sqrt(ab)*w0 + sqrt(1-ab)*eps the posterior mean of w0 is
    (sqrt(ab)*sigma^2*w_t + (1-ab)*mean) / (ab*sigma^2 + 1-ab).
    """
    mean = np.asarray(mean, dtype=np.float64)
    c_w, c_mean, denom = _posterior_coefficients(int(t), sigma)
    return (c_w * w_t + c_mean * mean) / denom


@functools.lru_cache(maxsize=NUM_TRAIN_STEPS)
def _posterior_coefficients(t: int, sigma: float) -> tuple:
    """sqrt(ab)*sigma^2, 1-ab and ab*sigma^2 + 1-ab at step ``t``, each in the
    operand order the posterior mean was always evaluated in, so a cached
    coefficient gives the same bits as one computed at the call.  They stay
    float64 scalars: a Python float would leave a float32 ``w_t`` float32."""
    ab = ALPHA_BARS[t]
    return np.sqrt(ab) * sigma * sigma, 1.0 - ab, ab * sigma * sigma + (1.0 - ab)
