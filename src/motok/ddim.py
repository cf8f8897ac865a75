"""Deterministic DDIM sampling with clean-sample prediction and guidance.

The denoiser is any callable ``f(w_t, t, condition) -> w0_hat`` that predicts
the clean sample directly.  ``condition`` is always a :class:`Condition`,
an empty one when sampling is unguided.  Sampling walks an evenly strided,
descending subset of the ``NUM_TRAIN_STEPS`` training steps of one fixed
linear-beta schedule with eta = 0, so a (seed, denoiser) pair always
reproduces the same output bit for bit.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class GuidanceConfig:
    """Classifier-free guidance settings.

    The unconditional branch always sees ``condition`` with its text slot
    cleared (:attr:`null_condition`).
    """

    scale: float
    condition: Condition

    def __post_init__(self):
        if not np.isfinite(self.scale):
            raise SamplerError(f"guidance scale must be finite, got {self.scale}")

    @property
    def null_condition(self) -> Condition:
        return replace(self.condition, text=None)


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
    guidance: Optional[GuidanceConfig],
) -> np.ndarray:
    if guidance is None:
        pred = np.asarray(denoiser(w, t, Condition()), dtype=np.float64)
    else:
        cond = np.asarray(denoiser(w, t, guidance.condition), dtype=np.float64)
        uncond = np.asarray(denoiser(w, t, guidance.null_condition), dtype=np.float64)
        pred = apply_cfg(uncond, cond, guidance.scale)
    if pred.shape != w.shape:
        raise SamplerError(f"denoiser returned shape {pred.shape}, expected {w.shape}")
    if not np.all(np.isfinite(pred)):
        raise SamplerError(f"denoiser returned non-finite values at step {t}")
    return pred


def ddim_sample(
    denoiser: DenoiserFn,
    shape: tuple,
    num_infer_steps: int,
    guidance: Optional[GuidanceConfig],
    seed: int,
) -> np.ndarray:
    """Draw one sample by deterministic DDIM over the strided step subset.

    Each step queries the (guided) clean-sample prediction, recovers the
    implied noise, and re-noises to the next smaller step; the return value
    is the clean prediction at the final step.
    """
    steps = inference_steps(num_infer_steps)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(shape)
    for i, t in enumerate(steps):
        w0_hat = _predict_clean(denoiser, w, int(t), guidance)
        if i == len(steps) - 1:
            return w0_hat
        ab_t = ALPHA_BARS[t]
        ab_next = ALPHA_BARS[steps[i + 1]]
        eps_hat = (w - np.sqrt(ab_t) * w0_hat) / np.sqrt(1.0 - ab_t)
        w = np.sqrt(ab_next) * w0_hat + np.sqrt(1.0 - ab_next) * eps_hat
        if not np.all(np.isfinite(w)):
            raise SamplerError(f"non-finite intermediate at step {int(t)}")
    raise AssertionError("unreachable")


def two_pass_sample(
    denoiser: DenoiserFn,
    shape: tuple,
    num_infer_steps: int,
    guidance: Optional[GuidanceConfig],
    seed: int,
) -> np.ndarray:
    """Optional coarse-to-fine sampling: a strided first pass conditions a full pass.

    The first pass samples every ``COARSE_STRIDE``-th row with ``seed``; the
    result is nearest-neighbor upsampled and attached to the condition's
    ``coarse`` slot (which both guidance branches see, or of a bare condition
    when unguided) for a full pass with ``seed + 1``.  Denoisers that ignore
    ``coarse`` reduce this to plain sampling with a different seed path.
    """
    rows = shape[0]
    coarse_rows = (rows + COARSE_STRIDE - 1) // COARSE_STRIDE
    coarse = ddim_sample(denoiser, (coarse_rows,) + tuple(shape[1:]), num_infer_steps,
                         guidance, seed)
    upsampled = np.repeat(coarse, COARSE_STRIDE, axis=0)[:rows]
    if guidance is None:
        base = Condition(coarse=upsampled)
        fine_denoiser = lambda w, t, c: denoiser(w, t, base)  # noqa: E731
        return ddim_sample(fine_denoiser, shape, num_infer_steps, None, seed + 1)
    fine_guidance = GuidanceConfig(scale=guidance.scale,
                                   condition=replace(guidance.condition, coarse=upsampled))
    return ddim_sample(denoiser, shape, num_infer_steps, fine_guidance, seed + 1)


def gaussian_posterior_denoiser(
    w_t: np.ndarray, t: int, mean: np.ndarray, sigma: float
) -> np.ndarray:
    """Analytically optimal clean-sample prediction for N(mean, sigma^2 I) data.

    Under w_t = sqrt(ab)*w0 + sqrt(1-ab)*eps the posterior mean of w0 is
    (sqrt(ab)*sigma^2*w_t + (1-ab)*mean) / (ab*sigma^2 + 1-ab).
    """
    mean = np.asarray(mean, dtype=np.float64)
    ab = ALPHA_BARS[int(t)]
    denom = ab * sigma * sigma + (1.0 - ab)
    return (np.sqrt(ab) * sigma * sigma * w_t + (1.0 - ab) * mean) / denom
