"""Look-up-free quantization onto the binary lattice {-1, +1}^d.

The codebook is implicit: each latent dimension quantizes independently to
the nearer of +1/-1, and the token index is the little-endian bit pattern of
the signs.  No code vectors are stored anywhere.  Every function takes a
batch of latents, sign patterns or token indices.  A :class:`TokenStream`
holds the indices of one motion, as ``motok tokenize`` writes them to a
``.mtok`` file and ``motok detokenize`` reads them back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# Temperature tau of the soft sign pattern p_i = sigmoid(2 * z_i / tau) that
# the entropy regularizer scores.
ENTROPY_TEMPERATURE = 0.25


class QuantizerError(ValueError):
    """Raised for dimension mismatches or out-of-range indices."""


@dataclass(frozen=True)
class LfqCodebook:
    """Implicit binary codebook: ``vocab_size`` = 2 ** ``num_dims``."""

    vocab_size: int

    def __post_init__(self):
        vocab_size = int(self.vocab_size)
        if vocab_size < 2 or vocab_size & (vocab_size - 1) != 0:
            raise QuantizerError(f"vocab_size must be a power of two >= 2, got {vocab_size}")
        if vocab_size > 1 << 62:  # token indices are int64
            raise QuantizerError(f"vocab_size must be at most 2**62, got {vocab_size}")
        object.__setattr__(self, "vocab_size", vocab_size)

    @property
    def num_dims(self) -> int:
        return self.vocab_size.bit_length() - 1


@dataclass(frozen=True)
class TokenStream:
    """Token indices, one per ``vae.SEGMENT_LEN``-frame motion segment."""

    indices: np.ndarray
    vocab_size: int

    def __post_init__(self):
        codebook = LfqCodebook(self.vocab_size)
        idx = np.asarray(self.indices, dtype=np.int64).reshape(-1).copy()
        if idx.size < 1:
            raise QuantizerError("token stream is empty")
        if np.any(idx < 0) or np.any(idx >= codebook.vocab_size):
            raise QuantizerError("token index out of range")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "vocab_size", codebook.vocab_size)

    @property
    def num_tokens(self) -> int:
        return self.indices.size


def sign_bits(latents: np.ndarray) -> np.ndarray:
    """Per-dimension binary quantization: +1 where the latent is > 0, else -1.

    The tie at exactly zero maps to -1 so the sign pattern always agrees with
    the strict indicator used by :func:`bits_to_indices`.
    """
    latents = np.asarray(latents, dtype=np.float64)
    if not np.all(np.isfinite(latents)):
        raise QuantizerError("latents contain non-finite values")
    return np.where(latents > 0.0, 1, -1).astype(np.int8)


def bits_to_indices(bits: np.ndarray) -> np.ndarray:
    """Token indices from sign patterns: bit i (0-based) carries weight 2**i."""
    bits = np.asarray(bits)
    weights = 1 << np.arange(bits.shape[-1], dtype=np.int64)
    return ((bits > 0).astype(np.int64) * weights).sum(axis=-1)


def indices_to_bits(indices: np.ndarray, num_dims: int) -> np.ndarray:
    """Inverse of :func:`bits_to_indices`; bijective over [0, 2**num_dims)."""
    indices = np.asarray(indices, dtype=np.int64)
    if np.any(indices < 0) or np.any(indices >= (1 << num_dims)):
        raise QuantizerError(f"token index out of range for vocab 2**{num_dims}")
    shifts = np.arange(num_dims, dtype=np.int64)
    return np.where((indices[..., None] >> shifts) & 1, 1, -1).astype(np.int8)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # exp(-x) = inf gives the exact limit 0
        return 1.0 / (1.0 + np.exp(-x))


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x * log(x) for x in [0, 1], with 0 * log(0) = 0."""
    return x * np.log(np.where(x > 0.0, x, 1.0))


def _binary_entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of Bernoulli(p) in nats; 0*log(0) treated as 0."""
    return -(_xlogx(p) + _xlogx(1.0 - p))


def entropy_loss(batch_logits: np.ndarray) -> float:
    """Code-diversity regularizer over a batch of pre-quantization latents.

    Each latent row induces a factorized Bernoulli distribution over its sign
    pattern, p_i = sigmoid(2 * z_i / tau) with tau = ``ENTROPY_TEMPERATURE``.
    The loss is the mean per-sample code entropy minus the entropy of the
    batch-mean code distribution (both in nats, summed over dimensions).
    Driving it down makes individual codes confident while spreading usage
    across the batch; its lower bound is -num_dims * ln(2).
    """
    z = np.asarray(batch_logits, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 1:
        raise QuantizerError(f"batch_logits must be (N, d) with N >= 1, got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise QuantizerError("batch_logits contain non-finite values")
    p = _sigmoid(2.0 * z / ENTROPY_TEMPERATURE)
    per_sample = _binary_entropy(p).sum(axis=1).mean()
    marginal = _binary_entropy(p.mean(axis=0)).sum()
    return float(per_sample - marginal)


def entropy_loss_grad(batch_logits: np.ndarray) -> np.ndarray:
    """Gradient of :func:`entropy_loss` with respect to the latents."""
    z = np.asarray(batch_logits, dtype=np.float64)
    n = z.shape[0]
    p = _sigmoid(2.0 * z / ENTROPY_TEMPERATURE)
    p_bar = np.clip(p.mean(axis=0), 1e-12, 1.0 - 1e-12)
    # dH(p)/dp = log((1-p)/p); for the per-sample term this is exactly the
    # negated logit, -2z/tau, which avoids log-of-zero at saturation.
    dterm1 = -2.0 * z / ENTROPY_TEMPERATURE
    dterm2 = np.log((1.0 - p_bar) / p_bar)
    return (dterm1 - dterm2) * (2.0 / ENTROPY_TEMPERATURE) * p * (1.0 - p) / n


def codebook_utilization(indices: np.ndarray, codebook: LfqCodebook) -> tuple[float, float]:
    """Distinct-token fraction and normalized usage entropy of a token multiset.

    Returns ``(|distinct| / vocab_size, H(usage) / ln(vocab_size))``; the
    second value is 1 for a perfectly uniform histogram and 0 when a single
    token dominates.
    """
    indices = np.asarray(indices, dtype=np.int64).reshape(-1)
    if indices.size == 0:
        raise QuantizerError("empty token multiset")
    if np.any(indices < 0) or np.any(indices >= codebook.vocab_size):
        raise QuantizerError("token index out of range")
    counts = np.bincount(indices, minlength=codebook.vocab_size)
    fraction = float(np.count_nonzero(counts)) / codebook.vocab_size
    freqs = counts[counts > 0] / indices.size
    usage_entropy = float(-(freqs * np.log(freqs)).sum()) + 0.0  # avoid -0.0
    return fraction, float(usage_entropy / np.log(codebook.vocab_size))
