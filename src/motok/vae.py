"""Desk-scale trainable LFQ autoencoder over 8-frame motion segments.

The encoder halves the temporal axis three times with affine pooling layers
(concatenate neighboring steps, apply an affine map, tanh), so each 8-frame
segment maps independently to one latent of log2(vocab_size) dimensions.
The decoder mirrors the structure with affine upsampling.  Gradients are
computed by hand in reverse mode; the quantization node uses the
straight-through rule (the reconstruction gradient passes through the sign
function as identity, and the sign pattern itself is never differentiated).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lfq import LfqCodebook, bits_to_indices, entropy_loss, entropy_loss_grad, sign_bits
from .motion import FRAME_DIM, MotionSequence

# three halving layers give the fixed 8-frame segment the rest of the
# pipeline (token files, waypoint repetition) is built around
DOWNSAMPLE_LAYERS = 3
SEGMENT_LEN = 2 ** DOWNSAMPLE_LAYERS

# starting the latent projection bias off-center makes initial code usage
# imbalanced, which is the failure mode the entropy term exists to fix
LATENT_BIAS_INIT = 0.4

_PARAM_NAMES = (
    "enc1_w", "enc1_b", "enc2_w", "enc2_b", "enc3_w", "enc3_b",
    "lat_w", "lat_b",
    "dec_w", "dec_b", "up3_w", "up3_b", "up2_w", "up2_b", "up1_w", "up1_b",
)

# frozen per-channel preprocessing constants; never touched by the optimizer
_FIXED_NAMES = ("in_shift", "in_scale")


class VaeError(ValueError):
    """Raised for configuration or shape problems."""


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass(frozen=True)
class ToyVaeConfig:
    """Hyperparameters for the toy autoencoder and its trainer.

    The reconstruction term has weight 1: scaling every loss weight by c
    trains the same as scaling ``learning_rate`` by c.
    """

    vocab_size: int = 8192
    hidden_width: int = 32
    lambda_commit: float = 1e-2
    lambda_entropy: float = 1e-4  # flips no code under the fixed-step trainer (ROADMAP item 1)
    entropy_temperature: float = 0.25
    learning_rate: float = 1e-3
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        LfqCodebook.from_vocab_size(self.vocab_size)
        if self.hidden_width < 1:
            raise VaeError(f"hidden_width must be >= 1, got {self.hidden_width}")
        if self.lambda_commit < 0 or self.lambda_entropy < 0:
            raise VaeError("loss weights must be >= 0")
        if self.entropy_temperature <= 0:
            raise VaeError("entropy_temperature must be > 0")
        if self.learning_rate <= 0:
            raise VaeError("learning_rate must be > 0")
        if self.epochs < 1:
            raise VaeError(f"epochs must be >= 1, got {self.epochs}")

    @property
    def num_dims(self) -> int:
        return LfqCodebook.from_vocab_size(self.vocab_size).num_dims


@dataclass(frozen=True)
class ToyVaeParams:
    """Named weight tensors plus the sizes needed to interpret them.

    ``tensors`` holds exactly the 16 trainable tensors and the two fixed
    ones; any other name raises :class:`VaeError`.  ``in_shift``/``in_scale``
    default to the identity when omitted.  They standardize each of the 75
    channels before the encoder (and undo it after the decoder); they are
    dataset statistics, not trainable weights.
    """

    tensors: dict[str, np.ndarray]
    vocab_size: int
    hidden_width: int

    def __post_init__(self):
        if self.hidden_width < 1:
            raise VaeError(f"hidden_width must be >= 1, got {self.hidden_width}")
        tensors = dict(self.tensors)
        tensors.setdefault("in_shift", np.zeros(FRAME_DIM))
        tensors.setdefault("in_scale", np.ones(FRAME_DIM))
        missing = [n for n in _PARAM_NAMES if n not in tensors]
        if missing:
            raise VaeError(f"missing parameter tensors: {missing}")
        unknown = sorted(set(tensors) - set(_PARAM_NAMES + _FIXED_NAMES))
        if unknown:
            raise VaeError(f"unknown parameter tensors: {unknown}")
        expected = _shapes(self.hidden_width, LfqCodebook.from_vocab_size(self.vocab_size).num_dims)
        clean = {}
        for name in _PARAM_NAMES + _FIXED_NAMES:
            t = np.asarray(tensors[name], dtype=np.float64)
            if t.shape != expected[name]:
                raise VaeError(f"{name} has shape {t.shape}, expected {expected[name]}")
            if not np.all(np.isfinite(t)):
                raise VaeError(f"{name} contains non-finite values")
            clean[name] = t
        if np.any(clean["in_scale"] <= 0.0):
            raise VaeError("in_scale must be strictly positive")
        object.__setattr__(self, "tensors", clean)

    @property
    def num_dims(self) -> int:
        return LfqCodebook.from_vocab_size(self.vocab_size).num_dims

    @property
    def codebook(self) -> LfqCodebook:
        return LfqCodebook.from_vocab_size(self.vocab_size)


def _shapes(hidden: int, dims: int) -> dict[str, tuple]:
    h, d, c = hidden, dims, FRAME_DIM
    return {
        "enc1_w": (2 * c, h), "enc1_b": (h,),
        "enc2_w": (2 * h, h), "enc2_b": (h,),
        "enc3_w": (2 * h, h), "enc3_b": (h,),
        "lat_w": (h, d), "lat_b": (d,),
        "dec_w": (d, h), "dec_b": (h,),
        "up3_w": (h, 2 * h), "up3_b": (2 * h,),
        "up2_w": (h, 2 * h), "up2_b": (2 * h,),
        "up1_w": (h, 2 * c), "up1_b": (2 * c,),
        "in_shift": (c,), "in_scale": (c,),
    }


def channel_stats(segments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and std over a segment batch; flat channels get scale 1."""
    flat = np.asarray(segments, dtype=np.float64).reshape(-1, FRAME_DIM)
    shift = flat.mean(axis=0)
    scale = flat.std(axis=0)
    return shift, np.where(scale > 1e-8, scale, 1.0)


def init_params(config: ToyVaeConfig, segments: np.ndarray | None = None) -> ToyVaeParams:
    """Seeded Gaussian init, scaled by 1/sqrt(fan_in) per layer.

    When a segment batch is given, its channel statistics seed the frozen
    input standardization.
    """
    rng = np.random.default_rng(config.seed)
    tensors = {}
    for name, shape in _shapes(config.hidden_width, config.num_dims).items():
        if name in _FIXED_NAMES:
            continue
        if name.endswith("_b"):
            tensors[name] = np.zeros(shape)
        else:
            tensors[name] = rng.standard_normal(shape) / np.sqrt(shape[0])
    tensors["lat_b"] = tensors["lat_b"] + LATENT_BIAS_INIT
    if segments is not None:
        tensors["in_shift"], tensors["in_scale"] = channel_stats(segments)
    return ToyVaeParams(tensors=tensors, vocab_size=config.vocab_size,
                        hidden_width=config.hidden_width)


def pad_frames(frames: np.ndarray) -> np.ndarray:
    """Pad to a multiple of 8 frames by repeating the final frame."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != FRAME_DIM:
        raise VaeError(f"frames must be (T, {FRAME_DIM}), got {frames.shape}")
    remainder = frames.shape[0] % SEGMENT_LEN
    if remainder == 0:
        return frames
    tail = np.repeat(frames[-1:], SEGMENT_LEN - remainder, axis=0)
    return np.concatenate([frames, tail], axis=0)


def segment_frames(frames: np.ndarray) -> np.ndarray:
    padded = pad_frames(frames)
    return padded.reshape(-1, SEGMENT_LEN, FRAME_DIM)


def _coerce_frames(seq) -> np.ndarray:
    return seq.frames if isinstance(seq, MotionSequence) else np.asarray(seq, dtype=np.float64)


def _encode_forward(t: dict[str, np.ndarray], x: np.ndarray) -> dict[str, np.ndarray]:
    s = x.shape[0]
    h = t["enc1_b"].shape[0]
    xs = (x - t["in_shift"]) / t["in_scale"]
    h1 = np.tanh(xs.reshape(s, 4, 2 * FRAME_DIM) @ t["enc1_w"] + t["enc1_b"])
    h2 = np.tanh(h1.reshape(s, 2, 2 * h) @ t["enc2_w"] + t["enc2_b"])
    h3 = np.tanh(h2.reshape(s, 1, 2 * h) @ t["enc3_w"] + t["enc3_b"])[:, 0, :]
    z = h3 @ t["lat_w"] + t["lat_b"]
    return {"xs": xs, "h1": h1, "h2": h2, "h3": h3, "z": z}


def _decode_forward(t: dict[str, np.ndarray], q: np.ndarray) -> dict[str, np.ndarray]:
    s = q.shape[0]
    h = t["dec_b"].shape[0]
    g0 = np.tanh(q @ t["dec_w"] + t["dec_b"])
    g1 = np.tanh((g0 @ t["up3_w"] + t["up3_b"]).reshape(s, 2, h))
    g2 = np.tanh((g1 @ t["up2_w"] + t["up2_b"]).reshape(s, 4, h))
    ys = (g2 @ t["up1_w"] + t["up1_b"]).reshape(s, SEGMENT_LEN, FRAME_DIM)
    y = ys * t["in_scale"] + t["in_shift"]
    return {"g0": g0, "g1": g1, "g2": g2, "y": y}


def encode(params: ToyVaeParams, seq) -> np.ndarray:
    """Latent vectors, one per 8-frame segment: shape (ceil(T/8), log2 K)."""
    segments = segment_frames(_coerce_frames(seq))
    return _encode_forward(params.tensors, segments)["z"]


def decode(params: ToyVaeParams, codes) -> np.ndarray:
    """Frames reconstructed from codes: shape (8 * num_codes, 75).

    ``codes`` is an (S, log2 K) array, normally the sign patterns of
    :func:`motok.lfq.sign_bits` or :func:`motok.lfq.indices_to_bits`.
    """
    q = np.asarray(codes, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != params.num_dims:
        raise VaeError(f"codes must be (S, {params.num_dims}), got {q.shape}")
    if q.shape[0] < 1:
        raise VaeError("need at least one code")
    return _decode_forward(params.tensors, q)["y"].reshape(-1, FRAME_DIM)


def loss_and_grads(
    params: ToyVaeParams,
    segments: np.ndarray,
    config: ToyVaeConfig,
    quantize: bool = True,
) -> tuple[float, dict[str, float], dict[str, np.ndarray]]:
    """Total loss, per-term values, and analytic parameter gradients.

    With ``quantize=False`` the bottleneck is the identity (the decoder sees
    the raw latent); this path is smooth end to end and is what finite
    differences can check.  With ``quantize=True`` the decoder sees the sign
    pattern and the reconstruction gradient crosses the node via the
    straight-through rule.
    """
    t = params.tensors
    x = np.asarray(segments, dtype=np.float64)
    if x.ndim != 3 or x.shape[1:] != (SEGMENT_LEN, FRAME_DIM):
        raise VaeError(f"segments must be (S, {SEGMENT_LEN}, {FRAME_DIM}), got {x.shape}")
    s = x.shape[0]
    h = config.hidden_width

    enc = _encode_forward(t, x)
    z = enc["z"]
    bits = sign_bits(z).astype(np.float64)
    q = bits if quantize else z
    dec = _decode_forward(t, q)
    y = dec["y"]

    resid = y - x
    recon = float((resid * resid).sum() / x.size)
    commit_diff = z - bits
    commit = float((commit_diff * commit_diff).sum() / s)
    entropy = entropy_loss(z, config.entropy_temperature)
    total = recon + config.lambda_commit * commit + config.lambda_entropy * entropy
    parts = {"recon": recon, "commit": commit, "entropy": entropy, "total": total}

    grads = {}
    # decoder backward (the raw-space residual crosses the de-standardization)
    dy = 2.0 * resid / x.size
    da_u1 = (dy * t["in_scale"]).reshape(s, 4, 2 * FRAME_DIM)
    g2, g1, g0 = dec["g2"], dec["g1"], dec["g0"]
    grads["up1_w"] = np.einsum("sij,sik->jk", g2, da_u1)
    grads["up1_b"] = da_u1.sum(axis=(0, 1))
    dg2 = da_u1 @ t["up1_w"].T
    da_u2 = (dg2 * (1.0 - g2 * g2)).reshape(s, 2, 2 * h)
    grads["up2_w"] = np.einsum("sij,sik->jk", g1, da_u2)
    grads["up2_b"] = da_u2.sum(axis=(0, 1))
    dg1 = da_u2 @ t["up2_w"].T
    da_u3 = (dg1 * (1.0 - g1 * g1)).reshape(s, 2 * h)
    grads["up3_w"] = g0.T @ da_u3
    grads["up3_b"] = da_u3.sum(axis=0)
    dg0 = da_u3 @ t["up3_w"].T
    da_dec = dg0 * (1.0 - g0 * g0)
    grads["dec_w"] = q.T @ da_dec
    grads["dec_b"] = da_dec.sum(axis=0)
    dq = da_dec @ t["dec_w"].T

    # straight-through: reconstruction gradient reaches z as identity
    dz = dq.copy()
    dz += config.lambda_commit * 2.0 * commit_diff / s
    if config.lambda_entropy != 0.0:
        dz += config.lambda_entropy * entropy_loss_grad(z, config.entropy_temperature)

    # encoder backward
    h1, h2, h3 = enc["h1"], enc["h2"], enc["h3"]
    grads["lat_w"] = h3.T @ dz
    grads["lat_b"] = dz.sum(axis=0)
    dh3 = dz @ t["lat_w"].T
    da_e3 = (dh3 * (1.0 - h3 * h3)).reshape(s, 1, h)
    h2r = h2.reshape(s, 1, 2 * h)
    grads["enc3_w"] = np.einsum("sij,sik->jk", h2r, da_e3)
    grads["enc3_b"] = da_e3.sum(axis=(0, 1))
    dh2 = (da_e3 @ t["enc3_w"].T).reshape(s, 2, h)
    da_e2 = dh2 * (1.0 - h2 * h2)
    h1r = h1.reshape(s, 2, 2 * h)
    grads["enc2_w"] = np.einsum("sij,sik->jk", h1r, da_e2)
    grads["enc2_b"] = da_e2.sum(axis=(0, 1))
    dh1 = (da_e2 @ t["enc2_w"].T).reshape(s, 4, h)
    da_e1 = dh1 * (1.0 - h1 * h1)
    xr = enc["xs"].reshape(s, 4, 2 * FRAME_DIM)
    grads["enc1_w"] = np.einsum("sij,sik->jk", xr, da_e1)
    grads["enc1_b"] = da_e1.sum(axis=(0, 1))

    return total, parts, grads


def dataset_segments(dataset: list) -> np.ndarray:
    """Stack every padded 8-frame segment of every sequence into one batch."""
    if not dataset:
        raise VaeError("dataset is empty")
    return np.concatenate([segment_frames(_coerce_frames(seq)) for seq in dataset], axis=0)


def train(
    config: ToyVaeConfig,
    dataset: list,
) -> tuple[ToyVaeParams, list[dict[str, float]]]:
    """Full-batch gradient descent on the combined quantizer loss.

    Deterministic for a fixed config: seeded init, fixed learning rate, no
    optimizer state.  Returns the trained parameters and one history row per
    epoch with the loss terms evaluated at the start of that epoch.
    """
    segments = dataset_segments(dataset)
    params = init_params(config, segments)
    tensors = {k: v.copy() for k, v in params.tensors.items()}
    history = []
    for epoch in range(config.epochs):
        working = ToyVaeParams(tensors=tensors, vocab_size=config.vocab_size,
                               hidden_width=config.hidden_width)
        total, parts, grads = loss_and_grads(working, segments, config, quantize=True)
        if not np.isfinite(total):
            raise TrainingDiverged(
                f"non-finite loss at epoch {epoch}: "
                f"recon={parts['recon']:.3e} commit={parts['commit']:.3e} "
                f"entropy={parts['entropy']:.3e}"
            )
        history.append({"epoch": epoch, **parts})
        for name in _PARAM_NAMES:
            tensors[name] = tensors[name] - config.learning_rate * grads[name]
    final = ToyVaeParams(tensors=tensors, vocab_size=config.vocab_size,
                         hidden_width=config.hidden_width)
    return final, history


def tokenize_frames(params: ToyVaeParams, frames: np.ndarray) -> np.ndarray:
    """Token indices for each 8-frame segment of a (possibly padded) sequence."""
    z = encode(params, frames)
    return bits_to_indices(sign_bits(z))


def reconstruct(params: ToyVaeParams, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quantized round trip: returns (reconstructed frames, token indices).

    The output covers 8 * ceil(T/8) frames; compare against the padded input.
    """
    z = encode(params, frames)
    bits = sign_bits(z)
    recon = decode(params, bits.astype(np.float64))
    return recon, bits_to_indices(bits)


def reconstruction_mse(params: ToyVaeParams, frames: np.ndarray) -> float:
    """Per-element mean squared error of the quantized round trip."""
    padded = pad_frames(_coerce_frames(frames))
    recon, _ = reconstruct(params, padded)
    diff = recon - padded
    return float((diff * diff).mean())
