"""Desk-scale trainable LFQ autoencoder over 8-frame motion segments.

The network is declared once, in the layer table ``_LAYERS``.  Each row is an
affine map on its input reshaped to ``(-1, input width)``, optionally followed
by tanh; a row whose input is twice the previous output width pools two
neighboring steps, so three encoder rows halve the temporal axis three times
and each 8-frame segment maps to one latent of log2(vocab_size) dimensions.
The decoder rows mirror them.  Parameter names and shapes, the init draw
order, the forward pass and the hand-written backward all loop over the table.
It splits at the quantizer seam between ``lat`` and ``dec``: the decoder sees
the sign pattern of the latent, and the straight-through rule passes the
reconstruction gradient back through the sign function as identity.

:func:`train` works in float32, the precision a ``.vae`` file stores, so the
written file holds exactly the trained tensors; a fixed seed gives the same
bytes at a fixed BLAS thread count.  It standardizes its fixed batch once
per run (:func:`standardize`), and its 16 trainable tensors are views of one
flat float32 buffer that each epoch updates in one subtraction.
:func:`loss_and_grads` computes in its parameters' dtype.  Inference
(``encode``, ``decode``, ``reconstruct``) computes in float64 for either
dtype: its frames and codes are float64, and float32 weights upcast exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lfq import LfqCodebook, bits_to_indices, entropy_loss, entropy_loss_grad, sign_bits
from .motion import FRAME_DIM, MotionSequence, normalize_rotations

# the three halving encoder rows of _LAYERS map each 8-frame segment to one
# latent; token files and the synthetic corpus are built around this segment
# length
SEGMENT_LEN = 8

# starting the latent projection bias off-center makes initial code usage
# imbalanced, which is the failure mode the entropy term exists to fix
LATENT_BIAS_INIT = 0.4

# (name, input width, output width, tanh?); a width is "h" (hidden_width), "d"
# (log2 vocab_size) or twice "c" (the 75 frame channels) or "h"
_LAYERS = (
    ("enc1", "2c", "h", True), ("enc2", "2h", "h", True), ("enc3", "2h", "h", True),
    ("lat", "h", "d", False),
    ("dec", "d", "h", True), ("up3", "h", "2h", True), ("up2", "h", "2h", True),
    ("up1", "h", "2c", False),
)
# the quantizer seam: rows before it encode, rows from it on decode
_ENCODER, _DECODER = _LAYERS[:4], _LAYERS[4:]

_PARAM_NAMES = tuple(f"{name}_{kind}" for name, *_ in _LAYERS for kind in "wb")

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
    learning_rate: float = 1e-3
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        LfqCodebook(self.vocab_size)
        for name in ("lambda_commit", "lambda_entropy", "learning_rate"):
            if not np.isfinite(getattr(self, name)):
                raise VaeError(f"{name} must be finite, got {getattr(self, name)}")
        if self.hidden_width < 1:
            raise VaeError(f"hidden_width must be >= 1, got {self.hidden_width}")
        if self.lambda_commit < 0 or self.lambda_entropy < 0:
            raise VaeError("loss weights must be >= 0")
        if self.learning_rate <= 0:
            raise VaeError("learning_rate must be > 0")
        if self.epochs < 1:
            raise VaeError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise VaeError(f"seed must be >= 0, got {self.seed}")

    @property
    def num_dims(self) -> int:
        return LfqCodebook(self.vocab_size).num_dims


@dataclass(frozen=True)
class ToyVaeParams:
    """Named weight tensors plus the sizes needed to interpret them.

    ``tensors`` holds exactly the 16 trainable tensors and the two fixed
    ones; a missing or unknown name raises :class:`VaeError`.  The fixed
    ``in_shift``/``in_scale`` standardize each of the 75 channels before the
    encoder (and undo it after the decoder); they are dataset statistics,
    not trainable weights.

    All tensors share one :attr:`dtype`: float32 when every given tensor is
    float32 (as :func:`train` makes them and ``fileio.read_vae`` reads them),
    float64 otherwise.
    """

    tensors: dict[str, np.ndarray]
    vocab_size: int
    hidden_width: int

    def __post_init__(self):
        if self.hidden_width < 1:
            raise VaeError(f"hidden_width must be >= 1, got {self.hidden_width}")
        tensors, names = self.tensors, _PARAM_NAMES + _FIXED_NAMES
        missing = [n for n in names if n not in tensors]
        if missing:
            raise VaeError(f"missing parameter tensors: {missing}")
        unknown = sorted(set(tensors) - set(names))
        if unknown:
            raise VaeError(f"unknown parameter tensors: {unknown}")
        expected = _shapes(self.hidden_width, LfqCodebook(self.vocab_size).num_dims)
        arrays = {name: np.asarray(tensors[name]) for name in names}
        dtype = np.float32 if all(a.dtype == np.float32 for a in arrays.values()) else np.float64
        clean = {}
        for name in names:
            t = arrays[name].astype(dtype, copy=False)
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
        return LfqCodebook(self.vocab_size).num_dims

    @property
    def dtype(self) -> np.dtype:
        return self.tensors["enc1_w"].dtype

    @property
    def codebook(self) -> LfqCodebook:
        return LfqCodebook(self.vocab_size)


def _shapes(hidden: int, dims: int) -> dict[str, tuple]:
    width = {"2c": 2 * FRAME_DIM, "h": hidden, "2h": 2 * hidden, "d": dims}
    shapes = {}
    for name, n_in, n_out, _ in _LAYERS:
        shapes[f"{name}_w"] = (width[n_in], width[n_out])
        shapes[f"{name}_b"] = (width[n_out],)
    return {**shapes, "in_shift": (FRAME_DIM,), "in_scale": (FRAME_DIM,)}


def channel_stats(segments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and std over a segment batch; flat channels get scale 1."""
    flat = np.asarray(segments, dtype=np.float64).reshape(-1, FRAME_DIM)
    shift = flat.mean(axis=0)
    scale = flat.std(axis=0)
    return shift, np.where(scale > 1e-8, scale, 1.0)


def init_params(config: ToyVaeConfig, segments: np.ndarray) -> ToyVaeParams:
    """Seeded Gaussian init, scaled by 1/sqrt(fan_in) per layer.

    The channel statistics of ``segments`` seed the frozen input
    standardization; an all-zero batch makes it the identity.  The draws and
    statistics are float64; the tensors are float32 when ``segments`` is.
    """
    rng = np.random.default_rng(config.seed)
    shapes = _shapes(config.hidden_width, config.num_dims)
    tensors = {}
    for name, *_ in _LAYERS:
        n_in, n_out = shapes[f"{name}_w"]
        tensors[f"{name}_w"] = rng.standard_normal((n_in, n_out)) / np.sqrt(n_in)
        tensors[f"{name}_b"] = np.zeros(n_out)
    tensors["lat_b"] = tensors["lat_b"] + LATENT_BIAS_INIT
    tensors["in_shift"], tensors["in_scale"] = channel_stats(segments)
    if np.asarray(segments).dtype == np.float32:
        tensors = {name: t.astype(np.float32) for name, t in tensors.items()}
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


def _forward(t: dict[str, np.ndarray], layers: tuple, a: np.ndarray) -> tuple[np.ndarray, list]:
    """Run ``layers`` on ``a``: the last output and, per layer, its 2-D (input, output)."""
    trace = []
    for name, _, _, squash in layers:
        w = t[f"{name}_w"]
        inp = a.reshape(-1, w.shape[0])
        a = inp @ w
        a += t[f"{name}_b"]
        if squash:
            np.tanh(a, out=a)
        trace.append((inp, a))
    return a, trace


def _backward(t: dict[str, np.ndarray], layers: tuple, trace: list, grad_out: np.ndarray,
              grads: dict[str, np.ndarray]) -> np.ndarray | None:
    """Reverse pass of :func:`_forward`: fills ``grads`` and returns the input gradient.

    The input of the network's first row (``enc1``) is the standardized data,
    which has no parameters upstream, so for ``layers`` that start there the
    input gradient is skipped and None is returned.
    """
    for (name, _, _, squash), (inp, out) in zip(reversed(layers), reversed(trace)):
        da = grad_out.reshape(out.shape)
        if squash:
            slope = out * out  # tanh' = 1 - out**2, in one temporary
            np.subtract(1.0, slope, out=slope)
            da = np.multiply(slope, da, out=slope)
        grads[f"{name}_w"] = inp.T @ da
        grads[f"{name}_b"] = da.sum(axis=0)
        if name == _LAYERS[0][0]:
            return None
        grad_out = da @ t[f"{name}_w"].T
    return grad_out


def standardize(params: ToyVaeParams, segments: np.ndarray) -> np.ndarray:
    """``(segments - in_shift) / in_scale``, the encoder's input, as a fresh array.

    It computes in the promoted dtype of ``segments`` and ``params.dtype``:
    float64 frames stay float64 under float32 weights, which upcast exactly.
    :func:`train` calls it once per run and hands the result to every epoch's
    :func:`loss_and_grads`.
    """
    xs = np.asarray(segments) - params.tensors["in_shift"]
    xs /= params.tensors["in_scale"]
    return xs


def _decode(t: dict[str, np.ndarray], q: np.ndarray) -> tuple[np.ndarray, list]:
    """Segments decoded from codes, and the decoder trace for :func:`_backward`.

    The last row's output is de-standardized in place: its backward step
    reads only that output's shape.
    """
    ys, trace = _forward(t, _DECODER, q)
    y = ys.reshape(-1, SEGMENT_LEN, FRAME_DIM)
    y *= t["in_scale"]
    y += t["in_shift"]
    return y, trace


def encode(params: ToyVaeParams, frames: np.ndarray) -> np.ndarray:
    """Latent vectors of (T, 75) frames, one per 8-frame segment: shape (ceil(T/8), log2 K)."""
    return _forward(params.tensors, _ENCODER, standardize(params, segment_frames(frames)))[0]


def decode(params: ToyVaeParams, codes) -> np.ndarray:
    """Frames reconstructed from codes: shape (8 * num_codes, 75).

    ``codes`` is an (S, log2 K) array, normally the sign patterns of
    :func:`motok.lfq.sign_bits` or :func:`motok.lfq.indices_to_bits`.  Every
    rotation is wrapped to magnitude < 2*pi, so the frames make a valid
    :class:`~motok.motion.MotionSequence`.
    """
    q = np.asarray(codes, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != params.num_dims:
        raise VaeError(f"codes must be (S, {params.num_dims}), got {q.shape}")
    if q.shape[0] < 1:
        raise VaeError("need at least one code")
    return normalize_rotations(_decode(params.tensors, q)[0].reshape(-1, FRAME_DIM))


def loss_and_grads(
    params: ToyVaeParams,
    segments: np.ndarray,
    standardized: np.ndarray,
    config: ToyVaeConfig,
    quantize: bool,
) -> tuple[float, dict[str, float], dict[str, np.ndarray]]:
    """Total loss, per-term values, and analytic parameter gradients.

    ``standardized`` is ``standardize(params, segments)``, the encoder's
    input; the reconstruction residual is taken against the raw
    ``segments``.  A batch of another shape, or of another dtype than
    :func:`standardize` gives, raises :class:`VaeError`.  Taking it as an
    argument lets :func:`train` standardize its fixed batch once per run.

    Forward: the encoder rows of ``_LAYERS``, :func:`motok.lfq.sign_bits` at
    the latent ``z``, then the decoder rows.  Backward: the decoder rows in
    reverse, the straight-through, commitment and entropy gradients at ``z``
    (the quantizer seam), then the encoder rows in reverse.

    With ``quantize=False`` the bottleneck is the identity (the decoder sees
    the raw latent); this path is smooth end to end and is what finite
    differences can check.  With ``quantize=True`` the decoder sees the sign
    pattern and the reconstruction gradient crosses the node via the
    straight-through rule.

    It computes in ``params.dtype``: both batches are cast to it, and the
    gradients come back in it.  Only the entropy term works in float64 (the
    latents upcast exactly); its gradient is added in ``params.dtype``.  A
    non-finite latent, which only an overflowing update inside :func:`train`
    can produce, gives a NaN loss and no gradients.
    """
    t = params.tensors
    raw = np.asarray(segments)
    if raw.ndim != 3 or raw.shape[1:] != (SEGMENT_LEN, FRAME_DIM):
        raise VaeError(f"segments must be (S, {SEGMENT_LEN}, {FRAME_DIM}), got {raw.shape}")
    xs = np.asarray(standardized)
    expected = np.result_type(raw, params.dtype)
    if xs.shape != raw.shape or xs.dtype != expected:
        raise VaeError(f"standardized segments must be {expected} of shape {raw.shape}, "
                       f"got {xs.dtype} of shape {xs.shape}")
    x = raw.astype(params.dtype, copy=False)
    s = x.shape[0]

    z, enc_trace = _forward(t, _ENCODER, xs.astype(params.dtype, copy=False))
    if not np.all(np.isfinite(z)):
        nan = float("nan")
        return nan, {"recon": nan, "commit": nan, "entropy": nan, "total": nan}, {}
    bits = sign_bits(z).astype(x.dtype)
    # the decoded segments are a fresh buffer; it becomes the residual in place
    resid, dec_trace = _decode(t, bits if quantize else z)
    resid -= x
    recon = float((resid * resid).sum() / x.size)
    commit_diff = z - bits
    commit = float((commit_diff * commit_diff).sum() / s)
    entropy = entropy_loss(z)
    total = recon + config.lambda_commit * commit + config.lambda_entropy * entropy
    parts = {"recon": recon, "commit": commit, "entropy": entropy, "total": total}

    grads = {}
    # the raw-space residual, scaled in place, crosses the de-standardization
    # into the decoder
    dy = resid
    dy *= 2.0
    dy /= x.size
    dy *= t["in_scale"]
    dq = _backward(t, _DECODER, dec_trace, dy, grads)
    # straight-through: reconstruction gradient reaches z as identity
    dz = dq + config.lambda_commit * 2.0 * commit_diff / s
    if config.lambda_entropy != 0.0:
        dz += config.lambda_entropy * entropy_loss_grad(z)
    _backward(t, _ENCODER, enc_trace, dz, grads)
    return total, parts, grads


def dataset_segments(dataset: list[MotionSequence]) -> np.ndarray:
    """Stack every padded 8-frame segment of every sequence into one batch."""
    if not dataset:
        raise VaeError("dataset is empty")
    return np.concatenate([segment_frames(seq.frames) for seq in dataset], axis=0)


def train(
    config: ToyVaeConfig,
    dataset: list[MotionSequence],
) -> tuple[ToyVaeParams, list[dict[str, float]]]:
    """Full-batch gradient descent on the combined quantizer loss, in float32.

    The segment batch, the parameters, the gradients and the update step are
    float32, the precision ``fileio.write_vae`` stores, so the returned
    parameters (float32) are written without a second rounding.  Deterministic
    for a fixed config: seeded init, fixed learning rate, no optimizer state;
    the bytes of the parameters and the history are the same for a fixed seed
    at a fixed BLAS thread count.  Returns the trained parameters and one
    history row per epoch with the loss terms evaluated at the start of that
    epoch.  A loss that becomes non-finite raises :class:`TrainingDiverged`;
    numpy's overflow and invalid-value warnings on the way there are held back.

    The batch is standardized once per run, and each epoch calls the public
    :func:`loss_and_grads` on it.  The 16 trainable tensors are views of one
    flat float32 buffer, so an epoch's update is one subtraction of the
    gradients, concatenated in ``_PARAM_NAMES`` order and scaled by the
    learning rate: per element the same float32 multiply and subtract as a
    per-tensor update.
    """
    segments = dataset_segments(dataset).astype(np.float32)
    # init_params validates once; the loop below updates the flat buffer in place
    params = init_params(config, segments)
    standardized = standardize(params, segments)
    tensors = params.tensors
    flat = np.concatenate([tensors[name].ravel() for name in _PARAM_NAMES])
    views = np.split(flat, np.cumsum([tensors[name].size for name in _PARAM_NAMES])[:-1])
    for name, view in zip(_PARAM_NAMES, views):
        tensors[name] = view.reshape(tensors[name].shape)
    history = []
    # a diverging step overflows before the loss turns non-finite; the check
    # below reports that as one error, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            total, parts, grads = loss_and_grads(params, segments, standardized, config,
                                                 quantize=True)
            if not np.isfinite(total):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}: "
                    f"recon={parts['recon']:.3e} commit={parts['commit']:.3e} "
                    f"entropy={parts['entropy']:.3e}"
                )
            history.append({"epoch": epoch, **parts})
            step = np.concatenate([grads[name].ravel() for name in _PARAM_NAMES])
            step *= config.learning_rate
            flat -= step
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
    return decode(params, bits), bits_to_indices(bits)


def reconstruction_mse(params: ToyVaeParams, frames: np.ndarray) -> float:
    """Per-element mean squared error of the quantized round trip."""
    padded = pad_frames(frames)
    recon, _ = reconstruct(params, padded)
    diff = recon - padded
    return float((diff * diff).mean())
