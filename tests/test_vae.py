import dataclasses

import numpy as np
import pytest

from motok import vae
from motok.fileio import read_vae, write_vae
from motok.lfq import LfqCodebook, codebook_utilization
from motok.motion import FRAME_DIM, MotionSequence
from motok.synth import make_corpus
from motok.vae import (
    SEGMENT_LEN,
    _PARAM_NAMES,
    ToyVaeConfig,
    ToyVaeParams,
    TrainingDiverged,
    VaeError,
    dataset_segments,
    decode,
    encode,
    init_params,
    loss_and_grads,
    pad_frames,
    reconstruct,
    reconstruction_mse,
    segment_frames,
    standardize,
    tokenize_frames,
    train,
)
from conftest import ZERO_SEGMENTS

SMALL = ToyVaeConfig(vocab_size=16, hidden_width=5, lambda_commit=0.05,
                     lambda_entropy=0.01, learning_rate=0.05, epochs=5, seed=3)
# the narrowest network: every reshape between layers collapses to width 1
TINY = dataclasses.replace(SMALL, vocab_size=2, hidden_width=1)


def small_batch(rng, segments=4):
    return rng.normal(0.0, 0.5, size=(segments, SEGMENT_LEN, FRAME_DIM))


def finite_difference_grads(params, segments, config, quantize, eps=1e-6):
    grads = {}
    for name in _PARAM_NAMES:
        tensor = params.tensors[name]
        grad = np.zeros_like(tensor)
        for i in range(tensor.size):
            plus = {k: v.copy() for k, v in params.tensors.items()}
            minus = {k: v.copy() for k, v in params.tensors.items()}
            plus[name].reshape(-1)[i] += eps
            minus[name].reshape(-1)[i] -= eps
            up = ToyVaeParams(plus, params.vocab_size, params.hidden_width)
            down = ToyVaeParams(minus, params.vocab_size, params.hidden_width)
            lp, _, _ = loss_and_grads(up, segments, standardize(up, segments), config,
                                      quantize=quantize)
            lm, _, _ = loss_and_grads(down, segments, standardize(down, segments), config,
                                      quantize=quantize)
            grad.reshape(-1)[i] = (lp - lm) / (2 * eps)
        grads[name] = grad
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for name in analytic:
        diff = np.abs(analytic[name] - numeric[name])
        denom = np.maximum(np.maximum(np.abs(analytic[name]), np.abs(numeric[name])), 1e-6)
        worst = max(worst, float((diff / denom).max()))
    return worst


class TestConfig:
    def test_zero_entropy_weight_allowed(self):
        ToyVaeConfig(lambda_entropy=0.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(VaeError):
            ToyVaeConfig(lambda_commit=-1.0)


class TestShapes:
    def test_single_segment(self, rng):
        params = init_params(SMALL, ZERO_SEGMENTS)
        z = encode(params, rng.normal(size=(8, FRAME_DIM)))
        assert z.shape == (1, SMALL.num_dims)

    def test_max_length_pads_to_38_segments(self, rng):
        params = init_params(SMALL, ZERO_SEGMENTS)
        z = encode(params, rng.normal(size=(300, FRAME_DIM)))
        assert z.shape == (38, SMALL.num_dims)

    def test_zero_params_give_zero_latents(self, rng):
        params = init_params(SMALL, ZERO_SEGMENTS)
        tensors = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        tensors["in_scale"] = np.ones(FRAME_DIM)
        zeroed = ToyVaeParams(tensors, SMALL.vocab_size, SMALL.hidden_width)
        z = encode(zeroed, rng.normal(size=(16, FRAME_DIM)))
        np.testing.assert_array_equal(z, 0.0)

    def test_decode_one_code_gives_eight_frames(self):
        params = init_params(SMALL, ZERO_SEGMENTS)
        frames = decode(params, np.ones((1, SMALL.num_dims)))
        assert frames.shape == (8, FRAME_DIM)

    def test_unknown_tensor_rejected(self):
        params = init_params(SMALL, ZERO_SEGMENTS)
        tensors = dict(params.tensors, enc4_w=np.zeros((2, 2)))
        with pytest.raises(VaeError, match="enc4_w"):
            ToyVaeParams(tensors, SMALL.vocab_size, SMALL.hidden_width)

    def test_zero_decoder_gives_zero_frames(self):
        params = init_params(SMALL, ZERO_SEGMENTS)
        tensors = dict(params.tensors)
        for name in ("dec_w", "dec_b", "up3_w", "up3_b", "up2_w", "up2_b", "up1_w", "up1_b"):
            tensors[name] = np.zeros_like(tensors[name])
        zeroed = ToyVaeParams(tensors, SMALL.vocab_size, SMALL.hidden_width)
        np.testing.assert_array_equal(decode(zeroed, np.ones((2, SMALL.num_dims))), 0.0)

    def test_decoded_rotations_make_a_motion_sequence(self):
        # a zero decoder emits in_shift: here a root rotation of magnitude 6.5 > 2*pi
        params = init_params(SMALL, ZERO_SEGMENTS)
        tensors = {name: np.zeros_like(t) for name, t in params.tensors.items()}
        tensors["in_scale"] = np.ones(FRAME_DIM)
        tensors["in_shift"][3] = 6.5
        shifted = ToyVaeParams(tensors, SMALL.vocab_size, SMALL.hidden_width)
        frames = decode(shifted, np.ones((1, SMALL.num_dims)))
        MotionSequence(frames)
        np.testing.assert_allclose(frames[:, 3], 6.5 - 2 * np.pi)

    def test_padding_repeats_final_frame(self, rng):
        frames = rng.normal(size=(45, FRAME_DIM))
        padded = pad_frames(frames)
        assert padded.shape == (48, FRAME_DIM)
        for row in range(45, 48):
            np.testing.assert_array_equal(padded[row], frames[44])

    def test_segment_count_is_ceil(self, rng):
        assert segment_frames(rng.normal(size=(17, FRAME_DIM))).shape[0] == 3


class TestGradients:
    def test_identity_bottleneck_matches_finite_differences(self, rng):
        segments = small_batch(rng)
        for config in (SMALL, TINY):
            params = init_params(config, ZERO_SEGMENTS)
            _, _, analytic = loss_and_grads(params, segments, standardize(params, segments), config,
                                            quantize=False)
            numeric = finite_difference_grads(params, segments, config, quantize=False)
            assert max_relative_error(analytic, numeric) < 1e-4, config

    def test_decoder_grads_match_fd_with_quantization_on(self, rng):
        # the decoder side sees a locally constant code, so true finite
        # differences of the quantized loss apply to its parameters
        segments = small_batch(rng)
        decoder = ("dec_w", "dec_b", "up3_w", "up3_b", "up2_w", "up2_b", "up1_w", "up1_b")
        for config in (SMALL, TINY):
            params = init_params(config, ZERO_SEGMENTS)
            _, _, analytic = loss_and_grads(params, segments, standardize(params, segments), config,
                                            quantize=True)
            numeric = finite_difference_grads(params, segments, config, quantize=True)
            worst = max_relative_error({k: analytic[k] for k in decoder},
                                       {k: numeric[k] for k in decoder})
            assert worst < 1e-4, config

    def test_straight_through_contract_on_encoder(self, rng):
        # encoder gradients of the quantized reconstruction must equal finite
        # differences of the surrogate where the code offset (bits - z) is
        # frozen at its base value
        segments = small_batch(rng)
        config = dataclasses.replace(SMALL, lambda_commit=0.0, lambda_entropy=0.0)
        params = init_params(config, ZERO_SEGMENTS)
        _, _, analytic = loss_and_grads(params, segments, standardize(params, segments), config,
                                        quantize=True)

        frames = segments.reshape(-1, FRAME_DIM)
        z0 = encode(params, frames)
        shift = np.where(z0 > 0.0, 1.0, -1.0) - z0

        def surrogate(tensors):
            p = ToyVaeParams(tensors, config.vocab_size, config.hidden_width)
            y = decode(p, encode(p, frames) + shift)
            resid = y - frames
            return float((resid * resid).sum() / frames.size)

        eps = 1e-6
        encoder = ("enc1_w", "enc1_b", "enc2_w", "enc2_b", "enc3_w", "enc3_b", "lat_w", "lat_b")
        for name in encoder:
            numeric = np.zeros_like(params.tensors[name])
            for i in range(numeric.size):
                plus = {k: v.copy() for k, v in params.tensors.items()}
                minus = {k: v.copy() for k, v in params.tensors.items()}
                plus[name].reshape(-1)[i] += eps
                minus[name].reshape(-1)[i] -= eps
                numeric.reshape(-1)[i] = (surrogate(plus) - surrogate(minus)) / (2 * eps)
            diff = np.abs(analytic[name] - numeric)
            denom = np.maximum(np.maximum(np.abs(analytic[name]), np.abs(numeric)), 1e-6)
            assert float((diff / denom).max()) < 1e-4


class TestTraining:
    def test_constant_dataset_reconstructs(self, rng):
        pose = rng.normal(0.0, 0.4, size=FRAME_DIM)
        frames = np.tile(pose, (32, 1))
        config = ToyVaeConfig(vocab_size=64, hidden_width=16, lambda_commit=1e-2,
                              lambda_entropy=0.0, learning_rate=0.5, epochs=200, seed=0)
        params, history = train(config, [MotionSequence(frames)])
        assert reconstruction_mse(params, frames) < 1e-3
        assert history[-1]["total"] <= history[0]["total"]

    def test_entropy_term_raises_usage_entropy(self):
        dataset = make_corpus(1, 96, seed=5)
        cb = LfqCodebook(64)
        usage = {"plain": [], "entropy": []}
        for seed in range(10):
            base = ToyVaeConfig(vocab_size=64, hidden_width=16, lambda_commit=1e-2,
                                lambda_entropy=0.0, learning_rate=0.3, epochs=150, seed=seed)
            # MAGVIT-v2's LFQ weights the entropy penalty on the order of the
            # commitment term; at 1/100 of it the commitment gradient fixes
            # every sign bit before the entropy term can flip one.
            with_entropy = dataclasses.replace(base, lambda_entropy=base.lambda_commit)
            for key, config in (("plain", base), ("entropy", with_entropy)):
                params, _ = train(config, dataset)
                tokens = tokenize_frames(params, dataset[0].frames)
                usage[key].append(codebook_utilization(tokens, cb)[1])
        mean_plain = float(np.mean(usage["plain"]))
        mean_entropy = float(np.mean(usage["entropy"]))
        assert mean_entropy > mean_plain, (
            f"mean usage entropy over seeds 0-9: {mean_entropy} with the term, "
            f"{mean_plain} without")

    def test_bit_reproducible(self):
        dataset = make_corpus(2, 48, seed=2)
        config = dataclasses.replace(SMALL, epochs=20)
        params_a, hist_a = train(config, dataset)
        params_b, hist_b = train(config, dataset)
        for name in params_a.tensors:
            np.testing.assert_array_equal(params_a.tensors[name], params_b.tensors[name])
        assert hist_a == hist_b

    def test_recon_loss_matches_loop_oracle(self, rng):
        segments = small_batch(rng, segments=3)
        params = init_params(SMALL, ZERO_SEGMENTS)
        _, parts, _ = loss_and_grads(params, segments, standardize(params, segments), SMALL,
                                     quantize=True)
        z = encode(params, segments.reshape(-1, FRAME_DIM))
        bits = np.where(z > 0.0, 1.0, -1.0)
        recon = decode(params, bits).reshape(segments.shape)
        total = 0.0
        count = 0
        for s in range(segments.shape[0]):
            for t in range(SEGMENT_LEN):
                for c in range(FRAME_DIM):
                    total += (segments[s, t, c] - recon[s, t, c]) ** 2
                    count += 1
        assert abs(parts["recon"] - total / count) < 1e-10

    def test_commit_loss_matches_loop_oracle(self, rng):
        segments = small_batch(rng, segments=3)
        params = init_params(SMALL, ZERO_SEGMENTS)
        _, parts, _ = loss_and_grads(params, segments, standardize(params, segments), SMALL,
                                     quantize=True)
        z = encode(params, segments.reshape(-1, FRAME_DIM))
        total = 0.0
        for s in range(z.shape[0]):
            for i in range(z.shape[1]):
                target = 1.0 if z[s, i] > 0 else -1.0
                total += (z[s, i] - target) ** 2
        assert abs(parts["commit"] - total / z.shape[0]) < 1e-10

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # train keeps overflow to itself
    def test_divergence_raises(self):
        dataset = make_corpus(1, 32, seed=0)
        config = ToyVaeConfig(vocab_size=16, hidden_width=8, learning_rate=1e12,
                              epochs=50, seed=0)
        with pytest.raises(TrainingDiverged):
            train(config, dataset)

    def test_empty_dataset_rejected(self):
        with pytest.raises(VaeError):
            dataset_segments([])

    def test_reconstruct_round_trip_shapes(self, rng):
        params = init_params(SMALL, ZERO_SEGMENTS)
        recon, tokens = reconstruct(params, rng.normal(size=(20, FRAME_DIM)))
        assert recon.shape == (24, FRAME_DIM)
        assert tokens.shape == (3,)
        assert np.all((tokens >= 0) & (tokens < SMALL.vocab_size))


# the two network sizes the trainer tests cover: narrow, and the CLI default
SIZES = [(16, 8), (8192, 32)]


def _row_bytes(row):
    return {key: np.float64(value).tobytes() for key, value in row.items()}


class TestTrainIsPublicLoop:
    @pytest.mark.parametrize("vocab_size,hidden_width", SIZES)
    @pytest.mark.parametrize("lambda_entropy", [0.0, 1e-2])
    def test_train_matches_hand_loop_bit_for_bit(self, vocab_size, hidden_width,
                                                 lambda_entropy):
        dataset = make_corpus(2, 48, seed=2)
        config = ToyVaeConfig(vocab_size=vocab_size, hidden_width=hidden_width,
                              lambda_entropy=lambda_entropy, learning_rate=0.05, epochs=4,
                              seed=1)
        params, history = train(config, dataset)

        # train works in float32: float32 segments give float32 init tensors
        segments = dataset_segments(dataset).astype(np.float32)
        tensors = dict(init_params(config, segments).tensors)
        expected = []
        for epoch in range(config.epochs):
            current = ToyVaeParams(tensors, vocab_size, hidden_width)
            _, parts, grads = loss_and_grads(current, segments, standardize(current, segments),
                                           config, quantize=True)
            expected.append({"epoch": epoch, **parts})
            tensors = {name: t - config.learning_rate * grads[name] if name in grads else t
                       for name, t in tensors.items()}

        assert params.tensors.keys() == tensors.keys()
        for name, t in tensors.items():
            assert params.tensors[name].tobytes() == t.tobytes(), name
        assert [_row_bytes(r) for r in history] == [_row_bytes(r) for r in expected]

    @pytest.mark.parametrize("lambda_entropy", [0.0, 1e-2])
    def test_train_calls_public_functions_once_per_epoch(self, monkeypatch, lambda_entropy):
        # perfbench/tracing.py wraps these module attributes; a private fast
        # path in train would hide the trainer from it
        calls = {"loss_and_grads": 0, "entropy_loss": 0, "entropy_loss_grad": 0}

        def counted(name):
            inner = getattr(vae, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(vae, name, counted(name))
        config = dataclasses.replace(SMALL, lambda_entropy=lambda_entropy, epochs=7)
        train(config, make_corpus(1, 32, seed=0))
        assert calls["loss_and_grads"] == 7
        assert calls["entropy_loss"] == 7
        assert calls["entropy_loss_grad"] == (7 if lambda_entropy > 0 else 0)


def _reference_train(config, dataset):
    """The trainer before its batch was standardized once per run and its
    tensors moved into one flat buffer: each epoch standardizes the batch
    again, and each tensor takes its own update."""
    segments = dataset_segments(dataset).astype(np.float32)
    params = init_params(config, segments)
    tensors = params.tensors
    history = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            total, parts, grads = loss_and_grads(params, segments,
                                                 standardize(params, segments), config,
                                                 quantize=True)
            if not np.isfinite(total):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}: "
                    f"recon={parts['recon']:.3e} commit={parts['commit']:.3e} "
                    f"entropy={parts['entropy']:.3e}"
                )
            history.append({"epoch": epoch, **parts})
            for name in _PARAM_NAMES:
                tensors[name] -= config.learning_rate * grads[name]
    final = ToyVaeParams(tensors=tensors, vocab_size=config.vocab_size,
                         hidden_width=config.hidden_width)
    return final, history


# (sequences, frames); None is the make_corpus() default
CORPORA = [(1, 8), (2, 48), None]


def _corpus(shape):
    return make_corpus() if shape is None else make_corpus(*shape, seed=2)


class TestTrainMatchesReference:
    @pytest.mark.parametrize("corpus", CORPORA)
    @pytest.mark.parametrize("vocab_size", [2, 64, 8192])
    @pytest.mark.parametrize("hidden_width", [1, 3, 32])
    @pytest.mark.parametrize("lambda_entropy", [0.0, 1e-2])
    def test_same_vae_bytes_and_history(self, tmp_path, corpus, vocab_size, hidden_width,
                                        lambda_entropy):
        dataset = _corpus(corpus)
        config = ToyVaeConfig(vocab_size=vocab_size, hidden_width=hidden_width,
                              lambda_entropy=lambda_entropy, learning_rate=0.05, epochs=5,
                              seed=6)
        files = []
        for run, trainer in enumerate((train, _reference_train)):
            params, history = trainer(config, dataset)
            write_vae(tmp_path / f"{run}.vae", params)
            files.append(((tmp_path / f"{run}.vae").read_bytes(),
                          [_row_bytes(row) for row in history]))
        assert files[0] == files[1]

    @pytest.mark.parametrize("learning_rate", [1e5, 1e12])
    def test_same_divergence(self, learning_rate):
        config = ToyVaeConfig(vocab_size=16, hidden_width=8, learning_rate=learning_rate,
                              epochs=50, seed=0)
        dataset = make_corpus(1, 32, seed=0)
        messages = []
        for trainer in (train, _reference_train):
            with pytest.raises(TrainingDiverged) as caught:
                trainer(config, dataset)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

    def test_standardizes_once_per_run(self, monkeypatch):
        calls = []
        inner = vae.standardize

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(vae, "standardize", counted)
        train(dataclasses.replace(SMALL, epochs=7), make_corpus(1, 32, seed=0))
        assert len(calls) == 1


class TestStandardizedArgument:
    @pytest.fixture
    def batch(self, rng):
        params = init_params(SMALL, ZERO_SEGMENTS.astype(np.float32))
        segments = small_batch(rng).astype(np.float32)
        return params, segments, standardize(params, segments)

    @pytest.mark.parametrize("bad", [
        lambda xs: xs[:-1],
        lambda xs: xs.reshape(-1, 2 * SEGMENT_LEN, FRAME_DIM),
        lambda xs: xs.astype(np.float64),
        lambda xs: xs.astype(np.float16),
    ])
    def test_wrong_shape_or_dtype_rejected(self, batch, bad):
        params, segments, standardized = batch
        with pytest.raises(VaeError, match="standardized segments"):
            loss_and_grads(params, segments, bad(standardized), SMALL, quantize=True)

    def test_standardized_batch_left_alone(self, batch):
        # train hands the same standardized batch to every epoch
        params, segments, standardized = batch
        before = standardized.tobytes()
        loss_and_grads(params, segments, standardized, SMALL, quantize=True)
        assert standardized.tobytes() == before


class TestFloat32Training:
    # the default network size: K=8192 at hidden width 32, as train-vae runs it
    CONFIG = ToyVaeConfig(lambda_entropy=1e-2, epochs=6, seed=4)

    def test_written_vae_holds_the_trained_tensors(self, tmp_path):
        params, _ = train(self.CONFIG, make_corpus(2, 48, seed=2))
        assert params.dtype == np.float32
        write_vae(tmp_path / "p.vae", params)
        stored = read_vae(tmp_path / "p.vae")
        assert stored.tensors.keys() == params.tensors.keys()
        for name, t in params.tensors.items():
            assert t.dtype == np.float32, name
            assert stored.tensors[name].astype(np.float32).tobytes() == t.tobytes(), name

    def test_same_config_gives_the_same_bytes(self, tmp_path):
        dataset = make_corpus(2, 48, seed=2)
        files = []
        for run in range(2):
            params, history = train(self.CONFIG, dataset)
            write_vae(tmp_path / f"{run}.vae", params)
            files.append(((tmp_path / f"{run}.vae").read_bytes(),
                          [_row_bytes(row) for row in history]))
        assert files[0] == files[1]


class TestLossAndGradsDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("segments_dtype", [np.float32, np.float64])
    def test_gradients_come_back_in_the_params_dtype(self, rng, dtype, segments_dtype):
        params = init_params(SMALL, ZERO_SEGMENTS.astype(dtype))
        assert params.dtype == dtype
        segments = small_batch(rng).astype(segments_dtype)
        total, parts, grads = loss_and_grads(params, segments, standardize(params, segments),
                                             SMALL, quantize=True)
        assert grads.keys() == set(_PARAM_NAMES)
        assert all(g.dtype == dtype for g in grads.values())
        assert np.isfinite(total) and type(total) is float
        assert all(type(v) is float for v in parts.values())

    def test_mixed_tensor_dtypes_make_float64_params(self):
        tensors = dict(init_params(SMALL, ZERO_SEGMENTS.astype(np.float32)).tensors)
        tensors["in_scale"] = tensors["in_scale"].astype(np.float64)
        params = ToyVaeParams(tensors, SMALL.vocab_size, SMALL.hidden_width)
        assert all(t.dtype == np.float64 for t in params.tensors.values())

    @pytest.mark.parametrize("config", [SMALL, ToyVaeConfig(lambda_entropy=1e-2)])
    @pytest.mark.parametrize("quantize", [True, False])
    def test_float32_gradients_agree_with_float64(self, config, quantize):
        # at float32-representable params and segments, the two precisions
        # differ by rounding only.  The bound, 1e-5 of each tensor's largest
        # gradient, is ~80 float32 eps (1.2e-7), room for the GEMM sums
        segments = dataset_segments(make_corpus(2, 48, seed=2)).astype(np.float32)
        p32 = init_params(config, segments)
        p64 = ToyVaeParams({name: t.astype(np.float64) for name, t in p32.tensors.items()},
                           config.vocab_size, config.hidden_width)
        total32, _, g32 = loss_and_grads(p32, segments, standardize(p32, segments), config,
                                         quantize=quantize)
        total64, _, g64 = loss_and_grads(p64, segments.astype(np.float64),
                                         standardize(p64, segments.astype(np.float64)), config,
                                         quantize=quantize)
        assert total32 == pytest.approx(total64, rel=1e-6)
        for name in _PARAM_NAMES:
            scale = float(np.abs(g64[name]).max())
            np.testing.assert_allclose(g32[name], g64[name], rtol=0, atol=1e-5 * scale,
                                       err_msg=name)


class TestNoInPlaceMutation:
    CONFIG = dataclasses.replace(SMALL, hidden_width=8)

    @pytest.fixture
    def params(self):
        return train(self.CONFIG, make_corpus(2, 48, seed=4))[0]

    @staticmethod
    def _snapshot(params, *arrays):
        return ({name: t.tobytes() for name, t in params.tensors.items()},
                [a.tobytes() for a in arrays])

    @pytest.mark.parametrize("num_frames", [48, 45])
    def test_frame_functions_leave_inputs_alone(self, params, rng, num_frames):
        # at 48 frames pad_frames hands back the caller's own array
        frames = rng.normal(size=(num_frames, FRAME_DIM))
        if num_frames % SEGMENT_LEN == 0:
            assert pad_frames(frames) is frames
        before = self._snapshot(params, frames)
        encode(params, frames)
        reconstruct(params, frames)
        tokenize_frames(params, frames)
        reconstruction_mse(params, frames)
        assert self._snapshot(params, frames) == before

    def test_decode_leaves_float64_codes_alone(self, params, rng):
        # C-contiguous float64 codes pass through np.asarray uncopied
        codes = np.ascontiguousarray(rng.choice([-1.0, 1.0], size=(5, params.num_dims)))
        assert np.asarray(codes, dtype=np.float64) is codes
        before = self._snapshot(params, codes)
        decode(params, codes)
        assert self._snapshot(params, codes) == before

    @pytest.mark.parametrize("quantize", [True, False])
    def test_loss_and_grads_leaves_segments_and_params_alone(self, params, rng, quantize):
        segments = small_batch(rng, segments=3)
        before = self._snapshot(params, segments)
        loss_and_grads(params, segments, standardize(params, segments), self.CONFIG,
                       quantize=quantize)
        assert self._snapshot(params, segments) == before


@pytest.mark.filterwarnings("error::RuntimeWarning")  # train keeps overflow to itself
@pytest.mark.parametrize("vocab_size,hidden_width", SIZES)
@pytest.mark.parametrize("learning_rate", [1e5, 1e8, 1e12, 1e20, 1e50, 1e100, 1e300])
def test_divergence_ladder_raises_training_diverged(vocab_size, hidden_width, learning_rate):
    # train validates its parameters only before and after the loop, so a
    # runaway step must still surface as a non-finite loss, not as a
    # VaeError or QuantizerError from non-finite tensors or latents
    config = ToyVaeConfig(vocab_size=vocab_size, hidden_width=hidden_width,
                          learning_rate=learning_rate, epochs=50, seed=0)
    with pytest.raises(TrainingDiverged):
        train(config, make_corpus(1, 32, seed=0))
