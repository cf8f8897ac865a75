import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from motok.lfq import (
    LfqCodebook,
    QuantizerError,
    TokenStream,
    bits_to_indices,
    codebook_utilization,
    entropy_loss,
    entropy_loss_grad,
    indices_to_bits,
    sign_bits,
)

CB8 = LfqCodebook(8)
CB8192 = LfqCodebook(8192)


class TestCodebook:
    def test_paper_scale(self):
        assert CB8192.num_dims == 13
        assert CB8192.vocab_size == 8192

    def test_rejects_non_power_of_two(self):
        for bad in (0, 1, 3, 100, 2**63):
            with pytest.raises(QuantizerError):
                LfqCodebook(bad)


class TestTokenStream:
    def test_rejects_out_of_range(self):
        with pytest.raises(QuantizerError):
            TokenStream(indices=np.array([8192]), vocab_size=8192, fps=30, is_canonical=False)

    def test_rejects_empty(self):
        with pytest.raises(QuantizerError):
            TokenStream(indices=np.array([], dtype=np.int64), vocab_size=64, fps=30,
                        is_canonical=False)

    @pytest.mark.parametrize("dtype", [np.int64, "<u2"])
    def test_indices_are_a_read_only_int64_copy(self, dtype):
        source = np.array([[3, 1], [4, 1]], dtype=dtype)
        stream = TokenStream(indices=source, vocab_size=64, fps=30, is_canonical=False)
        source[:] = 9
        np.testing.assert_array_equal(stream.indices, [3, 1, 4, 1])
        assert stream.indices.dtype == np.int64 and not stream.indices.flags.writeable


class TestQuantize:
    def test_mixed_signs(self):
        bits = sign_bits(np.array([-0.3, 0.7, 1.2]))
        np.testing.assert_array_equal(bits, [-1, 1, 1])
        assert bits_to_indices(bits) == 6  # 2^1 + 2^2

    def test_all_negative_is_zero(self):
        assert bits_to_indices(sign_bits(np.array([-0.5, -2.0, -0.1]))) == 0

    def test_all_positive_is_max(self):
        assert bits_to_indices(sign_bits(np.full(13, 0.5))) == 8191

    def test_tie_at_zero_maps_to_minus_one(self):
        bits = sign_bits(np.zeros(3))
        np.testing.assert_array_equal(bits, [-1, -1, -1])
        assert bits_to_indices(bits) == 0

    def test_index_to_bits_examples(self):
        np.testing.assert_array_equal(indices_to_bits(np.array([6, 0]), CB8.num_dims),
                                      [[-1, 1, 1], [-1, -1, -1]])
        with pytest.raises(QuantizerError):
            indices_to_bits(np.array([8]), CB8.num_dims)
        with pytest.raises(QuantizerError):
            indices_to_bits(np.array([-1]), CB8.num_dims)

    def test_exhaustive_bijection(self):
        indices = np.arange(CB8192.vocab_size)
        bits = indices_to_bits(indices, CB8192.num_dims)
        np.testing.assert_array_equal(bits_to_indices(bits), indices)

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, 13, elements=st.floats(-100, 100)))
    def test_idempotent(self, z):
        bits = sign_bits(z)
        again = sign_bits(bits.astype(np.float64))
        np.testing.assert_array_equal(again, bits)
        assert bits_to_indices(again) == bits_to_indices(bits)

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(np.float64, 13,
               elements=st.floats(-10, 10).filter(lambda v: v == 0.0 or abs(v) > 1e-30)),
        st.floats(1e-6, 1e6),
    )
    def test_positive_scale_invariance(self, z, scale):
        # magnitudes bounded away from the underflow regime: the invariance is
        # exact in real arithmetic but a denormal times a small scale rounds to 0
        np.testing.assert_array_equal(sign_bits(scale * z), sign_bits(z))


class TestEntropyLoss:
    def test_single_sample_is_zero(self, rng):
        z = rng.normal(size=(1, 13))
        assert abs(entropy_loss(z)) < 1e-12

    def test_opposite_saturated_pair_hits_bound(self):
        z = np.vstack([np.full(13, 10.0), np.full(13, -10.0)])
        loss = entropy_loss(z)
        np.testing.assert_allclose(loss, -13.0 * np.log(2.0), atol=1e-6)

    def test_collapsed_usage_is_zero(self):
        z = np.tile(np.full(13, 10.0), (5, 1))
        assert abs(entropy_loss(z)) < 1e-6

    def test_lower_bound_random_batches(self, rng):
        bound = -13.0 * np.log(2.0)
        for _ in range(200):
            z = rng.normal(0.0, 3.0, size=(rng.integers(1, 9), 13))
            assert entropy_loss(z) >= bound - 1e-12

    def test_rejects_empty_batch(self):
        with pytest.raises(QuantizerError):
            entropy_loss(np.zeros((0, 3)))

    def test_gradient_matches_finite_differences(self, rng):
        z = rng.normal(0.0, 1.5, size=(4, 5))
        grad = entropy_loss_grad(z)
        eps = 1e-6
        for n in range(4):
            for i in range(5):
                zp, zm = z.copy(), z.copy()
                zp[n, i] += eps
                zm[n, i] -= eps
                fd = (entropy_loss(zp) - entropy_loss(zm)) / (2 * eps)
                np.testing.assert_allclose(grad[n, i], fd, rtol=1e-5, atol=1e-9)

    def test_grad_finite_at_saturation(self):
        z = np.array([[40.0, -40.0, 0.0]])
        assert np.all(np.isfinite(entropy_loss_grad(z)))


class TestUtilization:
    def test_all_identical(self):
        frac, ent = codebook_utilization(np.full(100, 7), CB8192)
        assert frac == pytest.approx(1.0 / 8192)
        assert ent == 0.0

    def test_uniform_one_of_each(self):
        frac, ent = codebook_utilization(np.arange(8192), CB8192)
        assert frac == 1.0
        assert ent == pytest.approx(1.0)
        assert type(frac) is float and type(ent) is float

    def test_uniform_sampling_fraction(self, rng):
        draws = rng.integers(0, 8192, size=8192)
        frac, _ = codebook_utilization(draws, CB8192)
        assert abs(frac - (1.0 - 1.0 / np.e)) < 0.02

    def test_out_of_range_rejected(self):
        with pytest.raises(QuantizerError):
            codebook_utilization(np.array([8192]), CB8192)
