"""Unit tests for grey-level requantization."""

import numpy as np
import pytest

from repro.core.quantization import quantize_equalized, quantize_linear


class TestQuantizeLinear:
    def test_range_maps_onto_all_levels(self):
        data = np.arange(0, 65536, dtype=np.uint16)
        q = quantize_linear(data, 32)
        assert q.min() == 0
        assert q.max() == 31
        assert set(np.unique(q)) == set(range(32))

    def test_uniform_bin_widths(self):
        data = np.arange(320)
        q = quantize_linear(data, 32)
        counts = np.bincount(q, minlength=32)
        assert np.all(counts == 10)

    def test_constant_image_maps_to_zero(self):
        q = quantize_linear(np.full((4, 4), 7.0), 16)
        assert np.all(q == 0)

    def test_explicit_range_clips(self):
        data = np.array([-10.0, 0.0, 50.0, 100.0, 200.0])
        q = quantize_linear(data, 10, lo=0.0, hi=100.0)
        assert q[0] == 0  # clipped below
        assert q[-1] == 9  # clipped above
        assert q[2] == 5

    def test_output_dtype_and_shape(self):
        data = np.random.default_rng(0).random((3, 4, 5, 6))
        q = quantize_linear(data, 8)
        assert q.dtype == np.int32
        assert q.shape == data.shape

    def test_empty_input(self):
        q = quantize_linear(np.zeros((0, 4)), 8)
        assert q.shape == (0, 4)

    def test_max_value_in_last_bin(self):
        # The maximum must land in level G-1, not G (boundary handling).
        q = quantize_linear(np.array([0.0, 1.0]), 4)
        assert list(q) == [0, 3]

    @pytest.mark.parametrize("bad", [0, 1, -3, 2.5, 100000])
    def test_invalid_levels_rejected(self, bad):
        with pytest.raises(ValueError):
            quantize_linear(np.zeros(4), bad)

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            quantize_linear(np.zeros(4), 8, lo=10, hi=0)

    def test_far_above_range_clips_to_top_level(self):
        # Scaled values past 2**31 used to wrap in the int32 cast.
        q = quantize_linear(np.array([0.5, 2.0, 1e9, 1e12]), 32, lo=0, hi=1)
        assert list(q) == [16, 31, 31, 31]

    def test_infinities_are_out_of_range(self):
        q = quantize_linear(np.array([np.inf, -np.inf, 0.5]), 32, lo=0, hi=1)
        assert list(q) == [31, 0, 16]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_rejected(self, dtype):
        data = np.array([0.0, np.nan, 1.0], dtype=dtype)
        with pytest.raises(ValueError, match="NaN"):
            quantize_linear(data, 32, lo=0, hi=1)
        with pytest.raises(ValueError, match="NaN"):
            quantize_linear(data, 32)

    def test_infinite_range_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            quantize_linear(np.array([0.0, np.inf]), 8)
        with pytest.raises(ValueError, match="not finite"):
            quantize_linear(np.zeros(4), 8, lo=0, hi=np.inf)

    def test_denormal_range_is_monotone(self):
        # levels / (hi - lo) overflows to inf here; 0 * inf was NaN.
        data = np.array([0.0, 5e-324, 1e-323, 1.5e-323])
        q = quantize_linear(data, 4)
        assert np.all(np.diff(q) >= 0)
        assert (q[0], q[-1]) == (0, 3)


class TestQuantizeEqualized:
    def test_balanced_mass_per_level(self):
        rng = np.random.default_rng(1)
        data = rng.exponential(size=100_000)  # strongly skewed
        q = quantize_equalized(data, 8)
        counts = np.bincount(q, minlength=8)
        # Each level should carry roughly 1/8 of the samples.
        assert counts.min() > 0.8 * data.size / 8
        assert counts.max() < 1.2 * data.size / 8

    def test_levels_in_range(self):
        data = np.random.default_rng(2).normal(size=1000)
        q = quantize_equalized(data, 16)
        assert q.min() >= 0
        assert q.max() <= 15

    def test_monotone_in_intensity(self):
        data = np.linspace(0, 1, 64)
        q = quantize_equalized(data, 4)
        assert np.all(np.diff(q) >= 0)

    def test_empty_input(self):
        assert quantize_equalized(np.zeros(0), 4).shape == (0,)
