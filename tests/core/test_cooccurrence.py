"""Unit tests for co-occurrence matrix computation."""

import numpy as np
import pytest

from repro.core.backends import KERNELS, _rolling_codes, get_kernel
from repro.core.cooccurrence import cooccurrence_matrix, resolve_directions
from repro.core.roi import ROISpec, valid_positions_shape

from ..conftest import on_both_implementations


def brute_force_glcm(window, levels, directions, symmetric=True):
    """Independent O(n * d) reference: explicit pair enumeration."""
    window = np.asarray(window)
    out = np.zeros((levels, levels), dtype=np.int64)
    for v in directions:
        for idx in np.ndindex(window.shape):
            jdx = tuple(i + c for i, c in zip(idx, v))
            if all(0 <= j < s for j, s in zip(jdx, window.shape)):
                out[window[idx], window[jdx]] += 1
    if symmetric:
        out = out + out.T
    return out


class TestCooccurrenceMatrix:
    def test_known_2d_example(self):
        # Classic Haralick-style toy image.
        img = np.array([[0, 0, 1, 1], [0, 0, 1, 1], [0, 2, 2, 2], [2, 2, 3, 3]])
        m = cooccurrence_matrix(img, 4, directions=[(0, 1)])  # horizontal
        # Pairs (a, b) one step right, counted symmetrically.
        expected = np.array(
            [[4, 2, 1, 0], [2, 4, 0, 0], [1, 0, 6, 1], [0, 0, 1, 2]], dtype=np.int64
        )
        assert np.array_equal(m, m.T)
        assert np.array_equal(m, expected)

    @pytest.mark.parametrize("ndim", [2, 3, 4])
    def test_matches_brute_force_all_directions(self, ndim):
        rng = np.random.default_rng(ndim)
        shape = (6, 5, 4, 3)[:ndim]
        window = rng.integers(0, 5, size=shape)
        dirs = resolve_directions(ndim, None, 1)
        got = cooccurrence_matrix(window, 5)
        want = brute_force_glcm(window, 5, dirs)
        assert np.array_equal(got, want)

    def test_symmetry_property(self):
        rng = np.random.default_rng(7)
        window = rng.integers(0, 8, size=(5, 5, 5, 3))
        m = cooccurrence_matrix(window, 8)
        assert np.array_equal(m, m.T)

    def test_always_g_by_g(self):
        """Paper Property 3: size fixed by G, independent of direction."""
        window = np.zeros((4, 4), dtype=int)
        for g in (2, 16, 32, 64):
            assert cooccurrence_matrix(window, g).shape == (g, g)

    def test_mri_like_density(self):
        """Typical requantized MRI ROIs are sparse (paper 4.4.1): a smooth
        field quantized to 32 levels fills few of the 528 distinct cells
        (the upper triangle of the symmetric matrix)."""
        from scipy.ndimage import gaussian_filter

        from repro.core.quantization import quantize_linear

        rng = np.random.default_rng(0)
        smooth = gaussian_filter(rng.normal(size=(9, 9, 9, 5)), sigma=2.0)
        window = quantize_linear(smooth, 32)[:5, :5, :5, :3]
        m = cooccurrence_matrix(window, 32)
        # Far below the 528 unique cells (paper reports ~2% on real MRI).
        assert np.count_nonzero(np.triu(m)) / (32 * 33 / 2) < 0.2

    def test_opposite_directions_equal(self):
        """Paper Property 1: v and -v give the same matrix."""
        rng = np.random.default_rng(3)
        window = rng.integers(0, 6, size=(6, 6))
        a = cooccurrence_matrix(window, 6, directions=[(1, -1)])
        b = cooccurrence_matrix(window, 6, directions=[(-1, 1)])
        assert np.array_equal(a, b)

    def test_distance_scaling(self):
        img = np.array([[0, 1, 0, 1]])
        # Distance 2 horizontally pairs equal values only: (0->0, 1->1),
        # each counted once per order (symmetric).
        m = cooccurrence_matrix(img, 2, directions=[(0, 1)], distance=2)
        assert m[0, 0] == 2 and m[1, 1] == 2 and m[0, 1] == 0

    def test_total_count(self):
        # n pixels in a row, one direction, symmetric: 2*(n-1) pairs.
        img = np.arange(7).reshape(1, 7) % 3
        m = cooccurrence_matrix(img, 3, directions=[(0, 1)])
        assert m.sum() == 2 * 6

    def test_asymmetric_mode(self):
        img = np.array([[0, 1]])
        m = cooccurrence_matrix(img, 2, directions=[(0, 1)], symmetric=False)
        assert m[0, 1] == 1 and m[1, 0] == 0

    def test_direction_longer_than_window_skipped(self):
        img = np.array([[0, 1]])
        m = cooccurrence_matrix(img, 2, directions=[(1, 0)])  # no vertical room
        assert m.sum() == 0

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError):
            cooccurrence_matrix(np.array([[0, 9]]), 4)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            cooccurrence_matrix(np.zeros((2, 2), int), 4, directions=[(0, 0)])

    def test_wrong_direction_ndim_rejected(self):
        with pytest.raises(ValueError):
            cooccurrence_matrix(np.zeros((2, 2), int), 4, directions=[(1, 0, 0)])


class TestPairCodeArray:
    """The pair codes ``a*G + b`` the incremental scan histograms: one
    flat array, direction ``k`` at offset ``k * data.size``, each code
    at the low corner ``q`` of its pair."""

    def test_codes_and_shape(self):
        data = np.array([[0, 1], [2, 3]])
        codes, faces = _rolling_codes(data, (2, 2), 4, [(0, 1), (1, 0)])
        assert codes.shape == (2 * data.size,)
        right, down = codes.reshape(2, 2, 2)
        assert right[:, 0].tolist() == [0 * 4 + 1, 2 * 4 + 3]
        assert down[0].tolist() == [0 * 4 + 2, 1 * 4 + 3]
        # Windows read direction k's codes through one face of offsets,
        # grouped by the window's extent along the innermost axis.
        assert sorted(faces) == [1, 2]
        assert faces[1].tolist() == [0, 2]
        assert faces[2].tolist() == [4]

    def test_negative_component_offset(self):
        data = np.array([[0, 1], [2, 3]])
        codes, _faces = _rolling_codes(data, (2, 2), 4, [(0, -1)])
        # The pair at low corner (i, 0) runs from (i, 1) to (i, 0).
        assert codes.reshape(2, 2)[:, 0].tolist() == [1 * 4 + 0, 3 * 4 + 2]


class TestCooccurrenceScan:
    """The scan contract, checked on every registered kernel (and on
    both implementations of ``incremental``)."""

    @pytest.mark.parametrize(
        "shape,roi_shape",
        [((8, 8), (3, 3)), ((6, 5, 4), (3, 3, 2)), ((6, 6, 5, 4), (3, 3, 3, 2))],
    )
    @on_both_implementations
    def test_matches_per_window_kernel(self, shape, roi_shape):
        rng = np.random.default_rng(42)
        data = rng.integers(0, 6, size=shape)
        roi = ROISpec(roi_shape)
        grid = valid_positions_shape(shape, roi)
        npos = int(np.prod(grid))
        want = [
            cooccurrence_matrix(
                data[tuple(slice(o, o + r) for o, r in zip(origin, roi_shape))], 6
            )
            for origin in np.ndindex(grid)
        ]
        for kernel in KERNELS:
            collected = np.zeros((npos, 6, 6), dtype=np.int64)
            for start, mats in get_kernel(kernel)(data, roi, 6, batch=7):
                collected[start : start + mats.shape[0]] = mats
            for k, origin in enumerate(np.ndindex(grid)):
                assert np.array_equal(collected[k], want[k]), (kernel, origin)

    @on_both_implementations
    def test_batch_boundaries(self):
        data = np.random.default_rng(0).integers(0, 4, size=(5, 5))
        roi = ROISpec((2, 2))
        for kernel in KERNELS:
            batches = list(get_kernel(kernel)(data, roi, 4, batch=5))
            assert [s for s, _ in batches] == [0, 5, 10, 15], kernel
            assert [m.shape[0] for _, m in batches] == [5, 5, 5, 1], kernel

    @on_both_implementations
    def test_single_position(self):
        data = np.random.default_rng(1).integers(0, 4, size=(3, 3))
        roi = ROISpec((3, 3))
        for kernel in KERNELS:
            batches = list(get_kernel(kernel)(data, roi, 4))
            assert len(batches) == 1, kernel
            assert batches[0][0] == 0, kernel
            assert batches[0][1].shape == (1, 4, 4), kernel
            assert np.array_equal(batches[0][1][0], cooccurrence_matrix(data, 4))

    def test_invalid_batch(self):
        for kernel in KERNELS:
            with pytest.raises(ValueError, match="batch"):
                list(get_kernel(kernel)(np.zeros((4, 4), int), ROISpec((2, 2)),
                                        4, batch=0))

    def test_roi_larger_than_data(self):
        for kernel in KERNELS:
            with pytest.raises(ValueError):
                list(get_kernel(kernel)(np.zeros((2, 2), int), ROISpec((3, 3)), 4))
