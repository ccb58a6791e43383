"""Property-based tests (hypothesis) for the core Haralick kernels."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.backends import KERNELS, get_kernel
from repro.core.cooccurrence import cooccurrence_matrix
from repro.core.directions import canonical_direction, unique_directions
from repro.core.features import HARALICK_FEATURES, PAPER_FEATURES, haralick_features
from repro.core.quantization import quantize_linear
from repro.core.roi import ROISpec

from ..core._dense_oracle import naive_features


def windows_2d(min_side=2, max_side=8, levels=6):
    return hnp.arrays(
        dtype=np.int32,
        shape=st.tuples(
            st.integers(min_side, max_side), st.integers(min_side, max_side)
        ),
        elements=st.integers(0, levels - 1),
    )


class TestCooccurrenceProperties:
    @given(windows_2d())
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, window):
        m = cooccurrence_matrix(window, 6)
        assert np.array_equal(m, m.T)

    @given(windows_2d())
    @settings(max_examples=60, deadline=None)
    def test_total_counts_pair_census(self, window):
        """Sum over the matrix = 2 x (number of in-bounds pairs)."""
        m = cooccurrence_matrix(window, 6)
        nx, ny = window.shape
        pairs = 0
        for v in unique_directions(2):
            dx, dy = abs(v[0]), abs(v[1])
            if nx > dx and ny > dy:
                pairs += (nx - dx) * (ny - dy)
        assert m.sum() == 2 * pairs

    @given(windows_2d(), st.permutations(list(range(6))))
    @settings(max_examples=40, deadline=None)
    def test_grey_level_relabeling_permutes_matrix(self, window, perm):
        """Relabeling grey levels permutes matrix rows/cols identically."""
        perm = np.asarray(perm)
        m1 = cooccurrence_matrix(window, 6)
        m2 = cooccurrence_matrix(perm[window], 6)
        inv = np.argsort(perm)  # m2[i, j] counts pairs with old labels inv[i], inv[j]
        assert np.array_equal(m2, m1[np.ix_(inv, inv)])

    @given(windows_2d())
    @settings(max_examples=40, deadline=None)
    def test_transpose_invariance(self, window):
        """Spatial transpose maps direction set onto itself -> same GLCM."""
        a = cooccurrence_matrix(window, 6)
        b = cooccurrence_matrix(window.T, 6)
        assert np.array_equal(a, b)

    @given(windows_2d(min_side=3, max_side=7))
    @settings(max_examples=30, deadline=None)
    def test_scan_consistent_with_single_windows(self, data):
        roi = ROISpec((2, 2))
        grid = tuple(s - 1 for s in data.shape)
        for kernel in KERNELS:
            for start, mats in get_kernel(kernel)(data, roi, 6, batch=3):
                for k in range(mats.shape[0]):
                    ox, oy = np.unravel_index(start + k, grid)
                    want = cooccurrence_matrix(data[ox : ox + 2, oy : oy + 2], 6)
                    assert np.array_equal(mats[k], want), kernel


class TestFeatureProperties:
    @given(windows_2d())
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_reference(self, window):
        """The batch kernel, whose entropies visit only non-zero cells
        (the paper's zero-skip), against the scalar-loop reference."""
        m = cooccurrence_matrix(window, 6)
        got = haralick_features(m)
        want = naive_features(m)
        for name in HARALICK_FEATURES:
            if name == "mcc":
                continue
            g, w = float(got[name]), want[name]
            if name == "imc2":  # a square root next to zero: compare its square
                g, w = g * g, w * w
            assert g == pytest.approx(w, abs=1e-9), name

    @given(windows_2d(min_side=3))
    @settings(max_examples=60, deadline=None)
    def test_feature_ranges(self, window):
        m = cooccurrence_matrix(window, 6)
        if m.sum() == 0:
            return
        f = haralick_features(m)
        assert 0 <= f["asm"] <= 1
        assert 0 <= f["idm"] <= 1
        assert -1 - 1e-9 <= f["correlation"] <= 1 + 1e-9
        assert f["entropy"] >= 0
        assert f["contrast"] >= 0
        assert f["sum_of_squares"] >= 0
        assert 0 <= f["imc2"] <= 1
        assert 0 <= f["mcc"] <= 1

    @given(windows_2d(), st.integers(2, 50))
    @settings(max_examples=40, deadline=None)
    def test_count_scaling_invariance(self, window, k):
        """Features depend on the normalized p, not raw counts."""
        m = cooccurrence_matrix(window, 6)
        if m.sum() == 0:
            return
        a = haralick_features(m, PAPER_FEATURES)
        b = haralick_features(k * m, PAPER_FEATURES)
        for name in PAPER_FEATURES:
            assert a[name] == pytest.approx(float(b[name]))

    @given(st.integers(0, 5))
    @settings(max_examples=6, deadline=None)
    def test_constant_window_is_maximally_uniform(self, level):
        window = np.full((4, 4), level)
        f = haralick_features(cooccurrence_matrix(window, 6))
        assert f["asm"] == pytest.approx(1.0)
        assert f["idm"] == pytest.approx(1.0)
        assert f["contrast"] == pytest.approx(0.0)
        assert f["entropy"] == pytest.approx(0.0)


class TestQuantizationProperties:
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.integers(1, 200),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        ),
        st.integers(2, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_output_in_range(self, data, levels):
        q = quantize_linear(data, levels)
        assert q.min() >= 0
        assert q.max() <= levels - 1

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.integers(2, 100),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        ),
        st.integers(2, 32),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, data, levels):
        """Quantization preserves intensity ordering."""
        q = quantize_linear(data, levels)
        order = np.argsort(data, kind="stable")
        assert np.all(np.diff(q[order]) >= 0)

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.integers(1, 100),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        )
        | hnp.arrays(dtype=np.uint16, shape=st.integers(1, 100)),
        st.integers(2, 64),
        st.floats(-1e3, 1e3),
        st.floats(1e-3, 1e5),
    )
    @settings(max_examples=100, deadline=None)
    def test_ordinary_input_matches_the_cast_then_clip_form(
        self, data, levels, lo, width
    ):
        """Clipping before the cast changes nothing where the cast was
        defined: finite data, scaled value below 2**31, normal range."""
        hi = lo + width
        scaled = (np.asarray(data, dtype=np.float64) - lo) * (levels / (hi - lo))
        assume(np.abs(scaled).max() < 2.0**31)
        want = np.floor(scaled).astype(np.int32)
        np.clip(want, 0, levels - 1, out=want)
        got = quantize_linear(data, levels, lo=lo, hi=hi)
        assert got.tobytes() == want.tobytes()

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.integers(1, 100),
            elements=st.floats(-1e3, 1e3, allow_nan=False),
        ),
        st.integers(2, 32),
        st.floats(0.1, 10.0),
        st.floats(-5.0, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_affine_invariance(self, data, levels, scale, shift):
        """Affine intensity transforms preserve the quantization on
        well-conditioned data; values on a bin edge may round to the
        neighbouring level after the float transform.  (Data whose range
        is tiny relative to its magnitude suffers catastrophic
        cancellation and is excluded — no binning survives that.)"""
        if data.size:
            rng_ = float(data.max() - data.min())
            mag = float(np.abs(data).max())
            assume(rng_ == 0 or rng_ > 1e-6 * max(mag, 1.0))
        q1 = quantize_linear(data, levels)
        q2 = quantize_linear(data * scale + shift, levels)
        assert np.abs(q1 - q2).max(initial=0) <= 1
        # Ordering is still preserved exactly.
        order = np.argsort(data, kind="stable")
        assert np.all(np.diff(q2[order]) >= 0)


class TestDirectionProperties:
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_canonical_fixed_point(self, v):
        if all(c == 0 for c in v):
            return
        c = canonical_direction(v)
        assert canonical_direction(c) == c
        assert canonical_direction(tuple(-x for x in v)) == c
        # First non-zero component positive.
        first = next(x for x in c if x != 0)
        assert first > 0
