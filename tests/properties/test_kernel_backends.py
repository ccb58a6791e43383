"""Property-based tests: every scan backend is bit-identical to the
reference Fig. 2 kernel.

The incremental backend is a pure performance reimplementation of
``reference_scan`` — integer count arithmetic only, so equality must be
exact (``array_equal``), not approximate, across
random dimensionalities, ROI shapes (including degenerate extent-1
windows and directions that do not fit the window), direction subsets,
distances >= 1, grey-level counts, batch sizes and the symmetric flag.

``incremental`` has two implementations of its plane histograms, the
compiled pass and the numpy passes (``repro.core.native``).  Every test
that scans is wrapped in ``on_both_implementations``: its body runs on
whichever the machine resolves to (the compiled one wherever a C
compiler exists) and again with the loader's result patched to
"unavailable".
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import backends
from repro.core.backends import (
    KERNELS,
    get_kernel,
    incremental_scan,
    reference_scan,
)
from repro.core.cooccurrence import resolve_directions
from repro.core.directions import all_directions, unique_directions
from repro.core.masking import mask_to_positions, masked_feature_samples
from repro.core.raster import raster_scan
from repro.core.roi import ROISpec, valid_positions_shape
from repro.core.workspace import WORKSPACE_BYTES

from ..conftest import on_both_implementations

# Kernels the generic hypothesis loops compare against the reference.
CPU_KERNELS = tuple(k for k in KERNELS if k != "reference")


def _collect(scan, data, roi, levels, directions, distance, batch, symmetric):
    parts = []
    expect_start = 0
    for start, mats in scan(
        data,
        roi,
        levels,
        directions,
        distance,
        batch=batch,
        symmetric=symmetric,
    ):
        assert start == expect_start, "batches must arrive in raster order"
        assert 0 < mats.shape[0] <= batch
        assert mats.shape[1:] == (levels, levels)
        expect_start += mats.shape[0]
        parts.append(np.asarray(mats))
    out = np.concatenate(parts) if parts else np.zeros((0, levels, levels), int)
    assert out.shape[0] == int(np.prod(valid_positions_shape(data.shape, roi)))
    return out


@st.composite
def scan_cases(draw):
    ndim = draw(st.integers(1, 4))
    # Degenerate extent-1 window axes are allowed and must be handled.
    roi = tuple(draw(st.integers(1, 4)) for _ in range(ndim))
    shape = tuple(r + draw(st.integers(0, 4)) for r in roi)
    levels = draw(st.sampled_from([8, 16, 32]))
    distance = draw(st.integers(1, 2))
    dirs = unique_directions(ndim)
    n = draw(st.integers(1, len(dirs)))
    subset = draw(st.permutations(range(len(dirs))))[:n]
    directions = tuple(dirs[i] for i in sorted(subset))
    batch = draw(st.sampled_from([1, 3, 17, 4096]))
    symmetric = draw(st.booleans())
    seed = draw(st.integers(0, 2**31 - 1))
    data = np.random.default_rng(seed).integers(0, levels, size=shape)
    return data, ROISpec(roi), levels, directions, distance, batch, symmetric


class TestBackendBitIdentity:
    @pytest.mark.parametrize("kernel", CPU_KERNELS)
    @given(case=scan_cases())
    @settings(max_examples=60, deadline=None)
    @on_both_implementations
    def test_bit_identical_to_reference(self, kernel, case):
        data, roi, levels, directions, distance, batch, symmetric = case
        ref = _collect(reference_scan, data, roi, levels, directions,
                       distance, batch, symmetric)
        got = _collect(get_kernel(kernel), data, roi, levels, directions,
                       distance, batch, symmetric)
        assert got.dtype.kind in "iu"
        assert np.array_equal(got, ref)


def _identical(a_scan, b_scan, data, roi, levels, **kw):
    a = [(s, np.array(m)) for s, m in a_scan(data, roi, levels, **kw)]
    b = [(s, np.array(m)) for s, m in b_scan(data, roi, levels, **kw)]
    assert len(a) == len(b)
    for (s0, m0), (s1, m1) in zip(a, b):
        assert s0 == s1
        assert np.array_equal(m0, m1)


@st.composite
def rolling_cases(draw):
    """Scans whose best rolling axis is each axis in turn.

    ``long`` gets the largest grid; the other axes get grid extent 1
    (ROI as wide as the data) or a short one.  ROI extents include 1 and
    the full data shape, directions include negative components (the
    non-canonical half-space), and the batch is 1, a prime, or larger
    than the whole scan.
    """
    ndim = draw(st.integers(1, 4))
    long = draw(st.integers(0, ndim - 1))
    roi = tuple(draw(st.integers(1, 3)) for _ in range(ndim))
    extra = [draw(st.sampled_from([0, 0, 1, 2])) for _ in range(ndim)]
    extra[long] = draw(st.integers(3, 7))
    shape = tuple(r + e for r, e in zip(roi, extra))
    levels = draw(st.sampled_from([4, 8, 16]))
    dirs = [v for v in all_directions(ndim)]
    n = draw(st.integers(1, len(dirs)))
    subset = draw(st.permutations(range(len(dirs))))[:n]
    directions = tuple(dirs[i] for i in sorted(subset))
    distance = draw(st.integers(1, 2))
    batch = draw(st.sampled_from([1, 7, 10**6]))
    symmetric = draw(st.booleans())
    # A tiny block budget cuts scan rows into spans; the default never
    # does at these sizes.
    budget = draw(st.sampled_from([1, 64 * 2**10, WORKSPACE_BYTES]))
    seed = draw(st.integers(0, 2**31 - 1))
    data = np.random.default_rng(seed).integers(0, levels, size=shape)
    return (
        (data, ROISpec(roi), levels, directions, distance, batch, symmetric),
        budget,
    )


class TestRollingAxis:
    """``incremental`` against ``reference`` for every rolling axis."""

    @given(case=rolling_cases())
    @settings(max_examples=150, deadline=None)
    @on_both_implementations
    def test_every_axis_bit_identical(self, case):
        args, budget = case
        data, roi, levels, directions, distance, batch, symmetric = args
        ref = list(reference_scan(
            data, roi, levels, directions, distance,
            batch=batch, symmetric=symmetric,
        ))
        old = backends.WORKSPACE_BYTES
        backends.WORKSPACE_BYTES = budget
        try:
            got = list(incremental_scan(
                data, roi, levels, directions, distance,
                batch=batch, symmetric=symmetric,
            ))
        finally:
            backends.WORKSPACE_BYTES = old
        # Collected without copying and compared only after the
        # generator is exhausted: a yielded batch is never overwritten.
        assert [s for s, _m in got] == [s for s, _m in ref]
        for (_s, m0), (_s1, m1) in zip(got, ref):
            assert m0.dtype.kind in "iu"
            assert np.array_equal(m0, m1)

    @pytest.mark.parametrize("ndim", [1, 2, 3, 4])
    def test_plan_follows_the_only_axis_with_overlap(self, ndim):
        # One position along every axis but ``long``: nothing is shared
        # anywhere else, so that is where the scan must roll.
        for long in range(ndim):
            shape = tuple(9 if i == long else 3 for i in range(ndim))
            grid = valid_positions_shape(shape, ROISpec((3,) * ndim))
            axis, span, _row = backends._rolling_plan(
                grid, (3,) * ndim, resolve_directions(ndim, None, 1), 64,
                WORKSPACE_BYTES,
            )
            assert (axis, span) == (long, 7)

    @on_both_implementations
    def test_yielded_batches_survive_the_generator(self):
        # HCC hands matrices downstream by reference: keep every batch,
        # exhaust the generator, only then look.
        rng = np.random.default_rng(4)
        data = rng.integers(0, 8, size=(4, 11, 5, 4), dtype=np.int32)
        roi = ROISpec((2, 3, 3, 2))
        held = list(incremental_scan(data, roi, 8, batch=7))
        assert len({id(m) for _s, m in held}) == len(held)
        assert not any(
            np.shares_memory(a, b)
            for i, (_s, a) in enumerate(held)
            for _t, b in held[i + 1 :]
        )
        want = list(reference_scan(data, roi, 8, batch=7))
        for (s0, m0), (s1, m1) in zip(held, want):
            assert s0 == s1
            assert np.array_equal(m0, m1)


class TestMegabatchEdgeCases:
    """Deterministic corner cases the rolling kernel must get right:
    they stress the row/plane bookkeeping (degenerate windows, no
    fitting direction), the non-cubic stride math, and the all-equal
    histogram degenerate case.

    Written for the chunk-at-once ``megabatch`` kernel and moved onto
    ``incremental`` when that kernel was deleted; the class keeps its
    name so the test ids stay stable."""

    @on_both_implementations
    def test_degenerate_extent_one_window(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 8, size=(6, 5, 4), dtype=np.int32)
        for roi in [(1, 1, 1), (1, 3, 2), (3, 1, 1), (2, 2, 1)]:
            _identical(incremental_scan, reference_scan, data, ROISpec(roi), 8)

    @on_both_implementations
    def test_no_fitting_direction_yields_zeros(self):
        # A (1, 1) window admits no distance-1 pair at all: every matrix
        # must come back exactly zero, not garbage from an uninitialized
        # accumulator.
        data = np.arange(12, dtype=np.int32).reshape(4, 3) % 8
        out = np.concatenate(
            [np.asarray(m) for _s, m in incremental_scan(data, ROISpec((1, 1)), 8)]
        )
        assert out.shape == (12, 8, 8)
        assert not out.any()

    @on_both_implementations
    def test_non_cubic_chunks(self):
        rng = np.random.default_rng(1)
        for shape, roi in [
            ((13, 4, 3), (3, 2, 2)),
            ((3, 17, 2), (2, 4, 1)),
            ((5, 5, 5, 9), (2, 2, 2, 4)),
            ((2, 2, 2, 2), (2, 2, 2, 2)),
        ]:
            data = rng.integers(0, 16, size=shape, dtype=np.int32)
            _identical(incremental_scan, reference_scan, data, ROISpec(roi), 16)

    @on_both_implementations
    def test_all_levels_equal_volume(self):
        # A constant volume concentrates every count on one diagonal bin.
        data = np.full((6, 5, 4), 3, dtype=np.int32)
        roi = ROISpec((3, 3, 2))
        _identical(incremental_scan, reference_scan, data, roi, 8)
        for _s, m in incremental_scan(data, roi, 8):
            mats = np.asarray(m)
            assert not mats[:, :3, :3].any() or mats[:, 3, 3].all()
            hot = mats.reshape(mats.shape[0], -1)
            assert (hot.sum(axis=1) == mats[:, 3, 3]).all()

    @on_both_implementations
    def test_masked_analysis_matches_reference(self):
        # The default kernel through the full analysis path, restricted
        # by a voxel mask: masked feature samples must match the
        # reference kernel's sample-for-sample.
        rng = np.random.default_rng(2)
        shape = (8, 7, 6, 4)
        data = rng.integers(0, 8, size=shape, dtype=np.int32)
        roi = ROISpec((3, 3, 3, 2))
        mask = np.zeros(shape[:3], dtype=bool)
        mask[2:6, 1:5, 2:4] = True
        positions = mask_to_positions(mask, shape, roi)
        assert positions.any() and not positions.all()
        out = {
            k: masked_feature_samples(
                raster_scan(data, roi, 8, kernel=k), positions
            )
            for k in ("reference", "incremental")
        }
        for name, want in out["reference"].items():
            assert np.array_equal(out["incremental"][name], want), name

    @on_both_implementations
    def test_peak_memory_within_budget(self):
        # This chunk rolls along an inner-but-not-innermost axis and one
        # leading-axis slab is a good share of the workspace; the batch
        # in flight is the only other big allocation.
        rng = np.random.default_rng(3)
        data = rng.integers(0, 32, size=(24, 24, 16, 7), dtype=np.int32)
        roi = ROISpec((5, 5, 5, 3))
        grid = valid_positions_shape(data.shape, roi)
        axis, _span, _row = backends._rolling_plan(
            grid, roi.shape, resolve_directions(4, None, 1), 32 * 32,
            WORKSPACE_BYTES,
        )
        assert axis != data.ndim - 1
        batch_bytes = 2048 * 32 * 32 * 8
        tracemalloc.start()
        try:
            for _ in incremental_scan(data, roi, 32, batch=2048):
                pass
            _cur, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= batch_bytes + 3 * WORKSPACE_BYTES, (
            f"peak {peak / 2**20:.1f} MiB exceeds budget "
            f"{(batch_bytes + 3 * WORKSPACE_BYTES) / 2**20:.1f} MiB"
        )
