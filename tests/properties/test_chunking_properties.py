"""Property-based tests for chunk partitioning and stitching invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chunks.chunking import overlap, partition, partition_grid_shape
from repro.core.roi import ROISpec, valid_positions_shape


@st.composite
def partition_cases(draw, ndim=2):
    """Random (dataset shape, ROI, chunk shape) with chunk >= ROI <= data."""
    roi = tuple(draw(st.integers(1, 5)) for _ in range(ndim))
    shape = tuple(r + draw(st.integers(0, 20)) for r in roi)
    chunk = tuple(
        min(r + draw(st.integers(0, 12)), s) for r, s in zip(roi, shape)
    )
    return shape, ROISpec(roi), chunk


class TestPartitionProperties:
    @given(partition_cases())
    @settings(max_examples=100, deadline=None)
    def test_ownership_tiles_output_exactly(self, case):
        shape, roi, chunk_shape = case
        grid = valid_positions_shape(shape, roi)
        cover = np.zeros(grid, dtype=int)
        for c in partition(shape, roi, chunk_shape):
            cover[c.own_slices()] += 1
        assert np.all(cover == 1)

    @given(partition_cases())
    @settings(max_examples=100, deadline=None)
    def test_every_owned_roi_inside_chunk_input(self, case):
        shape, roi, chunk_shape = case
        for c in partition(shape, roi, chunk_shape):
            for d in range(len(shape)):
                assert 0 <= c.lo[d] <= c.own_lo[d]
                assert c.own_hi[d] - 1 + roi.shape[d] <= c.hi[d] <= shape[d]

    @given(partition_cases())
    @settings(max_examples=100, deadline=None)
    def test_grid_shape_matches_chunk_count(self, case):
        shape, roi, chunk_shape = case
        grid = partition_grid_shape(shape, roi, chunk_shape)
        assert len(partition(shape, roi, chunk_shape)) == int(np.prod(grid))

    @given(partition_cases(ndim=3))
    @settings(max_examples=50, deadline=None)
    def test_3d_partitions(self, case):
        shape, roi, chunk_shape = case
        total = sum(c.num_rois for c in partition(shape, roi, chunk_shape))
        assert total == int(np.prod(valid_positions_shape(shape, roi)))

    @given(partition_cases())
    @settings(max_examples=60, deadline=None)
    def test_adjacent_overlap_is_roi_minus_one(self, case):
        shape, roi, chunk_shape = case
        chunks = partition(shape, roi, chunk_shape)
        by_index = {c.index: c for c in chunks}
        for c in chunks:
            for d in range(len(shape)):
                nxt = list(c.index)
                nxt[d] += 1
                other = by_index.get(tuple(nxt))
                if other is None:
                    continue
                got = c.hi[d] - other.lo[d]
                # Interior neighbours share exactly ROI-1 input planes
                # (clipped chunks at the border may share fewer).
                assert got <= overlap(roi.shape[d]) + roi.shape[d] - 1
                if c.hi[d] - c.lo[d] == chunk_shape[d]:
                    assert got == overlap(roi.shape[d])


class TestScanGridIsOwnedBox:
    """The stitch filters write scan output by position with no cropping:
    every chunk's raster-scan grid is exactly the box it owns."""

    @given(st.integers(1, 4).flatmap(lambda n: partition_cases(ndim=n)))
    @settings(max_examples=200, deadline=None)
    def test_scan_grid_equals_owned_box(self, case):
        shape, roi, chunk_shape = case
        for c in partition(shape, roi, chunk_shape):
            assert c.lo == c.own_lo
            grid = tuple(s - r + 1 for s, r in zip(c.shape, roi.shape))
            assert grid == c.own_shape
