"""Unit tests for overlapped chunk partitioning (paper Eqs. 1-2)."""

import numpy as np
import pytest

from repro.chunks.chunking import ChunkSpec, overlap, partition, partition_grid_shape
from repro.core.roi import ROISpec, valid_positions_shape


class TestOverlapEquation:
    @pytest.mark.parametrize("r", [1, 2, 5, 16])
    def test_eq_1_and_2(self, r):
        assert overlap(r) == r - 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            overlap(0)


class TestPartition2D:
    def test_adjacent_chunks_overlap_by_roi_minus_one(self):
        roi = ROISpec((5, 3))
        chunks = partition((100, 100), roi, (30, 20))
        by_index = {c.index: c for c in chunks}
        a, b = by_index[(0, 0)], by_index[(1, 0)]
        assert a.hi[0] - b.lo[0] == overlap(5)  # x overlap = 4
        a, b = by_index[(0, 0)], by_index[(0, 1)]
        assert a.hi[1] - b.lo[1] == overlap(3)  # y overlap = 2

    def test_interior_chunk_has_requested_shape(self):
        chunks = partition((100, 100), ROISpec((5, 3)), (30, 20))
        by_index = {c.index: c for c in chunks}
        assert by_index[(0, 0)].shape == (30, 20)
        assert by_index[(1, 1)].shape == (30, 20)

    def test_ownership_tiles_output_exactly(self):
        shape, roi = (53, 47), ROISpec((5, 4))
        out = np.zeros(valid_positions_shape(shape, roi), dtype=int)
        for c in partition(shape, roi, (20, 15)):
            out[c.own_slices()] += 1
        assert np.all(out == 1)

    def test_every_owned_roi_fits_in_chunk_input(self):
        shape, roi = (53, 47), ROISpec((5, 4))
        for c in partition(shape, roi, (20, 15)):
            for d in range(2):
                assert c.own_lo[d] >= c.lo[d]
                assert c.own_hi[d] - 1 + roi.shape[d] <= c.hi[d]
                assert c.hi[d] <= shape[d]


class TestPartition4D:
    def test_paper_chunking(self):
        """Paper setup: 256x256x32x32 data, 5x5x5x3 ROI, 50x50x32x32 chunks."""
        shape = (256, 256, 32, 32)
        roi = ROISpec((5, 5, 5, 3))
        chunk_shape = (50, 50, 32, 32)
        grid = partition_grid_shape(shape, roi, chunk_shape)
        # x/y: 252 outputs / 46 stride -> 6 chunks; z: 28/28 -> 1; t: 30/30 -> 1.
        assert grid == (6, 6, 1, 1)
        chunks = partition(shape, roi, chunk_shape)
        assert len(chunks) == 36
        out = np.zeros(valid_positions_shape(shape, roi), dtype=np.int8)
        for c in chunks:
            out[c.own_slices()] += 1
        assert np.all(out == 1)

    def test_num_rois_sum(self):
        shape, roi = (40, 30, 10, 6), ROISpec((5, 5, 5, 3))
        chunks = partition(shape, roi, (20, 20, 10, 6))
        total = sum(c.num_rois for c in chunks)
        assert total == int(np.prod(valid_positions_shape(shape, roi)))


class TestValidation:
    def test_chunk_smaller_than_roi_rejected(self):
        with pytest.raises(ValueError):
            partition((50, 50), ROISpec((5, 5)), (4, 10))

    def test_roi_too_big_rejected(self):
        with pytest.raises(ValueError):
            partition((4, 50), ROISpec((5, 5)), (5, 10))

    def test_ndim_mismatch(self):
        with pytest.raises(ValueError):
            partition((50, 50, 50), ROISpec((5, 5)), (10, 10))

    def test_single_chunk_degenerate(self):
        shape, roi = (10, 10), ROISpec((3, 3))
        chunks = partition(shape, roi, (10, 10))
        assert len(chunks) == 1
        c = chunks[0]
        assert c.lo == (0, 0) and c.hi == (10, 10)
        assert c.own_shape == (8, 8)
        assert c.num_voxels == 100 and c.num_rois == 64
