"""Unit tests for filter payload types and TextureParams."""

import numpy as np
import pytest

from repro.chunks.chunking import partition
from repro.core.roi import ROISpec
from repro.filters.messages import (
    FeaturePortion,
    MatrixPacket,
    ParameterVolume,
    SlicePortion,
    TextureChunk,
    TextureParams,
    iic_copy_for_chunk,
)


def chunk():
    return partition((20, 20, 8, 4), ROISpec((3, 3, 3, 2)), (20, 20, 8, 4))[0]


class TestTextureParams:
    def test_paper_defaults(self):
        p = TextureParams()
        assert p.roi_shape == (5, 5, 5, 3)
        assert p.levels == 32
        assert p.packet_fraction == pytest.approx(1 / 8)

    def test_no_sparse_option(self):
        with pytest.raises(TypeError):
            TextureParams(sparse=True)

    def test_packet_rois_eighth(self):
        p = TextureParams(roi_shape=(3, 3, 3, 2))
        c = chunk()
        assert p.packet_rois(c) == int(np.ceil(c.num_rois / 8))

    def test_quantize_uses_fixed_range(self):
        p = TextureParams(levels=4, intensity_range=(0.0, 100.0))
        q = p.quantize(np.array([0.0, 30.0, 99.9]))
        assert list(q) == [0, 1, 3]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(features=()),
            dict(features=("bogus",)),
            dict(packet_fraction=0),
            dict(packet_fraction=1.5),
            dict(intensity_range=(5.0, 5.0)),
            dict(roi_shape=(0, 3)),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises((ValueError, KeyError)):
            TextureParams(**kwargs)


class TestPayloads:
    def test_slice_portion_shape_check(self):
        with pytest.raises(ValueError):
            SlicePortion(t=0, z=0, x0=0, x1=4, y0=0, y1=4, data=np.zeros((3, 4)))

    def test_slice_portion_nbytes(self):
        p = SlicePortion(0, 0, 0, 4, 0, 5, np.zeros((4, 5), dtype=np.uint16))
        assert p.nbytes == 40

    def test_texture_chunk_nbytes(self):
        c = chunk()
        tc = TextureChunk(chunk=c, data=np.zeros(c.shape, dtype=np.uint16))
        assert tc.nbytes == c.num_voxels * 2

    def test_matrix_packet_shape_validation(self):
        for shape in [(4, 4), (2, 4, 5), (1, 2, 4, 4)]:
            with pytest.raises(ValueError):
                MatrixPacket(chunk=chunk(), start=0, dense=np.zeros(shape))

    def test_matrix_packet_nbytes(self):
        packet = MatrixPacket(
            chunk=chunk(), start=0, dense=np.zeros((3, 32, 32), dtype=np.int64)
        )
        assert packet.count == 3
        assert packet.nbytes == 3 * 32 * 32 * 8

    def test_feature_portion_consistency(self):
        c = chunk()
        with pytest.raises(ValueError):
            FeaturePortion(
                chunk=c, start=0, values={"a": np.zeros(3), "b": np.zeros(4)}
            )
        fp = FeaturePortion(chunk=c, start=5, values={"a": np.zeros(3)})
        assert fp.count == 3
        assert fp.nbytes == 3 * 8

    def test_parameter_volume(self):
        pv = ParameterVolume("asm", np.zeros((4, 4, 2, 2)), 0.0, 1.0)
        assert pv.nbytes == 4 * 4 * 2 * 2 * 8


class TestIICAssignment:
    def test_round_robin(self):
        assert [iic_copy_for_chunk(i, 3) for i in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_single_copy(self):
        assert iic_copy_for_chunk(7, 1) == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            iic_copy_for_chunk(0, 0)
