"""Unit tests for chunk assembly (IIC) and output stitching (HIC)."""

import numpy as np
import pytest

from repro.chunks.chunking import partition
from repro.chunks.stitch import ChunkAssembler, OutputStitcher
from repro.core.raster import raster_scan
from repro.core.roi import ROISpec, valid_positions_shape


def make_chunk(shape=(12, 10, 6, 4), roi=ROISpec((3, 3, 3, 2)), chunk_shape=(12, 10, 6, 4)):
    return partition(shape, roi, chunk_shape)[0]


def planes(chunk, data):
    """Every ``(t, z)`` plane of a chunk, as IIC hands them to add_plane."""
    return [
        (t, z, data[chunk.lo[0] : chunk.hi[0], chunk.lo[1] : chunk.hi[1], z, t])
        for t in range(chunk.lo[3], chunk.hi[3])
        for z in range(chunk.lo[2], chunk.hi[2])
    ]


class TestChunkAssembler:
    def test_assembles_distributed_pieces(self):
        """Planes read on three storage nodes, interleaved by node."""
        rng = np.random.default_rng(0)
        data = rng.integers(0, 100, size=(12, 10, 6, 4))
        chunk = make_chunk()
        asm = ChunkAssembler(chunk)
        for node in range(3):
            for t, z, plane in planes(chunk, data):
                if (t * 6 + z) % 3 == node:
                    asm.add_plane(t, z, plane)
        assert asm.is_complete
        assert np.array_equal(asm.result(), data)

    def test_order_independent(self):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 100, size=(12, 10, 6, 4))
        chunk = make_chunk()
        asm = ChunkAssembler(chunk)
        for t, z, plane in reversed(planes(chunk, data)):
            asm.add_plane(t, z, plane)
        assert np.array_equal(asm.result(), data)

    def test_incomplete_raises(self):
        chunk = make_chunk()
        asm = ChunkAssembler(chunk)
        assert not asm.is_complete
        assert len(asm.missing) == 6 * 4
        with pytest.raises(RuntimeError):
            asm.result()

    def test_duplicate_plane_rejected(self):
        chunk = make_chunk()
        asm = ChunkAssembler(chunk)
        plane = np.zeros((12, 10), dtype=int)
        asm.add_plane(0, 0, plane)
        with pytest.raises(ValueError, match="twice"):
            asm.add_plane(0, 0, plane)

    def test_wrong_chunk_rejected(self):
        """A plane outside the chunk's (t, z) range belongs to another."""
        chunks = partition((12, 10, 12, 4), ROISpec((3, 3, 3, 2)), (12, 10, 6, 4))
        asm = ChunkAssembler(chunks[0])
        z_other = chunks[1].hi[2] - 1  # beyond chunks[0]'s z range
        assert z_other >= chunks[0].hi[2]
        with pytest.raises(ValueError, match="not part of chunk"):
            asm.add_plane(0, z_other, np.zeros((12, 10), dtype=int))
        with pytest.raises(ValueError, match="not part of chunk"):
            asm.add_plane(4, 0, np.zeros((12, 10), dtype=int))

    def test_wrong_shape_rejected(self):
        chunk = make_chunk()
        with pytest.raises(ValueError, match="in-plane"):
            ChunkAssembler(chunk).add_plane(0, 0, np.zeros((10, 12), dtype=int))

    def test_only_4d_chunks(self):
        chunk = partition((10, 10), ROISpec((3, 3)), (10, 10))[0]
        with pytest.raises(ValueError, match="4D"):
            ChunkAssembler(chunk)

    def test_offset_chunk_planes_land_in_place(self):
        """A chunk whose z and t start at different non-zero offsets."""
        rng = np.random.default_rng(3)
        shape = (8, 6, 12, 9)
        data = rng.integers(0, 50, size=shape)
        chunk = next(
            c for c in partition(shape, ROISpec((3, 3, 3, 2)), (8, 6, 6, 4))
            if c.lo[2] > 0 and c.lo[3] > 0 and c.lo[2] != c.lo[3]
        )
        asm = ChunkAssembler(chunk)
        assert asm.missing == {
            (t, z)
            for t in range(chunk.lo[3], chunk.hi[3])
            for z in range(chunk.lo[2], chunk.hi[2])
        }
        for t, z, plane in planes(chunk, data):
            asm.add_plane(t, z, plane)
        assert np.array_equal(asm.result(), data[chunk.slices()])

    def test_result_keeps_plane_dtype(self):
        chunk = make_chunk()
        data = np.arange(12 * 10 * 6 * 4, dtype=np.uint16).reshape(12, 10, 6, 4)
        asm = ChunkAssembler(chunk)
        for t, z, plane in planes(chunk, data):
            asm.add_plane(t, z, plane)
        out = asm.result()
        assert out.dtype == np.uint16
        assert np.array_equal(out, data)


class TestOutputStitcher:
    def test_stitched_equals_sequential(self):
        """Chunked scan + stitch == whole-volume raster scan."""
        rng = np.random.default_rng(2)
        shape, roi = (20, 18, 8, 5), ROISpec((3, 3, 3, 2))
        data = rng.integers(0, 8, size=shape)
        want = raster_scan(data, roi, 8, features=["asm", "contrast"])

        stitcher = OutputStitcher(shape, roi, ["asm", "contrast"])
        for chunk in partition(shape, roi, (9, 9, 6, 4)):
            local = raster_scan(data[chunk.slices()], roi, 8, features=["asm", "contrast"])
            stitcher.place(chunk, local)
        assert stitcher.is_complete
        got = stitcher.result()
        np.testing.assert_allclose(got["asm"], want["asm"])
        np.testing.assert_allclose(got["contrast"], want["contrast"])

    def test_incomplete_raises(self):
        stitcher = OutputStitcher((10, 10), ROISpec((3, 3)), ["asm"])
        assert stitcher.coverage == 0.0
        with pytest.raises(RuntimeError):
            stitcher.result()

    def test_double_place_rejected(self):
        """A run overlapping placed positions in part is rejected whole."""
        shape, roi = (10, 10), ROISpec((3, 3))
        chunk = partition(shape, roi, (10, 10))[0]
        stitcher = OutputStitcher(shape, roi, ["asm"])
        stitcher.place(chunk, {"asm": np.ones(40)})
        with pytest.raises(ValueError, match="partly placed"):
            stitcher.place(chunk, {"asm": np.full(40, 2.0)}, start=20)
        assert stitcher.coverage == 40 / 64
        assert stitcher.volumes["asm"].sum() == 40.0

    def test_redelivered_run_writes_nothing(self):
        shape, roi = (10, 10), ROISpec((3, 3))
        chunk = partition(shape, roi, (10, 10))[0]
        stitcher = OutputStitcher(shape, roi, ["asm"])
        assert stitcher.place(chunk, {"asm": np.ones(16)}, start=8) == 16
        assert stitcher.place(chunk, {"asm": np.zeros(16)}, start=8) == 0
        assert stitcher.place(chunk, {"asm": np.zeros(0)}, start=3) == 0
        assert stitcher.volumes["asm"].sum() == 16.0
        assert stitcher.coverage == 16 / 64

    def test_runs_land_in_the_owned_box(self):
        """Flat runs of several chunks, out of order, equal the whole
        grids placed at once."""
        rng = np.random.default_rng(4)
        shape, roi = (11, 9, 6), ROISpec((3, 2, 2))
        chunks = partition(shape, roi, (5, 6, 4))
        grids = {c.index: rng.random(c.own_shape) for c in chunks}
        whole = OutputStitcher(shape, roi, ["asm"])
        runs = OutputStitcher(shape, roi, ["asm"])
        pieces = []
        for c in chunks:
            whole.place(c, {"asm": grids[c.index]})
            flat = grids[c.index].reshape(-1)
            cuts = [0, *sorted(rng.choice(np.arange(1, c.num_rois), 2, replace=False)), c.num_rois]
            pieces += [(c, a, flat[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
        for i in rng.permutation(len(pieces)):
            c, start, vals = pieces[i]
            assert runs.place(c, {"asm": vals}, start=start) == len(vals)
        np.testing.assert_array_equal(runs.result()["asm"], whole.result()["asm"])

    @pytest.mark.parametrize(
        "start, asm, idm",
        [(-1, 4, 4), (62, 4, 4), (0, 65, 65), (0, 4, 3)],
        ids=["negative", "past-end", "too-long", "uneven"],
    )
    def test_run_outside_the_chunk_rejected(self, start, asm, idm):
        shape, roi = (10, 10), ROISpec((3, 3))
        chunk = partition(shape, roi, (10, 10))[0]
        stitcher = OutputStitcher(shape, roi, ["asm", "idm"])
        with pytest.raises(ValueError, match="do not fit"):
            stitcher.place(
                chunk, {"asm": np.ones(asm), "idm": np.ones(idm)}, start=start
            )
        assert stitcher.coverage == 0.0
        assert not stitcher.volumes["asm"].any()

    def test_chunk_not_owning_its_scan_grid_rejected(self):
        """A hand-made chunk whose scan grid is not its owned box."""
        from repro.chunks.chunking import ChunkSpec

        shape, roi = (10, 10), ROISpec((3, 3))
        chunk = ChunkSpec(index=(0, 0), lo=(0, 0), hi=(10, 10),
                          own_lo=(1, 0), own_hi=(8, 8))
        stitcher = OutputStitcher(shape, roi, ["asm"])
        with pytest.raises(ValueError, match="scan grid"):
            stitcher.place(chunk, {"asm": np.ones((7, 8))})

    def test_wrong_features_rejected(self):
        shape, roi = (10, 10), ROISpec((3, 3))
        chunk = partition(shape, roi, (10, 10))[0]
        stitcher = OutputStitcher(shape, roi, ["asm"])
        with pytest.raises(ValueError):
            stitcher.place(chunk, {"contrast": np.zeros((8, 8))})

    def test_wrong_local_shape_rejected(self):
        shape, roi = (10, 10), ROISpec((3, 3))
        chunk = partition(shape, roi, (10, 10))[0]
        stitcher = OutputStitcher(shape, roi, ["asm"])
        with pytest.raises(ValueError):
            stitcher.place(chunk, {"asm": np.zeros((5, 5))})
        # Larger than the local grid: slicing the owned region out of it
        # would succeed, so only the shape check catches it.
        with pytest.raises(ValueError, match="local output shape"):
            stitcher.place(chunk, {"asm": np.zeros((9, 9))})

    def test_place_returns_records_written(self):
        shape, roi = (20, 18, 8, 5), ROISpec((3, 3, 3, 2))
        features = ["asm", "contrast"]
        stitcher = OutputStitcher(shape, roi, features)
        total = 0
        for chunk in partition(shape, roi, (9, 9, 6, 4)):
            local_shape = tuple(s - r + 1 for s, r in zip(chunk.shape, roi.shape))
            owned = int(np.prod([s.stop - s.start for s in chunk.own_slices()]))
            records = stitcher.place(
                chunk, {name: np.zeros(local_shape) for name in features}
            )
            assert records == owned * len(features)
            total += records
        assert total == int(np.prod(valid_positions_shape(shape, roi))) * 2

    def test_empty_features_rejected(self):
        with pytest.raises(ValueError):
            OutputStitcher((10, 10), ROISpec((3, 3)), [])
