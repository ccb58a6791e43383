"""Unit tests for individual application filters (outside any runtime)."""

import os
from typing import Any, Dict, List, Optional

import numpy as np
import pytest

from repro.chunks.chunking import partition
from repro.core.quantization import quantize_linear
from repro.core.raster import raster_scan
from repro.core.roi import ROISpec
from repro.data.synthetic import PhantomConfig, generate_phantom
from repro.datacutter.buffers import DataBuffer
from repro.datacutter.filter import FilterContext
from repro.filters.hcc import HaralickCoMatrixCalculator
from repro.filters.hic import HaralickImageConstructor
from repro.filters.hmp import HaralickMatrixProducer
from repro.filters.hpc import HaralickParameterCalculator
from repro.filters.iic import InputImageConstructor
from repro.filters.jiw import JPGImageWriter, normalize_volume
from repro.filters.messages import (
    FeaturePortion,
    ParameterVolume,
    SlicePortion,
    TextureChunk,
    TextureParams,
)
from repro.filters.rfr import RawFileReader, inplane_blocks
from repro.filters.uso import UnstitchedOutput, combine_uso_outputs, read_uso_records
from repro.storage.dataset import write_dataset


class FakeContext(FilterContext):
    """Captures sends/deposits for single-filter unit tests."""

    def __init__(self, copy_index=0, num_copies=1):
        super().__init__("test", copy_index, num_copies)
        self.sent: List[Dict[str, Any]] = []
        self.deposited: List = []

    def send(self, stream, payload, size_bytes=0, metadata=None, dest_copy=None):
        self.sent.append(
            dict(
                stream=stream,
                payload=payload,
                size_bytes=size_bytes,
                metadata=metadata or {},
                dest_copy=dest_copy,
            )
        )

    def deposit(self, key, value):
        self.deposited.append((key, value))


PARAMS = TextureParams(
    roi_shape=(3, 3, 3, 2),
    levels=8,
    features=("asm", "idm"),
    intensity_range=(0.0, 4095.0),
)
SHAPE = (12, 10, 6, 4)


@pytest.fixture(scope="module")
def volume():
    return generate_phantom(PhantomConfig(shape=SHAPE, seed=2))


@pytest.fixture(scope="module")
def dataset_root(tmp_path_factory, volume):
    root = str(tmp_path_factory.mktemp("filters_ds") / "data")
    write_dataset(volume, root, num_nodes=2)
    return root


def the_chunk():
    return partition(SHAPE, PARAMS.roi, SHAPE)[0]


class TestInplaneBlocks:
    def test_whole_slice_default(self):
        assert inplane_blocks((10, 8), None) == [(0, 10, 0, 8)]

    def test_tiling(self):
        blocks = inplane_blocks((10, 8), (6, 5))
        assert (0, 6, 0, 5) in blocks
        assert (6, 10, 5, 8) in blocks
        covered = np.zeros((10, 8), dtype=int)
        for x0, x1, y0, y1 in blocks:
            covered[x0:x1, y0:y1] += 1
        assert np.all(covered == 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            inplane_blocks((10, 8), (0, 4))


class TestRFR:
    def test_reads_only_local_slices(self, dataset_root, volume):
        chunks = [the_chunk()]
        rfr = RawFileReader(dataset_root, chunks, num_iic_copies=1, node=0)
        ctx = FakeContext()
        rfr.initialize(ctx)
        rfr.generate(ctx)
        sent_keys = {(s["payload"].t, s["payload"].z) for s in ctx.sent}
        from repro.storage.distribution import slices_for_node

        assert sent_keys == set(slices_for_node(0, 4, 6, 2))
        for s in ctx.sent:
            p = s["payload"]
            assert np.array_equal(p.data, volume.get_slice(p.t, p.z))
            assert s["dest_copy"] == 0

    def test_node_from_copy_index(self, dataset_root):
        rfr = RawFileReader(dataset_root, [the_chunk()], num_iic_copies=1)
        ctx = FakeContext(copy_index=1, num_copies=2)
        rfr.initialize(ctx)
        assert rfr.node == 1

    def test_bad_node_rejected(self, dataset_root):
        rfr = RawFileReader(dataset_root, [the_chunk()], num_iic_copies=1, node=9)
        with pytest.raises(ValueError):
            rfr.initialize(FakeContext())

    def test_destinations_deduplicated(self, dataset_root):
        # Two chunks assigned to the same IIC copy -> one send per slice.
        chunks = partition(SHAPE, PARAMS.roi, (7, 10, 6, 4))
        assert len(chunks) == 2
        rfr = RawFileReader(dataset_root, chunks, num_iic_copies=1, node=0)
        ctx = FakeContext()
        rfr.initialize(ctx)
        rfr.generate(ctx)
        keys = [(s["payload"].t, s["payload"].z) for s in ctx.sent]
        assert len(keys) == len(set(keys))


class TestIIC:
    def test_assembles_and_emits(self, volume):
        chunk = the_chunk()
        iic = InputImageConstructor([chunk])
        ctx = FakeContext()
        iic.initialize(ctx)
        for t in range(4):
            for z in range(6):
                portion = SlicePortion(
                    t=t, z=z, x0=0, x1=12, y0=0, y1=10, data=volume.get_slice(t, z)
                )
                iic.process("rfr2iic", DataBuffer(portion), ctx)
        assert len(ctx.sent) == 1
        tc = ctx.sent[0]["payload"]
        assert isinstance(tc, TextureChunk)
        assert np.array_equal(tc.data, volume.data)
        iic.finalize(ctx)  # complete -> no error

    def test_partial_inplane_portions(self, volume):
        chunk = the_chunk()
        iic = InputImageConstructor([chunk])
        ctx = FakeContext()
        iic.initialize(ctx)
        for t in range(4):
            for z in range(6):
                img = volume.get_slice(t, z)
                # Deliver each plane as two half-slices.
                for (x0, x1) in ((0, 7), (7, 12)):
                    portion = SlicePortion(
                        t=t, z=z, x0=x0, x1=x1, y0=0, y1=10, data=img[x0:x1]
                    )
                    iic.process("rfr2iic", DataBuffer(portion), ctx)
        assert len(ctx.sent) == 1
        assert np.array_equal(ctx.sent[0]["payload"].data, volume.data)

    def test_incomplete_finalize_raises(self, volume):
        iic = InputImageConstructor([the_chunk()])
        ctx = FakeContext()
        iic.initialize(ctx)
        portion = SlicePortion(
            t=0, z=0, x0=0, x1=12, y0=0, y1=10, data=volume.get_slice(0, 0)
        )
        iic.process("rfr2iic", DataBuffer(portion), ctx)
        with pytest.raises(RuntimeError):
            iic.finalize(ctx)

    def test_wrong_payload_type(self):
        iic = InputImageConstructor([the_chunk()])
        ctx = FakeContext()
        iic.initialize(ctx)
        with pytest.raises(TypeError):
            iic.process("rfr2iic", DataBuffer("nonsense"), ctx)

    def test_copy_only_handles_assigned_chunks(self, volume):
        chunks = partition(SHAPE, PARAMS.roi, (7, 10, 6, 4))
        iic = InputImageConstructor(chunks)
        ctx = FakeContext(copy_index=0, num_copies=2)
        iic.initialize(ctx)  # copy 0 owns chunk 0 only
        for t in range(4):
            for z in range(6):
                portion = SlicePortion(
                    t=t, z=z, x0=0, x1=12, y0=0, y1=10, data=volume.get_slice(t, z)
                )
                iic.process("rfr2iic", DataBuffer(portion), ctx)
        assert len(ctx.sent) == 1
        assert ctx.sent[0]["payload"].chunk.index == chunks[0].index
        iic.finalize(ctx)


class TestTextureFilters:
    def expected(self, volume):
        q = quantize_linear(volume.data, 8, lo=0.0, hi=4095.0)
        return raster_scan(q, PARAMS.roi, 8, features=PARAMS.features)

    def run_hmp(self, volume, params):
        hmp = HaralickMatrixProducer(params)
        ctx = FakeContext()
        hmp.process(
            "iic2tex", DataBuffer(TextureChunk(the_chunk(), volume.data)), ctx
        )
        return ctx.sent

    def test_hmp_produces_correct_features(self, volume):
        sent = self.run_hmp(volume, PARAMS)
        want = self.expected(volume)
        got = np.zeros(want["asm"].size)
        for s in sent:
            fp = s["payload"]
            got[fp.start : fp.start + fp.count] = fp.values["asm"]
        np.testing.assert_allclose(got.reshape(want["asm"].shape), want["asm"])

    def test_hmp_packets_are_eighths(self, volume):
        sent = self.run_hmp(volume, PARAMS)
        assert 8 <= len(sent) <= 9
        total = sum(s["payload"].count for s in sent)
        grid = np.prod([s - r + 1 for s, r in zip(SHAPE, PARAMS.roi_shape)])
        assert total == grid

    def test_hcc_hpc_equals_hmp(self, volume):
        hcc = HaralickCoMatrixCalculator(PARAMS)
        ctx1 = FakeContext()
        hcc.process("iic2tex", DataBuffer(TextureChunk(the_chunk(), volume.data)), ctx1)
        hpc = HaralickParameterCalculator(PARAMS)
        ctx2 = FakeContext()
        for s in ctx1.sent:
            hpc.process("hcc2hpc", DataBuffer(s["payload"]), ctx2)
        hmp_sent = self.run_hmp(volume, PARAMS)
        for shpc, shmp in zip(ctx2.sent, hmp_sent):
            np.testing.assert_allclose(
                shpc["payload"].values["idm"], shmp["payload"].values["idm"]
            )

    def test_hcc_size_bytes_is_packet_nbytes(self, volume):
        hcc = HaralickCoMatrixCalculator(PARAMS)
        ctx = FakeContext()
        hcc.process("iic2tex", DataBuffer(TextureChunk(the_chunk(), volume.data)), ctx)
        assert ctx.sent
        for s in ctx.sent:
            packet = s["payload"]
            assert s["size_bytes"] == packet.nbytes == packet.dense.nbytes
            assert packet.nbytes == packet.count * 8 * 8 * 8  # int64, G=8

    def test_wrong_payloads(self, volume):
        with pytest.raises(TypeError):
            HaralickMatrixProducer(PARAMS).process("s", DataBuffer(1), FakeContext())
        with pytest.raises(TypeError):
            HaralickCoMatrixCalculator(PARAMS).process("s", DataBuffer(1), FakeContext())
        with pytest.raises(TypeError):
            HaralickParameterCalculator(PARAMS).process("s", DataBuffer(1), FakeContext())


class TestOutputFilters:
    def portions(self, volume):
        hmp = HaralickMatrixProducer(PARAMS)
        ctx = FakeContext()
        hmp.process("iic2tex", DataBuffer(TextureChunk(the_chunk(), volume.data)), ctx)
        return [s["payload"] for s in ctx.sent]

    def test_uso_round_trip(self, volume, tmp_path):
        uso = UnstitchedOutput(str(tmp_path), PARAMS.roi_shape)
        ctx = FakeContext()
        uso.initialize(ctx)
        for fp in self.portions(volume):
            uso.process("tex2out", DataBuffer(fp), ctx)
        uso.finalize(ctx)
        files = {v["feature"]: v["path"] for k, v in ctx.deposited if k == "uso_files"}
        assert set(files) == {"asm", "idm"}
        out_shape = tuple(s - r + 1 for s, r in zip(SHAPE, PARAMS.roi_shape))
        rebuilt = combine_uso_outputs([files["asm"]], out_shape)
        q = quantize_linear(volume.data, 8, lo=0.0, hi=4095.0)
        want = raster_scan(q, PARAMS.roi, 8, features=("asm",))["asm"]
        np.testing.assert_allclose(rebuilt, want)

    def test_uso_record_format(self, volume, tmp_path):
        uso = UnstitchedOutput(str(tmp_path), PARAMS.roi_shape)
        ctx = FakeContext()
        uso.initialize(ctx)
        fps = self.portions(volume)
        uso.process("tex2out", DataBuffer(fps[0]), ctx)
        uso.finalize(ctx)
        path = next(v["path"] for k, v in ctx.deposited if v["feature"] == "asm")
        coords, vals = read_uso_records(path, ndim=4)
        assert coords.shape[1] == 4
        assert coords.shape[0] == vals.shape[0] == fps[0].count

    def test_combine_detects_missing(self, tmp_path):
        path = str(tmp_path / "x.uso")
        rec = np.zeros(1, dtype=[("pos", "<u4", (2,)), ("val", "<f8")])
        with open(path, "wb") as fh:
            fh.write(rec.tobytes())
        with pytest.raises(ValueError):
            combine_uso_outputs([path], (4, 4))

    def test_combine_detects_duplicates(self, tmp_path):
        path = str(tmp_path / "x.uso")
        rec = np.zeros(2, dtype=[("pos", "<u4", (2,)), ("val", "<f8")])
        with open(path, "wb") as fh:
            fh.write(rec.tobytes())
        with pytest.raises(ValueError):
            combine_uso_outputs([path, path], (1, 1))

    def test_hic_stitches_and_deposits(self, volume):
        hic = HaralickImageConstructor(
            SHAPE, PARAMS.roi_shape, PARAMS.features, out_stream=None
        )
        ctx = FakeContext()
        for fp in self.portions(volume):
            hic.process("tex2out", DataBuffer(fp), ctx)
        hic.finalize(ctx)
        (key, volumes), = ctx.deposited
        assert key == "volumes"
        q = quantize_linear(volume.data, 8, lo=0.0, hi=4095.0)
        want = raster_scan(q, PARAMS.roi, 8, features=PARAMS.features)
        np.testing.assert_allclose(volumes["idm"], want["idm"])

    def test_hic_incomplete_raises(self, volume):
        hic = HaralickImageConstructor(
            SHAPE, PARAMS.roi_shape, PARAMS.features, out_stream=None
        )
        ctx = FakeContext()
        hic.process("tex2out", DataBuffer(self.portions(volume)[0]), ctx)
        with pytest.raises(RuntimeError):
            hic.finalize(ctx)

    def test_hic_forwards_parameter_volumes(self, volume):
        hic = HaralickImageConstructor(
            SHAPE, PARAMS.roi_shape, PARAMS.features, out_stream="hic2jiw"
        )
        ctx = FakeContext()
        for fp in self.portions(volume):
            hic.process("tex2out", DataBuffer(fp), ctx)
        hic.finalize(ctx)
        assert len(ctx.sent) == 2  # one ParameterVolume per feature
        pv = ctx.sent[0]["payload"]
        assert isinstance(pv, ParameterVolume)
        assert pv.vmin <= pv.vmax


class TestJIW:
    def test_normalize_volume(self):
        vol = np.array([[1.0, 3.0], [2.0, 5.0]])
        norm = normalize_volume(vol, 1.0, 5.0)
        assert norm.min() == 0.0 and norm.max() == 1.0

    def test_normalize_constant(self):
        assert np.all(normalize_volume(np.full((2, 2), 3.0), 3.0, 3.0) == 0.0)

    def test_normalize_invalid(self):
        with pytest.raises(ValueError):
            normalize_volume(np.zeros((2, 2)), 1.0, 0.0)

    def test_writes_image_series(self, tmp_path):
        jiw = JPGImageWriter(str(tmp_path))
        ctx = FakeContext()
        jiw.initialize(ctx)
        vol = np.random.default_rng(0).random((6, 5, 3, 2))
        pv = ParameterVolume("asm", vol, float(vol.min()), float(vol.max()))
        jiw.process("hic2jiw", DataBuffer(pv), ctx)
        (key, info), = ctx.deposited
        assert info["count"] == 6
        from repro.data.formats import read_pgm

        img = read_pgm(os.path.join(str(tmp_path), "asm", "t0001_z0002.pgm"))
        assert img.shape == (6, 5)

    def test_requires_4d(self, tmp_path):
        jiw = JPGImageWriter(str(tmp_path))
        ctx = FakeContext()
        jiw.initialize(ctx)
        with pytest.raises(ValueError):
            jiw.process(
                "s", DataBuffer(ParameterVolume("x", np.zeros((2, 2)), 0, 1)), ctx
            )
