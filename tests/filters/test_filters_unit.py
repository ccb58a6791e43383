"""Unit tests for individual application filters (outside any runtime)."""

import os
import tracemalloc
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
from repro.filters.messages import (
    FeaturePortion,
    SlicePortion,
    TextureChunk,
    TextureParams,
)
from repro.filters.rfr import RawFileReader
from repro.storage.dataset import write_dataset
from repro.viz import normalize_volume, write_feature_images


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


class TracingContext(FakeContext):
    """A FakeContext that also records trace events."""

    tracing = True

    def __init__(self):
        super().__init__()
        self.events: List = []

    def event(self, kind, *, dur=0.0, chunk=None, **attrs):
        self.events.append(dict(kind=kind, dur=dur, chunk=chunk, **attrs))


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
        """RFR sends whole slices; a portion short of the chunk's
        in-plane extent, on either side, is rejected before anything
        reaches the assembler."""
        chunk = the_chunk()
        img = volume.get_slice(0, 0)
        for (x0, x1), match in (((0, 7), "in-plane"), ((7, 12), "does not cover")):
            iic = InputImageConstructor([chunk])
            ctx = FakeContext()
            iic.initialize(ctx)
            portion = SlicePortion(
                t=0, z=0, x0=x0, x1=x1, y0=0, y1=10, data=img[x0:x1]
            )
            with pytest.raises(ValueError, match=match):
                iic.process("rfr2iic", DataBuffer(portion), ctx)
            assert not iic._assemblers[0].has(0, 0)

    def test_chunks_split_in_z_and_t(self, volume):
        """Each whole slice feeds exactly the chunks whose z and t range
        holds it; every chunk is emitted once, as the dataset's box."""
        chunks = partition(SHAPE, PARAMS.roi, (12, 10, 4, 3))
        assert len({(c.lo[2], c.lo[3]) for c in chunks}) == 4
        iic = InputImageConstructor(chunks)
        ctx = FakeContext()
        iic.initialize(ctx)
        keys = [(t, z) for t in range(4) for z in range(6)]
        for i in np.random.default_rng(1).permutation(len(keys)):
            t, z = keys[i]
            portion = SlicePortion(
                t=t, z=z, x0=0, x1=12, y0=0, y1=10, data=volume.get_slice(t, z)
            )
            iic.process("rfr2iic", DataBuffer(portion), ctx)
        iic.finalize(ctx)
        got = {s["payload"].chunk.index: s["payload"].data for s in ctx.sent}
        assert len(ctx.sent) == len(got) == 4
        for c in chunks:
            np.testing.assert_array_equal(got[c.index], volume.data[c.slices()])

    def test_portions_cropped_at_their_offset(self, volume):
        """Portions that start at the chunk's low in-plane corner (not at
        the slice origin) are cropped at the right offset."""
        chunks = partition(SHAPE, PARAMS.roi, (7, 6, 6, 4))
        assert {c.lo[:2] for c in chunks} == {(0, 0), (5, 0), (0, 4), (5, 4)}
        for chunk in chunks:
            x0, y0 = chunk.lo[:2]
            iic = InputImageConstructor([chunk])
            ctx = FakeContext()
            iic.initialize(ctx)
            for t in range(4):
                for z in range(6):
                    img = volume.get_slice(t, z)
                    portion = SlicePortion(
                        t=t, z=z, x0=x0, x1=12, y0=y0, y1=10, data=img[x0:, y0:]
                    )
                    iic.process("rfr2iic", DataBuffer(portion), ctx)
            (sent,) = ctx.sent
            np.testing.assert_array_equal(
                sent["payload"].data, volume.data[chunk.slices()]
            )

    def test_traced_stitch_event(self, volume):
        iic = InputImageConstructor([the_chunk()])
        ctx = TracingContext()
        iic.initialize(ctx)
        for t in range(4):
            for z in range(6):
                portion = SlicePortion(
                    t=t, z=z, x0=0, x1=12, y0=0, y1=10, data=volume.get_slice(t, z)
                )
                iic.process("rfr2iic", DataBuffer(portion), ctx)
        (ev,) = ctx.events
        assert ev["kind"] == "chunk.stitch" and ev["chunk"] == the_chunk().index
        assert ev["bytes"] == ctx.sent[0]["payload"].nbytes
        assert ev["dur"] > 0.0

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
        hic = HaralickImageConstructor(SHAPE, PARAMS.roi_shape, PARAMS.features)
        with pytest.raises(TypeError):
            hic.process("s", DataBuffer(1), FakeContext())


class TestOutputFilters:
    def portions(self, volume):
        hmp = HaralickMatrixProducer(PARAMS)
        ctx = FakeContext()
        hmp.process("iic2tex", DataBuffer(TextureChunk(the_chunk(), volume.data)), ctx)
        return [s["payload"] for s in ctx.sent]

    def test_hic_stitches_and_deposits(self, volume):
        hic = HaralickImageConstructor(SHAPE, PARAMS.roi_shape, PARAMS.features)
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
        hic = HaralickImageConstructor(SHAPE, PARAMS.roi_shape, PARAMS.features)
        ctx = FakeContext()
        hic.process("tex2out", DataBuffer(self.portions(volume)[0]), ctx)
        with pytest.raises(RuntimeError):
            hic.finalize(ctx)

    def test_hic_partly_placed_portion_raises(self, volume):
        portions = self.portions(volume)
        hic = HaralickImageConstructor(SHAPE, PARAMS.roi_shape, PARAMS.features)
        ctx = FakeContext()
        first = portions[0]
        hic.process("tex2out", DataBuffer(first), ctx)
        half = first.count // 2
        straddling = FeaturePortion(
            chunk=first.chunk,
            start=first.start + half,
            values={n: np.ones(first.count) for n in PARAMS.features},
        )
        with pytest.raises(ValueError, match="partly placed"):
            hic.process("tex2out", DataBuffer(straddling), ctx)
        # Nothing of the rejected portion was written.
        idm = hic.stitcher.volumes["idm"].reshape(-1)
        np.testing.assert_array_equal(idm[: first.count], first.values["idm"])
        assert not idm[first.count :].any()

    def test_hic_portion_missing_feature_leaves_volumes_untouched(self, volume):
        hic = HaralickImageConstructor(SHAPE, PARAMS.roi_shape, PARAMS.features)
        fp = self.portions(volume)[0]
        short = FeaturePortion(
            chunk=fp.chunk, start=fp.start, values={"asm": fp.values["asm"]}
        )
        with pytest.raises(ValueError, match="feature"):
            hic.process("tex2out", DataBuffer(short), FakeContext())
        assert hic.stitcher.coverage == 0.0
        for vol in hic.stitcher.volumes.values():
            assert not vol.any()

    def test_hic_one_write_event_per_chunk(self, volume):
        """Re-delivered portions neither write nor count twice."""
        portions = self.portions(volume)
        hic = HaralickImageConstructor(SHAPE, PARAMS.roi_shape, PARAMS.features)
        ctx = TracingContext()
        for fp in [portions[0]] + portions + [portions[-1]]:
            hic.process("tex2out", DataBuffer(fp), ctx)
        hic.finalize(ctx)
        chunk = the_chunk()
        (ev,) = ctx.events
        assert ev["kind"] == "chunk.write" and ev["chunk"] == chunk.index
        assert ev["records"] == chunk.num_rois * len(PARAMS.features)
        assert ev["dur"] > 0.0
        assert hic._open == {}  # a late re-delivery reopens no chunk

    def test_hic_memory_stays_below_one_chunk_buffer(self):
        """Portions are written in place: HIC's peak allocation while
        stitching one large chunk stays below one feature's worth of the
        chunk's positions in float64."""
        shape, roi = (40, 40, 12, 12), (3, 3, 3, 2)
        (chunk,) = partition(shape, ROISpec(roi), shape)
        features = ("asm", "idm")
        hic = HaralickImageConstructor(shape, roi, features)
        rng = np.random.default_rng(5)
        want = {n: rng.random(chunk.num_rois) for n in features}
        bounds = np.linspace(0, chunk.num_rois, 9).astype(int)
        portions = [
            FeaturePortion(
                chunk=chunk, start=int(a), values={n: want[n][a:b] for n in features}
            )
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
        ctx = FakeContext()
        tracemalloc.start()
        try:
            for fp in portions:
                hic.process("tex2out", DataBuffer(fp), ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < chunk.num_rois * 8, peak
        hic.finalize(ctx)
        (_, volumes), = ctx.deposited
        for n in features:
            np.testing.assert_array_equal(volumes[n].reshape(-1), want[n])

    def test_hic_sends_nothing(self, volume):
        """HIC is the sink: the volumes are deposited, never sent on."""
        hic = HaralickImageConstructor(SHAPE, PARAMS.roi_shape, PARAMS.features)
        ctx = FakeContext()
        for fp in self.portions(volume):
            hic.process("tex2out", DataBuffer(fp), ctx)
        hic.finalize(ctx)
        assert ctx.sent == []


class TestJIW:
    """The paper's JIW stage: :func:`repro.viz.write_feature_images`,
    called on the stitched volumes after the run."""

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
        from repro.data.formats import read_pgm

        vol = np.random.default_rng(0).random((6, 5, 3, 2))
        assert write_feature_images({"asm": vol}, str(tmp_path)) == 6
        img = read_pgm(os.path.join(str(tmp_path), "asm", "t0001_z0002.pgm"))
        assert img.shape == (6, 5)
        # Normalized by the volume's own min and max.
        want = np.round(normalize_volume(vol, vol.min(), vol.max()) * 255)
        np.testing.assert_array_equal(img, want[:, :, 2, 1])

    def test_requires_4d(self, tmp_path):
        with pytest.raises(ValueError):
            write_feature_images({"x": np.zeros((2, 2))}, str(tmp_path))
