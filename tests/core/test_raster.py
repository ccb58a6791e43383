"""Unit tests for raster scanning (sequential algorithm, paper Fig. 2)."""

import time

import numpy as np
import pytest

from repro.chunks.chunking import partition
from repro.core import raster
from repro.core.features import PAPER_FEATURES
from repro.core.raster import raster_scan, raster_scan_batches, raster_scan_reference
from repro.core.roi import ROISpec
from repro.data.synthetic import PhantomConfig, generate_phantom
from repro.datacutter.buffers import DataBuffer
from repro.datacutter.filter import FilterContext
from repro.filters.hmp import HaralickMatrixProducer
from repro.filters.messages import TextureChunk, TextureParams
from repro.pipeline.config import AnalysisConfig
from repro.pipeline.sequential import iter_chunk_features
from repro.storage.dataset import DiskDataset4D, write_dataset


class TestFastMatchesReference:
    @pytest.mark.parametrize(
        "shape,roi_shape,levels",
        [
            ((8, 8), (3, 3), 4),
            ((6, 6, 4), (3, 3, 2), 5),
            ((6, 6, 6, 4), (5, 5, 5, 3), 8),
        ],
    )
    def test_equal_outputs(self, shape, roi_shape, levels):
        rng = np.random.default_rng(0)
        data = rng.integers(0, levels, size=shape)
        roi = ROISpec(roi_shape)
        ref = raster_scan_reference(data, roi, levels)
        fast = raster_scan(data, roi, levels, batch=3)
        assert set(ref) == set(fast) == set(PAPER_FEATURES)
        for name in ref:
            np.testing.assert_allclose(fast[name], ref[name], atol=1e-12)

    def test_array_like_input_and_level_check(self):
        data = np.random.default_rng(5).integers(0, 4, size=(5, 4))
        roi = ROISpec((2, 2))
        for scan in (raster_scan, raster_scan_reference):
            want = scan(data, roi, 4)
            got = scan(data.tolist(), roi, 4)
            for name in want:
                assert np.array_equal(got[name], want[name]), scan.__name__
            with pytest.raises(ValueError, match="requantized"):
                scan(data + 1, roi, 4)

    def test_all_fourteen_features(self):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 4, size=(5, 5))
        roi = ROISpec((3, 3))
        from repro.core.features import HARALICK_FEATURES

        ref = raster_scan_reference(data, roi, 4, features=HARALICK_FEATURES)
        fast = raster_scan(data, roi, 4, features=HARALICK_FEATURES)
        for name in HARALICK_FEATURES:
            np.testing.assert_allclose(fast[name], ref[name], atol=1e-10)


class TestOutputGeometry:
    def test_output_shape(self):
        data = np.zeros((10, 9, 8, 5), dtype=int)
        out = raster_scan(data, ROISpec((5, 5, 5, 3)), 4, features=["asm"])
        assert out["asm"].shape == (6, 5, 4, 3)

    def test_constant_volume(self):
        data = np.zeros((6, 6, 6, 4), dtype=int)
        out = raster_scan(data, ROISpec((5, 5, 5, 3)), 8)
        # Constant image: ASM = 1, IDM = 1 everywhere.
        assert np.allclose(out["asm"], 1.0)
        assert np.allclose(out["idm"], 1.0)

    def test_batches_cover_all_positions(self):
        data = np.random.default_rng(2).integers(0, 4, size=(7, 6))
        total = 0
        for start, vals in raster_scan_batches(
            data, ROISpec((2, 2)), 4, features=["asm"], batch=4
        ):
            total += vals["asm"].shape[0]
        assert total == 6 * 5

    def test_translation_locality(self):
        """A feature value depends only on its ROI window contents."""
        rng = np.random.default_rng(3)
        data = rng.integers(0, 4, size=(8, 8))
        roi = ROISpec((3, 3))
        out = raster_scan(data, roi, 4, features=["entropy"])
        from repro.core.cooccurrence import cooccurrence_matrix
        from repro.core.features import haralick_features

        window = data[2:5, 4:7]
        single = haralick_features(cooccurrence_matrix(window, 4), ["entropy"])
        assert out["entropy"][2, 4] == pytest.approx(single["entropy"])


class TestOneBody:
    """``raster_scan_batches`` is the one scan-then-features body: it
    times both halves, and every texture driver runs through it."""

    DATA = np.random.default_rng(4).integers(0, 8, size=(10, 9, 6, 4))
    ROI = ROISpec((3, 3, 3, 2))

    def test_scan_and_feature_times_are_positive(self):
        times = [0.0, 0.0]
        out = raster_scan(self.DATA, self.ROI, 8, times=times)
        assert times[0] > 0 and times[1] > 0
        # The accumulator adds; it does not reset.
        before = list(times)
        raster_scan(self.DATA, self.ROI, 8, times=times)
        assert times[0] > before[0] and times[1] > before[1]
        # Timing changes nothing in the output.
        for name, vol in raster_scan(self.DATA, self.ROI, 8).items():
            assert np.array_equal(out[name], vol)

    def test_times_exclude_a_consumer_that_sleeps(self):
        times = [0.0, 0.0]
        held = 0.0
        parts = []
        for _start, vals in raster_scan_batches(
            self.DATA, self.ROI, 8, batch=250, times=times
        ):
            t0 = time.perf_counter()
            time.sleep(0.05)
            held += time.perf_counter() - t0
            parts.append(vals["asm"])
        assert [p.size for p in parts] == [250, 250, 172]  # 672 positions
        want = raster_scan_reference(self.DATA, self.ROI, 8, features=["asm"])
        np.testing.assert_allclose(np.concatenate(parts), want["asm"].ravel(),
                                   atol=1e-12)
        assert 0 < times[0] < held / 3
        assert 0 < times[1] < held / 3

    def test_hmp_and_sequential_driver_go_through_it(self, monkeypatch, tmp_path):
        entered, rois = [], []
        real_get_kernel = raster.get_kernel
        real_features = raster.haralick_features

        def get_kernel_spy(name):
            entered.append(name)
            return real_get_kernel(name)

        def features_spy(mats, wanted):
            rois.append(mats.shape[0])
            return real_features(mats, wanted)

        monkeypatch.setattr(raster, "get_kernel", get_kernel_spy)
        monkeypatch.setattr(raster, "haralick_features", features_spy)
        params = TextureParams(
            roi_shape=(3, 3, 3, 2), levels=8, features=("asm", "idm"),
            intensity_range=(0.0, 4095.0),
        )
        shape = (12, 10, 6, 4)
        vol = generate_phantom(PhantomConfig(shape=shape, seed=2))

        class Ctx(FilterContext):
            tracing = True

            def __init__(self):
                super().__init__("HMP", 0, 1)
                self.sent, self.events = [], {}

            def send(self, stream, payload, size_bytes=0, metadata=None,
                     dest_copy=None):
                time.sleep(0.02)  # a slow downstream: in neither span
                self.sent.append(payload)

            def deposit(self, key, value):
                pass

            def event(self, kind, *, dur=0.0, chunk=None, **attrs):
                self.events[kind] = dur

        chunk = partition(shape, params.roi, shape)[0]
        ctx = Ctx()
        HaralickMatrixProducer(params).process(
            "in", DataBuffer(payload=TextureChunk(chunk=chunk, data=vol.data)),
            ctx,
        )
        assert entered == [params.kernel]
        assert rois == [p.count for p in ctx.sent]
        assert len(ctx.sent) > 1
        sleeping = 0.02 * len(ctx.sent)
        assert 0 < ctx.events["chunk.cooccur"] < sleeping
        assert 0 < ctx.events["chunk.features"] < sleeping

        entered.clear()
        rois.clear()
        root = str(tmp_path / "data")
        write_dataset(vol, root, num_nodes=2)
        cfg = AnalysisConfig(texture=params, texture_chunk_shape=(8, 8, 6, 4))
        chunks = list(iter_chunk_features(DiskDataset4D.open(root), cfg))
        assert entered == [params.kernel] * len(chunks)
        assert sum(rois) == sum(local["asm"].size for _c, local in chunks)
