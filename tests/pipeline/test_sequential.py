"""Tests for the sequential out-of-core driver."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.analysis import HaralickConfig, haralick_transform
from repro.core.quantization import quantize_linear
from repro.data.synthetic import PhantomConfig, generate_phantom
from repro.filters.messages import TextureParams
from repro.pipeline.config import AnalysisConfig
from repro.pipeline.sequential import iter_chunk_features, transform_disk_dataset
from repro.storage.dataset import DiskDataset4D, write_dataset

from ..conftest import patched_to_numpy_passes


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    vol = generate_phantom(PhantomConfig(shape=(18, 16, 6, 4), seed=4))
    root = str(tmp_path_factory.mktemp("seq_ds") / "data")
    write_dataset(vol, root, num_nodes=3)
    params = TextureParams(
        roi_shape=(3, 3, 3, 2), levels=8, features=("asm", "contrast"),
        intensity_range=(0.0, 65535.0),
    )
    cfg = AnalysisConfig(texture=params, texture_chunk_shape=(8, 8, 6, 4))
    return vol, root, cfg


class TestTransformDiskDataset:
    def test_matches_in_memory_reference(self, setup):
        vol, root, cfg = setup
        got = transform_disk_dataset(root, cfg)
        q = quantize_linear(vol.data, 8, lo=0.0, hi=65535.0)
        want = haralick_transform(
            q,
            HaralickConfig(roi_shape=(3, 3, 3, 2), levels=8,
                           features=("asm", "contrast")),
            quantized=True,
        )
        np.testing.assert_allclose(got["asm"], want["asm"], atol=1e-12)
        np.testing.assert_allclose(got["contrast"], want["contrast"], atol=1e-10)

    def test_matches_parallel_pipeline(self, setup):
        from repro.pipeline.run import run_pipeline

        vol, root, cfg = setup
        seq = transform_disk_dataset(root, cfg)
        par = run_pipeline(root, replace(cfg, num_texture_copies=2))
        for name in cfg.texture.features:
            np.testing.assert_allclose(seq[name], par.volumes[name], atol=1e-12)

    def test_chunk_iterator_bounded_memory(self, setup):
        vol, root, cfg = setup
        dataset = DiskDataset4D.open(root)
        count = 0
        for chunk, local in iter_chunk_features(dataset, cfg):
            count += 1
            grid = tuple(s - r + 1 for s, r in zip(chunk.shape, (3, 3, 3, 2)))
            assert local["asm"].shape == grid
        from repro.pipeline.builder import plan_chunks

        assert count == len(plan_chunks(dataset.shape, cfg))

    def test_lifecycle_spans_are_measured(self, setup):
        # chunk.cooccur and chunk.features are timed around the scan and
        # the feature kernel, not one wall split in half: they differ,
        # and together they fit inside the time the chunk took.
        import time

        from repro.datacutter.obs import Tracer

        _vol, root, cfg = setup
        tracer = Tracer()
        walls = {}
        t0 = time.perf_counter()
        for chunk, _local in iter_chunk_features(
            DiskDataset4D.open(root), cfg, tracer=tracer
        ):
            walls[chunk.index] = time.perf_counter() - t0
            t0 = time.perf_counter()
        spans = {}
        for ev in tracer.drain():
            if ev.kind in ("chunk.cooccur", "chunk.features"):
                spans.setdefault(tuple(ev.chunk), {})[ev.kind] = ev.dur
        assert set(spans) == set(walls)
        for index, per in spans.items():
            assert per["chunk.cooccur"] > 0 and per["chunk.features"] > 0
            assert per["chunk.cooccur"] != per["chunk.features"]
            assert sum(per.values()) <= walls[index]

    def test_has_no_region_store(self, setup):
        # Every chunk is read straight from the dataset; there is no
        # staging layer to hand in.
        _vol, root, cfg = setup
        with pytest.raises(TypeError):
            transform_disk_dataset(root, cfg, region_store=None)

    def test_numpy_passes_are_reported_once_per_run(self, setup):
        # HMP and HCC put kernel.fallback in the trace once per copy; the
        # sequential driver, one copy by construction, once per run.
        from repro.datacutter.obs import Tracer, validate_events

        _vol, root, cfg = setup
        tracer = Tracer()
        with patched_to_numpy_passes():
            chunks = [
                chunk.index for chunk, _local in iter_chunk_features(
                    DiskDataset4D.open(root), cfg, tracer=tracer
                )
            ]
        events = tracer.drain()
        validate_events(events)
        fallback = [ev for ev in events if ev.kind == "kernel.fallback"]
        assert len(chunks) > 1 and len(fallback) == 1
        (ev,) = fallback
        assert ev.filter == "SEQ" and ev.chunk == chunks[0]
        assert ev.attrs["requested"] == "incremental"
        assert ev.attrs["used"] == "incremental (numpy passes)"
        assert ev.attrs["reason"] == "patched out by the test suite"

    def test_no_fallback_event_as_requested(self, setup):
        from repro.core import native
        from repro.datacutter.obs import Tracer

        _vol, root, cfg = setup
        if native.load() is None:
            pytest.skip(f"compiled pass unavailable: {native.status().reason}")
        tracer = Tracer()
        for _chunk, _local in iter_chunk_features(
            DiskDataset4D.open(root), cfg, tracer=tracer
        ):
            pass
        assert not [ev for ev in tracer.drain() if ev.kind == "kernel.fallback"]
