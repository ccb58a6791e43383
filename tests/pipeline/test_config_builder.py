"""Unit tests for pipeline configuration and graph building."""

from dataclasses import replace

import pytest

from repro.data.synthetic import PhantomConfig, generate_phantom
from repro.filters.messages import TextureParams
from repro.pipeline.builder import build_graph, plan_chunks
from repro.pipeline.config import AnalysisConfig, clip_chunk_shape
from repro.storage.dataset import write_dataset


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    vol = generate_phantom(PhantomConfig(shape=(16, 16, 6, 4), seed=0))
    root = str(tmp_path_factory.mktemp("cfg_ds") / "data")
    return write_dataset(vol, root, num_nodes=3)


def params():
    return TextureParams(roi_shape=(3, 3, 3, 2), levels=8)


class TestClipChunkShape:
    def test_clips_to_dataset(self):
        assert clip_chunk_shape((50, 50, 32, 32), (16, 16, 6, 4), (3, 3, 3, 2)) == (
            16, 16, 6, 4,
        )

    def test_respects_roi_minimum(self):
        assert clip_chunk_shape((2, 2), (16, 16), (5, 5)) == (5, 5)

    def test_untouched_when_fits(self):
        assert clip_chunk_shape((8, 8), (16, 16), (3, 3)) == (8, 8)


class TestAnalysisConfig:
    def test_defaults_match_paper(self):
        cfg = AnalysisConfig()
        assert cfg.variant == "hmp"
        assert cfg.texture_chunk_shape == (50, 50, 32, 32)
        assert cfg.scheduling == "demand_driven"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(variant="bogus"),
            dict(num_iic_copies=0),
            dict(scheduling="bogus"),
            dict(num_texture_copies=0),
            dict(num_hpc_copies=0),
            dict(texture_chunk_shape=(4, 4)),  # ndim mismatch
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AnalysisConfig(texture=params(), **kwargs)

    def test_replace_copy_counts(self):
        """A config with other copy counts is ``dataclasses.replace``,
        which validates the new counts."""
        cfg = replace(AnalysisConfig(texture=params()), num_texture_copies=8)
        assert cfg.num_texture_copies == 8
        with pytest.raises(ValueError):
            replace(cfg, num_texture_copies=0)


class TestPlanChunks:
    def test_chunks_tile_output(self, dataset):
        cfg = AnalysisConfig(texture=params(), texture_chunk_shape=(8, 8, 6, 4))
        chunks = plan_chunks(dataset.shape, cfg)
        import numpy as np

        from repro.core.roi import valid_positions_shape

        grid = valid_positions_shape(dataset.shape, cfg.texture.roi)
        cover = np.zeros(grid, dtype=int)
        for c in chunks:
            cover[c.own_slices()] += 1
        assert np.all(cover == 1)

    def test_oversized_chunk_clipped(self, dataset):
        cfg = AnalysisConfig(texture=params())  # default 50x50x32x32
        chunks = plan_chunks(dataset.shape, cfg)
        assert len(chunks) == 1


class TestBuildGraph:
    def test_hmp_graph_structure(self, dataset):
        cfg = AnalysisConfig(
            texture=params(),
            texture_chunk_shape=(8, 8, 6, 4),
            num_texture_copies=3,
            num_iic_copies=2,
        )
        g = build_graph(dataset, cfg)
        assert set(g.filters) == {"RFR", "IIC", "HMP", "HIC"}
        assert g.copies("RFR") == dataset.num_nodes
        assert g.copies("IIC") == 2
        assert g.copies("HMP") == 3
        edge = g.in_edges("IIC")[0]
        assert edge.policy == "explicit"

    def test_split_graph_structure(self, dataset):
        cfg = AnalysisConfig(
            texture=params(),
            variant="split",
            texture_chunk_shape=(8, 8, 6, 4),
            num_hcc_copies=4,
            num_hpc_copies=2,
            scheduling="round_robin",
        )
        g = build_graph(dataset, cfg)
        assert set(g.filters) == {"RFR", "IIC", "HCC", "HPC", "HIC"}
        assert g.in_edges("HPC")[0].policy == "round_robin"
