"""End-to-end integration tests: parallel pipeline == sequential transform.

Every pipeline variant must produce feature volumes numerically identical
to the sequential reference (``haralick_transform``) on the same data.
"""

import os
import sys

import numpy as np
import pytest

from repro.core.analysis import HaralickConfig, haralick_transform
from repro.data.synthetic import PhantomConfig, generate_phantom
from repro.filters.messages import TextureParams
from repro.pipeline.config import AnalysisConfig
from repro.pipeline.run import (
    build_runtime,
    execute_pipeline,
    prepare_pipeline,
    run_pipeline,
)
from repro.storage.dataset import write_dataset

from ..conftest import slab_mappings, slabs_unmappable

ROI = (3, 3, 3, 2)
LEVELS = 8
FEATURES = ("asm", "correlation", "sum_of_squares", "idm")
SHAPE = (16, 14, 6, 4)


@pytest.fixture(scope="module")
def volume():
    return generate_phantom(PhantomConfig(shape=SHAPE, seed=11))


@pytest.fixture(scope="module")
def dataset_root(tmp_path_factory, volume):
    root = str(tmp_path_factory.mktemp("ds") / "data")
    write_dataset(volume, root, num_nodes=3)
    return root


@pytest.fixture(scope="module")
def expected(volume):
    cfg = HaralickConfig(roi_shape=ROI, levels=LEVELS, features=FEATURES)
    from repro.core.quantization import quantize_linear

    q = quantize_linear(volume.data, LEVELS, lo=0.0, hi=65535.0)
    return haralick_transform(q, cfg, quantized=True)


def texture_params():
    return TextureParams(
        roi_shape=ROI,
        levels=LEVELS,
        features=FEATURES,
        intensity_range=(0.0, 65535.0),
    )


def assert_matches(volumes, expected):
    assert set(volumes) == set(FEATURES)
    for name in FEATURES:
        np.testing.assert_allclose(
            volumes[name], expected[name], atol=1e-10, err_msg=name
        )


class TestHMPVariant:
    def test_single_copy(self, dataset_root, expected):
        cfg = AnalysisConfig(
            texture=texture_params(),
            variant="hmp",
            texture_chunk_shape=(8, 8, 6, 4),
        )
        result = run_pipeline(dataset_root, cfg)
        assert_matches(result.volumes, expected)

    def test_many_copies(self, dataset_root, expected):
        cfg = AnalysisConfig(
            texture=texture_params(),
            variant="hmp",
            texture_chunk_shape=(8, 8, 6, 4),
            num_texture_copies=4,
            num_iic_copies=2,
        )
        result = run_pipeline(dataset_root, cfg)
        assert_matches(result.volumes, expected)

    def test_two_copies_wide_chunks(self, dataset_root, expected):
        cfg = AnalysisConfig(
            texture=texture_params(),
            variant="hmp",
            texture_chunk_shape=(10, 10, 6, 4),
            num_texture_copies=2,
        )
        result = run_pipeline(dataset_root, cfg)
        assert_matches(result.volumes, expected)

    def test_round_robin_scheduling(self, dataset_root, expected):
        cfg = AnalysisConfig(
            texture=texture_params(),
            variant="hmp",
            texture_chunk_shape=(8, 8, 6, 4),
            num_texture_copies=3,
            scheduling="round_robin",
        )
        result = run_pipeline(dataset_root, cfg)
        assert_matches(result.volumes, expected)


class TestSplitVariant:
    def test_split_dense(self, dataset_root, expected):
        cfg = AnalysisConfig(
            texture=texture_params(),
            variant="split",
            texture_chunk_shape=(8, 8, 6, 4),
            num_hcc_copies=3,
            num_hpc_copies=1,
        )
        result = run_pipeline(dataset_root, cfg)
        assert_matches(result.volumes, expected)

    def test_split_two_hcc_two_hpc(self, dataset_root, expected):
        cfg = AnalysisConfig(
            texture=texture_params(),
            variant="split",
            texture_chunk_shape=(8, 8, 6, 4),
            num_hcc_copies=2,
            num_hpc_copies=2,
        )
        result = run_pipeline(dataset_root, cfg)
        assert_matches(result.volumes, expected)


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="fork start method required"
)
class TestTransports:
    """The processes runtime's slab pool and its in-band fallbacks."""

    def test_pipe_and_shm_outputs_bit_identical(
        self, dataset_root, expected, pool_geometry
    ):
        cfg = AnalysisConfig(
            texture=texture_params(),
            variant="hmp",
            texture_chunk_shape=(8, 8, 6, 4),
            num_texture_copies=2,
        )
        # The toy dataset's chunks are tiny: lower the slab threshold so
        # they take the shared-memory path.
        pool_geometry(segments=32)
        results = {"shm": run_pipeline(dataset_root, cfg, runtime="processes")}
        # Pipes alone are what a run has when the pool cannot be mapped.
        with slabs_unmappable():
            results["pipe"] = run_pipeline(dataset_root, cfg, runtime="processes")
        for result in results.values():
            assert_matches(result.volumes, expected)
        for name in FEATURES:
            np.testing.assert_array_equal(
                results["pipe"].volumes[name],
                results["shm"].volumes[name],
                err_msg=name,
            )
        # The volumetric chunks crossed via slabs, not pipes.
        shm_run = results["shm"].run
        assert sum(shm_run.shm_bytes.values()) > 0
        assert sum(results["pipe"].run.shm_bytes.values()) == 0
        assert sum(shm_run.wire_bytes.values()) < sum(
            results["pipe"].run.wire_bytes.values()
        )

    @pytest.mark.parametrize(
        "segments, segment_bytes",
        [(1, 1 << 20), (4, 2048)],
        ids=["exhausted", "oversize"],
    )
    def test_split_outputs_identical_under_pool_fallbacks(
        self, dataset_root, pool_geometry, segments, segment_bytes
    ):
        # One slab for the whole graph, or slabs smaller than a packet
        # of matrices: deliveries that find no slab travel in-band, and
        # the volumes are those of the threads runtime to the last bit.
        cfg = AnalysisConfig(
            texture=texture_params(),
            variant="split",
            texture_chunk_shape=(8, 8, 6, 4),
            num_hcc_copies=2,
            num_hpc_copies=1,
        )
        want = run_pipeline(dataset_root, cfg, runtime="threads")
        pool_geometry(segments, segment_bytes)
        got = run_pipeline(dataset_root, cfg, runtime="processes")
        for name in FEATURES:
            assert got.volumes[name].tobytes() == want.volumes[name].tobytes()
        counters = got.metrics["counters"]
        assert counters["shm_pool_fallbacks"] > 0
        in_band = counters["shm_pool_fallback_bytes"]
        assert sum(got.run.wire_bytes.values()) > in_band > 0
        if segment_bytes == 2048:
            assert got.run.shm_bytes["HCC:hcc2hpc"] == 0  # no packet fits


class TestRerun:
    """One ``build_runtime`` product executed twice (the phase functions
    allow it; ``run_pipeline`` builds a fresh one per call)."""

    def hmp_config(self):
        return AnalysisConfig(
            texture=texture_params(),
            variant="hmp",
            texture_chunk_shape=(8, 8, 6, 4),
            num_texture_copies=2,
        )

    def test_reused_runtime_stays_bit_identical(self, dataset_root):
        prepared = prepare_pipeline(dataset_root, self.hmp_config())
        with build_runtime(prepared.graph) as rt:
            first = execute_pipeline(prepared, rt)
            second = execute_pipeline(prepared, rt)
        for name in FEATURES:
            assert first.volumes[name].tobytes() == second.volumes[name].tobytes()

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="fork start method required"
    )
    def test_processes_runtime_holds_no_slabs_between_runs(self, dataset_root):
        prepared = prepare_pipeline(dataset_root, self.hmp_config())
        idle = slab_mappings()
        volumes = []
        with build_runtime(
            prepared.graph, runtime="processes", max_queue=16
        ) as rt:
            for _ in range(2):
                result = execute_pipeline(prepared, rt)
                assert set(result.run.shm_bytes) == set(result.run.wire_bytes)
                volumes.append(result.volumes)
                # The slab pool lives for one run, not with the runtime.
                assert slab_mappings() == idle
        for name, vol in volumes[0].items():
            assert vol.tobytes() == volumes[1][name].tobytes()


class TestOutputModes:
    def test_uso_output(self, dataset_root, expected, tmp_path):
        cfg = AnalysisConfig(
            texture=texture_params(),
            variant="hmp",
            texture_chunk_shape=(8, 8, 6, 4),
            num_texture_copies=2,
            output="uso",
            output_dir=str(tmp_path / "uso"),
            num_uso_copies=2,
        )
        result = run_pipeline(dataset_root, cfg)
        assert_matches(result.volumes, expected)
        files = result.run.deposits("uso_files")
        assert sum(f["records"] for f in files if f["feature"] == "asm") == int(
            np.prod(expected["asm"].shape)
        )

    def test_image_output(self, dataset_root, expected, tmp_path):
        out = str(tmp_path / "imgs")
        cfg = AnalysisConfig(
            texture=texture_params(),
            variant="hmp",
            texture_chunk_shape=(16, 14, 6, 4),
            output="images",
            output_dir=out,
        )
        result = run_pipeline(dataset_root, cfg)
        assert_matches(result.volumes, expected)
        images = result.run.deposits("images")
        assert {i["feature"] for i in images} == set(FEATURES)
        # One PGM per (z, t) plane of the output volume.
        nz, nt = expected["asm"].shape[2], expected["asm"].shape[3]
        for info in images:
            assert info["count"] == nz * nt
        from repro.data.formats import read_pgm

        sample = os.path.join(out, "asm", "t0000_z0000.pgm")
        img = read_pgm(sample)
        assert img.shape == expected["asm"].shape[:2]


class TestDiagnostics:
    def test_busy_time_per_filter(self, dataset_root):
        cfg = AnalysisConfig(
            texture=texture_params(),
            variant="split",
            texture_chunk_shape=(8, 8, 6, 4),
            num_hcc_copies=2,
        )
        result = run_pipeline(dataset_root, cfg)
        from repro.pipeline.report import filter_breakdown, format_breakdown

        stats = filter_breakdown(result.run)
        assert set(stats) == {"RFR", "IIC", "HCC", "HPC", "HIC"}
        assert stats["HCC"]["copies"] == 2
        # HCC (matrix computation) dominates HPC (paper: 4-5x).
        assert stats["HCC"]["total"] > stats["HPC"]["total"]
        text = format_breakdown(result.run, order=("RFR", "IIC", "HCC", "HPC"))
        assert "HCC" in text and "elapsed" in text

    def test_buffer_accounting(self, dataset_root):
        cfg = AnalysisConfig(
            texture=texture_params(),
            variant="hmp",
            texture_chunk_shape=(8, 8, 6, 4),
        )
        result = run_pipeline(dataset_root, cfg)
        from repro.pipeline.builder import plan_chunks
        from repro.storage.dataset import DiskDataset4D

        ds = DiskDataset4D.open(dataset_root)
        chunks = plan_chunks(ds.shape, cfg)
        assert result.run.buffers_sent["IIC:iic2tex"] == len(chunks)
