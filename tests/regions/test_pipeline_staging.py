"""Staged reads are bit-identical to plain ones, and read less.

The acceptance property of the data layer: reading the sequential
driver's chunks through :class:`repro.regions.RegionStore` — including
ghost/overlap reuse and out-of-core spill under a RAM bound below one
chunk — must not change a single output voxel, and must spare the
driver its re-reads of the overlap.
"""

import numpy as np
import pytest

from repro.data.synthetic import PhantomConfig, generate_phantom
from repro.datacutter.obs import Tracer
from repro.filters.messages import TextureParams
from repro.pipeline.builder import plan_chunks
from repro.pipeline.config import AnalysisConfig
from repro.pipeline.sequential import transform_disk_dataset
from repro.regions import (
    RegionStore,
    StagingPolicy,
    chunk_extent,
    read_chunk_staged,
)
from repro.storage.dataset import DiskDataset4D, write_dataset

STAGED = StagingPolicy(ram_bytes=64 << 20)


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    vol = generate_phantom(PhantomConfig(shape=(18, 16, 6, 4), seed=9))
    root = str(tmp_path_factory.mktemp("regions_ds") / "data")
    write_dataset(vol, root, num_nodes=2)
    params = TextureParams(
        roi_shape=(3, 3, 3, 2), levels=8, features=("asm", "idm"),
        intensity_range=(0.0, 65535.0),
    )
    cfg = AnalysisConfig(texture=params, texture_chunk_shape=(8, 8, 6, 4))
    baseline = transform_disk_dataset(root, cfg)
    return root, cfg, baseline


def _assert_identical(got, baseline, features):
    for name in features:
        np.testing.assert_array_equal(got[name], baseline[name])


class TestSequentialStaging:
    def test_bit_identical_with_overlap_reuse(self, setup):
        root, cfg, baseline = setup
        store = RegionStore.from_policy(STAGED)
        with store:
            got = transform_disk_dataset(root, cfg, region_store=store)
            _assert_identical(got, baseline, cfg.texture.features)
            # Raster order guarantees every chunk after the first
            # resolves its ghost region from a staged neighbour.
            assert store.stats.hits > 0
            assert store.stats.stages > 0

    def test_out_of_core_spill_bit_identical(self, setup, tmp_path):
        # RAM tier far below the dataset size: staging must spill to
        # disk, keep resolving from there, and still match exactly.
        root, cfg, baseline = setup
        policy = StagingPolicy(ram_bytes=4096, spill_dir=str(tmp_path))
        with RegionStore.from_policy(policy) as store:
            got = transform_disk_dataset(root, cfg, region_store=store)
            _assert_identical(got, baseline, cfg.texture.features)
            occupancy = store.occupancy()
            assert occupancy["ram"] <= 4096
            assert store.stats.evictions > 0  # the bound actually bit
            assert store.stats.drops == 0  # unbounded disk: spill, not loss

    def test_out_of_core_serves_hits_from_disk(self, setup, tmp_path):
        # RAM below one chunk (3,072 bytes): every region lives on disk
        # and is served from there in place, each spill file written
        # once however often it is hit.
        root, cfg, baseline = setup
        policy = StagingPolicy(ram_bytes=1024, spill_dir=str(tmp_path))
        with RegionStore.from_policy(policy) as store:
            disk = store.hierarchy.tiers[1]
            writes = []
            put = disk.put
            disk.put = lambda key, arr: writes.append(key) or put(key, arr)
            got = transform_disk_dataset(root, cfg, region_store=store)
            _assert_identical(got, baseline, cfg.texture.features)
            stats = store.stats
            assert stats.hits_by_tier == {"disk": stats.hits} and stats.hits > 0
            assert stats.drops == 0 and store.occupancy()["ram"] == 0
            assert sorted(writes) == sorted(set(writes))
            assert len(writes) == stats.stages

    def test_staged_reads_spare_the_overlap(self, setup):
        # What staging is kept for: the plain driver reads the Eq. 1-2
        # overlap once per chunk that shares it, the staged one reads
        # every voxel it needs from the dataset exactly once.
        root, cfg, baseline = setup
        plain = DiskDataset4D.open(root)
        for chunk in plan_chunks(plain.shape, cfg):
            plain.read_chunk(*zip(chunk.lo, chunk.hi))
        staged = DiskDataset4D.open(root)
        with RegionStore.from_policy(STAGED) as store:
            for chunk in plan_chunks(staged.shape, cfg):
                read_chunk_staged(staged, chunk, store)
        assert staged.stats.bytes_read == int(np.prod(staged.shape)) * 2
        assert plain.stats.bytes_read > 1.5 * staged.stats.bytes_read

    def test_region_events_come_from_the_sequential_driver(self, setup, tmp_path):
        root, cfg, baseline = setup
        tracer = Tracer()
        policy = StagingPolicy(ram_bytes=4096, spill_dir=str(tmp_path))
        with RegionStore.from_policy(policy) as store:
            transform_disk_dataset(root, cfg, tracer=tracer, region_store=store)
            kinds = [ev.kind for ev in tracer.events]
            assert kinds.count("region.stage") == store.stats.stages
            assert kinds.count("region.evict") == store.stats.evictions > 0
            assert "region.hit" in kinds


class TestReadChunkStaged:
    def test_second_read_is_a_pure_hit(self, setup):
        root, cfg, baseline = setup
        dataset = DiskDataset4D.open(root)
        chunk = plan_chunks(dataset.shape, cfg)[0]
        with RegionStore.from_policy(STAGED) as store:
            first_buf, first = read_chunk_staged(dataset, chunk, store)
            assert first.read_bytes > 0 and first.hit_fraction == 0.0
            second_buf, second = read_chunk_staged(dataset, chunk, store)
            assert second.read_bytes == 0 and second.planes_read == 0
            assert second.hit_fraction == 1.0
            np.testing.assert_array_equal(first_buf, second_buf)

    def test_neighbour_overlap_partially_covered(self, setup):
        root, cfg, baseline = setup
        dataset = DiskDataset4D.open(root)
        chunks = plan_chunks(dataset.shape, cfg)
        # Find a pair of overlapping neighbours (x-adjacent chunks).
        pairs = [
            (a, b)
            for a in chunks for b in chunks
            if a is not b and chunk_extent(a).intersect(chunk_extent(b))
        ]
        assert pairs, "paper config must produce overlapping chunks"
        a, b = pairs[0]
        with RegionStore.from_policy(STAGED) as store:
            full_a = dataset.read_chunk(
                (a.lo[0], a.hi[0]), (a.lo[1], a.hi[1]),
                (a.lo[2], a.hi[2]), (a.lo[3], a.hi[3]),
            )
            full_b = dataset.read_chunk(
                (b.lo[0], b.hi[0]), (b.lo[1], b.hi[1]),
                (b.lo[2], b.hi[2]), (b.lo[3], b.hi[3]),
            )
            buf_a, _ = read_chunk_staged(dataset, a, store)
            np.testing.assert_array_equal(buf_a, full_a)
            buf_b, rep = read_chunk_staged(dataset, b, store)
            np.testing.assert_array_equal(buf_b, full_b)
            # The ghost voxels shared with `a` came from the store.
            assert 0.0 < rep.hit_fraction < 1.0
            assert rep.hit_voxels >= chunk_extent(a).intersect(
                chunk_extent(b)
            ).num_voxels
