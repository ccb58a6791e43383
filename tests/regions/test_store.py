"""RegionStore: templates, staging, and the ghost-region overlap query."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.regions import (
    RamTier,
    RegionExtent,
    RegionStore,
    RegionTemplate,
    StagingPolicy,
    StorageHierarchy,
)

DOMAIN = (24, 24, 6, 4)


def _master(seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 12, size=DOMAIN).astype(np.uint16)


def _store(ram_bytes=1 << 22):
    return RegionStore(StorageHierarchy([RamTier(ram_bytes)]))


@st.composite
def boxes(draw):
    lo = [draw(st.integers(0, d - 1)) for d in DOMAIN]
    hi = [l + draw(st.integers(1, d - l)) for l, d in zip(lo, DOMAIN)]
    return RegionExtent(tuple(lo), tuple(hi))


class TestTemplates:
    def test_register_idempotent(self):
        with _store() as store:
            t = RegionTemplate("t", ndim=4, dtype="uint16")
            assert store.register(t) is store.register(t)
            with pytest.raises(ValueError):
                store.register(RegionTemplate("t", ndim=4, dtype="uint8"))

    def test_unknown_template_rejected(self):
        with _store() as store:
            e = RegionExtent((0,) * 4, (2,) * 4)
            with pytest.raises(KeyError):
                store.stage("nope", e, np.zeros((2,) * 4, dtype=np.uint16))
            with pytest.raises(KeyError):
                store.resolve("nope", e)

    def test_stage_validates_shape_and_dtype(self):
        with _store() as store:
            store.register(RegionTemplate("t", ndim=4, dtype="uint16"))
            e = RegionExtent((0,) * 4, (2,) * 4)
            with pytest.raises(ValueError):
                store.stage("t", e, np.zeros((3,) * 4, dtype=np.uint16))
            with pytest.raises(ValueError):
                store.stage("t", e, np.zeros((2,) * 4, dtype=np.uint8))


class TestStageAndQuery:
    def test_exact_get_roundtrip(self):
        with _store() as store:
            store.register(RegionTemplate("t", ndim=4))
            master = _master()
            e = RegionExtent((2, 2, 0, 0), (10, 10, 4, 2))
            store.stage("t", e, master[e.slices_in(
                RegionExtent((0,) * 4, DOMAIN))])
            hit = store.get("t", e)
            assert hit is not None and hit.tier == "ram"
            assert not hit.data.flags.writeable
            np.testing.assert_array_equal(
                hit.data,
                master[2:10, 2:10, 0:4, 0:2],
            )
            assert ("t", e) in store
            assert store.get("t", RegionExtent((0,) * 4, (2,) * 4)) is None

    def test_stage_copies_by_default(self):
        with _store() as store:
            store.register(RegionTemplate("t", ndim=4))
            e = RegionExtent((0,) * 4, (2,) * 4)
            buf = np.ones((2,) * 4, dtype=np.uint16)
            store.stage("t", e, buf)
            buf[:] = 7  # caller keeps mutating its buffer
            np.testing.assert_array_equal(
                store.get("t", e).data, np.ones((2,) * 4, dtype=np.uint16)
            )

    @given(st.lists(boxes(), min_size=1, max_size=6), boxes())
    @settings(max_examples=60, deadline=None)
    def test_resolve_reconstructs_overlaps_exactly(self, staged, target):
        # The ghost-region property: for any set of staged sub-boxes of
        # one master volume, every resolve hit's overlap_data is
        # bit-identical to the master restricted to that overlap, and
        # the hits are exactly the staged boxes intersecting the target.
        master = _master(seed=42)
        whole = RegionExtent((0,) * 4, DOMAIN)
        with _store() as store:
            store.register(RegionTemplate("t", ndim=4, dtype="uint16"))
            for e in staged:
                store.stage("t", e, master[e.slices_in(whole)])
            hits = store.resolve("t", target)
            want = {e for e in staged if e.intersect(target) is not None}
            assert {h.extent for h in hits} == want
            for h in hits:
                assert h.overlap == h.extent.intersect(target)
                np.testing.assert_array_equal(
                    h.overlap_data, master[h.overlap.slices_in(whole)]
                )

    def test_resolve_counts_hits_and_misses(self):
        with _store() as store:
            store.register(RegionTemplate("t", ndim=4))
            e = RegionExtent((0, 0, 0, 0), (8, 8, 4, 2))
            store.stage("t", e, np.zeros(e.shape, dtype=np.float64))
            far = RegionExtent((16, 16, 4, 2), (20, 20, 6, 4))
            assert store.resolve("t", far) == []
            assert store.resolve("t", e) != []
            s = store.stats
            assert s.stages == 1 and s.misses == 1 and s.hits == 1
            assert s.hits_by_tier == {"ram": 1}
            assert s.stages_by_tier == {"ram": 1}


class TestEvictionVisibility:
    def test_dropped_regions_leave_the_index(self):
        # RAM-only hierarchy sized for one region: staging the second
        # drops the first, and neither get nor resolve may return it.
        e1 = RegionExtent((0, 0, 0, 0), (4, 4, 2, 2))
        e2 = RegionExtent((3, 3, 0, 0), (7, 7, 2, 2))
        nbytes = np.zeros(e1.shape, dtype=np.uint16).nbytes
        store = RegionStore(StorageHierarchy([RamTier(nbytes)]))
        with store:
            store.register(RegionTemplate("t", ndim=4, dtype="uint16"))
            store.stage("t", e1, np.ones(e1.shape, dtype=np.uint16))
            store.stage("t", e2, np.full(e2.shape, 2, dtype=np.uint16))
            assert ("t", e1) not in store
            assert store.get("t", e1) is None
            hits = store.resolve("t", RegionExtent((0,) * 4, (8, 8, 2, 2)))
            assert [h.extent for h in hits] == [e2]
            assert store.stats.drops == 1

    def test_region_dropped_by_a_promotion_leaves_the_index(self, tmp_path):
        # RAM holds one region, the disk half of one.  Fetching the
        # small spilled region promotes it; the full-size region it
        # displaces fits nowhere and drops, and the store must say so at
        # once, not when a later resolve trips over a stale index entry.
        e1 = RegionExtent((0, 0, 0, 0), (4, 4, 2, 2))
        e2 = RegionExtent((3, 3, 0, 0), (7, 7, 2, 2))
        e3 = RegionExtent((0, 0, 0, 0), (2, 4, 2, 2))  # half the size
        nbytes = np.zeros(e1.shape, dtype=np.uint16).nbytes
        policy = StagingPolicy(
            ram_bytes=nbytes, disk_bytes=nbytes // 2, spill_dir=str(tmp_path)
        )
        with RegionStore.from_policy(policy) as store:
            store.register(RegionTemplate("t", ndim=4, dtype="uint16"))
            store.stage("t", e3, np.ones(e3.shape, dtype=np.uint16))
            store.stage("t", e1, np.ones(e1.shape, dtype=np.uint16))  # e3 -> disk
            assert store.stats.evictions == 1 and store.stats.drops == 0
            hit = store.get("t", e3)  # e3 up, e1 down: too big for the disk
            assert hit.tier == "disk"
            assert [(e.src, e.dst) for e in hit.evictions] == [("ram", "dropped")]
            assert store.stats.evictions == 2 and store.stats.drops == 1
            assert ("t", e1) not in store and store.get("t", e1) is None
            assert store.snapshot()["regions"] == {"t": 1}

    def test_spilled_regions_stay_resolvable(self, tmp_path):
        # With a disk tier below, eviction is demotion, not loss.
        e1 = RegionExtent((0, 0, 0, 0), (4, 4, 2, 2))
        e2 = RegionExtent((3, 3, 0, 0), (7, 7, 2, 2))
        nbytes = np.zeros(e1.shape, dtype=np.uint16).nbytes
        policy = StagingPolicy(ram_bytes=nbytes, spill_dir=str(tmp_path))
        with RegionStore.from_policy(policy) as store:
            store.register(RegionTemplate("t", ndim=4, dtype="uint16"))
            store.stage("t", e1, np.ones(e1.shape, dtype=np.uint16))
            store.stage("t", e2, np.full(e2.shape, 2, dtype=np.uint16))
            hits = store.resolve("t", RegionExtent((0,) * 4, (8, 8, 2, 2)))
            assert {h.extent for h in hits} == {e1, e2}
            assert store.stats.drops == 0

    def test_explicit_evict_and_clear(self):
        with _store() as store:
            store.register(RegionTemplate("t", ndim=4))
            e = RegionExtent((0,) * 4, (2,) * 4)
            store.stage("t", e, np.zeros((2,) * 4))
            assert store.evict("t", e)
            assert not store.evict("t", e)
            store.stage("t", e, np.zeros((2,) * 4))
            store.clear()
            assert store.get("t", e) is None
            assert store.occupancy()["ram"] == 0


class TestSnapshot:
    def test_snapshot_shape(self):
        with _store() as store:
            store.register(RegionTemplate("t", ndim=4))
            e = RegionExtent((0,) * 4, (2,) * 4)
            store.stage("t", e, np.zeros((2,) * 4))
            snap = store.snapshot()
            assert snap["templates"] == ["t"]
            assert snap["regions"] == {"t": 1}
            assert snap["counters"]["stages"] == 1
            assert snap["hierarchy"]["tiers"][0]["name"] == "ram"
