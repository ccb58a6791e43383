"""Spill/evict/promote behaviour of the storage hierarchy."""

import hashlib
import os
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.regions import (
    DROPPED,
    DiskTier,
    Eviction,
    RamTier,
    StagingPolicy,
    StorageHierarchy,
)
from repro.service.cache import ResultCache


def _arr(nbytes, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=nbytes).astype(np.uint8)


def _named(name, capacity=None):
    """An in-memory tier under another name (hierarchy wants them distinct)."""
    tier = RamTier(capacity)
    tier.name = name
    return tier


def _two_level(ram_bytes, low_bytes=None):
    """RAM over a 'low' tier that is also in memory (fast, no files)."""
    return StorageHierarchy([RamTier(ram_bytes), _named("low", low_bytes)])


class _CountingDisk(DiskTier):
    """A disk tier that counts the spill files it writes."""

    writes = 0

    def put(self, key, arr):
        stored = super().put(key, arr)
        self.writes += stored
        return stored


def _moves(evictions):
    return [(e.key, e.src, e.dst) for e in evictions]


class TestSpillAndPromote:
    def test_stage_lands_in_top_tier(self):
        h = _two_level(1 << 12)
        report = h.put("a", _arr(256))
        assert report.tier == "ram" and not report.evictions
        assert h.occupancy()["ram"] == 256

    def test_lru_victim_demotes_one_level(self):
        h = _two_level(512)
        h.put("a", _arr(256, seed=1))
        h.put("b", _arr(256, seed=2))
        report = h.put("c", _arr(256, seed=3))
        assert report.tier == "ram"
        assert _moves(report.evictions) == [("a", "ram", "low")]
        # The demoted payload survives bit-identical below.
        data, tier, _ = h.get("a")
        assert tier == "low"
        np.testing.assert_array_equal(data, _arr(256, seed=1))

    def test_promote_on_hit_restores_ram(self):
        h = _two_level(512)
        h.put("a", _arr(256, seed=1))
        h.put("b", _arr(256, seed=2))
        h.put("c", _arr(256, seed=3))  # a -> low
        data, tier, displaced = h.get("a")
        assert tier == "low"  # the tier that served it ...
        np.testing.assert_array_equal(data, _arr(256, seed=1))
        # ... and promotion made room by demoting the coldest RAM entry.
        assert _moves(displaced) == [("b", "ram", "low")]
        assert h.entries() == {"ram": 2, "low": 1}
        assert h.get("a")[1] == "ram"

    def test_lru_get_refreshes_recency(self):
        h = _two_level(512)
        h.put("a", _arr(256, seed=1))
        h.put("b", _arr(256, seed=2))
        h.get("a")  # a is now hotter than b
        report = h.put("c", _arr(256, seed=3))
        assert report.evictions[0].key == "b"

    def test_drop_off_last_tier(self):
        h = StorageHierarchy([RamTier(512)])
        h.put("a", _arr(256, seed=1))
        h.put("b", _arr(256, seed=2))
        report = h.put("c", _arr(256, seed=3))
        assert report.evictions == [
            Eviction(key="a", src="ram", dst=DROPPED, nbytes=256)
        ]
        assert h.get("a") == (None, None, [])

    def test_oversize_payload_skips_to_lower_tier(self):
        h = _two_level(128)
        h.put("small", _arr(64))
        report = h.put("big", _arr(4096))
        # Straight down, without emptying RAM on the way.
        assert report.tier == "low" and not report.evictions
        assert h.entries() == {"ram": 1, "low": 1}

    def test_oversize_hit_is_served_in_place(self, tmp_path):
        # A hit RAM can never hold must not be unlinked and saved again:
        # one write for the put, none for any number of hits.
        disk = _CountingDisk(root=str(tmp_path))
        with StorageHierarchy([RamTier(128), disk]) as h:
            assert h.put("big", _arr(4096, seed=5)).tier == "disk"
            for _ in range(3):
                data, tier, displaced = h.get("big")
                assert tier == "disk" and displaced == []
                np.testing.assert_array_equal(data, _arr(4096, seed=5))
            assert disk.writes == 1

    def test_promotion_reports_what_it_displaced(self):
        h = _two_level(512, low_bytes=384)
        h.put("s", _arr(128, seed=1))
        h.put("a", _arr(256, seed=2))
        h.put("b", _arr(256, seed=3))  # s -> low
        h.put("c", _arr(256, seed=4))  # a -> low, which is now full
        _, tier, displaced = h.get("s")
        assert tier == "low"
        # s goes up, b comes down in its place and pushes a off the end.
        assert _moves(displaced) == [("a", "low", DROPPED), ("b", "ram", "low")]
        assert "a" not in h and h.entries() == {"ram": 2, "low": 1}

    def test_cascade_through_three_levels(self):
        h = StorageHierarchy(
            [RamTier(256), _named("mid", 256), _named("low", 256)]
        )
        for i, key in enumerate("abcd"):
            report = h.put(key, _arr(256, seed=i))
        # d pushed c to mid, which pushed b to low, which dropped a.
        moves = _moves(report.evictions)
        assert ("c", "ram", "mid") in moves
        assert ("b", "mid", "low") in moves
        assert ("a", "low", DROPPED) in moves

    def test_remove_and_contains(self):
        h = _two_level(256)
        h.put("a", _arr(256, seed=1))
        h.put("b", _arr(256, seed=2))  # a demoted
        assert "a" in h and "b" in h
        assert h.remove("a")
        assert "a" not in h and not h.remove("a")

    @given(
        ram=st.sampled_from([0, 48, 128, 1 << 20]),
        disk=st.sampled_from([0, 96, 200, None]),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "get", "remove"]),
                st.integers(0, 5),
                st.integers(16, 64),
            ),
            min_size=1, max_size=30,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_integrity_under_random_churn(self, ram, disk, ops):
        # The model check both clients of the hierarchy rest on, run
        # through the result cache so its counters are checked too:
        # random put / get / replace / remove against a dict, under
        # bounded, unbounded and absent RAM and disk budgets.
        with tempfile.TemporaryDirectory() as root:
            cache = ResultCache(max_bytes=ram, spill_dir=root, spill_bytes=disk)
            try:
                _churn(cache, ops + [("get", slot, 0) for slot in range(6)])
            finally:
                cache.close()

    def test_close_releases_everything(self):
        h = _two_level(512)
        h.put("a", _arr(256))
        h.close()
        assert h.get("a") == (None, None, [])
        # A put that arrives late (a worker outliving its service) lands
        # nowhere instead of in a tier that is gone.
        assert h.put("b", _arr(256)).tier is None and "b" not in h
        h.close()  # idempotent


def _spy_on(h):
    """Keep the last report ``h`` handed its client (the cache drops it)."""
    last = {}
    for name in ("put", "get"):
        def spied(*args, _call=getattr(h, name)):
            last["report"] = _call(*args)
            return last["report"]
        setattr(h, name, spied)
    return last


def _where(h, keys):
    """key -> name of the tier holding it, by asking the tiers themselves."""
    return {k: t.name for k in keys for t in h.tiers if k in t}


def _churn(cache, ops):
    h = cache._store
    last = _spy_on(h)
    model = {}  # key -> latest payload, for every key not reported dropped
    want = Counter()  # the cache's counters, recounted from the reports
    for seed, (op, slot, nbytes) in enumerate(ops):
        key = f"k{slot}"
        before = _where(h, model)
        evictions = []
        if op == "put":  # a replace when the key is held
            data = _arr(nbytes, seed=seed)
            cache.put(key, data)
            landed, evictions = last["report"].tier, last["report"].evictions
            model[key] = data
            if landed is None:
                del model[key]
            want["puts"] += landed is not None
            want["spills"] += landed == "disk"
        elif op == "get":
            got = cache.get(key)
            _, served, evictions = last["report"]
            assert served == before.get(key)
            want["hits" if key in model else "misses"] += 1
            want["disk_hits"] += served == "disk"
            if key in model:
                np.testing.assert_array_equal(got, model[key])
                assert not got.flags.writeable
            else:
                assert got is None
        else:
            assert h.remove(key) == (key in model)
            model.pop(key, None)

        # Reported evictions are exactly the moves that happened: a key
        # may be named twice (down one tier, then off the end).
        reported = {}
        for ev in evictions:
            reported[ev.key] = (reported.get(ev.key, (ev.src,))[0], ev.dst)
            want["evictions"] += ev.src == "ram"
            want["spills"] += ev.dst == "disk"
        after = _where(h, model)
        observed = {
            k: (tier, after.get(k, DROPPED))
            for k, tier in before.items()
            if k != key and after.get(k, DROPPED) != tier
        }
        assert observed == reported
        for k, (_, dst) in reported.items():
            if dst == DROPPED:
                del model[k]
        assert sorted(after) == sorted(model)

        # Budgets hold, the spill directory holds the disk index and
        # nothing else, and the cache's view agrees with all of it.
        held = {name: [k for k in after if after[k] == name] for name in ("ram", "disk")}
        for tier in h.tiers:
            cap = tier.capacity_bytes
            assert cap is None or tier.bytes_used <= cap
            assert tier.bytes_used == sum(model[k].nbytes for k in held[tier.name])
            if tier.name == "disk":
                assert sorted(os.listdir(tier.session_dir)) == sorted(
                    hashlib.sha1(k.encode()).hexdigest() + ".npy"
                    for k in held["disk"]
                )
        stats = cache.stats()
        counters = ("puts", "hits", "misses", "disk_hits", "evictions", "spills")
        assert {k: stats[k] for k in counters} == {k: want[k] for k in counters}
        assert stats["entries"] == len(held["ram"])
        assert stats["disk_entries"] == len(held["disk"])
        assert stats["bytes"] == h.occupancy()["ram"]
        assert stats["disk_bytes"] == h.occupancy().get("disk", 0)


class TestFromPolicy:
    def test_default_policy_tiers(self):
        with StorageHierarchy.from_policy(StagingPolicy()) as h:
            assert [t.name for t in h.tiers] == ["ram", "disk"]
            assert h.tiers[1].capacity_bytes is None  # unbounded spill

    def test_disk_off(self):
        with StorageHierarchy.from_policy(StagingPolicy(disk_bytes=0)) as h:
            assert [t.name for t in h.tiers] == ["ram"]

    def test_spill_roundtrip_through_real_disk(self, tmp_path):
        policy = StagingPolicy(ram_bytes=512, spill_dir=str(tmp_path))
        with StorageHierarchy.from_policy(policy) as h:
            h.put("a", _arr(256, seed=1))
            h.put("b", _arr(256, seed=2))
            h.put("c", _arr(256, seed=3))  # a -> disk
            data, tier, _ = h.get("a")
            assert tier == "disk"  # served from disk, promoted behind it
            np.testing.assert_array_equal(data, _arr(256, seed=1))
            assert h.get("a")[1] == "ram"


class TestStagingPolicy:
    def test_fields_are_the_three_budgets(self):
        import dataclasses

        assert [f.name for f in dataclasses.fields(StagingPolicy)] == [
            "ram_bytes", "disk_bytes", "spill_dir",
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            StagingPolicy(ram_bytes=-1)
        with pytest.raises(ValueError):
            StagingPolicy(disk_bytes=-1)
