"""ResultCache disk spill: demote past the RAM bound instead of dropping."""

import os

import numpy as np
import pytest

from repro.service.cache import ResultCache


def _vol(nbytes, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random(nbytes // 8)  # float64


class TestSpill:
    def test_evicted_entries_demote_to_disk(self, tmp_path):
        cache = ResultCache(max_bytes=2048, spill_dir=str(tmp_path))
        try:
            a, b, c = _vol(1024, 1), _vol(1024, 2), _vol(1024, 3)
            cache.put("a", a)
            cache.put("b", b)
            cache.put("c", c)  # displaces a to disk
            assert cache.stats()["spills"] == 1
            assert "a" in cache and len(cache) == 3
            assert cache.bytes_used <= 2048
            assert cache.disk_bytes_used == 1024
            np.testing.assert_array_equal(cache.get("a"), a)
        finally:
            cache.close()

    def test_disk_hit_promotes_back_to_ram(self, tmp_path):
        cache = ResultCache(max_bytes=2048, spill_dir=str(tmp_path))
        try:
            cache.put("a", _vol(1024, 1))
            cache.put("b", _vol(1024, 2))
            cache.put("c", _vol(1024, 3))  # a -> disk
            got = cache.get("a")  # promote; coldest RAM entry spills down
            assert got is not None
            stats = cache.stats()
            assert stats["disk_hits"] == 1 and stats["hits"] == 1
            assert stats["disk_entries"] == 1  # b took a's place on disk
            np.testing.assert_array_equal(cache.get("b"), _vol(1024, 2))
        finally:
            cache.close()

    def test_oversize_entry_goes_straight_to_disk(self, tmp_path):
        cache = ResultCache(max_bytes=512, spill_dir=str(tmp_path))
        try:
            big = _vol(4096, 5)
            cache.put("big", big)
            stats = cache.stats()
            assert stats["entries"] == 0 and stats["disk_entries"] == 1
            assert cache.puts == 1
            np.testing.assert_array_equal(cache.get("big"), big)
        finally:
            cache.close()

    def test_bounded_spill_drops_when_full(self, tmp_path):
        cache = ResultCache(
            max_bytes=1024, spill_dir=str(tmp_path), spill_bytes=1024
        )
        try:
            cache.put("a", _vol(1024, 1))
            cache.put("b", _vol(1024, 2))  # a -> disk (fills spill budget)
            cache.put("c", _vol(1024, 3))  # b -> disk, displacing a for good
            assert "a" not in cache
            assert "b" in cache and "c" in cache
            assert cache.disk_bytes_used <= 1024
        finally:
            cache.close()

    def test_put_replaces_spilled_copy(self, tmp_path):
        cache = ResultCache(max_bytes=1024, spill_dir=str(tmp_path))
        try:
            cache.put("a", _vol(1024, 1))
            cache.put("b", _vol(1024, 2))  # a -> disk
            fresh = _vol(512, 9)
            cache.put("a", fresh)  # must supersede the disk copy
            np.testing.assert_array_equal(cache.get("a"), fresh)
            assert len(cache) == 2
        finally:
            cache.close()

    def test_clear_covers_disk_entries(self, tmp_path):
        cache = ResultCache(max_bytes=1024, spill_dir=str(tmp_path))
        try:
            cache.put("a", _vol(1024, 1))
            cache.put("b", _vol(1024, 2))
            cache.clear()
            assert len(cache) == 0
            assert cache.disk_bytes_used == 0
            assert cache.get("a") is None and cache.get("b") is None
        finally:
            cache.close()

    def test_close_removes_spill_session_dir(self, tmp_path):
        cache = ResultCache(max_bytes=1024, spill_dir=str(tmp_path))
        cache.put("a", _vol(1024, 1))
        cache.put("b", _vol(1024, 2))  # a -> disk
        sessions = [d for d in os.listdir(tmp_path) if d.startswith("spill-")]
        assert sessions
        cache.close()
        assert not os.path.exists(os.path.join(str(tmp_path), sessions[0]))
        cache.close()  # idempotent
        # close() releases the whole hierarchy, RAM entries included.
        assert cache.get("b") is None
        assert "a" not in cache


class TestLegacySemantics:
    """Spill off: byte-for-byte the pre-spill cache behaviour."""

    def test_oversize_refused(self):
        cache = ResultCache(max_bytes=512)
        cache.put("big", _vol(4096))
        assert len(cache) == 0 and cache.puts == 0
        assert cache.get("big") is None

    def test_eviction_drops(self):
        cache = ResultCache(max_bytes=1024)
        cache.put("a", _vol(1024, 1))
        cache.put("b", _vol(1024, 2))
        assert "a" not in cache and "b" in cache
        assert cache.evictions == 1
        stats = cache.stats()
        assert not stats["spill_enabled"]
        assert stats["spills"] == 0 and stats["disk_entries"] == 0

    def test_spill_bytes_zero_means_off(self):
        cache = ResultCache(max_bytes=512, spill_bytes=0)
        assert not cache.stats()["spill_enabled"]

    def test_validation(self):
        with pytest.raises(ValueError):
            ResultCache(max_bytes=-1)
        with pytest.raises(ValueError):
            ResultCache(spill_bytes=-1)
