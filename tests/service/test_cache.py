"""ResultCache + volume fingerprinting: keys, LRU bounds, invalidation."""

import os

import numpy as np
import pytest

from repro.filters.messages import TextureParams
from repro.service.cache import ResultCache, result_key, volume_fingerprint


def params(**kw):
    kw.setdefault("roi_shape", (3, 3, 3, 2))
    kw.setdefault("levels", 8)
    kw.setdefault("features", ("asm",))
    return TextureParams(**kw)


class TestResultKey:
    def test_includes_every_numeric_determinant(self):
        base = result_key("h", params(), "asm")
        assert result_key("h2", params(), "asm") != base
        assert result_key("h", params(levels=16), "asm") != base
        assert result_key("h", params(roi_shape=(5, 5, 5, 3)), "asm") != base
        assert result_key("h", params(distance=2), "asm") != base
        assert (
            result_key("h", params(intensity_range=(0.0, 4095.0)), "asm")
            != base
        )
        assert result_key("h", params(), "idm") != base

    def test_excludes_bit_identical_knobs(self):
        # Variant, kernel and chunking are pinned bit-identical by the
        # conformance suites, so they must share cache entries rather
        # than fragment them.
        assert result_key("h", params(kernel="reference"), "asm") == result_key(
            "h", params(), "asm"
        )
        assert result_key("h", params(packet_fraction=0.5), "asm") == result_key(
            "h", params(), "asm"
        )


class TestFingerprint:
    def test_stable_for_unchanged_dataset(self, dataset_root):
        assert volume_fingerprint(dataset_root) == volume_fingerprint(
            dataset_root
        )

    def test_differs_between_datasets(self, dataset_root, second_dataset_root):
        assert volume_fingerprint(dataset_root) != volume_fingerprint(
            second_dataset_root
        )

    def test_changes_when_bytes_change(self, tmp_path):
        root = tmp_path / "ds"
        root.mkdir()
        f = root / "index.json"
        f.write_bytes(b"abc")
        before = volume_fingerprint(str(root))
        f.write_bytes(b"abd")
        os.utime(f, ns=(1, 1))  # defeat the (size, mtime) memo shortcut
        assert volume_fingerprint(str(root)) != before

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            volume_fingerprint(str(tmp_path))


class TestResultCache:
    def test_hit_miss_accounting(self):
        cache = ResultCache(max_bytes=1 << 20)
        assert cache.get("k") is None
        cache.put("k", np.ones((4, 4)))
        hit = cache.get("k")
        assert hit is not None and np.array_equal(hit, np.ones((4, 4)))
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_entries_come_back_read_only(self):
        cache = ResultCache()
        cache.put("k", np.zeros(8))
        vol = cache.get("k")
        with pytest.raises(ValueError):
            vol[0] = 1.0

    def test_lru_eviction_by_bytes(self):
        one_kb = np.zeros(128)  # 1024 bytes of float64
        cache = ResultCache(max_bytes=3 * one_kb.nbytes)
        for key in ("a", "b", "c"):
            cache.put(key, one_kb)
        cache.get("a")  # refresh a; b is now least recent
        cache.put("d", one_kb)
        assert "b" not in cache and "a" in cache
        assert cache.stats()["evictions"] == 1
        assert cache.bytes_used <= cache.max_bytes

    def test_oversized_entry_not_admitted(self):
        cache = ResultCache(max_bytes=64)
        cache.put("big", np.zeros(1024))
        assert "big" not in cache and len(cache) == 0

    def test_replacement_updates_bytes(self):
        cache = ResultCache(max_bytes=1 << 20)
        cache.put("k", np.zeros(1024))
        cache.put("k", np.zeros(16))
        assert cache.bytes_used == np.zeros(16).nbytes
        assert len(cache) == 1
