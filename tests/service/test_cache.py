"""ResultCache + volume fingerprinting: keys, LRU bounds, invalidation."""

import os
import sys
import threading

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

    def test_unchanged_size_and_mtime_serve_the_memo(self, tmp_path):
        # Per-file digests are memoized by (size, mtime_ns): a file whose
        # stat signature is unchanged is not read again.
        root = tmp_path / "ds"
        root.mkdir()
        f = root / "index.json"
        f.write_bytes(b"abc")
        st = os.stat(f)
        before = volume_fingerprint(str(root))
        f.write_bytes(b"abd")
        os.utime(f, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert volume_fingerprint(str(root)) == before
        os.utime(f, ns=(1, 1))
        assert volume_fingerprint(str(root)) != before

    def test_file_names_are_hashed(self, tmp_path):
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            (tmp_path / name / f"slice-{name}.raw").write_bytes(b"same")
        assert volume_fingerprint(str(tmp_path / "a")) != volume_fingerprint(
            str(tmp_path / "b")
        )

    def test_independent_of_directory_listing_order(self, tmp_path, monkeypatch):
        for node in ("node000", "node001", "node002"):
            (tmp_path / node).mkdir()
            (tmp_path / node / "slice.raw").write_bytes(node.encode())
        want = volume_fingerprint(str(tmp_path))
        real_walk = os.walk

        def reversed_walk(top):
            for dirpath, dirnames, filenames in real_walk(top):
                dirnames.reverse()
                filenames.reverse()
                yield dirpath, dirnames, filenames

        monkeypatch.setattr(os, "walk", reversed_walk)
        assert volume_fingerprint(str(tmp_path)) == want

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
        cache = ResultCache(max_bytes=1 << 20)
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

    def test_eviction_drops(self):
        # Past the bound an entry is gone, not kept elsewhere.
        cache = ResultCache(max_bytes=1024)
        cache.put("a", np.zeros(128))
        cache.put("b", np.ones(128))
        assert "a" not in cache and "b" in cache
        assert cache.evictions == 1 and cache.puts == 2
        assert cache.get("a") is None and len(cache) == 1

    def test_oversized_entry_not_admitted(self):
        cache = ResultCache(max_bytes=64)
        cache.put("big", np.zeros(1024))
        assert "big" not in cache and len(cache) == 0

    def test_oversize_refused(self):
        # An entry larger than the whole budget is not counted as a put
        # and evicts nothing already held.
        cache = ResultCache(max_bytes=512)
        cache.put("small", np.zeros(8))
        cache.put("big", np.zeros(512))
        assert cache.puts == 1 and cache.evictions == 0
        assert cache.get("big") is None and "small" in cache

    def test_replacement_updates_bytes(self):
        cache = ResultCache(max_bytes=1 << 20)
        cache.put("k", np.zeros(1024))
        cache.put("k", np.zeros(16))
        assert cache.bytes_used == np.zeros(16).nbytes
        assert len(cache) == 1
        assert cache.evictions == 0 and cache.puts == 2

    def test_entry_of_exactly_max_bytes_fits(self):
        cache = ResultCache(max_bytes=1024)
        cache.put("a", np.zeros(64))
        cache.put("b", np.zeros(128))  # 1024 bytes: evicts a, then fits
        assert "b" in cache and "a" not in cache
        assert cache.bytes_used == 1024 and cache.evictions == 1

    def test_eviction_order_is_least_recent_first(self):
        one_kb = np.zeros(128)
        cache = ResultCache(max_bytes=4 * one_kb.nbytes)
        for key in ("a", "b", "c", "d"):
            cache.put(key, one_kb)
        cache.get("b")
        cache.get("a")  # recency, oldest first: c, d, b, a
        cache.put("big", np.zeros(256))  # needs two slots: c and d go
        assert [k in cache for k in ("a", "b", "c", "d", "big")] == [
            True, True, False, False, True,
        ]
        cache.put("e", one_kb)  # then b, the least recent survivor
        assert "b" not in cache and "a" in cache
        assert cache.evictions == 3
        assert cache.bytes_used == 4 * one_kb.nbytes

    def test_counters_and_stats_keys(self):
        cache = ResultCache(max_bytes=1024)
        cache.put("a", np.zeros(64))
        cache.put("b", np.zeros(64))
        cache.put("c", np.zeros(64))  # evicts a
        cache.get("b")
        cache.get("a")
        cache.get("zz")
        assert cache.stats() == {
            "entries": 2,
            "bytes": 1024,
            "max_bytes": 1024,
            "hits": 1,
            "misses": 2,
            "hit_rate": 1 / 3,
            "puts": 3,
            "evictions": 1,
        }

    def test_clear_drops_every_entry(self):
        cache = ResultCache(max_bytes=1 << 20)
        cache.put("a", np.zeros(16))
        cache.put("b", np.zeros(16))
        cache.clear()
        assert len(cache) == 0 and cache.bytes_used == 0
        assert cache.get("a") is None and cache.get("b") is None
        cache.put("a", np.zeros(16))  # a cleared cache still caches
        assert "a" in cache

    def test_close_releases_entries(self):
        cache = ResultCache(max_bytes=1 << 20)
        cache.put("a", np.zeros(16))
        cache.put("b", np.zeros(16))
        cache.close()
        assert len(cache) == 0 and cache.bytes_used == 0
        assert "a" not in cache and cache.get("b") is None
        cache.close()  # idempotent
        cache.put("c", np.zeros(16))  # e.g. a worker outliving its service
        assert "c" not in cache and cache.puts == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ResultCache(max_bytes=-1)

    def test_zero_budget_caches_nothing(self):
        cache = ResultCache(max_bytes=0)
        cache.put("k", np.zeros(1))
        assert len(cache) == 0 and cache.get("k") is None

    def test_concurrent_puts_and_gets_lose_no_update(self):
        # Service workers share one cache: more threads than cores, a
        # short switch interval, and the byte account and counters must
        # still add up.
        cache = ResultCache(max_bytes=8 * 1024)
        gets_per_thread = 5000

        def work(seed):
            rng = np.random.default_rng(seed)
            for _ in range(gets_per_thread):
                key = f"k{rng.integers(32)}"
                if cache.get(key) is None:
                    cache.put(key, np.zeros(int(rng.integers(1, 256))))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(s,)) for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 6 * gets_per_thread
        assert stats["puts"] == stats["misses"]
        assert stats["puts"] - stats["evictions"] - stats["entries"] >= 0
        held = [cache.get(f"k{i}") for i in range(32)]
        assert cache.bytes_used == sum(
            v.nbytes for v in held if v is not None
        ) <= cache.max_bytes

    @pytest.mark.parametrize("knob", ["spill_dir", "spill_bytes"])
    def test_has_no_spill(self, knob):
        # One RAM LRU: there is no disk tier to configure.
        with pytest.raises(TypeError):
            ResultCache(max_bytes=1024, **{knob: 1})
