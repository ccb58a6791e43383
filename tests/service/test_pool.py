"""RuntimePool: build-once reuse, lease serialization, poisoning, LRU."""

import threading

import pytest

from repro.pipeline.run import execute_pipeline
from repro.service.pool import RuntimePool, RuntimeProfile

from ..conftest import slab_mappings
from .conftest import make_config


class TestRuntimeProfile:
    def test_rejects_unknown_runtime(self):
        with pytest.raises(ValueError):
            RuntimeProfile(runtime="gpu")

    def test_hosts_normalized_to_tuple(self):
        prof = RuntimeProfile(runtime="distributed", hosts=["h1", "h2"])
        assert prof.hosts == ("h1", "h2")
        assert hash(prof)  # stays usable as (part of) a pool key


class TestLeasing:
    def test_same_key_builds_once(self, dataset_root, config):
        with RuntimePool() as pool:
            for _ in range(3):
                with pool.lease(dataset_root, config) as lease:
                    result = execute_pipeline(lease.prepared, lease.runtime)
                    assert set(result.volumes) == {"asm", "idm"}
            assert pool.stats()["builds"] == 1
            assert pool.stats()["reuses"] == 2

    def test_distinct_configs_build_distinct_entries(self, dataset_root):
        with RuntimePool() as pool:
            with pool.lease(dataset_root, make_config(("asm",))):
                pass
            with pool.lease(dataset_root, make_config(("idm",))):
                pass
            assert pool.stats()["builds"] == 2
            assert len(pool) == 2

    def test_lease_serializes_per_entry(self, dataset_root, config):
        with RuntimePool() as pool:
            order = []
            with pool.lease(dataset_root, config):
                t = threading.Thread(
                    target=lambda: (
                        pool.lease(dataset_root, config).__exit__(None, None, None),
                        order.append("second"),
                    )
                )
                with pool.lease(dataset_root, make_config(("idm",))):
                    pass  # a different entry leases fine meanwhile
                t.start()
                t.join(timeout=0.2)
                assert t.is_alive()  # blocked on the held lease
                order.append("first")
            t.join(timeout=5)
            assert order == ["first", "second"]

    def test_reused_runtime_stays_bit_identical(self, dataset_root, config):
        with RuntimePool() as pool:
            with pool.lease(dataset_root, config) as lease:
                first = execute_pipeline(lease.prepared, lease.runtime)
            with pool.lease(dataset_root, config) as lease:
                second = execute_pipeline(lease.prepared, lease.runtime)
        import numpy as np

        for name in first.volumes:
            assert np.array_equal(first.volumes[name], second.volumes[name])


class TestPoisoning:
    def test_failed_lease_discards_entry(self, dataset_root, config):
        pool = RuntimePool()
        with pytest.raises(RuntimeError, match="boom"):
            with pool.lease(dataset_root, config):
                raise RuntimeError("boom")
        assert len(pool) == 0
        assert pool.stats()["discards"] == 1
        # The next lease rebuilds rather than reusing wedged state.
        with pool.lease(dataset_root, config) as lease:
            execute_pipeline(lease.prepared, lease.runtime)
        assert pool.stats()["builds"] == 2
        pool.close()

    def test_explicit_poison(self, dataset_root, config):
        pool = RuntimePool()
        with pool.lease(dataset_root, config) as lease:
            lease.poison()
        assert len(pool) == 0
        pool.close()


class TestEvictionAndLifecycle:
    def test_lru_eviction_over_capacity(self, dataset_root):
        with RuntimePool(max_entries=2) as pool:
            features = (("asm",), ("idm",), ("asm", "idm"))
            for feats in features:
                with pool.lease(dataset_root, make_config(feats)):
                    pass
            assert len(pool) == 2
            assert pool.stats()["evictions"] == 1
            # The oldest entry ("asm") went; the newest two remained.
            with pool.lease(dataset_root, make_config(("asm", "idm"))):
                pass
            assert pool.stats()["reuses"] == 1

    def test_close_rejects_new_leases(self, dataset_root, config):
        pool = RuntimePool()
        with pool.lease(dataset_root, config):
            pass
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.lease(dataset_root, config)

    def test_processes_entry_holds_no_slabs_between_runs(
        self, dataset_root, config
    ):
        prof = RuntimeProfile(runtime="processes", max_queue=16)
        idle = slab_mappings()
        volumes = []
        with RuntimePool() as pool:
            for _ in range(2):
                with pool.lease(dataset_root, config, profile=prof) as lease:
                    result = execute_pipeline(lease.prepared, lease.runtime)
                    assert set(result.run.shm_bytes) == set(result.run.wire_bytes)
                    volumes.append(result.volumes)
                # The slab pool lives for one run, not with the entry.
                assert slab_mappings() == idle
            assert pool.stats()["builds"] == 1
        for name, vol in volumes[0].items():
            assert vol.tobytes() == volumes[1][name].tobytes()
