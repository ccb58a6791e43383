"""Warm runtime pools: build pipeline state once, run it many times.

One pool entry holds the full build-phase product for one
``(dataset, analysis config, runtime profile)`` combination: the opened
:class:`~repro.storage.dataset.DiskDataset4D`, the wired and validated
:class:`~repro.datacutter.graph.FilterGraph` and the constructed
runtime object.  Jobs lease an entry, run it, and hand it back; the
build work is paid once per distinct configuration instead of once per
job.  Workers, and the processes runtime's slab pool, still live for one
``run()``; mapping the pool is 32 anonymous ``mmap`` calls (0.16 ms).
A warm entry saves the build, never the I/O: every job on it reads the
whole dataset again (RFR reads each slice once per run as it is, so a
chunk cache could only add a copy; what spares a repeat job its run is
the service's result cache).

Leases serialize: one runtime executes one run at a time (the runtimes
themselves enforce this with their run guards), so a lease blocks until
the entry is free.  Distinct entries run concurrently.

A job that fails while holding a lease **poisons** the entry: the pool
discards it (tearing the runtime down) rather than leasing possibly
wedged state to the next tenant.  Eviction is LRU over idle entries when
the pool exceeds ``max_entries``; a leased entry is never evicted under
a running job.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..datacutter.faults import FaultPlan, RetryPolicy
from ..pipeline.config import AnalysisConfig
from ..pipeline.run import PreparedPipeline, build_runtime, prepare_pipeline

__all__ = ["RuntimeProfile", "RuntimePool", "PoolLease"]


@dataclass(frozen=True)
class RuntimeProfile:
    """Hashable description of how to build an execution backend.

    Mirrors the backend-selection arguments of
    :func:`repro.pipeline.build_runtime`; being frozen and hashable it
    doubles as (part of) the pool key, so two jobs asking for the same
    backend shape land on the same warm entry.
    """

    runtime: str = "threads"
    max_queue: int = 64
    hosts: Optional[Tuple[str, ...]] = None
    elastic: bool = False
    heartbeat_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        from ..pipeline.run import RUNTIMES

        if self.runtime not in RUNTIMES:
            raise ValueError(
                f"runtime must be one of {RUNTIMES}, got {self.runtime!r}"
            )
        if self.hosts is not None and not isinstance(self.hosts, tuple):
            object.__setattr__(self, "hosts", tuple(self.hosts))


class _PoolEntry:
    __slots__ = (
        "key", "prepared", "runtime", "mutex",
        "uses", "last_used", "poisoned",
    )

    def __init__(self, key, prepared, runtime):
        self.key = key
        self.prepared: PreparedPipeline = prepared
        self.runtime = runtime
        self.mutex = threading.Lock()
        self.uses = 0
        self.last_used = 0
        self.poisoned = False

    def teardown(self) -> None:
        try:
            self.runtime.close()
        finally:
            self.prepared.close()


class PoolLease:
    """Context manager handed to a worker for one run on one entry."""

    def __init__(self, pool: "RuntimePool", entry: _PoolEntry, reused: bool):
        self._pool = pool
        self._entry = entry
        self.reused = reused

    @property
    def prepared(self) -> PreparedPipeline:
        return self._entry.prepared

    @property
    def runtime(self):
        return self._entry.runtime

    def poison(self) -> None:
        """Mark the leased entry unfit for reuse (job failed on it)."""
        self._entry.poisoned = True

    def __enter__(self) -> "PoolLease":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._entry.poisoned = True
        self._pool._release(self._entry)
        return False


class RuntimePool:
    """LRU pool of warm ``(prepared pipeline, runtime)`` entries."""

    def __init__(self, max_entries: int = 4):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: Dict[Any, _PoolEntry] = {}
        self._use_seq = itertools.count(1)
        self._closed = False
        self.builds = 0
        self.reuses = 0
        self.evictions = 0
        self.discards = 0

    # -- keying ------------------------------------------------------------

    @staticmethod
    def entry_key(
        dataset_root: str,
        config: AnalysisConfig,
        profile: RuntimeProfile,
        trace: bool,
        retry: Optional[RetryPolicy],
        faults: Optional[FaultPlan],
    ) -> Tuple:
        """Everything that feeds the build phase, hashable.

        ``faults`` is keyed by identity: fault plans are mutable builder
        objects, and two distinct plans must never share an entry even
        if they currently describe the same faults.
        """
        return (
            os.path.realpath(dataset_root),
            config,
            profile,
            bool(trace),
            retry,
            id(faults) if faults is not None else None,
        )

    # -- lease / release ---------------------------------------------------

    def lease(
        self,
        dataset_root: str,
        config: AnalysisConfig,
        profile: Optional[RuntimeProfile] = None,
        trace: bool = False,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
    ) -> PoolLease:
        """Lease a warm entry, building it on first use.

        Blocks while another job runs on the same entry (one run per
        runtime instance); distinct entries lease independently.
        """
        profile = profile or RuntimeProfile()
        key = self.entry_key(dataset_root, config, profile, trace, retry, faults)
        while True:
            with self._lock:
                if self._closed:
                    raise RuntimeError("runtime pool is closed")
                entry = self._entries.get(key)
                if entry is None:
                    entry = self._build(
                        key, dataset_root, config, profile, trace, retry, faults
                    )
                    self._entries[key] = entry
                    self.builds += 1
                    # Stamp recency now so capacity eviction below never
                    # picks the entry we are about to lease.
                    entry.last_used = next(self._use_seq)
                    reused = False
                    self._evict_over_capacity()
                else:
                    self.reuses += 1
                    reused = True
            entry.mutex.acquire()
            if entry.poisoned:
                # A previous holder failed on it after we looked it up;
                # retire it and build a fresh entry on the next pass.
                self._retire_locked(entry)
                entry.mutex.release()
                continue
            entry.uses += 1
            entry.last_used = next(self._use_seq)
            return PoolLease(self, entry, reused)

    def _build(
        self, key, dataset_root, config, profile, trace, retry, faults
    ) -> _PoolEntry:
        prepared = prepare_pipeline(dataset_root, config)
        runtime = build_runtime(
            prepared.graph,
            runtime=profile.runtime,
            max_queue=profile.max_queue,
            retry=retry if retry is not None else config.retry,
            faults=faults,
            trace=trace,
            hosts=list(profile.hosts) if profile.hosts else None,
            elastic=profile.elastic,
            heartbeat_timeout=profile.heartbeat_timeout,
        )
        return _PoolEntry(key, prepared, runtime)

    def _release(self, entry: _PoolEntry) -> None:
        if entry.poisoned:
            self._retire_locked(entry)
        entry.mutex.release()

    def _retire_locked(self, entry: _PoolEntry) -> None:
        """Remove + tear down a poisoned entry; caller holds its mutex.

        Teardown is idempotent, so a lease-waiter that acquires the
        mutex after the failing holder retired the entry simply retires
        it again (a no-op) and rebuilds.
        """
        with self._lock:
            if self._entries.get(entry.key) is entry:
                del self._entries[entry.key]
                self.discards += 1
        entry.teardown()

    def _evict_over_capacity(self) -> None:
        """LRU-evict idle entries beyond capacity (caller holds _lock)."""
        while len(self._entries) > self.max_entries:
            idle = [
                e for e in self._entries.values()
                if not e.mutex.locked() and not e.poisoned
            ]
            if not idle:
                return  # everything is running; allow temporary overflow
            victim = min(idle, key=lambda e: e.last_used)
            del self._entries[victim.key]
            self.evictions += 1
            # A lease-waiter that looked the victim up before this point
            # must not run on it: poisoned makes it retire and rebuild.
            victim.poisoned = True
            victim.teardown()

    # -- lifecycle / introspection -----------------------------------------

    def close(self) -> None:
        """Tear down every entry (waits for in-flight leases)."""
        with self._lock:
            self._closed = True
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            with entry.mutex:
                entry.poisoned = True
                entry.teardown()

    def __enter__(self) -> "RuntimePool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "builds": self.builds,
                "reuses": self.reuses,
                "evictions": self.evictions,
                "discards": self.discards,
            }
