"""The two-level storage hierarchy: RAM over a disk spill.

A :class:`StorageHierarchy` stacks tiers fastest-first and moves
payloads between them by one fixed rule set:

* **stage** — a region is placed in the highest tier whose budget can
  hold it; a full tier makes room by evicting its least-recently-used
  region and *demoting* it one level down (spill), cascading until a
  tier has room or the last tier drops the victim.
* **fetch** — tiers are probed top-down; a hit below the top is
  *promoted* to the highest tier that can hold it, paying one copy now
  to make the next fetch a RAM hit.  A hit no higher tier can ever hold
  is served in place (no rewrite of its spill file).
* **evict** — explicit removal, used when a caller knows a region is
  dead.

Every stage and every fetch reports what it displaced, so callers that
keep their own index over the keys (:class:`~repro.regions.RegionStore`,
:class:`repro.service.ResultCache`) can count and prune from the report.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .tiers import DiskTier, RamTier, StorageTier

__all__ = [
    "StagingPolicy",
    "StorageHierarchy",
    "StageReport",
    "Eviction",
    "DROPPED",
]

#: Destination label of an eviction that fell off the last tier.
DROPPED = "dropped"


@dataclass(frozen=True)
class StagingPolicy:
    """Tier budgets of one hierarchy.

    ``ram_bytes`` is the top-tier budget (the out-of-core knob: cap it
    below the dataset size and staging spills instead of growing).
    ``disk_bytes`` of 0 disables the spill tier, ``None`` leaves it
    unbounded.  ``spill_dir`` overrides the disk tier's root directory.
    """

    ram_bytes: int = 256 << 20
    disk_bytes: Optional[int] = None
    spill_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.ram_bytes < 0:
            raise ValueError("ram_bytes must be >= 0")
        if self.disk_bytes is not None and self.disk_bytes < 0:
            raise ValueError("disk_bytes must be >= 0 or None")


@dataclass(frozen=True)
class Eviction:
    """One region displaced by a stage or a promotion: demoted or dropped."""

    key: str
    src: str
    dst: str  # a tier name, or DROPPED
    nbytes: int


@dataclass
class StageReport:
    """Where a stage landed and what it displaced."""

    key: str
    tier: Optional[str]  # None: nothing could take it (dropped)
    nbytes: int
    evictions: List[Eviction]
    #: Occupancy after the stage, tier name -> bytes used.
    tier_bytes: Dict[str, int]


class StorageHierarchy:
    """Ordered tiers plus the demotion/promotion machinery.

    Thread-safe; one lock guards placement and the per-tier recency
    index.  Build from a :class:`StagingPolicy` (:meth:`from_policy`) or
    pass explicit tiers for tests.
    """

    def __init__(self, tiers: List[StorageTier]):
        if not tiers:
            raise ValueError("hierarchy needs at least one tier")
        names = [t.name for t in tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names: {names}")
        self.tiers = list(tiers)
        self._lock = threading.RLock()
        # Per-tier placement index in recency order (oldest first);
        # key -> nbytes.
        self._index: List["OrderedDict[str, int]"] = [OrderedDict() for _ in tiers]
        self._closed = False

    @classmethod
    def from_policy(cls, policy: StagingPolicy) -> "StorageHierarchy":
        tiers: List[StorageTier] = [RamTier(policy.ram_bytes)]
        if policy.disk_bytes is None or policy.disk_bytes:
            tiers.append(DiskTier(policy.disk_bytes, root=policy.spill_dir))
        return cls(tiers)

    # -- placement ---------------------------------------------------------

    def _holds(self, level: int, nbytes: int) -> bool:
        """Whether ``level``'s whole budget could hold ``nbytes``."""
        cap = self.tiers[level].capacity_bytes
        return cap is None or nbytes <= cap

    def _place(
        self, key: str, arr: np.ndarray, level: int, evictions: List[Eviction]
    ) -> Optional[str]:
        """Place into ``level`` or below, evicting/demoting as needed."""
        for lvl in range(level, len(self.tiers)):
            # A payload beyond the tier's whole budget goes straight
            # down; emptying the tier for it would evict for nothing.
            if not self._holds(lvl, arr.nbytes):
                continue
            tier, index = self.tiers[lvl], self._index[lvl]
            while not tier.put(key, arr):
                self._demote(next(iter(index)), lvl, evictions)
            index[key] = arr.nbytes
            return tier.name
        return None

    def _demote(self, key: str, level: int, evictions: List[Eviction]) -> None:
        tier = self.tiers[level]
        nbytes = self._index[level].pop(key)
        data = tier.get(key)
        tier.remove(key)
        dst = self._place(key, data, level + 1, evictions)
        evictions.append(
            Eviction(key=key, src=tier.name, dst=dst or DROPPED, nbytes=nbytes)
        )

    def put(self, key: str, arr: np.ndarray) -> StageReport:
        """Stage one region into the highest tier that takes it."""
        arr = np.ascontiguousarray(arr)
        with self._lock:
            if self._closed:  # e.g. a worker outliving its service
                return StageReport(key, None, arr.nbytes, [], {})
            self.remove(key)
            evictions: List[Eviction] = []
            tier = self._place(key, arr, 0, evictions)
            return StageReport(
                key=key,
                tier=tier,
                nbytes=arr.nbytes,
                evictions=evictions,
                tier_bytes=self.occupancy(),
            )

    def get(
        self, key: str
    ) -> Tuple[Optional[np.ndarray], Optional[str], List[Eviction]]:
        """Fetch one region: ``(array, serving tier, displaced)``.

        ``displaced`` lists what promoting the hit pushed down or off
        the hierarchy; a miss is ``(None, None, [])``.
        """
        with self._lock:
            for level, tier in enumerate(self.tiers):
                index = self._index[level]
                if key not in index:
                    continue
                data = tier.get(key)
                index.move_to_end(key)
                evictions: List[Eviction] = []
                if any(self._holds(up, data.nbytes) for up in range(level)):
                    del index[key]
                    tier.remove(key)
                    self._place(key, data, 0, evictions)
                return data, tier.name, evictions
            return None, None, []

    def remove(self, key: str) -> bool:
        with self._lock:
            for level, tier in enumerate(self.tiers):
                if key in self._index[level]:
                    del self._index[level][key]
                    tier.remove(key)
                    return True
            return False

    def clear(self) -> None:
        """Drop every region from every tier."""
        with self._lock:
            for tier, index in zip(self.tiers, self._index):
                for key in index:
                    tier.remove(key)
                index.clear()

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return any(key in idx for idx in self._index)

    # -- introspection / lifecycle -----------------------------------------

    def occupancy(self) -> Dict[str, int]:
        """Tier name -> payload bytes currently staged."""
        return {t.name: t.bytes_used for t in self.tiers}

    def entries(self) -> Dict[str, int]:
        """Tier name -> number of staged regions."""
        with self._lock:
            return {
                t.name: len(idx) for t, idx in zip(self.tiers, self._index)
            }

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "tiers": [
                    {
                        "name": t.name,
                        "capacity_bytes": t.capacity_bytes,
                        "bytes_used": t.bytes_used,
                        "entries": len(idx),
                    }
                    for t, idx in zip(self.tiers, self._index)
                ],
            }

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for tier in self.tiers:
                tier.close()
            for idx in self._index:
                idx.clear()

    def __enter__(self) -> "StorageHierarchy":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
