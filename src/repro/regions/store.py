"""The region store: templates + extents + a storage hierarchy.

:class:`RegionStore` is the data layer's front door.  Callers think in
*templates* (named families of regions) and *extents* (4-D boxes in
dataset coordinates); the store maps those onto flat keys in a
:class:`~repro.regions.hierarchy.StorageHierarchy` and keeps the extent
index needed to answer geometric queries:

* :meth:`stage` — place one region (a chunk, a ghost slab, a cached
  feature block) into the hierarchy under its extent.
* :meth:`get` — exact-extent fetch.
* :meth:`resolve` — the overlap query: every staged region intersecting
  a target extent, with the intersection boxes, so ghost regions of
  IIC→TEXTURE chunks are *served* from previously staged neighbours
  instead of re-read or recomputed.

The store is thread-safe and keeps per-tier hit/stage counters so the
obs layer and the benchmarks can report reuse without instrumenting
callers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .hierarchy import DROPPED, Eviction, StageReport, StorageHierarchy, StagingPolicy
from .template import RegionExtent, RegionTemplate, region_key

__all__ = ["RegionStore", "ResolveHit", "StoreStats"]


@dataclass(frozen=True)
class ResolveHit:
    """One staged region overlapping a resolve target."""

    extent: RegionExtent  # the staged region's full extent
    overlap: RegionExtent  # intersection with the target
    data: np.ndarray  # the staged region's full payload (read-only)
    tier: str  # tier the payload was served from
    evictions: Tuple[Eviction, ...] = ()  # what promoting it displaced

    @property
    def overlap_data(self) -> np.ndarray:
        """The payload restricted to the overlapping box."""
        return self.data[self.overlap.slices_in(self.extent)]


@dataclass
class StoreStats:
    stages: int = 0
    staged_bytes: int = 0
    hits: int = 0
    hit_bytes: int = 0
    misses: int = 0
    evictions: int = 0
    drops: int = 0
    hits_by_tier: Dict[str, int] = field(default_factory=dict)
    stages_by_tier: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "stages": self.stages,
            "staged_bytes": self.staged_bytes,
            "hits": self.hits,
            "hit_bytes": self.hit_bytes,
            "misses": self.misses,
            "evictions": self.evictions,
            "drops": self.drops,
            "hits_by_tier": dict(self.hits_by_tier),
            "stages_by_tier": dict(self.stages_by_tier),
        }


class RegionStore:
    """Named region templates over one storage hierarchy."""

    def __init__(self, hierarchy: StorageHierarchy):
        self.hierarchy = hierarchy
        self._lock = threading.RLock()
        self._templates: Dict[str, RegionTemplate] = {}
        # template name -> {flat key -> extent} for the overlap query.
        self._extents: Dict[str, Dict[str, RegionExtent]] = {}
        self.stats = StoreStats()

    @classmethod
    def from_policy(cls, policy: StagingPolicy) -> "RegionStore":
        return cls(StorageHierarchy.from_policy(policy))

    # -- templates ---------------------------------------------------------

    def register(self, template: RegionTemplate) -> RegionTemplate:
        """Register a template; re-registering the same one is a no-op."""
        with self._lock:
            existing = self._templates.get(template.name)
            if existing is not None:
                if existing != template:
                    raise ValueError(
                        f"template {template.name!r} already registered "
                        f"with different parameters"
                    )
                return existing
            self._templates[template.name] = template
            self._extents[template.name] = {}
            return template

    def template(self, name: str) -> Optional[RegionTemplate]:
        with self._lock:
            return self._templates.get(name)

    def _require(self, name: str, extent: RegionExtent) -> RegionTemplate:
        tmpl = self._templates.get(name)
        if tmpl is None:
            raise KeyError(f"unknown region template {name!r}")
        tmpl.validate(extent)
        return tmpl

    # -- staging -----------------------------------------------------------

    def stage(
        self,
        name: str,
        extent: RegionExtent,
        data: np.ndarray,
        copy: bool = True,
    ) -> StageReport:
        """Stage one region instance under ``name`` at ``extent``.

        ``copy=True`` (the default) snapshots the payload so the caller
        may keep mutating its buffer; pass ``copy=False`` only when the
        array is handed over for good.
        """
        with self._lock:
            tmpl = self._require(name, extent)
            if tuple(data.shape) != extent.shape:
                raise ValueError(
                    f"payload shape {tuple(data.shape)} != extent shape "
                    f"{extent.shape}"
                )
            if tmpl.dtype is not None and str(data.dtype) != tmpl.dtype:
                raise ValueError(
                    f"template {name!r} is {tmpl.dtype}, payload is {data.dtype}"
                )
            payload = np.array(data, copy=True) if copy else np.ascontiguousarray(data)
            payload.flags.writeable = False
            key = region_key(name, extent)
            report = self.hierarchy.put(key, payload)
            self.stats.stages += 1
            self.stats.staged_bytes += report.nbytes
            if report.tier is not None:
                self._extents[name][key] = extent
                self.stats.stages_by_tier[report.tier] = (
                    self.stats.stages_by_tier.get(report.tier, 0) + 1
                )
            else:
                self._extents[name].pop(key, None)
            self._account(report.evictions)
            return report

    def _account(self, evictions: Sequence[Eviction]) -> None:
        """Count what a stage or a fetch displaced; forget what it dropped."""
        for ev in evictions:
            self.stats.evictions += 1
            if ev.dst == DROPPED:
                self.stats.drops += 1
                template = ev.key.split("|", 1)[0]
                self._extents.get(template, {}).pop(ev.key, None)

    # -- queries -----------------------------------------------------------

    def get(self, name: str, extent: RegionExtent) -> Optional[ResolveHit]:
        """Exact-extent fetch, or ``None`` on miss."""
        with self._lock:
            self._require(name, extent)
            key = region_key(name, extent)
            if key not in self._extents[name]:
                self.stats.misses += 1
                return None
            data, tier, evictions = self.hierarchy.get(key)
            self._account(evictions)
            self._record_hit(tier, data.nbytes)
            return ResolveHit(extent, extent, data, tier, tuple(evictions))

    def resolve(self, name: str, target: RegionExtent) -> List[ResolveHit]:
        """Every staged region of ``name`` overlapping ``target``.

        This is the ghost-region query: the caller copies each hit's
        ``overlap_data`` into its buffer and only reads/computes what is
        left uncovered.
        """
        with self._lock:
            self._require(name, target)
            hits: List[ResolveHit] = []
            index = self._extents[name]
            for key, extent in list(index.items()):
                overlap = extent.intersect(target)
                # A promotion earlier in this loop may have pushed a
                # later candidate off the hierarchy (and the index).
                if overlap is None or key not in index:
                    continue
                data, tier, evictions = self.hierarchy.get(key)
                self._account(evictions)
                self._record_hit(tier, overlap.num_voxels * data.itemsize)
                hits.append(
                    ResolveHit(extent, overlap, data, tier, tuple(evictions))
                )
            if not hits:
                self.stats.misses += 1
            return hits

    def _record_hit(self, tier: str, nbytes: int) -> None:
        self.stats.hits += 1
        self.stats.hit_bytes += int(nbytes)
        self.stats.hits_by_tier[tier] = self.stats.hits_by_tier.get(tier, 0) + 1

    def __contains__(self, item: Tuple[str, RegionExtent]) -> bool:
        name, extent = item
        with self._lock:
            return region_key(name, extent) in self._extents.get(name, {})

    # -- eviction / lifecycle ----------------------------------------------

    def evict(self, name: str, extent: RegionExtent) -> bool:
        with self._lock:
            self._require(name, extent)
            key = region_key(name, extent)
            self._extents[name].pop(key, None)
            return self.hierarchy.remove(key)

    def clear(self, name: Optional[str] = None) -> None:
        """Drop every region of ``name`` (or of every template)."""
        with self._lock:
            names = [name] if name is not None else list(self._extents)
            for tname in names:
                for key in list(self._extents.get(tname, {})):
                    self._extents[tname].pop(key, None)
                    self.hierarchy.remove(key)

    def occupancy(self) -> Dict[str, int]:
        return self.hierarchy.occupancy()

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "templates": sorted(self._templates),
                "regions": {n: len(idx) for n, idx in self._extents.items()},
                "occupancy": self.occupancy(),
                "hierarchy": self.hierarchy.stats(),
                "counters": self.stats.as_dict(),
            }

    def close(self) -> None:
        with self._lock:
            self.hierarchy.close()
            for idx in self._extents.values():
                idx.clear()

    def __enter__(self) -> "RegionStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
