"""Region-template data layer: named 4-D regions over a storage hierarchy.

The package follows the Region Templates design (Teodoro et al., same
Saltz/Kurc lineage as the source paper): callers address data by
*(template name, extent)* instead of by buffer, and a two-level storage
hierarchy — RAM over a disk spill, LRU, promote on hit — decides where
the bytes live.  See ``docs/data-layer.md`` for what it saves and where
it cannot.
"""

from .hierarchy import (
    DROPPED,
    Eviction,
    StageReport,
    StagingPolicy,
    StorageHierarchy,
)
from .staging import CHUNK_TEMPLATE, StagedRead, chunk_extent, read_chunk_staged
from .store import RegionStore, ResolveHit, StoreStats
from .template import RegionExtent, RegionTemplate, region_key
from .tiers import TIER_DISK, TIER_RAM, DiskTier, RamTier, StorageTier

__all__ = [
    "RegionExtent",
    "RegionTemplate",
    "region_key",
    "StorageTier",
    "RamTier",
    "DiskTier",
    "TIER_RAM",
    "TIER_DISK",
    "StagingPolicy",
    "StorageHierarchy",
    "StageReport",
    "Eviction",
    "DROPPED",
    "RegionStore",
    "ResolveHit",
    "StoreStats",
    "StagedRead",
    "chunk_extent",
    "read_chunk_staged",
    "CHUNK_TEMPLATE",
]
