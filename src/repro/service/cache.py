"""Content-addressed result cache for the analysis service.

Two cooperating pieces:

* :func:`volume_fingerprint` — a content hash over every file of a
  disk-resident dataset (node index files plus slice files), memoized
  per file by ``(size, mtime_ns)`` so repeated fingerprints of an
  unchanged dataset cost a handful of ``stat()`` calls instead of a
  re-read.  Rewriting a dataset in place changes the fingerprint, so a
  stale cache entry can never be served for new bytes.

* :class:`ResultCache` — an LRU cache of stitched feature volumes,
  bounded by payload bytes, with one entry **per feature** rather than
  per feature *set*.  A job asking for ``(asm, idm)`` fills two entries;
  a later job asking for ``(idm, entropy)`` reuses ``idm`` and only
  computes ``entropy``.

The cache key (:func:`result_key`) is the full identity of one feature
volume::

    v=<dataset content hash>/roi=5x5x5x3/levels=32/range=0,65535/dist=1/f=asm

Everything that changes the numbers is in the key; everything that is
guaranteed bit-identical across choices stays out of it.  Variant
(hmp/split), kernel backend, sparse mode, chunk shape, copy counts,
scheduling policy and runtime are all excluded **deliberately**: the
repo's conformance and property suites pin all of them to bit-identical
outputs, so including them would only fragment the cache.  The
direction set needs no explicit component because it is the fixed
canonical half-space set for the dataset's dimensionality, scaled by
``distance`` — which is in the key.
"""

from __future__ import annotations

import hashlib
import os
import threading
from typing import Any, Dict, Iterable, Optional, Tuple

import numpy as np

from ..filters.messages import TextureParams
from ..regions import (
    TIER_DISK,
    TIER_RAM,
    Eviction,
    StagingPolicy,
    StorageHierarchy,
)

__all__ = ["volume_fingerprint", "result_key", "ResultCache"]


# -- dataset fingerprinting -------------------------------------------------

# path -> ((size, mtime_ns), sha256 hex); guarded by _FP_LOCK.
_FILE_HASHES: Dict[str, Tuple[Tuple[int, int], str]] = {}
_FP_LOCK = threading.Lock()


def _file_digest(path: str) -> str:
    st = os.stat(path)
    sig = (st.st_size, st.st_mtime_ns)
    with _FP_LOCK:
        hit = _FILE_HASHES.get(path)
        if hit is not None and hit[0] == sig:
            return hit[1]
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    digest = h.hexdigest()
    with _FP_LOCK:
        _FILE_HASHES[path] = (sig, digest)
    return digest


def volume_fingerprint(dataset_root: str) -> str:
    """Content hash of a disk-resident dataset (all files, sorted walk).

    Per-file digests are memoized by ``(size, mtime_ns)``, so the steady
    -state cost for an unchanged dataset is one ``stat()`` per file.
    """
    root = os.path.realpath(dataset_root)
    h = hashlib.sha256()
    seen = False
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            h.update(rel.encode())
            h.update(b"\0")
            h.update(_file_digest(path).encode())
            h.update(b"\n")
            seen = True
    if not seen:
        raise FileNotFoundError(f"no dataset files under {dataset_root!r}")
    return h.hexdigest()


def result_key(volume_hash: str, params: TextureParams, feature: str) -> str:
    """Cache key for one feature volume (see module docstring)."""
    roi = "x".join(str(r) for r in params.roi_shape)
    lo, hi = params.intensity_range
    return (
        f"v={volume_hash}/roi={roi}/levels={params.levels}"
        f"/range={lo:g},{hi:g}/dist={params.distance}/f={feature}"
    )


# -- the LRU cache ----------------------------------------------------------


class ResultCache:
    """Byte-bounded LRU cache of feature volumes, with optional spill.

    Stored arrays are marked read-only and handed back without copying —
    every consumer of a pipeline result treats volumes as immutable, and
    the read-only flag turns an accidental in-place edit into an error
    instead of silent cross-tenant corruption.

    The entries live in the region layer's
    :class:`~repro.regions.StorageHierarchy` (the repo's one
    LRU-with-spill); the cache adds keys, counters and nothing else.
    Without spill that is a RAM tier alone: entries past ``max_bytes``
    are dropped and one larger than ``max_bytes`` is refused.  With
    spill enabled (``spill_bytes`` and/or ``spill_dir``) a disk tier
    sits below: displaced entries demote to it instead of dropping, a
    hit there promotes the entry back (counted in both ``hits`` and
    ``disk_hits``), and entries larger than ``max_bytes`` go straight to
    disk and are served from there.  The disk tier brings crash-safe
    cleanup (per-session spill directory, stale-session sweep,
    ``atexit`` hook).
    """

    def __init__(
        self,
        max_bytes: int = 256 << 20,
        spill_dir: Optional[str] = None,
        spill_bytes: Optional[int] = None,
    ):
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        if spill_bytes is not None and spill_bytes < 0:
            raise ValueError("spill_bytes must be >= 0 or None")
        spill = spill_dir is not None or bool(spill_bytes)
        self.max_bytes = max_bytes
        self._store = StorageHierarchy.from_policy(
            StagingPolicy(
                ram_bytes=max_bytes,
                disk_bytes=spill_bytes if spill else 0,
                spill_dir=spill_dir,
            )
        )
        # Guards the counters; the hierarchy has its own lock.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.puts = 0
        self.spills = 0
        self.disk_hits = 0

    def _count(self, evictions: Iterable[Eviction]) -> None:
        """``evictions``: entries that left RAM; ``spills``: that reached disk."""
        for ev in evictions:
            self.evictions += ev.src == TIER_RAM
            self.spills += ev.dst == TIER_DISK

    def get(self, key: str) -> Optional[np.ndarray]:
        with self._lock:
            vol, tier, evictions = self._store.get(key)
            self._count(evictions)
            if vol is None:
                self.misses += 1
                return None
            self.hits += 1
            self.disk_hits += tier == TIER_DISK
            return vol

    def put(self, key: str, volume: np.ndarray) -> None:
        vol = np.ascontiguousarray(volume)
        vol.flags.writeable = False
        with self._lock:
            report = self._store.put(key, vol)
            self._count(report.evictions)
            self.puts += report.tier is not None
            self.spills += report.tier == TIER_DISK

    def __contains__(self, key: str) -> bool:
        return key in self._store

    def __len__(self) -> int:
        return sum(self._store.entries().values())

    @property
    def bytes_used(self) -> int:
        """In-RAM payload bytes (spilled entries are not RAM)."""
        return self._store.occupancy()[TIER_RAM]

    @property
    def disk_bytes_used(self) -> int:
        return self._store.occupancy().get(TIER_DISK, 0)

    def clear(self) -> None:
        self._store.clear()

    def close(self) -> None:
        """Release every entry and the spill directory (idempotent)."""
        self._store.close()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            total = self.hits + self.misses
            entries = self._store.entries()
            return {
                "entries": entries[TIER_RAM],
                "bytes": self.bytes_used,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (self.hits / total) if total else 0.0,
                "puts": self.puts,
                "evictions": self.evictions,
                "spill_enabled": TIER_DISK in entries,
                "spills": self.spills,
                "disk_hits": self.disk_hits,
                "disk_entries": entries.get(TIER_DISK, 0),
                "disk_bytes": self.disk_bytes_used,
            }
