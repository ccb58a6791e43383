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
(hmp/split), kernel backend, chunk shape, copy counts,
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
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..filters.messages import TextureParams

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
    """Byte-bounded LRU cache of feature volumes, held in RAM.

    Stored arrays are marked read-only and handed back without copying —
    every consumer of a pipeline result treats volumes as immutable, and
    the read-only flag turns an accidental in-place edit into an error
    instead of silent cross-tenant corruption.

    Entries live in one ``OrderedDict`` in recency order (oldest first):
    a hit moves its key to the end, a ``put`` evicts from the front
    until the new entry fits, and an entry larger than ``max_bytes`` is
    refused.
    """

    def __init__(self, max_bytes: int):
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._bytes = 0
        self._closed = False
        # Guards the entries and the counters.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.puts = 0

    def get(self, key: str) -> Optional[np.ndarray]:
        with self._lock:
            vol = self._entries.get(key)
            if vol is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return vol

    def put(self, key: str, volume: np.ndarray) -> None:
        vol = np.ascontiguousarray(volume)
        vol.flags.writeable = False
        with self._lock:
            if self._closed:  # e.g. a worker outliving its service
                return
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            if vol.nbytes > self.max_bytes:
                return
            while self._bytes + vol.nbytes > self.max_bytes:
                self._bytes -= self._entries.popitem(last=False)[1].nbytes
                self.evictions += 1
            self._entries[key] = vol
            self._bytes += vol.nbytes
            self.puts += 1

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def bytes_used(self) -> int:
        return self._bytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def close(self) -> None:
        """Release every entry and refuse later puts (idempotent)."""
        with self._lock:
            self._closed = True
        self.clear()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (self.hits / total) if total else 0.0,
                "puts": self.puts,
                "evictions": self.evictions,
            }
