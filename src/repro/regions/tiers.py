"""Storage tiers: where region payloads physically live.

A tier is a dumb byte store with a capacity; staging order, eviction and
demotion between tiers are the hierarchy's business
(:class:`repro.regions.hierarchy.StorageHierarchy`).  Four tiers ship:

* :class:`RamTier` — plain in-process arrays, the fastest tier.
* :class:`ShmTier` — payloads parked in anonymous shared-memory slabs
  via the processes runtime's :class:`~repro.datacutter.net.shm.ShmPool`
  (one slab per region), so staged regions live outside the Python heap
  and are visible to children forked by the staging process.
* :class:`DiskTier` — ``.npy`` spill files in a per-session directory,
  the out-of-core tier.  Cleanup is crash-safe twice over: the session
  directory is removed by ``close()`` and by an ``atexit`` hook, and
  every tier construction sweeps session directories left behind by
  dead processes (kill -9 leaves no way to run our own cleanup, so the
  *next* session does it).
* :class:`RemoteTier` — a stub interface for remote storage nodes: the
  tier serializes regions to bytes and delegates to a pluggable
  :class:`RemoteStorageClient`.  No network client ships yet;
  :class:`InMemoryRemoteClient` stands in for tests and local use.

``put`` returns ``False`` when the tier cannot take the payload at its
current occupancy — the hierarchy reacts by evicting or demoting; tiers
themselves never block and never evict.
"""

from __future__ import annotations

import abc
import atexit
import hashlib
import io
import os
import re
import secrets
import shutil
import tempfile
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "StorageTier",
    "RamTier",
    "ShmTier",
    "DiskTier",
    "RemoteTier",
    "RemoteStorageClient",
    "InMemoryRemoteClient",
    "TIER_RAM",
    "TIER_SHM",
    "TIER_DISK",
    "TIER_REMOTE",
]

TIER_RAM = "ram"
TIER_SHM = "shm"
TIER_DISK = "disk"
TIER_REMOTE = "remote"


class StorageTier(abc.ABC):
    """One level of the staging hierarchy (see module docstring)."""

    #: Tier label used in events, metrics and policy specs.
    name: str = "tier"
    #: Byte budget; ``None`` means unbounded.
    capacity_bytes: Optional[int] = None

    @abc.abstractmethod
    def put(self, key: str, arr: np.ndarray) -> bool:
        """Store one region; ``False`` when it does not fit right now."""

    @abc.abstractmethod
    def get(self, key: str) -> Optional[np.ndarray]:
        """Fetch a stored region (a read-only array), or ``None``."""

    @abc.abstractmethod
    def remove(self, key: str) -> None:
        """Drop a region; missing keys are a no-op."""

    @property
    @abc.abstractmethod
    def bytes_used(self) -> int:
        """Payload bytes currently stored."""

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def close(self) -> None:
        """Release every resource the tier holds (idempotent)."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class RamTier(StorageTier):
    """In-process arrays; the top of every hierarchy."""

    name = TIER_RAM

    def __init__(self, capacity_bytes: Optional[int] = None):
        self.capacity_bytes = capacity_bytes
        self._entries: Dict[str, np.ndarray] = {}
        self._bytes = 0

    def put(self, key: str, arr: np.ndarray) -> bool:
        self.remove(key)
        cap = self.capacity_bytes
        if cap is not None and self._bytes + arr.nbytes > cap:
            return False
        self._entries[key] = arr
        self._bytes += arr.nbytes
        return True

    def get(self, key: str) -> Optional[np.ndarray]:
        return self._entries.get(key)

    def remove(self, key: str) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes

    @property
    def bytes_used(self) -> int:
        return self._bytes

    def close(self) -> None:
        self._entries.clear()
        self._bytes = 0


class ShmTier(StorageTier):
    """Regions parked in pooled shared-memory slabs.

    Reuses the processes runtime's :class:`ShmPool` slab allocator (one
    region per slab, so ``segment_bytes`` bounds the largest region this
    tier takes).  The slabs are anonymous shared mappings: they have no
    ``/dev/shm`` entry, and after a crash the kernel frees them with the
    process, so there is nothing to clean up.
    """

    name = TIER_SHM

    def __init__(
        self,
        capacity_bytes: int,
        segment_bytes: int = 32 << 20,
    ):
        import multiprocessing as mp

        from ..datacutter.net.shm import ShmPool

        segments = max(1, int(capacity_bytes) // int(segment_bytes))
        self.capacity_bytes = segments * int(segment_bytes)
        self.segment_bytes = int(segment_bytes)
        # threshold=1: the tier decides placement, not payload size.
        self._pool = ShmPool(
            mp.get_context("fork"),
            segments=segments,
            segment_bytes=int(segment_bytes),
            threshold=1,
        )
        # key -> (slot, nbytes, shape, dtype str)
        self._entries: Dict[str, Tuple[int, int, Tuple[int, ...], str]] = {}
        self._bytes = 0

    def put(self, key: str, arr: np.ndarray) -> bool:
        self.remove(key)
        data = np.ascontiguousarray(arr)
        slot = self._pool.acquire(data.nbytes)
        if slot is None:
            return False  # larger than a slab, or no free slab
        self._pool.view(slot, 0, data.nbytes)[:] = data.reshape(-1).view(np.uint8)
        self._entries[key] = (slot, data.nbytes, data.shape, str(data.dtype))
        self._bytes += data.nbytes
        return True

    def get(self, key: str) -> Optional[np.ndarray]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        slot, nbytes, shape, dtype = entry
        raw = self._pool.view(slot, 0, nbytes)
        # Copy out: the slab is recycled on remove(), so handing out a
        # view would dangle.  Promotion to RAM copies anyway.
        return _readonly(
            np.frombuffer(bytes(raw), dtype=np.dtype(dtype)).reshape(shape)
        )

    def remove(self, key: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._pool.release(entry[0])
            self._bytes -= entry[1]

    @property
    def bytes_used(self) -> int:
        return self._bytes

    def close(self) -> None:
        self._entries.clear()
        self._bytes = 0
        self._pool.destroy()


#: Session-directory pattern for the stale sweep: spill-<pid>-<token>.
_SESSION_RE = re.compile(r"^spill-(\d+)-[0-9a-f]+$")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


class DiskTier(StorageTier):
    """Local-disk spill: one ``.npy`` file per region.

    Files live in ``<root>/spill-<pid>-<token>/``; ``root`` defaults to
    ``$TMPDIR/repro-regions``.  Construction sweeps sibling session
    directories whose owning pid is dead (crash-safe cleanup for spills
    orphaned by ``kill -9``), ``close()`` removes this session's
    directory, and an ``atexit`` hook covers interpreter exit without
    ``close()``.
    """

    name = TIER_DISK

    def __init__(
        self,
        capacity_bytes: Optional[int] = None,
        root: Optional[str] = None,
    ):
        self.capacity_bytes = capacity_bytes
        self.root = root or os.path.join(tempfile.gettempdir(), "repro-regions")
        os.makedirs(self.root, exist_ok=True)
        self._sweep_stale()
        self.session_dir = os.path.join(
            self.root, f"spill-{os.getpid()}-{secrets.token_hex(4)}"
        )
        os.makedirs(self.session_dir)
        self._entries: Dict[str, Tuple[str, int]] = {}  # key -> (path, nbytes)
        self._bytes = 0
        self._closed = False
        self._atexit = atexit.register(self.close)

    def _sweep_stale(self) -> None:
        for name in os.listdir(self.root):
            m = _SESSION_RE.match(name)
            if m and not _pid_alive(int(m.group(1))):
                shutil.rmtree(os.path.join(self.root, name), ignore_errors=True)

    def put(self, key: str, arr: np.ndarray) -> bool:
        self.remove(key)
        cap = self.capacity_bytes
        if cap is not None and self._bytes + arr.nbytes > cap:
            return False
        path = os.path.join(
            self.session_dir, hashlib.sha1(key.encode()).hexdigest() + ".npy"
        )
        np.save(path, np.ascontiguousarray(arr))
        self._entries[key] = (path, arr.nbytes)
        self._bytes += arr.nbytes
        return True

    def get(self, key: str) -> Optional[np.ndarray]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        return _readonly(np.load(entry[0]))

    def remove(self, key: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            try:
                os.unlink(entry[0])
            except FileNotFoundError:
                pass
            self._bytes -= entry[1]

    @property
    def bytes_used(self) -> int:
        return self._bytes

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._entries.clear()
        self._bytes = 0
        shutil.rmtree(self.session_dir, ignore_errors=True)
        try:
            atexit.unregister(self._atexit)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass


class RemoteStorageClient(abc.ABC):
    """Transport interface a :class:`RemoteTier` delegates to.

    The network client for real remote storage nodes is future work;
    the interface is fixed now so the hierarchy, the staging policies
    and the eviction cascade are already written against it.
    """

    @abc.abstractmethod
    def put_object(self, key: str, data: bytes) -> None:
        """Store one serialized region under ``key``."""

    @abc.abstractmethod
    def get_object(self, key: str) -> Optional[bytes]:
        """Fetch a serialized region, or ``None`` when absent."""

    @abc.abstractmethod
    def delete_object(self, key: str) -> None:
        """Drop one region; missing keys are a no-op."""

    def close(self) -> None:
        """Release the client's connections (idempotent)."""


class InMemoryRemoteClient(RemoteStorageClient):
    """Dict-backed stand-in for a remote storage node (tests, demos)."""

    def __init__(self) -> None:
        self.objects: Dict[str, bytes] = {}

    def put_object(self, key: str, data: bytes) -> None:
        self.objects[key] = data

    def get_object(self, key: str) -> Optional[bytes]:
        return self.objects.get(key)

    def delete_object(self, key: str) -> None:
        self.objects.pop(key, None)


class RemoteTier(StorageTier):
    """Bottom tier: regions serialized out to a remote storage client."""

    name = TIER_REMOTE

    def __init__(
        self,
        client: RemoteStorageClient,
        capacity_bytes: Optional[int] = None,
    ):
        self.client = client
        self.capacity_bytes = capacity_bytes
        self._entries: Dict[str, int] = {}  # key -> nbytes
        self._bytes = 0

    def put(self, key: str, arr: np.ndarray) -> bool:
        self.remove(key)
        cap = self.capacity_bytes
        if cap is not None and self._bytes + arr.nbytes > cap:
            return False
        buf = io.BytesIO()
        np.save(buf, np.ascontiguousarray(arr))
        self.client.put_object(key, buf.getvalue())
        self._entries[key] = arr.nbytes
        self._bytes += arr.nbytes
        return True

    def get(self, key: str) -> Optional[np.ndarray]:
        if key not in self._entries:
            return None
        raw = self.client.get_object(key)
        if raw is None:
            return None
        return _readonly(np.load(io.BytesIO(raw)))

    def remove(self, key: str) -> None:
        nbytes = self._entries.pop(key, None)
        if nbytes is not None:
            self.client.delete_object(key)
            self._bytes -= nbytes

    @property
    def bytes_used(self) -> int:
        return self._bytes

    def close(self) -> None:
        self._entries.clear()
        self._bytes = 0
        self.client.close()
