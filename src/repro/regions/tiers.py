"""Storage tiers: where region payloads physically live.

A tier is a dumb byte store with a capacity; staging order, eviction and
demotion between tiers are the hierarchy's business
(:class:`repro.regions.hierarchy.StorageHierarchy`).  Two tiers ship:

* :class:`RamTier` — plain in-process arrays, the fastest tier.
* :class:`DiskTier` — ``.npy`` spill files in a per-session directory,
  the out-of-core tier.  Cleanup is crash-safe twice over: the session
  directory is removed by ``close()`` and by an ``atexit`` hook, and
  every tier construction sweeps session directories left behind by
  dead processes (kill -9 leaves no way to run our own cleanup, so the
  *next* session does it).

``put`` returns ``False`` when the tier cannot take the payload at its
current occupancy — the hierarchy reacts by evicting or demoting; tiers
themselves never block and never evict.
"""

from __future__ import annotations

import abc
import atexit
import hashlib
import os
import re
import secrets
import shutil
import tempfile
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "StorageTier",
    "RamTier",
    "DiskTier",
    "TIER_RAM",
    "TIER_DISK",
]

TIER_RAM = "ram"
TIER_DISK = "disk"


class StorageTier(abc.ABC):
    """One level of the staging hierarchy (see module docstring)."""

    #: Tier label used in events and metrics.
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
        arr = np.load(entry[0])
        arr.flags.writeable = False
        return arr

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
