"""Shared, cached workspaces for the co-occurrence scan kernels.

The hot loop of the incremental kernel's numpy passes needs an
auxiliary array whose contents depend only on ``(levels, batch)``-style
parameters, not on the data being scanned:

``pair_shift``
    The per-row bincount offset ``arange(n) * G**2`` that turns a batch
    of per-window pair codes into disjoint histogram segments for a
    single ``bincount`` call.

Allocating it per call shows up in profiles (it is as large as a batch
row), so it is cached here and shared by every scan and every filter
copy.  Cached arrays are returned *read-only*; kernels must never write
into them.  The cache is guarded by a lock because the local runtime
executes filter copies on threads.

:func:`symmetrize_inplace`, the one symmetrization routine every kernel
shares, lives here too; it caches nothing (its scratch is bounded and
per call).

``WORKSPACE_BYTES`` is the soft bound on transient working-set size the
kernels aim for when they sub-batch internally (it bounds temporaries,
not the caller-visible output batches).
"""

from __future__ import annotations

import threading
from typing import Dict

import numpy as np

__all__ = [
    "WORKSPACE_BYTES",
    "pair_shift",
    "symmetrize_inplace",
]

#: Soft cap on kernel-internal temporaries (gather blocks, histogram
#: segments).  Yielded matrix batches are sized by the caller's ``batch``
#: and are not subject to this bound.
WORKSPACE_BYTES = 32 * 2**20

_lock = threading.Lock()
_shift_cache: Dict[int, np.ndarray] = {}

#: Cap on the transposed scratch of :func:`symmetrize_inplace`: small
#: enough to stay cache-resident, so the add reads a hot slab.
_SYM_SCRATCH_BYTES = 2 * 2**20


def pair_shift(n: int, gg: int) -> np.ndarray:
    """Read-only ``(n, 1)`` int64 array of ``arange(n) * gg``.

    Cached per ``gg`` and grown geometrically, so repeated calls from a
    scan loop reuse one allocation.
    """
    with _lock:
        arr = _shift_cache.get(gg)
        if arr is None or arr.shape[0] < n:
            size = max(n, 2 * arr.shape[0] if arr is not None else n)
            arr = (np.arange(size, dtype=np.int64) * gg)[:, None]
            arr.setflags(write=False)
            _shift_cache[gg] = arr
        return arr[:n]


def symmetrize_inplace(mats: np.ndarray) -> np.ndarray:
    """``mats += mats.T`` per matrix, in place and without a full copy.

    ``mats`` has shape ``(B, G, G)`` (any strides).  Matrices are taken a
    slab at a time: each slab is copied transposed into a scratch of at
    most ``_SYM_SCRATCH_BYTES`` (one matrix when a single matrix is
    larger) and added back, so the temporary never grows with ``B``.
    """
    n, g = mats.shape[0], mats.shape[-1]
    slab = max(1, min(n, _SYM_SCRATCH_BYTES // max(1, g * g * mats.itemsize)))
    scratch = np.empty((slab, g, g), dtype=mats.dtype)
    for s0 in range(0, n, slab):
        m = mats[s0 : s0 + slab]
        t = scratch[: m.shape[0]]
        np.copyto(t, m.transpose(0, 2, 1))
        m += t
    return mats
