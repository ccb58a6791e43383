"""Shared, cached workspaces for the co-occurrence scan kernels.

The hot loops of the batched and incremental kernels need a handful of
auxiliary arrays whose contents depend only on ``(levels, batch)``-style
parameters, not on the data being scanned:

``pair_shift``
    The per-row bincount offset ``arange(n) * G**2`` that turns a batch
    of per-window pair codes into disjoint histogram segments for a
    single ``bincount`` call.
``scan_offsets``
    Precomputed flat-index gather tables for the GPU scatter kernels:
    per scan row and per direction group, the flat positions of every
    pair-code hyperplane inside one concatenated pair-code array.
    These depend only on ``(chunk_shape, roi_shape, directions)`` — in
    the pipeline every interior chunk shares one shape, so the tables
    are built once and reused for every chunk of the run.

Allocating these per call shows up in profiles (they are as large as a
batch row), so they are cached here and shared by every kernel and every
filter copy.  Cached arrays are returned *read-only*; kernels must never
write into them.  The cache is guarded by a lock because the local
runtime executes filter copies on threads.

:func:`symmetrize_inplace`, the one symmetrization routine every kernel
shares, lives here too; it caches nothing (its scratch is bounded and
per call).

``WORKSPACE_BYTES`` is the soft bound on transient working-set size the
kernels aim for when they sub-batch internally (it bounds temporaries,
not the caller-visible output batches).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .roi import ROISpec, valid_positions_shape

__all__ = [
    "WORKSPACE_BYTES",
    "GroupOffsets",
    "ScanOffsets",
    "pair_shift",
    "scan_offsets",
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


# --------------------------------------------------------------------------
# GPU gather tables: chunk-shape-keyed flat-index offsets.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupOffsets:
    """Gather table for one trailing-extent group of directions.

    Directions whose pair-code windows share the trailing extent ``W_t``
    are plane-aligned: the window at row position ``t`` covers code
    hyperplanes ``[t, t + W_t)``.  ``table[r, f]`` is the flat index (in
    the concatenated pair-code array of :class:`ScanOffsets`) of the
    hyperplane-0 code at face position ``f`` of scan row ``r``; plane
    ``j`` of that row sits at ``table[r, f] + j`` because every
    pair-code array is C-contiguous along the innermost axis.

    The flat table is what the GPU scatter kernels consume (their gather
    latency is hidden across threads).  It is ``O(n_rows * total_face)``
    — easily larger than the chunk itself — which is why no CPU kernel
    builds one.
    """

    trailing_extent: int  # W_t: planes summed per window
    n_planes: int  # row_len - 1 + W_t: planes gathered per row
    total_face: int  # code faces per plane, summed over members
    table: np.ndarray  # (n_rows, total_face) read-only intp


@dataclass(frozen=True)
class ScanOffsets:
    """All cached gather geometry of one (chunk, ROI, directions) scan.

    ``segments`` lists, per direction that fits the window, the slice of
    the concatenated flat pair-code array (size ``cat_size``) that the
    direction's ``pair_code_array`` fills.  The data-dependent codes are
    the only per-chunk work left; everything index-shaped is here.
    """

    n_rows: int
    row_len: int
    cat_size: int
    segments: Tuple[Tuple[Tuple[int, ...], int, int], ...]
    groups: Tuple[GroupOffsets, ...]


#: Distinct (chunk_shape, roi_shape, directions) entries kept.  The
#: pipeline sees one interior shape plus a handful of edge shapes, so a
#: small LRU bound keeps reuse near-perfect without unbounded growth.
_OFFSETS_CACHE_ENTRIES = 8

_offsets_cache: "OrderedDict[tuple, ScanOffsets]" = OrderedDict()


def _build_scan_offsets(
    data_shape: Tuple[int, ...],
    roi: ROISpec,
    directions: Tuple[Tuple[int, ...], ...],
) -> ScanOffsets:
    nd = len(data_shape)
    grid = valid_positions_shape(data_shape, roi)
    row_len = grid[-1]
    lead = grid[:-1]
    n_rows = 1
    for c in lead:
        n_rows *= c
    origins = np.unravel_index(np.arange(n_rows), lead) if lead else ()

    segments = []
    per_group: Dict[int, list] = {}
    cat_size = 0
    for v in directions:
        absv = tuple(abs(int(c)) for c in v)
        if any(roi.shape[i] <= absv[i] for i in range(nd)):
            continue  # pairs never fit inside the ROI for this direction
        cshape = tuple(data_shape[i] - absv[i] for i in range(nd))
        # Element strides of the C-contiguous pair-code array.
        strides = [1] * nd
        for i in range(nd - 2, -1, -1):
            strides[i] = strides[i + 1] * cshape[i + 1]
        w = tuple(roi.shape[i] - absv[i] for i in range(nd))
        size = 1
        for c in cshape:
            size *= c
        base = cat_size
        cat_size += size
        segments.append((tuple(int(c) for c in v), base, base + size))
        face = 1
        for e in w[:-1]:
            face *= e
        # Flat offsets of the leading window face (innermost axis left
        # to the per-plane ``+ j`` walk).
        if nd > 1:
            ix = np.ix_(*[np.arange(e, dtype=np.intp) for e in w[:-1]])
            lead_offs = sum(g * s for g, s in zip(ix, strides[:-1]))
            lead_offs = np.asarray(lead_offs, dtype=np.intp).reshape(-1)
        else:
            lead_offs = np.zeros(1, dtype=np.intp)
        if lead:
            row_base = sum(
                origins[i].astype(np.intp) * strides[i]
                for i in range(nd - 1)
            )
        else:
            row_base = np.zeros(1, dtype=np.intp)
        cols = base + row_base[:, None] + lead_offs[None, :]
        per_group.setdefault(w[-1], []).append((cols, face))

    groups = []
    for wt in sorted(per_group):
        table = np.ascontiguousarray(
            np.concatenate([cols for cols, _face in per_group[wt]], axis=1),
            dtype=np.intp,
        )
        table.setflags(write=False)
        groups.append(
            GroupOffsets(
                trailing_extent=wt,
                n_planes=row_len - 1 + wt,
                total_face=sum(face for _cols, face in per_group[wt]),
                table=table,
            )
        )
    return ScanOffsets(
        n_rows=n_rows,
        row_len=row_len,
        cat_size=cat_size,
        segments=tuple(segments),
        groups=tuple(groups),
    )


def scan_offsets(
    data_shape: Tuple[int, ...],
    roi: ROISpec,
    directions: Tuple[Tuple[int, ...], ...],
) -> ScanOffsets:
    """Cached gather geometry for one (chunk shape, ROI, directions) scan.

    Distance is already baked into ``directions`` (they arrive scaled by
    :func:`~repro.core.cooccurrence.resolve_directions`), so the key is
    exactly the geometry the tables depend on.  Cached arrays are
    read-only and shared across threads and filter copies.
    """
    key = (tuple(int(s) for s in data_shape), roi.shape, tuple(directions))
    with _lock:
        cached = _offsets_cache.get(key)
        if cached is not None:
            _offsets_cache.move_to_end(key)
            return cached
    built = _build_scan_offsets(key[0], roi, key[2])
    with _lock:
        _offsets_cache[key] = built
        _offsets_cache.move_to_end(key)
        while len(_offsets_cache) > _OFFSETS_CACHE_ENTRIES:
            _offsets_cache.popitem(last=False)
    return built
