"""Pluggable scan backends for co-occurrence computation.

The paper's dominant cost is GLCM accumulation (Section 4.4.1), so the
scan kernel is dispatchable behind one stable interface — the Region
Templates idea of backend-selectable kernels.  Five backends:

``"batched"``
    :func:`repro.core.cooccurrence.cooccurrence_scan`.  One ``bincount``
    per (direction, sub-batch): every ROI re-counts its full window, so
    per-ROI work is ``O(ROI_volume)`` pair codes per direction plus a
    ``G x G`` histogram accumulation *per direction*.

``"incremental"``
    :func:`incremental_scan` (this module).  The rolling kernel: Eq. (1)
    overlap means adjacent ROIs along the innermost axis share all but
    one hyperplane of pair codes, so the scan histograms each
    code *hyperplane* once and reconstructs every window's GLCM as a
    sliding sum of plane histograms along the axis.  Per-ROI work drops to
    ``O(ROI_face)`` pair codes per direction, and directions are grouped
    by trailing window extent so the dense ``G x G`` accumulation is
    paid once per *group* (2 groups for the paper setup) instead of once
    per direction (40 for 4D) — the dominant saving for ``G = 32``.

``"megabatch"``
    :func:`megabatch_scan` (this module).  The chunk-at-once kernel:
    the same hyperplane sharing as ``incremental``, but the pair codes
    of every direction are concatenated into *one* flat array per
    chunk, every row's hyperplanes are gathered through precomputed
    flat-index tables (:func:`~repro.core.workspace.scan_offsets`,
    cached per (chunk shape, ROI shape, distance)), and all windows'
    GLCMs accumulate directly into a single ``(n_windows, G*G)``
    output — one mega fancy-gather and one ``bincount`` per direction
    group per row block, no per-ROI dispatch, no emission copies
    (batches are views of the accumulator).

``"gpu"``
    :func:`repro.core.gpu.gpu_scan`.  Import-guarded GPU backend: the
    same pair-code scatter formulation on a CUDA device via CuPy (or a
    Numba-CUDA atomic-add kernel when CuPy is absent), one chunk
    transferred in and one GLCM block out.  Falls back cleanly to
    ``megabatch`` — with a :class:`~repro.core.gpu.GpuUnavailableWarning`
    and a ``kernel.fallback`` obs event from the filters — on machines
    without a device.

``"reference"``
    :func:`reference_scan`.  The paper's Fig. 2 loop — one
    :func:`~repro.core.cooccurrence.cooccurrence_matrix` per ROI window,
    batched only for yield granularity.  Slow and obviously correct;
    the acceptance bar is bit-identical output against this kernel.

All backends share one generator contract::

    scan(data, roi, levels, directions=None, distance=1, batch=2048,
         symmetric=True, validate=True) -> Iterator[(start, (B, G, G))]

with identical batch boundaries and bit-identical count matrices, so
they are interchangeable under every runtime (sequential, threaded,
multiprocess, distributed).  Select one via ``HaralickConfig.kernel`` /
``TextureParams.kernel`` / the CLI ``--kernel`` flag, or grab the
callable directly with :func:`get_kernel`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cooccurrence import (
    check_levels,
    cooccurrence_matrix,
    cooccurrence_scan,
    pair_code_array,
    resolve_directions,
)
from .directions import Direction
from .quantization import num_levels_ok
from .roi import ROISpec, iter_roi_origins, valid_positions_shape
from .workspace import (
    WORKSPACE_BYTES,
    pair_shift,
    scan_offsets,
    symmetrize_inplace,
)

__all__ = [
    "KERNELS",
    "KERNEL_INFO",
    "DEFAULT_KERNEL",
    "get_kernel",
    "resolve_scan_kernel",
    "incremental_scan",
    "megabatch_scan",
    "reference_scan",
]

ScanKernel = Callable[..., Iterator[Tuple[int, np.ndarray]]]

#: Backend used by the high-level configs when none is requested.
DEFAULT_KERNEL = "incremental"


def reference_scan(
    data: np.ndarray,
    roi: ROISpec,
    levels: int,
    directions: Optional[Sequence[Direction]] = None,
    distance: int = 1,
    batch: int = 2048,
    symmetric: bool = True,
    validate: bool = True,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Fig. 2 loop as a scan backend: one window at a time.

    Ground truth for the other backends; batching exists only to match
    the shared yield contract.
    """
    data = np.asarray(data)
    if validate:
        check_levels(data, levels)
    else:
        num_levels_ok(levels)
    if data.ndim != roi.ndim:
        raise ValueError(f"data ndim {data.ndim} != ROI ndim {roi.ndim}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    valid_positions_shape(data.shape, roi)  # raises if the ROI cannot fit
    dirs = resolve_directions(data.ndim, directions, distance)
    start = 0
    buf: List[np.ndarray] = []
    for origin in iter_roi_origins(data.shape, roi):
        window = data[tuple(slice(o, o + r) for o, r in zip(origin, roi.shape))]
        buf.append(
            cooccurrence_matrix(
                window, levels, dirs, distance=1, symmetric=symmetric,
                validate=False,
            )
        )
        if len(buf) == batch:
            yield start, np.stack(buf)
            start += len(buf)
            buf = []
    if buf:
        yield start, np.stack(buf)


def _rolling_groups(
    data: np.ndarray, roi: ROISpec, levels: int, dirs: Sequence[Direction]
) -> Dict[int, List[Tuple[np.ndarray, int]]]:
    """Per-direction hyperplane views, grouped by trailing window extent.

    For direction ``v`` the pair-code window has shape ``W = R - |v|``;
    ``sliding_window_view`` over the *leading* axes only leaves the
    innermost axis whole, so ``view[row_origin][j]`` is the hyperplane of
    codes at innermost index ``j`` for that scan row.  Directions with
    equal ``W[-1]`` share plane alignment and can be histogrammed with a
    single ``bincount``.
    """
    nd = data.ndim
    groups: Dict[int, List[Tuple[np.ndarray, int]]] = {}
    for v in dirs:
        absv = tuple(abs(c) for c in v)
        if any(roi.shape[i] <= absv[i] for i in range(nd)):
            continue  # pairs never fit inside the ROI for this direction
        codes, _ = pair_code_array(data, levels, v)
        w = tuple(roi.shape[i] - absv[i] for i in range(nd))
        view = sliding_window_view(codes, w[:-1], axis=tuple(range(nd - 1)))
        face = 1
        for c in w[:-1]:
            face *= c
        groups.setdefault(w[-1], []).append((view, face))
    return groups


#: Target byte size of one internal row block.  Keeping the per-block
#: histogram working set cache-sized is worth ~20% over maximally large
#: blocks; always additionally capped by ``WORKSPACE_BYTES``.
_BLOCK_TARGET_BYTES = 8 * 2**20


def _rolling_block(
    groups: Dict[int, List[Tuple[np.ndarray, int]]],
    block_bufs: Dict[int, np.ndarray],
    lead: Tuple[int, ...],
    row_len: int,
    r0: int,
    rb: int,
    levels: int,
) -> np.ndarray:
    """Count matrices of ``rb`` whole scan rows starting at row ``r0``.

    Per group: gather every code hyperplane of every row into the pooled
    block buffer, histogram them with one ``bincount``, then accumulate
    the ``W_t`` shifted plane-histogram layers — GLCM ``t`` of a row is
    the sum of planes ``[t, t + W_t)``.
    """
    gg = levels * levels
    mats = np.zeros((rb, row_len, gg), dtype=np.int64)
    idx = (
        np.unravel_index(np.arange(r0, r0 + rb), lead) if lead else None
    )
    for wt, members in groups.items():
        n_planes = row_len - 1 + wt
        block = block_bufs[wt][:rb]
        off = 0
        for view, face in members:
            g = view[idx] if idx is not None else np.array(view[np.newaxis])
            block[:, :, off : off + face] = g.reshape(rb, n_planes, face)
            off += face
        # Disjoint histogram segments per (row, plane), one bincount for
        # the whole group.
        block += pair_shift(rb * n_planes, gg).reshape(rb, n_planes, 1)
        h = np.bincount(block.reshape(-1), minlength=rb * n_planes * gg)
        c = h.reshape(rb, n_planes, gg)
        for k in range(wt):
            mats += c[:, k : k + row_len]
    return mats.reshape(rb * row_len, levels, levels)


def incremental_scan(
    data: np.ndarray,
    roi: ROISpec,
    levels: int,
    directions: Optional[Sequence[Direction]] = None,
    distance: int = 1,
    batch: int = 2048,
    symmetric: bool = True,
    validate: bool = True,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Incremental (rolling) raster scan along the innermost axis.

    Same yield contract and bit-identical matrices as
    :func:`~repro.core.cooccurrence.cooccurrence_scan`; see the module
    docstring for the algorithm and complexity.
    """
    data = np.asarray(data)
    if validate:
        check_levels(data, levels)
    else:
        num_levels_ok(levels)
    if data.ndim != roi.ndim:
        raise ValueError(f"data ndim {data.ndim} != ROI ndim {roi.ndim}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    grid = valid_positions_shape(data.shape, roi)
    npos = int(np.prod(grid))
    dirs = resolve_directions(data.ndim, directions, distance)
    gg = levels * levels
    row_len = grid[-1]
    lead = grid[:-1]
    n_rows = npos // row_len
    groups = _rolling_groups(data, roi, levels, dirs)

    # Rows per internal block: each row costs the gathered code block
    # plus the histogram segments, per group, plus its output matrices.
    # Sized for cache residency, and never beyond the workspace budget.
    worst = row_len * gg
    for wt, members in groups.items():
        total_face = sum(face for _view, face in members)
        worst += (row_len - 1 + wt) * (total_face + gg)
    budget = min(WORKSPACE_BYTES, _BLOCK_TARGET_BYTES)
    rows_per_block = max(1, budget // (8 * worst))
    block_bufs = {
        wt: np.empty(
            (
                min(rows_per_block, n_rows),
                row_len - 1 + wt,
                sum(face for _view, face in members),
            ),
            dtype=np.int64,
        )
        for wt, members in groups.items()
    }

    emit_start = 0
    buf: Optional[np.ndarray] = None
    buf_fill = 0
    b_cur = 0
    for r0 in range(0, n_rows, rows_per_block):
        rb = min(rows_per_block, n_rows - r0)
        mats_block = _rolling_block(
            groups, block_bufs, lead, row_len, r0, rb, levels
        )
        if symmetric:
            symmetrize_inplace(mats_block)
        pos = 0
        nblk = mats_block.shape[0]
        while pos < nblk:
            if buf is None:
                b_cur = min(batch, npos - emit_start)
                if nblk - pos >= b_cur:
                    # Whole output batch available in this block: yield a
                    # view, no assembly copy.
                    yield emit_start, mats_block[pos : pos + b_cur]
                    emit_start += b_cur
                    pos += b_cur
                    continue
                buf = np.empty((b_cur, levels, levels), dtype=np.int64)
                buf_fill = 0
            take = min(b_cur - buf_fill, nblk - pos)
            buf[buf_fill : buf_fill + take] = mats_block[pos : pos + take]
            buf_fill += take
            pos += take
            if buf_fill == b_cur:
                yield emit_start, buf
                emit_start += b_cur
                buf = None


def megabatch_scan(
    data: np.ndarray,
    roi: ROISpec,
    levels: int,
    directions: Optional[Sequence[Direction]] = None,
    distance: int = 1,
    batch: int = 2048,
    symmetric: bool = True,
    validate: bool = True,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Chunk-at-once mega-batched scan.

    Builds the pair-code array of the whole chunk once (one flat
    concatenation over all directions), then histograms *every*
    window's GLCM into a single ``(n_windows, G*G)`` accumulator using
    the cached gather geometry of
    :func:`~repro.core.workspace.scan_offsets` — per-direction sliding
    views over each cache-resident code segment, fused with the
    bincount row shift.  The yielded batches are views of the
    accumulator, so there is no per-ROI dispatch and no emission copy.
    Same yield contract and bit-identical matrices as
    ``reference_scan``.
    """
    data = np.asarray(data)
    if validate:
        check_levels(data, levels)
    else:
        num_levels_ok(levels)
    if data.ndim != roi.ndim:
        raise ValueError(f"data ndim {data.ndim} != ROI ndim {roi.ndim}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    grid = valid_positions_shape(data.shape, roi)
    npos = int(np.prod(grid))
    dirs = resolve_directions(data.ndim, directions, distance)
    gg = levels * levels
    offs = scan_offsets(data.shape, roi, tuple(dirs))

    # The chunk's pair codes, every direction's array flattened into one
    # buffer so one gather serves the whole direction group.
    codes_cat = np.empty(offs.cat_size, dtype=np.int64)
    for v, seg_start, seg_stop in offs.segments:
        codes, _ = pair_code_array(data, levels, v)
        codes_cat[seg_start:seg_stop] = codes.reshape(-1)

    # No fitting direction (every displacement overflows the ROI): all
    # matrices stay zero.  Otherwise the accumulator is fully written
    # slab by slab, so it can start uninitialized.
    mats = (
        np.zeros((npos, gg), dtype=np.int64)
        if not offs.groups
        else np.empty((npos, gg), dtype=np.int64)
    )
    mrows = mats.reshape(offs.n_rows, offs.row_len, gg)

    # Rows per internal block: the output slab plus, per group, the
    # gathered code block and its bincount segments — sized for cache
    # residency so the slab stays hot from accumulation through
    # symmetrization, and never beyond the workspace budget.
    worst = offs.row_len * gg
    for g in offs.groups:
        worst += g.n_planes * (g.total_face + gg)
    budget = min(WORKSPACE_BYTES, _BLOCK_TARGET_BYTES)
    rows_per_block = max(1, min(offs.n_rows, budget // (8 * worst)))

    # Per-group reusable gather buffers and per-member sliding views over
    # the concatenated code buffer.  Gathering per member segment keeps
    # each gather's source inside one direction's cache-resident slice of
    # ``codes_cat`` — striding the whole buffer per scan row thrashes the
    # cache and measures ~2x slower.
    lead_axes = tuple(range(data.ndim - 1))
    bufs = []
    for g in offs.groups:
        views = []
        for seg_start, cshape, wlead, face in g.members:
            size = 1
            for c in cshape:
                size *= c
            codes = codes_cat[seg_start : seg_start + size].reshape(cshape)
            if data.ndim > 1:
                views.append(
                    (sliding_window_view(codes, wlead, axis=lead_axes), face)
                )
            else:
                views.append((codes, face))
        block_buf = np.empty(
            (rows_per_block, g.n_planes, g.total_face), dtype=np.int64
        )
        bufs.append((g, views, block_buf))

    lead = offs.grid[:-1]
    origins = np.unravel_index(np.arange(offs.n_rows), lead) if lead else None
    out = mats.reshape(npos, levels, levels)
    for r0 in range(0, offs.n_rows, rows_per_block):
        rb = min(rows_per_block, offs.n_rows - r0)
        m = mrows[r0 : r0 + rb]
        idx = (
            tuple(o[r0 : r0 + rb] for o in origins)
            if origins is not None
            else None
        )
        shifts = [
            pair_shift(rb * g.n_planes, gg).reshape(rb, g.n_planes, 1)
            for g, _views, _buf in bufs
        ]
        first = True
        for (g, views, block_buf), shift in zip(bufs, shifts):
            block = block_buf[:rb]
            off = 0
            for vw, face in views:
                src = vw[idx] if idx is not None else vw[np.newaxis]
                # Fused gather + per-(row, plane) bincount-segment shift:
                # one write pass into the block instead of copy-then-add.
                np.add(
                    src.reshape(rb, g.n_planes, face),
                    shift,
                    out=block[:, :, off : off + face],
                )
                off += face
            h = np.bincount(
                block.reshape(-1), minlength=rb * g.n_planes * gg
            ).reshape(rb, g.n_planes, gg)
            # GLCM at row position t is the sum of planes [t, t + W_t).
            for k in range(g.trailing_extent):
                if first:
                    np.copyto(m, h[:, k : k + offs.row_len])
                    first = False
                else:
                    m += h[:, k : k + offs.row_len]
        if symmetric:
            # While the slab is still cache-hot.
            symmetrize_inplace(
                out[r0 * offs.row_len : (r0 + rb) * offs.row_len]
            )
    for start in range(0, npos, batch):
        yield start, out[start : start + batch]


def _gpu_scan(
    data: np.ndarray,
    roi: ROISpec,
    levels: int,
    directions: Optional[Sequence[Direction]] = None,
    distance: int = 1,
    batch: int = 2048,
    symmetric: bool = True,
    validate: bool = True,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Registry shim for the import-guarded GPU backend.

    Deferring the :mod:`repro.core.gpu` import keeps device probing (and
    the optional CuPy/Numba imports behind it) off this module's import
    path.
    """
    from .gpu import gpu_scan

    return gpu_scan(
        data, roi, levels, directions, distance,
        batch=batch, symmetric=symmetric, validate=validate,
    )


_REGISTRY: Dict[str, ScanKernel] = {
    "batched": cooccurrence_scan,
    "gpu": _gpu_scan,
    "incremental": incremental_scan,
    "megabatch": megabatch_scan,
    "reference": reference_scan,
}

#: Names of the selectable scan backends.
KERNELS: Tuple[str, ...] = tuple(sorted(_REGISTRY))

#: One-line description per backend (the ``repro kernels`` listing).
KERNEL_INFO: Dict[str, str] = {
    "batched": "vectorized windowed bincount; O(ROI volume) codes per "
               "ROI per direction",
    "gpu": "CuPy (or Numba-CUDA) pair-code scatter on a CUDA device; "
           "falls back to megabatch without one",
    "incremental": "rolling hyperplane histograms (default); O(ROI face) "
                   "codes per ROI, streams batches as computed",
    "megabatch": "chunk-at-once mega-batch; cached offset tables, "
                 "whole-chunk accumulator, zero-copy batch views",
    "reference": "paper Fig. 2 loop, one window at a time; ground "
                 "truth, slow",
}


def get_kernel(name: str) -> ScanKernel:
    """Resolve a backend name to its scan generator.

    Unknown names raise ``ValueError`` with the closest registered name
    suggested, so a typo'd ``--kernel`` is a one-glance fix.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        import difflib

        close = difflib.get_close_matches(str(name), KERNELS, n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise ValueError(
            f"unknown scan kernel {name!r}{hint} (valid kernels: {KERNELS})"
        ) from None


def resolve_scan_kernel(name: str):
    """Resolve a kernel plus its fallback disposition, for the filters.

    Returns ``(scan, fallback)`` where ``fallback`` is ``None`` for a
    kernel that will run as requested, or an attrs dict describing the
    substitution (``requested``/``used``/``reason``) when ``"gpu"`` was
    asked for on a machine without a usable device — the filters emit it
    as a ``kernel.fallback`` obs event so degraded runs are diagnosable
    from the trace alone.
    """
    scan = get_kernel(name)
    if name == "gpu":
        from .gpu import probe_gpu

        probe = probe_gpu()
        if not probe.available:
            return scan, {
                "requested": "gpu",
                "used": "megabatch",
                "reason": probe.detail,
            }
    return scan, None
