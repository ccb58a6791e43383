"""Pluggable scan backends for co-occurrence computation.

The paper's dominant cost is GLCM accumulation (Section 4.4.1), so the
scan kernel is dispatchable behind one stable interface — the Region
Templates idea of backend-selectable kernels.  Two backends:

``"incremental"``
    :func:`incremental_scan` (this module).  The rolling kernel: Eq. (1)
    overlap means adjacent ROIs along an axis share all but one
    hyperplane of pair codes, so the scan histograms each code
    *hyperplane* once and reconstructs every window's GLCM as a sliding
    sum of plane histograms along that axis.  Per-ROI work drops to
    ``O(ROI_face)`` pair codes per direction, and directions are grouped
    by window extent along the rolling axis so the dense ``G x G``
    accumulation is paid once per *group* (2 groups for the paper setup)
    instead of once per direction (40 for 4D) — the dominant saving for
    ``G = 32``.  The rolling axis is the one with the most window
    overlap for the chunk at hand (:func:`_rolling_plan`), not always
    the innermost.  The hyperplane histograms come from one compiled
    pass (:mod:`repro.core.native`: built with the system C compiler on
    first use, run without the interpreter lock) or, when that cannot
    be built, from three numpy passes with the same integer counts;
    either way it is this one kernel.

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
multiprocess, distributed).  A yielded batch stays valid after the
generator advances (consumers hand it downstream by reference).  Select
a backend via ``HaralickConfig.kernel`` / ``TextureParams.kernel``, or
grab the callable directly with :func:`get_kernel`.

:func:`moment_scan` is ``incremental`` without the matrices: the same
plan, pair codes, plane histograms, blocks and raster reorder
(:func:`_rolling_scan`, written once), but a compiled pass slides each
window's histogram along its row and yields only the window's integer
sums (``3G + 1`` per window), which is all the eight moment features
read.  It exists only with the compiled pass; without it,
:func:`repro.core.raster.raster_scan_batches` scans matrices.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import native
from .cooccurrence import check_levels, cooccurrence_matrix, resolve_directions
from .directions import Direction
from .quantization import num_levels_ok
from .roi import ROISpec, iter_roi_origins, valid_positions_shape
from .workspace import WORKSPACE_BYTES, pair_shift, symmetrize_inplace

__all__ = [
    "KERNELS",
    "KERNEL_INFO",
    "DEFAULT_KERNEL",
    "get_kernel",
    "resolve_scan_kernel",
    "incremental_scan",
    "moment_scan",
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

    Ground truth for the incremental backend; batching exists only to
    match the shared yield contract.
    """
    data = np.asarray(data)
    if validate:
        check_levels(data, levels)
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    # iter_roi_origins rejects an ROI that does not fit the data, and
    # cooccurrence_matrix an invalid ``levels``.
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


#: Target byte size of one internal row block.  Keeping the per-block
#: histogram working set cache-sized is worth ~20% over maximally large
#: blocks.  A block never holds less than one leading-axis slab, which
#: ``WORKSPACE_BYTES`` bounds (``_rolling_plan``).
_BLOCK_TARGET_BYTES = 4 * 2**20


def _rolling_plan(
    grid: Tuple[int, ...],
    roi_shape: Tuple[int, ...],
    dirs: Sequence[Direction],
    gg: int,
    budget: int,
) -> Tuple[int, int, int]:
    """``(axis, span, row_elems)``: where to roll and how far per block.

    Rolling along axis ``a`` gathers, per ROI and direction, one window
    face ``prod(W[i], i != a)`` for each of the ``span - 1 + W[a]`` code
    hyperplanes a scan row shares among ``span`` consecutive positions::

        cost(a) = sum_v face_a(v) * (span_a - 1 + W_a(v)) / span_a

    so the axis with the most window overlap wins, not always the
    innermost one.  ``span_a`` is ``grid[a]`` unless the block that
    keeps batches in raster order (every position of the axes after
    ``a``, ``span_a`` positions of ``a``) would overflow ``budget``
    bytes; then rows are cut into the longest spans that fit.  Ties go
    to the inner axis, whose rows need the least reordering.
    ``row_elems`` is the int64 working set of one row span: its output
    matrices plus, per direction group, the gather indices, the gathered
    code block and the histogram segments.
    """
    nd = len(grid)
    best = None
    for a in range(nd):
        faces: Dict[int, int] = {}  # W_a -> summed face of its directions
        for v in dirs:
            w = [roi_shape[i] - abs(v[i]) for i in range(nd)]
            if min(w) <= 0:
                continue  # pairs never fit inside the ROI for this direction
            faces[w[a]] = faces.get(w[a], 0) + math.prod(w) // w[a]
        # row_elems(span) = span * per_pos + fixed
        per_pos = gg + sum(2 * face + gg for face in faces.values())
        fixed = sum((wa - 1) * (2 * face + gg) for wa, face in faces.items())
        n_tail = math.prod(grid[a + 1 :])
        span = min(grid[a], max(1, (budget // (8 * n_tail) - fixed) // per_pos))
        n_spans = -(-grid[a] // span)
        span = -(-grid[a] // n_spans)  # equal spans share index tables
        cost = sum(
            face * (span - 1 + wa) / span for wa, face in faces.items()
        )
        if best is None or cost <= best[0]:
            best = (cost, a, span, span * per_pos + fixed)
    return best[1:]


def _rolling_codes(
    data: np.ndarray,
    roi_shape: Tuple[int, ...],
    levels: int,
    dirs: Sequence[Direction],
) -> Tuple[np.ndarray, Dict[int, np.ndarray]]:
    """Pair codes of every fitting direction, and where windows read them.

    Returns ``(codes, faces)``.  ``codes`` is flat: direction ``k``'s
    pair codes ``a*G + b`` sit at ``k * data.size + ravel(q)`` with ``q``
    the low corner of the pair, so every direction shares ``data``'s
    strides and one offset addresses them all.  For direction ``v`` the
    pair-code window has shape ``W = R - |v|``; directions with equal
    ``W[-1]`` share plane alignment along the innermost axis and are
    histogrammed together: ``faces[W[-1]]`` holds, for all of them, the
    flat offsets of one window face (the leading ``W[:-1]`` box at
    innermost index 0) relative to the window's origin.
    """
    nd = data.ndim
    strides = [1] * nd
    for i in range(nd - 2, -1, -1):
        strides[i] = strides[i + 1] * data.shape[i + 1]
    fitting = [
        v for v in dirs
        if all(roi_shape[i] > abs(v[i]) for i in range(nd))
    ]
    codes = np.zeros((len(fitting),) + data.shape, dtype=np.int64)
    scaled = data.astype(np.int64) * levels
    faces: Dict[int, List[np.ndarray]] = {}
    for k, v in enumerate(fitting):
        first = tuple(
            slice(max(0, -c), n - max(0, c)) for c, n in zip(v, data.shape)
        )
        second = tuple(
            slice(max(0, c), n - max(0, -c)) for c, n in zip(v, data.shape)
        )
        box = tuple(slice(0, n - abs(c)) for c, n in zip(v, data.shape))
        np.add(scaled[first], data[second], out=codes[(k,) + box])
        face = np.asarray(k * data.size)
        for i in range(nd - 1):
            extent = roi_shape[i] - abs(v[i])
            face = face[..., None] + np.arange(extent) * strides[i]
        faces.setdefault(roi_shape[-1] - abs(v[-1]), []).append(
            face.reshape(-1)
        )
    return codes.reshape(-1), {
        wt: np.concatenate(parts) for wt, parts in faces.items()
    }


def _numpy_plane_histograms(
    codes: np.ndarray,
    origins: np.ndarray,
    n_planes: int,
    face: np.ndarray,
    gg: int,
    table: np.ndarray,
    scratch: np.ndarray,
    built: Dict[int, tuple],
    wt: int,
) -> np.ndarray:
    """:func:`repro.core.native.plane_histograms` as three numpy passes.

    What runs when the compiled pass is unavailable: gather the code
    hyperplanes every span needs (one ``take`` through window origin +
    plane + face offsets; ``built[wt]`` notes what the group's index
    ``table`` holds, so congruent blocks share it), shift each
    (row, plane) into its own histogram segment and count them with one
    ``bincount``.  Same integer counts as the C loop by construction.
    """
    rb = origins.size
    base = int(origins[0])
    rel = (origins - base).tobytes()
    index, block = (
        b[: rb * n_planes * face.size].reshape(rb, n_planes, face.size)
        for b in (table, scratch)
    )
    if built.get(wt) != (n_planes, rel):
        np.add(
            (origins[:, None] - base + np.arange(n_planes))[:, :, None],
            face,
            out=index,
        )
        built[wt] = (n_planes, rel)
    np.take(codes[base:], index, out=block, mode="clip")
    block += pair_shift(rb * n_planes, gg).reshape(rb, n_planes, 1)
    return np.bincount(
        block.reshape(-1), minlength=rb * n_planes * gg
    ).reshape(rb, n_planes, gg)


def _rolling_block(
    lib,
    codes: np.ndarray,
    faces: Dict[int, np.ndarray],
    bufs: Dict[int, Tuple[Optional[np.ndarray], np.ndarray]],
    built: Dict[int, tuple],
    mats: np.ndarray,
    origins: np.ndarray,
) -> None:
    """Fill ``mats`` with the count matrices of one block of row spans.

    ``mats`` is ``(rows, span, G*G)`` and ``origins[r]`` the flat offset
    of row ``r``'s first window.  Per group, widest window first:
    histogram every code hyperplane the spans need, in one compiled pass
    (``lib``, see :mod:`repro.core.native`) or, without it, in the numpy
    passes; ``bufs[wt]`` is the group's ``(index table, scratch)``, the
    table ``None`` under ``lib``.  The GLCM at position ``t`` is the sum
    over groups of planes ``[t, t + W_t)``; the windows nest, so the
    running sum of the groups' plane histograms is layered once per
    plane offset instead of once per (group, offset).
    """
    rb, span, gg = mats.shape
    widths = sorted(faces, reverse=True)
    run = None  # summed plane histograms of the groups handled so far
    for g, wt in enumerate(widths):
        face = faces[wt]
        n_planes = span - 1 + wt
        table, scratch = bufs[wt]
        if lib is not None:
            c = scratch[: rb * n_planes * gg].reshape(rb, n_planes, gg)
            native.plane_histograms(
                lib, codes, origins, n_planes, face, gg, out=c
            )
        else:
            c = _numpy_plane_histograms(
                codes, origins, n_planes, face, gg, table, scratch, built, wt
            )
        if g == 0:
            np.copyto(mats, c[:, wt - 1 : wt - 1 + span])
        else:
            c += run[:, :n_planes]
        run = c
        narrower = widths[g + 1] if g + 1 < len(widths) else 0
        # The widest group's outermost layer is the copy above.
        for k in range(narrower, wt - (g == 0)):
            mats += run[:, k : k + span]
    if not widths:
        mats[...] = 0  # no direction fits the window


def _window_sums(
    lib,
    codes: np.ndarray,
    faces: Dict[int, np.ndarray],
    planes: np.ndarray,
    offsets: np.ndarray,
    sums: np.ndarray,
    origins: np.ndarray,
    levels: int,
) -> None:
    """Fill ``sums`` with the per-window sums of one block of row spans.

    ``sums`` is ``(rows, span, 3G + 1)``: per group, the compiled pass
    histograms the code hyperplanes the spans need into ``planes`` from
    ``offsets[group]`` on, and :func:`repro.core.native.window_sums`
    slides each window's G x G histogram over them; no window matrix
    exists outside it.
    """
    rb, span, _ = sums.shape
    gg = levels * levels
    for (wt, face), off in zip(faces.items(), offsets):
        n_planes = span - 1 + wt
        native.plane_histograms(
            lib, codes, origins, n_planes, face, gg,
            out=planes[off : off + rb * n_planes * gg].reshape(rb, n_planes, gg),
        )
    native.window_sums(
        lib, planes, offsets, np.fromiter(faces, np.int64, len(faces)),
        span, levels, sums,
    )


def _rolling_scan(
    data: np.ndarray,
    roi: ROISpec,
    levels: int,
    directions: Optional[Sequence[Direction]],
    distance: int,
    batch: int,
    validate: bool,
    symmetric: bool,
    sums: bool,
) -> Iterator[Tuple[int, np.ndarray]]:
    """The block loop of :func:`incremental_scan` and :func:`moment_scan`.

    Plans the roll, builds the pair codes and walks the row spans in
    cache-sized blocks; each block's windows are computed in the
    transposed frame and reordered into raster batches of ``batch``.
    Per window a block holds a count matrix (``sums`` false:
    :func:`_rolling_block`, compiled or on the numpy passes) or the
    ``3G + 1`` integer sums of the symmetric one (``sums`` true:
    :func:`_window_sums`, which needs the compiled pass).
    """
    data = np.asarray(data)
    if validate:
        check_levels(data, levels)
    else:
        num_levels_ok(levels)
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    grid = valid_positions_shape(data.shape, roi)  # also checks the ndim
    npos = int(np.prod(grid))
    dirs = resolve_directions(data.ndim, directions, distance)
    gg = levels * levels
    axis, span, row_elems = _rolling_plan(
        grid, roi.shape, dirs, gg, WORKSPACE_BYTES
    )

    # Everything below works in the transposed frame, rolling axis last:
    # the chunk is transposed once and the directions permuted with it.
    perm = [i for i in range(data.ndim) if i != axis] + [axis]
    data_p = np.ascontiguousarray(data.transpose(perm))
    codes, faces = _rolling_codes(
        data_p,
        tuple(roi.shape[i] for i in perm),
        levels,
        [tuple(v[i] for i in perm) for v in dirs],
    )
    row_len = grid[axis]
    n_tail = math.prod(grid[axis + 1 :])
    n_rows = npos // row_len
    # Flat offset of every scan row's first window, rows in (lead, tail)
    # raster order.
    origins = np.zeros(1, dtype=np.int64)
    for i in range(data.ndim - 1):
        stride = math.prod(data_p.shape[i + 1 :])
        origins = origins[:, None] + np.arange(grid[perm[i]]) * stride
        origins = origins.reshape(-1)

    # A block covers whole leading-axis slabs (``n_tail`` scan rows
    # each) so that its windows are one contiguous raster range: as
    # many slabs as stay cache-sized, or one slab a span at a time.
    rows_per_block = n_tail
    if span == row_len:
        rows_per_block *= max(
            1, _BLOCK_TARGET_BYTES // (8 * row_elems * n_tail)
        )
    rows_per_block = min(rows_per_block, n_rows)
    # Per group a block needs its plane histograms (compiled pass) or
    # its gathered codes (numpy passes, whose index tables persist
    # across blocks: congruent blocks share them).  Those and the
    # block's windows are scratch: one allocation per block, released
    # before the next.  In a scan -> pack -> free loop that measured
    # better than a long-lived workspace (the allocator kept trimming
    # the heap through a process's first chunk) and than one array per
    # piece (pages re-faulted every block).
    lib = native.load()
    item = (3 * levels + 1,) if sums else (levels, levels)
    width = math.prod(item)
    sizes = {
        wt: rows_per_block * (span - 1 + wt) * (face.size if lib is None else gg)
        for wt, face in faces.items()
    }
    offsets = np.cumsum([0, *sizes.values()])[:-1].astype(np.int64)
    tables = {
        wt: np.empty(size, dtype=np.int64) if lib is None else None
        for wt, size in sizes.items()
    }
    built: Dict[int, tuple] = {}

    emit_start = 0
    out: Optional[np.ndarray] = None
    fill = 0
    for r0 in range(0, n_rows, rows_per_block):
        rb = min(rows_per_block, n_rows - r0)
        for t0 in range(0, row_len, span):
            sp = min(span, row_len - t0)
            scratch = np.empty(rb * sp * width + sum(sizes.values()), np.int64)
            wins = scratch[: rb * sp * width].reshape(rb, sp, width)
            planes = scratch[rb * sp * width :]
            if sums:
                _window_sums(
                    lib, codes, faces, planes, offsets, wins,
                    origins[r0 : r0 + rb] + t0, levels,
                )
            else:
                bufs = {
                    wt: (tables[wt], planes[off : off + sizes[wt]])
                    for wt, off in zip(sizes, offsets)
                }
                _rolling_block(
                    lib, codes, faces, bufs, built, wins,
                    origins[r0 : r0 + rb] + t0,
                )
            wins = wins.reshape((rb * sp,) + item)
            # Rows are computed (slab, tail, t) but leave (slab, t, tail).
            order = (
                np.arange(rb * sp)
                .reshape(-1, n_tail, sp)
                .transpose(0, 2, 1)
                .reshape(-1)
            )
            pos = 0
            while pos < order.size:
                if out is None:
                    out = np.empty(
                        (min(batch, npos - emit_start),) + item, dtype=np.int64
                    )
                    fill = 0
                take = min(out.shape[0] - fill, order.size - pos)
                dest = out[fill : fill + take]
                np.take(
                    wins, order[pos : pos + take], axis=0, out=dest,
                    mode="clip",
                )
                if symmetric and not sums:
                    symmetrize_inplace(dest)
                fill += take
                pos += take
                if fill == out.shape[0]:
                    yield emit_start, out
                    emit_start += fill
                    out = None


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
    """Incremental (rolling) raster scan along the best-overlap axis.

    Same yield contract and bit-identical matrices as
    :func:`reference_scan`; see the module
    docstring for the algorithm and complexity.  The rolling axis is a
    function of the shapes alone (:func:`_rolling_plan`).  Every yielded
    batch is a fresh array that the scan never touches again; only the
    numpy passes' gather-index tables outlive a block.
    """
    return _rolling_scan(
        data, roi, levels, directions, distance, batch, validate,
        symmetric, sums=False,
    )


def moment_scan(
    data: np.ndarray,
    roi: ROISpec,
    levels: int,
    directions: Optional[Sequence[Direction]] = None,
    distance: int = 1,
    batch: int = 2048,
    validate: bool = True,
) -> Iterator[Tuple[int, np.ndarray]]:
    """:func:`incremental_scan`'s windows as integer sums, not matrices.

    Yields ``(start, (B, 3G + 1) int64)`` in the same batches and raster
    order; row ``k`` holds, for the symmetric count matrix ``c`` of
    window ``start + k``::

        [N, sum c^2, D[0], ..., D[G-1], Hs[0], ..., Hs[2G-2]]

    with ``N = sum c``, ``D[k]`` the sum of ``c`` over ``|i - j| = k``
    and ``Hs[s]`` over ``i + j = s`` — everything
    :func:`repro.core.features.moment_features` reads, at ``8 (3G + 1)``
    bytes per window where a matrix takes ``8 G^2``.  Needs the compiled
    pass: raises ``RuntimeError`` when :func:`repro.core.native.load`
    has no library.
    """
    if native.load() is None:
        raise RuntimeError(
            f"moment_scan needs the compiled pass: {native.status().reason}"
        )
    return _rolling_scan(
        data, roi, levels, directions, distance, batch, validate,
        True, sums=True,
    )


_REGISTRY: Dict[str, ScanKernel] = {
    "incremental": incremental_scan,
    "reference": reference_scan,
}

#: Names of the selectable scan backends.
KERNELS: Tuple[str, ...] = tuple(sorted(_REGISTRY))

#: One-line description per backend (the ``repro kernels`` listing).
KERNEL_INFO: Dict[str, str] = {
    "incremental": "rolling hyperplane histograms along the best-overlap "
                   "axis (default); O(ROI face) codes per ROI, one "
                   "compiled pass when a C compiler is present",
    "reference": "paper Fig. 2 loop, one window at a time; ground "
                 "truth, slow",
}


def get_kernel(name: str) -> ScanKernel:
    """Resolve a backend name to its scan generator.

    Unknown names raise ``ValueError`` with the closest registered name
    suggested, so a typo'd ``kernel=`` is a one-glance fix.
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
    substitution (``requested``/``used``/``reason``) when
    ``"incremental"`` has to run its numpy passes because the compiled
    one could not be built or loaded — the filters emit it as a
    ``kernel.fallback`` obs event so degraded runs are diagnosable from
    the trace alone.  Resolving ``"incremental"`` is also what builds
    and loads the compiled pass, once per process.
    """
    scan = get_kernel(name)
    if name == "incremental":
        reason = native.status().reason
        if reason is not None:
            return scan, {
                "requested": "incremental",
                "used": "incremental (numpy passes)",
                "reason": reason,
            }
    return scan, None
