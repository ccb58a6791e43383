"""Co-occurrence matrix computation for N-dimensional (incl. 4D) windows.

A grey-level co-occurrence matrix (GLCM) is the joint histogram of grey
levels of pixel pairs separated by a displacement vector (paper Section 3
and Appendix).  Properties reproduced here:

1. Opposite displacements yield the same matrix, so only the canonical
   half-space of directions is enumerated (``repro.core.directions``).
2. Counting both orders of each pair makes the matrix symmetric.
3. The matrix is always ``G x G`` for ``G`` grey levels, independent of
   distance and direction.

Two computation paths are provided:

``cooccurrence_matrix``
    One ROI window -> one dense ``(G, G)`` count matrix.  Simple slicing
    per direction; this is the reference kernel.

``cooccurrence_scan``
    Batched raster scan: all valid ROI positions of a (chunk-sized) array
    at once, using pair-code arrays and ``sliding_window_view`` plus a
    single ``bincount`` per batch — the vectorized equivalent of the
    paper's per-ROI loop, far faster in Python than per-window calls.

A third, incremental (rolling) kernel and the backend-dispatch layer
that selects between all of them live in ``repro.core.backends``.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .directions import Direction, scale_direction, unique_directions
from .quantization import num_levels_ok
from .roi import ROISpec, valid_positions_shape
from .workspace import WORKSPACE_BYTES, pair_shift, symmetrize_inplace

__all__ = [
    "check_levels",
    "cooccurrence_matrix",
    "cooccurrence_scan",
    "pair_code_array",
    "resolve_directions",
]


def resolve_directions(
    ndim: int,
    directions: Optional[Sequence[Direction]] = None,
    distance: int = 1,
) -> list[Direction]:
    """Expand the direction set used for a GLCM.

    ``None`` means all unique directions of the given dimensionality (the
    default used throughout the paper: texture is accumulated over every
    direction at the given distance).
    """
    if directions is None:
        directions = unique_directions(ndim)
    dirs = [scale_direction(v, distance) for v in directions]
    for v in dirs:
        if len(v) != ndim:
            raise ValueError(f"direction {v} has wrong dimensionality (ndim={ndim})")
        if all(c == 0 for c in v):
            raise ValueError("zero displacement is not a valid direction")
    return dirs


def check_levels(data: np.ndarray, levels: int) -> None:
    """Validate that ``data`` is requantized into ``[0, levels)``.

    This is a full min/max pass over the array; callers that scan one
    chunk through many kernel calls should validate the chunk once and
    pass ``validate=False`` to the kernels.
    """
    num_levels_ok(levels)
    if data.size and (data.min() < 0 or data.max() >= levels):
        raise ValueError(
            f"data values must be requantized into [0, {levels - 1}]; "
            f"got range [{data.min()}, {data.max()}]"
        )


def cooccurrence_matrix(
    window: np.ndarray,
    levels: int,
    directions: Optional[Sequence[Direction]] = None,
    distance: int = 1,
    symmetric: bool = True,
    validate: bool = True,
) -> np.ndarray:
    """Dense ``(G, G)`` co-occurrence count matrix of one ROI window.

    Counts are accumulated over all supplied directions.  With
    ``symmetric=True`` (the default, matching the paper) each pair is
    counted in both orders.  ``validate=False`` skips the grey-level
    range check (for callers that validated the enclosing array once).
    """
    window = np.asarray(window)
    if validate:
        check_levels(window, levels)
    else:
        num_levels_ok(levels)
    dirs = resolve_directions(window.ndim, directions, distance)
    out = np.zeros((levels, levels), dtype=np.int64)
    for v in dirs:
        lo = tuple(max(0, -c) for c in v)
        hi = tuple(max(0, c) for c in v)
        if any(window.shape[i] <= abs(v[i]) for i in range(window.ndim)):
            continue  # displacement longer than the window in some dim
        a = window[tuple(slice(lo[i], window.shape[i] - hi[i]) for i in range(window.ndim))]
        b = window[tuple(slice(hi[i], window.shape[i] - lo[i]) for i in range(window.ndim))]
        codes = a.reshape(-1).astype(np.int64) * levels + b.reshape(-1)
        out += np.bincount(codes, minlength=levels * levels).reshape(levels, levels)
    if symmetric:
        out = out + out.T
    return out


def pair_code_array(
    data: np.ndarray, levels: int, direction: Direction
) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Pair-code array ``a*G + b`` for one displacement over a whole array.

    Returns ``(codes, lo)`` where ``codes`` has shape ``data.shape - |v|``
    and ``codes[q]`` encodes the pair at absolute position ``p = q + lo``
    (so the window of ROI origin ``o`` covers codes ``q in [o, o + R - |v|)``).
    """
    v = tuple(int(c) for c in direction)
    lo = tuple(max(0, -c) for c in v)
    hi = tuple(max(0, c) for c in v)
    nd = data.ndim
    a = data[tuple(slice(lo[i], data.shape[i] - hi[i]) for i in range(nd))]
    b = data[tuple(slice(hi[i], data.shape[i] - lo[i]) for i in range(nd))]
    return a.astype(np.int64) * levels + b, lo


def cooccurrence_scan(
    data: np.ndarray,
    roi: ROISpec,
    levels: int,
    directions: Optional[Sequence[Direction]] = None,
    distance: int = 1,
    batch: int = 2048,
    symmetric: bool = True,
    validate: bool = True,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Raster-scan ``data`` with the ROI window, yielding GLCM batches.

    Yields ``(start, matrices)`` pairs where ``matrices`` has shape
    ``(B, G, G)`` and row ``k`` is the co-occurrence matrix of the ROI
    whose origin is the ``start + k``-th position in C (raster) order of
    the valid-position grid (``valid_positions_shape(data.shape, roi)``).

    This is the "batched" backend of ``repro.core.backends``: one
    ``bincount`` per (direction, sub-batch) instead of one per ROI.
    Temporaries are bounded by ``WORKSPACE_BYTES`` — large ``batch``
    values only size the yielded output, not the working set.
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

    # Per direction: sliding windows over the pair-code array.  Window at
    # grid index o corresponds to ROI origin o (same raster order) because
    # codes.shape - (R - |v|) + 1 == data.shape - R + 1 == grid.  The views
    # overlap in memory, so batches are materialized by fancy-indexing only
    # the rows needed (a flat upfront reshape would copy the whole scan).
    win_views = []
    for v in dirs:
        absv = tuple(abs(c) for c in v)
        if any(roi.shape[i] <= absv[i] for i in range(data.ndim)):
            continue  # pairs never fit inside the ROI for this direction
        codes, _ = pair_code_array(data, levels, v)
        wshape = tuple(roi.shape[i] - absv[i] for i in range(data.ndim))
        face = 1
        for c in wshape:
            face *= c
        win_views.append((sliding_window_view(codes, wshape), face))

    gg = levels * levels
    # Sub-batch so the gather block (face codes) and the bincount output
    # (gg-wide histogram segments) stay inside the workspace budget, no
    # matter how large the caller's output batches are.
    max_face = max((face for _view, face in win_views), default=1)
    sub = max(1, min(batch, WORKSPACE_BYTES // (8 * (max_face + gg))))
    for start in range(0, npos, batch):
        stop = min(start + batch, npos)
        b = stop - start
        mats = np.zeros((b, levels, levels), dtype=np.int64)
        flat = mats.reshape(b, gg)
        for s0 in range(start, stop, sub):
            s1 = min(s0 + sub, stop)
            sb = s1 - s0
            idx = np.unravel_index(np.arange(s0, s1), grid)
            shift = pair_shift(sb, gg)
            for view, face in win_views:
                block = view[idx].reshape(sb, face)
                block += shift  # fresh gather: safe to shift in place
                counts = np.bincount(block.reshape(-1), minlength=sb * gg)
                flat[s0 - start : s1 - start] += counts.reshape(sb, gg)
        if symmetric:
            symmetrize_inplace(mats)
        yield start, mats
