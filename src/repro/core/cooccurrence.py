"""Co-occurrence matrix computation for N-dimensional (incl. 4D) windows.

A grey-level co-occurrence matrix (GLCM) is the joint histogram of grey
levels of pixel pairs separated by a displacement vector (paper Section 3
and Appendix).  Properties reproduced here:

1. Opposite displacements yield the same matrix, so only the canonical
   half-space of directions is enumerated (``repro.core.directions``).
2. Counting both orders of each pair makes the matrix symmetric.
3. The matrix is always ``G x G`` for ``G`` grey levels, independent of
   distance and direction.

``cooccurrence_matrix`` computes one ROI window's dense ``(G, G)``
count matrix by simple slicing per direction; it is the reference
kernel.  The scan kernels that produce every window's matrix of a chunk
at once, and the dispatch layer that selects between them, live in
``repro.core.backends``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .directions import Direction, scale_direction, unique_directions
from .quantization import num_levels_ok

__all__ = [
    "check_levels",
    "cooccurrence_matrix",
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
