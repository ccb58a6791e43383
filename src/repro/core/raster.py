"""4D raster scanning: the sequential Haralick algorithm of paper Fig. 2.

Two implementations:

``raster_scan_reference``
    A direct transcription of the pseudo-code — nested loops over every
    valid ROI origin, one co-occurrence matrix per ROI, one feature
    evaluation per matrix.  Deliberately simple; used as ground truth for
    property-based tests and kept slow-but-obviously-correct.

``raster_scan``
    The production path: a GLCM scan backend (``repro.core.backends``,
    selected by the ``kernel`` argument, ``incremental`` by default)
    feeding the vectorized feature kernels, with a bounded per-batch
    working set so arbitrarily large chunks can be scanned without
    densifying all matrices at once.

:func:`raster_scan_batches` is the one scan-then-features body: the HMP
filter, the sequential out-of-core driver and :func:`raster_scan` all
run through it, and it alone times the two halves.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .backends import DEFAULT_KERNEL, get_kernel
from .cooccurrence import check_levels, cooccurrence_matrix
from .directions import Direction
from .features import PAPER_FEATURES, haralick_features
from .roi import ROISpec, iter_roi_origins, valid_positions_shape

__all__ = ["raster_scan", "raster_scan_reference", "raster_scan_batches"]


def raster_scan_reference(
    data: np.ndarray,
    roi: ROISpec,
    levels: int,
    features: Optional[Sequence[str]] = None,
    directions: Optional[Sequence[Direction]] = None,
    distance: int = 1,
) -> Dict[str, np.ndarray]:
    """Reference sequential scan (paper Fig. 2): one ROI at a time.

    Returns one output array per feature, each of shape
    ``valid_positions_shape(data.shape, roi)`` — the paper's "4D dataset
    for each Haralick parameter computed".
    """
    data = np.asarray(data)
    check_levels(data, levels)  # once for the whole scan, not per window
    wanted = tuple(features) if features is not None else PAPER_FEATURES
    grid = valid_positions_shape(data.shape, roi)
    out = {name: np.zeros(grid, dtype=np.float64) for name in wanted}
    for origin in iter_roi_origins(data.shape, roi):
        window = data[tuple(slice(o, o + r) for o, r in zip(origin, roi.shape))]
        mat = cooccurrence_matrix(window, levels, directions, distance, validate=False)
        vals = haralick_features(mat, wanted)
        for name in wanted:
            out[name][origin] = vals[name]
    return out


def raster_scan_batches(
    data: np.ndarray,
    roi: ROISpec,
    levels: int,
    features: Optional[Sequence[str]] = None,
    directions: Optional[Sequence[Direction]] = None,
    distance: int = 1,
    batch: int = 2048,
    kernel: str = DEFAULT_KERNEL,
    validate: bool = True,
    times: Optional[List[float]] = None,
) -> Iterator[Tuple[int, Dict[str, np.ndarray]]]:
    """Stream feature batches in raster order.

    Yields ``(start, {name: values})`` where ``values[k]`` belongs to the
    flattened position ``start + k``.  The HMP filter forwards each
    batch downstream as soon as it is computed (pipelining).  ``kernel``
    selects the scan backend (``repro.core.backends``); every backend
    yields bit-identical batches.

    ``times``, when given, is a two-slot accumulator: the scan's seconds
    are added to ``times[0]`` and the features' to ``times[1]``.  The
    clock stops while the caller holds a yielded batch, so whatever the
    consumer does with it (send, copy) is counted in neither.
    """
    wanted = tuple(features) if features is not None else PAPER_FEATURES
    scan = get_kernel(kernel)
    if times is None:
        times = [0.0, 0.0]
    mark = time.perf_counter()
    for start, mats in scan(
        data, roi, levels, directions, distance, batch=batch, validate=validate
    ):
        now = time.perf_counter()
        times[0] += now - mark
        vals = haralick_features(mats, wanted)
        times[1] += time.perf_counter() - now
        yield start, vals
        mark = time.perf_counter()


def raster_scan(
    data: np.ndarray,
    roi: ROISpec,
    levels: int,
    features: Optional[Sequence[str]] = None,
    directions: Optional[Sequence[Direction]] = None,
    distance: int = 1,
    batch: int = 2048,
    kernel: str = DEFAULT_KERNEL,
    validate: bool = True,
    times: Optional[List[float]] = None,
) -> Dict[str, np.ndarray]:
    """Vectorized raster scan; same results as ``raster_scan_reference``.

    ``times`` is :func:`raster_scan_batches`' scan/feature accumulator.
    """
    data = np.asarray(data)
    wanted = tuple(features) if features is not None else PAPER_FEATURES
    grid = valid_positions_shape(data.shape, roi)
    npos = int(np.prod(grid))
    out = {name: np.empty(npos, dtype=np.float64) for name in wanted}
    for start, vals in raster_scan_batches(
        data, roi, levels, wanted, directions, distance, batch,
        kernel=kernel, validate=validate, times=times,
    ):
        for name in wanted:
            out[name][start : start + vals[name].shape[0]] = vals[name]
    return {name: arr.reshape(grid) for name, arr in out.items()}
