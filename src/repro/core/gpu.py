"""Import-guarded GPU GLCM scan backend (CuPy, with a Numba-CUDA fallback).

The CUDA GLCM formulation (Hong, Zheng & Pan, arXiv:1710.06189) maps the
co-occurrence scan onto massively parallel histogramming: encode every
grey-level pair as a scalar *pair code* ``a*G + b``, then scatter the
codes of each window into that window's ``G x G`` histogram with atomic
adds.  This module implements exactly that, on host-side geometry that
is cached per chunk shape:

* the pair codes of the whole chunk are built once (one concatenated
  array over all directions),
* the cached flat-index offset tables of
  :func:`repro.core.workspace.scan_offsets` say which codes belong to
  which window,
* the device accumulates all windows' GLCMs in one
  ``(n_windows, G*G)`` buffer — via ``cupy.bincount`` over disjoint
  per-plane segments (which lowers to the same atomic-histogram kernel)
  on the CuPy path, or an explicit ``cuda.atomic.add`` scatter kernel on
  the Numba path.

Exactly one chunk is transferred to the device per scan and one GLCM
block back, so PCIe traffic is two bulk copies per chunk.

Nothing here imports CuPy or Numba at module import time.  The first
call to :func:`probe_gpu` attempts the imports and caches the outcome;
:func:`gpu_scan` falls back to the CPU ``incremental`` kernel — emitting a
:class:`GpuUnavailableWarning` (and the filters a ``kernel.fallback``
obs event) — whenever no usable device is found, so ``--kernel gpu`` is
always safe to request.  ``repro kernels`` prints the probe outcome,
including the import or driver error, to make failures diagnosable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .cooccurrence import check_levels, pair_code_array, resolve_directions
from .directions import Direction
from .quantization import num_levels_ok
from .roi import ROISpec, valid_positions_shape
from .workspace import WORKSPACE_BYTES, scan_offsets, symmetrize_inplace

__all__ = [
    "GpuProbe",
    "GpuUnavailableWarning",
    "gpu_fallback_count",
    "gpu_scan",
    "probe_gpu",
]


class GpuUnavailableWarning(UserWarning):
    """``--kernel gpu`` requested but no usable CUDA device was found."""


@dataclass(frozen=True)
class GpuProbe:
    """Outcome of one GPU availability probe.

    ``detail`` carries the human-readable evidence either way: provider
    and library versions when a device is usable, or the accumulated
    import/driver errors when not — ``repro kernels`` prints it
    verbatim so a failing ``--kernel gpu`` is diagnosable.
    """

    available: bool
    provider: Optional[str]  # "cupy" | "numba" | None
    device: Optional[str]
    detail: str


_probe_cache: Optional[GpuProbe] = None
_fallbacks = 0


def _decode(name) -> str:
    return name.decode() if isinstance(name, bytes) else str(name)


def _run_probe() -> GpuProbe:
    errors = []
    try:
        import cupy as cp  # type: ignore

        try:
            count = int(cp.cuda.runtime.getDeviceCount())
            if count > 0:
                props = cp.cuda.runtime.getDeviceProperties(0)
                name = _decode(props.get("name", "CUDA device"))
                return GpuProbe(
                    available=True,
                    provider="cupy",
                    device=name,
                    detail=f"cupy {cp.__version__}, {count} device(s)",
                )
            errors.append(f"cupy {cp.__version__}: no CUDA devices")
        except Exception as exc:  # driver/runtime errors, not import
            errors.append(f"cupy {cp.__version__}: {exc}")
    except Exception as exc:
        errors.append(f"cupy: {exc}")
    try:
        import numba  # type: ignore
        from numba import cuda  # type: ignore

        try:
            if cuda.is_available():
                name = _decode(cuda.get_current_device().name)
                return GpuProbe(
                    available=True,
                    provider="numba",
                    device=name,
                    detail=f"numba {numba.__version__}",
                )
            errors.append(f"numba {numba.__version__}: CUDA not available")
        except Exception as exc:
            errors.append(f"numba {numba.__version__}: {exc}")
    except Exception as exc:
        errors.append(f"numba: {exc}")
    return GpuProbe(
        available=False, provider=None, device=None, detail="; ".join(errors)
    )


def probe_gpu(refresh: bool = False) -> GpuProbe:
    """Probe (once, cached) for a usable CUDA device.

    Tries CuPy first, then Numba-CUDA.  ``refresh=True`` re-runs the
    probe — useful after installing a driver in a live session.
    """
    global _probe_cache
    if _probe_cache is None or refresh:
        _probe_cache = _run_probe()
    return _probe_cache


def gpu_fallback_count() -> int:
    """How many ``gpu`` scans fell back to ``incremental`` this process."""
    return _fallbacks


def gpu_scan(
    data: np.ndarray,
    roi: ROISpec,
    levels: int,
    directions: Optional[Sequence[Direction]] = None,
    distance: int = 1,
    batch: int = 2048,
    symmetric: bool = True,
    validate: bool = True,
) -> Iterator[Tuple[int, np.ndarray]]:
    """GPU pair-code-scatter scan; clean ``incremental`` fallback.

    Same yield contract and bit-identical matrices as the CPU backends
    (integer count arithmetic on both sides — there is nothing to
    round).
    """
    probe = probe_gpu()
    if not probe.available:
        global _fallbacks
        _fallbacks += 1
        warnings.warn(
            f"scan kernel 'gpu' unavailable ({probe.detail}); "
            "falling back to 'incremental'",
            GpuUnavailableWarning,
            stacklevel=3,
        )
        from .backends import incremental_scan

        yield from incremental_scan(
            data, roi, levels, directions, distance,
            batch=batch, symmetric=symmetric, validate=validate,
        )
        return
    mats = _device_glcms(
        np.asarray(data), roi, levels, directions, distance,
        validate=validate, provider=probe.provider,
    )
    if symmetric:
        symmetrize_inplace(mats)
    npos = mats.shape[0]
    for start in range(0, npos, batch):
        yield start, mats[start : start + batch]


def _host_geometry(data, roi, levels, directions, distance, validate):
    """Shared host-side prep: validation, offsets, concatenated codes."""
    if validate:
        check_levels(data, levels)
    else:
        num_levels_ok(levels)
    if data.ndim != roi.ndim:
        raise ValueError(f"data ndim {data.ndim} != ROI ndim {roi.ndim}")
    grid = valid_positions_shape(data.shape, roi)
    npos = int(np.prod(grid))
    dirs = resolve_directions(data.ndim, directions, distance)
    offs = scan_offsets(data.shape, roi, tuple(dirs))
    codes_cat = np.empty(offs.cat_size, dtype=np.int64)
    for v, seg_start, seg_stop in offs.segments:
        codes, _ = pair_code_array(data, levels, v)
        codes_cat[seg_start:seg_stop] = codes.reshape(-1)
    return npos, offs, codes_cat


def _device_glcms(
    data, roi, levels, directions, distance, validate, provider
) -> np.ndarray:
    """All windows' GLCMs of one chunk, computed on the device.

    Returns the dense ``(n_windows, G, G)`` int64 block (unsymmetrized);
    exactly one host-to-device chunk upload and one device-to-host block
    download.
    """
    npos, offs, codes_cat = _host_geometry(
        data, roi, levels, directions, distance, validate
    )
    gg = levels * levels
    if offs.cat_size == 0 or not offs.groups:
        # No direction fits the window: all-zero matrices, no transfer.
        return np.zeros((npos, levels, levels), dtype=np.int64)
    if provider == "cupy":
        flat = _cupy_glcms(offs, codes_cat, npos, gg)
    else:
        flat = _numba_glcms(offs, codes_cat, npos, gg)
    return flat.reshape(npos, levels, levels)


def _cupy_glcms(offs, codes_cat, npos, gg) -> np.ndarray:
    """CuPy path: segmented device bincounts over the gather tables.

    ``cupy.bincount`` over disjoint per-(row, plane) segments is the
    library spelling of the paper's atomic-histogram kernel: every code
    becomes one global-memory ``atomicAdd`` into its segment.
    """
    import cupy as cp

    d_codes = cp.asarray(codes_cat)  # the one chunk upload
    d_mats = cp.zeros((npos, gg), dtype=cp.int64)
    d_rows = d_mats.reshape(offs.n_rows, offs.row_len, gg)
    # Device memory is the constraint here, not cache: size row blocks
    # so the index + gather + histogram working set stays well under the
    # free-memory headroom while keeping the grid saturated.
    budget = 8 * WORKSPACE_BYTES
    for g in offs.groups:
        d_table = cp.asarray(g.table)
        per_row = 8 * g.n_planes * (2 * g.total_face + gg)
        rows_per_block = max(1, min(offs.n_rows, budget // max(per_row, 1)))
        j = cp.arange(g.n_planes, dtype=d_table.dtype)[None, :, None]
        for r0 in range(0, offs.n_rows, rows_per_block):
            rb = min(rows_per_block, offs.n_rows - r0)
            idx = d_table[r0 : r0 + rb, None, :] + j
            block = d_codes[idx]
            seg = cp.arange(rb * g.n_planes, dtype=cp.int64) * gg
            block += seg.reshape(rb, g.n_planes, 1)
            h = cp.bincount(
                block.reshape(-1), minlength=rb * g.n_planes * gg
            ).reshape(rb, g.n_planes, gg)
            m = d_rows[r0 : r0 + rb]
            for k in range(g.trailing_extent):
                m += h[:, k : k + offs.row_len]
    return cp.asnumpy(d_mats)  # the one block download


def _numba_glcms(offs, codes_cat, npos, gg) -> np.ndarray:
    """Numba-CUDA path: explicit atomic-add scatter per the CUDA paper.

    One thread per (window, plane, face) element: read the pair code
    through the offset table, ``cuda.atomic.add`` it into the window's
    histogram row.  No segmenting tricks needed — the atomics *are* the
    histogram.
    """
    from numba import cuda

    kernel = _numba_kernel()
    d_codes = cuda.to_device(codes_cat)  # the one chunk upload
    d_mats = cuda.to_device(np.zeros((npos, gg), dtype=np.int64))
    for g in offs.groups:
        d_table = cuda.to_device(np.ascontiguousarray(g.table, dtype=np.int64))
        n_threads = offs.n_rows * offs.row_len * g.trailing_extent * g.total_face
        if n_threads == 0:
            continue
        block = 256
        kernel[(n_threads + block - 1) // block, block](
            d_codes, d_table, offs.row_len, g.trailing_extent,
            g.total_face, d_mats,
        )
    return d_mats.copy_to_host()  # the one block download


_numba_kernel_cache = None


def _numba_kernel():
    global _numba_kernel_cache
    if _numba_kernel_cache is None:
        from numba import cuda

        @cuda.jit
        def scatter(codes, table, row_len, wt, total_face, mats):
            i = cuda.grid(1)
            per_win = wt * total_face
            n_win = table.shape[0] * row_len
            if i >= n_win * per_win:
                return
            w = i // per_win
            rem = i - w * per_win
            j = rem // total_face
            f = rem - j * total_face
            r = w // row_len
            t = w - r * row_len
            code = codes[table[r, f] + t + j]
            cuda.atomic.add(mats, (w, code), 1)

        _numba_kernel_cache = scatter
    return _numba_kernel_cache
