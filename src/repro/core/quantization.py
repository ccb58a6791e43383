"""Grey-level requantization of raw image intensities.

Haralick co-occurrence matrices are ``G x G`` where ``G`` is the number of
grey levels (paper Section 3, Property 3).  Raw MRI data is typically 16-bit
(65536 levels); the paper requantizes to ``G = 32`` levels, noting that
values above 32 rarely improve texture-analysis results (Section 5.1).

Two strategies are provided:

``quantize_linear``
    Uniform binning of the interval ``[lo, hi]`` into ``G`` equal-width
    bins.  This is the scheme assumed by the paper's experiments.

``quantize_equalized``
    Histogram-equalized binning: bin edges are placed at intensity
    quantiles so each output level carries roughly equal mass.  Useful when
    the raw intensity histogram is strongly skewed (common in DCE-MRI).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["quantize_linear", "quantize_equalized", "num_levels_ok"]


def num_levels_ok(levels: int) -> None:
    """Validate a grey-level count; raise ``ValueError`` when unusable."""
    if not isinstance(levels, (int, np.integer)):
        raise ValueError(f"levels must be an integer, got {levels!r}")
    if levels < 2:
        raise ValueError(f"need at least 2 grey levels, got {levels}")
    if levels > 65536:
        raise ValueError(f"levels={levels} exceeds 16-bit intensity range")


def quantize_linear(
    data: np.ndarray,
    levels: int,
    lo: float | None = None,
    hi: float | None = None,
) -> np.ndarray:
    """Requantize ``data`` to ``levels`` grey levels by uniform binning.

    Parameters
    ----------
    data:
        Array of raw intensities (any shape, any real dtype).
    levels:
        Number of output grey levels ``G``; output values are in
        ``[0, G-1]``.
    lo, hi:
        Intensity range to map onto the levels.  Defaults to the data
        min/max.  Values outside ``[lo, hi]`` are clipped (``-inf`` to
        level 0, ``+inf`` to level ``G-1``); NaN in ``data`` and a range
        that is inverted or not finite raise ``ValueError``.

    Returns
    -------
    ``np.ndarray`` of dtype ``int32`` with the same shape as ``data``.
    """
    num_levels_ok(levels)
    data = np.asarray(data)
    if data.size == 0:
        return np.zeros(data.shape, dtype=np.int32)
    if data.dtype.kind == "f" and np.isnan(data.min()):
        raise ValueError("data contains NaN, which has no grey level")
    lo = float(data.min()) if lo is None else float(lo)
    hi = float(data.max()) if hi is None else float(hi)
    span = hi - lo
    if not math.isfinite(span):
        raise ValueError(f"intensity range [{lo}, {hi}] is not finite")
    if hi < lo:
        raise ValueError(f"hi={hi} < lo={lo}")
    if hi == lo:
        # Constant image: everything maps to level 0.
        return np.zeros(data.shape, dtype=np.int32)
    scaled = np.asarray(data, dtype=np.float64) - lo
    scale = levels / span
    if math.isfinite(scale):
        scaled *= scale
    else:
        # Denormal span: 0 * inf would be NaN; the ratio first is not.
        scaled /= span
        scaled *= levels
    # Clip before the cast: a float past 2**31 (or +-inf) has no int32.
    np.clip(scaled, 0, levels - 1, out=scaled)
    return np.floor(scaled).astype(np.int32)


def quantize_equalized(data: np.ndarray, levels: int) -> np.ndarray:
    """Requantize ``data`` with histogram-equalized (quantile) bin edges.

    Each output level receives approximately ``data.size / levels``
    samples.  Ties at quantile boundaries may skew counts for highly
    discrete inputs.
    """
    num_levels_ok(levels)
    data = np.asarray(data)
    if data.size == 0:
        return np.zeros(data.shape, dtype=np.int32)
    flat = data.reshape(-1).astype(np.float64)
    # Interior bin edges at the 1/G .. (G-1)/G quantiles.
    qs = np.linspace(0.0, 1.0, levels + 1)[1:-1]
    edges = np.quantile(flat, qs)
    out = np.searchsorted(edges, flat, side="right").astype(np.int32)
    return out.reshape(data.shape)
