"""Haralick features computed from sparse / non-zero entries only.

Paper Section 4.4.1 describes two optimizations over the naive full-matrix
feature computation:

* **zero-skip**: on the full (dense) representation, test each entry for
  zero before adding it to the running sums — this alone processed a
  typical MRI dataset in one-fourth the time;
* **sparse form**: store only non-zero, non-duplicated entries, compute
  parameters directly from the triplets (no conversion back to a dense
  array), and ship the smaller representation over the network between
  the HCC and HPC filters.

Both reduce the work to the non-zero entries; the NumPy equivalents here
are ``features_nonzero`` (gathers non-zero entries of a dense matrix, then
computes from the gathered triplets) and ``features_from_sparse`` (computes
directly from a :class:`~repro.core.sparse.SparseCooc`).

Results match :func:`repro.core.features.haralick_features` to floating-
point accuracy; the ``mcc`` feature falls back to a dense submatrix since
it requires an eigendecomposition.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .features import (
    HARALICK_FEATURES,
    PAPER_FEATURES,
    _mcc_batch,
    feature_index,
    haralick_features,
)
from .sparse import SparseCooc

__all__ = [
    "batch_features_from_sparse",
    "features_from_entries",
    "features_from_sparse",
    "features_nonzero",
]


def _entropy_terms(w: np.ndarray) -> np.ndarray:
    out = np.zeros_like(w)
    nz = w > 0
    out[nz] = w[nz] * np.log(w[nz])
    return out


def features_from_entries(
    i: np.ndarray,
    j: np.ndarray,
    weights: np.ndarray,
    levels: int,
    features: Optional[Sequence[str]] = None,
) -> Dict[str, float]:
    """Haralick features from an explicit entry list of one matrix.

    ``weights`` are probabilities or raw counts at cells ``(i[k], j[k])``
    (normalized internally); duplicate cells are allowed and accumulate.
    """
    wanted = tuple(features) if features is not None else HARALICK_FEATURES
    for name in wanted:
        feature_index(name)

    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    if not (i.shape == j.shape == w.shape) or i.ndim != 1:
        raise ValueError("i, j, weights must be 1-D arrays of equal length")
    total = w.sum()
    if total <= 0:
        return {name: 0.0 for name in wanted}
    w = w / total

    fi = i.astype(np.float64)
    fj = j.astype(np.float64)
    px = np.bincount(i, weights=w, minlength=levels)
    py = np.bincount(j, weights=w, minlength=levels)
    lev = np.arange(levels, dtype=np.float64)
    mu_x = float(px @ lev)
    mu_y = float(py @ lev)
    var_x = float(px @ (lev**2)) - mu_x**2
    var_y = float(py @ (lev**2)) - mu_y**2

    need = set(wanted)
    out: Dict[str, float] = {}

    if {"contrast", "sum_average", "sum_variance", "sum_entropy",
        "difference_variance", "difference_entropy"} & need:
        p_sum = np.bincount(i + j, weights=w, minlength=2 * levels - 1)
        p_diff = np.bincount(np.abs(i - j), weights=w, minlength=levels)
        ks = np.arange(2 * levels - 1, dtype=np.float64)
        kd = lev

    if "asm" in need:
        # ASM needs the *cell* probabilities squared; merge duplicates first.
        cell = np.bincount(i * levels + j, weights=w, minlength=levels * levels)
        out["asm"] = float((cell**2).sum())
    if "contrast" in need:
        out["contrast"] = float(p_diff @ (kd**2))
    if "correlation" in need:
        num = float((w * fi * fj).sum()) - mu_x * mu_y
        denom = np.sqrt(max(var_x, 0.0) * max(var_y, 0.0))
        out["correlation"] = num / denom if denom > 0 else 0.0
    if "sum_of_squares" in need:
        out["sum_of_squares"] = float((w * (fi - mu_x) ** 2).sum())
    if "idm" in need:
        out["idm"] = float((w / (1.0 + (fi - fj) ** 2)).sum())
    if "sum_average" in need or "sum_variance" in need:
        f6 = float(p_sum @ ks)
        if "sum_average" in need:
            out["sum_average"] = f6
    if "sum_variance" in need:
        out["sum_variance"] = float((p_sum * (ks - f6) ** 2).sum())
    if "sum_entropy" in need:
        out["sum_entropy"] = float(-_entropy_terms(p_sum).sum())
    if "entropy" in need or "imc1" in need or "imc2" in need:
        cell = np.bincount(i * levels + j, weights=w, minlength=levels * levels)
        hxy = float(-_entropy_terms(cell).sum())
        if "entropy" in need:
            out["entropy"] = hxy
    if "difference_variance" in need:
        mean_d = float(p_diff @ kd)
        out["difference_variance"] = float((p_diff * (kd - mean_d) ** 2).sum())
    if "difference_entropy" in need:
        out["difference_entropy"] = float(-_entropy_terms(p_diff).sum())
    if "imc1" in need or "imc2" in need:
        # HXY1 and HXY2 both reduce to HX + HY (see haralick_features).
        hx = float(-_entropy_terms(px).sum())
        hy = float(-_entropy_terms(py).sum())
        if "imc1" in need:
            hmax = max(hx, hy)
            out["imc1"] = (hxy - hx - hy) / hmax if hmax > 0 else 0.0
        if "imc2" in need:
            out["imc2"] = float(
                np.sqrt(np.clip(1.0 - np.exp(-2.0 * (hx + hy - hxy)), 0.0, 1.0))
            )
    if "mcc" in need:
        # Dense fallback: the eigendecomposition needs the matrix.
        cell = np.bincount(i * levels + j, weights=w, minlength=levels * levels)
        out["mcc"] = float(
            _mcc_batch(cell.reshape(1, levels, levels), px[None], py[None])[0]
        )

    return {name: out[name] for name in wanted}


def _expand_sparse(sp: SparseCooc) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand upper-triangle triplets into symmetric entry lists."""
    diag = sp.rows == sp.cols
    off = ~diag
    half = sp.counts[off] / 2.0
    i = np.concatenate([sp.rows[diag], sp.rows[off], sp.cols[off]])
    j = np.concatenate([sp.cols[diag], sp.cols[off], sp.rows[off]])
    w = np.concatenate([sp.counts[diag].astype(np.float64), half, half])
    return i, j, w


def features_from_sparse(
    sp: SparseCooc, features: Optional[Sequence[str]] = None
) -> Dict[str, float]:
    """Haralick features directly from a sparse co-occurrence matrix.

    No dense ``(G, G)`` array is materialized (except for ``mcc``),
    matching the paper's "processed directly from the sparse form"
    optimization.  Default feature set: the paper's four parameters.
    """
    wanted = tuple(features) if features is not None else PAPER_FEATURES
    i, j, w = _expand_sparse(sp)
    return features_from_entries(i, j, w, sp.levels, wanted)


def batch_features_from_sparse(
    mats: Sequence[SparseCooc],
    features: Optional[Sequence[str]] = None,
    block_bytes: int = 64 << 20,
) -> Dict[str, np.ndarray]:
    """Haralick features for a whole packet of sparse matrices at once.

    The per-matrix :func:`features_from_sparse` loop dominated the HPC
    filter's time on sparse packets: each call re-derives marginals and
    feature sums for a single ~10-entry matrix in Python.  This batched
    form densifies the packet in blocks — one vectorized ``bincount``
    scatter builds a ``(B, G, G)`` stack, then the existing vectorized
    batch kernel (:func:`~repro.core.features.haralick_features`)
    computes every matrix's parameters together.  ``block_bytes`` caps
    the transient dense stack so arbitrarily large packets stay within a
    fixed memory budget.

    Returns ``{name: (len(mats),) float array}``, matching the dense
    path's output shape; zero-total matrices yield 0.0 everywhere, like
    :func:`features_from_entries`.
    """
    wanted = tuple(features) if features is not None else PAPER_FEATURES
    for name in wanted:
        feature_index(name)
    mats = list(mats)
    n = len(mats)
    out = {name: np.empty(n) for name in wanted}
    if n == 0:
        return out
    levels = mats[0].levels
    for sp in mats:
        if sp.levels != levels:
            raise ValueError(
                f"mixed grey-level counts in one batch: {sp.levels} != {levels}"
            )
    cells = levels * levels
    block = max(1, int(block_bytes) // (cells * 8))
    for lo in range(0, n, block):
        chunk = mats[lo : lo + block]
        idx_parts = []
        w_parts = []
        for k, sp in enumerate(chunk):
            base = k * cells
            # Scatter half the symmetric-total count at (r, c) and at
            # (c, r): off-diagonal mirrors each get counts/2, diagonal
            # halves land on the same cell and re-sum to the full count
            # — exactly ``SparseCooc.to_dense`` without the loop.
            half = sp.counts * 0.5
            idx_parts.append(base + sp.rows * levels + sp.cols)
            idx_parts.append(base + sp.cols * levels + sp.rows)
            w_parts.append(half)
            w_parts.append(half)
        dense = np.bincount(
            np.concatenate(idx_parts),
            weights=np.concatenate(w_parts),
            minlength=len(chunk) * cells,
        ).reshape(len(chunk), levels, levels)
        vals = haralick_features(dense, wanted)
        for name in wanted:
            out[name][lo : lo + len(chunk)] = vals[name]
    return out


def features_nonzero(
    matrix: np.ndarray, features: Optional[Sequence[str]] = None
) -> Dict[str, float]:
    """Zero-skip feature computation on a dense matrix.

    Gathers the non-zero entries first and runs all sums over them only —
    the NumPy analog of the paper's "check each entry for zero before
    adding" optimization that yielded a 4x speedup on sparse MRI data.
    """
    wanted = tuple(features) if features is not None else PAPER_FEATURES
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    i, j = np.nonzero(matrix)
    return features_from_entries(i, j, matrix[i, j], matrix.shape[0], wanted)
