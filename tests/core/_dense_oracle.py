"""Test-only oracle: the dense Haralick formulas, one temporary per term.

This is the feature kernel as it stood before the moment-table GEMM:
every statistic written out over the full ``(B, G, G)`` probability
array, the ``p_{x+y}`` / ``p_{x-y}`` marginals by one-hot products, the
IMC entropies through the explicit ``px * py`` outer product, ``mcc`` one
``eigvals`` per matrix.  Slow, memory-hungry and easy to check against
the textbook definitions; ``haralick_features`` must agree with it to
``rtol=1e-9, atol=1e-12``.  Lives under ``tests/`` so nothing in ``src/``
can import it.
"""

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.features import HARALICK_FEATURES, feature_index


def _xlogx(x: np.ndarray) -> np.ndarray:
    """``x * ln(x)`` with the ``0 ln 0 = 0`` convention."""
    out = np.zeros_like(x)
    nz = x > 0
    out[nz] = x[nz] * np.log(x[nz])
    return out


def _sum_diff_operators(levels: int) -> Tuple[np.ndarray, np.ndarray]:
    """One-hot scatter operators mapping ``p.reshape(-1)`` onto the
    ``p_{x+y}`` (length ``2G-1``) and ``p_{x-y}`` (length ``G``) marginals.
    """
    i, j = np.meshgrid(np.arange(levels), np.arange(levels), indexing="ij")
    s = (i + j).reshape(-1)
    d = np.abs(i - j).reshape(-1)
    S = np.zeros((levels * levels, 2 * levels - 1))
    S[np.arange(s.size), s] = 1.0
    D = np.zeros((levels * levels, levels))
    D[np.arange(d.size), d] = 1.0
    return S, D


_OP_CACHE: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _ops(levels: int) -> Tuple[np.ndarray, np.ndarray]:
    if levels not in _OP_CACHE:
        _OP_CACHE[levels] = _sum_diff_operators(levels)
    return _OP_CACHE[levels]


def _mcc(p: np.ndarray, px: np.ndarray, py: np.ndarray) -> float:
    """Maximal correlation coefficient of a single probability matrix.

    sqrt of the second-largest eigenvalue magnitude of
    ``Q(i, j) = sum_k p(i, k) p(j, k) / (px(i) py(k))``, computed on the
    submatrix of levels with non-zero marginals.
    """
    keep = (px > 0) & (py > 0)
    if keep.sum() < 2:
        return 0.0
    psub = p[np.ix_(keep, keep)]
    pxs = px[keep]
    pys = py[keep]
    a = psub / pxs[:, None]
    b = psub / pys[None, :]
    q = a @ b.T
    eig = np.abs(np.linalg.eigvals(q))
    eig.sort()
    second = eig[-2]
    return float(np.sqrt(max(0.0, min(second, 1.0))))


def dense_haralick_features(
    matrices: np.ndarray,
    features: Optional[Sequence[str]] = None,
) -> Dict[str, np.ndarray]:
    """All-dense Haralick features of ``(..., G, G)`` matrices.

    Returns a dict mapping feature name -> array of shape
    ``matrices.shape[:-2]``.
    """
    wanted = tuple(features) if features is not None else HARALICK_FEATURES
    for name in wanted:
        feature_index(name)  # validates

    matrices = np.asarray(matrices, dtype=np.float64)
    if matrices.ndim < 2 or matrices.shape[-1] != matrices.shape[-2]:
        raise ValueError(f"expected (..., G, G) matrices, got {matrices.shape}")
    levels = matrices.shape[-1]
    lead = matrices.shape[:-2]
    flat = matrices.reshape(-1, levels, levels)
    nmat = flat.shape[0]

    totals = flat.sum(axis=(1, 2))
    safe_tot = np.where(totals > 0, totals, 1.0)
    p = flat / safe_tot[:, None, None]

    lev = np.arange(levels, dtype=np.float64)
    px = p.sum(axis=2)  # (..., G) marginal over columns
    py = p.sum(axis=1)
    mu_x = px @ lev
    mu_y = py @ lev
    var_x = px @ (lev**2) - mu_x**2
    var_y = py @ (lev**2) - mu_y**2

    need = set(wanted)
    out: Dict[str, np.ndarray] = {}

    if {"contrast", "sum_average", "sum_variance", "sum_entropy",
        "difference_variance", "difference_entropy"} & need:
        S, D = _ops(levels)
        p2 = p.reshape(nmat, -1)
        p_sum = p2 @ S  # (B, 2G-1)
        p_diff = p2 @ D  # (B, G)
        ks = np.arange(2 * levels - 1, dtype=np.float64)
        kd = np.arange(levels, dtype=np.float64)

    if "asm" in need:
        out["asm"] = (p**2).sum(axis=(1, 2))
    if "contrast" in need:
        out["contrast"] = p_diff @ (kd**2)
    if "correlation" in need:
        ij = np.outer(lev, lev)
        num = (p * ij).sum(axis=(1, 2)) - mu_x * mu_y
        denom = np.sqrt(np.clip(var_x, 0, None) * np.clip(var_y, 0, None))
        out["correlation"] = np.where(denom > 0, num / np.where(denom > 0, denom, 1), 0.0)
    if "sum_of_squares" in need:
        # Variance about the mean of the x-marginal (Haralick f4).
        d2 = (lev[None, :, None] - mu_x[:, None, None]) ** 2
        out["sum_of_squares"] = (p * d2).sum(axis=(1, 2))
    if "idm" in need:
        i, j = np.meshgrid(lev, lev, indexing="ij")
        w = 1.0 / (1.0 + (i - j) ** 2)
        out["idm"] = (p * w[None]).sum(axis=(1, 2))
    if "sum_average" in need or "sum_variance" in need:
        f6 = p_sum @ ks
        if "sum_average" in need:
            out["sum_average"] = f6
    if "sum_variance" in need:
        out["sum_variance"] = (p_sum * (ks[None, :] - f6[:, None]) ** 2).sum(axis=1)
    if "sum_entropy" in need:
        out["sum_entropy"] = -_xlogx(p_sum).sum(axis=1)
    if "entropy" in need or "imc1" in need or "imc2" in need:
        hxy = -_xlogx(p).sum(axis=(1, 2))
        if "entropy" in need:
            out["entropy"] = hxy
    if "difference_variance" in need:
        mean_d = p_diff @ kd
        out["difference_variance"] = (
            p_diff * (kd[None, :] - mean_d[:, None]) ** 2
        ).sum(axis=1)
    if "difference_entropy" in need:
        out["difference_entropy"] = -_xlogx(p_diff).sum(axis=1)
    if "imc1" in need or "imc2" in need:
        # Joint of the independent marginals, with 0 log 0 handling.
        pxy = px[:, :, None] * py[:, None, :]
        log_pxy = np.zeros_like(pxy)
        nz = pxy > 0
        log_pxy[nz] = np.log(pxy[nz])
        hxy1 = -(p * log_pxy).sum(axis=(1, 2))
        hxy2 = -_xlogx(pxy).sum(axis=(1, 2))
        hx = -_xlogx(px).sum(axis=1)
        hy = -_xlogx(py).sum(axis=1)
        if "imc1" in need:
            hmax = np.maximum(hx, hy)
            out["imc1"] = np.where(hmax > 0, (hxy - hxy1) / np.where(hmax > 0, hmax, 1), 0.0)
        if "imc2" in need:
            out["imc2"] = np.sqrt(np.clip(1.0 - np.exp(-2.0 * (hxy2 - hxy)), 0.0, 1.0))
    if "mcc" in need:
        out["mcc"] = np.array(
            [_mcc(p[k], px[k], py[k]) for k in range(nmat)], dtype=np.float64
        )

    empty = totals == 0
    result = {}
    for name in wanted:
        vals = np.where(empty, 0.0, out[name])
        result[name] = vals.reshape(lead)
    return result
