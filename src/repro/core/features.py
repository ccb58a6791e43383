"""The fourteen Haralick textural features (Haralick et al., 1973).

All features operate on the normalized co-occurrence probability matrix
``p(i, j) = counts(i, j) / counts.sum()``.  The implementation is fully
vectorized over batches: input of shape ``(..., G, G)`` produces one value
of shape ``(...,)`` per feature.

Feature names (paper numbering f1..f14):

==== ======================= =====================================
 f1  ``asm``                 angular second moment (energy)
 f2  ``contrast``            contrast
 f3  ``correlation``         correlation
 f4  ``sum_of_squares``      sum of squares: variance
 f5  ``idm``                 inverse difference moment (homogeneity)
 f6  ``sum_average``         sum average
 f7  ``sum_variance``        sum variance
 f8  ``sum_entropy``         sum entropy
 f9  ``entropy``             entropy
 f10 ``difference_variance`` difference variance
 f11 ``difference_entropy``  difference entropy
 f12 ``imc1``                information measure of correlation 1
 f13 ``imc2``                information measure of correlation 2
 f14 ``mcc``                 maximal correlation coefficient
==== ======================= =====================================

The paper's experiments compute the four most expensive of these: ASM,
Correlation, Sum of Squares and Inverse Difference Moment (Section 5.1),
exported as ``PAPER_FEATURES``.

Eight features (``MOMENT_FEATURES``, the paper's four among them) are
fixed formulas of a count matrix's exact integer sums: its total,
``sum c^2``, the moment columns and the difference histogram ``D[k]``
(``idm = sum_k D[k] / (1 + k^2)``, summed in increasing ``k``).  One
float stage computes them, whether the sums come from a matrix
(:func:`haralick_features`) or straight from the scan
(:func:`moment_features`), so both give the same bytes.

Conventions: entropies use the natural logarithm with ``0 log 0 = 0``;
degenerate statistics (zero variance, empty matrix) yield 0.0.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import native

__all__ = [
    "HARALICK_FEATURES",
    "PAPER_FEATURES",
    "MOMENT_FEATURES",
    "haralick_features",
    "moment_features",
    "haralick_feature_vector",
    "feature_index",
]

HARALICK_FEATURES: Tuple[str, ...] = (
    "asm",
    "contrast",
    "correlation",
    "sum_of_squares",
    "idm",
    "sum_average",
    "sum_variance",
    "sum_entropy",
    "entropy",
    "difference_variance",
    "difference_entropy",
    "imc1",
    "imc2",
    "mcc",
)

#: The four parameters used in the paper's evaluation (Section 5.1).
PAPER_FEATURES: Tuple[str, ...] = ("asm", "correlation", "sum_of_squares", "idm")

#: The features read from entropies or ``mcc``: computed by the compiled
#: pass when :func:`repro.core.native.load` has it, by numpy otherwise.
INFORMATION_FEATURES = frozenset(
    {"entropy", "sum_entropy", "difference_entropy", "imc1", "imc2", "mcc"}
)

#: The other eight: fixed formulas of a matrix's exact integer sums (its
#: total, ``sum c^2``, moment columns and difference histogram), so the
#: scan can hand over those sums instead of the matrix
#: (:func:`moment_features`).
MOMENT_FEATURES = frozenset(HARALICK_FEATURES) - INFORMATION_FEATURES


def feature_index(name: str) -> int:
    """Position of a feature name in ``HARALICK_FEATURES`` (f``i+1``)."""
    try:
        return HARALICK_FEATURES.index(name)
    except ValueError:
        raise KeyError(
            f"unknown Haralick feature {name!r}; valid: {HARALICK_FEATURES}"
        ) from None


#: Float working set of one :func:`haralick_features` sub-block.  Packets
#: larger than this are processed a slab at a time, so the temporaries
#: never grow with the batch length.
FEATURE_BLOCK_BYTES = 4 * 2**20

#: Moment-table columns each GEMM-derived feature reads (``"1"``, the
#: matrix total, is always present).  ``x``/``y`` are the row/column
#: grey levels centred at ``(G - 1) / 2``, ``d = |i - j|``, ``s = x + y``.
_MOMENT_COLUMNS: Dict[str, Tuple[str, ...]] = {
    "contrast": ("dd",),
    "correlation": ("x", "y", "xx", "yy", "xy"),
    "sum_of_squares": ("x", "xx"),
    "sum_average": ("s",),
    "sum_variance": ("s", "ss"),
    "difference_variance": ("d", "dd"),
}


def _columns(need: frozenset) -> Tuple[str, ...]:
    """``"1"`` and the moment columns the features in ``need`` read."""
    return ("1",) + tuple(
        sorted({c for name in need for c in _MOMENT_COLUMNS.get(name, ())})
    )


@lru_cache(maxsize=64)
def _moment_table(levels: int, columns: Tuple[str, ...]) -> np.ndarray:
    """Read-only ``(G*G, K)`` table: one column per requested moment.

    Every column is integer- or half-integer-valued, so the product with
    a count matrix is exact in float64 whatever order BLAS sums it in —
    which is what makes a feature value independent of the packet the
    matrix travelled in.
    """
    c = (levels - 1) / 2.0
    i, j = np.divmod(np.arange(levels * levels), levels)
    x, y = i - c, j - c
    col = {
        "1": np.ones_like(x), "x": x, "y": y,
        "xx": x * x, "yy": y * y, "xy": x * y,
        "d": np.abs(x - y), "dd": (x - y) ** 2,
        "s": x + y, "ss": (x + y) ** 2,
    }
    table = np.stack([col[k] for k in columns], axis=1)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=16)
def _sum_weights(levels: int) -> Tuple[np.ndarray, ...]:
    """Read-only int64 ``(k, k^2, u, u^2)``: the difference ``k = |i - j|``
    of each ``D`` bin and the centred sum ``u = i + j - (G - 1)`` of each
    ``Hs`` bin."""
    k = np.arange(levels, dtype=np.int64)
    u = np.arange(2 * levels - 1, dtype=np.int64) - (levels - 1)
    tables = (k, k * k, u, u * u)
    for t in tables:
        t.setflags(write=False)
    return tables


def _sum_moments(
    sums: np.ndarray, columns: Tuple[str, ...]
) -> Dict[str, np.ndarray]:
    """The moment columns of symmetric count matrices from their sums.

    ``sums`` rows are ``{N, sum c^2, D[0:G], Hs[0:2G-1]}``.  With
    ``x + y = u`` and ``x - y = +-k`` on every cell, and ``c`` symmetric::

        sum x = sum y = 1/2 sum Hs u
        sum xx = sum yy = 1/4 (sum Hs u^2 + sum D k^2)
        sum xy = 1/4 (sum Hs u^2 - sum D k^2)

    Every dot product is an integer one, so each column equals the
    exact value the moment-table GEMM takes from the matrix.
    """
    g = (sums.shape[1] - 1) // 3
    d, hs = sums[:, 2 : 2 + g], sums[:, 2 + g :]
    k, k2, u, u2 = _sum_weights(g)
    cols = set(columns)
    m = {"1": sums[:, 0].astype(np.float64)}
    if cols & {"s", "x", "y"}:
        m["s"] = (hs @ u).astype(np.float64)
    if cols & {"ss", "xx", "yy", "xy"}:
        m["ss"] = (hs @ u2).astype(np.float64)
    if cols & {"dd", "xx", "yy", "xy"}:
        m["dd"] = (d @ k2).astype(np.float64)
    if "d" in cols:
        m["d"] = (d @ k).astype(np.float64)
    if cols & {"x", "y"}:
        m["x"] = m["y"] = m["s"] / 2
    if cols & {"xx", "yy"}:
        m["xx"] = m["yy"] = (m["ss"] + m["dd"]) / 4
    if "xy" in cols:
        m["xy"] = (m["ss"] - m["dd"]) / 4
    return m


def _entropy(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """``-sum p ln p`` per row of ``counts`` with ``p = counts / totals``.

    Only non-zero cells are visited (the paper's zero-skip, Section
    4.4.1): they are gathered once, and each row's terms are summed as
    one ``reduceat`` segment.
    """
    mask = counts > 0
    per_row = np.count_nonzero(mask, axis=1)
    p = counts.reshape(-1)[np.flatnonzero(mask)] / np.repeat(totals, per_row)
    p *= np.log(p)
    out = np.zeros(counts.shape[0])
    has = per_row > 0
    if has.any():
        out[has] = -np.add.reduceat(p, (np.cumsum(per_row) - per_row)[has])
    return out


def _sum_diff_histograms(p3: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``p_{x+y}`` (``2G - 1`` bins) and ``p_{|x-y|}`` (``G`` bins).

    Row ``i`` of every matrix lands on the anti-diagonal bins
    ``[i, i + G)`` and the signed-diagonal bins ``[G-1-i, 2G-1-i)``: ``G``
    shifted slab adds each instead of two one-hot GEMMs.
    """
    n, g, _ = p3.shape
    p_sum = np.zeros((n, 2 * g - 1))
    signed = np.zeros((n, 2 * g - 1))
    for i in range(g):
        p_sum[:, i : i + g] += p3[:, i]
        signed[:, g - 1 - i : 2 * g - 1 - i] += p3[:, i]
    p_diff = signed[:, g - 1 :]
    p_diff[:, 1:] += signed[:, g - 2 :: -1]
    return p_sum, p_diff


def _mcc_batch(p3: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Maximal correlation coefficient of every matrix in a packet.

    sqrt of the second-largest eigenvalue of the symmetric
    ``A = M M^T``, ``M = Dx^{-1/2} P Dy^{-1/2}``, which has the spectrum
    of Haralick's ``Q(i, j) = sum_k p(i, k) p(j, k) / (px(i) py(k))``;
    computed on the submatrix of levels with non-zero marginals (0 with
    fewer than two).  Matrices are grouped by their number of kept
    levels ``k`` and each group goes through one stacked ``(n_k, k, k)``
    ``eigvalsh`` call.
    """
    keep = (px > 0) & (py > 0)
    kept = keep.sum(axis=1)
    order = np.argsort(~keep, axis=1, kind="stable")  # kept levels first
    out = np.zeros(p3.shape[0])
    for k in np.unique(kept):
        if k < 2:
            continue
        sel = np.flatnonzero(kept == k)
        lev = order[sel, :k]
        m = p3[sel[:, None, None], lev[:, :, None], lev[:, None, :]]
        m /= np.sqrt(np.take_along_axis(px[sel], lev, 1))[:, :, None]
        m /= np.sqrt(np.take_along_axis(py[sel], lev, 1))[:, None, :]
        eig = np.linalg.eigvalsh(m @ m.transpose(0, 2, 1))  # ascending
        out[sel] = np.sqrt(np.clip(eig[:, -2], 0.0, 1.0))
    return out


def _information_numpy(
    p: np.ndarray, tot: np.ndarray, need: frozenset, levels: int
) -> Dict[str, np.ndarray]:
    """The entropies and ``mcc`` the features in ``need`` read, in numpy.

    Keys as :data:`repro.core.native.ENTROPIES` plus ``"mcc"``; only the
    ones ``need`` reads are computed.
    """
    p3 = p.reshape(-1, levels, levels)
    h: Dict[str, np.ndarray] = {}
    if need & {"entropy", "imc1", "imc2"}:
        h["hxy"] = _entropy(p, tot)
    if need & {"sum_entropy", "difference_entropy"}:
        p_sum, p_diff = _sum_diff_histograms(p3)
        h["hsum"] = _entropy(p_sum, tot)
        h["hdiff"] = _entropy(p_diff, tot)
    if need & {"imc1", "imc2", "mcc"}:
        px = p3 @ np.ones(levels)
        py = p3.sum(axis=1)
    if need & {"imc1", "imc2"}:
        h["hx"] = _entropy(px, tot)
        h["hy"] = _entropy(py, tot)
    if "mcc" in need:
        h["mcc"] = _mcc_batch(p3, px, py)
    return h


def _information_compiled(
    lib, p: np.ndarray, tot: np.ndarray, need: frozenset, levels: int
) -> Dict[str, np.ndarray]:
    """:func:`_information_numpy`'s values from one C pass per slab."""
    p3 = np.ascontiguousarray(p).reshape(-1, levels, levels)
    ent, mcc = native.information_features(lib, p3, tot, "mcc" in need)
    h = {key: ent[:, k] for k, key in enumerate(native.ENTROPIES)}
    if mcc is not None:
        h["mcc"] = mcc
    return h


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den`` where ``den > 0``, else 0 (degenerate statistics)."""
    ok = den > 0
    return np.where(ok, num / np.where(ok, den, 1.0), 0.0)


def _moment_stage(
    need: frozenset,
    levels: int,
    m: Dict[str, np.ndarray],
    sumsq: Optional[np.ndarray],
    diff: Optional[np.ndarray],
) -> Tuple[Dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """The :data:`MOMENT_FEATURES` in ``need`` from a batch's exact sums.

    ``m`` holds the float64 moment columns (``"1"``, the totals, and
    those ``_MOMENT_COLUMNS`` names for ``need``), ``sumsq`` the
    ``sum c^2`` per matrix when ``asm`` is needed and ``diff`` the
    ``(n, G)`` difference histograms when ``idm`` is.  On count matrices
    every input is an exact integer (or half or quarter of one), so the
    values depend on the counts alone, not on where the sums came from.
    Returns ``(features, empty, totals)``: the values of empty matrices
    are not yet zeroed, and ``totals`` reads 1 where ``empty``.
    """
    empty = m["1"] <= 0
    tot = np.where(empty, 1.0, m["1"])
    tot2 = tot * tot
    out: Dict[str, np.ndarray] = {}
    if "asm" in need:
        out["asm"] = sumsq / tot2
    if "contrast" in need:
        out["contrast"] = m["dd"] / tot
    # Variances as (N * S2 - S1**2) / N**2: on count matrices both
    # products are exact integers, so the subtraction cancels nothing.
    if need & {"correlation", "sum_of_squares"}:
        var_x = tot * m["xx"] - m["x"] ** 2
    if "correlation" in need:
        var_y = tot * m["yy"] - m["y"] ** 2
        out["correlation"] = _ratio(
            tot * m["xy"] - m["x"] * m["y"],
            np.sqrt(np.clip(var_x, 0, None) * np.clip(var_y, 0, None)),
        )
    if "sum_of_squares" in need:
        # Variance about the mean of the x-marginal (Haralick f4).
        out["sum_of_squares"] = var_x / tot2
    if "idm" in need:
        # sum_k D[k] / (1 + k^2) as a running sum in increasing k: the
        # weights are not dyadic, so the order is fixed here, not left
        # to a reduction whose order could follow the batch length.
        terms = diff / (1.0 + np.arange(diff.shape[1]) ** 2.0)
        out["idm"] = np.add.accumulate(terms, axis=1)[:, -1] / tot
    if "sum_average" in need:
        out["sum_average"] = m["s"] / tot + (levels - 1)
    if "sum_variance" in need:
        out["sum_variance"] = (tot * m["ss"] - m["s"] ** 2) / tot2
    if "difference_variance" in need:
        out["difference_variance"] = (tot * m["dd"] - m["d"] ** 2) / tot2
    return out, empty, tot


def _feature_block(
    flat: np.ndarray, need: frozenset, levels: int, lib
) -> Dict[str, np.ndarray]:
    """The features in ``need`` for one ``(n, G, G)`` slab of matrices;
    the difference histograms and information features in C when
    ``lib`` is the loaded library."""
    n = flat.shape[0]
    p = flat.reshape(n, levels * levels).astype(np.float64, copy=False)
    columns = _columns(need)
    moments = p @ _moment_table(levels, columns)
    m = {c: moments[:, k] for k, c in enumerate(columns)}
    sumsq = np.einsum("bk,bk->b", p, p) if "asm" in need else None
    diff = None
    if "idm" in need:
        p3 = p.reshape(n, levels, levels)
        if lib is None:
            diff = _sum_diff_histograms(p3)[1]
        else:
            diff = native.difference_histograms(lib, np.ascontiguousarray(p3))
    out, empty, tot = _moment_stage(need, levels, m, sumsq, diff)
    if need & INFORMATION_FEATURES:
        if lib is None:
            h = _information_numpy(p, tot, need, levels)
        else:
            h = _information_compiled(lib, p, tot, need, levels)
        for name, key in (
            ("entropy", "hxy"), ("sum_entropy", "hsum"),
            ("difference_entropy", "hdiff"), ("mcc", "mcc"),
        ):
            if name in need:
                out[name] = h[key]
    if need & {"imc1", "imc2"}:
        # HXY1 = -sum p ln(px py) and HXY2 = -sum px py ln(px py) both
        # collapse to HX + HY, so no (B, G, G) outer product is formed.
        hxy, hx, hy = h["hxy"], h["hx"], h["hy"]
        if "imc1" in need:
            out["imc1"] = _ratio(hxy - hx - hy, np.maximum(hx, hy))
        if "imc2" in need:
            out["imc2"] = np.sqrt(
                np.clip(1.0 - np.exp(-2.0 * (hx + hy - hxy)), 0.0, 1.0)
            )
    return {name: np.where(empty, 0.0, vals) for name, vals in out.items()}


def haralick_features(
    matrices: np.ndarray,
    features: Optional[Sequence[str]] = None,
) -> Dict[str, np.ndarray]:
    """Compute Haralick features of a batch of co-occurrence matrices.

    Parameters
    ----------
    matrices:
        Count (or probability) matrices of shape ``(..., G, G)``.
    features:
        Feature names to compute; defaults to all fourteen.  Computing a
        subset skips unrelated work (e.g. the eigenvalue solve behind
        ``mcc``).

    Returns
    -------
    dict mapping feature name -> array of shape ``matrices.shape[:-2]``.

    Each slab of at most ``FEATURE_BLOCK_BYTES`` is converted to float
    once.  The linear and quadratic statistics (f2-f4, f6, f7, f10) come
    from one ``(n, G*G) @ (G*G, K)`` product with a cached moment table
    holding only the columns the requested features need, ``asm`` from
    one ``einsum`` and ``idm`` from the difference histograms ``D[k]``
    (one compiled pass per slab, numpy without the library), all turned
    into features by the float stage :func:`moment_features` uses.
    The information features
    (:data:`INFORMATION_FEATURES`) come from one compiled pass per slab
    when :func:`repro.core.native.load` has the library: per matrix it
    builds ``p_x``, ``p_y``, ``p_{x+y}`` and ``p_{|x-y|}``, takes the
    five entropies over non-zero cells and, for ``mcc``, the
    second-largest eigenvalue of the symmetric ``M M^T`` by Householder
    tridiagonalisation and Sturm bisection.  Without it numpy computes
    the same quantities, ``mcc`` by one stacked ``eigvalsh`` call per
    distinct count of occupied levels.  The paper's four never reach
    that seam.  A matrix's values do not depend on which other matrices
    share its batch, so any packetization of a scan yields the same
    volumes.
    """
    wanted = tuple(features) if features is not None else HARALICK_FEATURES
    for name in wanted:
        feature_index(name)  # validates

    matrices = np.asarray(matrices)
    if matrices.ndim < 2 or matrices.shape[-1] != matrices.shape[-2]:
        raise ValueError(f"expected (..., G, G) matrices, got {matrices.shape}")
    levels = matrices.shape[-1]
    lead = matrices.shape[:-2]
    flat = matrices.reshape(-1, levels, levels)
    nmat = flat.shape[0]

    need = frozenset(wanted)
    lib = native.load() if need & (INFORMATION_FEATURES | {"idm"}) else None
    # The compiled pass holds only the float slab.  The numpy entropies
    # gather the non-zero cells beside it, and numpy mcc the kept
    # submatrices, their product and the eigvalsh workspace.
    if lib is not None:
        slabs = 1
    else:
        slabs = 6 if "mcc" in need else 2
    step = max(1, FEATURE_BLOCK_BYTES // (levels * levels * 8 * slabs))
    out = {name: np.empty(nmat) for name in wanted}
    for lo in range(0, nmat, step):
        vals = _feature_block(flat[lo : lo + step], need, levels, lib)
        for name in wanted:
            out[name][lo : lo + step] = vals[name]
    return {name: out[name].reshape(lead) for name in wanted}


def moment_features(
    sums: np.ndarray, features: Sequence[str]
) -> Dict[str, np.ndarray]:
    """:data:`MOMENT_FEATURES` of a batch from its per-window sums.

    ``sums`` is ``(n, 3G + 1)`` integers, one row per symmetric count
    matrix: ``{N, sum c^2, D[0:G], Hs[0:2G-1]}`` as
    :func:`repro.core.backends.moment_scan` yields them.  The moments
    are integer dot products with ``Hs`` and ``D``, and every feature
    goes through the float stage :func:`haralick_features` uses, so the
    values are byte-equal to ``haralick_features`` of the matrices.
    """
    wanted = tuple(features)
    for name in wanted:
        if name not in MOMENT_FEATURES:
            feature_index(name)  # unknown names raise KeyError
            raise ValueError(f"{name!r} needs the matrix, not its sums")
    sums = np.asarray(sums)
    if sums.ndim != 2 or sums.shape[1] % 3 != 1 or sums.shape[1] < 4:
        raise ValueError(f"expected (n, 3G + 1) sums, got {sums.shape}")
    need = frozenset(wanted)
    g = (sums.shape[1] - 1) // 3
    sumsq = sums[:, 1].astype(np.float64) if "asm" in need else None
    diff = sums[:, 2 : 2 + g].astype(np.float64) if "idm" in need else None
    out, empty, _tot = _moment_stage(
        need, g, _sum_moments(sums, _columns(need)), sumsq, diff
    )
    return {name: np.where(empty, 0.0, out[name]) for name in wanted}


def haralick_feature_vector(
    matrices: np.ndarray, features: Optional[Sequence[str]] = None
) -> np.ndarray:
    """Features stacked as an array of shape ``(..., n_features)``.

    Column order follows the ``features`` argument (default: all fourteen
    in ``HARALICK_FEATURES`` order).
    """
    wanted = tuple(features) if features is not None else HARALICK_FEATURES
    vals = haralick_features(matrices, wanted)
    return np.stack([vals[name] for name in wanted], axis=-1)
