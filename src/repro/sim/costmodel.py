"""Calibrated service costs for the simulated filters.

All compute costs are expressed in *reference seconds* — wall seconds on
a speed-1.0 (PIII-class) node — and divided by the executing node's speed
factor.  The defaults are calibrated so that the relative magnitudes
match the paper's observations:

* the co-occurrence computation (HCC) is 4-5x the parameter computation
  (HPC) per ROI (Section 5.2);
* within a single HMP filter the sparse representation costs *more* than
  the full representation (conversion overhead with no communication to
  save — Fig. 7a), while the parameter computation alone is faster from
  sparse triplets than from the full matrix;
* a full co-occurrence matrix on the wire is ``G*G`` 2-byte counts,
  whereas the sparse form is ~12 + 8*nnz bytes (~1% of the full size for
  typical MRI data — Section 4.4.1).

``measure_costs`` recalibrates the per-ROI constants by timing the real
kernels of :mod:`repro.core` on sample data, preserving the measured
matrix/parameter ratio while anchoring the absolute scale to the 2004
reference machine.  The library has one (dense) matrix representation,
so the sparse-path constants keep the paper's ratios to the dense
parameter cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

__all__ = ["CostModel", "measure_costs", "PAPER_COSTS"]


@dataclass(frozen=True)
class CostModel:
    """Per-unit service times (reference seconds) and wire-size rules."""

    #: Co-occurrence matrix computation per ROI (the HCC/HMP kernel).
    #: ~20 us on a PIII-class node for a 5x5x5x3 ROI over 40 directions
    #: in optimized C++ with the zero-skip path.
    cooc_per_roi: float = 20e-6
    #: Haralick parameters per ROI from the full (dense) matrix
    #: (HCC:HPC cost ratio ~4.4, paper Section 5.2 reports 4-5x).
    feat_full_per_roi: float = 4.5e-6
    #: Haralick parameters per ROI directly from sparse triplets.
    feat_sparse_per_roi: float = 1.8e-6
    #: Serializing a matrix into sparse wire form at HCC (the matrix is
    #: accumulated sparsely, so this is cheap).
    sparse_convert_per_roi: float = 1.5e-6
    #: Extra cost of storing and accessing the co-occurrence matrix in
    #: sparse form *within* the combined HMP filter (paper Fig. 7a: this
    #: overhead degrades HMP performance since there is no communication
    #: to save).
    sparse_overhead_per_roi: float = 6e-6
    #: IIC reorganize/copy cost per byte (strided small copies).
    stitch_per_byte: float = 1.0 / 50e6
    #: IIC fixed cost per slice-plane copied into a chunk buffer
    #: (buffer management + strided copy setup).
    stitch_per_plane: float = 1e-3
    #: Output write cost per byte at the USO filter.
    write_per_byte: float = 1.0 / 50e6
    #: Disk streaming read bandwidth at the RFR filter (bytes/s).
    disk_read_bw: float = 30e6
    #: Disk seek cost for sub-slice reads.
    disk_seek: float = 5e-3
    #: Average non-zero entries per sparse matrix (paper: 10.7).
    avg_nnz: float = 10.7
    #: Bytes per pixel of the raw dataset.
    bytes_per_pixel: int = 2
    #: Feature-portion payload bytes per ROI per feature (float32 values;
    #: positions travel as one (chunk, start) header per packet).
    feature_bytes: int = 4

    # -- compute costs (reference seconds) ---------------------------------

    def hmp_per_roi(self, sparse: bool) -> float:
        """Full HMP work per ROI: matrices + (conversion +) parameters."""
        if sparse:
            return (
                self.cooc_per_roi
                + self.sparse_overhead_per_roi
                + self.feat_sparse_per_roi
            )
        return self.cooc_per_roi + self.feat_full_per_roi

    def hcc_per_roi(self, sparse: bool) -> float:
        """HCC work per ROI (conversion happens at the producer)."""
        return self.cooc_per_roi + (self.sparse_convert_per_roi if sparse else 0.0)

    def hpc_per_roi(self, sparse: bool) -> float:
        return self.feat_sparse_per_roi if sparse else self.feat_full_per_roi

    def read_slice_time(self, nbytes: int, seeks: int = 0) -> float:
        return nbytes / self.disk_read_bw + seeks * self.disk_seek

    def stitch_time(self, nbytes: int, planes: int = 0) -> float:
        return nbytes * self.stitch_per_byte + planes * self.stitch_per_plane

    def write_time(self, nbytes: int) -> float:
        return nbytes * self.write_per_byte

    # -- wire sizes ---------------------------------------------------------

    def matrix_wire_bytes(self, n_matrices: int, levels: int, sparse: bool) -> int:
        if sparse:
            # 8 B header + 4 B per entry (2 B packed linear position for
            # G <= 256, 2 B count), the paper's triplet form.
            return int(n_matrices * (8 + 4 * self.avg_nnz))
        return n_matrices * levels * levels * 2

    def feature_wire_bytes(self, n_rois: int, n_features: int) -> int:
        return n_rois * n_features * self.feature_bytes


#: The default calibration used by the benchmark harness.
PAPER_COSTS = CostModel()


def measure_costs(
    levels: int = 32,
    roi_shape: Tuple[int, ...] = (5, 5, 5, 3),
    n_rois: int = 256,
    reference_speedup: Optional[float] = None,
    seed: int = 0,
) -> CostModel:
    """Re-derive per-ROI constants by timing the real kernels.

    Times the default scan kernel (the one the pipelines run, resolved
    and its compiled pass loaded before the clock starts) and the dense
    batch feature kernel on synthetic MRI-like data and counts the
    matrices' distinct non-zero entries (``avg_nnz``); the sparse-path
    constants keep :data:`PAPER_COSTS`' ratios to ``feat_full_per_roi``.
    Everything is then scaled by ``reference_speedup`` (this machine's
    speed relative to a PIII; default keeps the PAPER_COSTS co-occurrence
    anchor and preserves only the measured *ratios*).
    """
    from scipy.ndimage import gaussian_filter

    from ..core.backends import DEFAULT_KERNEL, resolve_scan_kernel
    from ..core.features import PAPER_FEATURES, haralick_features
    from ..core.quantization import quantize_linear
    from ..core.roi import ROISpec

    rng = np.random.default_rng(seed)
    shape = tuple(r + 7 for r in roi_shape)
    data = quantize_linear(
        gaussian_filter(rng.normal(size=shape), sigma=1.5), levels
    )
    roi = ROISpec(roi_shape)

    scan = resolve_scan_kernel(DEFAULT_KERNEL)[0]
    t0 = time.perf_counter()
    batches = list(scan(data, roi, levels, batch=n_rois))
    t_cooc = time.perf_counter() - t0
    mats = np.concatenate([m for _, m in batches])[:n_rois]
    total = mats.shape[0]

    t0 = time.perf_counter()
    haralick_features(mats, PAPER_FEATURES)
    t_full = time.perf_counter() - t0

    n_scanned = sum(m.shape[0] for _, m in batches)
    per_cooc = t_cooc / n_scanned
    if reference_speedup is None:
        # Preserve measured ratios, anchored to the PAPER_COSTS scale.
        scale = PAPER_COSTS.cooc_per_roi / per_cooc
    else:
        scale = reference_speedup
    full = t_full / total * scale
    # The paper's sparse-path terms, rescaled with the dense one.
    paper_ratio = full / PAPER_COSTS.feat_full_per_roi
    return replace(
        PAPER_COSTS,
        cooc_per_roi=per_cooc * scale,
        feat_full_per_roi=full,
        feat_sparse_per_roi=PAPER_COSTS.feat_sparse_per_roi * paper_ratio,
        sparse_convert_per_roi=PAPER_COSTS.sparse_convert_per_roi * paper_ratio,
        avg_nnz=float(np.count_nonzero(np.triu(mats), axis=(1, 2)).mean()),
    )
