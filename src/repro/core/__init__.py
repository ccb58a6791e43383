"""Core 4D Haralick texture analysis kernels (paper Section 3).

Submodules
----------
quantization
    Grey-level requantization (16-bit MRI -> G levels).
directions
    N-dimensional displacement vectors and half-space uniqueness.
roi
    ROI window geometry and raster-scan position grids.
cooccurrence
    Dense co-occurrence matrices: per-window reference kernel and the
    vectorized batched scan.
backends
    Pluggable GLCM scan kernels (batched / incremental / reference)
    and the dispatch registry.
native
    Builds, caches and loads the compiled pass of the incremental
    kernel (``_native.c``, ctypes); absent a C compiler the kernel runs
    its numpy passes.
workspace
    Shared cached scan workspaces (pair-shift arrays, in-place
    symmetrization).
features
    The fourteen Haralick features, vectorized over matrix batches.
raster
    Sequential raster scan (reference and production paths).
analysis
    ``haralick_transform`` — the high-level sequential API.
"""

from .analysis import HaralickConfig, haralick_transform
from .directional import anisotropy, directional_features, directional_statistics
from .masking import mask_statistics, mask_to_positions, masked_feature_samples
from .multidistance import multi_distance_transform, stack_distance_features
from .backends import (
    DEFAULT_KERNEL,
    KERNEL_INFO,
    KERNELS,
    get_kernel,
    incremental_scan,
    reference_scan,
    resolve_scan_kernel,
)
from .cooccurrence import check_levels, cooccurrence_matrix, cooccurrence_scan
from .directions import all_directions, direction_count, unique_directions
from .features import (
    HARALICK_FEATURES,
    PAPER_FEATURES,
    haralick_feature_vector,
    haralick_features,
)
from .quantization import quantize_equalized, quantize_linear
from .raster import raster_scan, raster_scan_batches, raster_scan_reference
from .roi import ROISpec, iter_roi_origins, valid_positions_shape

__all__ = [
    "HaralickConfig",
    "haralick_transform",
    "anisotropy",
    "directional_features",
    "directional_statistics",
    "mask_to_positions",
    "masked_feature_samples",
    "mask_statistics",
    "multi_distance_transform",
    "stack_distance_features",
    "DEFAULT_KERNEL",
    "KERNEL_INFO",
    "KERNELS",
    "get_kernel",
    "resolve_scan_kernel",
    "incremental_scan",
    "reference_scan",
    "check_levels",
    "cooccurrence_matrix",
    "cooccurrence_scan",
    "all_directions",
    "direction_count",
    "unique_directions",
    "HARALICK_FEATURES",
    "PAPER_FEATURES",
    "haralick_features",
    "haralick_feature_vector",
    "quantize_linear",
    "quantize_equalized",
    "raster_scan",
    "raster_scan_batches",
    "raster_scan_reference",
    "ROISpec",
    "iter_roi_origins",
    "valid_positions_shape",
]
