"""repro — parallel 4D Haralick texture analysis for disk-resident datasets.

A production-quality reproduction of Woods, Clymer, Saltz, Kurc,
"A Parallel Implementation of 4-Dimensional Haralick Texture Analysis for
Disk-resident Image Datasets" (SC 2004).

Layers
------
``repro.core``
    Sequential 4D Haralick kernels: quantization, co-occurrence matrices,
    the fourteen textural features, raster scanning.
``repro.data``
    In-memory 4D volumes, the synthetic DCE-MRI phantom, raw/PGM formats.
``repro.storage``
    Disk-resident datasets: per-slice files, indices, round-robin
    declustering across storage nodes.
``repro.chunks``
    RFR-to-IIC and IIC-to-TEXTURE chunk partitioning with ROI overlap.
``repro.datacutter``
    Filter-stream middleware (DataCutter-style): filters, streams,
    transparent copies, buffer scheduling, a threaded local runtime.
``repro.filters``
    The eight application filters (RFR, IIC, HMP, HCC, HPC, USO, HIC, JIW).
``repro.sim``
    Discrete-event cluster simulator with PIII/XEON/OPTERON presets.
``repro.pipeline``
    End-to-end parallel analysis drivers and per-filter timing reports.

Quickstart
----------
>>> import numpy as np
>>> from repro import HaralickConfig, haralick_transform
>>> vol = np.random.default_rng(0).integers(0, 4096, size=(16, 16, 8, 4))
>>> out = haralick_transform(vol, HaralickConfig(roi_shape=(5, 5, 5, 3)))
>>> sorted(out)
['asm', 'correlation', 'idm', 'sum_of_squares']
"""

from .core import (
    HARALICK_FEATURES,
    PAPER_FEATURES,
    HaralickConfig,
    ROISpec,
    cooccurrence_matrix,
    haralick_features,
    haralick_transform,
    quantize_linear,
    raster_scan,
    unique_directions,
)

__version__ = "1.0.0"

__all__ = [
    "HARALICK_FEATURES",
    "PAPER_FEATURES",
    "HaralickConfig",
    "ROISpec",
    "cooccurrence_matrix",
    "haralick_features",
    "haralick_transform",
    "quantize_linear",
    "raster_scan",
    "unique_directions",
    "__version__",
]
