"""High-level sequential Haralick texture analysis API.

``haralick_transform`` is the single-machine, in-memory entry point: raw
intensities in, one feature volume per Haralick parameter out.  It wires
together requantization, the raster scan and the feature kernels, and is
the semantic reference for the parallel pipelines in ``repro.pipeline``
(which must produce bit-identical feature volumes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .backends import DEFAULT_KERNEL, get_kernel
from .directions import Direction
from .features import PAPER_FEATURES, feature_index
from .quantization import quantize_linear
from .raster import raster_scan
from .roi import ROISpec, valid_positions_shape

__all__ = ["HaralickConfig", "haralick_transform"]


@dataclass(frozen=True)
class HaralickConfig:
    """Parameters of one 4D Haralick texture analysis run.

    Defaults follow the paper's experimental setup (Section 5.1):
    ``5 x 5 x 5 x 3`` ROI, 32 grey levels, the four most expensive
    parameters (ASM, Correlation, Sum of Squares, IDM), distance 1 over
    all unique 4D directions.

    ``kernel`` selects the co-occurrence scan backend
    (:data:`repro.core.backends.KERNELS`): ``incremental``, the rolling
    kernel and the default, or ``reference``, the paper's Fig. 2 loop
    kept as a bit-identical oracle for tests.
    """

    roi_shape: Tuple[int, ...] = (5, 5, 5, 3)
    levels: int = 32
    features: Tuple[str, ...] = PAPER_FEATURES
    distance: int = 1
    directions: Optional[Tuple[Direction, ...]] = None
    kernel: str = DEFAULT_KERNEL

    def __post_init__(self) -> None:
        object.__setattr__(self, "roi_shape", tuple(int(s) for s in self.roi_shape))
        object.__setattr__(self, "features", tuple(self.features))
        for name in self.features:
            feature_index(name)
        if not self.features:
            raise ValueError("at least one Haralick feature must be selected")
        ROISpec(self.roi_shape)  # validates
        if self.distance < 1:
            raise ValueError(f"distance must be >= 1, got {self.distance}")
        get_kernel(self.kernel)  # validates

    @property
    def roi(self) -> ROISpec:
        return ROISpec(self.roi_shape)

    def output_shape(self, dataset_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Shape of each output feature volume for a given input shape."""
        return valid_positions_shape(dataset_shape, self.roi)


def haralick_transform(
    data: np.ndarray,
    config: Optional[HaralickConfig] = None,
    quantized: bool = False,
    batch: int = 2048,
) -> Dict[str, np.ndarray]:
    """Sequential 4D Haralick texture analysis of an in-memory volume.

    Parameters
    ----------
    data:
        Raw image volume.  Any dimensionality matching
        ``config.roi_shape`` (the paper's case is 4D: x, y, z, t).
    config:
        Analysis parameters; defaults to the paper's setup.
    quantized:
        When True, ``data`` is already integer grey levels in
        ``[0, config.levels)`` and is used as-is; otherwise it is
        linearly requantized first.
    batch:
        ROI positions per vectorized batch (working-set bound).

    Returns
    -------
    dict of feature name -> volume of shape ``config.output_shape(...)``.
    """
    config = config or HaralickConfig()
    data = np.asarray(data)
    if data.ndim != len(config.roi_shape):
        raise ValueError(
            f"data ndim {data.ndim} != ROI ndim {len(config.roi_shape)}"
        )
    if quantized:
        q = np.asarray(data, dtype=np.int32)
    else:
        q = quantize_linear(data, config.levels)
    return raster_scan(
        q,
        config.roi,
        config.levels,
        config.features,
        config.directions,
        config.distance,
        batch=batch,
        kernel=config.kernel,
    )
