"""Payload types and shared parameters for the application filters.

Every stream in the Haralick pipeline carries one of the dataclasses
below.  ``TextureParams`` bundles the analysis parameters every texture
filter needs; the paper's experimental defaults (Section 5.1) are the
dataclass defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..chunks.chunking import ChunkSpec
from ..core.backends import DEFAULT_KERNEL, get_kernel
from ..core.features import PAPER_FEATURES, feature_index
from ..core.roi import ROISpec

__all__ = [
    "TextureParams",
    "SlicePortion",
    "TextureChunk",
    "MatrixPacket",
    "FeaturePortion",
    "ParameterVolume",
    "iic_copy_for_chunk",
    "trace_headers",
]


def trace_headers(chunk: Optional[ChunkSpec] = None, **extra) -> Dict[str, object]:
    """Buffer-metadata headers that let trace events follow a chunk.

    The ``"chunk"`` key is the chunk's grid index (a tuple) — the
    chunk's identity in :mod:`repro.datacutter.obs` events.  It rides in
    ``DataBuffer.metadata``, so it crosses process and socket boundaries
    with the buffer and lets every runtime stamp queue/service/scheduler
    events with the chunk they concern.
    """
    headers: Dict[str, object] = dict(extra)
    if chunk is not None:
        headers["chunk"] = tuple(chunk.index)
    return headers


@dataclass(frozen=True)
class TextureParams:
    """Analysis parameters shared by all texture filters.

    ``intensity_range`` fixes the global requantization window so that
    every chunk is quantized identically regardless of which filter copy
    processes it.  ``packet_fraction`` is the fraction of a chunk's ROIs
    per HCC output packet (the paper sends a packet whenever 1/8 of a
    chunk has been processed).  ``kernel`` selects the co-occurrence
    scan backend (:data:`repro.core.backends.KERNELS`); all backends are
    bit-identical, so it is purely a performance knob.
    """

    roi_shape: Tuple[int, ...] = (5, 5, 5, 3)
    levels: int = 32
    features: Tuple[str, ...] = PAPER_FEATURES
    distance: int = 1
    intensity_range: Tuple[float, float] = (0.0, 65535.0)
    packet_fraction: float = 1.0 / 8.0
    kernel: str = DEFAULT_KERNEL

    def __post_init__(self) -> None:
        for name in self.features:
            feature_index(name)
        if not self.features:
            raise ValueError("at least one feature required")
        if not (0 < self.packet_fraction <= 1):
            raise ValueError("packet_fraction must be in (0, 1]")
        lo, hi = self.intensity_range
        if hi <= lo:
            raise ValueError(f"invalid intensity range [{lo}, {hi}]")
        ROISpec(self.roi_shape)  # validates
        get_kernel(self.kernel)  # validates

    @property
    def roi(self) -> ROISpec:
        return ROISpec(self.roi_shape)

    def packet_rois(self, chunk: ChunkSpec) -> int:
        """ROIs per matrix/feature packet for one chunk."""
        total = chunk.num_rois
        return max(1, int(np.ceil(total * self.packet_fraction)))

    def quantize(self, data: np.ndarray) -> np.ndarray:
        from ..core.quantization import quantize_linear

        lo, hi = self.intensity_range
        return quantize_linear(data, self.levels, lo=lo, hi=hi)


@dataclass
class SlicePortion:
    """A 2D sub-rectangle of one slice file (RFR -> IIC traffic)."""

    t: int
    z: int
    x0: int
    x1: int
    y0: int
    y1: int
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.data.shape != (self.x1 - self.x0, self.y1 - self.y0):
            raise ValueError(
                f"portion data shape {self.data.shape} != declared "
                f"({self.x1 - self.x0}, {self.y1 - self.y0})"
            )

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)


@dataclass
class TextureChunk:
    """A fully assembled IIC-to-TEXTURE chunk (IIC -> HMP/HCC traffic)."""

    chunk: ChunkSpec
    data: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)


@dataclass
class MatrixPacket:
    """A batch of co-occurrence matrices (HCC -> HPC traffic).

    ``dense`` is the ``(B, G, G)`` stack of count matrices the scan
    kernel yields; ``start`` is the flat index of the first ROI position
    in the chunk's local raster-scan order.
    """

    chunk: ChunkSpec
    start: int
    dense: np.ndarray

    def __post_init__(self) -> None:
        shape = self.dense.shape
        if len(shape) != 3 or shape[1] != shape[2]:
            raise ValueError(f"expected (B, G, G) matrices, got shape {shape}")

    @property
    def count(self) -> int:
        return self.dense.shape[0]

    @property
    def nbytes(self) -> int:
        return int(self.dense.nbytes)


@dataclass
class FeaturePortion:
    """Haralick parameter values for a run of ROI positions
    (HMP/HPC -> output-filter traffic)."""

    chunk: ChunkSpec
    start: int
    values: Dict[str, np.ndarray]

    def __post_init__(self) -> None:
        lengths = {v.shape for v in self.values.values()}
        if len(lengths) > 1:
            raise ValueError(f"inconsistent value lengths: {lengths}")

    @property
    def count(self) -> int:
        return next(iter(self.values.values())).shape[0] if self.values else 0

    @property
    def nbytes(self) -> int:
        return sum(int(v.nbytes) for v in self.values.values())


def iic_copy_for_chunk(chunk_linear_index: int, num_iic_copies: int) -> int:
    """Which IIC copy assembles a given chunk.

    Pieces of the same chunk must meet at one copy (paper Section 5.2:
    this is why IIC copies are *explicit*); chunks round-robin over the
    copies so each IIC handles a similar share.
    """
    if num_iic_copies < 1:
        raise ValueError("need at least one IIC copy")
    return chunk_linear_index % num_iic_copies


@dataclass
class ParameterVolume:
    """A complete stitched 4D output volume for one Haralick parameter
    (HIC -> JIW traffic), with the min/max the JIW filter needs for
    normalization (paper Section 4.3.3)."""

    feature: str
    volume: np.ndarray
    vmin: float
    vmax: float

    @property
    def nbytes(self) -> int:
        return int(self.volume.nbytes)
