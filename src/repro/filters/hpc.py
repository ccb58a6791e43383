"""HPC — HaralickParameterCalculator (paper Section 4.3.2).

Computes the user-selected Haralick parameters from the dense
co-occurrence matrices received from HCC filters, one vectorized batch
per packet.
"""

from __future__ import annotations

import time

from ..core.features import haralick_features
from ..datacutter.buffers import DataBuffer
from ..datacutter.filter import Filter, FilterContext
from .messages import (
    TEXTURE_TO_OUTPUT,
    FeaturePortion,
    MatrixPacket,
    TextureParams,
    trace_headers,
)

__all__ = ["HaralickParameterCalculator"]


class HaralickParameterCalculator(Filter):
    """Parameter-only texture filter (split pipeline stage 2)."""

    name = "HPC"

    def __init__(self, params: TextureParams):
        self.params = params

    def process(self, stream: str, buffer: DataBuffer, ctx: FilterContext) -> None:
        packet = buffer.payload
        if not isinstance(packet, MatrixPacket):
            raise TypeError(f"HPC expected MatrixPacket, got {type(packet).__name__}")
        p = self.params
        t0 = time.perf_counter() if ctx.tracing else 0.0
        vals = haralick_features(packet.dense, p.features)
        if ctx.tracing:
            # One span per packet: HPC never sees whole chunks.
            ctx.event(
                "chunk.features",
                dur=time.perf_counter() - t0,
                chunk=packet.chunk.index,
                start=packet.start,
            )
        portion = FeaturePortion(chunk=packet.chunk, start=packet.start, values=vals)
        ctx.send(
            TEXTURE_TO_OUTPUT,
            portion,
            size_bytes=portion.nbytes,
            metadata=trace_headers(
                packet.chunk, kind="features", count=portion.count
            ),
        )
