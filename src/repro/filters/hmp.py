"""HMP — HaralickMatrixProducer (paper Section 4.3.2).

The combined texture filter: for each ROI in an arriving chunk it
computes the co-occurrence matrix *and* the selected Haralick parameters
in one place, with no inter-filter communication between the two
operations.  Output is a stream of feature portions.

The matrices stay in the dense ``(B, G, G)`` form the scan yields: with
no communication between matrix and parameter computation, a sparse
form could only add conversion work (the paper's Fig. 7(a)).
"""

from __future__ import annotations

from ..core.backends import resolve_scan_kernel
from ..core.cooccurrence import check_levels
from ..core.raster import raster_scan_batches
from ..datacutter.buffers import DataBuffer
from ..datacutter.filter import Filter, FilterContext
from .messages import (
    TEXTURE_TO_OUTPUT,
    FeaturePortion,
    TextureChunk,
    TextureParams,
    trace_headers,
)

__all__ = ["HaralickMatrixProducer"]


class HaralickMatrixProducer(Filter):
    """Combined co-occurrence + parameter computation filter."""

    name = "HMP"

    def __init__(self, params: TextureParams):
        self.params = params
        self._fallback_reported = False  # kernel.fallback: once per copy

    def process(self, stream: str, buffer: DataBuffer, ctx: FilterContext) -> None:
        tc = buffer.payload
        if not isinstance(tc, TextureChunk):
            raise TypeError(f"HMP expected TextureChunk, got {type(tc).__name__}")
        p = self.params
        q = p.quantize(tc.data)
        check_levels(q, p.levels)  # once per chunk, not per kernel call
        fallback = resolve_scan_kernel(p.kernel)[1]
        if fallback and ctx.tracing and not self._fallback_reported:
            self._fallback_reported = True
            ctx.event("kernel.fallback", chunk=tc.chunk.index, **fallback)
        # The whole quantized chunk goes to the scan in one call; it
        # packetizes, and a yielded batch is never overwritten.  Scan
        # and parameter seconds are summed over packets and emitted as
        # one span each per chunk; the send is in neither.
        times = [0.0, 0.0]
        for start, vals in raster_scan_batches(
            q, p.roi, p.levels, p.features, distance=p.distance,
            batch=p.packet_rois(tc.chunk), kernel=p.kernel, validate=False,
            times=times,
        ):
            portion = FeaturePortion(chunk=tc.chunk, start=start, values=vals)
            ctx.send(
                TEXTURE_TO_OUTPUT,
                portion,
                size_bytes=portion.nbytes,
                metadata=trace_headers(
                    tc.chunk, kind="features", count=portion.count
                ),
            )
        if ctx.tracing:
            ctx.event("chunk.cooccur", dur=times[0], chunk=tc.chunk.index)
            ctx.event("chunk.features", dur=times[1], chunk=tc.chunk.index)
