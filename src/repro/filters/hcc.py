"""HCC — HaralickCoMatrixCalculator (paper Section 4.3.2).

Computes only the co-occurrence matrices of the ROIs in each arriving
chunk.  Matrices are packed into output buffers and shipped to the HPC
filter whenever a fraction of the chunk (default 1/8 — Section 5.1) has
been processed, so parameter computation pipelines behind matrix
computation.

Matrices travel as the dense ``(B, G, G)`` int64 stack the scan yields
(8 KB per ROI at G = 32).  The paper's sparse triplet form, which "can
greatly reduce the data traffic leaving the HCC filter" (Section 4.4.1,
Fig. 7(b)), costs more CPU per matrix than any link of this
implementation saves; the 100 Mbit trade-off is reproduced in
:mod:`repro.sim`.
"""

from __future__ import annotations

import time

from ..core.backends import resolve_scan_kernel
from ..core.cooccurrence import check_levels
from ..datacutter.buffers import DataBuffer
from ..datacutter.filter import Filter, FilterContext
from .messages import (
    HCC_TO_HPC,
    MatrixPacket,
    TextureChunk,
    TextureParams,
    trace_headers,
)

__all__ = ["HaralickCoMatrixCalculator"]


class HaralickCoMatrixCalculator(Filter):
    """Co-occurrence-matrix-only texture filter (split pipeline stage 1)."""

    name = "HCC"

    def __init__(self, params: TextureParams):
        self.params = params
        self._fallback_reported = False  # kernel.fallback: once per copy

    def process(self, stream: str, buffer: DataBuffer, ctx: FilterContext) -> None:
        tc = buffer.payload
        if not isinstance(tc, TextureChunk):
            raise TypeError(f"HCC expected TextureChunk, got {type(tc).__name__}")
        p = self.params
        q = p.quantize(tc.data)
        check_levels(q, p.levels)  # once per chunk, not per kernel call
        # The whole quantized chunk goes to the scan kernel in one call;
        # the kernel packetizes, and a yielded batch is never overwritten.
        scan, fallback = resolve_scan_kernel(p.kernel)
        batch = p.packet_rois(tc.chunk)
        tracing = ctx.tracing
        if fallback and tracing and not self._fallback_reported:
            self._fallback_reported = True
            ctx.event("kernel.fallback", chunk=tc.chunk.index, **fallback)
        t_cooc = 0.0
        t_mark = time.perf_counter() if tracing else 0.0
        for start, mats in scan(
            q, p.roi, p.levels, distance=p.distance, batch=batch, validate=False
        ):
            packet = MatrixPacket(chunk=tc.chunk, start=start, dense=mats)
            if tracing:
                # Matrix production time, excluding downstream send.
                now = time.perf_counter()
                t_cooc += now - t_mark
            ctx.send(
                HCC_TO_HPC,
                packet,
                size_bytes=packet.nbytes,
                metadata=trace_headers(
                    tc.chunk, kind="matrices", count=packet.count
                ),
            )
            if tracing:
                t_mark = time.perf_counter()
        if tracing:
            ctx.event("chunk.cooccur", dur=t_cooc, chunk=tc.chunk.index)
