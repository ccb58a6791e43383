"""HMP — HaralickMatrixProducer (paper Section 4.3.2).

The combined texture filter: for each ROI in an arriving chunk it
computes the co-occurrence matrix *and* the selected Haralick parameters
in one place, with no inter-filter communication between the two
operations.  Output is a stream of feature portions.

``use_sparse=True`` routes the per-matrix feature computation through the
sparse representation, reproducing the paper's Fig. 7(a) configuration
where the sparse form only adds conversion overhead (there is no
communication between matrix and parameter computation to save).
"""

from __future__ import annotations

import time

from ..core.backends import resolve_scan_kernel
from ..core.cooccurrence import check_levels
from ..core.features import haralick_features
from ..core.features_sparse import batch_features_from_sparse
from ..core.sparse import batch_sparse_from_dense
from ..datacutter.buffers import DataBuffer
from ..datacutter.filter import Filter, FilterContext
from .messages import FeaturePortion, TextureChunk, TextureParams, trace_headers

__all__ = ["HaralickMatrixProducer"]


class HaralickMatrixProducer(Filter):
    """Combined co-occurrence + parameter computation filter."""

    name = "HMP"

    def __init__(
        self,
        params: TextureParams,
        out_stream: str = "tex2out",
    ):
        self.params = params
        self.out_stream = out_stream
        self._fallback_reported = False  # kernel.fallback: once per copy

    def process(self, stream: str, buffer: DataBuffer, ctx: FilterContext) -> None:
        tc = buffer.payload
        if not isinstance(tc, TextureChunk):
            raise TypeError(f"HMP expected TextureChunk, got {type(tc).__name__}")
        p = self.params
        q = p.quantize(tc.data)
        check_levels(q, p.levels)  # once per chunk, not per kernel call
        # The whole quantized chunk goes to the scan kernel in one call;
        # the kernel packetizes, and a yielded batch is never overwritten.
        scan, fallback = resolve_scan_kernel(p.kernel)
        batch = p.packet_rois(tc.chunk)
        # When tracing, split the chunk's busy time into co-occurrence
        # scan time (the generator) and parameter time, summed over
        # packets and emitted as one span each per chunk.
        tracing = ctx.tracing
        if fallback and tracing and not self._fallback_reported:
            self._fallback_reported = True
            ctx.event("kernel.fallback", chunk=tc.chunk.index, **fallback)
        t_cooc = t_feat = 0.0
        t_mark = time.perf_counter() if tracing else 0.0
        for start, mats in scan(
            q, p.roi, p.levels, distance=p.distance, batch=batch, validate=False
        ):
            if tracing:
                now = time.perf_counter()
                t_cooc += now - t_mark
                t_mark = now
            if p.sparse:
                # Sparse path inside one filter: pay the conversion, then
                # compute parameters for the whole packet in one batch.
                sparse_mats = batch_sparse_from_dense(mats)
                vals = batch_features_from_sparse(sparse_mats, p.features)
            else:
                vals = haralick_features(mats, p.features)
            if tracing:
                now = time.perf_counter()
                t_feat += now - t_mark
            portion = FeaturePortion(chunk=tc.chunk, start=start, values=vals)
            ctx.send(
                self.out_stream,
                portion,
                size_bytes=portion.nbytes,
                metadata=trace_headers(
                    tc.chunk, kind="features", count=portion.count
                ),
            )
            if tracing:
                t_mark = time.perf_counter()
        if tracing:
            ctx.event("chunk.cooccur", dur=t_cooc, chunk=tc.chunk.index)
            ctx.event("chunk.features", dur=t_feat, chunk=tc.chunk.index)
