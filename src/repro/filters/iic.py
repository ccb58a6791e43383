"""IIC — InputImageConstructor, the input stitch (paper Section 4.3.1).

Collects whole-slice portions from the RFR filters, crops each to the
in-plane extent of every chunk it feeds, assembles complete 4D
IIC-to-TEXTURE chunks plane by plane, and forwards each chunk to the
texture-analysis filters as soon as it is fully assembled.  A portion
that does not cover a chunk's in-plane extent is an error.

IIC copies are *explicit*: all pieces of one chunk must meet at the same
copy (paper Section 5.2), so producers address copies by
``iic_copy_for_chunk``.  Each copy therefore only tracks the chunks
assigned to it.

The filter holds no cache of assembled chunks: RFR reads every slice
whole and once (paper Section 5.1), so there is no read a staged copy
could spare here (docs/userguide.md, "Out-of-core runs").
"""

from __future__ import annotations

import time
from typing import Dict, Sequence

from ..chunks.chunking import ChunkSpec
from ..chunks.stitch import ChunkAssembler
from ..datacutter.buffers import DataBuffer
from ..datacutter.filter import Filter, FilterContext
from .messages import (
    IIC_TO_TEXTURE,
    SlicePortion,
    TextureChunk,
    iic_copy_for_chunk,
    trace_headers,
)

__all__ = ["InputImageConstructor"]


class InputImageConstructor(Filter):
    """Stitches slice portions into texture chunks."""

    name = "IIC"

    def __init__(self, chunks: Sequence[ChunkSpec]):
        self.all_chunks = list(chunks)
        self._assemblers: Dict[int, ChunkAssembler] = {}
        self._my_chunks: Dict[int, ChunkSpec] = {}
        # At-least-once delivery dedup: a re-delivered plane is one the
        # chunk's assembler has already, or one for an emitted chunk.
        self._emitted_chunks: set = set()
        #: First-portion arrival time per chunk (assembly latency for the
        #: ``chunk.stitch`` trace span).
        self._t_first: Dict[int, float] = {}

    def initialize(self, ctx: FilterContext) -> None:
        for li, chunk in enumerate(self.all_chunks):
            if iic_copy_for_chunk(li, ctx.num_copies) == ctx.copy_index:
                self._my_chunks[li] = chunk

    def _assembler(self, li: int) -> ChunkAssembler:
        if li not in self._assemblers:
            self._assemblers[li] = ChunkAssembler(self._my_chunks[li])
            self._t_first[li] = time.perf_counter()
        return self._assemblers[li]

    def process(self, stream: str, buffer: DataBuffer, ctx: FilterContext) -> None:
        p = buffer.payload
        if not isinstance(p, SlicePortion):
            raise TypeError(f"IIC expected SlicePortion, got {type(p).__name__}")
        for li, chunk in self._my_chunks.items():
            if not (chunk.lo[3] <= p.t < chunk.hi[3] and chunk.lo[2] <= p.z < chunk.hi[2]):
                continue
            if li in self._emitted_chunks:
                continue
            asm = self._assembler(li)
            if asm.has(p.t, p.z):
                continue
            if p.x0 > chunk.lo[0] or p.y0 > chunk.lo[1]:
                raise ValueError(
                    f"slice portion at ({p.x0}, {p.y0}) does not cover "
                    f"chunk {chunk.index} in-plane"
                )
            # A portion short of the chunk's far edge fails add_plane's
            # shape check.
            plane = p.data[
                chunk.lo[0] - p.x0 : chunk.hi[0] - p.x0,
                chunk.lo[1] - p.y0 : chunk.hi[1] - p.y0,
            ]
            asm.add_plane(p.t, p.z, plane)
            if asm.is_complete:
                self._emit(li, ctx)

    def _emit(self, li: int, ctx: FilterContext) -> None:
        chunk = self._my_chunks[li]
        data = self._assemblers.pop(li).result()
        tc = TextureChunk(chunk=chunk, data=data)
        t0 = self._t_first.pop(li)
        if ctx.tracing:
            ctx.event(
                "chunk.stitch",
                dur=time.perf_counter() - t0,
                chunk=chunk.index,
                bytes=tc.nbytes,
            )
        ctx.send(
            IIC_TO_TEXTURE,
            tc,
            size_bytes=tc.nbytes,
            metadata=trace_headers(
                chunk, kind="chunk", n_rois=chunk.num_rois
            ),
        )
        self._emitted_chunks.add(li)

    def finalize(self, ctx: FilterContext) -> None:
        unfinished = [li for li, asm in self._assemblers.items() if not asm.is_complete]
        if unfinished:
            raise RuntimeError(
                f"IIC copy {ctx.copy_index}: input ended with "
                f"{len(unfinished)} incomplete chunks"
            )
