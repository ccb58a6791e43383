"""IIC — InputImageConstructor, the input stitch (paper Section 4.3.1).

Collects slice portions from the RFR filters into temporary buffers,
reorganizes them into complete 4D IIC-to-TEXTURE chunks, and forwards
each chunk to the texture-analysis filters as soon as it is fully
assembled.

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
from typing import Dict, Sequence, Tuple

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
        self._pending_planes: Dict[int, Dict[Tuple[int, int], "object"]] = {}
        self._my_chunks: Dict[int, ChunkSpec] = {}
        self._emitted = 0
        # At-least-once delivery dedup: planes already handed to the
        # assembler and chunks already emitted (re-delivered portions for
        # either are silently dropped, keeping duplicates idempotent).
        self._seen_planes: Dict[int, set] = {}
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
        portion = buffer.payload
        if not isinstance(portion, SlicePortion):
            raise TypeError(f"IIC expected SlicePortion, got {type(portion).__name__}")
        for li, chunk in self._my_chunks.items():
            if not (
                chunk.lo[3] <= portion.t < chunk.hi[3]
                and chunk.lo[2] <= portion.z < chunk.hi[2]
            ):
                continue
            if li in self._emitted_chunks:
                continue  # duplicate delivery for an already-emitted chunk
            if (portion.t, portion.z) in self._seen_planes.get(li, ()):
                continue  # this plane already reached the assembler
            # Require the portion to cover the chunk's in-plane region
            # fully (whole-slice reads always do; in-plane blocks that
            # only partially cover are accumulated per plane).
            cx0, cx1 = chunk.lo[0], chunk.hi[0]
            cy0, cy1 = chunk.lo[1], chunk.hi[1]
            if portion.x0 >= cx1 or portion.x1 <= cx0:
                continue
            if portion.y0 >= cy1 or portion.y1 <= cy0:
                continue
            asm = self._assembler(li)
            if portion.x0 <= cx0 and portion.x1 >= cx1 and portion.y0 <= cy0 and portion.y1 >= cy1:
                plane = portion.data[
                    cx0 - portion.x0 : cx1 - portion.x0,
                    cy0 - portion.y0 : cy1 - portion.y0,
                ]
                asm.add_plane(portion.t, portion.z, plane)
                self._seen_planes.setdefault(li, set()).add((portion.t, portion.z))
            else:
                self._accumulate_partial(li, chunk, portion)
            if asm.is_complete:
                self._emit(li, ctx)

    # -- partial in-plane portions ----------------------------------------

    def _accumulate_partial(
        self, li: int, chunk: ChunkSpec, portion: SlicePortion
    ) -> None:
        """Accumulate sub-plane rectangles until a full plane is covered."""
        import numpy as np

        key = (portion.t, portion.z)
        store = self._pending_planes.setdefault(li, {})
        cx0, cx1 = chunk.lo[0], chunk.hi[0]
        cy0, cy1 = chunk.lo[1], chunk.hi[1]
        if key not in store:
            store[key] = {
                "data": np.zeros((cx1 - cx0, cy1 - cy0), dtype=portion.data.dtype),
                "covered": np.zeros((cx1 - cx0, cy1 - cy0), dtype=bool),
            }
        entry = store[key]
        ix0, ix1 = max(portion.x0, cx0), min(portion.x1, cx1)
        iy0, iy1 = max(portion.y0, cy0), min(portion.y1, cy1)
        entry["data"][ix0 - cx0 : ix1 - cx0, iy0 - cy0 : iy1 - cy0] = portion.data[
            ix0 - portion.x0 : ix1 - portion.x0, iy0 - portion.y0 : iy1 - portion.y0
        ]
        entry["covered"][ix0 - cx0 : ix1 - cx0, iy0 - cy0 : iy1 - cy0] = True
        if entry["covered"].all():
            # The assembler exists by now: process() creates it before
            # routing any portion here.
            self._assemblers[li].add_plane(portion.t, portion.z, entry["data"])
            self._seen_planes.setdefault(li, set()).add(key)
            del store[key]

    def _emit(self, li: int, ctx: FilterContext) -> None:
        chunk = self._my_chunks[li]
        data = self._assemblers.pop(li).result()
        tc = TextureChunk(chunk=chunk, data=data)
        if ctx.tracing:
            t0 = self._t_first.pop(li, None)
            ctx.event(
                "chunk.stitch",
                dur=time.perf_counter() - t0 if t0 is not None else 0.0,
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
        self._emitted += 1
        self._emitted_chunks.add(li)
        self._seen_planes.pop(li, None)

    def finalize(self, ctx: FilterContext) -> None:
        unfinished = [li for li, asm in self._assemblers.items() if not asm.is_complete]
        if unfinished or any(self._pending_planes.values()):
            raise RuntimeError(
                f"IIC copy {ctx.copy_index}: input ended with incomplete "
                f"chunks {sorted(unfinished)[:8]}"
            )
