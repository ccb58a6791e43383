"""RFR — RAWFileReader (paper Section 4.3.1).

Reads raw image data local to one storage node and streams it to the
input-stitch (IIC) filters.  One RFR copy runs per storage node; copy
``k`` owns node ``k``'s slice files.

Slices are read in RFR-to-IIC chunks: by default a whole slice per read
(no intra-slice seeks — Section 5.1), optionally partitioned in-plane for
very large slices.  Each portion is sent *explicitly* to every IIC copy
that assembles a texture chunk intersecting it.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

from ..chunks.chunking import ChunkSpec
from ..datacutter.filter import Filter, FilterContext
from ..storage.dataset import DiskDataset4D
from .messages import RFR_TO_IIC, SlicePortion, iic_copy_for_chunk

__all__ = ["RawFileReader", "inplane_blocks"]


def inplane_blocks(
    slice_shape: Tuple[int, int], block_shape: Optional[Tuple[int, int]]
) -> List[Tuple[int, int, int, int]]:
    """Partition a slice's (x, y) extent into read blocks.

    ``None`` means one block covering the whole slice.  Returns
    ``(x0, x1, y0, y1)`` rectangles.
    """
    nx, ny = slice_shape
    if block_shape is None:
        return [(0, nx, 0, ny)]
    bx, by = block_shape
    if bx < 1 or by < 1:
        raise ValueError(f"invalid in-plane block shape {block_shape}")
    blocks = []
    for x0 in range(0, nx, bx):
        for y0 in range(0, ny, by):
            blocks.append((x0, min(x0 + bx, nx), y0, min(y0 + by, ny)))
    return blocks


class RawFileReader(Filter):
    """Reads this storage node's slices and routes portions to IIC copies."""

    name = "RFR"

    def __init__(
        self,
        dataset_root: str,
        chunks: Sequence[ChunkSpec],
        num_iic_copies: int,
        node: Optional[int] = None,
        inplane_block: Optional[Tuple[int, int]] = None,
    ):
        self.dataset_root = dataset_root
        self.node = node  # None: copy k serves storage node k
        self.chunks = list(chunks)
        self.num_iic_copies = num_iic_copies
        self.inplane_block = inplane_block
        self._dataset: Optional[DiskDataset4D] = None

    def initialize(self, ctx: FilterContext) -> None:
        self._dataset = DiskDataset4D.open(self.dataset_root)
        if self.node is None:
            self.node = ctx.copy_index
        if self.node >= self._dataset.num_nodes:
            raise ValueError(
                f"RFR copy for node {self.node}, dataset has "
                f"{self._dataset.num_nodes} storage nodes"
            )

    def _destinations(self, t: int, z: int, rect) -> List[int]:
        """IIC copies needing this slice rectangle, deduplicated."""
        x0, x1, y0, y1 = rect
        dests = []
        for li, chunk in enumerate(self.chunks):
            if not (chunk.lo[3] <= t < chunk.hi[3] and chunk.lo[2] <= z < chunk.hi[2]):
                continue
            # In-plane intersection with the chunk's (x, y) region.
            if x0 >= chunk.hi[0] or x1 <= chunk.lo[0]:
                continue
            if y0 >= chunk.hi[1] or y1 <= chunk.lo[1]:
                continue
            dest = iic_copy_for_chunk(li, self.num_iic_copies)
            if dest not in dests:
                dests.append(dest)
        return dests

    def generate(self, ctx: FilterContext) -> None:
        ds = self._dataset
        assert ds is not None, "initialize() not called"
        blocks = inplane_blocks(ds.slice_shape, self.inplane_block)
        for t, z in ds.slices_on_node(self.node):
            for rect in blocks:
                dests = self._destinations(t, z, rect)
                if not dests:
                    continue  # no chunk needs this region
                x0, x1, y0, y1 = rect
                if ctx.tracing:
                    t0 = time.perf_counter()
                    data = ds.read_slice_region(t, z, x0, x1, y0, y1)
                    ctx.event(
                        "chunk.read",
                        dur=time.perf_counter() - t0,
                        t=t,
                        z=z,
                        bytes=int(data.nbytes),
                    )
                else:
                    data = ds.read_slice_region(t, z, x0, x1, y0, y1)
                portion = SlicePortion(t=t, z=z, x0=x0, x1=x1, y0=y0, y1=y1, data=data)
                for dest in dests:
                    ctx.send(
                        RFR_TO_IIC,
                        portion,
                        size_bytes=portion.nbytes,
                        metadata={"kind": "slice", "t": t, "z": z},
                        dest_copy=dest,
                    )
