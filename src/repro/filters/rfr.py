"""RFR — RAWFileReader (paper Section 4.3.1).

Reads raw image data local to one storage node and streams it to the
input-stitch (IIC) filters.  One RFR copy runs per storage node; copy
``k`` owns node ``k``'s slice files.

RFR-to-IIC chunks are whole slices: each slice is read in one piece (no
intra-slice seeks — Section 5.1) and sent *explicitly* to every IIC copy
that assembles a texture chunk containing it.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from ..chunks.chunking import ChunkSpec
from ..datacutter.filter import Filter, FilterContext
from ..storage.dataset import DiskDataset4D
from .messages import RFR_TO_IIC, SlicePortion, iic_copy_for_chunk

__all__ = ["RawFileReader"]


class RawFileReader(Filter):
    """Reads this storage node's slices and routes portions to IIC copies."""

    name = "RFR"

    def __init__(
        self,
        dataset_root: str,
        chunks: Sequence[ChunkSpec],
        num_iic_copies: int,
        node: Optional[int] = None,
    ):
        self.dataset_root = dataset_root
        self.node = node  # None: copy k serves storage node k
        self.chunks = list(chunks)
        self.num_iic_copies = num_iic_copies
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

    def _destinations(self, t: int, z: int) -> List[int]:
        """IIC copies needing slice ``(t, z)``, deduplicated."""
        dests = []
        for li, chunk in enumerate(self.chunks):
            if not (chunk.lo[3] <= t < chunk.hi[3] and chunk.lo[2] <= z < chunk.hi[2]):
                continue
            dest = iic_copy_for_chunk(li, self.num_iic_copies)
            if dest not in dests:
                dests.append(dest)
        return dests

    def generate(self, ctx: FilterContext) -> None:
        ds = self._dataset
        assert ds is not None, "initialize() not called"
        nx, ny = ds.slice_shape
        for t, z in ds.slices_on_node(self.node):
            dests = self._destinations(t, z)
            if not dests:
                continue  # no chunk needs this slice
            t0 = time.perf_counter() if ctx.tracing else 0.0
            data = ds.read_slice(t, z)
            if ctx.tracing:
                ctx.event(
                    "chunk.read",
                    dur=time.perf_counter() - t0,
                    t=t,
                    z=z,
                    bytes=int(data.nbytes),
                )
            portion = SlicePortion(t=t, z=z, x0=0, x1=nx, y0=0, y1=ny, data=data)
            for dest in dests:
                ctx.send(
                    RFR_TO_IIC,
                    portion,
                    size_bytes=portion.nbytes,
                    metadata={"kind": "slice", "t": t, "z": z},
                    dest_copy=dest,
                )
