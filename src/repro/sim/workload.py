"""Workload description driving the cluster simulator.

The simulator does not move real pixels — correctness of the pipeline is
established by the threaded runtime (``tests/integration``).  What it
needs is the exact *structure* of the work: how many slices live on each
storage node, how chunks partition the dataset, how many ROIs each chunk
owns, and how large each message is.  :class:`SimWorkload` derives all of
that from the same geometry code the real pipeline uses
(:mod:`repro.chunks`, :mod:`repro.storage`), so simulated runs and real
runs agree on message counts exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Tuple

from ..chunks.chunking import ChunkSpec, partition
from ..core.roi import ROISpec, valid_positions_shape
from ..pipeline.config import clip_chunk_shape
from ..storage.distribution import round_robin_node, slices_for_node

__all__ = ["SimWorkload", "paper_workload"]


@dataclass(frozen=True)
class SimWorkload:
    """Geometry of one analysis run (paper Section 5.1 defaults)."""

    dataset_shape: Tuple[int, int, int, int] = (256, 256, 32, 32)
    roi_shape: Tuple[int, ...] = (5, 5, 5, 3)
    chunk_shape: Tuple[int, ...] = (50, 50, 32, 32)
    levels: int = 32
    num_features: int = 4
    num_storage_nodes: int = 4
    bytes_per_pixel: int = 2
    packet_fraction: float = 1.0 / 8.0

    def __post_init__(self) -> None:
        if self.num_storage_nodes < 1:
            raise ValueError("need at least one storage node")
        valid_positions_shape(self.dataset_shape, ROISpec(self.roi_shape))
        if not (0 < self.packet_fraction <= 1):
            raise ValueError("packet_fraction must be in (0, 1]")

    @property
    def roi(self) -> ROISpec:
        return ROISpec(self.roi_shape)

    @cached_property
    def chunks(self) -> List[ChunkSpec]:
        shape = clip_chunk_shape(self.chunk_shape, self.dataset_shape, self.roi_shape)
        return partition(self.dataset_shape, self.roi, shape)

    @property
    def slice_bytes(self) -> int:
        nx, ny = self.dataset_shape[0], self.dataset_shape[1]
        return nx * ny * self.bytes_per_pixel

    @property
    def num_slices(self) -> int:
        return self.dataset_shape[2]

    @property
    def num_timesteps(self) -> int:
        return self.dataset_shape[3]

    @property
    def total_rois(self) -> int:
        out = 1
        for s, r in zip(self.dataset_shape, self.roi_shape):
            out *= s - r + 1
        return out

    def slices_on_node(self, node: int) -> List[Tuple[int, int]]:
        return slices_for_node(
            node, self.num_timesteps, self.num_slices, self.num_storage_nodes
        )

    def chunk_bytes(self, chunk: ChunkSpec) -> int:
        return chunk.num_voxels * self.bytes_per_pixel

    def chunk_planes(self, chunk: ChunkSpec) -> List[Tuple[int, int]]:
        """The global ``(t, z)`` planes a chunk spans."""
        return [
            (t, z)
            for t in range(chunk.lo[3], chunk.hi[3])
            for z in range(chunk.lo[2], chunk.hi[2])
        ]

    def packets_per_chunk(self, chunk: ChunkSpec) -> List[int]:
        """ROI counts of the matrix/feature packets of one chunk.

        The HCC/HMP filters flush a packet every ``packet_fraction`` of a
        chunk (paper Section 5.1: every 1/8).
        """
        import math

        # Texture filters scan the chunk's full local grid; the last
        # packet may be short.
        total = 1
        for s, r in zip(chunk.shape, self.roi_shape):
            total *= s - r + 1
        per = max(1, math.ceil(total * self.packet_fraction))
        counts = []
        remaining = total
        while remaining > 0:
            take = min(per, remaining)
            counts.append(take)
            remaining -= take
        return counts

    @cached_property
    def chunk_iic_needs(self) -> Dict[int, int]:
        """Per chunk (linear index): number of slice portions required."""
        return {li: len(self.chunk_planes(c)) for li, c in enumerate(self.chunks)}

    def rfr_slice_destinations(self, num_iic_copies: int) -> Dict[Tuple[int, int], List[int]]:
        """For each (t, z) slice: the IIC copies needing it (deduplicated)."""
        from ..filters.messages import iic_copy_for_chunk

        out: Dict[Tuple[int, int], List[int]] = {}
        for li, chunk in enumerate(self.chunks):
            dest = iic_copy_for_chunk(li, num_iic_copies)
            for key in self.chunk_planes(chunk):
                dests = out.setdefault(key, [])
                if dest not in dests:
                    dests.append(dest)
        return out

    def iic_chunks_of_copy(self, copy: int, num_iic_copies: int) -> List[int]:
        from ..filters.messages import iic_copy_for_chunk

        return [
            li
            for li in range(len(self.chunks))
            if iic_copy_for_chunk(li, num_iic_copies) == copy
        ]


def paper_workload(scale: float = 1.0, **overrides) -> SimWorkload:
    """The Section 5.1 workload, optionally scaled down for fast tests.

    ``scale`` shrinks every dataset dimension (min 8 in-plane, 4 in z/t,
    and never below the ROI's extent); chunk dimensions are clipped
    automatically.
    """
    if not (0 < scale <= 1.0):
        raise ValueError("scale must be in (0, 1]")
    roi = overrides.get("roi_shape", SimWorkload.roi_shape)
    nx, ny, nz, nt = (
        max(floor, round(full * scale), r)
        for full, floor, r in zip((256, 256, 32, 32), (8, 8, 4, 4), roi)
    )
    defaults = dict(
        dataset_shape=(nx, ny, nz, nt),
        chunk_shape=(max(8, round(50 * scale)), max(8, round(50 * scale)), nz, nt),
    )
    defaults.update(overrides)
    return SimWorkload(**defaults)
