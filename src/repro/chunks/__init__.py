"""Chunk partitioning with ROI overlap and the two stitch points (Section 4.4)."""

from .chunking import ChunkSpec, overlap, partition, partition_grid_shape
from .stitch import ChunkAssembler, OutputStitcher

__all__ = [
    "ChunkSpec",
    "overlap",
    "partition",
    "partition_grid_shape",
    "ChunkAssembler",
    "OutputStitcher",
]
