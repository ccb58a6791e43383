"""Chunk partitioning with ROI-dependent overlap (paper Section 4.4).

Retrieving data ROI-by-ROI re-reads and re-sends every overlapped voxel
many times (Fig. 6a).  Instead the dataset is partitioned into chunks of
user-specified dimensions; adjacent chunks overlap by

    overlap_d = ROI_d - 1                         (Eqs. 1 and 2)

in every partitioned dimension ``d`` so that each ROI lies entirely
within exactly one chunk (Fig. 6b).  Each chunk *owns* the ROI origins it
is responsible for; ownership tiles the output exactly once.

Two chunk types exist (Section 4.4):

* **RFR-to-IIC** chunks are whole slices: RFR reads each slice file in
  one piece, avoiding intra-slice seeks (Section 5.1);
* **IIC-to-TEXTURE** chunks partition the full 4D domain for distribution
  to the texture-analysis filters (default 50 x 50 x 32 x 32).

A chunk's raster-scan grid (``shape - roi + 1``) is exactly the box of
ROI origins it owns (``lo == own_lo``): the stitch filters place scan
output by position without cropping.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Tuple

from ..core.roi import ROISpec

__all__ = [
    "overlap",
    "ChunkSpec",
    "partition",
    "partition_grid_shape",
]


def overlap(roi_dim: int) -> int:
    """Required overlap between adjacent chunks along one dimension.

    Paper Eqs. (1)-(2): ``overlap = ROI_len - 1`` (the paper writes the
    equivalent ``chunk_stride = chunk_len - ROI_len + 1`` relation).
    """
    if roi_dim < 1:
        raise ValueError(f"ROI dimension must be >= 1, got {roi_dim}")
    return roi_dim - 1


@dataclass(frozen=True)
class ChunkSpec:
    """One chunk of a partitioned N-D domain.

    Attributes
    ----------
    index:
        Chunk grid coordinates (one per dimension).
    lo, hi:
        Input region covered: ``[lo_d, hi_d)`` per dimension, including
        the overlap voxels shared with neighbouring chunks.
    own_lo, own_hi:
        The ROI-origin (output) positions this chunk owns:
        ``[own_lo_d, own_hi_d)`` in global output coordinates.  Ownership
        regions of all chunks tile the output exactly.  For chunks made
        by :func:`partition`, ``own_lo == lo`` and ``own_shape`` is the
        chunk's whole raster-scan grid ``shape - roi + 1``.
    """

    index: Tuple[int, ...]
    lo: Tuple[int, ...]
    hi: Tuple[int, ...]
    own_lo: Tuple[int, ...]
    own_hi: Tuple[int, ...]

    @property
    def shape(self) -> Tuple[int, ...]:
        """Input extent of the chunk."""
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    @property
    def own_shape(self) -> Tuple[int, ...]:
        """Output (owned ROI origins) extent."""
        return tuple(h - l for l, h in zip(self.own_lo, self.own_hi))

    @property
    def num_voxels(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def num_rois(self) -> int:
        n = 1
        for s in self.own_shape:
            n *= s
        return n

    def slices(self) -> Tuple[slice, ...]:
        """Slicing tuple selecting this chunk's input region."""
        return tuple(slice(l, h) for l, h in zip(self.lo, self.hi))

    def own_slices(self) -> Tuple[slice, ...]:
        """Slicing tuple selecting the owned region of the global output."""
        return tuple(slice(l, h) for l, h in zip(self.own_lo, self.own_hi))


def partition_grid_shape(
    dataset_shape: Tuple[int, ...], roi: ROISpec, chunk_shape: Tuple[int, ...]
) -> Tuple[int, ...]:
    """Number of chunks per dimension for the given chunk target size."""
    _validate(dataset_shape, roi, chunk_shape)
    out = []
    for s, r, c in zip(dataset_shape, roi.shape, chunk_shape):
        stride = c - r + 1
        npos = s - r + 1
        out.append((npos + stride - 1) // stride)
    return tuple(out)


def _validate(dataset_shape, roi: ROISpec, chunk_shape) -> None:
    if len(dataset_shape) != roi.ndim or len(chunk_shape) != roi.ndim:
        raise ValueError(
            f"dimensionality mismatch: dataset {len(dataset_shape)}-D, "
            f"ROI {roi.ndim}-D, chunk {len(chunk_shape)}-D"
        )
    for s, r, c in zip(dataset_shape, roi.shape, chunk_shape):
        if c < r:
            raise ValueError(
                f"chunk dimension {c} smaller than ROI dimension {r}: no ROI fits"
            )
        if s < r:
            raise ValueError(f"ROI {roi.shape} does not fit in dataset {dataset_shape}")


def partition(
    dataset_shape: Tuple[int, ...],
    roi: ROISpec,
    chunk_shape: Tuple[int, ...],
) -> List[ChunkSpec]:
    """Partition a dataset into overlapping chunks (paper Fig. 6b).

    Chunks are returned in C (raster) order of their grid index.  Border
    chunks are clipped to the dataset extent, so their input regions may
    be smaller than ``chunk_shape``.
    """
    grid = partition_grid_shape(dataset_shape, roi, chunk_shape)
    strides = tuple(c - r + 1 for c, r in zip(chunk_shape, roi.shape))
    out_extent = tuple(s - r + 1 for s, r in zip(dataset_shape, roi.shape))

    chunks: List[ChunkSpec] = []
    for index in itertools.product(*(range(g) for g in grid)):
        lo = tuple(i * st for i, st in zip(index, strides))
        own_lo = lo
        own_hi = tuple(
            min(l + st, oe) for l, st, oe in zip(lo, strides, out_extent)
        )
        # Input region: exactly enough to scan the owned ROIs; it never
        # passes the dataset, since own_hi <= dataset - roi + 1.
        hi = tuple(oh - 1 + r for oh, r in zip(own_hi, roi.shape))
        chunks.append(
            ChunkSpec(index=index, lo=lo, hi=hi, own_lo=own_lo, own_hi=own_hi)
        )
    return chunks
