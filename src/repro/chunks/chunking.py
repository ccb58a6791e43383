"""Chunk partitioning with ROI-dependent overlap (paper Section 4.4).

Retrieving data ROI-by-ROI re-reads and re-sends every overlapped voxel
many times (Fig. 6a).  Instead the dataset is partitioned into chunks of
user-specified dimensions; adjacent chunks overlap by

    overlap_d = ROI_d - 1                         (Eqs. 1 and 2)

in every partitioned dimension ``d`` so that each ROI lies entirely
within exactly one chunk (Fig. 6b).  Each chunk *owns* the ROI origins it
is responsible for; ownership tiles the output exactly once.

Two chunk types exist (Section 4.4):

* **RFR-to-IIC** chunks partition the in-plane (x, y) extent of slice
  files for retrieval from disk (default: one whole slice, avoiding
  intra-slice seeks — Section 5.1);
* **IIC-to-TEXTURE** chunks partition the full 4D domain for distribution
  to the texture-analysis filters (default 50 x 50 x 32 x 32).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from ..core.roi import ROISpec

__all__ = [
    "overlap",
    "ChunkSpec",
    "partition",
    "partition_grid_shape",
    "owned_flat_mask",
    "flat_to_global",
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
        regions of all chunks tile the output exactly.
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

    def local_own_slices(self, roi: ROISpec) -> Tuple[slice, ...]:
        """Owned region within this chunk's *local* raster-scan output.

        Scanning the chunk's input region with the ROI yields a local
        output of shape ``chunk_shape - roi + 1`` whose position ``q``
        corresponds to global ROI origin ``lo + q``; the owned positions
        are a prefix starting at ``own_lo - lo``.
        """
        return tuple(
            slice(ol - l, oh - l)
            for l, ol, oh in zip(self.lo, self.own_lo, self.own_hi)
        )


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
    _validate(dataset_shape, roi, chunk_shape)
    grid = partition_grid_shape(dataset_shape, roi, chunk_shape)
    strides = tuple(c - r + 1 for c, r in zip(chunk_shape, roi.shape))
    out_extent = tuple(s - r + 1 for s, r in zip(dataset_shape, roi.shape))

    chunks: List[ChunkSpec] = []
    import itertools

    for index in itertools.product(*(range(g) for g in grid)):
        lo = tuple(i * st for i, st in zip(index, strides))
        own_lo = lo
        own_hi = tuple(
            min(l + st, oe) for l, st, oe in zip(lo, strides, out_extent)
        )
        # Input region: enough to scan the owned ROIs, clipped to dataset.
        hi = tuple(
            min(oh - 1 + r, s)
            for oh, r, s in zip(own_hi, roi.shape, dataset_shape)
        )
        chunks.append(
            ChunkSpec(index=index, lo=lo, hi=hi, own_lo=own_lo, own_hi=own_hi)
        )
    return chunks


def owned_flat_mask(chunk: ChunkSpec, roi: ROISpec):
    """Boolean mask over the chunk's flattened local scan output.

    ``True`` marks positions the chunk owns; ``False`` marks overlap
    positions owned by a neighbouring chunk (which would otherwise be
    written twice by the output filters).
    """
    import numpy as np

    local_grid = tuple(s - r + 1 for s, r in zip(chunk.shape, roi.shape))
    mask = np.zeros(local_grid, dtype=bool)
    sel = tuple(
        slice(ol - l, oh - l) for l, ol, oh in zip(chunk.lo, chunk.own_lo, chunk.own_hi)
    )
    mask[sel] = True
    return mask.reshape(-1)


def flat_to_global(chunk: ChunkSpec, roi: ROISpec, flat_indices):
    """Map flat local-scan indices to global ROI-origin coordinates.

    Returns an ``(n, ndim)`` integer array; row ``k`` is the global output
    coordinate of local flat position ``flat_indices[k]``.
    """
    import numpy as np

    local_grid = tuple(s - r + 1 for s, r in zip(chunk.shape, roi.shape))
    coords = np.unravel_index(np.asarray(flat_indices, dtype=np.int64), local_grid)
    return np.stack(
        [c + l for c, l in zip(coords, chunk.lo)], axis=-1
    )
