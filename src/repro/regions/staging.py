"""Staged chunk reads: serve overlap from the store, read only the rest.

:func:`read_chunk_staged` is the sequential runtime's replacement for
``DiskDataset4D.read_chunk``.  Adjacent IIC→TEXTURE chunks overlap by
``ROI - 1`` voxels per dimension (paper Eqs. 1–2); a plain read fetches
those ghost voxels from disk again for every chunk.  The staged read
first resolves the target extent against the region store, copies every
overlapping staged region into the output buffer, and then reads only
the still-uncovered part of each (z, t) plane — a per-plane bounding box
of the uncovered cells, via ``read_slice_region``.  The assembled chunk
is staged back so the *next* chunk's ghost region finds it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .hierarchy import Eviction
from .store import RegionStore
from .template import RegionExtent, RegionTemplate

__all__ = ["StagedRead", "chunk_extent", "read_chunk_staged", "CHUNK_TEMPLATE"]

#: Template name under which assembled IIC→TEXTURE chunks are staged.
CHUNK_TEMPLATE = "iic2tex"


def chunk_extent(chunk) -> RegionExtent:
    """The 4-D input extent of a :class:`~repro.chunks.ChunkSpec`."""
    return RegionExtent(tuple(chunk.lo), tuple(chunk.hi))


@dataclass
class StagedRead:
    """Accounting for one staged chunk read."""

    extent: RegionExtent
    hits: int = 0
    hit_voxels: int = 0
    hit_bytes_by_tier: Dict[str, int] = field(default_factory=dict)
    read_bytes: int = 0
    planes_read: int = 0
    planes_skipped: int = 0
    staged_tier: Optional[str] = None
    #: Regions the resolve's promotions and the final stage displaced.
    evictions: List[Eviction] = field(default_factory=list)

    @property
    def hit_fraction(self) -> float:
        """Fraction of the chunk's voxels served from the store."""
        return self.hit_voxels / max(1, self.extent.num_voxels)


def _uncovered_bbox(mask2d: np.ndarray) -> Optional[Tuple[int, int, int, int]]:
    """Bounding box (x0, x1, y0, y1) of the ``False`` cells, or ``None``."""
    uncovered = ~mask2d
    xs = np.flatnonzero(uncovered.any(axis=1))
    if xs.size == 0:
        return None
    ys = np.flatnonzero(uncovered.any(axis=0))
    return int(xs[0]), int(xs[-1]) + 1, int(ys[0]), int(ys[-1]) + 1


def read_chunk_staged(
    dataset,
    chunk,
    store: RegionStore,
    template: str = CHUNK_TEMPLATE,
) -> Tuple[np.ndarray, StagedRead]:
    """Read one chunk through the region store.

    Returns ``(data, report)`` where ``data`` is bit-identical to
    ``dataset.read_chunk(...)`` over the same extent: staged regions are
    snapshots of the same dataset bytes, and any cell both staged and
    re-read gets the same value either way.
    """
    extent = chunk_extent(chunk)
    dtype = np.dtype({1: np.uint8, 2: np.uint16, 4: np.uint32}[dataset.bytes_per_pixel])
    store.register(RegionTemplate(name=template, ndim=4, dtype=str(dtype)))
    report = StagedRead(extent=extent)

    buf = np.zeros(extent.shape, dtype=dtype)
    covered = np.zeros(extent.shape, dtype=bool)
    for hit in store.resolve(template, extent):
        sel = hit.overlap.slices_in(extent)
        buf[sel] = hit.overlap_data
        covered[sel] = True
        report.hits += 1
        report.hit_voxels += hit.overlap.num_voxels
        report.evictions.extend(hit.evictions)
        report.hit_bytes_by_tier[hit.tier] = (
            report.hit_bytes_by_tier.get(hit.tier, 0)
            + hit.overlap.num_voxels * dtype.itemsize
        )

    (x0, x1), (y0, y1), (z0, z1), (t0, t1) = (
        (extent.lo[d], extent.hi[d]) for d in range(4)
    )
    before = dataset.stats.bytes_read
    for tt in range(t0, t1):
        for zz in range(z0, z1):
            mask2d = covered[:, :, zz - z0, tt - t0]
            bbox = _uncovered_bbox(mask2d)
            if bbox is None:
                report.planes_skipped += 1
                continue
            bx0, bx1, by0, by1 = bbox
            buf[bx0:bx1, by0:by1, zz - z0, tt - t0] = dataset.read_slice_region(
                tt, zz, x0 + bx0, x0 + bx1, y0 + by0, y0 + by1
            )
            report.planes_read += 1
    report.read_bytes = dataset.stats.bytes_read - before

    stage = store.stage(template, extent, buf, copy=True)
    report.staged_tier = stage.tier
    report.evictions.extend(stage.evictions)
    return buf, report
