"""Stitching: reassembling distributed pieces into complete arrays.

Two stitch points exist in the pipeline (paper Section 4.3):

* **Input stitch (IIC)** — each RFR filter reads only the slices local to
  its storage node, so the pieces of one IIC-to-TEXTURE chunk arrive from
  several RFR filters and must be assembled into the complete 4D chunk
  before texture filters can raster-scan it
  (:class:`ChunkAssembler`).
* **Output stitch (HIC)** — Haralick parameter values arrive as per-chunk
  portions with positional information and are written straight into the
  full 4D output volume of each parameter (:class:`OutputStitcher`): a
  chunk's scan grid is the box of ROI origins it owns, so a portion's
  flat positions land in that box without a staging buffer.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.roi import ROISpec, valid_positions_shape
from .chunking import ChunkSpec

__all__ = ["ChunkAssembler", "OutputStitcher"]


class ChunkAssembler:
    """Assembles IIC-to-TEXTURE chunks plane by plane (the IIC filter core).

    Planes may arrive in any order and interleaved across chunks; a chunk
    is complete when every ``(t, z)`` plane it spans has been filled.
    """

    def __init__(self, chunk: ChunkSpec):
        self.chunk = chunk
        if len(chunk.lo) != 4:
            raise ValueError("ChunkAssembler operates on 4D (x, y, z, t) chunks")
        z0, z1 = chunk.lo[2], chunk.hi[2]
        t0, t1 = chunk.lo[3], chunk.hi[3]
        self._needed: Set[Tuple[int, int]] = {
            (t, z) for t in range(t0, t1) for z in range(z0, z1)
        }
        self._have: Set[Tuple[int, int]] = set()
        self._buffer: Optional[np.ndarray] = None  # allocated by the first plane

    @property
    def is_complete(self) -> bool:
        return self._have == self._needed

    @property
    def missing(self) -> Set[Tuple[int, int]]:
        return self._needed - self._have

    def has(self, t: int, z: int) -> bool:
        """Whether plane ``(t, z)`` has been added already."""
        return (t, z) in self._have

    def add_plane(self, t: int, z: int, plane: np.ndarray) -> None:
        """Merge one complete ``(t, z)`` plane of the chunk's (x, y) extent.

        The IIC filter crops each arriving whole-slice
        :class:`SlicePortion` to the chunk's in-plane region before
        calling this.  The assembled chunk takes the planes' dtype.
        """
        if (t, z) not in self._needed:
            raise ValueError(f"plane (t={t}, z={z}) not part of chunk {self.chunk.index}")
        if (t, z) in self._have:
            raise ValueError(f"plane (t={t}, z={z}) delivered twice")
        expected = (self.chunk.shape[0], self.chunk.shape[1])
        if plane.shape != expected:
            raise ValueError(f"plane shape {plane.shape} != chunk in-plane {expected}")
        if self._buffer is None:
            self._buffer = np.zeros(self.chunk.shape, dtype=plane.dtype)
        z0, t0 = self.chunk.lo[2], self.chunk.lo[3]
        self._buffer[:, :, z - z0, t - t0] = plane
        self._have.add((t, z))

    def result(self) -> np.ndarray:
        """The assembled chunk; raises until assembly is complete."""
        if not self.is_complete:
            raise RuntimeError(
                f"chunk {self.chunk.index} incomplete: missing {sorted(self.missing)}"
            )
        return self._buffer


class OutputStitcher:
    """Writes per-chunk feature values into full output volumes.

    One output volume per Haralick parameter, each of shape
    ``dataset_shape - roi + 1`` (the HIC filter of Section 4.3.3).  The
    bitmap of placed positions is the only bookkeeping: it rejects
    overlapping writes, skips re-delivered ones and tells completeness.
    """

    def __init__(
        self,
        dataset_shape: Tuple[int, ...],
        roi: ROISpec,
        features: Sequence[str],
    ):
        self.out_shape = valid_positions_shape(dataset_shape, roi)
        self.roi = roi
        self.features = tuple(features)
        if not self.features:
            raise ValueError("at least one feature required")
        self.volumes: Dict[str, np.ndarray] = {
            name: np.zeros(self.out_shape, dtype=np.float64) for name in self.features
        }
        self._placed = np.zeros(self.out_shape, dtype=bool)

    @property
    def is_complete(self) -> bool:
        return bool(self._placed.all())

    @property
    def coverage(self) -> float:
        return float(self._placed.mean())

    def place(
        self, chunk: ChunkSpec, values: Mapping[str, np.ndarray], start: int = 0
    ) -> int:
        """Write scan positions ``[start, start + count)`` of one chunk.

        The chunk's raster-scan grid is the box it owns, so flat scan
        position ``q`` is flat position ``q`` of ``chunk.own_slices()``.
        ``values[name]`` is either a flat run of ``count`` values (one
        feature portion) or the whole scan grid, shape
        ``chunk.own_shape``.  A run whose positions are all placed already
        is a re-delivery and writes nothing; one that is partly placed
        raises ValueError.  Everything is checked before anything is
        written.  Returns the number of values written: positions times
        features.
        """
        if set(values) != set(self.features):
            raise ValueError(f"features {sorted(values)} != expected {sorted(self.features)}")
        grid = chunk.own_shape
        if tuple(s - r + 1 for s, r in zip(chunk.shape, self.roi.shape)) != grid:
            raise ValueError(f"chunk {chunk.index}: scan grid is not the box it owns")
        flat = {}
        for name in self.features:
            arr = np.asarray(values[name])
            if arr.ndim != 1 and arr.shape != grid:
                raise ValueError(
                    f"{name}: local output shape {arr.shape} != expected {grid}"
                )
            flat[name] = arr.ravel()
        stops = {start + len(arr) for arr in flat.values()}
        if start < 0 or len(stops) != 1 or max(stops) > chunk.num_rois:
            raise ValueError(
                f"chunk {chunk.index}: positions from {start} do not fit its "
                f"{chunk.num_rois}, or their count differs between features"
            )
        stop = stops.pop()
        box = chunk.own_slices()
        placed = self._placed[box].flat[start:stop]
        if placed.all():
            return 0  # re-delivered (at-least-once): already written
        if placed.any():
            raise ValueError(
                f"chunk {chunk.index}: positions [{start}, {stop}) partly placed already"
            )
        for name in self.features:
            self.volumes[name][box].flat[start:stop] = flat[name]
        self._placed[box].flat[start:stop] = True
        return (stop - start) * len(self.features)

    def result(self) -> Dict[str, np.ndarray]:
        if not self.is_complete:
            raise RuntimeError(
                f"output incomplete: {self.coverage:.1%} of positions placed"
            )
        return self.volumes
