"""HIC — HaralickImageConstructor, the output stitch (paper Section 4.3.3).

Uses the positional information in arriving feature portions to place
parameter values into the full 4D output dataset of each Haralick
parameter.  Once every parameter volume is completely assembled, the
set is deposited under ``"volumes"`` in the runtime result store, where
the driver collects it.  HIC is the pipeline's only output stage; the
paper's image series is :func:`repro.viz.write_feature_images`, called
on the volumes after the run.

HIC runs as a single copy: it holds the global output volumes.
"""

from __future__ import annotations

import time
from typing import Dict, Sequence, Tuple

import numpy as np

from ..chunks.chunking import ChunkSpec
from ..chunks.stitch import OutputStitcher
from ..core.roi import ROISpec
from ..datacutter.buffers import DataBuffer
from ..datacutter.filter import Filter, FilterContext
from .messages import FeaturePortion

__all__ = ["HaralickImageConstructor"]


class HaralickImageConstructor(Filter):
    """Stitches feature portions into complete parameter volumes."""

    name = "HIC"

    def __init__(
        self,
        dataset_shape: Tuple[int, ...],
        roi_shape: Tuple[int, ...],
        features: Sequence[str],
    ):
        self.roi = ROISpec(roi_shape)
        self.stitcher = OutputStitcher(dataset_shape, self.roi, features)
        # Per-chunk accumulation of flat feature values until full.
        self._partial: Dict[Tuple[int, ...], Dict[str, np.ndarray]] = {}
        self._filled: Dict[Tuple[int, ...], int] = {}
        self._chunks: Dict[Tuple[int, ...], ChunkSpec] = {}
        # At-least-once delivery dedup: portion positions already merged
        # per chunk, and chunks already placed into the stitcher.
        self._seen_starts: Dict[Tuple[int, ...], set] = {}
        self._placed: set = set()

    def process(self, stream: str, buffer: DataBuffer, ctx: FilterContext) -> None:
        portion = buffer.payload
        if not isinstance(portion, FeaturePortion):
            raise TypeError(f"HIC expected FeaturePortion, got {type(portion).__name__}")
        chunk = portion.chunk
        key = chunk.index
        if key in self._placed or portion.start in self._seen_starts.get(key, ()):
            return  # re-delivered portion (at-least-once): already merged
        local_grid = tuple(
            s - r + 1 for s, r in zip(chunk.shape, self.roi.shape)
        )
        npos = int(np.prod(local_grid))
        if key not in self._partial:
            self._partial[key] = {
                name: np.zeros(npos) for name in self.stitcher.features
            }
            self._filled[key] = 0
            self._chunks[key] = chunk
        store = self._partial[key]
        count = portion.count
        for name in self.stitcher.features:
            if name not in portion.values:
                raise ValueError(f"portion missing feature {name!r}")
            store[name][portion.start : portion.start + count] = portion.values[name]
        self._seen_starts.setdefault(key, set()).add(portion.start)
        self._filled[key] += count
        if self._filled[key] > npos:
            raise RuntimeError(f"chunk {key}: received more values than positions")
        if self._filled[key] == npos:
            local = {
                name: arr.reshape(local_grid) for name, arr in store.items()
            }
            t0 = time.perf_counter() if ctx.tracing else 0.0
            records = self.stitcher.place(self._chunks[key], local)
            if ctx.tracing:
                ctx.event(
                    "chunk.write",
                    dur=time.perf_counter() - t0,
                    chunk=key,
                    records=records,
                )
            self._placed.add(key)
            self._seen_starts.pop(key, None)
            del self._partial[key], self._filled[key], self._chunks[key]

    def finalize(self, ctx: FilterContext) -> None:
        if self._partial:
            raise RuntimeError(
                f"HIC: input ended with {len(self._partial)} incomplete chunks"
            )
        ctx.deposit("volumes", self.stitcher.result())
