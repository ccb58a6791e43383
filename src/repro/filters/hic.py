"""HIC — HaralickImageConstructor, the output stitch (paper Section 4.3.3).

Uses the positional information in arriving feature portions to place
parameter values into the full 4D output dataset of each Haralick
parameter.  A chunk's scan grid is the box of ROI origins it owns, so
:meth:`OutputStitcher.place` writes each portion straight into the
volumes; HIC keeps no per-chunk buffer, only the count of positions each
open chunk still lacks and the time spent writing it.  A re-delivered
portion (at-least-once streams) finds its positions placed and writes
nothing.  Once every parameter volume is complete, the set is deposited
under ``"volumes"`` in the runtime result store, where the driver
collects it.  HIC is the pipeline's only output stage; the paper's image
series is :func:`repro.viz.write_feature_images`, called on the volumes
after the run.

HIC runs as a single copy: it holds the global output volumes.
"""

from __future__ import annotations

import time
from typing import Dict, Sequence, Tuple

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
        self.stitcher = OutputStitcher(dataset_shape, ROISpec(roi_shape), features)
        #: Open chunks: positions still missing and seconds spent writing.
        self._open: Dict[Tuple[int, ...], Tuple[int, float]] = {}

    def process(self, stream: str, buffer: DataBuffer, ctx: FilterContext) -> None:
        portion = buffer.payload
        if not isinstance(portion, FeaturePortion):
            raise TypeError(f"HIC expected FeaturePortion, got {type(portion).__name__}")
        chunk = portion.chunk
        t0 = time.perf_counter() if ctx.tracing else 0.0
        records = self.stitcher.place(chunk, portion.values, portion.start)
        if not records:
            return  # re-delivered portion (at-least-once): already placed
        nfeat = len(self.stitcher.features)
        left, write_s = self._open.pop(chunk.index, (chunk.num_rois, 0.0))
        left -= records // nfeat
        if ctx.tracing:
            write_s += time.perf_counter() - t0
        if left:
            self._open[chunk.index] = (left, write_s)
        elif ctx.tracing:
            ctx.event(
                "chunk.write",
                dur=write_s,
                chunk=chunk.index,
                records=chunk.num_rois * nfeat,
            )

    def finalize(self, ctx: FilterContext) -> None:
        # Raises while any chunk is open: its positions are unplaced.
        ctx.deposit("volumes", self.stitcher.result())
