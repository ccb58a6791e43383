"""Sequential out-of-core analysis of a disk-resident dataset.

For users without a cluster (or threads): processes a dataset chunk by
chunk in one process, holding at most one IIC-to-TEXTURE chunk plus the
output volumes in memory.  Numerically identical to both the in-memory
``haralick_transform`` and the parallel pipelines; useful as a baseline
and for datasets that merely exceed RAM rather than patience.

Both entry points take an optional :class:`~repro.datacutter.obs.Tracer`
and emit the same chunk-lifecycle events (``chunk.read`` →
``chunk.stitch`` → ``chunk.cooccur``/``chunk.features`` →
``chunk.write``, plus ``kernel.fallback`` once when ``incremental``
runs its numpy passes) as the parallel runtimes, under the synthetic
filter name ``"SEQ"`` — so one trace schema describes every execution
mode.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..chunks.chunking import ChunkSpec
from ..chunks.stitch import OutputStitcher
from ..core.backends import resolve_scan_kernel
from ..core.raster import raster_scan
from ..datacutter.obs import Tracer
from ..storage.dataset import DiskDataset4D
from .builder import plan_chunks
from .config import AnalysisConfig

__all__ = ["transform_disk_dataset", "iter_chunk_features"]

#: Filter name stamped on sequential trace events.
SEQ_FILTER = "SEQ"


def _read_chunk(dataset: DiskDataset4D, chunk: ChunkSpec) -> np.ndarray:
    return dataset.read_chunk(
        (chunk.lo[0], chunk.hi[0]),
        (chunk.lo[1], chunk.hi[1]),
        (chunk.lo[2], chunk.hi[2]),
        (chunk.lo[3], chunk.hi[3]),
    )


def iter_chunk_features(
    dataset: DiskDataset4D,
    config: AnalysisConfig,
    tracer: Optional[Tracer] = None,
) -> Iterator[Tuple[ChunkSpec, Dict[str, np.ndarray]]]:
    """Yield ``(chunk, local feature volumes)`` one chunk at a time.

    The local volumes cover the chunk's scan grid, which is exactly the
    box of ROI origins it owns: they belong at ``chunk.own_slices()`` of
    the output.  Memory high-water mark is one chunk's input plus its
    outputs.
    """
    params = config.texture

    def emit(kind: str, chunk: ChunkSpec, dur: float = 0.0, **attrs) -> None:
        if tracer is not None:
            tracer.emit(
                kind, filter=SEQ_FILTER, copy=0, dur=dur,
                chunk=chunk.index, **attrs,
            )

    # Resolving the kernel builds or loads the compiled pass; when it
    # had to fall back, the trace says so once per run, as HMP and HCC
    # do once per copy.
    fallback = resolve_scan_kernel(params.kernel)[1]
    for chunk in plan_chunks(dataset.shape, config):
        if fallback:
            emit("kernel.fallback", chunk, **fallback)
            fallback = None
        t0 = time.perf_counter()
        data = _read_chunk(dataset, chunk)
        emit("chunk.read", chunk, time.perf_counter() - t0,
             bytes=int(data.nbytes))
        # Quantization stands in for the parallel IIC's assembly step:
        # it is the last thing that happens to the input chunk before
        # the texture scan.
        t0 = time.perf_counter()
        q = params.quantize(data)
        emit("chunk.stitch", chunk, time.perf_counter() - t0,
             bytes=int(q.nbytes))
        times = [0.0, 0.0]
        local = raster_scan(
            q, params.roi, params.levels, params.features,
            distance=params.distance, kernel=params.kernel, times=times,
        )
        emit("chunk.cooccur", chunk, times[0])
        emit("chunk.features", chunk, times[1])
        yield chunk, local


def transform_disk_dataset(
    dataset_root: str,
    config: Optional[AnalysisConfig] = None,
    tracer: Optional[Tracer] = None,
) -> Dict[str, np.ndarray]:
    """Full sequential out-of-core run; returns stitched feature volumes."""
    config = config or AnalysisConfig()
    dataset = DiskDataset4D.open(dataset_root)
    stitcher = OutputStitcher(
        dataset.shape, config.texture.roi, config.texture.features
    )
    for chunk, local in iter_chunk_features(dataset, config, tracer=tracer):
        t0 = time.perf_counter()
        records = stitcher.place(chunk, local)
        if tracer is not None:
            tracer.emit(
                "chunk.write",
                filter=SEQ_FILTER,
                copy=0,
                dur=time.perf_counter() - t0,
                chunk=chunk.index,
                records=records,
            )
    return stitcher.result()
