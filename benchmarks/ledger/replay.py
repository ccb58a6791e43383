"""The traced pass: phase spans and a single-threaded layer replay.

Nothing inside ``src/`` is instrumented.  The spans are recorded here,
around public calls into each layer, and kept in memory until the run
ends.  The replay walks the chunk plan in the driver process and makes
the calls the filters make for each chunk, so it attributes the work of
one run to layers; it says nothing about waiting or overlap, which only
the end-to-end numbers and the runtime's own busy counters show.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.chunks.chunking import ChunkSpec
from repro.chunks.stitch import ChunkAssembler, OutputStitcher
from repro.core.backends import resolve_scan_kernel
from repro.core.cooccurrence import check_levels
from repro.core.features import haralick_features
from repro.datacutter.net import codec
from repro.filters.messages import (
    FeaturePortion,
    MatrixPacket,
    SlicePortion,
    TextureChunk,
)
from repro.pipeline.builder import plan_chunks
from repro.pipeline.config import AnalysisConfig
from repro.pipeline.run import build_runtime, execute_pipeline, prepare_pipeline
from repro.storage.dataset import DiskDataset4D

import spec

#: ``raster_scan``'s default batch, which the sequential driver uses.
SEQUENTIAL_BATCH = 2048

#: Spans that group other spans; every other span of the replay is a
#: call into one layer.
_GROUPS = ("replay", "replay.chunk")


class SpanRecorder:
    """In-memory spans: name, start, end, parent, workload, chunk."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, chunk: Optional[Tuple[int, ...]] = None) -> Iterator[None]:
        rec = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "chunk": list(chunk) if chunk is not None else None,
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span of this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def replay_coverage(self) -> float:
        """Share of the replay's wall spent inside a layer call."""
        layers = sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] not in _GROUPS and not s["name"].startswith("pipeline.")
        )
        return layers / self.total("replay")

    def write_jsonl(self, path: str) -> None:
        """One span per line; ``id`` is the line's index, ``parent`` an id."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s}) + "\n")


def phase_spans(rec: SpanRecorder, root: str, cfg: AnalysisConfig,
                runtime_kwargs: Dict[str, object]):
    """One run through the public phase functions, one span per phase.

    The same composition ``run_pipeline`` makes; returns its result.
    """
    with rec.span("pipeline.run"):
        with rec.span("pipeline.prepare"):
            prepared = prepare_pipeline(root, cfg)
        try:
            with rec.span("pipeline.build_runtime"):
                rt = build_runtime(prepared.graph, **runtime_kwargs)
            try:
                with rec.span("pipeline.execute"):
                    return execute_pipeline(
                        prepared, rt, run_timeout=spec.RUN_TIMEOUT_S
                    )
            finally:
                with rec.span("pipeline.teardown"):
                    rt.close()
        finally:
            prepared.close()


class _Replay:
    """State of one layer replay: its inputs, stitcher and counters."""

    def __init__(self, rec: SpanRecorder, w: spec.Workload, root: str,
                 cfg: AnalysisConfig):
        self.rec = rec
        self.params = cfg.texture
        self.split = cfg.variant == "split"
        #: Only runtimes with one process per filter copy serialise.
        self.serialise = w.runtime in ("processes", "distributed")
        self.sequential = w.runtime == "sequential"
        self.dataset = DiskDataset4D.open(root)
        self.chunks = plan_chunks(self.dataset.shape, cfg)
        self.stitcher = OutputStitcher(
            self.dataset.shape, self.params.roi, self.params.features
        )
        self.payload_bytes = 0
        self.nonzero = 0
        self.cells = 0
        self.rois = 0

    def wire(self, payload, chunk: Optional[ChunkSpec] = None):
        """Round-trip one inter-filter payload through the wire codec."""
        if not self.serialise:
            return payload
        ci = chunk.index if chunk is not None else None
        with self.rec.span("datacutter.net.codec.encode", ci):
            data = codec.dumps(payload)
        self.payload_bytes += len(data)
        with self.rec.span("datacutter.net.codec.decode", ci):
            return codec.loads(data)

    def run(self) -> Dict[str, np.ndarray]:
        with self.rec.span("replay"):
            if self.sequential:
                for chunk in self.chunks:
                    with self.rec.span("replay.chunk", chunk.index):
                        with self.rec.span("storage.read", chunk.index):
                            data = self.dataset.read_chunk(
                                *((chunk.lo[d], chunk.hi[d]) for d in range(4))
                            )
                        self.texture(chunk, data, SEQUENTIAL_BATCH)
            else:
                assemblers = self.read_and_assemble()
                for chunk in self.chunks:
                    with self.rec.span("replay.chunk", chunk.index):
                        with self.rec.span("chunks.assemble", chunk.index):
                            data = assemblers.pop(chunk.index).result()
                        tc = self.wire(TextureChunk(chunk=chunk, data=data), chunk)
                        self.texture(
                            chunk, tc.data, self.params.packet_rois(chunk)
                        )
            return self.stitcher.result()

    def read_and_assemble(self) -> Dict[Tuple[int, ...], ChunkAssembler]:
        """RFR and IIC: whole-slice reads cropped into every chunk."""
        ds = self.dataset
        nx, ny = ds.slice_shape
        assemblers = {c.index: ChunkAssembler(c) for c in self.chunks}
        for node in range(ds.num_nodes):
            for t, z in ds.slices_on_node(node):
                with self.rec.span("storage.read"):
                    img = ds.read_slice_region(t, z, 0, nx, 0, ny)
                portion = self.wire(
                    SlicePortion(t=t, z=z, x0=0, x1=nx, y0=0, y1=ny, data=img)
                )
                for c in self.chunks:
                    if c.lo[3] <= t < c.hi[3] and c.lo[2] <= z < c.hi[2]:
                        with self.rec.span("chunks.assemble", c.index):
                            assemblers[c.index].add_plane(
                                t, z,
                                portion.data[c.lo[0]:c.hi[0], c.lo[1]:c.hi[1]],
                            )
        return assemblers

    def texture(self, chunk: ChunkSpec, data: np.ndarray, batch: int) -> None:
        """HMP, or HCC then HPC, then HIC, for one assembled chunk."""
        p, rec, ci = self.params, self.rec, chunk.index
        with rec.span("core.quantization.quantize", ci):
            q = p.quantize(data)
            check_levels(q, p.levels)
        grid = tuple(s - r + 1 for s, r in zip(chunk.shape, p.roi_shape))
        local = {name: np.empty(int(np.prod(grid))) for name in p.features}
        scan, _ = resolve_scan_kernel(p.kernel)
        batches = scan(q, p.roi, p.levels, distance=p.distance, batch=batch,
                       validate=False)
        while True:
            with rec.span("core.backends.scan", ci):
                item = next(batches, None)
            if item is None:
                break
            start, mats = item
            if start == 0:
                # A sample (every 8th matrix of each chunk's first packet):
                # counting them all would be untraced harness time.
                sample = mats[::8]
                self.nonzero += int(np.count_nonzero(sample))
                self.cells += int(sample.size)
            if self.split:
                mats = self.wire(
                    MatrixPacket(chunk=chunk, start=start, dense=mats), chunk
                ).dense
            with rec.span("core.features.features", ci):
                vals = haralick_features(mats, p.features)
            vals = self.wire(
                FeaturePortion(chunk=chunk, start=start, values=vals), chunk
            ).values
            for name in p.features:
                local[name][start:start + len(vals[name])] = vals[name]
        self.rois += chunk.num_rois
        with rec.span("chunks.stitch", ci):
            self.stitcher.place(
                chunk, {name: arr.reshape(grid) for name, arr in local.items()}
            )


def layer_replay(rec: SpanRecorder, w: spec.Workload, root: str,
                 cfg: AnalysisConfig) -> Tuple[Dict[str, np.ndarray], Dict[str, float]]:
    """Replay one run layer by layer; returns its volumes and counters."""
    r = _Replay(rec, w, root, cfg)
    volumes = r.run()
    stats = r.dataset.stats
    dataset_bytes = int(np.prod(r.dataset.shape)) * r.dataset.bytes_per_pixel
    return volumes, {
        "storage.read_bytes": stats.bytes_read,
        "storage.read_calls": stats.reads,
        "storage.read_amplification": stats.bytes_read / dataset_bytes,
        "chunks.count": len(r.chunks),
        "core.backends.nonzero_frac": r.nonzero / r.cells,
        "datacutter.net.codec.payload_bytes": r.payload_bytes,
        "rois": r.rois,
    }
