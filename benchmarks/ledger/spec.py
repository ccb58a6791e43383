"""What the pipeline ledger measures: workloads, metrics and their bounds.

This module is the single table behind ``BENCHMARK.json`` (``run.py
--spec`` prints it), the result line ``run.py`` emits and the README.
It imports nothing from ``repro`` so the tables can be read without the
package on the path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

#: Every workload uses the paper's texture set-up (Section 5.1).  The
#: phantom is 12-bit, so the quantisation window is 0..4095; the package
#: default of 65535 would map every voxel to grey level 0 or 1.
ROI_SHAPE = (5, 5, 5, 3)
LEVELS = 32
INTENSITY_RANGE = (0.0, 4095.0)
#: Storage nodes of the disk-resident study (= RFR copies).
NUM_NODES = 2
#: Texture copies of the HMP workloads (and agents of the distributed
#: one); never more than the 2 cores of the box the bounds were measured on.
TEXTURE_COPIES = 2
#: How many times an untraced run sets its study up; ``setup_s`` is the
#: median.
SETUP_REPEATS = 3
#: A run that has not finished after this many seconds fails all its
#: operations.
RUN_TIMEOUT_S = 120.0
#: Seconds of timed repeats per run; ``run_seconds`` in BENCHMARK.json.
RUN_SECONDS = 14


@dataclass(frozen=True)
class Workload:
    """One named set of inputs and the public driver call that runs it."""

    name: str
    why: str
    shape: Tuple[int, int, int, int]
    chunk: Tuple[int, int, int, int]
    #: ``"sequential"`` calls ``transform_disk_dataset``; anything else is
    #: the ``runtime=`` argument of ``run_pipeline``.
    runtime: str
    variant: str = "hmp"
    all_features: bool = False

    @property
    def copies(self) -> Dict[str, int]:
        """Copy count per replicated filter, as ``num_<key>_copies``."""
        if self.runtime == "sequential":
            return {}
        if self.variant == "split":
            return {"hcc": 1, "hpc": 1}
        return {"texture": TEXTURE_COPIES}

    def smoke(self) -> "Workload":
        """The same workload on a study of two chunks (for tests)."""
        stride = self.chunk[0] - ROI_SHAPE[0] + 1
        shape = (2 * stride + ROI_SHAPE[0] - 1,) + self.chunk[1:]
        return replace(self, shape=shape)


_STUDY = (40, 40, 8, 6)
_CHUNK = (13, 13, 8, 6)

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "hmp_threads",
        "The default a new user gets: HMP variant, 4 paper features, 2 texture "
        "copies as threads. Scan and features dominate, no transport; the one "
        "workload where the GIL decides scaling.",
        _STUDY, _CHUNK, "threads",
    ),
    Workload(
        "hmp_processes",
        "Same study and config as hmp_threads on runtime=processes over pipes: "
        "isolates runtime_local from runtime_mp. Wire traffic is a few MB, so "
        "a transport change should not move it.",
        _STUDY, _CHUNK, "processes",
    ),
    Workload(
        "hmp_distributed",
        "Same work over two loopback TCP agents: guards net/runtime_dist, "
        "net/agent and net/codec; agent spawn and handshake are inside wall_s.",
        _STUDY, _CHUNK, "distributed",
    ),
    Workload(
        "split_dense_processes",
        "Split variant, 1 HCC + 1 HPC process, dense 32x32 matrices on the "
        "pipe (8 KB per ROI): the one workload where transport and "
        "serialisation carry real weight.",
        _STUDY, _CHUNK, "processes", variant="split",
    ),
    Workload(
        "all14_sequential",
        "transform_disk_dataset with all 14 features: single-threaded, no "
        "middleware, feature-dominated. A features change shows largest "
        "here; a runtime or transport change must leave it flat.",
        (26, 26, 8, 6), (10, 10, 8, 6), "sequential", all_features=True,
    ),
)


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}; "
                   f"choose from {[w.name for w in WORKLOADS]}")


#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before it counts as a
#: regression.  Failed operations are not a metric here: every result
#: carries ``attempted`` and ``failed`` and any failure fails the run.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("rois_per_s", "ROIs/s", "higher", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s_per_kroi", "s/kROI", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
)

_FILTERS = ("RFR", "IIC", "HMP", "HCC", "HPC", "HIC")

#: (name, unit, better).  Reported by the traced pass of every workload;
#: a layer that does not run on a workload reports 0.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("storage.read_s", "s", "lower"),
    ("storage.read_bytes", "bytes", "lower"),
    ("storage.read_calls", "count", "lower"),
    ("storage.read_amplification", "ratio", "lower"),
    ("chunks.count", "count", "lower"),
    ("chunks.assemble_s", "s", "lower"),
    ("chunks.stitch_s", "s", "lower"),
    ("core.quantization.quantize_s", "s", "lower"),
    ("core.backends.scan_s", "s", "lower"),
    ("core.backends.scan_rois_per_s", "ROIs/s", "higher"),
    ("core.backends.scan_batches", "count", "lower"),
    ("core.backends.nonzero_frac", "fraction", "lower"),
    ("core.features.features_s", "s", "lower"),
    ("core.features.rois_per_s", "ROIs/s", "higher"),
    ("datacutter.net.codec.encode_s", "s", "lower"),
    ("datacutter.net.codec.decode_s", "s", "lower"),
    ("datacutter.net.codec.payload_bytes", "bytes", "lower"),
) + tuple(
    (f"filters.{f}.busy_s", "s", "lower") for f in _FILTERS
) + (
    ("datacutter.buffers_sent", "count", "lower"),
    ("datacutter.wire_bytes", "bytes", "lower"),
    ("datacutter.retries", "count", "lower"),
    ("datacutter.failed_copies", "count", "lower"),
    ("datacutter.texture_busy_frac", "fraction", "higher"),
    ("datacutter.speedup_vs_replay", "ratio", "higher"),
    ("datacutter.child_peak_rss_mb", "MiB", "lower"),
    ("datacutter.leaked_children", "count", "lower"),
    ("datacutter.leaked_shm_segments", "count", "lower"),
    ("pipeline.prepare_s", "s", "lower"),
    ("pipeline.build_runtime_s", "s", "lower"),
    ("pipeline.execute_s", "s", "lower"),
    ("pipeline.teardown_s", "s", "lower"),
    ("pipeline.wall_min_s", "s", "lower"),
    ("pipeline.wall_max_s", "s", "lower"),
    ("pipeline.samples", "count", "higher"),
    ("replay.total_s", "s", "lower"),
    ("replay.coverage", "fraction", "higher"),
    ("replay.bit_identical", "fraction", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
)

#: The replay must attribute at least this share of its wall to a layer.
MIN_COVERAGE = 0.95


def units() -> Dict[str, str]:
    """Unit of every metric, end-to-end and per-layer."""
    out = {name: unit for name, unit, _, _ in END_TO_END}
    out.update({name: unit for name, unit, _ in PER_LAYER})
    return out


def benchmark_json() -> Dict[str, object]:
    """The contents of ``BENCHMARK.json`` at the repository root."""
    end_to_end: List[Dict[str, object]] = [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in END_TO_END
    ]
    per_layer = [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER]
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
