"""One run of one workload: set-up, timed repeats, checks, traced pass.

Every layer is driven from outside through its public functions.  A
timed repeat is the whole call a user makes (``run_pipeline`` or
``transform_disk_dataset``), so dataset open, graph build, process or
agent spawn, stitch and teardown are all inside it.  Repeats run one at
a time (a closed loop with one client).
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.chunks.chunking import ChunkSpec
from repro.core.analysis import HaralickConfig, haralick_transform
from repro.core.features import HARALICK_FEATURES, PAPER_FEATURES
from repro.data.synthetic import PhantomConfig, generate_phantom
from repro.data.volume import Volume4D
from repro.filters.messages import TextureParams
from repro.pipeline.builder import plan_chunks
from repro.pipeline.config import AnalysisConfig
from repro.pipeline.run import run_pipeline
from repro.pipeline.sequential import transform_disk_dataset
from repro.storage.dataset import write_dataset

import spec
from replay import SpanRecorder, layer_replay, phase_spans

Volumes = Dict[str, np.ndarray]

#: Tolerance of the output check.  The drivers are not bit-identical to
#: each other: ``haralick_features`` sums through BLAS, whose rounding
#: depends on the batch length, and the sequential driver batches 2048
#: ROIs where the filters batch an eighth of a chunk.  The differences
#: seen are below 1e-13; a wrong chunk is off by far more.
RTOL, ATOL = 1e-9, 1e-12


def config_for(w: spec.Workload) -> AnalysisConfig:
    params = TextureParams(
        roi_shape=spec.ROI_SHAPE,
        levels=spec.LEVELS,
        features=HARALICK_FEATURES if w.all_features else PAPER_FEATURES,
        intensity_range=spec.INTENSITY_RANGE,
    )
    return AnalysisConfig(
        texture=params, variant=w.variant, texture_chunk_shape=w.chunk,
        **{f"num_{name}_copies": n for name, n in w.copies.items()},
    )


def runtime_kwargs(w: spec.Workload) -> Dict[str, object]:
    """The backend arguments of ``run_pipeline`` / ``build_runtime``."""
    kwargs: Dict[str, object] = {"runtime": w.runtime}
    if w.runtime == "distributed":
        kwargs["hosts"] = ["127.0.0.1"] * spec.TEXTURE_COPIES
    return kwargs


def make_study(w: spec.Workload, seed: int, root: str) -> Volume4D:
    """Generate the workload's phantom from the seed and write it to disk."""
    volume = generate_phantom(PhantomConfig(shape=w.shape, seed=seed))
    write_dataset(volume, root, num_nodes=spec.NUM_NODES)
    return volume


@dataclass
class Repeat:
    wall: float
    cpu: float
    volumes: Optional[Volumes]
    #: ``RunResult`` of a parallel run; ``None`` for the sequential driver.
    run: Optional[object]


def _cpu_seconds() -> float:
    """User + system CPU of this process and the children it has reaped."""
    return sum(os.times()[:4])


def run_once(w: spec.Workload, root: str, cfg: AnalysisConfig) -> Repeat:
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    if w.runtime == "sequential":
        volumes, run = transform_disk_dataset(root, cfg), None
    else:
        result = run_pipeline(
            root, cfg, run_timeout=spec.RUN_TIMEOUT_S, **runtime_kwargs(w)
        )
        volumes, run = result.volumes, result.run
    return Repeat(time.perf_counter() - t0, _cpu_seconds() - cpu0, volumes, run)


def set_up(w: spec.Workload, cfg: AnalysisConfig, seed: int, workdir: str,
           times: int) -> Tuple[Volume4D, str, float]:
    """Set the study up ``times`` times; returns the last and the median time.

    One set-up is what a user pays before a warm repeat: generate the
    study, write it to a new directory and run it once.  That first run
    is also the warm-up of the timed repeats.  Generating and writing
    alone take some 10 ms, too little to time steadily, and would miss
    work moved into a first call.
    """
    samples = []
    for i in range(times):
        root = os.path.join(workdir, f"study{i}")
        t0 = time.perf_counter()
        volume = make_study(w, seed, root)
        run_once(w, root, cfg)
        samples.append(time.perf_counter() - t0)
    return volume, root, statistics.median(samples)


def oracle(volume: Volume4D, cfg: AnalysisConfig) -> Volumes:
    """Reference output: the in-memory transform of the whole volume.

    It shares the kernels with the drivers under test but none of the
    storage, chunking, stitching or middleware, so it also checks the
    sequential driver, which could otherwise only be compared to itself.
    """
    p = cfg.texture
    return haralick_transform(
        p.quantize(volume.data),
        HaralickConfig(roi_shape=p.roi_shape, levels=p.levels,
                       features=p.features, distance=p.distance,
                       kernel=p.kernel),
        quantized=True,
    )


def failed_chunks(chunks: List[ChunkSpec], got: Optional[Volumes],
                  want: Volumes) -> int:
    """How many chunks' owned output regions differ from the reference."""
    if got is None:
        return len(chunks)
    failed = 0
    for chunk in chunks:
        sel = chunk.own_slices()
        ok = set(got) == set(want) and all(
            got[name].shape == want[name].shape
            and np.allclose(got[name][sel], want[name][sel],
                            rtol=RTOL, atol=ATOL, equal_nan=True)
            for name in want
        )
        failed += not ok
    return failed


def timed_repeats(w: spec.Workload, root: str, cfg: AnalysisConfig,
                  seconds: float) -> List[Repeat]:
    """Whole runs back to back until ``seconds`` pass; ``set_up`` warmed up."""
    repeats: List[Repeat] = []
    deadline = time.perf_counter() + seconds
    while not repeats or time.perf_counter() < deadline:
        try:
            repeats.append(run_once(w, root, cfg))
        except Exception:
            # A run that raises or times out fails all of its chunks; the
            # remaining repeats still run so the failure rate is known.
            traceback.print_exc()
            repeats.append(Repeat(float("nan"), float("nan"), None, None))
    return repeats


def _children() -> Set[int]:
    """Pids whose parent is this process, zombies included."""
    me, out = os.getpid(), set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # The command name may contain spaces; fields resume
                # after its closing parenthesis.
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            out.add(int(entry))
    return out


def _shm_entries() -> Set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class LeakCheck:
    """Children and ``/dev/shm`` entries that outlive the workload."""

    def __init__(self) -> None:
        self._children = _children()
        self._shm = _shm_entries()

    def leaked(self) -> Tuple[int, int]:
        return (len(_children() - self._children),
                len(_shm_entries() - self._shm))


def _mib(ru_maxrss_kib: int) -> float:
    return ru_maxrss_kib / 1024.0


def _result(attempted: int, failed: int, leaks: Tuple[int, int],
            metrics: Dict[str, float], extra_ok: bool = True) -> Dict[str, object]:
    units = spec.units()
    return {
        "correct": failed == 0 and leaks == (0, 0) and extra_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def check(w: spec.Workload, cfg: AnalysisConfig, volume: Volume4D,
          outputs: List[Optional[Volumes]]) -> Tuple[int, int]:
    """Operations attempted and failed: one per output and chunk.

    The reference is computed here, after everything that is measured:
    its large allocations change how the C allocator serves the runs
    that follow (they got 30% faster on all14_sequential), and a user's
    fresh process never has them.
    """
    want = oracle(volume, cfg)
    chunks = plan_chunks(w.shape, cfg)
    failed = sum(failed_chunks(chunks, got, want) for got in outputs)
    return len(outputs) * len(chunks), failed


def end_to_end(w: spec.Workload, seed: int, seconds: float,
               workdir: str) -> Dict[str, object]:
    """The untraced run: every end-to-end metric of one workload."""
    leak_check = LeakCheck()
    cfg = config_for(w)
    volume, root, setup_s = set_up(w, cfg, seed, workdir, spec.SETUP_REPEATS)
    repeats = timed_repeats(w, root, cfg, seconds)
    peak_rss = _mib(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    leaks = leak_check.leaked()

    attempted, failed = check(w, cfg, volume, [r.volumes for r in repeats])
    good = [r for r in repeats if r.volumes is not None]
    print("wall_s of each repeat:", " ".join(f"{r.wall:.3f}" for r in repeats),
          file=sys.stderr)
    metrics = {}
    if good:
        rois = next(iter(good[0].volumes.values())).size
        wall = statistics.median(r.wall for r in good)
        metrics = {
            "rois_per_s": rois / wall,
            "wall_s": wall,
            "cpu_s_per_kroi": statistics.median(r.cpu for r in good) / (rois / 1e3),
            "peak_rss_mb": peak_rss,
            "setup_s": setup_s,
        }
    return _result(attempted, failed, leaks, metrics)


def traced(w: spec.Workload, seed: int, seconds: float, workdir: str,
           trace_path: str) -> Dict[str, object]:
    """The traced run: every per-layer metric of one workload.

    Untraced repeats for half of ``seconds`` give the wall to compare
    with and the counters the runtime returns; then one run through the
    phase functions (parallel workloads) and one layer replay.
    """
    leak_check = LeakCheck()
    cfg = config_for(w)
    rec = SpanRecorder(w.name)
    volume, root, _ = set_up(w, cfg, seed, workdir, 1)

    repeats = timed_repeats(w, root, cfg, seconds / 2.0)
    outputs = [r.volumes for r in repeats]
    good = [r for r in repeats if r.volumes is not None]
    if not good:
        return _result(*check(w, cfg, volume, outputs), leak_check.leaked(), {})
    walls = [r.wall for r in good]
    wall = statistics.median(walls)

    m = {name: 0.0 for name, _, _ in spec.PER_LAYER}
    m.update({
        "pipeline.wall_min_s": min(walls),
        "pipeline.wall_max_s": max(walls),
        "pipeline.samples": len(walls),
    })

    if w.runtime != "sequential":
        outputs.append(phase_spans(rec, root, cfg, runtime_kwargs(w)).volumes)
        for phase in ("prepare", "build_runtime", "execute", "teardown"):
            m[f"pipeline.{phase}_s"] = rec.total(f"pipeline.{phase}")
        m.update(_runtime_counters(good[-1], cfg))

    replayed, counters = layer_replay(rec, w, root, cfg)
    outputs.append(replayed)
    rois = counters.pop("rois")
    m.update(counters)
    for layer in ("storage.read", "chunks.assemble", "chunks.stitch",
                  "core.quantization.quantize", "core.backends.scan",
                  "core.features.features", "datacutter.net.codec.encode",
                  "datacutter.net.codec.decode"):
        m[f"{layer}_s"] = rec.total(layer)
    m["core.backends.scan_batches"] = rec.count("core.features.features")
    m["core.backends.scan_rois_per_s"] = rois / m["core.backends.scan_s"]
    m["core.features.rois_per_s"] = rois / m["core.features.features_s"]
    m["replay.total_s"] = rec.total("replay")
    m["replay.coverage"] = rec.replay_coverage()
    # The replay makes the calls of the run with the batch lengths of the
    # run, so unlike the oracle it should agree with it to the last bit.
    m["replay.bit_identical"] = statistics.mean(
        replayed[name].tobytes() == good[-1].volumes[name].tobytes()
        for name in replayed
    )
    m["datacutter.speedup_vs_replay"] = m["replay.total_s"] / wall
    # What tracing costs: the traced run of the parallel workloads, the
    # replay of the sequential one, against the untraced wall.
    traced_wall = rec.total("pipeline.run") or m["replay.total_s"]
    m["trace.overhead_frac"] = (traced_wall - wall) / wall

    m["datacutter.child_peak_rss_mb"] = _mib(
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    leaks = leak_check.leaked()
    m["datacutter.leaked_children"], m["datacutter.leaked_shm_segments"] = leaks
    rec.write_jsonl(trace_path)
    attempted, failed = check(w, cfg, volume, outputs)
    return _result(attempted, failed, leaks, m,
                   extra_ok=m["replay.coverage"] >= spec.MIN_COVERAGE)


def _runtime_counters(repeat: Repeat, cfg: AnalysisConfig) -> Dict[str, float]:
    """Counters ``RunResult`` already carries, recorded as they are."""
    run = repeat.run
    out = {
        f"filters.{name}.busy_s": run.filter_busy_time(name)
        for name in ("RFR", "IIC", "HMP", "HCC", "HPC", "HIC")
    }
    if cfg.variant == "split":
        texture_busy = out["filters.HCC.busy_s"] + out["filters.HPC.busy_s"]
        copies = cfg.num_hcc_copies + cfg.num_hpc_copies
    else:
        texture_busy = out["filters.HMP.busy_s"]
        copies = cfg.num_texture_copies
    out.update({
        "datacutter.buffers_sent": sum(run.buffers_sent.values()),
        "datacutter.wire_bytes": sum(run.wire_bytes.values()),
        "datacutter.retries": run.retries,
        "datacutter.failed_copies": len(run.failed_copies),
        "datacutter.texture_busy_frac": texture_busy / (copies * repeat.wall),
    })
    return out
