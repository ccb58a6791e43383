"""One trace schema, four execution modes.

Runs the same small analysis across the sequential driver and all three
parallel runtimes with tracing on, and checks that every backend emits
schema-valid events, that the per-chunk lifecycle counts agree, that
HIC's ``chunk.write`` records cover every output value once, and that
the metrics snapshot reproduces the legacy busy-time breakdown.
"""

import collections
import json
import sys

import numpy as np
import pytest

from repro.core.roi import valid_positions_shape
from repro.data.synthetic import PhantomConfig, generate_phantom
from repro.datacutter.net import DistRuntime
from repro.datacutter.obs import Tracer, lifecycle_counts, validate_events
from repro.datacutter.runtime_local import LocalRuntime
from repro.datacutter.runtime_mp import MPRuntime
from repro.filters.messages import TextureParams
from repro.pipeline.builder import build_graph
from repro.pipeline.config import AnalysisConfig
from repro.pipeline.report import filter_breakdown
from repro.pipeline.sequential import transform_disk_dataset
from repro.storage.dataset import DiskDataset4D, write_dataset

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="fork start method required"
)

RUNTIMES = ("threads", "processes", "distributed")

PARAMS = TextureParams(roi_shape=(3, 3, 3, 2), levels=8, features=("asm", "idm"))


@pytest.fixture(scope="module")
def dataset_root(tmp_path_factory):
    vol = generate_phantom(PhantomConfig(shape=(12, 10, 6, 4), seed=0))
    root = str(tmp_path_factory.mktemp("trace_ds") / "data")
    write_dataset(vol, root, num_nodes=2)
    return root


CONFIG = AnalysisConfig(
    texture=PARAMS,
    texture_chunk_shape=(8, 8, 6, 4),
    num_texture_copies=2,
    num_iic_copies=2,
)


def _run_traced(kind, dataset_root):
    graph = build_graph(DiskDataset4D.open(dataset_root), CONFIG)
    if kind == "threads":
        return LocalRuntime(graph, trace=True).run(timeout=60)
    if kind == "processes":
        return MPRuntime(graph, trace=True).run(timeout=60)
    return DistRuntime(
        graph, hosts=["127.0.0.1"] * 2, trace=True
    ).run(timeout=120)


def _records_written(events):
    return sum(
        ev.attrs["records"] for ev in events if ev.kind == "chunk.write"
    )


@pytest.mark.parametrize("kind", RUNTIMES)
def test_runtime_trace_is_schema_valid(kind, dataset_root):
    run = _run_traced(kind, dataset_root)
    assert run.trace is not None
    assert validate_events(run.trace.events) > 0
    kinds = collections.Counter(e.kind for e in run.trace.events)
    # every backend observes the full lifecycle plus runtime spans
    for expected in (
        "copy.start", "copy.done", "chunk.read", "chunk.stitch",
        "chunk.cooccur", "chunk.features", "chunk.write",
        "queue.wait", "service", "queue.depth", "sched.pick",
    ):
        assert kinds[expected] > 0, (kind, expected, kinds)
    # copy lifecycle brackets every hosted copy exactly once
    graph = build_graph(DiskDataset4D.open(dataset_root), CONFIG)
    n_copies = sum(spec.copies for spec in graph.filters.values())
    assert kinds["copy.start"] == n_copies
    assert kinds["copy.done"] == n_copies


def test_all_modes_agree_on_chunk_lifecycle(dataset_root):
    """Same workload, same chunks visited the same number of times."""
    per_mode = {}

    tracer = Tracer()
    transform_disk_dataset(dataset_root, CONFIG, tracer=tracer)
    per_mode["sequential"] = tracer.drain()

    for kind in RUNTIMES:
        per_mode[kind] = _run_traced(kind, dataset_root).trace.events

    # RFR reads per slice while the sequential driver reads whole
    # chunks, so the conformance surface is the per-chunk stitch,
    # cooccur, features and write counts, which every mode must agree
    # on exactly.
    reference = None
    for mode, events in per_mode.items():
        counts = lifecycle_counts(events)
        subset = {
            k: counts[k] for k in ("chunk.stitch", "chunk.cooccur",
                                   "chunk.features", "chunk.write")
        }
        if reference is None:
            reference = subset
        else:
            assert subset == reference, mode

    # HIC (and the sequential stitcher) writes every output value once:
    # the records of the chunk.write events sum to positions x features.
    grid = valid_positions_shape((12, 10, 6, 4), PARAMS.roi)
    want = int(np.prod(grid)) * len(PARAMS.features)
    for mode, events in per_mode.items():
        assert _records_written(events) == want, mode


@pytest.mark.parametrize("kind", RUNTIMES)
def test_chrome_trace_has_per_chunk_pipeline_spans(kind, dataset_root,
                                                   tmp_path):
    """The exported Chrome trace shows RFR→IIC→HMP→HIC per chunk."""
    run = _run_traced(kind, dataset_root)
    path = str(tmp_path / "trace.json")
    run.trace.to_chrome(path)
    doc = json.load(open(path))
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    meta = [e for e in doc["traceEvents"] if e.get("ph") == "M"]
    procs = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
    assert {"RFR", "IIC", "HMP", "HIC"} <= procs
    chunk_tag = "0/0/0/0"
    stages = {s["name"].split(" ")[0] for s in spans if chunk_tag in s["name"]}
    assert {"chunk.stitch", "chunk.cooccur", "chunk.features",
            "chunk.write"} <= stages
    assert all(s["dur"] > 0 and s["ts"] >= 0 for s in spans)


@pytest.mark.parametrize("kind", RUNTIMES)
def test_breakdown_from_metrics_matches_busy_time(kind, dataset_root):
    """filter_breakdown (metrics-based) stays within 1% of busy_time."""
    run = _run_traced(kind, dataset_root)
    stats = filter_breakdown(run)
    legacy = {}
    for (name, _copy), busy in run.busy_time.items():
        legacy.setdefault(name, []).append(busy)
    assert set(stats) == set(legacy)
    for name, times in legacy.items():
        s = stats[name]
        assert s["copies"] == len(times)
        for key, want in (
            ("total", sum(times)),
            ("mean", sum(times) / len(times)),
            ("max", max(times)),
        ):
            assert abs(s[key] - want) <= 0.01 * max(abs(want), 1e-12), (
                kind, name, key, s[key], want,
            )


@pytest.mark.parametrize("kind", RUNTIMES)
def test_disabled_tracing_still_snapshots_metrics(kind, dataset_root):
    graph = build_graph(DiskDataset4D.open(dataset_root), CONFIG)
    if kind == "threads":
        run = LocalRuntime(graph).run(timeout=60)
    elif kind == "processes":
        run = MPRuntime(graph).run(timeout=60)
    else:
        run = DistRuntime(graph, hosts=["127.0.0.1"] * 2).run(timeout=120)
    assert run.trace is None
    assert "busy_seconds{filter=HMP}" in run.metrics["histograms"]
    assert run.metrics["gauges"]["elapsed_seconds"]["value"] > 0
