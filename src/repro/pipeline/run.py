"""End-to-end drivers for parallel Haralick texture analysis.

``run_pipeline`` executes the full filter network on the threaded local
runtime against a disk-resident dataset and returns the stitched output
volumes plus execution statistics.  It is the parallel counterpart of
:func:`repro.core.analysis.haralick_transform` and produces feature
volumes identical to rounding, bit-identical at equal packet size (the
BLAS batch length is the only thing that moves the last digits).

The driver is factored into three phases that callers can time or drive
one by one (the benchmark ledger does; :mod:`repro.service` and the CLI
call ``run_pipeline``, the build phases cost under a millisecond):

* **build** — :func:`prepare_pipeline` opens the dataset and wires the
  validated filter graph; :func:`build_runtime` constructs (and
  validates the arguments of) the execution backend for that graph.
* **execute** — :func:`execute_pipeline` runs a built runtime once and
  stitches the output volumes.  A runtime may be executed many times;
  each ``run()`` is fully self-contained.
* **teardown** — every runtime is a context manager; ``close()``
  aborts anything in flight and releases child processes, sockets and
  shared-memory slabs.  ``run_pipeline`` drives its runtime inside a
  ``with`` block, so no exception path can leak them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from ..core.backends import resolve_scan_kernel
from ..datacutter.faults import FaultPlan, RetryPolicy
from ..datacutter.graph import FilterGraph
from ..datacutter.obs import Trace, format_summary, resolve_trace_mode
from ..datacutter.runtime_local import LocalRuntime, RunResult
from ..datacutter.runtime_mp import MPRuntime
from ..storage.dataset import DiskDataset4D
from .builder import build_graph
from .config import AnalysisConfig

__all__ = [
    "PipelineResult",
    "PreparedPipeline",
    "prepare_pipeline",
    "build_runtime",
    "execute_pipeline",
    "run_pipeline",
]

RUNTIMES = ("threads", "processes", "distributed")


@dataclass
class PipelineResult:
    """Outcome of one parallel analysis run."""

    volumes: Dict[str, np.ndarray]
    run: RunResult
    config: AnalysisConfig

    @property
    def elapsed(self) -> float:
        return self.run.elapsed

    @property
    def trace(self) -> Optional[Trace]:
        """Trace events collected when the run was launched with tracing."""
        return self.run.trace

    @property
    def metrics(self) -> Dict[str, Dict[str, object]]:
        """Metrics snapshot of the underlying run."""
        return self.run.metrics


@dataclass
class PreparedPipeline:
    """The build-phase product: an opened dataset plus its wired graph.

    Immutable across executions — the same prepared pipeline can back
    any number of runs (the graph's filter factories construct fresh
    filter instances per run).
    """

    dataset: DiskDataset4D
    graph: FilterGraph
    config: AnalysisConfig

    def close(self) -> None:
        """Retire the pipeline.  There is nothing to release; the method
        stays because the ledger's phase spans call it."""


def prepare_pipeline(
    dataset_root: str, config: Optional[AnalysisConfig] = None
) -> PreparedPipeline:
    """Build phase: open the dataset and wire the validated filter graph."""
    config = config or AnalysisConfig()
    # Build/load the compiled scan pass here, in the driver, so that
    # every forked filter copy and loopback agent inherits the mapping.
    resolve_scan_kernel(config.texture.kernel)
    dataset = DiskDataset4D.open(dataset_root)
    graph = build_graph(dataset, config)
    return PreparedPipeline(dataset=dataset, graph=graph, config=config)


def _validate_backend_kwargs(runtime, hosts, heartbeat_timeout) -> None:
    """Cross-argument rules shared by build_runtime and run_pipeline.

    run_pipeline applies them *before* preparing the dataset, so a bad
    argument combination is reported even when the dataset or config
    would also fail to validate.
    """
    if hosts is not None and runtime != "distributed":
        raise ValueError(f"hosts= only applies to runtime='distributed', "
                         f"not {runtime!r}")
    if heartbeat_timeout is not None and runtime != "distributed":
        raise ValueError("heartbeat_timeout= only applies to "
                         "runtime='distributed'")


def build_runtime(
    graph: FilterGraph,
    runtime: str = "threads",
    max_queue: int = 64,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
    trace: bool = False,
    hosts: Optional[List[str]] = None,
    heartbeat_timeout: Optional[float] = None,
    poll_interval: Optional[float] = None,
):
    """Build phase: construct the execution backend for a wired graph.

    Validates the cross-argument rules (``hosts=`` and
    ``heartbeat_timeout=`` only for the distributed runtime) and returns a runtime object ready to
    ``run()``.
    The returned runtime is a context manager; drive it inside a
    ``with`` block.

    ``poll_interval`` sets the watchdog granularity of every blocking
    wait (all three backends).
    """
    _validate_backend_kwargs(runtime, hosts, heartbeat_timeout)
    if runtime == "threads":
        return LocalRuntime(
            graph, max_queue=max_queue, retry=retry, faults=faults,
            trace=trace, poll_interval=poll_interval,
        )
    if runtime == "processes":
        return MPRuntime(
            graph, max_queue=max_queue, retry=retry, faults=faults,
            trace=trace, poll_interval=poll_interval,
        )
    if runtime == "distributed":
        from ..datacutter.net import DistRuntime

        return DistRuntime(
            graph,
            hosts=hosts if hosts is not None else ["127.0.0.1"] * 3,
            max_queue=max_queue,
            retry=retry,
            faults=faults,
            trace=trace,
            heartbeat_timeout=heartbeat_timeout,
            poll_interval=poll_interval,
        )
    raise ValueError(f"unknown runtime {runtime!r}")


def execute_pipeline(
    prepared: PreparedPipeline,
    rt,
    run_timeout: Optional[float] = None,
    trace: Union[bool, str, None] = None,
    trace_out: Optional[str] = None,
) -> PipelineResult:
    """Execute phase: run a built runtime once and stitch its outputs.

    ``trace`` here only selects the *exporter* for the events the
    runtime collected (the runtime itself must have been built with
    ``trace=True`` for any events to exist); ``None`` leaves the trace
    attached to the result without exporting.
    """
    mode = resolve_trace_mode(trace)
    run = rt.run(timeout=run_timeout)
    if run.trace is not None:
        if mode == "chrome":
            run.trace.to_chrome(trace_out or "trace.json")
        elif mode == "jsonl":
            run.trace.to_jsonl(trace_out or "trace.jsonl")
        elif mode == "live":
            print(format_summary(run.trace.events))
    deposits = run.deposits("volumes")  # HIC's one volume set
    if len(deposits) != 1:
        raise RuntimeError(
            f"expected exactly one stitched volume set, got {len(deposits)}"
        )
    return PipelineResult(volumes=deposits[0], run=run, config=prepared.config)


def run_pipeline(
    dataset_root: str,
    config: Optional[AnalysisConfig] = None,
    max_queue: int = 64,
    runtime: str = "threads",
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
    hosts: Optional[List[str]] = None,
    trace: Union[bool, str, None] = None,
    trace_out: Optional[str] = None,
    heartbeat_timeout: Optional[float] = None,
    run_timeout: Optional[float] = None,
    poll_interval: Optional[float] = None,
) -> PipelineResult:
    """Run the parallel pipeline over a disk-resident dataset.

    One-shot composition of the three phases: prepare the dataset and
    graph, build the runtime, execute it once inside a ``with`` block
    (so the runtime is torn down on every exception path), and stitch
    the outputs.  :class:`repro.service.AnalysisService` runs every job
    through this function.

    Parameters
    ----------
    dataset_root:
        Directory of a dataset written by
        :func:`repro.storage.write_dataset`.
    config:
        Run configuration; paper defaults if omitted.
    max_queue:
        Bound on each filter copy's input queue (backpressure).
    runtime:
        ``"threads"`` (default, :class:`LocalRuntime`),
        ``"processes"`` (:class:`MPRuntime` — one OS process per filter
        copy, buffers framed between them: large payloads cross in
        shared-memory slabs, the rest through pipes; the run reports
        ``RunResult.wire_bytes`` and ``RunResult.shm_bytes`` per
        stream), or ``"distributed"``
        (:class:`~repro.datacutter.net.DistRuntime` — one worker agent
        per host, buffers framed over TCP by the zero-copy wire codec).
    retry:
        Fault-tolerance policy; overrides ``config.retry``.  ``None``
        falls back to the config's, then to the runtime default.
    faults:
        Optional :class:`~repro.datacutter.faults.FaultPlan` injecting
        failures (testing / resilience experiments).
    hosts:
        Distributed runtime only: one entry per worker agent.  Loopback
        entries spawn local agent processes, so ``["127.0.0.1"] * 3``
        (the default) runs the full TCP stack on this machine.
    trace:
        Observability mode (see :mod:`repro.datacutter.obs`).  ``None``
        or ``False`` disables tracing (near-zero overhead); ``True`` or
        ``"events"`` collects events on ``result.trace``; ``"chrome"``
        additionally writes a Chrome/Perfetto trace file; ``"jsonl"``
        writes flat JSON lines; ``"live"`` prints a terminal summary
        after the run.
    trace_out:
        Output path for the ``"chrome"`` / ``"jsonl"`` modes (defaults
        to ``trace.json`` / ``trace.jsonl``).
    heartbeat_timeout:
        Distributed runtime only: seconds of agent silence before it is
        declared dead.  ``None`` reads ``REPRO_DIST_HEARTBEAT_TIMEOUT``
        and falls back to 5 seconds.
    run_timeout:
        Wall-clock bound on the run itself (any runtime); the run
        aborts with :class:`~repro.datacutter.faults.PipelineError`
        when exceeded.  ``None`` (default) means unbounded.
    poll_interval:
        Watchdog granularity (seconds) for every blocking wait in the
        chosen runtime.  Wakeups are event-driven, so this only bounds
        how long a *missed* wakeup could stall progress; large values
        are safe.

    Returns
    -------
    :class:`PipelineResult` with one stitched volume per feature.
    """
    mode = resolve_trace_mode(trace)
    if trace_out is not None and mode not in ("chrome", "jsonl"):
        raise ValueError("trace_out= requires trace='chrome' or 'jsonl'")
    _validate_backend_kwargs(runtime, hosts, heartbeat_timeout)
    prepared = prepare_pipeline(dataset_root, config)
    retry = retry if retry is not None else prepared.config.retry
    rt = build_runtime(
        prepared.graph,
        runtime=runtime,
        max_queue=max_queue,
        retry=retry,
        faults=faults,
        trace=mode is not None,
        hosts=hosts,
        heartbeat_timeout=heartbeat_timeout,
        poll_interval=poll_interval,
    )
    with rt:
        return execute_pipeline(
            prepared, rt, run_timeout=run_timeout, trace=trace,
            trace_out=trace_out,
        )
