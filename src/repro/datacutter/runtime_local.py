"""Threaded local runtime: real concurrent execution of a filter graph.

Each filter copy runs in its own thread with a bounded input queue, so
producers and consumers "run concurrently and process data chunks in a
pipelined fashion" (paper Section 4.1) for real on this machine.  The
overlap is I/O against compute: texture filtering holds the GIL for most
of its time, so replicating texture copies here does not scale (the
ROADMAP probe measured 17.6k ROIs/s with one copy, 16.4k with two) —
that is what the processes runtime is for.

Per-stream routing honours the configured scheduling policy
(:mod:`repro.datacutter.scheduling`).  End-of-stream is tracked at the
edge router rather than with in-band markers: each producer copy ticks a
shared ``producers_done`` counter when it finishes, and a consumer copy
closes the stream only when every producer is done, its own delivery
accounting has drained to zero, *and* no failed sibling copy still holds
undelivered buffers.  The close is atomic with routing (same lock), so a
buffer re-delivered by a dying copy can never race past a survivor's
shutdown — the DataCutter guarantee (consumer finishes once every
producer copy of every input stream completes) extends cleanly to
at-least-once re-delivery.

Fault tolerance (:mod:`repro.datacutter.faults`): every blocking queue
operation is abort-aware, so a failed copy can never wedge the run.  A
``process()`` call that raises is retried per the :class:`RetryPolicy`;
a copy that exhausts its retries is declared dead — its in-hand buffer
and everything still queued for it are *rerouted* to surviving
transparent copies (the dead copy's thread stays alive in drain mode,
re-delivering until its input streams close, so producers never block on
a dead queue).  Unrecoverable failures trigger a shared abort that
unblocks every thread, and ``run()`` raises a structured
:class:`PipelineError` instead of deadlocking.

The runtime records per-copy busy time (time spent inside
``generate``/``process``/``finalize``), giving the per-filter processing
time breakdown of the paper's Fig. 9 for real runs.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .buffers import DataBuffer
from .faults import (
    NULL_INJECTOR,
    CopyFailure,
    FaultPlan,
    InjectedCrash,
    InjectedFault,
    PipelineError,
    RetryPolicy,
    _Aborted,
    _CopyDied,
    _process_with_retry,
)
from .filter import FilterContext
from .graph import FilterGraph, StreamEdge
from .obs import Trace, Tracer, snapshot_run
from .scheduling import CopyState, make_policy

__all__ = ["LocalRuntime", "RunResult"]

#: Watchdog granularity while blocked on a queue (seconds).  Every
#: transition a blocked worker waits on — new buffer, stream closure,
#: copy death, abort — raises a wakeup (a queue put or a ``_WAKE``
#: nudge), so this only bounds recovery from a missed one.
_POLL = 0.05

#: No-op queue token: wakes a consumer blocked in ``get`` so it re-checks
#: stream closure immediately instead of waiting out a poll interval.
_WAKE = object()


@dataclass
class RunResult:
    """Outcome of one pipeline execution."""

    results: Dict[str, List[Any]]
    elapsed: float
    busy_time: Dict[Tuple[str, int], float]
    buffers_sent: Dict[str, int]
    #: Failure accounting: process() retries, buffers re-delivered to a
    #: surviving copy, and the copies that died but were recovered from.
    retries: int = 0
    reroutes: int = 0
    failed_copies: List[CopyFailure] = field(default_factory=list)
    #: Bytes put on the wire per stream (``"src:stream"``) delivering its
    #: buffers to consumers — populated by the runtimes that serialize
    #: (distributed TCP, multiprocessing pipes); empty for the threaded
    #: runtime, whose deliveries are pointer copies.
    wire_bytes: Dict[str, int] = field(default_factory=dict)
    #: Payload bytes handed over through shared-memory pool slabs per
    #: stream (``"src:stream"``) instead of being copied through a pipe —
    #: populated only by ``MPRuntime(transport="shm")``; empty elsewhere.
    #: For a shm run, ``wire_bytes`` then counts just the descriptor
    #: frames that still cross the pipe.
    shm_bytes: Dict[str, int] = field(default_factory=dict)
    #: Elastic membership (distributed runtime only): node names of the
    #: agents that joined the run live, and of the agents that left it
    #: through a *completed* graceful drain.  A drain that escalated —
    #: deadline exceeded, or the agent went silent mid-drain — is a
    #: crash: it appears in ``failed_copies``, never in
    #: ``drained_agents``.  A clean drain contributes nothing to
    #: ``retries``/``reroutes``; the pending buffers it moved off the
    #: draining copies are counted in ``rebalances`` instead.
    joined_agents: List[str] = field(default_factory=list)
    drained_agents: List[str] = field(default_factory=list)
    rebalances: int = 0
    #: Standard metrics snapshot (:func:`repro.datacutter.obs.snapshot_run`):
    #: counters/gauges/histograms derived from this run's aggregates, plus
    #: event-derived instruments when tracing was on.
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: The collected :class:`repro.datacutter.obs.Trace`, or ``None`` when
    #: tracing was disabled (the default).
    trace: Optional[Trace] = None

    def filter_busy_time(self, name: str) -> float:
        """Total busy seconds summed over all copies of a filter."""
        return sum(v for (f, _), v in self.busy_time.items() if f == name)

    def deposits(self, key: str) -> List[Any]:
        return self.results.get(key, [])


class _RunState:
    """Shared per-run coordination: abort signal and failure accounting.

    The abort also *wakes* every consumer: queues attached via
    :meth:`attach_queues` get a best-effort ``_WAKE`` nudge when the
    abort trips, so a worker blocked in ``get`` unwinds immediately
    instead of discovering the flag at its next watchdog expiry.
    """

    def __init__(self) -> None:
        self.abort = threading.Event()
        self.lock = threading.Lock()
        self.failures: List[CopyFailure] = []
        self.fatal = False
        self.retries = 0
        self.reroutes = 0
        self._wake_queues: List["queue.Queue"] = []

    def attach_queues(self, queues: List["queue.Queue"]) -> None:
        self._wake_queues.extend(queues)

    def _wake_all(self) -> None:
        for q in self._wake_queues:
            try:
                q.put_nowait(_WAKE)
            except queue.Full:
                pass  # a full queue wakes its consumer on its own

    def record_failure(self, failure: CopyFailure, fatal: bool) -> None:
        with self.lock:
            self.failures.append(failure)
            if fatal:
                self.fatal = True
        if fatal:
            self.abort.set()
            self._wake_all()

    def trigger_abort(self) -> None:
        with self.lock:
            self.fatal = True
        self.abort.set()
        self._wake_all()

    def count_retry(self) -> None:
        with self.lock:
            self.retries += 1

    def count_reroute(self) -> None:
        with self.lock:
            self.reroutes += 1


class _EdgeRouter:
    """Routes buffers of one stream edge to the consumer's copies.

    Dead consumer copies are excluded from scheduling; blocked producers
    re-check the abort signal and the dead set every :data:`_POLL`
    seconds, so no failure can leave a producer wedged on a full queue.
    """

    def __init__(
        self,
        edge: StreamEdge,
        consumer_queues: List["queue.Queue"],
        state: _RunState,
        n_producers: int,
        tracer: Optional[Tracer] = None,
        poll: float = _POLL,
    ):
        self.edge = edge
        self.policy = make_policy(edge.policy)
        self.queues = consumer_queues
        self.states = [CopyState(i) for i in range(len(consumer_queues))]
        self.lock = threading.Lock()
        self.state = state
        self.n_producers = n_producers
        self.producers_done = 0
        self.dead: set = set()  # copies that failed
        self.departed: set = set()  # copies that closed the stream cleanly
        self.sent = 0
        self.tracer = tracer
        self.poll = poll

    def mark_dead(self, copy_index: int) -> None:
        with self.lock:
            self.dead.add(copy_index)

    def producer_done(self) -> None:
        """One producer copy finished (its share of the stream is sent)."""
        with self.lock:
            self.producers_done += 1
            last = self.producers_done == self.n_producers
        if last:
            self._nudge()

    def _nudge(self) -> None:
        """Wake blocked consumers so they re-check closure immediately.

        Best-effort: a full queue wakes its consumer on its own.
        """
        for q in self.queues:
            try:
                q.put_nowait(_WAKE)
            except queue.Full:
                pass

    def try_close(self, copy_index: int) -> bool:
        """Atomically close this consumer copy's view of the stream.

        True once (a) every producer copy signalled completion and
        (b) every copy's delivery accounting has drained — nothing
        queued, nothing in flight.  The sibling condition is deliberate:
        while *any* sibling (alive or dead) still holds buffers, that
        sibling could yet fail and need this copy as a reroute target.
        Closing marks the copy *departed* under the routing lock, so a
        concurrent reroute either lands before the close (keeping the
        copy alive to process it) or picks a different survivor.
        """
        with self.lock:
            if copy_index in self.departed:
                return True
            if self.producers_done < self.n_producers:
                return False
            if any(s.queued for s in self.states):
                return False
            self.departed.add(copy_index)
            return True

    def has_survivors(self) -> bool:
        with self.lock:
            return len(self.dead | self.departed) < len(self.queues)

    def _pick(self, buffer: DataBuffer, dest_copy: Optional[int]) -> int:
        if self.policy.requires_explicit_dest():
            if dest_copy is None:
                raise RuntimeError(
                    f"stream {self.edge.stream!r} is explicit: dest_copy required"
                )
            idx = dest_copy
            if not (0 <= idx < len(self.queues)):
                raise RuntimeError(
                    f"stream {self.edge.stream!r}: dest copy {idx} out of range"
                )
            with self.lock:
                if idx in self.dead or idx in self.departed:
                    # Explicit placement is semantic (all pieces of one
                    # chunk meet at one copy); a dead destination is
                    # unrecoverable — abort the run.
                    self.state.trigger_abort()
                    raise _Aborted()
                self.states[idx].on_assign(buffer)
                self.sent += 1
            return idx
        if dest_copy is not None:
            raise RuntimeError(
                f"stream {self.edge.stream!r} is {self.edge.policy}: "
                "dest_copy only valid on explicit streams"
            )
        with self.lock:
            gone = self.dead | self.departed
            alive = [s for s in self.states if s.copy_index not in gone]
            if not alive:
                self.state.trigger_abort()
                raise _Aborted()
            idx = self.policy.choose(alive, buffer)
            self.states[idx].on_assign(buffer)
            self.sent += 1
        return idx

    def route(self, buffer: DataBuffer, dest_copy: Optional[int]) -> None:
        item = (self.edge.stream, buffer)
        while True:
            idx = self._pick(buffer, dest_copy)
            if self.tracer is not None:
                self.tracer.emit(
                    "sched.pick",
                    chunk=buffer.metadata.get("chunk"),
                    stream=self.edge.stream,
                    policy=self.edge.policy,
                    dest=idx,
                )
                buffer.metadata["_obs_enq"] = time.time()
            while True:
                if self.state.abort.is_set():
                    raise _Aborted()
                with self.lock:
                    died = idx in self.dead and dest_copy is None
                if died:
                    # Chosen copy died while we were blocked: undo the
                    # assignment and pick a survivor instead.
                    with self.lock:
                        self.states[idx].on_unassign(buffer)
                        self.sent -= 1
                    break
                try:
                    # The timeout is a watchdog: it bounds how long a
                    # producer blocked on a full queue goes without
                    # re-checking the abort flag and the dead set (a
                    # consume frees a slot and wakes the put directly).
                    self.queues[idx].put(item, timeout=self.poll)
                    return
                except queue.Full:
                    continue

    def on_consume(self, copy_index: int) -> None:
        with self.lock:
            self.states[copy_index].on_consume()
            drained = self.producers_done == self.n_producers and not any(
                s.queued for s in self.states
            )
        if drained:
            # The last in-flight buffer on this edge just completed:
            # every copy can now close, so don't make them poll for it.
            self._nudge()


class _LocalContext(FilterContext):
    def __init__(
        self,
        results: Dict[str, List[Any]],
        results_lock: threading.Lock,
        filter_name: str,
        copy_index: int,
        num_copies: int,
        out_routers: Dict[str, _EdgeRouter],
        tracer: Optional[Tracer] = None,
    ):
        super().__init__(filter_name, copy_index, num_copies)
        self._results = results
        self._results_lock = results_lock
        self._out = out_routers
        self._tracer = tracer
        self.tracing = tracer is not None

    def event(self, kind, *, dur=0.0, chunk=None, **attrs):
        if self._tracer is not None:
            self._tracer.emit(
                kind,
                filter=self.filter_name,
                copy=self.copy_index,
                dur=dur,
                chunk=chunk,
                **attrs,
            )

    def send(self, stream, payload, size_bytes=0, metadata=None, dest_copy=None):
        try:
            router = self._out[stream]
        except KeyError:
            raise RuntimeError(
                f"filter {self.filter_name!r} has no output stream {stream!r}"
            ) from None
        buf = DataBuffer(
            payload=payload, size_bytes=size_bytes, metadata=dict(metadata or {})
        )
        router.route(buf, dest_copy)

    def deposit(self, key, value):
        with self._results_lock:
            self._results.setdefault(key, []).append(value)


class LocalRuntime:
    """Executes a validated :class:`FilterGraph` with one thread per copy.

    Parameters
    ----------
    graph:
        The filter network to execute.
    max_queue:
        Bound on each copy's input queue (backpressure).
    retry:
        :class:`RetryPolicy` for failed ``process()`` calls; the default
        retries 3 times with backoff and reroutes a dead copy's buffers
        to survivors.  Pass :data:`~repro.datacutter.faults.NO_RETRY`
        to fail fast.
    faults:
        Optional :class:`FaultPlan` to inject failures for testing.
    trace:
        When true, collect :mod:`repro.datacutter.obs` trace events
        (queue waits, service spans, scheduler picks, chunk lifecycle via
        ``ctx.event``) into ``RunResult.trace``.  Off by default; the
        disabled path adds only ``is not None`` branches.
    poll_interval:
        Watchdog granularity in seconds (default 0.05).  Blocked workers
        are woken on every queue transition (puts, ``_WAKE`` closure
        nudges, abort nudges), so it only bounds recovery from a missed
        wakeup.
    """

    def __init__(
        self,
        graph: FilterGraph,
        max_queue: int = 64,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        trace: bool = False,
        poll_interval: Optional[float] = None,
    ):
        graph.validate()
        self._check_stream_names(graph)
        self.graph = graph
        self.max_queue = max_queue
        self.retry = retry if retry is not None else RetryPolicy()
        self.faults = faults
        self.trace = bool(trace)
        self.poll_interval = (
            _POLL if poll_interval is None else float(poll_interval)
        )
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self._run_lock = threading.Lock()
        self._active_state: Optional[_RunState] = None

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Abort any in-flight run.  Idempotent.

        The threaded runtime holds no resources between runs (worker
        threads end with each ``run()``), so closing only matters for a
        run that is still executing: its shared abort flag is raised and
        ``run()`` will unwind with a :class:`PipelineError`.
        """
        state = self._active_state
        if state is not None:
            state.trigger_abort()

    def __enter__(self) -> "LocalRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    @staticmethod
    def _check_stream_names(graph: FilterGraph) -> None:
        # A consumer identifies the edge by stream name, so its input
        # streams must be distinct.
        for name in graph.filters:
            streams = [e.stream for e in graph.in_edges(name)]
            if len(streams) != len(set(streams)):
                raise ValueError(
                    f"filter {name!r} has duplicate input stream names: {streams}"
                )

    # -- execution ---------------------------------------------------------

    def run(self, timeout: Optional[float] = None) -> RunResult:
        # One run at a time per instance: concurrent jobs must use
        # separate runtime instances (the service's warm pool leases
        # guarantee this).  Raising beats silently interleaving two
        # jobs' deposits and trace events into one result.
        if not self._run_lock.acquire(blocking=False):
            raise RuntimeError(
                "LocalRuntime.run() is already executing; concurrent runs "
                "need separate runtime instances"
            )
        try:
            return self._run(timeout)
        finally:
            self._active_state = None
            self._run_lock.release()

    def _run(self, timeout: Optional[float] = None) -> RunResult:
        # Per-run state: nothing below survives on the instance, so a
        # finished run leaves no mutable state for the next one (or a
        # concurrent one on another instance) to trip over.
        results: Dict[str, List[Any]] = {}
        results_lock = threading.Lock()
        graph = self.graph
        if self.faults is not None:
            self.faults.validate(
                {name: spec.copies for name, spec in graph.filters.items()}
            )
        state = _RunState()
        self._active_state = state
        tracer = Tracer() if self.trace else None
        # Input queues per (filter, copy).
        queues: Dict[Tuple[str, int], queue.Queue] = {}
        for spec in graph.filters.values():
            for i in range(spec.copies):
                queues[(spec.name, i)] = queue.Queue(maxsize=self.max_queue)
        # Abort raises a nudge in every consumer queue, so workers
        # blocked in ``get`` unwind without waiting out the watchdog.
        state.attach_queues(
            [
                queues[(spec.name, i)]
                for spec in graph.filters.values()
                if graph.in_edges(spec.name)
                for i in range(spec.copies)
            ]
        )

        # One router per edge, shared by all producer copies.
        routers: Dict[Tuple[str, str], _EdgeRouter] = {}
        for edge in graph.edges:
            consumer_queues = [
                queues[(edge.dst, i)] for i in range(graph.copies(edge.dst))
            ]
            routers[(edge.src, edge.stream)] = _EdgeRouter(
                edge,
                consumer_queues,
                state,
                n_producers=graph.copies(edge.src),
                tracer=tracer,
                poll=self.poll_interval,
            )

        busy: Dict[Tuple[str, int], float] = {}
        threads: List[threading.Thread] = []

        def worker(spec_name: str, copy_index: int) -> None:
            spec = graph.filters[spec_name]
            injector = (
                self.faults.injector_for(spec_name, copy_index)
                if self.faults is not None
                else NULL_INJECTOR
            )
            out_routers = {
                e.stream: routers[(spec_name, e.stream)]
                for e in graph.out_edges(spec_name)
            }
            in_edges = graph.in_edges(spec_name)
            in_routers = {e.stream: routers[(e.src, e.stream)] for e in in_edges}
            q = queues[(spec_name, copy_index)]
            t_busy = 0.0
            dead = False  # this copy failed but drains/reroutes its queue
            try:
                filt = spec.factory()
                ctx = _LocalContext(
                    results, results_lock, spec_name, copy_index, spec.copies,
                    out_routers, tracer,
                )
                if tracer is not None:
                    tracer.emit("copy.start", filter=spec_name, copy=copy_index)
                t0 = time.perf_counter()
                filt.initialize(ctx)
                t_busy += time.perf_counter() - t0
                if not in_edges:
                    t0 = time.perf_counter()
                    filt.generate(ctx)
                    t_busy += time.perf_counter() - t0
                else:
                    open_streams = set(in_routers)
                    while open_streams:
                        if state.abort.is_set():
                            raise _Aborted()
                        try:
                            got = q.get(timeout=self.poll_interval)
                        except queue.Empty:
                            got = _WAKE
                        if got is _WAKE:
                            # Nothing queued (or a producer-done nudge):
                            # see whether any stream can close (all
                            # producers done, nothing pending here or on
                            # a dead sibling still draining).
                            for s in list(open_streams):
                                if in_routers[s].try_close(copy_index):
                                    open_streams.discard(s)
                            continue
                        stream, item = got
                        router = in_routers[stream]
                        if tracer is not None:
                            chunk_id = item.metadata.get("chunk")
                            enq = item.metadata.pop("_obs_enq", None)
                            if enq is not None:
                                tracer.emit(
                                    "queue.wait",
                                    filter=spec_name,
                                    copy=copy_index,
                                    dur=max(time.time() - enq, 0.0),
                                    chunk=chunk_id,
                                    stream=stream,
                                )
                            tracer.emit(
                                "queue.depth",
                                filter=spec_name,
                                copy=copy_index,
                                depth=q.qsize(),
                            )
                        if dead:
                            # Drain mode: this copy is gone, but it keeps
                            # its queue moving — every buffer is handed
                            # back to the router for a surviving copy, so
                            # producers never block on a dead queue.  The
                            # re-assign happens *before* on_consume so the
                            # buffer is never invisible to try_close.
                            state.count_reroute()
                            if tracer is not None:
                                tracer.emit(
                                    "fault.reroute",
                                    filter=spec_name,
                                    copy=copy_index,
                                    chunk=item.metadata.get("chunk"),
                                    stream=stream,
                                )
                            router.route(item, None)
                            router.on_consume(copy_index)
                            continue
                        try:
                            dt = _process_with_retry(
                                filt, stream, item, ctx, injector,
                                self.retry, state.abort.wait,
                                state.count_retry,
                            )
                            t_busy += dt
                            if tracer is not None:
                                tracer.emit(
                                    "service",
                                    filter=spec_name,
                                    copy=copy_index,
                                    dur=dt,
                                    chunk=item.metadata.get("chunk"),
                                    stream=stream,
                                )
                            router.on_consume(copy_index)
                        except _CopyDied as died_exc:
                            for r in in_routers.values():
                                r.mark_dead(copy_index)
                            failure = CopyFailure(
                                filter_name=spec_name,
                                copy_index=copy_index,
                                error=repr(died_exc.cause),
                                kind="crash" if died_exc.injected else "exception",
                                injected=died_exc.injected,
                            )
                            recoverable = (
                                self.retry.reroute
                                and all(
                                    not r.policy.requires_explicit_dest()
                                    for r in in_routers.values()
                                )
                                and all(
                                    r.has_survivors() for r in in_routers.values()
                                )
                            )
                            if not recoverable:
                                state.record_failure(failure, fatal=True)
                                raise _Aborted() from died_exc
                            failure.recovered = True
                            state.record_failure(failure, fatal=False)
                            state.count_reroute()
                            if tracer is not None:
                                tracer.emit(
                                    "fault.reroute",
                                    filter=spec_name,
                                    copy=copy_index,
                                    chunk=item.metadata.get("chunk"),
                                    stream=stream,
                                )
                            router.route(item, None)
                            router.on_consume(copy_index)
                            dead = True
                if not dead:
                    t0 = time.perf_counter()
                    filt.finalize(ctx)
                    t_busy += time.perf_counter() - t0
            except _Aborted:
                pass
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                state.record_failure(
                    CopyFailure(
                        filter_name=spec_name,
                        copy_index=copy_index,
                        error="".join(
                            traceback.format_exception_only(type(exc), exc)
                        ).strip(),
                        kind="exception",
                        injected=isinstance(exc, (InjectedFault, InjectedCrash)),
                    ),
                    fatal=True,
                )
            finally:
                # Tick completion even on failure/abort: consumers must
                # never wait for a producer copy that will not send more.
                for e in graph.out_edges(spec_name):
                    routers[(spec_name, e.stream)].producer_done()
                busy[(spec_name, copy_index)] = t_busy
                if tracer is not None:
                    tracer.emit(
                        "copy.done",
                        filter=spec_name,
                        copy=copy_index,
                        busy=t_busy,
                        dead=dead,
                    )

        start = time.perf_counter()
        for spec in graph.filters.values():
            for i in range(spec.copies):
                th = threading.Thread(
                    target=worker,
                    args=(spec.name, i),
                    name=f"{spec.name}[{i}]",
                    daemon=True,
                )
                th.start()
                threads.append(th)
        deadline = None if timeout is None else start + timeout
        timed_out = False
        for th in threads:
            while th.is_alive():
                if deadline is None:
                    # No deadline to police: a plain join blocks on the
                    # thread's own exit, no tick needed.
                    th.join()
                    break
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    timed_out = True
                    state.trigger_abort()
                    deadline = None  # abort set; now join for real
                    continue
                th.join(timeout=remaining)
        elapsed = time.perf_counter() - start

        if timed_out:
            raise PipelineError(
                state.failures,
                f"pipeline did not finish within {timeout}s",
            )
        if state.fatal:
            raise PipelineError(state.failures)

        buffers_sent = {
            f"{src}:{stream}": r.sent for (src, stream), r in routers.items()
        }
        events = tracer.drain() if tracer is not None else None
        return RunResult(
            results=results,
            elapsed=elapsed,
            busy_time=busy,
            buffers_sent=buffers_sent,
            retries=state.retries,
            reroutes=state.reroutes,
            failed_copies=list(state.failures),
            metrics=snapshot_run(
                busy,
                buffers_sent,
                state.retries,
                state.reroutes,
                [(f.filter_name, f.copy_index) for f in state.failures],
                {},
                elapsed,
                events,
            ),
            trace=Trace(events) if events is not None else None,
        )
