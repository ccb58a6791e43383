"""Peer runtime engine, and its threaded instance :class:`LocalRuntime`.

A *peer* runtime runs every filter copy of a
:class:`~repro.datacutter.graph.FilterGraph` on this machine and lets
the copies route to each other directly: each stream edge is one
:class:`_SharedEdge` — per-consumer bounded queues plus the routing
core (:mod:`repro.datacutter.routing`: depth, dead/departed and
``producers_done`` counters in shared storage) under one lock — and a
parent that only collects deposits and terminal reports.  In DataCutter
(paper Sections 4.1, 5.2) placing two copies in one address space or on
two nodes changes how a buffer travels, never the stream protocol; here
likewise the engine is written once, against a small backend object
that supplies the primitives (lock, event, bounded queue, integer
cells, ``spawn``), how a buffer is handed over, how the parent waits
and what a hard crash looks like.  Two backends exist:

* :class:`_ThreadBackend` (this module, :class:`LocalRuntime`): copies
  are threads, a delivery is a pointer copy, so ``wire_bytes`` is empty,
  payloads and deposits need not pickle, and nothing forks.  The overlap
  is I/O against compute: texture filtering holds the GIL for most of
  its time, so replicating texture copies here does not scale — that is
  what the processes runtime is for.
* the fork backend of :mod:`repro.datacutter.runtime_mp`
  (:class:`~repro.datacutter.runtime_mp.MPRuntime`): copies are
  processes, every buffer is framed by the wire codec and large
  payloads cross in shared-memory slabs instead of the pipes.

The life of one copy (``initialize`` → ``generate``/``process`` →
``finalize``, tracing, retries) is :func:`repro.datacutter.copyloop.run_copy`,
shared with the distributed agent; this module supplies its port.

End-of-stream is tracked at the edge rather than with in-band markers:
each producer copy ticks ``producers_done`` when it finishes, and a
consumer copy closes the stream only when every producer is done and
*every* copy's delivery accounting has drained to zero — so a survivor
can never shut down while a dying sibling still holds buffers destined
for it.  The close is atomic with routing (same lock): the DataCutter
guarantee (a consumer finishes once every producer copy of every input
stream completes) extends cleanly to at-least-once re-delivery.

Fault tolerance (:mod:`repro.datacutter.faults`): every blocking queue
operation is abort-aware, so a failed copy can never wedge the run.  A
copy that exhausts its retries marks itself dead on its input edges (so
producers stop picking it), reroutes its in-hand buffer and stays behind
in drain mode — re-delivering everything still queued for it to
surviving transparent copies — until its input streams close.
Unrecoverable failures raise the shared abort, which unblocks every
copy, and ``run()`` raises a structured :class:`PipelineError` instead
of deadlocking.

Wakeups are event-driven: every transition a blocked consumer could be
waiting on — a delivery, a producer finishing, the last in-flight buffer
of an edge draining, a sibling dying, the abort — sets that copy's
wakeup event; the consumer clears the event, re-checks everything it
guards and only then waits, so no wakeup can be lost.  ``poll_interval``
is only a watchdog bounding how long a *missed* wakeup could go
unnoticed.

The runtime records per-copy busy time (time spent inside
``generate``/``process``/``finalize``), giving the per-filter processing
time breakdown of the paper's Fig. 9 for real runs.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .buffers import DataBuffer
from .copyloop import CopyContext, CopyPort, run_copy
from .faults import CopyFailure, FaultPlan, PipelineError, RetryPolicy, _Aborted
from .graph import FilterGraph, StreamEdge
from .obs import Trace, Tracer, snapshot_run
from .routing import EdgeRouter, RoutingError, _Cell, _zeros

__all__ = ["LocalRuntime", "RunResult"]

#: Default watchdog granularity of :class:`LocalRuntime` (seconds).
#: Every transition a blocked copy waits on raises a wakeup event, so
#: this only bounds recovery from a missed one.
_POLL = 0.05
#: Parent watchdog: the parent is woken by the results queue (and, for
#: processes, the child sentinels), so its fallback tick can be long.
_PARENT_WATCHDOG = 1.0
#: How long after a child exits the parent waits for its (possibly still
#: buffered) terminal report before declaring it silently dead.
_EXIT_GRACE = 2.0

_CTRL_DEPOSIT = "__deposit__"
_CTRL_REPORT = "__copy_report__"


@dataclass
class RunResult:
    """Outcome of one pipeline execution."""

    results: Dict[str, List[Any]]
    elapsed: float
    busy_time: Dict[Tuple[str, int], float]
    buffers_sent: Dict[str, int]
    #: Failure accounting: ``process()`` retries, re-deliveries, and the
    #: copies that died but were recovered from.  One reroute is one
    #: buffer that had been claimed for a copy and was picked again for
    #: another because the first died: on the peer runtimes (threads,
    #: processes) that is every buffer a dead copy hands back in drain
    #: mode (the one in hand and each one still queued for it) plus
    #: every re-pick by a producer whose chosen copy died while the
    #: producer was blocked on that copy's full queue; on the
    #: distributed runtime, every unacknowledged or pending delivery the
    #: head moves off a dead copy.
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
    #: one entry per stream from the processes runtime; empty elsewhere.
    #: For such a payload ``wire_bytes`` counts just the descriptor frame
    #: that still crossed the pipe, so a link's traffic is the two added.
    shm_bytes: Dict[str, int] = field(default_factory=dict)
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


class _SharedAbort:
    """Run-wide abort flag with event-driven wakeup.

    Raising it (``abort.value = 1``) also sets an event (so retry
    backoffs block on :meth:`wait` instead of sleeping in poll ticks)
    and every per-copy wakeup event attached before the copies were
    spawned (so consumers blocked on their input wait unblock at once).
    """

    def __init__(self, backend):
        self._flag = backend.cell()
        self._event = backend.Event()
        self._wakeups: List[Any] = []

    def attach_wakeups(self, events: List[Any]) -> None:
        """Register events to set on abort (call before spawning)."""
        self._wakeups.extend(events)

    @property
    def value(self) -> int:
        return self._flag.value

    @value.setter
    def value(self, v: int) -> None:
        self._flag.value = v
        if v:
            self._event.set()
            for ev in self._wakeups:
                ev.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until aborted (True) or the timeout elapses (False)."""
        return self._event.wait(timeout)


class _SharedEdge:
    """One stream edge of the peer runtimes, shared by all its copies.

    The routing state is the core :class:`~repro.datacutter.routing.EdgeRouter`
    with its counters in the backend's storage, always used under
    ``lock``; this class adds the per-consumer bounded queues, the
    wakeups, the blocking put and the traffic counters.  ``wake`` holds
    one event per consumer copy of the destination filter — shared by
    every edge into that filter — set on each transition a blocked
    consumer could be waiting on.  The queue bound is per (edge,
    consumer copy).
    """

    def __init__(
        self,
        edge: StreamEdge,
        num_consumers: int,
        max_queue: int,
        backend,
        n_producers: int,
        wake: List[Any],
        poll: float = _POLL,
    ):
        self.edge = edge
        self.backend = backend
        self.poll = poll
        self.wake = wake
        self.router = EdgeRouter(
            edge.policy, num_consumers, n_producers,
            f"{edge.src}:{edge.stream}", edge.dst, backend.array, backend.cell,
        )
        self.queues = [backend.Queue(max_queue) for _ in range(num_consumers)]
        self.lock = backend.Lock()
        self.rerouted = backend.cell()
        self.wire = backend.cell()
        # Payload bytes handed over via pool slabs instead of the pipe.
        self.shm = backend.cell()

    def mark_dead(self, idx: int) -> None:
        with self.lock:
            self.router.mark_dead(idx)
        # Siblings may be able to close now that this copy no longer
        # counts as a live reroute target; have them re-check.
        self._wake_all()

    def _wake_all(self) -> None:
        for ev in self.wake:
            ev.set()

    def producer_done(self) -> None:
        """One producer copy finished (its share of the stream is sent)."""
        with self.lock:
            self.router.producer_done()
        # Wake every consumer so it re-checks closure immediately instead
        # of discovering the EOS at its next watchdog tick.
        self._wake_all()

    def try_close(self, idx: int) -> bool:
        """Atomically close consumer copy ``idx``'s view of the stream:
        under the routing lock, so it can never race a re-delivery."""
        with self.lock:
            return self.router.try_close(idx)

    def has_survivors(self) -> bool:
        with self.lock:
            return bool(self.router.live())

    def claim(self, dest_copy: Optional[int], abort) -> int:
        """Claim the core's pick; a fatal verdict raises the abort."""
        with self.lock:
            try:
                return self.router.route(dest_copy)
            except RoutingError:
                pass
        abort.value = 1
        raise _Aborted()

    def on_consume(self, idx: int) -> None:
        with self.lock:
            self.router.consume(idx)
            drained = self.router.drained()
        if drained:
            # The last in-flight buffer on this edge just completed:
            # every copy can now close, so don't make them wait out a
            # watchdog tick to notice.
            self._wake_all()

    def deliver(
        self, buffer: DataBuffer, dest_copy: Optional[int], abort, tracer=None
    ) -> None:
        """Abort-aware routed put; repicks if the chosen copy dies."""
        if tracer is not None:
            # Enqueue timestamp rides with the buffer so the consumer
            # can measure queue wait (across the pipe, for processes).
            buffer.metadata["_obs_enq"] = time.time()
        # Hand-over form, made once: the same frame fits whichever copy
        # wins the re-pick.
        frame, wire_n, shm_n = self.backend.pack((self.edge.stream, buffer))
        while True:
            idx = self.claim(dest_copy, abort)
            if tracer is not None:
                tracer.emit(
                    "sched.pick",
                    chunk=buffer.metadata.get("chunk"),
                    stream=self.edge.stream,
                    policy=self.edge.policy,
                    dest=idx,
                )
            while True:
                if abort.value:
                    # Undo the claim: a leaked positive depth counter
                    # would make an idle consumer block on a frame that
                    # never lands.
                    with self.lock:
                        self.router.unclaim(idx)
                    raise _Aborted()
                if dest_copy is None and self.router.dead[idx]:
                    # Died while we were blocked: undo and re-pick.
                    with self.lock:
                        self.router.unclaim(idx)
                        self.rerouted.value += 1
                    break
                try:
                    # Bounded, not `poll`: a full queue (backpressure,
                    # or a silently dead consumer) must re-check abort
                    # and copy death promptly — the blocked put cannot
                    # be interrupted by either.
                    self.queues[idx].put(frame, timeout=min(self.poll, 0.05))
                except queue.Full:
                    continue
                self.wake[idx].set()
                if wire_n:
                    with self.lock:
                        self.wire.value += wire_n
                        self.shm.value += shm_n
                    if tracer is not None:
                        self._trace_frame(tracer, "wire.frame", buffer, wire_n, idx)
                        if shm_n:
                            self._trace_frame(tracer, "shm.frame", buffer, shm_n, idx)
                return

    def _trace_frame(self, tracer, kind, buffer, nbytes, idx) -> None:
        tracer.emit(
            kind,
            chunk=buffer.metadata.get("chunk"),
            stream=self.edge.stream,
            bytes=nbytes,
            dest=idx,
        )

    def reroute(self, buffer: DataBuffer, abort, tracer=None) -> None:
        """Re-deliver a buffer a dead copy hands back (counted)."""
        with self.lock:
            self.rerouted.value += 1
        self.deliver(buffer, None, abort, tracer)


class _PeerContext(CopyContext):
    def __init__(self, graph, filter_name, copy_index, out_edges, results_q,
                 abort, tracer=None):
        super().__init__(graph, filter_name, copy_index, tracer)
        self._edges = out_edges
        self.results_q = results_q
        self.abort = abort

    def _deliver(self, stream, buffer, dest_copy):
        self._edges[stream].deliver(buffer, dest_copy, self.abort, self.tracer)

    def deposit(self, key, value):
        self.results_q.put((_CTRL_DEPOSIT, key, value))


class _PeerPort(CopyPort):
    """One peer copy's side of its input edges (see ``copyloop``).

    ``wake`` is this copy's wakeup event (``None`` for a source, which
    has no input to wait on): producers set it after every delivery and
    on every edge transition, so the idle wait blocks on it instead of
    ticking over the queues at ``poll`` granularity.
    """

    def __init__(self, ctx, in_edges, backend, reroute, poll, wake):
        self.ctx = ctx
        self.index = ctx.copy_index
        self.in_edges = in_edges
        self.open = set(in_edges)
        self.results_q = ctx.results_q
        self.abort = ctx.abort
        self.backend = backend
        self.may_reroute = reroute
        self.poll = poll
        self.wake = wake

    def abort_wait(self, timeout):
        return self.abort.wait(timeout)

    def _close_drained(self) -> bool:
        """Close every open stream that can close (all producers done,
        nothing pending here or on a dead sibling still draining)."""
        closed = {s for s in self.open if self.in_edges[s].try_close(self.index)}
        self.open -= closed
        return bool(closed)

    def next_input(self):
        i = self.index
        while self.open:
            if self.abort.value:
                raise _Aborted()
            # Sweep each open input edge's queue for this copy without
            # blocking (the wakeup event is the blocking point).
            frame = None
            for stream in self.open:
                try:
                    frame = self.in_edges[stream].queues[i].get_nowait()
                except queue.Empty:
                    continue
                break
            if frame is None:
                if self._close_drained():
                    continue
                # Decide how to block.  A positive depth counter means a
                # frame for this copy is still in flight into that queue
                # (the counter is bumped before the put) — block on the
                # queue, which wakes the instant the frame lands.
                pending = [
                    s for s in self.open if self.in_edges[s].router.queued[i] > 0
                ]
                if pending:
                    # Bounded, not `poll`: the frame normally lands
                    # within microseconds, and if the counter lies
                    # (producer hard-killed between its claim and its
                    # put) the loop must re-check abort/EOS promptly
                    # rather than sit out the watchdog.
                    try:
                        frame = self.in_edges[pending[0]].queues[i].get(
                            timeout=min(self.poll, 0.05)
                        )
                    except queue.Empty:
                        continue
                else:
                    # Truly idle: wait on the wakeup event.  The
                    # no-lost-wakeup protocol is clear *first*, then
                    # re-check everything the event guards: a producer
                    # bumps counters before setting the event, so state
                    # changed before the clear is visible in the
                    # re-check, and state changed after it re-raises the
                    # event and the wait returns immediately.  The
                    # watchdog timeout only bounds the impossible case.
                    self.wake.clear()
                    ready = any(self.in_edges[s].router.queued[i] for s in self.open)
                    if not self._close_drained() and not ready:
                        if self.abort.value:
                            raise _Aborted()
                        self.wake.wait(timeout=max(self.poll, 0.05))
                    continue
            stream, buffer = self.backend.unpack(frame)
            return stream, buffer, None
        return None

    def depth(self, stream):
        return int(self.in_edges[stream].router.queued[self.index])

    def ack(self, stream, token):
        self.in_edges[stream].on_consume(self.index)

    def died(self, failure):
        edges = self.in_edges.values()
        for e in edges:
            e.mark_dead(self.index)
        failure.recovered = (
            self.may_reroute
            and all(e.edge.policy != "explicit" for e in edges)
            and all(e.has_survivors() for e in edges)
        )
        return failure.recovered

    def reroute(self, stream, buffer, token):
        # Re-deliver *before* on_consume so the buffer is never
        # invisible to try_close.
        self.in_edges[stream].reroute(buffer, self.abort, self.ctx.tracer)
        self.in_edges[stream].on_consume(self.index)

    def report(self, failure, busy, retries, events):
        fatal = failure is not None and not failure.recovered
        # After an abort nobody collects: a report left in the queue's
        # feeder would only delay this copy's exit.
        if fatal or not self.abort.value:
            self.results_q.put(
                (_CTRL_REPORT, self.ctx.filter_name, self.index, failure,
                 busy, retries, events)
            )
        if fatal:
            self.abort.value = 1


def _copy_main(graph, name, index, in_edges, out_edges, results_q, abort,
               backend, retry, faults, trace, poll, wake) -> None:
    """Entry point of one filter copy (a thread or a forked child)."""
    # Per-copy tracer: events batch locally and ride home on the
    # terminal report, so tracing adds no per-buffer traffic.
    ctx = _PeerContext(
        graph, name, index, out_edges, results_q, abort,
        Tracer() if trace else None,
    )
    port = _PeerPort(ctx, in_edges, backend, retry.reroute, poll, wake)
    try:
        run_copy(graph, ctx, port, retry, faults, backend.hard_exit)
    finally:
        # Tick edge-level EOS (never blocks) however the copy ended:
        # consumers must never wait for a producer copy that is gone.
        for e in out_edges.values():
            e.producer_done()


class _CopyThread(threading.Thread):
    """A filter copy as a thread, with the handle ``spawn`` must return."""

    #: A thread cannot die without its terminal report reaching the
    #: parent, so the silent-death watcher never sees an exit status.
    exitcode = None

    def terminate(self) -> None:
        """Threads cannot be killed; they leave on the abort flag."""


class _ThreadBackend:
    """Peer-engine primitives for copies that share the address space."""

    #: A hard injected crash cannot take one thread down alone.
    hard_exit = None
    #: No shared-memory pool: nothing is ever copied.
    pool = None
    #: Nothing happens on the parent's side that a trace should show.
    events = ()

    Lock = staticmethod(threading.Lock)
    Event = staticmethod(threading.Event)
    Queue = staticmethod(queue.Queue)
    cell = staticmethod(_Cell)
    array = staticmethod(_zeros)

    @staticmethod
    def spawn(target, args, name: str) -> _CopyThread:
        th = _CopyThread(target=target, args=args, name=name, daemon=True)
        th.start()
        return th

    @staticmethod
    def pack(item):
        """Hand-over is the object itself: ``(frame, wire, shm bytes)``."""
        return item, 0, 0

    @staticmethod
    def unpack(frame):
        return frame

    @staticmethod
    def wait(results_q, live, timeout: float):
        """Next control message, or ``None`` after ``timeout`` seconds."""
        try:
            return results_q.get(timeout=timeout)
        except queue.Empty:
            return None

    @staticmethod
    def traffic(edges) -> Tuple[Dict[str, int], Dict[str, int]]:
        """``(wire_bytes, shm_bytes)``: pointer copies move no bytes."""
        return {}, {}

    def close(self) -> None:
        pass


class _PeerRuntime:
    """The engine: spawn one copy per (filter, index), collect reports."""

    def __init__(self, graph, max_queue, retry, faults, trace, poll_interval):
        graph.validate()
        self.graph = graph
        self.max_queue = max_queue
        self.retry = retry if retry is not None else RetryPolicy()
        self.faults = faults
        self.trace = bool(trace)
        self.poll_interval = float(poll_interval)
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self._run_lock = threading.Lock()
        self._procs: List[Tuple[Any, str, int]] = []
        self._abort = None
        self._results_q = None
        # True once close() raised the in-flight run's abort: copies
        # leaving on it are healthy, not silently dead.
        self._closed = False

    def _open_backend(self):
        raise NotImplementedError

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Abort any in-flight run and reap its copies.

        Idempotent, and safe to call from another thread while ``run()``
        is blocked: the abort flag unwedges every copy, leftover
        processes are terminated, and ``run()`` raises a
        :class:`PipelineError` saying the run was closed.  Nothing is
        held between runs.
        """
        # Read in the reverse of the order run() clears them, so a live
        # abort always comes with its queue.
        results_q, abort = self._results_q, self._abort
        if abort is not None:
            self._closed = True
            abort.value = 1
            results_q.put(None)  # wake the collecting parent at once
        for p, _, _ in list(self._procs):
            p.join(timeout=5)
            if p.is_alive():
                p.terminate()
                p.join(timeout=5)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- execution ---------------------------------------------------------

    def run(self, timeout: Optional[float] = None) -> RunResult:
        # One run at a time per instance: concurrent jobs must use
        # separate runtime instances (each service job builds its own).
        # Raising beats silently interleaving two jobs' deposits and
        # trace events into one result.
        if not self._run_lock.acquire(blocking=False):
            raise RuntimeError(
                f"{type(self).__name__}.run() is already executing; "
                "concurrent runs need separate runtime instances"
            )
        try:
            if self.faults is not None:
                self.faults.validate(
                    {name: spec.copies for name, spec in self.graph.filters.items()}
                )
            backend = self._open_backend()
            try:
                return self._run(backend, timeout)
            except BaseException:
                # Anything that escapes the run — PipelineError, but also
                # a KeyboardInterrupt or an unexpected parent-side
                # failure — must not strand copies: raise the shared
                # abort and reap whatever is still alive first.
                self.close()
                raise
            finally:
                # Unconditional (normal completion, aborts and silently
                # dead children alike), so the run's shared-memory pool
                # never outlives it.
                backend.close()
        finally:
            self._abort = self._results_q = None
            self._procs = []
            self._run_lock.release()

    def _run(self, backend, timeout: Optional[float]) -> RunResult:
        graph = self.graph
        results_q = self._results_q = backend.Queue(0)
        abort = _SharedAbort(backend)
        self._closed = False
        self._abort = abort

        # One wakeup event per (filter, copy) with inputs: producers on
        # any of its in-edges set it after each transition, so an idle
        # copy blocks on its event instead of ticking over its queues.
        wake_events: Dict[Tuple[str, int], Any] = {
            (spec.name, i): backend.Event()
            for spec in graph.filters.values()
            if graph.in_edges(spec.name)
            for i in range(spec.copies)
        }
        abort.attach_wakeups(list(wake_events.values()))

        edges: Dict[Tuple[str, str], _SharedEdge] = {}
        for edge in graph.edges:
            n_dst = graph.copies(edge.dst)
            edges[(edge.src, edge.stream)] = _SharedEdge(
                edge,
                n_dst,
                self.max_queue,
                backend,
                n_producers=graph.copies(edge.src),
                wake=[wake_events[(edge.dst, i)] for i in range(n_dst)],
                poll=self.poll_interval,
            )

        procs = self._procs = []
        start = time.perf_counter()
        for spec in graph.filters.values():
            in_edges = {
                e.stream: edges[(e.src, e.stream)] for e in graph.in_edges(spec.name)
            }
            out_edges = {
                e.stream: edges[(spec.name, e.stream)]
                for e in graph.out_edges(spec.name)
            }
            for i in range(spec.copies):
                p = backend.spawn(
                    _copy_main,
                    (graph, spec.name, i, in_edges, out_edges, results_q,
                     abort, backend, self.retry, self.faults, self.trace,
                     self.poll_interval, wake_events.get((spec.name, i))),
                    f"{spec.name}[{i}]",
                )
                procs.append((p, spec.name, i))

        results: Dict[str, List[Any]] = {}
        busy: Dict[Tuple[str, int], float] = {}
        all_events: List[Any] = list(backend.events)
        failures: List[CopyFailure] = []
        total_retries = 0
        fatal = False
        timed_out = False
        terminal: set = set()  # (name, idx) whose report arrived
        exited_at: Dict[Tuple[str, int], float] = {}
        deadline = None if timeout is None else start + timeout

        # The parent blocks in ``backend.wait`` — on the results queue
        # and, where copies are processes, every live child's sentinel —
        # so a control message or a child death wakes it instantly;
        # _PARENT_WATCHDOG only bounds the deadline/grace bookkeeping
        # below.  Children already in their exit-grace window are not
        # waited on (their sentinel stays permanently ready and would
        # busy-loop the wait); the timeout is clamped to the earliest
        # grace expiry instead.
        while len(terminal) < len(procs):
            wait_timeout = _PARENT_WATCHDOG
            if deadline is not None:
                wait_timeout = min(
                    wait_timeout, max(deadline - time.perf_counter(), 0.0)
                )
            if exited_at:
                first = min(exited_at.values())
                wait_timeout = min(
                    wait_timeout, max(first + _EXIT_GRACE - time.monotonic(), 0.0)
                )
            live = [
                p
                for p, name, idx in procs
                if (name, idx) not in terminal
                and (name, idx) not in exited_at
                and p.exitcode is None
            ]
            msg = backend.wait(results_q, live, wait_timeout)
            if msg is None:
                pass  # watchdog tick, child exit or close() wakeup
            elif msg[0] == _CTRL_DEPOSIT:
                _, key, value = msg
                results.setdefault(key, []).append(value)
            else:
                _, name, idx, failure, t_busy, retries, events = msg
                busy[(name, idx)] = t_busy
                total_retries += retries
                all_events.extend(events)
                terminal.add((name, idx))
                if failure is not None:
                    failures.append(failure)
                    fatal = fatal or not failure.recovered
            if self._closed:
                # close() raised the abort: copies leave on it without a
                # report, so there is nothing to collect and their clean
                # exits are not failures.
                break
            # Watch for children that died without a report (hard kill,
            # segfault, os._exit): synthesize their failure.
            now = time.monotonic()
            for p, name, idx in procs:
                key = (name, idx)
                if key in terminal or p.exitcode is None:
                    continue
                first_seen = exited_at.setdefault(key, now)
                if now - first_seen >= _EXIT_GRACE:
                    failures.append(
                        CopyFailure(
                            filter_name=name,
                            copy_index=idx,
                            error=(
                                f"process exited with code {p.exitcode} "
                                "without reporting completion"
                            ),
                            kind="exitcode",
                            exitcode=p.exitcode,
                        )
                    )
                    terminal.add(key)
                    fatal = True
            if fatal:
                abort.value = 1
                break
            if deadline is not None and time.perf_counter() > deadline:
                timed_out = True
                abort.value = 1
                break

        if abort.value:
            # Give copies a moment to observe the abort, then reap.
            for p, _, _ in procs:
                p.join(timeout=5)
            for p, _, _ in procs:
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=5)
        else:
            # Normal completion: drain any deposits still in flight.
            for p, _, _ in procs:
                p.join(timeout=10)
                if p.is_alive():
                    p.terminate()
            while True:
                try:
                    msg = results_q.get_nowait()
                except queue.Empty:
                    break
                if msg is not None and msg[0] == _CTRL_DEPOSIT:
                    _, key, value = msg
                    results.setdefault(key, []).append(value)
        elapsed = time.perf_counter() - start

        if timed_out:
            raise PipelineError(
                failures, f"pipeline did not finish within {timeout}s"
            )
        if self._closed:
            raise PipelineError(
                failures, f"run closed by {type(self).__name__}.close()"
            )
        if fatal:
            raise PipelineError(failures)

        by_label = {f"{src}:{stream}": e for (src, stream), e in edges.items()}
        buffers_sent = {label: e.router.sent() for label, e in by_label.items()}
        wire_bytes, shm_bytes = backend.traffic(by_label)
        reroutes = sum(e.rerouted.value for e in edges.values())
        events = all_events if self.trace else None
        pool = backend.pool
        return RunResult(
            results=results,
            elapsed=elapsed,
            busy_time=busy,
            buffers_sent=buffers_sent,
            retries=total_retries,
            reroutes=reroutes,
            failed_copies=failures,
            wire_bytes=wire_bytes,
            shm_bytes=shm_bytes,
            metrics=snapshot_run(
                busy,
                buffers_sent,
                total_retries,
                reroutes,
                [(f.filter_name, f.copy_index) for f in failures],
                wire_bytes,
                elapsed,
                events,
                shm_bytes=shm_bytes,
                shm_pool=pool.stats() if pool is not None else None,
            ),
            trace=Trace(events) if events is not None else None,
        )


class LocalRuntime(_PeerRuntime):
    """Executes a validated :class:`FilterGraph` with one thread per copy.

    The peer engine on thread primitives: buffers are handed over by
    reference (``RunResult.wire_bytes`` is empty), filter factories may
    be closures, deposits need not pickle, and nothing forks.

    Parameters
    ----------
    graph:
        The filter network to execute.
    max_queue:
        Bound on each copy's input queue *per input stream*
        (backpressure).  A copy fed by two streams can therefore hold up
        to ``2 * max_queue`` undelivered buffers — the bound was per
        copy across streams before the runtimes shared one engine.
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
        Watchdog granularity in seconds (default 0.05).  Blocked copies
        are woken by an event on every queue transition, so it only
        bounds recovery from a missed wakeup.
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
        # Only None means "use the default": an explicit 0 must reach
        # the validation, not be swallowed by truthiness.
        super().__init__(
            graph, max_queue, retry, faults, trace,
            _POLL if poll_interval is None else poll_interval,
        )

    def _open_backend(self) -> _ThreadBackend:
        return _ThreadBackend()
