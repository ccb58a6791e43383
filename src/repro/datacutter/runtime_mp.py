"""Multiprocessing runtime: one OS process per filter copy.

The closest local analog of DataCutter's deployment model: filter copies
are separate processes (as the paper's filters are separate executables
on cluster nodes) and every buffer crossing a stream is genuinely
serialized through an OS pipe — so, unlike the threaded runtime, the
sparse co-occurrence representation actually shrinks inter-filter
traffic here, and replicated texture filters scale past the GIL.

Semantics (stream policies, explicit routing, end-of-stream protocol,
result deposits) match :class:`~repro.datacutter.runtime_local.LocalRuntime`
exactly; both execute the same :class:`~repro.datacutter.graph.FilterGraph`.

Buffers cross the pipes framed by the same wire codec the distributed
TCP runtime uses (:mod:`repro.datacutter.net.codec`): ndarray payloads
travel as out-of-band buffers instead of being pickled in-band, and each
edge counts the bytes it moved, reported as ``RunResult.wire_bytes``.

With ``transport="shm"`` the pipes stop carrying payloads at all:
ndarray payloads above a size threshold are written once into a
reference-counted shared-memory slab pool
(:mod:`repro.datacutter.net.shm`) and the frame crossing the pipe
shrinks to a header plus slab descriptor; consumers map the slab and
rebuild the arrays zero-copy.  Payload bytes handed over this way are
accounted separately as ``RunResult.shm_bytes``, and the pool's
occupancy/hit-rate snapshot lands in ``RunResult.metrics``.  The pool
is created by the parent before forking and unconditionally destroyed
(slabs unlinked) when the run ends — normal completion, aborts, and
silently-dead children alike — so ``/dev/shm`` never accumulates
segments across runs.

Fault tolerance matches the threaded runtime too, with the extra failure
mode real deployments have: a child can die without saying goodbye.  The
parent therefore watches every child's exitcode while it collects control
messages; a child that exits without its terminal message gets a
synthesized :class:`CopyFailure` (``kind="exitcode"``) and the shared
abort flag unblocks everyone — ``run()`` raises a structured
:class:`PipelineError` in bounded time instead of hanging on
``results_q.get()``.  Recoverable failures are handled child-side: a copy
whose ``process()`` exhausts its retries marks itself dead in the shared
edge state (so producers stop picking it), reroutes its in-hand buffer,
and keeps draining its queue — re-delivering everything to surviving
copies — until its input streams close.  End-of-stream is router-level,
as in the threaded runtime: shared ``producers_done`` counters plus an
atomic departed/queued check, so a survivor can never shut down while a
dying sibling still holds buffers destined for it.

Wakeups are event-driven: every queue transition a blocked peer could
be waiting on — a delivery, a producer finishing its share of a stream,
the last in-flight buffer of an edge draining, the shared abort being
raised — sets a per-copy ``multiprocessing.Event``, so consumers wake
immediately instead of discovering the transition at a poll tick.  The
``poll_interval`` (default 0.02 s) is only a watchdog bounding how long
a *missed* wakeup could go unnoticed.  The parent does not tick either:
it blocks in ``multiprocessing.connection.wait`` on the results queue
and the child sentinels at once, so both a control message and a silent
child death wake it instantly.

Notes
-----
* Requires a ``fork``-capable platform (Linux): filter factories may be
  closures and are called inside the child.
* Demand-driven scheduling uses shared queue-depth counters; with
  multiple producer processes the decision is approximate (reads are not
  globally serialized with deliveries), which mirrors the real
  DataCutter scheduler observing consumption asynchronously.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import threading
import time
import traceback
from multiprocessing import connection as mp_connection
from typing import Any, Dict, List, Optional, Tuple

from .buffers import DataBuffer
from .faults import (
    NULL_INJECTOR,
    CopyFailure,
    FaultPlan,
    PipelineError,
    RetryPolicy,
    _Aborted,
    _CopyDied,
    _process_with_retry,
)
from .filter import FilterContext
from .graph import FilterGraph, StreamEdge
from .net import shm
from .obs import Trace, Tracer, snapshot_run
from .runtime_local import RunResult

__all__ = ["MPRuntime", "TRANSPORTS"]

TRANSPORTS = ("pipe", "shm")

_CTRL_DONE = "__copy_done__"
_CTRL_ERROR = "__copy_error__"
_CTRL_FAILED = "__copy_failed__"
_CTRL_DEPOSIT = "__deposit__"

#: Watchdog granularity (seconds).  Every transition a blocked peer
#: waits on raises a wakeup event, so this only bounds how long a
#: *missed* wakeup could go unnoticed.  Overridable per run via
#: ``MPRuntime(poll_interval=...)``.
_POLL = 0.02
#: Parent watchdog: the parent is woken by the results queue and child
#: sentinels directly, so its fallback tick can be long.
_PARENT_WATCHDOG = 1.0
#: How long after a child exits the parent waits for its (possibly still
#: buffered) terminal message before declaring it silently dead.
_EXIT_GRACE = 2.0
#: Exit status used for injected hard kills (mimics an uncaught signal).
_HARD_EXIT = 19


class _SharedAbort:
    """Cross-process abort flag with event-driven wakeup.

    Keeps the ``abort.value`` read/write contract of the plain
    ``ctx.Value`` it replaces, but raising it also sets an event (so
    retry backoffs can block on :meth:`wait` instead of sleeping in poll
    ticks) and every per-copy wakeup event attached before the fork (so
    consumers blocked on their input wait unblock immediately).
    """

    def __init__(self, ctx):
        self._flag = ctx.Value("i", 0)
        self._event = ctx.Event()
        self._wakeups: List[Any] = []

    def attach_wakeups(self, events: List[Any]) -> None:
        """Register events to set on abort (call before forking)."""
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
    """Cross-process routing state for one stream edge.

    ``wake`` holds one ``ctx.Event`` per consumer copy of the
    destination filter — shared by every edge into that filter — set on
    each transition a blocked consumer could be waiting on.
    """

    def __init__(
        self,
        edge: StreamEdge,
        num_consumers: int,
        max_queue: int,
        ctx,
        n_producers: int,
        wake: List[Any],
        pool: Optional[shm.ShmPool] = None,
        poll: float = _POLL,
    ):
        self.edge = edge
        self.num_consumers = num_consumers
        self.n_producers = n_producers
        self.pool = pool
        self.poll = poll
        self.wake = wake
        self.queues = [ctx.Queue(maxsize=max_queue) for _ in range(num_consumers)]
        self.lock = ctx.Lock()
        # Shared per-consumer depth and assignment counters.
        self.queued = ctx.Array("l", [0] * num_consumers)
        self.assigned = ctx.Array("l", [0] * num_consumers)
        # 1 where the consumer copy has been declared dead.
        self.dead = ctx.Array("i", [0] * num_consumers)
        # 1 where the consumer copy closed the stream cleanly.
        self.departed = ctx.Array("i", [0] * num_consumers)
        # Producer copies that finished sending (router-level EOS).
        self.producers_done = ctx.Value("l", 0)
        self.rr_next = ctx.Value("l", 0)
        self.sent = ctx.Value("l", 0)
        self.rerouted = ctx.Value("l", 0)
        self.wire = ctx.Value("l", 0)
        # Payload bytes handed over via pool slabs instead of the pipe.
        self.shm = ctx.Value("l", 0)

    def mark_dead(self, idx: int) -> None:
        with self.lock:
            self.dead[idx] = 1
        # Siblings may be able to close now that this copy no longer
        # counts as a live reroute target; have them re-check.
        self._wake_all()

    def _wake_all(self) -> None:
        for ev in self.wake:
            ev.set()

    def producer_done(self) -> None:
        """One producer copy finished (its share of the stream is sent)."""
        with self.lock:
            self.producers_done.value += 1
        # Wake every consumer so it re-checks closure immediately instead
        # of discovering the EOS at its next watchdog tick.
        self._wake_all()

    def try_close(self, idx: int) -> bool:
        """Atomically close consumer copy ``idx``'s view of the stream.

        True once every producer copy is done and every copy's delivery
        accounting drained to zero.  The sibling condition is deliberate:
        while *any* sibling (alive or dead) still holds buffers, that
        sibling could yet fail and need this copy as a reroute target.
        The close marks the copy departed under the routing lock, so it
        can never race a concurrent re-delivery.
        """
        with self.lock:
            if self.departed[idx]:
                return True
            if self.producers_done.value < self.n_producers:
                return False
            for j in range(self.num_consumers):
                if self.queued[j]:
                    return False
            self.departed[idx] = 1
            return True

    def has_survivors(self) -> bool:
        with self.lock:
            return any(
                self.dead[i] == 0 and self.departed[i] == 0
                for i in range(self.num_consumers)
            )

    def choose(self, buffer: DataBuffer, abort) -> int:
        policy = self.edge.policy
        with self.lock:
            alive = [
                i
                for i in range(self.num_consumers)
                if self.dead[i] == 0 and self.departed[i] == 0
            ]
            if not alive:
                abort.value = 1
                raise _Aborted()
            if policy == "round_robin":
                idx = alive[self.rr_next.value % len(alive)]
                self.rr_next.value += 1
            elif policy == "demand_driven":
                idx = min(alive, key=lambda i: (self.queued[i], self.assigned[i], i))
            else:
                raise RuntimeError(
                    f"stream {self.edge.stream!r} is explicit: dest_copy required"
                )
            self.queued[idx] += 1
            self.assigned[idx] += 1
            self.sent.value += 1
        return idx

    def assign_explicit(self, idx: int, abort) -> None:
        if not (0 <= idx < self.num_consumers):
            raise RuntimeError(
                f"stream {self.edge.stream!r}: dest copy {idx} out of range"
            )
        with self.lock:
            if self.dead[idx] or self.departed[idx]:
                # Explicit placement is semantic (all pieces of one chunk
                # meet at one copy); a dead destination is unrecoverable.
                abort.value = 1
                raise _Aborted()
            self.queued[idx] += 1
            self.assigned[idx] += 1
            self.sent.value += 1

    def unassign(self, idx: int) -> None:
        with self.lock:
            self.queued[idx] -= 1
            self.assigned[idx] -= 1
            self.sent.value -= 1

    def on_consume(self, idx: int) -> None:
        with self.lock:
            self.queued[idx] -= 1
            drained = self.producers_done.value >= self.n_producers and not any(
                self.queued[j] for j in range(self.num_consumers)
            )
        if drained:
            # The last in-flight buffer on this edge just completed:
            # every copy can now close, so don't make them wait out a
            # watchdog tick to notice.
            self._wake_all()

    def deliver(
        self, buffer: DataBuffer, dest_copy: Optional[int], abort, tracer=None
    ) -> None:
        """Abort-aware routed put; repicks if the chosen copy dies."""
        explicit = self.edge.policy == "explicit"
        if tracer is not None:
            # Enqueue timestamp rides inside the frame so the consumer
            # process can measure queue wait across the pipe.
            buffer.metadata["_obs_enq"] = time.time()
        # Frame once: the same bytes fit whichever copy wins the re-pick.
        # Large ndarray payloads land in a pool slab (one copy, consumer
        # maps it zero-copy); the frame then carries only the descriptor.
        item, wire_n, shm_n = shm.dumps((self.edge.stream, buffer), self.pool)
        while True:
            if explicit:
                if dest_copy is None:
                    raise RuntimeError(
                        f"stream {self.edge.stream!r} is explicit: "
                        "dest_copy required"
                    )
                idx = dest_copy
                self.assign_explicit(idx, abort)
            else:
                if dest_copy is not None:
                    raise RuntimeError(
                        f"stream {self.edge.stream!r} is {self.edge.policy}: "
                        "dest_copy only valid on explicit streams"
                    )
                idx = self.choose(buffer, abort)
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
                    # Undo the claim from choose()/assign_explicit():
                    # a leaked positive depth counter would make an
                    # idle consumer block on a frame that never lands.
                    self.unassign(idx)
                    raise _Aborted()
                if not explicit and self.dead[idx]:
                    # Died while we were blocked: undo and re-pick.
                    self.unassign(idx)
                    with self.lock:
                        self.rerouted.value += 1
                    break
                try:
                    # Bounded, not `poll`: a full queue (backpressure,
                    # or a silently dead consumer) must re-check abort
                    # and copy death promptly — the semaphore wait
                    # cannot be interrupted by either.
                    self.queues[idx].put(item, timeout=min(self.poll, 0.05))
                    self.wake[idx].set()
                    with self.lock:
                        self.wire.value += wire_n
                        self.shm.value += shm_n
                    if tracer is not None:
                        tracer.emit(
                            "wire.frame",
                            chunk=buffer.metadata.get("chunk"),
                            stream=self.edge.stream,
                            bytes=wire_n,
                            dest=idx,
                        )
                        if shm_n:
                            tracer.emit(
                                "shm.frame",
                                chunk=buffer.metadata.get("chunk"),
                                stream=self.edge.stream,
                                bytes=shm_n,
                                dest=idx,
                            )
                    return
                except queue_mod.Full:
                    continue

    def reroute(self, buffer: DataBuffer, abort, tracer=None) -> None:
        with self.lock:
            self.rerouted.value += 1
        self.deliver(buffer, None, abort, tracer)


class _MPContext(FilterContext):
    def __init__(
        self,
        filter_name,
        copy_index,
        num_copies,
        out_edges,
        results_q,
        abort,
        tracer=None,
    ):
        super().__init__(filter_name, copy_index, num_copies)
        self._out = out_edges
        self._results_q = results_q
        self._abort = abort
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
            shared = self._out[stream]
        except KeyError:
            raise RuntimeError(
                f"filter {self.filter_name!r} has no output stream {stream!r}"
            ) from None
        buf = DataBuffer(
            payload=payload, size_bytes=size_bytes, metadata=dict(metadata or {})
        )
        shared.deliver(buf, dest_copy, self._abort, self._tracer)

    def deposit(self, key, value):
        self._results_q.put((_CTRL_DEPOSIT, key, value))


def _copy_main(
    graph: FilterGraph,
    spec_name: str,
    copy_index: int,
    in_edges: Dict[str, _SharedEdge],
    out_edges: Dict[str, _SharedEdge],
    results_q,
    abort,
    retry: RetryPolicy,
    faults: Optional[FaultPlan],
    trace: bool = False,
    pool: Optional[shm.ShmPool] = None,
    poll: float = _POLL,
    wake=None,
) -> None:
    """Child-process entry point for one filter copy.

    ``wake`` is this copy's wakeup event (``None`` for a source, which
    has no input to wait on): producers set it after every delivery and
    on every edge transition, so the input wait below blocks on it
    instead of ticking over the queues at ``poll`` granularity.
    """
    spec = graph.filters[spec_name]
    injector = (
        faults.injector_for(spec_name, copy_index)
        if faults is not None
        else NULL_INJECTOR
    )
    # Per-child tracer: events batch locally and ride home on the
    # terminal control message, so tracing adds no per-buffer IPC.
    tracer = Tracer() if trace else None
    t_busy = 0.0
    retries = 0
    reroutes = 0
    terminal_sent = False
    dead_failure: Optional[CopyFailure] = None

    def count_retry() -> None:
        nonlocal retries
        retries += 1

    try:
        filt = spec.factory()
        ctx = _MPContext(
            spec_name, copy_index, spec.copies, out_edges, results_q, abort, tracer
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
            open_streams = set(in_edges)
            while open_streams:
                if abort.value:
                    raise _Aborted()
                # Sweep each open input edge's queue for this copy
                # without blocking (the wakeup event is the blocking
                # point).
                item = None
                for stream in list(open_streams):
                    try:
                        item = in_edges[stream].queues[copy_index].get_nowait()
                    except queue_mod.Empty:
                        continue
                    break
                if item is None:
                    # Nothing queued: see whether any stream can close
                    # (all producers done, nothing pending here or on a
                    # dead sibling still draining).
                    closed = False
                    for stream in list(open_streams):
                        if in_edges[stream].try_close(copy_index):
                            open_streams.discard(stream)
                            closed = True
                    if closed or not open_streams:
                        continue
                    # Decide how to block.  A positive shared
                    # depth counter means a frame for this copy is still
                    # in flight through that queue's feeder pipe (the
                    # counter is bumped before the put) — block on that
                    # pipe, which wakes the instant the bytes land.
                    pending = [
                        s
                        for s in open_streams
                        if in_edges[s].queued[copy_index] > 0
                    ]
                    if pending:
                        # Bounded, not `poll`: the frame normally lands
                        # within microseconds, and if the counter lies
                        # (producer hard-killed between its claim and
                        # its put) the loop must re-check abort/EOS
                        # promptly rather than sit out the watchdog.
                        try:
                            item = in_edges[pending[0]].queues[
                                copy_index
                            ].get(timeout=min(poll, 0.05))
                        except queue_mod.Empty:
                            continue
                    else:
                        # Truly idle: wait on the wakeup event.  The
                        # no-lost-wakeup protocol is clear *first*, then
                        # re-check everything the event guards: a
                        # producer bumps counters before setting the
                        # event, so state changed before the clear is
                        # visible in the re-check, and state changed
                        # after it re-raises the event and the wait
                        # returns immediately.  The watchdog timeout
                        # only bounds the impossible case.
                        wake.clear()
                        ready = any(
                            in_edges[s].queued[copy_index]
                            for s in open_streams
                        )
                        reclosed = False
                        for stream in list(open_streams):
                            if in_edges[stream].try_close(copy_index):
                                open_streams.discard(stream)
                                reclosed = True
                        if not ready and not reclosed and open_streams:
                            if abort.value:
                                raise _Aborted()
                            wake.wait(timeout=max(poll, 0.05))
                        continue
                stream, payload = shm.loads(item, pool)
                shared = in_edges[stream]
                if tracer is not None:
                    chunk_id = payload.metadata.get("chunk")
                    enq = payload.metadata.pop("_obs_enq", None)
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
                        depth=int(shared.queued[copy_index]),
                    )
                if dead_failure is not None:
                    # Drain mode: this copy is gone, but it keeps its
                    # queue moving — every buffer is re-delivered to a
                    # surviving copy, so producers never block on a dead
                    # queue.  Re-deliver *before* on_consume so the
                    # buffer is never invisible to try_close.
                    reroutes += 1
                    if tracer is not None:
                        tracer.emit(
                            "fault.reroute",
                            filter=spec_name,
                            copy=copy_index,
                            chunk=payload.metadata.get("chunk"),
                            stream=stream,
                        )
                    shared.reroute(payload, abort, tracer)
                    shared.on_consume(copy_index)
                    continue
                try:
                    dt = _process_with_retry(
                        filt, stream, payload, ctx, injector, retry,
                        abort.wait, count_retry, hard_exit=_HARD_EXIT,
                    )
                    t_busy += dt
                    if tracer is not None:
                        tracer.emit(
                            "service",
                            filter=spec_name,
                            copy=copy_index,
                            dur=dt,
                            chunk=payload.metadata.get("chunk"),
                            stream=stream,
                        )
                    shared.on_consume(copy_index)
                except _CopyDied as died:
                    for e in in_edges.values():
                        e.mark_dead(copy_index)
                    failure = CopyFailure(
                        filter_name=spec_name,
                        copy_index=copy_index,
                        error=repr(died.cause),
                        kind="crash" if died.injected else "exception",
                        injected=died.injected,
                    )
                    recoverable = (
                        retry.reroute
                        and all(
                            e.edge.policy != "explicit" for e in in_edges.values()
                        )
                        and all(e.has_survivors() for e in in_edges.values())
                    )
                    if not recoverable:
                        results_q.put(
                            (_CTRL_FAILED, failure, t_busy, retries, reroutes,
                             tracer.drain() if tracer is not None else [])
                        )
                        terminal_sent = True
                        abort.value = 1
                        raise _Aborted() from died
                    failure.recovered = True
                    dead_failure = failure
                    reroutes += 1
                    if tracer is not None:
                        tracer.emit(
                            "fault.reroute",
                            filter=spec_name,
                            copy=copy_index,
                            chunk=payload.metadata.get("chunk"),
                            stream=stream,
                        )
                    shared.reroute(payload, abort, tracer)
                    shared.on_consume(copy_index)
        if dead_failure is None:
            t0 = time.perf_counter()
            filt.finalize(ctx)
            t_busy += time.perf_counter() - t0
    except _Aborted:
        return  # parent already knows (or set the abort itself)
    except BaseException:  # noqa: BLE001 - reported to parent
        results_q.put((_CTRL_ERROR, spec_name, copy_index, traceback.format_exc()))
        terminal_sent = True
    finally:
        # Tick router-level EOS (never blocks), then report completion.
        # Consumers must never wait for a producer copy that is gone.
        for e in graph.out_edges(spec_name):
            out_edges[e.stream].producer_done()
        if not terminal_sent and not abort.value:
            if tracer is not None:
                tracer.emit(
                    "copy.done",
                    filter=spec_name,
                    copy=copy_index,
                    busy=t_busy,
                    dead=dead_failure is not None,
                )
            events = tracer.drain() if tracer is not None else []
            if dead_failure is not None:
                results_q.put(
                    (_CTRL_FAILED, dead_failure, t_busy, retries, reroutes, events)
                )
            else:
                results_q.put(
                    (_CTRL_DONE, spec_name, copy_index, t_busy, retries, events)
                )


class MPRuntime:
    """Executes a filter graph with one process per filter copy.

    Accepts the same ``retry`` / ``faults`` parameters as
    :class:`~repro.datacutter.runtime_local.LocalRuntime`.

    Parameters
    ----------
    transport:
        ``"pipe"`` (default) frames every payload through the OS pipe;
        ``"shm"`` hands large ndarray payloads over via a shared-memory
        slab pool and pipes only descriptors (see
        :mod:`repro.datacutter.net.shm`).
    shm_segments / shm_segment_bytes / shm_threshold:
        Pool geometry for ``transport="shm"`` — slab count, slab size,
        and the payload size below which frames stay in-band.
    shm_pool:
        An externally owned :class:`~repro.datacutter.net.shm.ShmPool`
        to use instead of creating (and destroying) one per run.  The
        caller keeps ownership: the pool survives ``run()`` so warm
        reuse across jobs skips the slab allocation, and the caller must
        eventually destroy it (``close()`` on this runtime does *not*).
        Only valid with ``transport="shm"``.
    poll_interval:
        Watchdog granularity in seconds (default 0.02).  The parent and
        every child block on event-driven wakeups raised at each queue
        transition, so it only bounds recovery from a missed wakeup.
    """

    def __init__(
        self,
        graph: FilterGraph,
        max_queue: int = 16,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        trace: bool = False,
        transport: str = "pipe",
        shm_segments: int = 32,
        shm_segment_bytes: int = 32 << 20,
        shm_threshold: int = 64 << 10,
        shm_pool: Optional[shm.ShmPool] = None,
        poll_interval: Optional[float] = None,
    ):
        graph.validate()
        for name in graph.filters:
            streams = [e.stream for e in graph.in_edges(name)]
            if len(streams) != len(set(streams)):
                raise ValueError(
                    f"filter {name!r} has duplicate input stream names: {streams}"
                )
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
            )
        if shm_pool is not None and transport != "shm":
            raise ValueError("shm_pool= requires transport='shm'")
        self.graph = graph
        self.max_queue = max_queue
        self.retry = retry if retry is not None else RetryPolicy()
        self.faults = faults
        self.trace = bool(trace)
        self.transport = transport
        self.shm_segments = int(shm_segments)
        self.shm_segment_bytes = int(shm_segment_bytes)
        self.shm_threshold = int(shm_threshold)
        # Only None means "use the default": an explicit 0 (or any other
        # non-positive value) must reach the validation below, not be
        # silently swallowed by truthiness.
        self.poll_interval = (
            _POLL if poll_interval is None else float(poll_interval)
        )
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self.shm_pool = shm_pool
        self._run_lock = threading.Lock()
        self._procs: List[Tuple[mp.Process, str, int]] = []
        self._abort = None
        # True once close() raised the in-flight run's abort: children
        # leaving on it are healthy, not silently dead.
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Abort any in-flight run and reap its child processes.

        Idempotent, and safe to call from another thread while ``run()``
        is blocked: the abort flag unwedges every child, leftovers are
        terminated, and ``run()`` raises a :class:`PipelineError` saying
        the run was closed.  An externally supplied ``shm_pool``
        stays alive (its owner destroys it); a per-run pool is already
        destroyed by ``run()``'s own unwind.
        """
        abort = self._abort
        if abort is not None:
            self._closed = True
            abort.value = 1
        for p, _, _ in list(self._procs):
            p.join(timeout=5)
            if p.is_alive():
                p.terminate()
                p.join(timeout=5)

    def __enter__(self) -> "MPRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def run(self, timeout: Optional[float] = None) -> RunResult:
        if not self._run_lock.acquire(blocking=False):
            raise RuntimeError(
                "MPRuntime.run() is already executing; concurrent runs "
                "need separate runtime instances"
            )
        try:
            return self._run_guarded(timeout)
        finally:
            self._abort = None
            self._procs = []
            self._run_lock.release()

    def _run_guarded(self, timeout: Optional[float]) -> RunResult:
        graph = self.graph
        if self.faults is not None:
            self.faults.validate(
                {name: spec.copies for name, spec in graph.filters.items()}
            )
        ctx = mp.get_context("fork")
        pool: Optional[shm.ShmPool] = self.shm_pool
        owned = pool is None and self.transport == "shm"
        if owned:
            pool = shm.ShmPool(
                ctx,
                segments=self.shm_segments,
                segment_bytes=self.shm_segment_bytes,
                threshold=self.shm_threshold,
            )
        try:
            return self._run(ctx, pool, timeout)
        except BaseException:
            # Anything that escapes the run — PipelineError, but also a
            # KeyboardInterrupt or an unexpected parent-side failure —
            # must not strand children: raise the shared abort and reap
            # whatever is still alive before propagating.
            self.close()
            raise
        finally:
            # Unconditional: normal completion, PipelineError aborts, and
            # the exitcode-watcher path for silently dead children all
            # land here, so /dev/shm never accumulates segments.  A pool
            # handed in by the caller (warm reuse across jobs) is the
            # caller's to destroy.
            if owned and pool is not None:
                pool.destroy()

    def _run(
        self,
        ctx,
        pool: Optional[shm.ShmPool],
        timeout: Optional[float],
    ) -> RunResult:
        graph = self.graph
        results_q = ctx.Queue()
        abort = _SharedAbort(ctx)
        self._closed = False
        self._abort = abort

        # One wakeup event per (filter, copy) with inputs: producers on
        # any of its in-edges set it after each transition, so an idle
        # copy blocks on its event instead of ticking over its queues.
        wake_events: Dict[Tuple[str, int], Any] = {}
        for spec in graph.filters.values():
            if graph.in_edges(spec.name):
                for i in range(spec.copies):
                    wake_events[(spec.name, i)] = ctx.Event()
        abort.attach_wakeups(list(wake_events.values()))

        edges: Dict[Tuple[str, str], _SharedEdge] = {}
        for edge in graph.edges:
            edges[(edge.src, edge.stream)] = _SharedEdge(
                edge,
                graph.copies(edge.dst),
                self.max_queue,
                ctx,
                n_producers=graph.copies(edge.src),
                wake=[
                    wake_events[(edge.dst, i)]
                    for i in range(graph.copies(edge.dst))
                ],
                pool=pool,
                poll=self.poll_interval,
            )

        procs: List[Tuple[mp.Process, str, int]] = []
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
                p = ctx.Process(
                    target=_copy_main,
                    args=(graph, spec.name, i, in_edges, out_edges, results_q,
                          abort, self.retry, self.faults, self.trace,
                          pool, self.poll_interval,
                          wake_events.get((spec.name, i))),
                    name=f"{spec.name}[{i}]",
                )
                p.start()
                procs.append((p, spec.name, i))
        self._procs = procs

        results: Dict[str, List[Any]] = {}
        busy: Dict[Tuple[str, int], float] = {}
        all_events: List[Any] = []
        failures: List[CopyFailure] = []
        total_retries = 0
        drain_reroutes = 0
        fatal = False
        timed_out = False
        terminal: set = set()  # (name, idx) that sent DONE/FAILED/ERROR
        exited_at: Dict[Tuple[str, int], float] = {}
        deadline = None if timeout is None else start + timeout

        # The parent blocks on the results queue's underlying pipe plus
        # every live child's sentinel, so a control message or a child
        # death wakes it instantly; _PARENT_WATCHDOG only bounds the
        # deadline/grace bookkeeping below.  Children already in their
        # exit-grace window are excluded from the waitables (their
        # sentinel stays permanently ready and would busy-loop the
        # wait); the timeout is clamped to the earliest grace expiry
        # instead.
        reader = results_q._reader

        while len(terminal) < len(procs):
            wait_timeout = _PARENT_WATCHDOG
            if deadline is not None:
                wait_timeout = min(
                    wait_timeout,
                    max(deadline - time.perf_counter(), 0.0),
                )
            if exited_at:
                first = min(exited_at.values())
                wait_timeout = min(
                    wait_timeout,
                    max(first + _EXIT_GRACE - time.monotonic(), 0.0),
                )
            waitables: List[Any] = [reader]
            for p, name, idx in procs:
                key = (name, idx)
                if (
                    key not in terminal
                    and key not in exited_at
                    and p.exitcode is None
                ):
                    waitables.append(p.sentinel)
            if wait_timeout > 0:
                mp_connection.wait(waitables, timeout=wait_timeout)
            try:
                msg = results_q.get_nowait()
            except queue_mod.Empty:
                msg = None
            if msg is not None:
                kind = msg[0]
                if kind == _CTRL_DEPOSIT:
                    _, key, value = msg
                    results.setdefault(key, []).append(value)
                elif kind == _CTRL_DONE:
                    _, name, idx, t_busy, retries, events = msg
                    busy[(name, idx)] = t_busy
                    total_retries += retries
                    all_events.extend(events)
                    terminal.add((name, idx))
                elif kind == _CTRL_FAILED:
                    _, failure, t_busy, retries, reroutes, events = msg
                    busy[(failure.filter_name, failure.copy_index)] = t_busy
                    total_retries += retries
                    drain_reroutes += reroutes
                    all_events.extend(events)
                    failures.append(failure)
                    terminal.add((failure.filter_name, failure.copy_index))
                    if not failure.recovered:
                        fatal = True
                elif kind == _CTRL_ERROR:
                    _, name, idx, tb = msg
                    failures.append(
                        CopyFailure(
                            filter_name=name,
                            copy_index=idx,
                            error=tb.strip(),
                            kind="exception",
                        )
                    )
                    terminal.add((name, idx))
                    fatal = True
            if self._closed:
                # close() raised the abort: children leave on it without
                # a terminal message, so there is nothing to collect and
                # their clean exits are not failures.
                break
            # Watch for children that died without a terminal message
            # (hard kill, segfault, os._exit): synthesize their failure.
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
            # Give children a moment to observe the abort, then reap.
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
                except queue_mod.Empty:
                    break
                if msg[0] == _CTRL_DEPOSIT:
                    _, key, value = msg
                    results.setdefault(key, []).append(value)
        elapsed = time.perf_counter() - start

        if timed_out:
            raise PipelineError(
                failures, f"pipeline did not finish within {timeout}s"
            )
        if self._closed:
            raise PipelineError(failures, "run closed by MPRuntime.close()")
        if fatal:
            raise PipelineError(failures)

        buffers_sent = {
            f"{src}:{stream}": e.sent.value for (src, stream), e in edges.items()
        }
        wire_bytes = {
            f"{src}:{stream}": e.wire.value for (src, stream), e in edges.items()
        }
        shm_bytes = (
            {f"{src}:{stream}": e.shm.value for (src, stream), e in edges.items()}
            if pool is not None
            else {}
        )
        reroutes = sum(e.rerouted.value for e in edges.values())
        events = all_events if self.trace else None
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
                shm_bytes=shm_bytes if pool is not None else None,
                shm_pool=pool.stats() if pool is not None else None,
            ),
            trace=Trace(events) if events is not None else None,
        )
