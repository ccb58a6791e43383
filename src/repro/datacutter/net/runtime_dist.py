"""Distributed head runtime: one filter graph across many hosts over TCP.

:class:`DistRuntime` is the third execution backend (after the threaded
:class:`~repro.datacutter.runtime_local.LocalRuntime` and the
process-based :class:`~repro.datacutter.runtime_mp.MPRuntime`) and the
first that crosses the machine boundary, the way the paper's DataCutter
deployment does.  The head

* turns the host list plus a :class:`~repro.datacutter.placement.Placement`
  into per-agent copy assignments (:func:`default_placement` builds one
  when the caller has none),
* launches one worker agent per host — loopback hosts are forked
  locally, so ``["127.0.0.1"] * N`` needs no real cluster; other hosts
  must start ``python -m repro.datacutter.net.agent`` themselves with
  the address/token the head prints,
* ships graph and configuration to the agents and then routes every
  stream buffer: agents send produced buffers up, the head schedules
  them onto consumer copies per the stream's policy and relays them
  down, zero-copy end to end through the wire codec.

Membership is fixed when the run starts, as the paper's placement
specs fix it: the head accepts exactly one agent per host, closes its
listener, and never admits another.  The only membership change after
that is an agent dying, which the reroute machinery below recovers.

Flow control is credit based, replacing the single-host runtimes'
shared-memory queue counters: a consumer copy never has more than
``max_queue`` unacknowledged deliveries (the post-process ``ack``
returns the credit), and a producer copy never has more than
``send_window`` buffers awaiting dispatch at the head (the ``scredit``
grant returns that slot).  Because the graph is acyclic and sinks never
block, credits always drain and the pipeline cannot deadlock.

Fault tolerance extends PR 1's model across the wire.  The head keeps
every dispatched buffer in an in-flight table until its ack arrives, so
delivery is at-least-once: when a copy fails (reported by its agent) or
a whole agent dies (socket EOF, missed heartbeats, or a spawned
process's exit code), the dead copies' unacknowledged buffers are
rerouted to surviving transparent copies and the stitching filters'
position-keyed dedup absorbs any re-delivery.  Unrecoverable failures —
a dead source or explicitly-addressed copy, no survivors, rerouting
disabled — abort the run, and :meth:`DistRuntime.run` raises the same
structured :class:`~repro.datacutter.faults.PipelineError` as the local
runtimes.  Connection-level faults (:class:`CrashAgent`,
:class:`DelayConnection`, :class:`DropDeliveries`) are injected on the
agent side of each connection; their targets are agent indices or the
node names derived from the host list.
"""

from __future__ import annotations

import binascii
import os
import queue
import socket
import sys
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from ..buffers import DataBuffer
from ..faults import (
    CopyFailure,
    CrashAgent,
    FaultPlan,
    PipelineError,
    RetryPolicy,
)
from ..graph import FilterGraph, StreamEdge
from ..obs import Trace, Tracer, snapshot_run
from ..placement import Placement
from ..runtime_local import RunResult
from ..routing import EdgeRouter, RoutingError
from . import codec

__all__ = ["DistRuntime", "default_placement"]

#: Granularity of the monitor loop (seconds).
_POLL = 0.05

_LOOPBACK = ("127.0.0.1", "localhost", "::1", "loopback")


def _node_names(hosts: List[str]) -> List[str]:
    """Stable node identifiers for a host list (dedup repeated hosts)."""
    if len(set(hosts)) == len(hosts):
        return list(hosts)
    return [f"{h}#{i}" for i, h in enumerate(hosts)]


def default_placement(graph: FilterGraph, nodes: List[str]) -> Placement:
    """Spread a graph over nodes the way the paper's deployments do.

    Replicated filters whose inputs are all transparent (the compute
    filters — their buffers can go to any copy) spread round-robin over
    nodes 1..N-1; everything else — sources, sinks, single copies and
    explicitly addressed filters — stays on node 0 with the head.  The
    split keeps the unrecoverable copies (sources, explicit stitch
    points) off the nodes whose loss the runtime can survive.
    """
    if not nodes:
        raise ValueError("no nodes to place on")
    placement = Placement()
    n = len(nodes)
    for spec in graph.filters.values():
        in_edges = graph.in_edges(spec.name)
        transparent = bool(in_edges) and all(
            e.policy != "explicit" for e in in_edges
        )
        if spec.copies > 1 and transparent and n > 1:
            for i in range(spec.copies):
                placement.place(spec.name, i, nodes[1 + (i % (n - 1))])
        else:
            for i in range(spec.copies):
                placement.place(spec.name, i, nodes[0])
    return placement


class _AgentConn:
    """Head-side state of one worker agent connection."""

    def __init__(self, index: int, name: str, host: str):
        self.index = index
        self.name = name
        self.host = host
        self.sock: Optional[socket.socket] = None
        self.out_q: "queue.Queue" = queue.Queue()
        self.last_seen = 0.0
        self.dead = False
        self.proc = None  # multiprocessing.Process for spawned agents
        self.pid: Optional[int] = None
        self.reader: Optional[threading.Thread] = None
        self.writer: Optional[threading.Thread] = None


class _Pending:
    """One routed buffer: committed to ``target``, awaiting its credit.

    ``dest`` is the producer's explicit destination (``None`` on a
    transparent edge); ``credited`` turns true once the producer's
    send-window slot has been returned, which happens on the buffer's
    first dispatch only.
    """

    __slots__ = ("buffer", "target", "dest", "src_copy", "credited")

    def __init__(self, buffer: DataBuffer, target: int, dest, src_copy: int):
        self.buffer = buffer
        self.target = target
        self.dest = dest
        self.src_copy = src_copy
        self.credited = False


class _EdgeState:
    """Head-side state of one stream edge: the routing core plus the
    buffers routed but not yet dispatched."""

    def __init__(self, edge: StreamEdge, n_consumers: int, n_producers: int):
        self.edge = edge
        self.key = f"{edge.src}:{edge.stream}"
        self.router = EdgeRouter(
            edge.policy, n_consumers, n_producers, self.key, edge.dst
        )
        self.pending: "deque[_Pending]" = deque()


class DistRuntime:
    """Executes a validated :class:`FilterGraph` across worker agents.

    Parameters
    ----------
    graph:
        The filter network to execute.
    hosts:
        One entry per agent.  Loopback entries (``127.0.0.1`` etc.) are
        forked locally; any other host must launch the agent itself —
        the head prints the exact command when it starts listening.
    placement:
        Copy-to-node assignment over the node names derived from
        ``hosts`` (repeated hosts become ``host#i``); defaults to
        :func:`default_placement`.
    max_queue:
        Per-consumer-copy credit: the bound on unacknowledged deliveries.
    send_window:
        Per-producer-copy bound on buffers awaiting dispatch at the head.
    retry / faults:
        The same objects the single-host runtimes take; connection-level
        faults additionally become valid targets here.
    heartbeat_timeout:
        Seconds without any frame from an agent before it is declared
        dead (agents heartbeat every
        :data:`~repro.datacutter.net.agent.HEARTBEAT_INTERVAL` seconds).
        ``None`` reads the ``REPRO_DIST_HEARTBEAT_TIMEOUT`` environment
        variable and falls back to 5 seconds.
    port / bind_host:
        Listening endpoint; port 0 picks an ephemeral port (fine for
        loopback runs, external agents need a fixed one).
    trace:
        When true, collect :mod:`repro.datacutter.obs` trace events —
        head-side scheduling and wire frames plus per-copy events the
        agents batch home on their terminal messages.  Timestamps are
        wall clock, so spans from different real hosts are only as
        comparable as those hosts' clocks.
    """

    def __init__(
        self,
        graph: FilterGraph,
        hosts: List[str],
        placement: Optional[Placement] = None,
        max_queue: int = 64,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        send_window: int = 16,
        heartbeat_timeout: Optional[float] = None,
        port: int = 0,
        bind_host: str = "",
        connect_timeout: float = 30.0,
        trace: bool = False,
        poll_interval: Optional[float] = None,
    ):
        graph.validate()
        if not hosts:
            raise ValueError("distributed runtime needs at least one host")
        if max_queue < 1 or send_window < 1:
            raise ValueError("max_queue and send_window must be >= 1")
        # Watchdog granularity for the monitor loop, threaded through
        # ``setup`` to every agent's blocking waits.  Only ``None`` means
        # "use the default" — an explicit 0 must fail validation.
        self.poll_interval = (
            _POLL if poll_interval is None else float(poll_interval)
        )
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self.graph = graph
        self.hosts = list(hosts)
        self.node_names = _node_names(self.hosts)
        if placement is None:
            placement = default_placement(graph, self.node_names)
        placement.validate_for(graph)
        unknown = set(placement.nodes()) - set(self.node_names)
        if unknown:
            raise ValueError(
                f"placement uses nodes {sorted(unknown)} not in the host "
                f"list (nodes: {self.node_names})"
            )
        self.placement = placement
        self.max_queue = max_queue
        self.send_window = send_window
        self.retry = retry if retry is not None else RetryPolicy()
        self.faults = faults
        if faults is not None:
            faults.validate(
                {name: spec.copies for name, spec in graph.filters.items()},
                agents=self.node_names,
            )
        if heartbeat_timeout is None:
            heartbeat_timeout = float(
                os.environ.get("REPRO_DIST_HEARTBEAT_TIMEOUT", "5.0")
            )
        if heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")
        self.heartbeat_timeout = heartbeat_timeout
        self.port = port
        self.bind_host = bind_host
        self.connect_timeout = connect_timeout
        self.trace = bool(trace)
        self._run_mutex = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle

    def close(self) -> None:
        """Abort any in-flight run and release its sockets and agents.

        Idempotent, and safe to call from another thread while ``run()``
        is blocked: the run's done event fires, the monitor loop exits,
        and ``run()``'s own teardown closes the agent connections and
        any loopback agent processes.  After a finished run this is a
        no-op — ``run()`` already tore everything down.
        """
        done = getattr(self, "_done_event", None)
        if done is not None and not done.is_set():
            with self._lock:
                self._fatal = True
                self._failures.append(
                    CopyFailure(
                        filter_name="<runtime>",
                        copy_index=-1,
                        error="runtime closed while running",
                        kind="exception",
                    )
                )
            done.set()

    def __enter__(self) -> "DistRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Per-run state (one run at a time, like the single-host runtimes)

    def _reset(self) -> None:
        g = self.graph
        self._tracer = Tracer() if self.trace else None
        self._lock = threading.RLock()
        self._done_event = threading.Event()
        self._fatal = False
        self._stopping = False
        self._failures: List[CopyFailure] = []
        self._results: Dict[str, List[Any]] = {}
        self._busy: Dict[Tuple[str, int], float] = {}
        self._retries = 0
        self._reroutes = 0
        self._wire: Dict[str, int] = {}
        self._wire_lock = threading.Lock()
        self._next_seq = 0
        self._inflight: Dict[int, Tuple[_EdgeState, _Pending]] = {}
        self._status: Dict[Tuple[str, int], str] = {}
        self._outstanding: Dict[Tuple[str, int], int] = {}
        self._agent_of: Dict[Tuple[str, int], int] = {}
        for spec in g.filters.values():
            for i in range(spec.copies):
                self._status[(spec.name, i)] = "running"
                self._outstanding[(spec.name, i)] = 0
                node = self.placement.node_of(spec.name, i)
                self._agent_of[(spec.name, i)] = self.node_names.index(node)
        self._edges: Dict[Tuple[str, str], _EdgeState] = {}
        self._edges_into: Dict[str, List[_EdgeState]] = {
            name: [] for name in g.filters
        }
        for edge in g.edges:
            es = _EdgeState(edge, g.copies(edge.dst), g.copies(edge.src))
            self._edges[(edge.src, edge.stream)] = es
            self._edges_into[edge.dst].append(es)
        self._conns = [
            _AgentConn(i, self.node_names[i], self.hosts[i])
            for i in range(len(self.hosts))
        ]

    def _conn_of(self, filter_name: str, copy_index: int) -> _AgentConn:
        return self._conns[self._agent_of[(filter_name, copy_index)]]

    # ------------------------------------------------------------------
    # Routing (every method below runs with self._lock held)

    def _claim(self, es: _EdgeState, dest: Optional[int]) -> Optional[int]:
        """Claim the core's pick; ``None`` once its verdict is fatal."""
        try:
            return es.router.route(dest)
        except RoutingError as exc:
            self._trigger_fatal(str(exc))
            return None

    def _trigger_fatal(self, message: str) -> None:
        if not self._fatal:
            self._fatal = True
            self._failures.append(
                CopyFailure(
                    filter_name="<runtime>",
                    copy_index=-1,
                    error=message,
                    kind="crash",
                )
            )
        self._done_event.set()

    def _route(
        self,
        src_f: str,
        src_copy: int,
        stream: str,
        dest_copy: Optional[int],
        buffer: DataBuffer,
    ) -> None:
        es = self._edges.get((src_f, stream))
        if es is None:
            self._trigger_fatal(f"send on unknown stream {src_f}:{stream}")
            return
        target = self._claim(es, dest_copy)
        if target is None:
            return
        if self._tracer is not None:
            self._tracer.emit(
                "sched.pick",
                chunk=buffer.metadata.get("chunk"),
                stream=es.edge.stream,
                policy=es.edge.policy,
                dest=target,
            )
        es.pending.append(_Pending(buffer, target, dest_copy, src_copy))
        self._pump_edge(es)

    def _dispatch(self, es: _EdgeState, p: _Pending) -> None:
        dst = es.edge.dst
        seq = self._next_seq
        self._next_seq += 1
        if self._tracer is not None:
            # Consumer-side queue wait is measured from head dispatch; on
            # real multi-host runs this spans two wall clocks.
            p.buffer.metadata["_obs_enq"] = time.time()
        self._inflight[seq] = (es, p)
        self._outstanding[(dst, p.target)] += 1
        self._conn_of(dst, p.target).out_q.put(
            (("buf", dst, p.target, es.edge.stream, seq, p.buffer), es.key)
        )
        # The producer's send-window slot frees as soon as the buffer
        # first leaves the head's pending queue; a re-dispatch after a
        # nack or a reroute returns no second slot.
        if not p.credited:
            p.credited = True
            pconn = self._conn_of(es.edge.src, p.src_copy)
            if not pconn.dead:
                pconn.out_q.put(
                    (("scredit", es.edge.src, p.src_copy, es.edge.stream), None)
                )

    def _retire(self, seq: int) -> Optional[Tuple[_EdgeState, _Pending]]:
        """Take one dispatch off the in-flight table, returning its credit."""
        entry = self._inflight.pop(seq, None)
        if entry is not None:
            es, p = entry
            self._outstanding[(es.edge.dst, p.target)] -= 1
        return entry

    def _pump_edge(self, es: _EdgeState) -> None:
        """Dispatch every pending buffer whose target has credit.

        Entries whose target lacks credit are skipped, not blocked on —
        other producers' buffers for other copies must keep flowing,
        exactly as they do when each producer blocks on its own copy's
        queue in the local runtime.  Per-target FIFO order is preserved.
        """
        dst = es.edge.dst
        if es.pending:
            remaining: "deque[_Pending]" = deque()
            while es.pending:
                p = es.pending.popleft()
                if es.router.dead[p.target]:
                    # Committed but never on the wire: re-pick quietly,
                    # like a producer blocked on a queue whose copy died
                    # (on an explicit edge the core's verdict is fatal).
                    es.router.unclaim(p.target)
                    p.target = self._claim(es, p.dest)
                    if p.target is None:
                        return
                if self._outstanding[(dst, p.target)] < self.max_queue:
                    self._dispatch(es, p)
                else:
                    remaining.append(p)
            es.pending = remaining
        self._maybe_close(es)

    def _maybe_close(self, es: _EdgeState) -> None:
        """Send end-of-stream to every live copy once the edge drained.

        Drained means every producer copy is done *and* nothing is
        pending or unacknowledged anywhere on the edge — so after the
        close no reroute can ever target this edge again, which is the
        distributed form of the local router's sibling condition.  The
        close departs each copy, so it is sent once.
        """
        dst = es.edge.dst
        for i in es.router.live():
            if not es.router.try_close(i):
                return
            conn = self._conn_of(dst, i)
            if not conn.dead:
                conn.out_q.put((("close", dst, i, es.edge.stream), None))

    # ------------------------------------------------------------------
    # Agent message handling

    def _on_frame(self, conn: _AgentConn, msg: Tuple) -> None:
        """One inbound frame: liveness bookkeeping, then dispatch.

        Frames from a connection already declared dead are dropped
        entirely — in particular a late heartbeat must not refresh
        ``last_seen`` and resurrect an agent whose copies were already
        failed over.  A frame that fails to apply fails the run.
        """
        if conn.dead:
            return
        conn.last_seen = time.monotonic()
        try:
            self._handle(conn, msg)
        except Exception as exc:
            # A frame the head cannot apply is a protocol fault, not an
            # agent death: fail the run now rather than at the
            # heartbeat timeout the silently ended reader would cause.
            kind = msg[0] if isinstance(msg, tuple) and msg else type(msg).__name__
            with self._lock:
                self._trigger_fatal(
                    f"bad {kind!r} frame from agent {conn.name}: {exc!r}"
                )

    def _handle(self, conn: _AgentConn, msg: Tuple) -> None:
        kind = msg[0]
        if kind == "hb":
            return
        with self._lock:
            if self._stopping or conn.dead:
                return
            if kind == "send":
                _, src_f, src_copy, stream, dest_copy, buffer = msg
                self._route(src_f, src_copy, stream, dest_copy, buffer)
            elif kind == "ack":
                self._on_ack(msg[1])
            elif kind == "nack":
                self._on_nack(msg[1])
            elif kind == "done":
                _, f, c, busy, retries, events = msg
                if self._tracer is not None:
                    self._tracer.extend(events)
                self._on_done(f, c, busy, retries)
            elif kind == "copy_failed":
                _, failure, busy, retries, events = msg
                if self._tracer is not None:
                    self._tracer.extend(events)
                self._on_copy_failed(failure, busy, retries)
            elif kind == "deposit":
                _, key, value = msg
                self._results.setdefault(key, []).append(value)
            else:  # pragma: no cover - protocol growth guard
                self._trigger_fatal(f"unknown agent message {kind!r}")

    def _on_ack(self, seq: int) -> None:
        entry = self._retire(seq)
        if entry is None:
            return  # late ack for a delivery already rerouted elsewhere
        es, p = entry
        dst = es.edge.dst
        es.router.consume(p.target)
        # The freed credit may unblock this edge and any sibling edge
        # into the same consumer filter.
        for other in self._edges_into[dst]:
            self._pump_edge(other)

    def _on_nack(self, seq: int) -> None:
        """An injected connection drop: re-deliver to the same copy."""
        entry = self._retire(seq)
        if entry is None:
            return
        es, p = entry
        self._retries += 1
        es.pending.appendleft(p)
        self._pump_edge(es)

    def _on_done(self, f: str, c: int, busy: float, retries: int) -> None:
        if self._status.get((f, c)) != "running":
            return
        self._status[(f, c)] = "done"
        self._busy[(f, c)] = busy
        self._retries += retries
        for e in self.graph.out_edges(f):
            es = self._edges[(f, e.stream)]
            es.router.producer_done()
            self._maybe_close(es)
        self._check_complete()

    def _on_copy_failed(
        self, failure: CopyFailure, busy: float, retries: int
    ) -> None:
        key = (failure.filter_name, failure.copy_index)
        if self._status.get(key) != "running":
            return
        self._busy[key] = busy
        self._retries += retries
        self._mark_failed(key)
        self._handle_failed(failure)
        self._check_complete()

    def _mark_failed(self, key: Tuple[str, int]) -> None:
        f, c = key
        self._status[key] = "failed"
        for es in self._edges_into[f]:
            es.router.mark_dead(c)

    def _handle_failed(self, failure: CopyFailure) -> None:
        """Recover from one failed copy (already marked failed)."""
        f, c = failure.filter_name, failure.copy_index
        g = self.graph
        edges_in = self._edges_into[f]
        recoverable = (
            bool(edges_in)  # a dead source's remaining output is unknowable
            and self.retry.reroute
            and all(es.router.rule is not None for es in edges_in)
            # All inputs drained means the copy was finalizing; whatever
            # its finalize would have deposited cannot be rerouted.  An
            # undrained edge has departed no copy, so its live set is
            # the filter's surviving copies.
            and any(
                es.router.live() and not es.router.drained() for es in edges_in
            )
        )
        failure.recovered = recoverable
        self._failures.append(failure)
        if not recoverable:
            self._fatal = True
            self._done_event.set()
            return
        # Reroute every unacknowledged delivery of the dead copy: these
        # were on the wire (or queued at its agent) and never processed.
        for seq in [
            s
            for s, (es, p) in self._inflight.items()
            if es.edge.dst == f and p.target == c
        ]:
            es, p = self._retire(seq)
            es.router.unclaim(c)
            target = self._claim(es, None)
            if target is None:
                return
            self._reroutes += 1
            if self._tracer is not None:
                self._tracer.emit(
                    "fault.reroute",
                    chunk=p.buffer.metadata.get("chunk"),
                    stream=es.edge.stream,
                    dest=target,
                )
            p.target = target
            es.pending.appendleft(p)
        # The dead copy will send no more buffers: tick its out-edges.
        for e in g.out_edges(f):
            self._edges[(f, e.stream)].router.producer_done()
        for es in edges_in:
            self._pump_edge(es)
        for e in g.out_edges(f):
            self._maybe_close(self._edges[(f, e.stream)])

    def _check_complete(self) -> None:
        if all(s != "running" for s in self._status.values()):
            self._done_event.set()

    # ------------------------------------------------------------------
    # Agent death

    def _injected_agent_crash(self, conn: _AgentConn) -> bool:
        if self.faults is None:
            return False
        return any(
            isinstance(s, CrashAgent)
            and (s.agent == conn.index or s.agent == conn.name)
            for s in self.faults.connection_faults()
        )

    def _on_agent_gone(self, conn: _AgentConn, reason: str) -> None:
        with self._lock:
            if conn.dead or self._stopping:
                return
            conn.dead = True
            victims = [
                key
                for key, agent in self._agent_of.items()
                if agent == conn.index and self._status[key] == "running"
            ]
            if not victims:
                return
            injected = self._injected_agent_crash(conn)
            # Mark every victim dead *before* rerouting, so no victim is
            # ever chosen as a reroute target for a sibling copy hosted
            # on the same dead agent.
            for key in victims:
                self._mark_failed(key)
            for f, c in victims:
                self._handle_failed(
                    CopyFailure(
                        filter_name=f,
                        copy_index=c,
                        error=f"agent {conn.name} died: {reason}",
                        kind="crash",
                        injected=injected,
                    )
                )
            self._check_complete()

    # ------------------------------------------------------------------
    # Connection threads

    def _reader(self, conn: _AgentConn) -> None:
        try:
            while True:
                msg = codec.recv_message(conn.sock)
                self._on_frame(conn, msg)
        except (codec.ConnectionClosed, codec.CodecError, OSError) as exc:
            self._on_agent_gone(conn, f"connection lost ({exc})")

    def _writer(self, conn: _AgentConn) -> None:
        while True:
            item = conn.out_q.get()
            if item is None:
                return
            msg, wire_key = item
            try:
                n = codec.send_message(conn.sock, msg)
            except OSError as exc:
                self._on_agent_gone(conn, f"send failed ({exc})")
                return
            if wire_key is not None:
                with self._wire_lock:
                    self._wire[wire_key] = self._wire.get(wire_key, 0) + n
                if self._tracer is not None:
                    # msg is ("buf", dst, target, stream, seq, buffer).
                    self._tracer.emit(
                        "wire.frame",
                        chunk=msg[5].metadata.get("chunk"),
                        stream=msg[3],
                        bytes=n,
                        link=wire_key,
                        agent=conn.name,
                        dest=msg[2],
                    )

    # ------------------------------------------------------------------
    # Startup: listener, spawned agents, handshake

    def _spawn_loopback(self, conn: _AgentConn, port: int, token: str) -> None:
        import multiprocessing

        from .agent import spawned_agent_main

        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(
            target=spawned_agent_main,
            args=("127.0.0.1", port, conn.index, token, self.graph),
            name=f"dc-agent-{conn.index}",
            daemon=True,
        )
        proc.start()
        conn.proc = proc

    def _accept_agents(self, listener: socket.socket, token: str) -> None:
        deadline = time.monotonic() + self.connect_timeout
        waiting = {c.index for c in self._conns}
        listener.settimeout(0.2)
        while waiting:
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"agents {sorted(waiting)} did not connect within "
                    f"{self.connect_timeout}s"
                )
            try:
                sock, _addr = listener.accept()
            except socket.timeout:
                continue
            sock.settimeout(self.connect_timeout)
            try:
                hello = codec.parse_hello(codec.recv_message(sock))
            except (codec.ConnectionClosed, codec.CodecError, OSError):
                sock.close()
                continue
            if (
                hello is None
                or hello.token != token
                or hello.version != codec.PROTOCOL_VERSION
            ):
                # A stranger, a stale agent of another run, or an agent
                # speaking an incompatible protocol revision.
                sock.close()
                continue
            index, pid = hello.index, hello.pid
            if index not in waiting:
                sock.close()
                continue
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = self._conns[index]
            conn.sock = sock
            conn.pid = pid
            waiting.discard(index)

    # ------------------------------------------------------------------
    # Execution

    def run(self, timeout: Optional[float] = None) -> RunResult:
        # One run at a time per instance: all per-run state lives on
        # ``self`` (``_reset``), so a concurrent ``run()`` would splice
        # two jobs' routing, results, and trace events together.  Raise
        # instead; concurrent jobs use separate runtime instances.
        if not self._run_mutex.acquire(blocking=False):
            raise RuntimeError(
                "DistRuntime.run() is already executing; concurrent runs "
                "need separate runtime instances"
            )
        try:
            return self._run_body(timeout)
        except BaseException:
            # Any exception past this point must not leak agent
            # processes, sockets, or reader/writer threads.  _teardown
            # is idempotent, so the normal-path call below is safe too.
            if hasattr(self, "_conns"):
                self._teardown()
            raise
        finally:
            self._run_mutex.release()

    def _run_body(self, timeout: Optional[float] = None) -> RunResult:
        self._reset()
        token = binascii.hexlify(os.urandom(16)).decode()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.bind_host, self.port))
        listener.listen(len(self._conns))
        port = listener.getsockname()[1]
        start = time.perf_counter()
        try:
            for conn in self._conns:
                if conn.host in _LOOPBACK:
                    self._spawn_loopback(conn, port, token)
                else:
                    print(
                        f"[DistRuntime] waiting for agent {conn.index} on "
                        f"{conn.host}: run `python -m "
                        f"repro.datacutter.net.agent --connect "
                        f"<head-address>:{port} --index {conn.index} "
                        f"--token {token}`",
                        file=sys.stderr,
                    )
            self._accept_agents(listener, token)
        except BaseException:
            self._teardown()
            raise
        finally:
            # Membership is fixed from here on: no agent is ever admitted
            # after the initial handshake.
            listener.close()

        now = time.monotonic()
        # Every connection's setup must be queued before ANY reader runs:
        # a reader relaying the first source buffer could otherwise slip
        # a "buf" ahead of a later connection's setup.
        for conn in self._conns:
            conn.last_seen = now
            assignments = sorted(
                key for key, agent in self._agent_of.items()
                if agent == conn.index
            )
            # Spawned agents got the graph through fork memory; external
            # ones need it pickled (their factories must allow that).
            graph = None if conn.proc is not None else self.graph
            conn.out_q.put(
                (
                    (
                        "setup",
                        graph,
                        assignments,
                        self.retry,
                        self.faults,
                        self.send_window,
                        conn.name,
                        self.trace,
                        self.poll_interval,
                    ),
                    None,
                )
            )
            conn.writer = threading.Thread(
                target=self._writer,
                args=(conn,),
                name=f"repro-head-writer-{conn.index}",
                daemon=True,
            )
            conn.writer.start()
        for conn in self._conns:
            conn.reader = threading.Thread(
                target=self._reader,
                args=(conn,),
                name=f"repro-head-reader-{conn.index}",
                daemon=True,
            )
            conn.reader.start()

        deadline = None if timeout is None else time.monotonic() + timeout
        timed_out = False
        while not self._done_event.is_set():
            self._done_event.wait(timeout=self.poll_interval)
            if self._done_event.is_set():
                break
            now = time.monotonic()
            if deadline is not None and now > deadline:
                timed_out = True
                with self._lock:
                    self._fatal = True
                self._done_event.set()
                break
            for conn in self._conns:
                if conn.dead:
                    continue
                if now - conn.last_seen > self.heartbeat_timeout:
                    self._on_agent_gone(conn, "heartbeat timeout")
                elif (
                    conn.proc is not None
                    and conn.proc.exitcode is not None
                    and now - conn.last_seen > 1.0
                ):
                    self._on_agent_gone(
                        conn, f"process exited with code {conn.proc.exitcode}"
                    )
        elapsed = time.perf_counter() - start
        self._teardown()

        if timed_out:
            raise PipelineError(
                self._failures, f"pipeline did not finish within {timeout}s"
            )
        if self._fatal:
            raise PipelineError(self._failures)
        buffers_sent = {es.key: es.router.sent() for es in self._edges.values()}
        events = self._tracer.drain() if self._tracer is not None else None
        return RunResult(
            results=self._results,
            elapsed=elapsed,
            busy_time=dict(self._busy),
            buffers_sent=buffers_sent,
            retries=self._retries,
            reroutes=self._reroutes,
            failed_copies=list(self._failures),
            wire_bytes=dict(self._wire),
            metrics=snapshot_run(
                self._busy,
                buffers_sent,
                self._retries,
                self._reroutes,
                [(f.filter_name, f.copy_index) for f in self._failures],
                self._wire,
                elapsed,
                events,
            ),
            trace=Trace(events) if events is not None else None,
        )

    def _teardown(self) -> None:
        with self._lock:
            self._stopping = True
        for conn in self._conns:
            if conn.sock is not None and not conn.dead:
                conn.out_q.put((("stop",), None))
            conn.out_q.put(None)
        for conn in self._conns:
            if conn.writer is not None:
                conn.writer.join(timeout=5.0)
            if conn.sock is not None:
                try:
                    conn.sock.close()
                except OSError:
                    pass
            if conn.reader is not None:
                conn.reader.join(timeout=5.0)
        for conn in self._conns:
            if conn.proc is not None:
                conn.proc.join(timeout=5.0)
                if conn.proc.exitcode is None:
                    conn.proc.terminate()
                    conn.proc.join(timeout=5.0)
