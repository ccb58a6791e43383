"""Worker agent: hosts filter copies on one machine and bridges their
streams to the head over a single TCP connection.

One agent runs per host of a distributed run.  It connects to the head
(:class:`~repro.datacutter.net.runtime_dist.DistRuntime`), receives its
``setup`` (which filter copies it hosts, retry policy, fault plan), and
runs each copy in its own thread with the same lifecycle as the local
runtimes: ``initialize`` → ``generate``/``process`` per buffer →
``finalize``.  Routing stays at the head — a copy's ``ctx.send`` just
frames the buffer back to the head, which schedules it onto a consumer
copy (possibly on another agent).

Flow control is credit-based end to end:

* Inbound, the head never has more than the per-copy queue depth of
  unacknowledged deliveries outstanding to any copy; the ``ack`` the
  agent sends after a buffer is processed returns the credit.
* Outbound, each producing copy holds a bounded *send window*; the head
  grants a slot back (``scredit``) whenever one of the copy's buffers is
  dispatched to a consumer.  A producer therefore blocks — abort-aware —
  instead of flooding the head's pending queues, which is how bounded
  stream buffers behave in DataCutter.

All frames leave through one writer thread, so they never interleave and
TCP ordering does the protocol work: a copy's ``send`` frames reach the
head strictly before its ``ack``/``done``, so the head's edge-drain
accounting can never miss children of a buffer it believes consumed.

Fault injection: copy-level faults from the shared
:class:`~repro.datacutter.faults.FaultPlan` run inside the copy threads
exactly as in the local runtimes; connection-level faults
(:class:`~repro.datacutter.faults.CrashAgent` & friends) run in the
dispatcher — a crash kills the whole process with ``os._exit`` so the
head's death detection, not a polite goodbye, has to notice.

External hosts launch the agent standalone::

    python -m repro.datacutter.net.agent --connect HEAD:PORT \\
        --index I --token TOKEN

in which case the filter graph arrives pickled inside ``setup`` (filter
factories must then be importable module-level callables, and source
filters that read the dataset need it on a shared filesystem).  Loopback
agents are forked by the head and inherit the graph through process
memory, so tests and CI need no real cluster and no picklable factories.

The agent's copies are fixed by its one ``setup``: it never gains or
loses a copy mid-run, and it leaves the dispatcher loop only on the
head's ``stop`` or a lost connection.
"""

from __future__ import annotations

import argparse
import os
import queue
import selectors
import socket
import threading
import traceback
from typing import Any, Dict, List, Optional, Tuple

from ..copyloop import CopyContext, CopyPort, run_copy
from ..faults import NULL_CONNECTION_INJECTOR, RetryPolicy, _Aborted
from ..graph import FilterGraph
from ..obs import Tracer
from . import codec

__all__ = ["AgentRunner", "run_agent", "spawned_agent_main", "main"]

#: Default watchdog granularity while blocked (seconds).  The head
#: threads the runtime's configured ``poll_interval`` through ``setup``
#: (9th element), which overrides this; every blocking wait in the agent
#: is otherwise event-driven (socket readiness via ``selectors``, queue
#: puts, condition notifies, abort-event waits), so the interval only
#: bounds recovery from a missed wakeup.
_POLL = 0.05
#: Heartbeat period (seconds); the head's timeout is several of these.
HEARTBEAT_INTERVAL = 0.5
#: Exit status for injected agent crashes (mimics an uncaught signal).
CRASH_EXIT = 23


class _SendWindow:
    """Bounded outbound window for one producing copy's stream.

    ``acquire`` blocks (abort-aware) while ``limit`` sends await dispatch
    at the head; ``release`` is called when an ``scredit`` grant arrives.
    """

    def __init__(self, limit: int, abort: threading.Event, poll: float = _POLL):
        self.limit = limit
        self.outstanding = 0
        self.cond = threading.Condition()
        self.abort = abort
        self.poll = poll

    def acquire(self) -> None:
        with self.cond:
            while self.outstanding >= self.limit:
                if self.abort.is_set():
                    raise _Aborted()
                # ``release``/``wake`` notify the condition, so this
                # timeout is a watchdog, not the wakeup mechanism.
                self.cond.wait(timeout=self.poll)
            self.outstanding += 1
        if self.abort.is_set():
            raise _Aborted()

    def release(self) -> None:
        with self.cond:
            if self.outstanding > 0:
                self.outstanding -= 1
            self.cond.notify()

    def wake(self) -> None:
        with self.cond:
            self.cond.notify_all()


class _AgentContext(CopyContext):
    """Bridges a filter copy's sends and deposits onto the head link."""

    def __init__(self, runner: "AgentRunner", filter_name, copy_index, tracer):
        super().__init__(runner.graph, filter_name, copy_index, tracer)
        self._runner = runner

    def _deliver(self, stream, buffer, dest_copy):
        self._runner.send_window(
            self.filter_name, self.copy_index, stream
        ).acquire()
        self._runner.post(
            ("send", self.filter_name, self.copy_index, stream, dest_copy, buffer)
        )

    def deposit(self, key, value):
        self._runner.post(("deposit", key, value))


class _CopyWorker(CopyPort):
    """One hosted filter copy: its thread, its input queue, and the port
    through which :func:`~repro.datacutter.copyloop.run_copy` reaches
    the head."""

    def __init__(self, runner: "AgentRunner", filter_name: str, copy_index: int):
        self.runner = runner
        self.filter_name = filter_name
        self.copy_index = copy_index
        self.in_q: "queue.Queue" = queue.Queue()
        self.dead = False  # failed; the dispatcher drops later deliveries
        self.open = {e.stream for e in runner.graph.in_edges(filter_name)}
        self.thread = threading.Thread(
            target=self._run,
            name=f"{filter_name}[{copy_index}]@agent{runner.agent_index}",
            daemon=True,
        )

    def _run(self) -> None:
        runner = self.runner
        # Per-copy tracer: events batch locally and ride home on the
        # terminal done/copy_failed message, never per-buffer frames.
        ctx = _AgentContext(
            runner, self.filter_name, self.copy_index,
            Tracer() if runner.trace else None,
        )
        # A hard injected crash is a real machine failure: the whole
        # agent dies with no goodbye and the head's death detection
        # must catch it.
        run_copy(
            runner.graph, ctx, self, runner.retry, runner.faults,
            CRASH_EXIT, agent=runner.agent_name,
        )

    # -- the copy's port ----------------------------------------------------

    def abort_wait(self, timeout):
        return self.runner.abort.wait(timeout)

    def next_input(self):
        while self.open:
            if self.runner.abort.is_set():
                raise _Aborted()
            try:
                # Every wake is a put (buf/close/stop — the dispatcher
                # and the abort paths both post "stop"), so the timeout
                # is a pure watchdog.
                item = self.in_q.get(timeout=self.runner.poll)
            except queue.Empty:
                continue
            if item[0] == "close":
                self.open.discard(item[1])
            elif item[0] == "stop":
                raise _Aborted()
            else:
                _, stream, seq, buffer = item
                return stream, buffer, seq
        return None

    def depth(self, stream):
        return self.in_q.qsize()

    def ack(self, stream, seq):
        self.runner.post(("ack", seq))

    def died(self, failure):
        # The head holds every unacknowledged delivery for this copy —
        # the in-hand buffer included — in its in-flight table and
        # reroutes them all, so just report the death and stop.
        return False

    def report(self, failure, busy, retries, events):
        if failure is None:
            self.runner.post(
                ("done", self.filter_name, self.copy_index, busy, retries, events)
            )
        else:
            self.dead = True
            self.runner.post(("copy_failed", failure, busy, retries, events))


class AgentRunner:
    """Drives one agent connection: dispatcher, writer, copy threads."""

    def __init__(
        self,
        sock: socket.socket,
        agent_index: int,
        token: str,
        graph: Optional[FilterGraph] = None,
    ):
        self.sock = sock
        self.agent_index = agent_index
        self.agent_name = f"agent{agent_index}"
        self.token = token
        self.graph = graph
        self.retry = RetryPolicy()
        self.faults = None
        self.trace = False
        self.abort = threading.Event()
        self.poll = _POLL
        self.out_q: "queue.Queue" = queue.Queue()
        self.copies: Dict[Tuple[str, int], _CopyWorker] = {}
        self._windows: Dict[Tuple[str, int, str], _SendWindow] = {}
        self._windows_lock = threading.Lock()
        self._send_window_limit = 16
        self._conn_injector = NULL_CONNECTION_INJECTOR

    # -- outbound -----------------------------------------------------------

    def post(self, msg: Any) -> None:
        self.out_q.put(msg)

    def send_window(
        self, filter_name: str, copy_index: int, stream: str
    ) -> _SendWindow:
        key = (filter_name, copy_index, stream)
        with self._windows_lock:
            win = self._windows.get(key)
            if win is None:
                win = _SendWindow(
                    self._send_window_limit, self.abort, poll=self.poll
                )
                self._windows[key] = win
        return win

    def _writer(self) -> None:
        while True:
            msg = self.out_q.get()
            if msg is None:
                return
            try:
                codec.send_message(self.sock, msg)
            except OSError:
                # The head is gone; nothing left to talk to.
                self.abort.set()
                self._wake_windows()
                self._wake_copies()
                return

    def _heartbeat(self) -> None:
        # abort.wait doubles as the period timer and the shutdown wakeup:
        # the thread exits the instant the abort trips instead of
        # sleeping out the rest of an interval.
        while not self.abort.wait(timeout=HEARTBEAT_INTERVAL):
            self.post(("hb",))

    def _wake_windows(self) -> None:
        with self._windows_lock:
            windows = list(self._windows.values())
        for w in windows:
            w.wake()

    def _wake_copies(self) -> None:
        """Post ``stop`` into every copy's queue: an event-driven abort
        wakeup for workers blocked in their input ``get``."""
        for worker in self.copies.values():
            worker.in_q.put(("stop",))

    # -- setup + dispatch ---------------------------------------------------

    def _apply_setup(self, msg: Tuple) -> None:
        # The optional trailing element is the head's poll_interval
        # (absent from older heads; the module default then holds).
        (_, graph, assignments, retry, faults, send_window, agent_name,
         trace, *rest) = msg
        if rest and rest[0]:
            self.poll = float(rest[0])
        if graph is not None:
            self.graph = graph
        if self.graph is None:
            raise RuntimeError(
                "agent received no filter graph: external agents need "
                "picklable filter factories"
            )
        self.retry = retry
        self.faults = faults
        self._send_window_limit = send_window
        self.agent_name = agent_name
        self.trace = bool(trace)
        if faults is not None:
            self._conn_injector = faults.connection_injector_for(
                self.agent_index, agent_name
            )
        for name, idx in assignments:
            self.copies[(name, idx)] = _CopyWorker(self, name, idx)
        for worker in self.copies.values():
            worker.thread.start()

    def run(self) -> None:
        """Dispatcher loop: receive head frames until stop or EOF."""
        writer = threading.Thread(target=self._writer, daemon=True)
        writer.start()
        codec.send_message(
            self.sock,
            codec.make_hello(self.agent_index, self.token, os.getpid()),
        )
        try:
            setup = codec.recv_message(self.sock)
        except codec.ConnectionClosed:
            self.out_q.put(None)
            return
        if not (isinstance(setup, tuple) and setup[0] == "setup"):
            raise RuntimeError(f"expected setup message, got {setup!r}")
        self._apply_setup(setup)
        threading.Thread(target=self._heartbeat, daemon=True).start()
        # Readiness-gated delivery loop: block in the selector (the
        # kernel wakes it the instant head bytes arrive) and re-check the
        # abort between waits, so an abort raised off-thread (writer
        # death) ends the dispatcher even while the socket stays open.
        # recv_message reads straight off the socket with no userspace
        # buffering, so readiness of the fd is readiness of a frame.
        sel = selectors.DefaultSelector()
        sel.register(self.sock, selectors.EVENT_READ)
        try:
            while True:
                if self.abort.is_set():
                    break
                if not sel.select(timeout=self.poll):
                    continue
                try:
                    msg = codec.recv_message(self.sock)
                except codec.ConnectionClosed:
                    break
                kind = msg[0]
                if kind == "buf":
                    _, name, idx, stream, seq, buffer = msg
                    action = self._conn_injector.on_deliver()
                    if action == "crash":
                        # The whole "host" fails: no cleanup, no goodbye.
                        os._exit(CRASH_EXIT)
                    if action == "drop":
                        self.post(("nack", seq))
                        continue
                    worker = self.copies.get((name, idx))
                    if worker is None or worker.dead:
                        # Dead copy: the head reroutes everything it never
                        # got an ack for, so in-transit deliveries are
                        # dropped here, not processed twice.
                        continue
                    worker.in_q.put(("buf", stream, seq, buffer))
                elif kind == "scredit":
                    _, name, idx, stream = msg
                    self.send_window(name, idx, stream).release()
                elif kind == "close":
                    _, name, idx, stream = msg
                    worker = self.copies.get((name, idx))
                    if worker is not None:
                        worker.in_q.put(("close", stream))
                elif kind == "stop":
                    break
                else:  # pragma: no cover - protocol growth guard
                    raise RuntimeError(f"unknown head message {kind!r}")
        finally:
            sel.close()
            self.abort.set()
            self._wake_windows()
            self._wake_copies()
            for worker in self.copies.values():
                worker.thread.join(timeout=5.0)
            self.out_q.put(None)
            writer.join(timeout=5.0)


def run_agent(
    head_host: str,
    head_port: int,
    agent_index: int,
    token: str,
    graph: Optional[FilterGraph] = None,
    connect_timeout: float = 30.0,
) -> None:
    """Connect to the head and serve one run.  Blocks until it ends."""
    sock = socket.create_connection((head_host, head_port), timeout=connect_timeout)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        AgentRunner(sock, agent_index, token, graph=graph).run()
    finally:
        try:
            sock.close()
        except OSError:
            pass


def spawned_agent_main(
    head_host: str,
    head_port: int,
    agent_index: int,
    token: str,
    graph: FilterGraph,
) -> None:
    """Entry point for agents the head forks onto loopback hosts.

    The graph (with its possibly unpicklable factories) crosses via fork
    memory, so no serialization is involved.
    """
    try:
        run_agent(head_host, head_port, agent_index, token, graph=graph)
    except Exception:  # noqa: BLE001 - the head sees the dead connection
        traceback.print_exc()
        os._exit(1)


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone agent entry point for real (non-loopback) hosts."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.datacutter.net.agent",
        description="Worker agent for the distributed filter-stream runtime",
    )
    parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="head address to connect to",
    )
    parser.add_argument(
        "--index", type=int, required=True,
        help="this agent's index in the head's host list",
    )
    parser.add_argument(
        "--token", required=True, help="run token issued by the head"
    )
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    run_agent(host, int(port), args.index, args.token)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
