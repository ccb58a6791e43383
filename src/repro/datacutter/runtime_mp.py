"""Multiprocessing runtime: one OS process per filter copy.

The closest local analog of DataCutter's deployment model: filter copies
are separate processes (as the paper's filters are separate executables
on cluster nodes) and every buffer crossing a stream is genuinely
serialized or placed in shared memory, and replicated texture filters
scale past the GIL.

:class:`MPRuntime` is the peer engine of
:mod:`repro.datacutter.runtime_local` on ``fork``-context primitives
(:class:`_ForkBackend`): stream policies, explicit routing, the
end-of-stream protocol, drain-mode rerouting, wakeups and result
deposits are that module's code, not a second implementation.  What
this module adds is what only processes have:

* **Framing.**  Buffers are framed by the same wire codec the
  distributed TCP runtime uses (:mod:`repro.datacutter.net.codec`), and
  the copies being forks of one parent on one machine, a large payload
  never enters a pipe: ndarray buffers of :data:`_POOL_THRESHOLD` bytes
  or more are written once into a reference-counted pool of anonymous
  shared-memory slabs (:mod:`repro.datacutter.net.shm`) that the parent
  maps before forking, the pipe carries the pickled header plus a slab
  descriptor, and the consumer rebuilds the arrays zero-copy.  Smaller
  payloads — most buffers — travel whole in the frame, as do a payload
  larger than a slab and any payload that finds the pool exhausted, so
  a delivery never waits on the pool.  ``RunResult.wire_bytes`` counts
  what crossed the pipes per stream and ``RunResult.shm_bytes`` what
  crossed in slabs; the pool's occupancy/hit-rate snapshot lands in
  ``RunResult.metrics``.  The pool lives for one ``run()`` and holds no
  names: when the run ends — normal completion, aborts, and silently
  dead children alike — the parent closes its mappings, and the kernel
  frees a slab when the last process mapping it is gone.  If the pool
  cannot be mapped at all the run proceeds with every payload in-band
  and says so in one ``transport.fallback`` trace event.
* **Silent death.**  A child can die without saying goodbye.  The
  parent blocks in ``multiprocessing.connection.wait`` on the results
  queue and every live child's sentinel at once, so both a control
  message and a child death wake it instantly; a child that exits
  without its terminal report gets a synthesized :class:`CopyFailure`
  (``kind="exitcode"``) and the shared abort unblocks everyone —
  ``run()`` raises a structured :class:`PipelineError` in bounded time
  instead of hanging.  A hard injected crash is exactly that:
  ``os._exit`` with :data:`_HARD_EXIT`.

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
import queue
import time
from multiprocessing import connection as mp_connection
from typing import Dict, List, Optional, Tuple

from .faults import FaultPlan, RetryPolicy
from .graph import FilterGraph
from .net import shm
from .obs import TraceEvent
from .runtime_local import _EXIT_GRACE, _PeerRuntime  # noqa: F401 - tests

__all__ = ["MPRuntime"]

#: Default watchdog granularity of :class:`MPRuntime` (seconds).  Every
#: transition a blocked peer waits on raises a wakeup event, so this
#: only bounds how long a *missed* wakeup could go unnoticed.
_POLL = 0.02
#: Exit status used for injected hard kills (mimics an uncaught signal).
_HARD_EXIT = 19
#: The slab pool of every run: slab count, bytes per slab, and the
#: payload size below which a frame stays in-band.  Constants, not
#: parameters — no measured workload asks for other values (untouched
#: slabs cost address space only); tests patch them to force fallbacks.
_POOL_SEGMENTS = 32
_POOL_SEGMENT_BYTES = 32 << 20
_POOL_THRESHOLD = 64 << 10


class _ForkBackend:
    """Peer-engine primitives for copies that are forked processes.

    ``pool`` is the run's shared-memory slab pool, or ``None`` when it
    could not be mapped (every payload then travels in-band);
    ``events`` are the parent's own trace events for the run.
    """

    hard_exit = _HARD_EXIT

    def __init__(self, ctx, pool: Optional[shm.ShmPool], events: List[TraceEvent]):
        self.pool = pool
        self.events = events
        self.Lock = ctx.Lock
        self.Event = ctx.Event
        self.Queue = ctx.Queue
        self._ctx = ctx

    def cell(self):
        return self._ctx.Value("l", 0)

    def array(self, n: int):
        return self._ctx.Array("l", [0] * n)

    def spawn(self, target, args, name: str):
        p = self._ctx.Process(target=target, args=args, name=name)
        p.start()
        return p

    def pack(self, item):
        """Frame once for the pipe: ``(frame, wire bytes, shm bytes)``.
        Large ndarray payloads land in a pool slab (one copy, consumer
        maps it zero-copy); the frame then carries only the descriptor."""
        return shm.dumps(item, self.pool)

    def unpack(self, frame):
        return shm.loads(frame, self.pool)

    @staticmethod
    def wait(results_q, live, timeout: float):
        """Next control message, or ``None`` once ``timeout`` elapsed or
        one of the ``live`` children exited."""
        if timeout > 0:
            mp_connection.wait(
                [results_q._reader] + [p.sentinel for p in live], timeout=timeout
            )
        try:
            return results_q.get_nowait()
        except queue.Empty:
            return None

    def traffic(self, edges) -> Tuple[Dict[str, int], Dict[str, int]]:
        """``(wire_bytes, shm_bytes)`` per edge label."""
        return (
            {label: e.wire.value for label, e in edges.items()},
            {label: e.shm.value for label, e in edges.items()},
        )

    def close(self) -> None:
        if self.pool is not None:
            self.pool.destroy()


class MPRuntime(_PeerRuntime):
    """Executes a filter graph with one process per filter copy.

    Accepts the same ``graph`` / ``max_queue`` / ``retry`` / ``faults`` /
    ``trace`` parameters as
    :class:`~repro.datacutter.runtime_local.LocalRuntime`.

    Parameters
    ----------
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
        poll_interval: Optional[float] = None,
    ):
        # Only None means "use the default": an explicit 0 must reach
        # the validation, not be swallowed by truthiness.
        super().__init__(
            graph, max_queue, retry, faults, trace,
            _POLL if poll_interval is None else poll_interval,
        )

    def _open_backend(self) -> _ForkBackend:
        ctx = mp.get_context("fork")
        pool, events = None, []
        try:
            pool = shm.ShmPool(
                ctx, _POOL_SEGMENTS, _POOL_SEGMENT_BYTES, _POOL_THRESHOLD
            )
        except (OSError, ValueError) as exc:
            # No address space or commit for the slabs (strict
            # overcommit, a tight rlimit): not a reason to fail the run.
            events.append(
                TraceEvent(
                    ts=time.time(), kind="transport.fallback",
                    attrs={"reason": f"{type(exc).__name__}: {exc}"},
                )
            )
        return _ForkBackend(ctx, pool, events)
