"""Multiprocessing runtime: one OS process per filter copy.

The closest local analog of DataCutter's deployment model: filter copies
are separate processes (as the paper's filters are separate executables
on cluster nodes) and every buffer crossing a stream is genuinely
serialized through an OS pipe — so, unlike the threaded runtime, the
sparse co-occurrence representation actually shrinks inter-filter
traffic here, and replicated texture filters scale past the GIL.

:class:`MPRuntime` is the peer engine of
:mod:`repro.datacutter.runtime_local` on ``fork``-context primitives
(:class:`_ForkBackend`): stream policies, explicit routing, the
end-of-stream protocol, drain-mode rerouting, wakeups and result
deposits are that module's code, not a second implementation.  What
this module adds is what only processes have:

* **Framing.**  Buffers cross the pipes framed by the same wire codec
  the distributed TCP runtime uses (:mod:`repro.datacutter.net.codec`):
  ndarray payloads travel as out-of-band buffers instead of being
  pickled in-band, and each edge counts the bytes it moved, reported as
  ``RunResult.wire_bytes``.  With ``transport="shm"`` the pipes stop
  carrying payloads at all: ndarray payloads above a size threshold are
  written once into a reference-counted shared-memory slab pool
  (:mod:`repro.datacutter.net.shm`), the frame shrinks to a header plus
  slab descriptor and consumers rebuild the arrays zero-copy.  Those
  bytes are accounted as ``RunResult.shm_bytes``, and the pool's
  occupancy/hit-rate snapshot lands in ``RunResult.metrics``.  A per-run
  pool is created before forking and unconditionally destroyed (slabs
  unlinked) when the run ends — normal completion, aborts, and silently
  dead children alike — so ``/dev/shm`` never accumulates segments.
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
from multiprocessing import connection as mp_connection
from typing import Dict, Optional, Tuple

from .faults import FaultPlan, RetryPolicy
from .graph import FilterGraph
from .net import shm
from .runtime_local import _EXIT_GRACE, _PeerRuntime  # noqa: F401 - tests

__all__ = ["MPRuntime", "TRANSPORTS"]

TRANSPORTS = ("pipe", "shm")

#: Default watchdog granularity of :class:`MPRuntime` (seconds).  Every
#: transition a blocked peer waits on raises a wakeup event, so this
#: only bounds how long a *missed* wakeup could go unnoticed.
_POLL = 0.02
#: Exit status used for injected hard kills (mimics an uncaught signal).
_HARD_EXIT = 19


class _ForkBackend:
    """Peer-engine primitives for copies that are forked processes.

    ``pool`` is the shared-memory slab pool of ``transport="shm"`` or
    ``None``; ``owned`` says whether :meth:`close` destroys it.
    """

    hard_exit = _HARD_EXIT

    def __init__(self, ctx, pool: Optional[shm.ShmPool], owned: bool):
        self.pool = pool
        self._owned = owned
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
        wire = {label: e.wire.value for label, e in edges.items()}
        if self.pool is None:
            return wire, {}
        return wire, {label: e.shm.value for label, e in edges.items()}

    def close(self) -> None:
        # A pool handed in by the caller (warm reuse across jobs) is the
        # caller's to destroy.
        if self._owned:
            self.pool.destroy()


class MPRuntime(_PeerRuntime):
    """Executes a filter graph with one process per filter copy.

    Accepts the same ``graph`` / ``max_queue`` / ``retry`` / ``faults`` /
    ``trace`` parameters as
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
        # Only None means "use the default": an explicit 0 must reach
        # the validation, not be swallowed by truthiness.
        super().__init__(
            graph, max_queue, retry, faults, trace,
            _POLL if poll_interval is None else poll_interval,
        )
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
            )
        if shm_pool is not None and transport != "shm":
            raise ValueError("shm_pool= requires transport='shm'")
        self.transport = transport
        self.shm_segments = int(shm_segments)
        self.shm_segment_bytes = int(shm_segment_bytes)
        self.shm_threshold = int(shm_threshold)
        self.shm_pool = shm_pool

    def _open_backend(self) -> _ForkBackend:
        ctx = mp.get_context("fork")
        pool = self.shm_pool
        owned = pool is None and self.transport == "shm"
        if owned:
            pool = shm.ShmPool(
                ctx,
                segments=self.shm_segments,
                segment_bytes=self.shm_segment_bytes,
                threshold=self.shm_threshold,
            )
        return _ForkBackend(ctx, pool, owned)
