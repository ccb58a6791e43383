"""The filter-copy lifecycle, written once for every runtime.

Whether a copy is a thread, a forked process or a thread inside a remote
agent, it lives the same life (paper Section 4.1)::

    factory() -> initialize -> generate | process per input -> finalize

with the same tracing around each input (``queue.wait``, ``queue.depth``,
``service``), the same retry loop
(:func:`~repro.datacutter.faults._process_with_retry`), the same record
when the copy has to be given up on, and one terminal report.
:func:`run_copy` is that life.  What differs between runtimes is only how
a copy reaches its streams, and that sits behind :class:`CopyPort`:

=================  ==============================  ========================
port operation     peer runtimes (threads, procs)  distributed agent
=================  ==============================  ========================
``next_input``     sweep the shared edge queues,   pop the agent's inbox
                   ``try_close`` when idle         (``buf`` / ``close``)
``ack``            ``edge.on_consume``             ``("ack", seq)`` frame
``died``           mark dead on every in-edge,     report and stop: the
                   then drain-mode reroute if a    head holds the in-flight
                   survivor can take over          table and reroutes
``report``         one control message home        ``done``/``copy_failed``
=================  ==============================  ========================

:class:`CopyContext` is the matching base for the ``FilterContext`` a
runtime hands its copies: trace events and the argument checks of
``send`` live here, only the hand-over of the finished buffer is left to
the runtime.
"""

from __future__ import annotations

import abc
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from .buffers import DataBuffer
from .faults import (
    NULL_INJECTOR,
    CopyFailure,
    FaultPlan,
    RetryPolicy,
    _Aborted,
    _CopyDied,
    _process_with_retry,
)
from .filter import FilterContext
from .graph import FilterGraph, StreamEdge
from .obs import Tracer

__all__ = ["CopyContext", "CopyPort", "run_copy"]


class CopyContext(FilterContext):
    """``FilterContext`` of a copy hosted by a real runtime.

    Subclasses implement :meth:`_deliver` (and ``deposit``); everything a
    filter can get wrong about ``send`` is rejected here, identically on
    every runtime, before a buffer exists.
    """

    def __init__(
        self,
        graph: FilterGraph,
        filter_name: str,
        copy_index: int,
        tracer: Optional[Tracer] = None,
    ):
        super().__init__(filter_name, copy_index, graph.copies(filter_name))
        self._out: Dict[str, Tuple[StreamEdge, int]] = {
            e.stream: (e, graph.copies(e.dst)) for e in graph.out_edges(filter_name)
        }
        self.tracer = tracer
        self.tracing = tracer is not None

    def event(self, kind, *, dur=0.0, chunk=None, **attrs):
        if self.tracer is not None:
            self.tracer.emit(
                kind,
                filter=self.filter_name,
                copy=self.copy_index,
                dur=dur,
                chunk=chunk,
                **attrs,
            )

    def drain_events(self) -> List[Any]:
        """Everything traced so far (rides home on the terminal report)."""
        return self.tracer.drain() if self.tracer is not None else []

    def send(self, stream, payload, size_bytes=0, metadata=None, dest_copy=None):
        try:
            edge, n_dest = self._out[stream]
        except KeyError:
            raise RuntimeError(
                f"filter {self.filter_name!r} has no output stream {stream!r}"
            ) from None
        if edge.policy == "explicit":
            if dest_copy is None:
                raise RuntimeError(
                    f"stream {stream!r} is explicit: dest_copy required"
                )
            if not (0 <= dest_copy < n_dest):
                raise RuntimeError(
                    f"stream {stream!r}: dest copy {dest_copy} out of range"
                )
        elif dest_copy is not None:
            raise RuntimeError(
                f"stream {stream!r} is {edge.policy}: dest_copy only valid "
                "on explicit streams"
            )
        buf = DataBuffer(
            payload=payload, size_bytes=size_bytes, metadata=dict(metadata or {})
        )
        self._deliver(stream, buf, dest_copy)

    @abc.abstractmethod
    def _deliver(
        self, stream: str, buffer: DataBuffer, dest_copy: Optional[int]
    ) -> None:
        """Hand a checked buffer to the runtime's transport."""


class CopyPort(abc.ABC):
    """How one hosted copy reaches its input streams and its runtime.

    Every method may raise the internal abort signal; :func:`run_copy`
    then unwinds without a report.
    """

    @abc.abstractmethod
    def abort_wait(self, timeout: float) -> bool:
        """Block up to ``timeout`` s; true as soon as the run aborted."""

    @abc.abstractmethod
    def next_input(self) -> Optional[Tuple[str, DataBuffer, Any]]:
        """Block for the next ``(stream, buffer, token)``; ``None`` once
        every input stream has closed."""

    @abc.abstractmethod
    def depth(self, stream: str) -> int:
        """Buffers waiting for this copy (the ``queue.depth`` sample)."""

    @abc.abstractmethod
    def ack(self, stream: str, token: Any) -> None:
        """The input identified by ``token`` was processed."""

    @abc.abstractmethod
    def died(self, failure: CopyFailure) -> bool:
        """This copy is given up on.  True when it must stay behind in
        drain mode, handing every input (the one in hand first) to
        :meth:`reroute`; that is also where ``failure.recovered`` is set.
        False to stop right away."""

    def reroute(self, stream: str, buffer: DataBuffer, token: Any) -> None:
        """Drain mode only: re-deliver an input to a surviving copy."""
        raise NotImplementedError

    @abc.abstractmethod
    def report(
        self,
        failure: Optional[CopyFailure],
        busy: float,
        retries: int,
        events: List[Any],
    ) -> None:
        """The one terminal message of a copy that was not aborted:
        ``failure`` is ``None`` after a clean ``finalize``."""


def run_copy(
    graph: FilterGraph,
    ctx: CopyContext,
    port: CopyPort,
    retry: RetryPolicy,
    faults: Optional[FaultPlan],
    hard_exit: Optional[int],
    **start_attrs: Any,
) -> None:
    """Live the whole life of copy ``ctx.copy_index`` of ``ctx.filter_name``.

    ``hard_exit`` is the status a hard injected crash kills the hosting
    process with (``None`` where the copy is a thread of the caller and
    cannot die alone); ``start_attrs`` label the ``copy.start`` event.
    """
    name, index = ctx.filter_name, ctx.copy_index
    injector = (
        faults.injector_for(name, index) if faults is not None else NULL_INJECTOR
    )
    busy = 0.0
    retries = 0
    failure: Optional[CopyFailure] = None

    def count_retry() -> None:
        nonlocal retries
        retries += 1

    try:
        filt = graph.filters[name].factory()
        ctx.event("copy.start", **start_attrs)
        t0 = time.perf_counter()
        filt.initialize(ctx)
        busy += time.perf_counter() - t0
        if not graph.in_edges(name):
            t0 = time.perf_counter()
            filt.generate(ctx)
            busy += time.perf_counter() - t0
        else:
            while (item := port.next_input()) is not None:
                stream, buffer, token = item
                chunk = buffer.metadata.get("chunk")
                if ctx.tracing:
                    enq = buffer.metadata.pop("_obs_enq", None)
                    if enq is not None:
                        ctx.event(
                            "queue.wait",
                            dur=max(time.time() - enq, 0.0),
                            chunk=chunk,
                            stream=stream,
                        )
                    ctx.event("queue.depth", depth=port.depth(stream))
                if failure is None:
                    try:
                        dt = _process_with_retry(
                            filt, stream, buffer, ctx, injector, retry,
                            port.abort_wait, count_retry, hard_exit=hard_exit,
                        )
                    except _CopyDied as died:
                        failure = CopyFailure(
                            filter_name=name,
                            copy_index=index,
                            error=repr(died.cause),
                            kind="crash" if died.injected else "exception",
                            injected=died.injected,
                        )
                        if not port.died(failure):
                            break
                    else:
                        busy += dt
                        if ctx.tracing:
                            ctx.event("service", dur=dt, chunk=chunk, stream=stream)
                        port.ack(stream, token)
                        continue
                # Drain mode: the copy is gone but keeps its queue moving
                # (the input in hand first), so producers never block on
                # a dead queue.
                ctx.event("fault.reroute", chunk=chunk, stream=stream)
                port.reroute(stream, buffer, token)
        if failure is None:
            t0 = time.perf_counter()
            filt.finalize(ctx)
            busy += time.perf_counter() - t0
    except _Aborted:
        return  # the runtime already knows (or raised the abort itself)
    except BaseException:  # noqa: BLE001 - reported to the runtime
        failure = CopyFailure(
            filter_name=name,
            copy_index=index,
            error=traceback.format_exc().strip(),
            kind="exception",
        )
    if failure is None or failure.recovered:
        ctx.event("copy.done", busy=busy, dead=failure is not None)
    port.report(failure, busy, retries, ctx.drain_events())
