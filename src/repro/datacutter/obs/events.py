"""The typed trace-event schema shared by every runtime.

A :class:`TraceEvent` is one observation inside a run: a chunk-lifecycle
span, a queue wait, a service span, a buffer-occupancy sample, a
scheduler decision, or a wire frame.  All four execution backends
(sequential driver, threaded, multiprocessing, distributed TCP) and the
cluster simulator emit events of this one schema, so their traces can be
exported by the same exporters and diffed against each other.

Event timestamps are wall-clock (``time.time()``) seconds.  Span events
are stamped at span *end*: ``ts`` is when the span finished and ``dur``
its length, so the span covered ``[ts - dur, ts]``.  Wall clock is the
only clock that is comparable across forked processes; across real
distributed hosts it is comparable only as far as the hosts' clocks are
synchronized (see ``docs/observability.md``).

Identity fields:

* ``filter`` / ``copy`` — which filter copy observed the event.
* ``chunk`` — the IIC-to-TEXTURE chunk grid index (a tuple), carried in
  buffer metadata headers (:func:`repro.filters.messages.trace_headers`)
  so one chunk's events correlate across filters, processes and sockets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Tuple

__all__ = [
    "TraceEvent",
    "EVENT_KINDS",
    "LIFECYCLE_KINDS",
    "SPAN_KINDS",
    "validate_event",
    "validate_events",
    "lifecycle_counts",
]


@dataclass
class TraceEvent:
    """One observation inside a run (see module docstring)."""

    ts: float
    kind: str
    filter: Optional[str] = None
    copy: Optional[int] = None
    dur: float = 0.0
    chunk: Optional[Tuple[int, ...]] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def start(self) -> float:
        """Span start time (== ``ts`` for instantaneous events)."""
        return self.ts - self.dur

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"ts": self.ts, "kind": self.kind}
        if self.filter is not None:
            d["filter"] = self.filter
        if self.copy is not None:
            d["copy"] = self.copy
        if self.dur:
            d["dur"] = self.dur
        if self.chunk is not None:
            d["chunk"] = list(self.chunk)
        if self.attrs:
            d["attrs"] = self.attrs
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "TraceEvent":
        chunk = d.get("chunk")
        return cls(
            ts=float(d["ts"]),
            kind=str(d["kind"]),
            filter=d.get("filter"),
            copy=d.get("copy"),
            dur=float(d.get("dur", 0.0)),
            chunk=tuple(chunk) if chunk is not None else None,
            attrs=dict(d.get("attrs", {})),
        )


#: The per-chunk lifecycle, in pipeline order (paper Section 4.3): read
#: raw slices, stitch them into a 4D chunk, compute co-occurrence
#: matrices, compute Haralick parameters, write output records.
LIFECYCLE_KINDS: Tuple[str, ...] = (
    "chunk.read",
    "chunk.stitch",
    "chunk.cooccur",
    "chunk.features",
    "chunk.write",
)

#: kind -> attr keys that must be present in ``attrs``.  Identity fields
#: (``filter``/``copy``) are required for every kind except the
#: head-side routing events, which have no hosting copy.
EVENT_KINDS: Dict[str, Tuple[str, ...]] = {
    # copy lifecycle
    "copy.start": (),
    "copy.done": (),
    # per-chunk lifecycle spans (emitted by the application filters)
    "chunk.read": (),
    "chunk.stitch": (),
    "chunk.cooccur": (),
    "chunk.features": (),
    "chunk.write": (),
    # per-buffer runtime spans
    "queue.wait": ("stream",),
    "service": ("stream",),
    # buffer-occupancy sample (consumer-side queue depth at dequeue)
    "queue.depth": ("depth",),
    # scheduler decision for one buffer on one transparent stream
    "sched.pick": ("stream", "policy", "dest"),
    # one serialized frame put on a pipe/socket
    "wire.frame": ("stream", "bytes"),
    # payload bytes handed over via a shared-memory pool slab (the pipe
    # carried only the descriptor frame, counted by its wire.frame)
    "shm.frame": ("stream", "bytes"),
    # the processes runtime could not map its slab pool and carries
    # every payload of the run in-band; once per run, from the parent
    "transport.fallback": ("reason",),
    # a texture filter copy runs something other than the kernel as
    # requested (today: incremental on its numpy passes because the
    # compiled pass could not be built or loaded); once per copy
    "kernel.fallback": ("requested", "used"),
    # fault tolerance
    "fault.retry": (),
    "fault.reroute": ("stream",),
}

#: Kinds whose ``dur`` is meaningful (rendered as complete spans).
SPAN_KINDS = frozenset(LIFECYCLE_KINDS) | {"queue.wait", "service"}

#: Kinds that exist only at the head/router, outside any filter copy.
_ROUTING_KINDS = frozenset(
    {
        "sched.pick",
        "wire.frame",
        "shm.frame",
        "transport.fallback",
        "fault.reroute",
    }
)


def validate_event(ev: TraceEvent) -> None:
    """Raise ``ValueError`` if an event does not conform to the schema."""
    required = EVENT_KINDS.get(ev.kind)
    if required is None:
        raise ValueError(f"unknown event kind {ev.kind!r}")
    if ev.kind not in _ROUTING_KINDS:
        if ev.filter is None or ev.copy is None:
            raise ValueError(f"{ev.kind} event missing filter/copy: {ev}")
    missing = [k for k in required if k not in ev.attrs]
    if missing:
        raise ValueError(f"{ev.kind} event missing attrs {missing}: {ev}")
    if ev.dur < 0:
        raise ValueError(f"negative duration: {ev}")


def validate_events(events: Iterable[TraceEvent]) -> int:
    """Validate a whole trace; returns the number of events checked."""
    n = 0
    for ev in events:
        validate_event(ev)
        n += 1
    return n


def lifecycle_counts(
    events: Iterable[TraceEvent],
) -> Dict[str, Dict[Optional[Tuple[int, ...]], int]]:
    """Count chunk-lifecycle events per ``(kind, chunk id)``.

    The cross-runtime conformance suite compares these maps across
    backends: the same workload must visit the same chunks the same
    number of times no matter which runtime executed it.
    """
    out: Dict[str, Dict[Optional[Tuple[int, ...]], int]] = {
        k: {} for k in LIFECYCLE_KINDS
    }
    for ev in events:
        if ev.kind in out:
            per = out[ev.kind]
            per[ev.chunk] = per.get(ev.chunk, 0) + 1
    return out
