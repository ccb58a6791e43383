"""Counters, gauges and histograms snapshotted into ``RunResult.metrics``.

The registry is deliberately small: three instrument types, label sets
flattened into stable string keys (``name{k=v,...}``), and a
``snapshot()`` that returns plain dicts/lists so the result can travel
through the wire codec and into JSON without any custom types.

``snapshot_run`` builds the standard snapshot every runtime attaches to
its :class:`RunResult`: the aggregate fields the runtimes already track
(busy seconds per copy, buffers routed, retries, reroutes, wire bytes)
plus event-derived histograms (queue wait, service time, chunk-lifecycle
stage durations) when a trace was collected.  ``filter_breakdown`` in
:mod:`repro.pipeline.report` is rebuilt on top of the
``busy_seconds{filter=...}`` histograms — they observe exactly one value
per filter copy, so count/sum/mean/max reproduce the legacy
``busy_time``-derived table bit-for-bit.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .events import SPAN_KINDS, TraceEvent

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "flatten_key",
    "parse_metric_key",
    "snapshot_run",
]


def flatten_key(name: str, labels: Mapping[str, Any]) -> str:
    """``("qdepth", {"filter": "IIC"})`` -> ``"qdepth{filter=IIC}"``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_metric_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`flatten_key` (labels come back as strings)."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels: Dict[str, str] = {}
    for part in inner[:-1].split(","):
        if part:
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins); tracks its max."""

    __slots__ = ("value", "max")

    def __init__(self) -> None:
        self.value = 0.0
        self.max = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max:
            self.max = value


class Histogram:
    """Streaming count/sum/min/max/mean (no buckets — runs are short
    enough that exact summary stats beat bucketed approximations)."""

    __slots__ = ("count", "sum", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Thread-safe registry of named, labelled instruments."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        key = flatten_key(name, labels)
        with self._lock:
            inst = self._counters.get(key)
            if inst is None:
                inst = self._counters[key] = Counter()
        return inst

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = flatten_key(name, labels)
        with self._lock:
            inst = self._gauges.get(key)
            if inst is None:
                inst = self._gauges[key] = Gauge()
        return inst

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = flatten_key(name, labels)
        with self._lock:
            inst = self._histograms.get(key)
            if inst is None:
                inst = self._histograms[key] = Histogram()
        return inst

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-dict view: ``{"counters": {...}, "gauges": {...},
        "histograms": {...}}`` — JSON- and codec-safe."""
        with self._lock:
            return {
                "counters": {k: c.value for k, c in self._counters.items()},
                "gauges": {
                    k: {"value": g.value, "max": g.max}
                    for k, g in self._gauges.items()
                },
                "histograms": {
                    k: h.to_dict() for k, h in self._histograms.items()
                },
            }


def _ingest_events(reg: MetricsRegistry, events: Iterable[TraceEvent]) -> None:
    """Fold a finished trace into event-derived instruments."""
    for ev in events:
        f = ev.filter
        if ev.kind == "queue.wait":
            reg.histogram("queue_wait_seconds", filter=f).observe(ev.dur)
        elif ev.kind == "service":
            reg.histogram("service_seconds", filter=f).observe(ev.dur)
        elif ev.kind == "queue.depth":
            reg.gauge("queue_depth", filter=f).set(float(ev.attrs["depth"]))
        elif ev.kind == "sched.pick":
            reg.counter(
                "sched_picks",
                stream=ev.attrs["stream"],
                policy=ev.attrs["policy"],
            ).inc()
        elif ev.kind == "wire.frame":
            reg.counter("wire_frames", stream=ev.attrs["stream"]).inc()
        elif ev.kind == "shm.frame":
            reg.counter("shm_frames", stream=ev.attrs["stream"]).inc()
        elif ev.kind.startswith("chunk.") and ev.kind in SPAN_KINDS:
            stage = ev.kind.split(".", 1)[1]
            reg.histogram("chunk_stage_seconds", stage=stage).observe(ev.dur)
            if stage == "write" and "records" in ev.attrs:
                reg.counter("records_written").inc(float(ev.attrs["records"]))


def snapshot_run(
    busy: Mapping[Tuple[str, int], float],
    buffers_sent: Mapping[str, int],
    retries: int,
    reroutes: int,
    failed_copies: Iterable[Tuple[str, int]],
    wire_bytes: Mapping[Any, int],
    elapsed: float,
    events: Optional[List[TraceEvent]] = None,
    shm_bytes: Optional[Mapping[Any, int]] = None,
    shm_pool: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Dict[str, Any]]:
    """Build the standard ``RunResult.metrics`` snapshot for one run.

    Always derivable from the aggregates every runtime already tracks;
    event-derived instruments are added only when a trace exists.
    ``shm_bytes`` / ``shm_pool`` (per-link slab bytes and a
    :meth:`ShmPool.stats` dict) come from the processes runtime, the
    one whose copies exchange payloads through shared-memory slabs.
    """
    reg = MetricsRegistry()
    for (fname, copy), dt in busy.items():
        reg.histogram("busy_seconds", filter=fname).observe(dt)
        reg.counter("copies", filter=fname).inc()
    for stream, n in buffers_sent.items():
        reg.counter("buffers_sent", stream=stream).inc(n)
    if retries:
        reg.counter("retries").inc(retries)
    if reroutes:
        reg.counter("reroutes").inc(reroutes)
    for fname, copy in failed_copies:
        reg.counter("failed_copies", filter=fname).inc()
    for key, n in (wire_bytes or {}).items():
        label = key if isinstance(key, str) else "/".join(str(p) for p in key)
        reg.counter("wire_bytes", link=label).inc(n)
    for key, n in (shm_bytes or {}).items():
        label = key if isinstance(key, str) else "/".join(str(p) for p in key)
        reg.counter("shm_bytes", link=label).inc(n)
    if shm_pool is not None:
        reg.counter("shm_pool_hits").inc(shm_pool.get("hits", 0))
        reg.counter("shm_pool_fallbacks").inc(shm_pool.get("fallbacks", 0))
        reg.counter("shm_pool_fallback_bytes").inc(
            shm_pool.get("fallback_bytes", 0)
        )
        reg.gauge("shm_pool_segments").set(float(shm_pool.get("segments", 0)))
        reg.gauge("shm_pool_in_use").set(float(shm_pool.get("in_use", 0)))
        reg.gauge("shm_pool_peak_in_use").set(
            float(shm_pool.get("peak_in_use", 0))
        )
        reg.gauge("shm_pool_hit_rate").set(float(shm_pool.get("hit_rate", 0.0)))
    reg.gauge("elapsed_seconds").set(elapsed)
    if events:
        _ingest_events(reg, events)
    return reg.snapshot()
