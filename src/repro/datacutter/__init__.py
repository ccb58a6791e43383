"""DataCutter-style filter-stream middleware (paper Section 4.1)."""

from .buffers import DataBuffer, EndOfStream
from .faults import (
    NO_RETRY,
    CopyFailure,
    CrashAgent,
    CrashCopy,
    DelayBuffers,
    DelayConnection,
    DropBuffers,
    DropDeliveries,
    FailProcess,
    FaultPlan,
    PipelineError,
    RetryPolicy,
)
from .filter import Filter, FilterContext
from .graph import FilterGraph, FilterSpec, StreamEdge
from .net import DistRuntime, default_placement
from .obs import (
    MetricsRegistry,
    Trace,
    TraceEvent,
    Tracer,
    lifecycle_counts,
    validate_events,
)
from .placement import Placement
from .runtime_local import LocalRuntime, RunResult
from .runtime_mp import MPRuntime

__all__ = [
    "DataBuffer",
    "EndOfStream",
    "RetryPolicy",
    "NO_RETRY",
    "CopyFailure",
    "PipelineError",
    "FaultPlan",
    "CrashCopy",
    "FailProcess",
    "DelayBuffers",
    "DropBuffers",
    "CrashAgent",
    "DelayConnection",
    "DropDeliveries",
    "Filter",
    "FilterContext",
    "FilterGraph",
    "FilterSpec",
    "StreamEdge",
    "Placement",
    "LocalRuntime",
    "MPRuntime",
    "DistRuntime",
    "default_placement",
    "RunResult",
    "TraceEvent",
    "Tracer",
    "Trace",
    "MetricsRegistry",
    "validate_events",
    "lifecycle_counts",
]
