"""Filter base class and execution context.

A DataCutter filter (paper Section 4.1) consumes data buffers from its
input streams, processes them, and writes buffers to its output streams.
Filters never touch the transport directly: the runtime hands each copy a
:class:`FilterContext` whose ``send`` routes buffers to downstream copies
(over "TCP" in the simulator, via queues in the threaded runtime, by
pointer copy when co-located).

Filter lifecycle, identical in both runtimes::

    initialize(ctx)
    # source filters (no input streams):
    generate(ctx)
    # non-source filters, once per arriving buffer, any input stream:
    process(stream_name, buffer, ctx)
    # after every input stream has delivered EndOfStream from every
    # upstream producer copy:
    finalize(ctx)

Copies of a filter are independent (transparent copies, paper 4.1); a
copy learns its identity from ``ctx.copy_index`` / ``ctx.num_copies``.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Optional

from .buffers import DataBuffer

__all__ = ["Filter", "FilterContext"]


class FilterContext(abc.ABC):
    """Runtime services available to a running filter copy."""

    #: True when the hosting runtime is collecting trace events.  Filters
    #: consult this before doing any tracing-only work (extra timers), so
    #: the disabled path costs one attribute read.
    tracing: bool = False

    def __init__(self, filter_name: str, copy_index: int, num_copies: int):
        self.filter_name = filter_name
        self.copy_index = copy_index
        self.num_copies = num_copies

    def event(
        self,
        kind: str,
        *,
        dur: float = 0.0,
        chunk: Optional[tuple] = None,
        **attrs: Any,
    ) -> None:
        """Emit a trace event attributed to this filter copy.

        No-op unless the runtime traces (see
        :mod:`repro.datacutter.obs`); runtimes that trace override this.
        """

    @abc.abstractmethod
    def send(
        self,
        stream: str,
        payload: Any,
        size_bytes: int = 0,
        metadata: Optional[Dict[str, Any]] = None,
        dest_copy: Optional[int] = None,
    ) -> None:
        """Write one buffer to an output stream.

        ``dest_copy`` addresses a specific consumer copy and is only
        valid on streams connected with the *explicit* policy (paper
        4.1: explicit filters give the user control over which consumer
        copy receives which chunk); transparent streams pick the copy via
        their scheduling policy.
        """

    @abc.abstractmethod
    def deposit(self, key: str, value: Any) -> None:
        """Publish a result to the runtime's shared result store.

        Used by terminal filters (HIC) so drivers can retrieve
        outputs after the run.
        """

    def log(self, message: str) -> None:  # pragma: no cover - debug aid
        """Optional diagnostic logging; runtimes may override."""


class Filter(abc.ABC):
    """Base class for all filters.

    Subclasses implement ``generate`` (sources) or ``process`` (others),
    and may override ``initialize`` / ``finalize``.  A filter object is
    instantiated once *per copy*, so instance attributes are copy-local
    state (e.g. the IIC filter's partial-chunk buffers).
    """

    #: Class-level default name; instances may override via constructor.
    name: str = "filter"

    def initialize(self, ctx: FilterContext) -> None:
        """Called once before any data flows."""

    def generate(self, ctx: FilterContext) -> None:
        """Source-filter entry point (filters with no input streams)."""
        raise NotImplementedError(
            f"{type(self).__name__} has no input streams but does not "
            "implement generate()"
        )

    def process(self, stream: str, buffer: DataBuffer, ctx: FilterContext) -> None:
        """Handle one arriving buffer from the named input stream."""
        raise NotImplementedError(
            f"{type(self).__name__} received a buffer on {stream!r} but "
            "does not implement process()"
        )

    def finalize(self, ctx: FilterContext) -> None:
        """Called once after all input streams are exhausted."""
