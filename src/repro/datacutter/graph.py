"""Filter graphs: filters, copy counts and stream connections.

A :class:`FilterGraph` is the declarative description of a filter network
(the paper expresses this as an XML document; here
:func:`repro.pipeline.builder.build_graph` wires it in code).  Filters
are registered with a factory (one fresh
:class:`~repro.datacutter.filter.Filter` instance is built per copy) and
connected by named unidirectional streams, each with a buffer scheduling
policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .filter import Filter
from .scheduling import rule_for

__all__ = ["FilterGraph", "FilterSpec", "StreamEdge"]

FilterFactory = Callable[[], Filter]


@dataclass
class FilterSpec:
    """One filter in the graph, instantiated as ``copies`` transparent
    (or explicitly addressed) copies at run time."""

    name: str
    factory: FilterFactory
    copies: int = 1

    def __post_init__(self) -> None:
        if self.copies < 1:
            raise ValueError(f"filter {self.name!r}: copies must be >= 1")


@dataclass
class StreamEdge:
    """A unidirectional stream from one filter's output to another."""

    stream: str
    src: str
    dst: str
    policy: str = "demand_driven"

    def __post_init__(self) -> None:
        rule_for(self.policy)  # validate early


class FilterGraph:
    """A network of filters connected by streams."""

    def __init__(self) -> None:
        self.filters: Dict[str, FilterSpec] = {}
        self.edges: List[StreamEdge] = []

    def add_filter(self, name: str, factory: FilterFactory, copies: int = 1) -> None:
        if name in self.filters:
            raise ValueError(f"duplicate filter name {name!r}")
        self.filters[name] = FilterSpec(name=name, factory=factory, copies=copies)

    def connect(
        self, src: str, stream: str, dst: str, policy: str = "demand_driven"
    ) -> None:
        """Connect ``src``'s output stream ``stream`` to filter ``dst``."""
        for name in (src, dst):
            if name not in self.filters:
                raise ValueError(f"unknown filter {name!r}")
        if any(e.stream == stream and e.src == src for e in self.edges):
            raise ValueError(f"stream {stream!r} of {src!r} already connected")
        self.edges.append(StreamEdge(stream=stream, src=src, dst=dst, policy=policy))

    # -- queries -----------------------------------------------------------

    def out_edges(self, name: str) -> List[StreamEdge]:
        return [e for e in self.edges if e.src == name]

    def in_edges(self, name: str) -> List[StreamEdge]:
        return [e for e in self.edges if e.dst == name]

    def sources(self) -> List[str]:
        """Filters with no input streams (run via ``generate``)."""
        return [name for name in self.filters if not self.in_edges(name)]

    def sinks(self) -> List[str]:
        return [name for name in self.filters if not self.out_edges(name)]

    def copies(self, name: str) -> int:
        return self.filters[name].copies

    def validate(self) -> None:
        """Check the graph is runnable: connected, acyclic, has sources,
        and every filter can tell its input streams apart."""
        if not self.filters:
            raise ValueError("empty filter graph")
        if not self.sources():
            raise ValueError("graph has no source filters (cycle or no entry)")
        # A consumer identifies the edge a buffer arrived on by stream
        # name, so its input streams must be distinct.
        for name in self.filters:
            streams = [e.stream for e in self.in_edges(name)]
            if len(streams) != len(set(streams)):
                raise ValueError(
                    f"filter {name!r} has duplicate input stream names: {streams}"
                )
        # Cycle check via Kahn's algorithm on filter-level edges.
        indeg = {name: len(self.in_edges(name)) for name in self.filters}
        ready = [n for n, d in indeg.items() if d == 0]
        seen = 0
        while ready:
            n = ready.pop()
            seen += 1
            for e in self.out_edges(n):
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    ready.append(e.dst)
        if seen != len(self.filters):
            raise ValueError("filter graph contains a cycle")

    def __repr__(self) -> str:
        fl = ", ".join(f"{s.name}x{s.copies}" for s in self.filters.values())
        return f"FilterGraph({fl}; {len(self.edges)} streams)"
