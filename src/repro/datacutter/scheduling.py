"""Buffer scheduling policies for transparent filter copies.

When a stream fans out to several transparent copies of a consumer
filter, the DataCutter scheduler decides which copy receives each buffer
(paper Section 4.1):

* **round robin** — copies take turns, so each receives roughly the same
  number of buffers;
* **demand driven** — buffers go "to the transparent filter copies that
  can process them the fastest", tracked through buffer consumption: the
  copy with the fewest unconsumed (queued, in-flight) buffers wins.

Each transparent rule is written once, as a pure function
(:func:`round_robin`, :func:`demand_driven`).  The peer runtimes apply
it straight to their shared per-edge counters; the distributed head and
the simulator reach the same function through the policy objects and
the :class:`CopyState` view, so scheduling behaviour — the subject of
the paper's Fig. 11 experiment — is identical in real and simulated
runs.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional

from .buffers import DataBuffer

__all__ = [
    "CopyState",
    "SchedulingPolicy",
    "RoundRobinPolicy",
    "DemandDrivenPolicy",
    "ExplicitPolicy",
    "make_policy",
    "round_robin",
    "demand_driven",
]


@dataclass
class CopyState:
    """Scheduler-visible state of one consumer copy."""

    copy_index: int
    queued: int = 0  # buffers delivered but not yet consumed
    assigned: int = 0  # total buffers ever assigned
    assigned_bytes: int = 0

    def on_assign(self, buffer: DataBuffer) -> None:
        self.queued += 1
        self.assigned += 1
        self.assigned_bytes += buffer.size_bytes

    def on_consume(self) -> None:
        if self.queued <= 0:
            raise RuntimeError(f"copy {self.copy_index} consumed more than assigned")
        self.queued -= 1

    def on_unassign(self, buffer: DataBuffer) -> None:
        """Undo :meth:`on_assign` for a buffer that was never delivered
        (its copy died while the producer was blocked on the full queue)."""
        if self.queued <= 0 or self.assigned <= 0:
            raise RuntimeError(f"copy {self.copy_index} unassign underflow")
        self.queued -= 1
        self.assigned -= 1
        self.assigned_bytes -= buffer.size_bytes


def round_robin(alive, queued, assigned, counter) -> int:
    """Copies take turns: the ``counter``-th pick goes to the
    ``counter``-th live copy, cyclically."""
    return alive[counter % len(alive)]


def demand_driven(alive, queued, assigned, counter) -> int:
    """Fewest unconsumed buffers wins; ties break by fewest buffers ever
    assigned, then lowest copy index (deterministic)."""
    return min(alive, key=lambda i: (queued[i], assigned[i], i))


class SchedulingPolicy(abc.ABC):
    """Chooses the consumer copy for each buffer on one stream edge.

    A transparent policy is its :attr:`rule`, a pure function
    ``(alive, queued, assigned, counter) -> copy index`` over the live
    copy indices, the per-copy depth and assignment counts (indexable by
    copy index) and the number of picks made on the edge so far.  The
    peer runtimes apply the rule straight to their shared counters; the
    head and the simulator go through :meth:`choose`.
    """

    name: str = "abstract"
    rule = None

    def __init__(self) -> None:
        self._picks = 0

    def choose(self, copies: List[CopyState], buffer: DataBuffer) -> int:
        """Return the copy index that should receive ``buffer``."""
        if not copies:
            raise ValueError("no consumer copies")
        idx = self.rule(
            [c.copy_index for c in copies],
            {c.copy_index: c.queued for c in copies},
            {c.copy_index: c.assigned for c in copies},
            self._picks,
        )
        self._picks += 1
        return idx

    def requires_explicit_dest(self) -> bool:
        return False


class RoundRobinPolicy(SchedulingPolicy):
    """Cycle through copies; each receives ~the same number of buffers."""

    name = "round_robin"
    rule = staticmethod(round_robin)


class DemandDrivenPolicy(SchedulingPolicy):
    """Send to the copy with the fewest unconsumed buffers.

    A copy that drains its queue quickly (fast node) keeps its queue
    short and therefore attracts more buffers — the consumption-rate
    behaviour of the DataCutter demand-driven scheduler.
    """

    name = "demand_driven"
    rule = staticmethod(demand_driven)


class ExplicitPolicy(SchedulingPolicy):
    """Producer addresses the destination copy itself (paper 4.1).

    Needed where data placement is semantic — e.g. every piece of one
    RFR-to-IIC chunk must reach the *same* IIC copy to be stitched.
    """

    name = "explicit"

    def choose(self, copies: List[CopyState], buffer: DataBuffer) -> int:
        raise RuntimeError(
            "explicit streams require dest_copy on every send; the "
            "scheduler must not be consulted"
        )

    def requires_explicit_dest(self) -> bool:
        return True


_POLICIES = {
    "round_robin": RoundRobinPolicy,
    "demand_driven": DemandDrivenPolicy,
    "explicit": ExplicitPolicy,
}


def make_policy(name: str) -> SchedulingPolicy:
    """Instantiate a policy by name (fresh state per stream edge)."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown scheduling policy {name!r}; valid: {sorted(_POLICIES)}"
        ) from None
