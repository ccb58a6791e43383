"""The routing core: one stream edge's scheduling state, written once.

DataCutter routes every transparent stream by one rule, round-robin or
demand-driven over unconsumed buffers (paper Section 4.1), and a
consumer copy's stream closes once every producer copy is done and
nothing is left to deliver.  :class:`EdgeRouter` owns that per-edge
accounting for every runtime:

* the live set: copies declared dead, and copies that departed (closed
  the stream);
* the pick by the edge's rule (:mod:`repro.datacutter.scheduling`),
  kept apart from the claim so that a caller may pick, wait and only
  then claim;
* the claim, unclaim, consume and producer-done transitions;
* the drained test that decides when a stream closes;
* the two verdicts that end a run, raised as :class:`RoutingError`: an
  explicit destination that is dead, and no surviving consumer copy.

The core holds no lock, queue, socket or clock.  Its counters live in
storage the caller supplies (``array``/``cell``), so the fork backend
of the processes runtime can put them in shared memory.  Around it:

* the peer runtimes' ``_SharedEdge`` (``runtime_local.py``) add a lock,
  bounded queues, wakeups, the blocking put and traffic counters;
* the distributed head (``net/runtime_dist.py``) adds its pending
  deque, credit windows and sequence-numbered in-flight table;
* the simulator's ``SimRouter`` (``sim/simfilters.py``) adds simulated
  flow control: the demand-driven pull FIFO, ``prefer_local`` and the
  sender window.
"""

from __future__ import annotations

from typing import List, Optional

from .scheduling import rule_for

__all__ = ["EdgeRouter", "RoutingError"]


class RoutingError(RuntimeError):
    """A routing verdict that no reroute can recover from."""


class _Cell:
    """Integer cell with the ``.value`` of ``multiprocessing.Value``."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def _zeros(n: int) -> List[int]:
    return [0] * n


class EdgeRouter:
    """Routing state of one stream edge into ``consumers`` copies.

    ``queued[i]`` counts the buffers claimed for copy ``i`` and not yet
    consumed (queued, in flight or awaiting credit); ``assigned[i]``
    counts its claims less its unclaims.  ``label`` and ``dst`` (the
    consumer filter) only name the edge in verdicts.
    """

    def __init__(
        self,
        policy: str,
        consumers: int,
        producers: int,
        label: str = "",
        dst: str = "",
        array=_zeros,
        cell=_Cell,
    ):
        #: The transparent rule (``None``: explicit addressing).
        self.rule = rule_for(policy)
        self.consumers = consumers
        self.producers = producers
        self.label = label
        self.dst = dst
        self.queued = array(consumers)
        self.assigned = array(consumers)
        self.dead = array(consumers)
        self.departed = array(consumers)
        # Producer copies that finished sending (edge-level EOS).
        self.producers_done = cell()
        self.picks = cell()

    def live(self) -> List[int]:
        """Copies neither dead nor departed, in index order."""
        return [
            i for i in range(self.consumers)
            if not (self.dead[i] or self.departed[i])
        ]

    def survivors(self) -> List[int]:
        """:meth:`live`, where none left is a fatal verdict."""
        alive = self.live()
        if not alive:
            raise RoutingError(f"stream {self.label}: no surviving consumer copies")
        return alive

    def pick(self, dest_copy: Optional[int] = None) -> int:
        """The copy the next buffer goes to, not yet claimed.

        On an explicit edge that is ``dest_copy``, and a dead or departed
        one is fatal: placement there is semantic (all pieces of one
        chunk meet at one copy).  Otherwise it is the rule's choice among
        the survivors.
        """
        if self.rule is None:
            if self.dead[dest_copy] or self.departed[dest_copy]:
                raise RoutingError(
                    f"explicit stream {self.label} targets dead copy "
                    f"{self.dst}[{dest_copy}]"
                )
            return dest_copy
        idx = self.rule(self.survivors(), self.queued, self.assigned, self.picks.value)
        self.picks.value += 1
        return idx

    def claim(self, idx: int) -> None:
        """Commit one buffer to copy ``idx``."""
        self.queued[idx] += 1
        self.assigned[idx] += 1

    def route(self, dest_copy: Optional[int] = None) -> int:
        """Pick and claim at once; returns the copy."""
        idx = self.pick(dest_copy)
        self.claim(idx)
        return idx

    def unclaim(self, idx: int) -> None:
        """Undo a claim whose buffer never reached copy ``idx``."""
        if self.queued[idx] <= 0:
            raise RuntimeError(f"copy {idx}: unclaim without a claim")
        self.queued[idx] -= 1
        self.assigned[idx] -= 1

    def consume(self, idx: int) -> None:
        """Copy ``idx`` finished with one of its buffers."""
        if self.queued[idx] <= 0:
            raise RuntimeError(f"copy {idx}: consumed more than claimed")
        self.queued[idx] -= 1

    def producer_done(self) -> None:
        self.producers_done.value += 1

    def mark_dead(self, idx: int) -> None:
        self.dead[idx] = 1

    def drained(self) -> bool:
        """Every producer copy is done and no copy holds a claim.

        The test spans *every* copy, dead ones included: while any copy
        still holds buffers it could yet fail and need a survivor as its
        reroute target, so no survivor may close before then.
        """
        return self.producers_done.value >= self.producers and not any(self.queued)

    def try_close(self, idx: int) -> bool:
        """Depart copy ``idx`` once the edge is drained; True when it has."""
        if not self.departed[idx]:
            if not self.drained():
                return False
            self.departed[idx] = 1
        return True

    def sent(self) -> int:
        """Buffers claimed on the edge, less those unclaimed."""
        return sum(self.assigned)
