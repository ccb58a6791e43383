"""Stateful check of the peer runtimes' one edge protocol.

``_SharedEdge`` is the routing state threads and processes share: depth
counters, dead/departed marks, ``producers_done`` and the atomic close.
On the thread backend it needs no processes and no queues to be driven,
so hypothesis walks it single-threaded through arbitrary interleavings
of the calls copies make on it and compares against a plain model.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.datacutter.faults import _Aborted
from repro.datacutter.graph import StreamEdge
from repro.datacutter.runtime_local import (
    _SharedAbort,
    _SharedEdge,
    _ThreadBackend,
)

N_COPIES = 3
N_PRODUCERS = 2
copies = st.integers(0, N_COPIES - 1)


class EdgeProtocol(RuleBasedStateMachine):
    @initialize(policy=st.sampled_from(["round_robin", "demand_driven", "explicit"]))
    def build(self, policy):
        backend = _ThreadBackend()
        self.policy = policy
        self.abort = _SharedAbort(backend)
        self.wake = [backend.Event() for _ in range(N_COPIES)]
        self.edge = _SharedEdge(
            StreamEdge("s", "P", "C", policy), N_COPIES, 4, backend,
            n_producers=N_PRODUCERS, wake=self.wake,
        )
        # The model: what the calls made so far must add up to.
        self.queued = [0] * N_COPIES
        self.assigned = [0] * N_COPIES
        self.claims = 0
        self.undone = 0
        self.done = 0
        self.dead = set()
        self.departed = set()

    def gone(self):
        return self.dead | self.departed

    def claim(self, idx):
        assert idx not in self.gone(), "picked a dead or departed copy"
        self.queued[idx] += 1
        self.assigned[idx] += 1
        self.claims += 1

    # -- producer side -------------------------------------------------------

    @precondition(lambda self: self.policy != "explicit")
    @rule()
    def choose(self):
        alive = [i for i in range(N_COPIES) if i not in self.gone()]
        if not alive:
            with pytest.raises(_Aborted):
                self.edge.choose(self.abort)
            assert self.abort.value
            return
        before = list(self.queued)
        idx = self.edge.choose(self.abort)
        if self.policy == "demand_driven":
            assert before[idx] == min(before[i] for i in alive)
        self.claim(idx)

    @precondition(lambda self: self.policy == "explicit")
    @rule(idx=copies)
    def assign_explicit(self, idx):
        if idx in self.gone():
            with pytest.raises(_Aborted):
                self.edge.assign_explicit(idx, self.abort)
            assert self.abort.value
            return
        self.edge.assign_explicit(idx, self.abort)
        self.claim(idx)

    @rule(idx=copies)
    def unassign(self, idx):
        # A producer undoes a claim it could not deliver (abort raised,
        # or the chosen copy died while it was blocked).
        if self.queued[idx]:
            self.edge.unassign(idx)
            self.queued[idx] -= 1
            self.assigned[idx] -= 1
            self.undone += 1

    @precondition(lambda self: self.done < N_PRODUCERS)
    @rule()
    def producer_done(self):
        for ev in self.wake:
            ev.clear()
        self.edge.producer_done()
        self.done += 1
        assert all(ev.is_set() for ev in self.wake)

    # -- consumer side -------------------------------------------------------

    @rule(idx=copies)
    def on_consume(self, idx):
        if self.queued[idx]:
            for ev in self.wake:
                ev.clear()
            self.edge.on_consume(idx)
            self.queued[idx] -= 1
            drained = self.done == N_PRODUCERS and not any(self.queued)
            # The last in-flight buffer wakes every copy to close.
            assert all(ev.is_set() for ev in self.wake) == drained

    @rule(idx=copies)
    def mark_dead(self, idx):
        self.edge.mark_dead(idx)
        self.dead.add(idx)

    @rule(idx=copies)
    def try_close(self, idx):
        closable = idx in self.departed or (
            self.done == N_PRODUCERS and not any(self.queued)
        )
        assert self.edge.try_close(idx) == closable
        if closable:
            self.departed.add(idx)

    # -- what must hold after every step -------------------------------------

    @invariant()
    def counters_match_and_never_negative(self):
        assert list(self.edge.queued) == self.queued
        assert list(self.edge.assigned) == self.assigned
        assert min(self.queued) >= 0 and min(self.assigned) >= 0

    @invariant()
    def sent_is_claims_minus_undone(self):
        assert self.edge.sent.value == self.claims - self.undone

    @invariant()
    def departed_and_dead_are_forever(self):
        assert {i for i in range(N_COPIES) if self.edge.departed[i]} == self.departed
        assert {i for i in range(N_COPIES) if self.edge.dead[i]} == self.dead

    @invariant()
    def survivors_agree(self):
        assert self.edge.has_survivors() == (len(self.gone()) < N_COPIES)


TestEdgeProtocol = EdgeProtocol.TestCase
TestEdgeProtocol.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
