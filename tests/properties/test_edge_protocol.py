"""Stateful check of the routing core every runtime shares.

:class:`~repro.datacutter.routing.EdgeRouter` is one stream edge's
routing state: depth and assignment counters, the dead/departed live
set, ``producers_done``, the pick by the edge's rule and the close.  It
holds no lock, queue or clock, so hypothesis walks it through arbitrary
interleavings of the calls the peer runtimes, the distributed head and
the simulator make on it — including the simulator's pick now, claim
later — and compares against a plain model.  A short test at the end
checks the wakeups the peer runtimes' ``_SharedEdge`` adds around it.
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
from repro.datacutter.routing import EdgeRouter, RoutingError
from repro.datacutter.runtime_local import _SharedAbort, _SharedEdge, _ThreadBackend

N_COPIES = 3
N_PRODUCERS = 2
copies = st.integers(0, N_COPIES - 1)


class EdgeProtocol(RuleBasedStateMachine):
    @initialize(policy=st.sampled_from(["round_robin", "demand_driven", "explicit"]))
    def build(self, policy):
        self.policy = policy
        self.edge = EdgeRouter(policy, N_COPIES, N_PRODUCERS, "P:s", "C")
        # The model: what the calls made so far must add up to.
        self.queued = [0] * N_COPIES
        self.assigned = [0] * N_COPIES
        self.picks = 0
        self.picked = []  # picked by the simulator, not yet claimed
        self.claims = 0
        self.undone = 0
        self.done = 0
        self.dead = set()
        self.departed = set()

    def alive(self):
        return [i for i in range(N_COPIES) if i not in self.dead | self.departed]

    def expect_pick(self, dest):
        """The model's pick, or ``None`` where the core must refuse."""
        alive = self.alive()
        if self.policy == "explicit":
            return dest if dest in alive else None
        if not alive:
            return None
        if self.policy == "round_robin":
            return alive[self.picks % len(alive)]
        return min(alive, key=lambda i: (self.queued[i], self.assigned[i], i))

    def pick(self, dest):
        want = self.expect_pick(dest)
        if want is None:
            message = "targets dead copy" if self.policy == "explicit" else (
                "no surviving consumer copies"
            )
            with pytest.raises(RoutingError, match=message):
                self.edge.pick(dest)
            return None
        assert self.edge.pick(dest) == want
        self.picks += self.policy != "explicit"
        return want

    def claim(self, idx):
        self.queued[idx] += 1
        self.assigned[idx] += 1
        self.claims += 1

    # -- producer side -------------------------------------------------------

    @rule(dest=copies)
    def route(self, dest):
        # Peer runtimes and the head: pick and claim at once.
        dest = dest if self.policy == "explicit" else None
        idx = self.pick(dest)
        if idx is None:
            return
        before = self.edge.picks.value
        self.edge.claim(idx)
        assert self.edge.picks.value == before  # a claim is not a pick
        self.claim(idx)

    @precondition(lambda self: self.policy == "round_robin")
    @rule()
    def pick_and_wait(self):
        # The simulator: pick, then wait for queue room.
        idx = self.pick(None)
        if idx is not None:
            self.picked.append(idx)

    @precondition(lambda self: self.picked)
    @rule()
    def claim_after_wait(self):
        # The copy may have died during the wait: the claim stands and
        # the delivery is rerouted later.
        idx = self.picked.pop(0)
        self.edge.claim(idx)
        self.claim(idx)

    @rule(idx=copies)
    def unclaim(self, idx):
        # A producer undoes a claim it could not deliver (abort raised,
        # or the chosen copy died while it was blocked).
        if self.queued[idx]:
            self.edge.unclaim(idx)
            self.queued[idx] -= 1
            self.assigned[idx] -= 1
            self.undone += 1
        else:
            with pytest.raises(RuntimeError):
                self.edge.unclaim(idx)

    @precondition(lambda self: self.done < N_PRODUCERS)
    @rule()
    def producer_done(self):
        self.edge.producer_done()
        self.done += 1

    # -- consumer side -------------------------------------------------------

    @rule(idx=copies)
    def consume(self, idx):
        if self.queued[idx]:
            self.edge.consume(idx)
            self.queued[idx] -= 1
        else:
            with pytest.raises(RuntimeError):
                self.edge.consume(idx)

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
        assert self.edge.picks.value == self.picks
        assert self.edge.producers_done.value == self.done

    @invariant()
    def sent_is_claims_minus_undone(self):
        assert self.edge.sent() == self.claims - self.undone

    @invariant()
    def departed_and_dead_are_forever(self):
        assert {i for i in range(N_COPIES) if self.edge.departed[i]} == self.departed
        assert {i for i in range(N_COPIES) if self.edge.dead[i]} == self.dead

    @invariant()
    def live_set_and_drained_agree(self):
        assert self.edge.live() == self.alive()
        assert self.edge.drained() == (
            self.done == N_PRODUCERS and not any(self.queued)
        )


TestEdgeProtocol = EdgeProtocol.TestCase
TestEdgeProtocol.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


def test_shared_edge_wakes_every_consumer_on_edge_transitions():
    """Producer done, the last consume of a drained edge and a copy's
    death wake every consumer; a consume that leaves work does not, and
    a fatal pick raises the run's abort."""
    backend = _ThreadBackend()
    abort = _SharedAbort(backend)
    wake = [backend.Event() for _ in range(2)]
    edge = _SharedEdge(
        StreamEdge("s", "P", "C", "round_robin"), 2, 4, backend,
        n_producers=1, wake=wake,
    )

    def woke(step):
        for ev in wake:
            ev.clear()
        step()
        return [ev.is_set() for ev in wake]

    assert edge.claim(None, abort) == 0
    assert edge.claim(None, abort) == 1
    assert woke(edge.producer_done) == [True, True]
    assert woke(lambda: edge.on_consume(0)) == [False, False]
    assert woke(lambda: edge.on_consume(1)) == [True, True]
    assert edge.try_close(0) and edge.has_survivors()
    assert woke(lambda: edge.mark_dead(1)) == [True, True]
    assert not edge.has_survivors()
    with pytest.raises(_Aborted):
        edge.claim(None, abort)
    assert abort.value
