"""Unit tests for the scheduling rules, applied through the routing core."""

import pytest

from repro.datacutter.graph import StreamEdge
from repro.datacutter.routing import EdgeRouter, RoutingError
from repro.datacutter.scheduling import RULES, demand_driven, rule_for


def router(policy, n):
    return EdgeRouter(policy, n, 1, "P:s", "C")


class TestRoundRobin:
    def test_cycles(self):
        r = router("round_robin", 3)
        picks = [r.pick() for _ in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]

    def test_equal_assignment(self):
        """Paper 4.1: each copy receives roughly the same amount of data."""
        r = router("round_robin", 4)
        for _ in range(100):
            r.route()
        assert list(r.assigned) == [25] * 4
        assert r.sent() == 100

    def test_empty_copies(self):
        r = router("round_robin", 2)
        r.mark_dead(0)
        r.mark_dead(1)
        with pytest.raises(RoutingError, match="no surviving consumer copies"):
            r.pick()


class TestDemandDriven:
    def test_prefers_short_queue(self):
        assert demand_driven([0, 1, 2], [5, 1, 3], [0, 0, 0], 0) == 1
        r = router("demand_driven", 3)
        for idx, depth in enumerate([5, 1, 3]):
            for _ in range(depth):
                r.claim(idx)
        assert r.pick() == 1

    def test_fast_consumer_attracts_more(self):
        """A much faster copy attracts most buffers once the slow one backs up.

        One buffer arrives per step; copy 0 can drain 2/step, copy 1 only
        1 every 4 steps, so copy 1's queue stays non-empty and the
        demand-driven scheduler steers ~3/4 of traffic to copy 0.
        """
        r = router("demand_driven", 2)
        for step in range(400):
            r.route()
            for _ in range(2):
                if r.queued[0]:
                    r.consume(0)
            if step % 4 == 0 and r.queued[1]:
                r.consume(1)
        assert r.assigned[0] > 2 * r.assigned[1]

    def test_deterministic_tie_break(self):
        r = router("demand_driven", 3)
        assert r.route() == 0
        r.consume(0)
        assert r.pick() == 1  # fewest assigned among ties


class TestExplicit:
    def test_requires_dest(self):
        r = router("explicit", 2)
        assert r.rule is None
        assert r.route(1) == 1 and list(r.queued) == [0, 1]
        r.mark_dead(0)
        with pytest.raises(RoutingError, match=r"targets dead copy C\[0\]"):
            r.pick(0)


class TestEdgeRouter:
    def test_consume_accounting(self):
        r = router("round_robin", 1)
        r.route()
        r.route()
        assert r.queued[0] == 2 and r.assigned[0] == 2
        r.consume(0)
        assert r.queued[0] == 1
        r.consume(0)
        with pytest.raises(RuntimeError):
            r.consume(0)
        with pytest.raises(RuntimeError):
            r.unclaim(0)
        assert r.sent() == 2


class TestMakePolicy:
    @pytest.mark.parametrize("name", ["round_robin", "demand_driven", "explicit"])
    def test_known(self, name):
        assert router(name, 2).rule is RULES[name] is rule_for(name)

    def test_unknown(self):
        with pytest.raises(ValueError):
            rule_for("random")
        with pytest.raises(ValueError):
            router("random", 2)
        with pytest.raises(ValueError):
            StreamEdge("s", "P", "C", "random")

    def test_fresh_state(self):
        a = router("round_robin", 2)
        b = router("round_robin", 2)
        a.pick()
        assert b.pick() == 0  # b has independent cycle state
