"""Unit tests for filter graphs and placement."""

import pytest

from repro.datacutter.filter import Filter
from repro.datacutter.graph import FilterGraph
from repro.datacutter.placement import Placement


class Dummy(Filter):
    def generate(self, ctx):
        pass

    def process(self, stream, buffer, ctx):
        pass


def linear_graph():
    g = FilterGraph()
    g.add_filter("A", Dummy, copies=2)
    g.add_filter("B", Dummy, copies=3)
    g.add_filter("C", Dummy)
    g.connect("A", "ab", "B", policy="round_robin")
    g.connect("B", "bc", "C")
    return g


class TestFilterGraph:
    def test_sources_and_sinks(self):
        g = linear_graph()
        assert g.sources() == ["A"]
        assert g.sinks() == ["C"]

    def test_edges_queries(self):
        g = linear_graph()
        assert [e.dst for e in g.out_edges("A")] == ["B"]
        assert [e.src for e in g.in_edges("C")] == ["B"]
        assert g.copies("B") == 3

    def test_duplicate_filter_rejected(self):
        g = FilterGraph()
        g.add_filter("A", Dummy)
        with pytest.raises(ValueError):
            g.add_filter("A", Dummy)

    def test_unknown_endpoint_rejected(self):
        g = FilterGraph()
        g.add_filter("A", Dummy)
        with pytest.raises(ValueError):
            g.connect("A", "s", "B")

    def test_duplicate_stream_rejected(self):
        g = FilterGraph()
        g.add_filter("A", Dummy)
        g.add_filter("B", Dummy)
        g.connect("A", "s", "B")
        with pytest.raises(ValueError):
            g.connect("A", "s", "B")

    def test_invalid_policy_rejected(self):
        g = FilterGraph()
        g.add_filter("A", Dummy)
        g.add_filter("B", Dummy)
        with pytest.raises(ValueError):
            g.connect("A", "s", "B", policy="bogus")

    def test_cycle_detected(self):
        g = FilterGraph()
        g.add_filter("A", Dummy)
        g.add_filter("B", Dummy)
        g.connect("A", "ab", "B")
        g.connect("B", "ba", "A")
        with pytest.raises(ValueError):
            g.validate()

    def test_empty_graph_invalid(self):
        with pytest.raises(ValueError):
            FilterGraph().validate()

    def test_invalid_copies(self):
        g = FilterGraph()
        with pytest.raises(ValueError):
            g.add_filter("A", Dummy, copies=0)

    def test_valid_graph_passes(self):
        linear_graph().validate()

    def test_duplicate_input_stream_names_rejected(self):
        # A consumer tells its input edges apart by stream name: two
        # producers feeding one filter over equally named streams make
        # the graph itself invalid, whatever runtime would execute it.
        g = FilterGraph()
        g.add_filter("A", Dummy)
        g.add_filter("B", Dummy)
        g.add_filter("C", Dummy)
        g.connect("A", "out", "C")
        g.connect("B", "out", "C")
        with pytest.raises(ValueError, match="duplicate input stream names"):
            g.validate()


class TestPlacement:
    def test_place_and_lookup(self):
        p = Placement()
        p.place("A", 0, "n0")
        p.place_copies("B", ["n0", "n1"])
        assert p.node_of("A", 0) == "n0"
        assert p.node_of("B", 1) == "n1"
        assert p.copies_on("n0") == [("A", 0), ("B", 0)]
        assert p.nodes() == ["n0", "n1"]

    def test_colocated(self):
        p = Placement()
        p.place("A", 0, "n0")
        p.place("B", 0, "n0")
        p.place("B", 1, "n1")
        assert p.colocated(("A", 0), ("B", 0))
        assert not p.colocated(("A", 0), ("B", 1))

    def test_round_robin_placement(self):
        p = Placement()
        p.place_round_robin("A", 5, ["n0", "n1"])
        assert [p.node_of("A", i) for i in range(5)] == ["n0", "n1", "n0", "n1", "n0"]

    def test_duplicate_placement_rejected(self):
        p = Placement()
        p.place("A", 0, "n0")
        with pytest.raises(ValueError):
            p.place("A", 0, "n1")

    def test_missing_lookup(self):
        with pytest.raises(KeyError):
            Placement().node_of("A", 0)

    def test_validate_for_graph(self):
        g = linear_graph()
        p = Placement()
        p.place_copies("A", ["n0", "n1"])
        p.place_copies("B", ["n0", "n1", "n2"])
        with pytest.raises(ValueError):
            p.validate_for(g)  # C unplaced
        p.place("C", 0, "n0")
        p.validate_for(g)

    def test_validate_rejects_extra(self):
        g = FilterGraph()
        g.add_filter("A", Dummy)
        p = Placement()
        p.place("A", 0, "n0")
        p.place("Z", 0, "n0")
        with pytest.raises(ValueError):
            p.validate_for(g)
