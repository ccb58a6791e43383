"""Distributed-runtime specifics: placement, connection faults, recovery.

Cross-runtime semantics are covered by ``test_runtime_conformance``;
these tests exercise what only the TCP runtime has — worker agents,
per-connection fault injection, agent-death detection and rerouting,
heartbeat configuration, the handshake, and the default placement
policy.  The head-state tests at the bottom drive the head's internal
machine without sockets, to pin down races that are hard to provoke
through real ones.
"""

import socket
import sys
import threading
import time

import pytest

from repro.datacutter.buffers import DataBuffer
from repro.datacutter.faults import FaultPlan, PipelineError
from repro.datacutter.filter import Filter
from repro.datacutter.graph import FilterGraph
from repro.datacutter.net import DistRuntime, codec, default_placement
from repro.datacutter.placement import Placement

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="fork start method required"
)

COUNT = 24


class Producer(Filter):
    def __init__(self, count=COUNT):
        self.count = count

    def generate(self, ctx):
        for i in range(self.count):
            ctx.send("out", i, size_bytes=8)


class Doubler(Filter):
    def process(self, stream, buffer, ctx):
        ctx.send("out", buffer.payload * 2, size_bytes=8)


class Collector(Filter):
    def __init__(self):
        self.items = []

    def process(self, stream, buffer, ctx):
        self.items.append(buffer.payload)

    def finalize(self, ctx):
        ctx.deposit("collected", sorted(self.items))


def pipeline(doubler_copies=3, count=COUNT):
    g = FilterGraph()
    g.add_filter("P", lambda: Producer(count))
    g.add_filter("D", Doubler, copies=doubler_copies)
    g.add_filter("C", Collector)
    g.connect("P", "out", "D", policy="demand_driven")
    g.connect("D", "out", "C")
    return g


def run_dist(graph, hosts=None, **kw):
    rt = DistRuntime(graph, hosts=hosts or ["127.0.0.1"] * 3, **kw)
    return rt.run(timeout=120)


EXPECTED = [[2 * i for i in range(COUNT)]]


def assert_at_least_once(result):
    """Every item arrived; any duplicate is a rerouted re-delivery.

    An agent that dies after its copy sent a buffer downstream but
    before that buffer's ack left has the buffer rerouted, so a
    survivor processes it again.  Delivery is at-least-once by design:
    the pipeline's stitchers dedup by position, but ``Collector`` is a
    plain list, so it keeps the duplicate.
    """
    (items,) = result.deposits("collected")
    assert sorted(set(items)) == EXPECTED[0]
    assert len(items) - len(set(items)) <= result.reroutes


class TestDefaultPlacement:
    def test_endpoints_on_head_node_workers_spread(self):
        g = pipeline(doubler_copies=4)
        p = default_placement(g, ["n0", "n1", "n2"])
        assert p.node_of("P", 0) == "n0"
        assert p.node_of("C", 0) == "n0"
        # Replicated transparent-input copies round-robin over n1..n2.
        workers = {p.node_of("D", i) for i in range(4)}
        assert workers == {"n1", "n2"}

    def test_single_node_takes_everything(self):
        g = pipeline()
        p = default_placement(g, ["solo"])
        for i in range(3):
            assert p.node_of("D", i) == "solo"

    def test_explicit_input_copies_stay_on_head_node(self):
        g = FilterGraph()
        g.add_filter("P", Producer)
        g.add_filter("D", Doubler, copies=3)
        g.connect("P", "out", "D", policy="explicit")
        p = default_placement(g, ["n0", "n1"])
        for i in range(3):
            assert p.node_of("D", i) == "n0"


class TestValidation:
    def test_empty_host_list_rejected(self):
        with pytest.raises(ValueError):
            DistRuntime(pipeline(), hosts=[])

    def test_placement_must_cover_every_copy(self):
        g = pipeline()
        p = Placement()
        p.place("P", 0, "127.0.0.1")
        with pytest.raises(ValueError):
            DistRuntime(g, hosts=["127.0.0.1"], placement=p)

    def test_connection_fault_unknown_agent_rejected(self):
        plan = FaultPlan().crash_agent(9)
        with pytest.raises(ValueError):
            DistRuntime(pipeline(), hosts=["127.0.0.1"] * 2, faults=plan)

    def test_duplicate_hosts_get_distinct_node_names(self):
        rt = DistRuntime(pipeline(), hosts=["127.0.0.1"] * 3)
        assert len(set(rt.node_names)) == 3

    def test_hello_protocol_versioning(self):
        hello = codec.parse_hello(codec.make_hello(2, "tok", 123))
        assert hello.index == 2
        assert hello.token == "tok"
        assert hello.pid == 123
        assert hello.version == codec.PROTOCOL_VERSION
        legacy = codec.parse_hello(("hello", 1, "tok", 99))
        assert legacy.version == 1  # agents before the version field
        assert codec.parse_hello(("nonsense",)) is None


class TestHeartbeatConfig:
    def test_env_var_is_read_when_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIST_HEARTBEAT_TIMEOUT", "7.5")
        rt = DistRuntime(pipeline(), hosts=["127.0.0.1"] * 2)
        assert rt.heartbeat_timeout == 7.5

    def test_explicit_value_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIST_HEARTBEAT_TIMEOUT", "7.5")
        rt = DistRuntime(
            pipeline(), hosts=["127.0.0.1"] * 2, heartbeat_timeout=2.0
        )
        assert rt.heartbeat_timeout == 2.0

    def test_default_is_five_seconds(self, monkeypatch):
        monkeypatch.delenv("REPRO_DIST_HEARTBEAT_TIMEOUT", raising=False)
        rt = DistRuntime(pipeline(), hosts=["127.0.0.1"] * 2)
        assert rt.heartbeat_timeout == 5.0

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            DistRuntime(
                pipeline(), hosts=["127.0.0.1"] * 2, heartbeat_timeout=0
            )

    def test_pipeline_kwargs_are_distributed_only(self, tmp_path):
        from repro.data.synthetic import PhantomConfig, generate_phantom
        from repro.pipeline.run import run_pipeline
        from repro.storage.dataset import write_dataset

        vol = generate_phantom(PhantomConfig(shape=(8, 8, 4, 3), seed=0))
        root = str(tmp_path / "ds")
        write_dataset(vol, root, num_nodes=1)
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            run_pipeline(root, runtime="threads", heartbeat_timeout=2.0)
        # Membership is fixed at start: there is no join/drain keyword.
        for kw in ("elastic", "schedule"):
            with pytest.raises(TypeError, match=kw):
                run_pipeline(root, runtime="distributed", **{kw: True})


class TestConnectionFaults:
    def test_dropped_deliveries_are_redelivered(self):
        plan = FaultPlan(seed=2).drop_deliveries(1, probability=0.3,
                                                 max_drops=5)
        result = run_dist(pipeline(), faults=plan)
        assert result.deposits("collected") == EXPECTED
        assert result.retries >= 1
        assert result.failed_copies == []

    def test_delayed_connection_still_completes(self):
        plan = FaultPlan(seed=4).delay_connection(2, delay=0.05, max_delays=4)
        result = run_dist(pipeline(), faults=plan)
        assert result.deposits("collected") == EXPECTED

    def test_agent_crash_reroutes_to_survivors(self):
        plan = FaultPlan(seed=7).crash_agent(1, after_buffers=1)
        result = run_dist(pipeline(doubler_copies=4), faults=plan)
        assert_at_least_once(result)
        assert result.reroutes >= 1
        assert result.failed_copies != []
        assert all(f.recovered and f.kind == "crash"
                   for f in result.failed_copies)
        assert {f.filter_name for f in result.failed_copies} == {"D"}

    def test_agent_crash_by_node_name(self):
        rt = DistRuntime(pipeline(doubler_copies=4),
                         hosts=["127.0.0.1"] * 3)
        name = rt.node_names[2]
        plan = FaultPlan(seed=9).crash_agent(name, after_buffers=1)
        result = run_dist(pipeline(doubler_copies=4), faults=plan)
        assert_at_least_once(result)

    def test_head_agent_crash_is_fatal(self):
        # Agent 0 hosts the source and sink: nothing to reroute to.
        plan = FaultPlan().crash_agent(0, after_buffers=1)
        with pytest.raises(PipelineError) as exc:
            run_dist(pipeline(), faults=plan)
        assert any(f.kind == "crash" for f in exc.value.failures)


class TestAccounting:
    def test_wire_bytes_per_stream(self):
        result = run_dist(pipeline())
        assert set(result.wire_bytes) == {"P:out", "D:out"}
        assert all(v > 0 for v in result.wire_bytes.values())

    def test_matches_local_runtime(self):
        from repro.datacutter.runtime_local import LocalRuntime

        a = LocalRuntime(pipeline()).run(timeout=60).deposits("collected")
        b = run_dist(pipeline()).deposits("collected")
        assert a == b


# ----------------------------------------------------------------------
# Head-state unit tests: drive the internal machine without sockets.


def _head():
    rt = DistRuntime(pipeline(), hosts=["127.0.0.1"] * 3)
    rt._reset()
    return rt


class TestHeadStateMachine:
    def test_late_heartbeat_does_not_resurrect_dead_agent(self):
        rt = _head()
        conn = rt._conns[1]
        rt._on_agent_gone(conn, "heartbeat timeout")
        assert conn.dead
        conn.last_seen = 0.0
        rt._on_frame(conn, ("hb",))
        # The frame was dropped wholesale: liveness not refreshed, so
        # the agent stays dead instead of flapping back to life.
        assert conn.last_seen == 0.0

    def test_frames_from_dead_connection_are_ignored(self):
        rt = _head()
        conn = rt._conns[1]
        rt._on_agent_gone(conn, "heartbeat timeout")
        before = dict(rt._results)
        rt._on_frame(conn, ("deposit", "collected", [1, 2, 3]))
        assert rt._results == before

    @pytest.mark.parametrize(
        "frame",
        [
            # An explicit send to a copy the edge does not have.
            ("send", "S", 0, "s", 99, DataBuffer(payload=1, size_bytes=8)),
            ("send", "S"),  # too short to unpack
        ],
        ids=["dest-out-of-range", "truncated"],
    )
    def test_bad_frame_fails_the_run_at_once(self, frame):
        g = FilterGraph()
        g.add_filter("S", Producer)
        g.add_filter("D", Collector, copies=2)
        g.connect("S", "s", "D", policy="explicit")
        rt = DistRuntime(g, hosts=["127.0.0.1"] * 2)
        rt._reset()
        conn = rt._conns[0]
        conn.sock, agent_end = socket.socketpair()
        reader = threading.Thread(target=rt._reader, args=(conn,))
        reader.start()
        try:
            start = time.monotonic()
            codec.send_message(agent_end, frame)
            # Fatal on the frame itself, not at the heartbeat timeout a
            # silently ended reader would leave the run to.
            assert rt._done_event.wait(timeout=rt.heartbeat_timeout / 5)
            assert time.monotonic() - start < rt.heartbeat_timeout / 5
        finally:
            rt._stopping = True
            agent_end.close()
            reader.join(timeout=5)
            conn.sock.close()
        assert not reader.is_alive()
        assert rt._fatal
        (failure,) = rt._failures
        assert failure.filter_name == "<runtime>"
        assert "'send' frame" in failure.error
