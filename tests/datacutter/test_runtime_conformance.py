"""One semantics, three runtimes.

Every test here runs against the threaded runtime, the multiprocessing
runtime, and the distributed TCP runtime (three loopback agents), so
the newest backend is held to the exact stream-policy / end-of-stream /
retry-dedup / deposit semantics of the ones that predate it.

Filter classes live at module level so forked children can run them.
"""

import sys
import time

import pytest

from repro.datacutter.faults import (
    NO_RETRY,
    FaultPlan,
    PipelineError,
    RetryPolicy,
)
from repro.datacutter.filter import Filter
from repro.datacutter.graph import FilterGraph
from repro.datacutter.net import DistRuntime
from repro.datacutter.runtime_local import LocalRuntime
from repro.datacutter.runtime_mp import MPRuntime

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="fork start method required"
)

RUNTIMES = ("threads", "processes", "distributed")
COUNT = 20


def execute(kind, graph, *, retry=None, faults=None, max_queue=64):
    if kind == "threads":
        rt = LocalRuntime(graph, max_queue=max_queue, retry=retry, faults=faults)
        return rt.run(timeout=60)
    if kind == "processes":
        rt = MPRuntime(graph, max_queue=max_queue, retry=retry, faults=faults)
        return rt.run(timeout=60)
    rt = DistRuntime(
        graph, hosts=["127.0.0.1"] * 3, max_queue=max_queue,
        retry=retry, faults=faults,
    )
    return rt.run(timeout=120)


class Producer(Filter):
    def __init__(self, count=COUNT, stream="out"):
        self.count = count
        self.stream = stream

    def generate(self, ctx):
        for i in range(self.count):
            ctx.send(self.stream, i, size_bytes=8)


class Doubler(Filter):
    def process(self, stream, buffer, ctx):
        ctx.send("out", buffer.payload * 2, size_bytes=8)


class Collector(Filter):
    def __init__(self):
        self.items = []
        self.finalized = 0

    def process(self, stream, buffer, ctx):
        self.items.append(buffer.payload)

    def finalize(self, ctx):
        self.finalized += 1
        ctx.deposit("collected", sorted(self.items))
        ctx.deposit("finalize_calls", self.finalized)


class SlowCollector(Collector):
    """Consumer slower than its producers, so bounded queues fill."""

    def process(self, stream, buffer, ctx):
        time.sleep(0.002)
        self.items.append((stream, buffer.payload))


class Exploder(Filter):
    def process(self, stream, buffer, ctx):
        raise ValueError("kaboom")


class ExplicitProducer(Filter):
    """Routes item i to doubler copy i % 3 by explicit destination."""

    def generate(self, ctx):
        for i in range(COUNT):
            ctx.send("out", i, size_bytes=8, dest_copy=i % 3)


class CopyTagger(Filter):
    """Deposits which copy saw which items (explicit-routing check)."""

    def __init__(self):
        self.items = []

    def process(self, stream, buffer, ctx):
        self.items.append(buffer.payload)

    def finalize(self, ctx):
        ctx.deposit(f"copy{self.copy_index}", sorted(self.items))

    def initialize(self, ctx):
        self.copy_index = ctx.copy_index


def pipeline(doubler_copies=1, producer_copies=1, policy="demand_driven",
             count=COUNT):
    g = FilterGraph()
    g.add_filter("P", lambda: Producer(count), copies=producer_copies)
    g.add_filter("D", Doubler, copies=doubler_copies)
    g.add_filter("C", Collector)
    g.connect("P", "out", "D", policy=policy)
    g.connect("D", "out", "C")
    return g


@pytest.mark.parametrize("runtime", RUNTIMES)
class TestConformance:
    def test_linear_pipeline_deposits(self, runtime):
        result = execute(runtime, pipeline())
        assert result.deposits("collected") == [[2 * i for i in range(COUNT)]]

    @pytest.mark.parametrize("policy", ["round_robin", "demand_driven"])
    def test_stream_policies_deliver_exactly_once(self, runtime, policy):
        result = execute(runtime, pipeline(doubler_copies=3, policy=policy))
        assert result.deposits("collected") == [[2 * i for i in range(COUNT)]]

    def test_explicit_routing_lands_on_named_copy(self, runtime):
        g = FilterGraph()
        g.add_filter("P", ExplicitProducer)
        g.add_filter("T", CopyTagger, copies=3)
        g.connect("P", "out", "T", policy="explicit")
        result = execute(runtime, g)
        for c in range(3):
            assert result.deposits(f"copy{c}") == [
                [i for i in range(COUNT) if i % 3 == c]
            ]

    def test_eos_with_multiple_producers(self, runtime):
        result = execute(
            runtime, pipeline(producer_copies=2, doubler_copies=2)
        )
        (items,) = result.deposits("collected")
        assert items == sorted([2 * i for i in range(COUNT)] * 2)

    def test_two_input_streams_backpressured_exactly_once(self, runtime):
        # Two producers feed one copy over two streams through queues of
        # one slot each (the peer runtimes bound each (stream, copy)
        # pair): both stay blocked on a slow consumer most of the run,
        # and still every buffer of either stream arrives exactly once.
        g = FilterGraph()
        g.add_filter("P", lambda: Producer(stream="left"))
        g.add_filter("Q", lambda: Producer(stream="right"))
        g.add_filter("C", SlowCollector)
        g.connect("P", "left", "C")
        g.connect("Q", "right", "C")
        result = execute(runtime, g, max_queue=1)
        (items,) = result.deposits("collected")
        assert items == sorted(
            (s, i) for s in ("left", "right") for i in range(COUNT)
        )
        assert result.buffers_sent == {"P:left": COUNT, "Q:right": COUNT}

    def test_downstream_finalizes_exactly_once(self, runtime):
        result = execute(runtime, pipeline(doubler_copies=3))
        assert result.deposits("finalize_calls") == [1]

    def test_dedup_under_retry(self, runtime):
        # Two injected transient failures: the retried buffer must be
        # processed to completion exactly once — no duplicates, no gaps.
        plan = FaultPlan(seed=0).fail_process("D", 1.0, max_failures=2)
        result = execute(
            runtime,
            pipeline(doubler_copies=1),
            retry=RetryPolicy(max_attempts=5, backoff=0.001),
            faults=plan,
        )
        assert result.deposits("collected") == [[2 * i for i in range(COUNT)]]
        assert result.retries >= 2
        assert result.failed_copies == []

    def test_crashed_copy_rerouted_to_survivors(self, runtime):
        plan = FaultPlan().crash_copy("D", copy_index=0, after_buffers=0)
        result = execute(runtime, pipeline(doubler_copies=3), faults=plan)
        assert result.deposits("collected") == [[2 * i for i in range(COUNT)]]
        assert result.reroutes >= 1
        (failure,) = result.failed_copies
        assert failure.filter_name == "D" and failure.copy_index == 0
        assert failure.recovered and failure.kind == "crash"

    def test_unrecoverable_failure_raises_structured(self, runtime):
        g = FilterGraph()
        g.add_filter("P", lambda: Producer(3))
        g.add_filter("X", Exploder)
        g.connect("P", "out", "X")
        with pytest.raises(PipelineError) as exc:
            execute(runtime, g, retry=NO_RETRY)
        assert any(f.filter_name == "X" for f in exc.value.failures)

    def test_buffer_accounting(self, runtime):
        result = execute(runtime, pipeline())
        assert result.buffers_sent["P:out"] == COUNT
        assert result.buffers_sent["D:out"] == COUNT

    def test_wire_bytes_reported_by_serializing_runtimes(self, runtime):
        result = execute(runtime, pipeline())
        if runtime == "threads":
            assert result.wire_bytes == {}
        else:
            assert result.wire_bytes["P:out"] > 0
            assert result.wire_bytes["D:out"] > 0
        if runtime == "processes":
            # These int payloads have no ndarray buffers, so everything
            # stays in-band; the per-link slab accounting must still
            # exist (all zeros).
            assert result.shm_bytes == {"P:out": 0, "D:out": 0}
        else:
            assert result.shm_bytes == {}
