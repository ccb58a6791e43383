"""Runtime lifecycle (ISSUE 7 satellites 1 + 2): context-manager
protocol, idempotent close(), rerunnability, and the same-instance
concurrent-run guard on every runtime."""

import os
import threading
import time

import pytest

from repro.datacutter.filter import Filter
from repro.datacutter.graph import FilterGraph
from repro.datacutter.runtime_local import LocalRuntime
from repro.datacutter.runtime_mp import MPRuntime


class Producer(Filter):
    def __init__(self, count=10):
        self.count = count

    def generate(self, ctx):
        for i in range(self.count):
            ctx.send("out", i, size_bytes=8)


class Collector(Filter):
    def __init__(self):
        self.items = []

    def process(self, stream, buffer, ctx):
        self.items.append(buffer.payload)

    def finalize(self, ctx):
        ctx.deposit("collected", sorted(self.items))


class Slow(Filter):
    """Sleeps per buffer so a run stays in flight long enough to race.

    Works across process boundaries (unlike an Event), which the MP
    runtime's forked copies could never see."""

    def process(self, stream, buffer, ctx):
        time.sleep(0.3)
        ctx.send("out", buffer.payload, size_bytes=8)


def simple_graph(count=20):
    g = FilterGraph()
    g.add_filter("P", lambda: Producer(count=count))
    g.add_filter("C", Collector)
    g.connect("P", "out", "C")
    return g


def stalling_graph():
    g = FilterGraph()
    g.add_filter("P", lambda: Producer(count=5))
    g.add_filter("S", Slow)
    g.add_filter("C", Collector)
    g.connect("P", "out", "S")
    g.connect("S", "out", "C")
    return g


@pytest.mark.parametrize("runtime_cls", [LocalRuntime, MPRuntime])
class TestLifecycle:
    def test_context_manager_runs_and_closes(self, runtime_cls):
        with runtime_cls(simple_graph()) as rt:
            result = rt.run()
        (items,) = result.deposits("collected")
        assert items == list(range(20))

    def test_close_is_idempotent(self, runtime_cls):
        rt = runtime_cls(simple_graph())
        rt.run()
        rt.close()
        rt.close()  # second close is a no-op, not an error

    def test_close_before_any_run(self, runtime_cls):
        runtime_cls(simple_graph()).close()

    def test_runtime_is_rerunnable(self, runtime_cls):
        with runtime_cls(simple_graph()) as rt:
            first = rt.run()
            second = rt.run()
        assert first.deposits("collected") == second.deposits("collected")

    def test_concurrent_run_on_same_instance_raises(self, runtime_cls):
        rt = runtime_cls(stalling_graph(), max_queue=4)
        started = threading.Event()
        result = {}

        def first_run():
            started.set()
            result["run"] = rt.run(timeout=60)

        t = threading.Thread(target=first_run)
        t.start()
        started.wait(5)
        time.sleep(0.1)  # let the first run take the guard
        try:
            with pytest.raises(RuntimeError, match="already executing"):
                rt.run()
        finally:
            t.join(timeout=60)
            rt.close()
        (items,) = result["run"].deposits("collected")
        assert items == list(range(5))  # the in-flight run still completed


class TestMPTeardown:
    def test_no_leaked_children_after_exception_path(self):
        import multiprocessing as mp

        before = len(mp.active_children())
        rt = MPRuntime(simple_graph())
        rt.run()
        rt.close()
        # Give reaped children a beat to disappear from the list.
        deadline = time.time() + 5
        while time.time() < deadline and len(mp.active_children()) > before:
            time.sleep(0.05)
        assert len(mp.active_children()) <= before

    def test_shm_transport_leaves_no_segments(self):
        before = set(os.listdir("/dev/shm"))
        with MPRuntime(simple_graph()) as rt:
            rt.run()
        assert set(os.listdir("/dev/shm")) == before
