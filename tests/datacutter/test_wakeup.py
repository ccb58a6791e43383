"""Event-driven wakeups: lost-wakeup safety, fault detection, abort wake.

Every blocking wait in the runtimes is woken by the transition it waits
for (a per-copy event set on queue transitions in both peer runtimes —
``threading.Event`` or ``multiprocessing.Event``, one code path —
and ``selectors`` readiness in the net agent); the poll interval is only a watchdog.  These tests pin the
properties that matter:

* **No lost wakeups.**  With a deliberately huge watchdog interval, any
  empty->non-empty queue transition a consumer misses would stall the
  run for seconds.  The runs must complete at event speed.
* **Fault detection does not wait for the watchdog.**  Crash recovery
  completes, and a silently dead child is noticed through its sentinel
  within the exit-grace window.
* **Abort wakes everyone.**  ``close()`` from another thread unwinds a
  run at once, and healthy children leaving on the abort are not blamed.

Filter classes live at module level so forked children can run them.
"""

import threading
import time

import pytest

from repro.datacutter.faults import FaultPlan, PipelineError
from repro.datacutter.filter import Filter
from repro.datacutter.graph import FilterGraph
from repro.datacutter.runtime_local import LocalRuntime
from repro.datacutter.runtime_mp import _EXIT_GRACE, MPRuntime

# A watchdog so large that any missed wakeup turns into a visible stall:
# a run that completes well under HUGE_POLL proves no wait ever expired.
HUGE_POLL = 5.0
FAST = HUGE_POLL * 0.8


class Producer(Filter):
    def __init__(self, count=40, pause=0.0):
        self.count = count
        self.pause = pause

    def generate(self, ctx):
        for i in range(self.count):
            if self.pause:
                time.sleep(self.pause)
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


def pipeline(count=40, copies=3, pause=0.0):
    g = FilterGraph()
    g.add_filter("P", lambda: Producer(count, pause))
    g.add_filter("D", Doubler, copies=copies)
    g.add_filter("C", Collector)
    g.connect("P", "out", "D")
    g.connect("D", "out", "C")
    return g


def expected(count=40):
    return sorted(i * 2 for i in range(count))


class TestNoLostWakeup:
    """A missed 0->1 queue transition would stall for HUGE_POLL seconds."""

    def test_mp_completes_at_event_speed(self):
        rt = MPRuntime(pipeline(), poll_interval=HUGE_POLL)
        t0 = time.perf_counter()
        res = rt.run(timeout=60)
        elapsed = time.perf_counter() - t0
        assert res.deposits("collected")[0] == expected()
        assert elapsed < FAST, f"stalled {elapsed:.2f}s: a wakeup was lost"

    def test_local_completes_at_event_speed(self):
        rt = LocalRuntime(pipeline(), poll_interval=HUGE_POLL)
        t0 = time.perf_counter()
        res = rt.run(timeout=60)
        elapsed = time.perf_counter() - t0
        assert res.deposits("collected")[0] == expected()
        assert elapsed < FAST, f"stalled {elapsed:.2f}s: a wakeup was lost"

    def test_mp_slow_producer_each_send_is_a_transition(self):
        # A pause between sends makes every send an empty->non-empty
        # transition hitting an already-idle consumer: the worst case
        # for wakeup races.  20 x 0.01s of production must not grow by
        # even one watchdog period.
        rt = MPRuntime(
            pipeline(count=20, pause=0.01),
            poll_interval=HUGE_POLL,
        )
        t0 = time.perf_counter()
        res = rt.run(timeout=60)
        elapsed = time.perf_counter() - t0
        assert res.deposits("collected")[0] == expected(20)
        assert elapsed < FAST, f"stalled {elapsed:.2f}s: a wakeup was lost"

    def test_local_slow_producer_each_send_is_a_transition(self):
        rt = LocalRuntime(
            pipeline(count=20, pause=0.01),
            poll_interval=HUGE_POLL,
        )
        t0 = time.perf_counter()
        res = rt.run(timeout=60)
        elapsed = time.perf_counter() - t0
        assert res.deposits("collected")[0] == expected(20)
        assert elapsed < FAST, f"stalled {elapsed:.2f}s: a wakeup was lost"


class TestFaultDetectionParity:
    """Crash detection/recovery rides events, never the watchdog.

    The bounds are absolute: the polled mode these tests once compared
    against is gone (it was never faster).
    """

    def _detect_hard_kill(self, **kwargs):
        # Silent death (os._exit) is fatal by design; what matters is
        # how fast the parent's exitcode watcher notices and aborts.
        plan = FaultPlan().crash_copy("D", copy_index=0, after_buffers=0,
                                      hard=True)
        rt = MPRuntime(pipeline(copies=2), faults=plan, **kwargs)
        t0 = time.perf_counter()
        with pytest.raises(PipelineError) as exc:
            rt.run(timeout=60)
        elapsed = time.perf_counter() - t0
        assert any(f.kind == "exitcode" for f in exc.value.failures)
        return elapsed

    def test_graceful_crash_recovery_no_worse_than_polled(self):
        plan = FaultPlan().crash_copy("D", copy_index=0, after_buffers=3)
        res = MPRuntime(pipeline(), faults=plan).run(timeout=60)
        assert res.deposits("collected")[0] == expected()
        assert [f.recovered for f in res.failed_copies] == [True]

    def test_hard_kill_detection_no_worse_than_polled(self):
        elapsed = self._detect_hard_kill()
        assert elapsed < _EXIT_GRACE + 2.0, elapsed

    def test_hard_kill_detected_under_huge_watchdog(self):
        # Detection must ride the dead child's sentinel becoming ready
        # in connection.wait, not the watchdog tick: with a 5s watchdog
        # the abort may cost the exit-grace window but never a watchdog
        # period on top.
        elapsed = self._detect_hard_kill(poll_interval=HUGE_POLL)
        assert elapsed < FAST, (
            f"detection waited for the watchdog ({elapsed:.2f}s)"
        )


class TestCloseDuringRun:
    """close() from another thread wakes every blocked wait at once."""

    @pytest.mark.parametrize("runtime_cls", [MPRuntime, LocalRuntime])
    def test_close_unwinds_run_promptly(self, runtime_cls):
        # 10 s of production at one send per 10 ms: consumers sit idle
        # on their wakeups between sends, under a 5 s watchdog.
        rt = runtime_cls(
            pipeline(count=1000, copies=2, pause=0.01),
            poll_interval=HUGE_POLL,
        )
        timer = threading.Timer(0.5, rt.close)
        t0 = time.perf_counter()
        timer.start()
        try:
            with pytest.raises(PipelineError) as exc:
                rt.run(timeout=60)
            elapsed = time.perf_counter() - t0
        finally:
            timer.cancel()
            timer.join(timeout=10)
        assert not timer.is_alive()
        assert elapsed < 1.5, f"close() took {elapsed:.2f}s to unwind run()"
        # Children that leave on the abort are healthy, not silently dead.
        assert not [f for f in exc.value.failures if f.kind == "exitcode"]
