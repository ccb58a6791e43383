"""The shared-memory data plane: pool, framing, runtime, crash cleanup.

Covers the slab pool's allocation/refcount/fallback behavior in one
process, the dumps/loads framing (zero-copy receive, in-band fallback,
corrupt descriptors), and the MPRuntime adoption: byte accounting, pool
metrics, and — the part that matters in production — that a run leaves
nothing behind: no ``/dev/shm`` entry, no process besides its filter
copies and no slab mapping in the parent, after normal runs,
``PipelineError`` aborts, and hard-killed children caught only by the
exitcode watcher.

Filter classes live at module level so forked children can run them.
"""

import gc
import multiprocessing as mp
import os
import sys
import time

import numpy as np
import pytest

from repro.datacutter.faults import NO_RETRY, FaultPlan, PipelineError
from repro.datacutter.filter import Filter
from repro.datacutter.graph import FilterGraph
from repro.datacutter.net import codec, shm
from repro.datacutter.obs import validate_events
from repro.datacutter.runtime_mp import MPRuntime

from ..conftest import slab_mappings, slabs_unmappable

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="fork start method required"
)


def shm_entries():
    return set(os.listdir("/dev/shm"))


def children_of(pid):
    """Pids whose parent is ``pid``, zombies included, from ``/proc``
    (the ledger's leak check; ``active_children`` only knows Process
    objects, not a helper something spawned behind our back)."""
    out = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            out.add(int(entry))
    return out


@pytest.fixture
def nothing_left_behind():
    """The test body may run anything; afterwards this process has no
    ``/dev/shm`` entry, child or slab mapping it did not start with."""
    gc.collect()
    before = shm_entries(), children_of(os.getpid()), slab_mappings()

    def left():
        gc.collect()
        return (
            shm_entries() - before[0],
            children_of(os.getpid()) - before[1],
            slab_mappings() - before[2],
        )

    yield
    deadline = time.monotonic() + 2.0
    while left()[1] and time.monotonic() < deadline:
        time.sleep(0.02)
    assert left() == (set(), set(), 0)


@pytest.fixture
def pool(nothing_left_behind):
    ctx = mp.get_context("fork")
    p = shm.ShmPool(ctx, segments=4, segment_bytes=1 << 20, threshold=1 << 10)
    assert slab_mappings() >= 4
    yield p
    p.destroy()


class TestPool:
    def test_acquire_release_recycles(self, pool):
        slot = pool.acquire(4096)
        assert slot is not None
        assert pool.stats()["in_use"] == 1
        pool.release(slot)
        assert pool.stats()["in_use"] == 0
        # The freed slab is allocatable again.
        assert pool.acquire(4096) is not None

    def test_sub_threshold_stays_inline_uncounted(self, pool):
        assert pool.acquire(pool.threshold - 1) is None
        st = pool.stats()
        assert st["fallbacks"] == 0 and st["hits"] == 0

    def test_oversize_counts_as_fallback(self, pool):
        assert pool.acquire(pool.segment_bytes + 1) is None
        st = pool.stats()
        assert st["fallbacks"] == 1
        assert st["fallback_bytes"] == pool.segment_bytes + 1

    def test_exhaustion_falls_back_instead_of_blocking(self, pool):
        slots = [pool.acquire(4096) for _ in range(pool.num_segments)]
        assert None not in slots
        assert pool.acquire(4096) is None  # empty free list: no block
        st = pool.stats()
        assert st["fallbacks"] == 1 and st["in_use"] == pool.num_segments
        assert st["peak_in_use"] == pool.num_segments

    def test_refcounts_delay_recycling(self, pool):
        slot = pool.acquire(4096)
        pool.add_refs(slot, 2)  # three holders total
        pool.release(slot)
        pool.release(slot)
        assert pool.stats()["in_use"] == 1
        pool.release(slot)
        assert pool.stats()["in_use"] == 0

    def test_carrier_gc_releases_slab(self, pool):
        slot = pool.acquire(4096)
        arr = pool.carrier(slot, 0, 4096)
        view = arr[100:200]  # derived view keeps the carrier alive
        del arr
        gc.collect()
        assert pool.stats()["in_use"] == 1
        del view
        gc.collect()
        assert pool.stats()["in_use"] == 0

    def test_invalid_geometry_rejected(self):
        ctx = mp.get_context("fork")
        with pytest.raises(ValueError):
            shm.ShmPool(ctx, segments=0)
        with pytest.raises(ValueError):
            shm.ShmPool(ctx, segments=1, segment_bytes=512, threshold=1024)

    def test_destroy_is_idempotent_and_unlinks(self):
        # "Unlinks" from this process, that is: the slabs never had a
        # name, so closing the mappings is all there is to undo.
        ctx = mp.get_context("fork")
        before = shm_entries(), slab_mappings()
        p = shm.ShmPool(ctx, segments=2, segment_bytes=1 << 16, threshold=8)
        assert (shm_entries(), slab_mappings()) == (before[0], before[1] + 2)
        p.destroy()
        p.destroy()
        assert (shm_entries(), slab_mappings()) == before

    def test_destroy_tolerates_a_live_view(self):
        ctx = mp.get_context("fork")
        before = slab_mappings()
        p = shm.ShmPool(ctx, segments=2, segment_bytes=1 << 16, threshold=8)
        held = p.carrier(p.acquire(4096), 0, 4096)
        held[:4] = (1, 2, 3, 4)
        p.destroy()  # the view pins its slab's mapping; the other goes
        assert slab_mappings() == before + 1
        assert held[:4].tolist() == [1, 2, 3, 4]
        del held, p
        gc.collect()
        assert slab_mappings() == before

    def test_release_of_an_unleased_slab_rejected(self, pool):
        slot = pool.acquire(4096)
        pool.release(slot)
        with pytest.raises(ValueError, match="not leased"):
            pool.release(slot)  # would put the slab on the free list twice
        assert pool.stats()["in_use"] == 0
        assert sorted(pool.acquire(4096) for _ in range(4)) == [0, 1, 2, 3]


class TestFraming:
    def test_large_payload_rides_the_slab(self, pool):
        arr = np.arange(100_000, dtype=np.float64)
        data, wire_n, shm_n = shm.dumps(("s", arr), pool)
        assert shm_n == arr.nbytes
        assert wire_n == len(data) < 1024
        out_stream, out = shm.loads(data, pool)
        assert out_stream == "s"
        np.testing.assert_array_equal(out, arr)

    def test_receive_is_zero_copy(self, pool):
        arr = np.arange(10_000, dtype=np.float64)
        data, _, shm_n = shm.dumps(("s", arr), pool)
        assert shm_n > 0
        with codec.forbid_array_copies():
            _, out = shm.loads(data, pool)
        # The rebuilt array aliases slab memory: writing the slab
        # through the pool must be visible through the array.
        slot = shm._SLOT.unpack_from(memoryview(data), len(data) - 4)[0]
        pool.view(slot, 0, 8)[:] = np.float64(123.0).tobytes()
        assert out[0] == 123.0

    def test_small_payload_stays_inline(self, pool):
        arr = np.arange(8, dtype=np.int64)  # 64 B < 1 KiB threshold
        data, wire_n, shm_n = shm.dumps(("s", arr), pool)
        assert shm_n == 0
        assert pool.stats()["hits"] == 0
        np.testing.assert_array_equal(shm.loads(data, pool)[1], arr)

    def test_no_pool_is_plain_codec(self):
        obj = ("s", np.arange(1000))
        data, wire_n, shm_n = shm.dumps(obj, None)
        assert shm_n == 0 and data == codec.dumps(obj)
        np.testing.assert_array_equal(shm.loads(data, None)[1], obj[1])

    def test_multi_buffer_payload(self, pool):
        a = np.arange(30_000, dtype=np.float64)
        b = np.arange(20_000, dtype=np.int32)
        data, _, shm_n = shm.dumps({"a": a, "b": b}, pool)
        assert shm_n == a.nbytes + b.nbytes
        out = shm.loads(data, pool)
        np.testing.assert_array_equal(out["a"], a)
        np.testing.assert_array_equal(out["b"], b)
        assert pool.stats()["in_use"] == 1  # one slab, two carriers
        del out
        gc.collect()
        assert pool.stats()["in_use"] == 0

    def test_exhausted_pool_falls_back_inline(self, pool):
        held = [pool.acquire(4096) for _ in range(pool.num_segments)]
        arr = np.arange(10_000, dtype=np.float64)
        data, _, shm_n = shm.dumps(("s", arr), pool)
        assert shm_n == 0  # fell back in-band rather than blocking
        np.testing.assert_array_equal(shm.loads(data, pool)[1], arr)
        for slot in held:
            pool.release(slot)

    def test_shm_frame_without_pool_rejected(self, pool):
        data, _, shm_n = shm.dumps(("s", np.arange(10_000)), pool)
        assert shm_n > 0
        with pytest.raises(codec.CodecError):
            shm.loads(data, None)
        with pytest.raises(codec.CodecError):
            codec.loads(data)  # plain decoder must refuse, not misparse

    # -- corrupt descriptors: CodecError, and the slab comes back ----------

    def shm_frame(self, pool):
        data, _, shm_n = shm.dumps(("s", np.arange(10_000)), pool)
        assert shm_n > 0 and pool.stats()["in_use"] == 1
        return bytearray(data)

    def test_slot_out_of_range_rejected(self, pool):
        data = self.shm_frame(pool)
        shm._SLOT.pack_into(data, len(data) - shm._SLOT.size, pool.num_segments)
        with pytest.raises(codec.CodecError, match="slab"):
            shm.loads(data, pool)

    def test_lengths_past_the_slab_rejected_and_released(self, pool):
        data = self.shm_frame(pool)
        codec._BUFLEN.pack_into(data, codec._PREFIX.size, pool.segment_bytes + 1)
        with pytest.raises(codec.CodecError, match="slab"):
            shm.loads(data, pool)
        assert pool.stats()["in_use"] == 0

    def test_shm_flag_without_buffers_rejected_and_released(self, pool):
        data = self.shm_frame(pool)
        _, _, nbufs, header_len = codec._PREFIX.unpack_from(data, 0)
        assert nbufs == 1
        # The same frame, declaring no buffers: prefix, header, slot.
        forged = bytearray(
            codec._PREFIX.pack(codec._MAGIC, shm.FLAG_SHM, 0, header_len)
        ) + data[codec._PREFIX.size + codec._BUFLEN.size :]
        with pytest.raises(codec.CodecError, match="0 buffers"):
            shm.loads(forged, pool)
        assert pool.stats()["in_use"] == 0

    @pytest.mark.parametrize("cut", [1, 4, 5, 40])
    def test_truncated_shm_frame_rejected(self, pool, cut):
        data = self.shm_frame(pool)
        with pytest.raises(codec.CodecError, match="truncated"):
            shm.loads(data[:-cut], pool)


# ---------------------------------------------------------------------------
# Runtime adoption


class ArrayProducer(Filter):
    def __init__(self, count=12, cells=20_000):
        self.count = count
        self.cells = cells

    def generate(self, ctx):
        for i in range(self.count):
            a = np.full(self.cells, float(i))
            ctx.send("out", a, size_bytes=a.nbytes, metadata={"chunk": (i,)})


class SumCollector(Filter):
    def initialize(self, ctx):
        self.sums = []

    def process(self, stream, buffer, ctx):
        self.sums.append(float(buffer.payload.sum()))

    def finalize(self, ctx):
        ctx.deposit("sums", sorted(self.sums))


class Retainer(Filter):
    """Holds every received array past process(): lifetime-safety check."""

    def initialize(self, ctx):
        self.kept = []

    def process(self, stream, buffer, ctx):
        self.kept.append(buffer.payload)

    def finalize(self, ctx):
        # Validate at the very end: if a slab had been recycled while we
        # still held a view, these sums would be corrupted.
        ctx.deposit("sums", sorted(float(a.sum()) for a in self.kept))


def array_graph(consumer=SumCollector, copies=2, count=12, cells=20_000):
    g = FilterGraph()
    g.add_filter("P", lambda: ArrayProducer(count, cells))
    g.add_filter("C", consumer, copies=copies)
    g.connect("P", "out", "C", policy="demand_driven")
    return g


class CrashingConsumer(Filter):
    def process(self, stream, buffer, ctx):
        pass


class Doubler(Filter):
    def process(self, stream, buffer, ctx):
        a = buffer.payload * 2.0
        ctx.send("out", a, size_bytes=a.nbytes, metadata=buffer.metadata)


def expected_sums(count=12, cells=20_000):
    return [float(i) * cells for i in range(count)]


class PidProducer(ArrayProducer):
    def generate(self, ctx):
        super().generate(ctx)
        ctx.deposit("pids", os.getpid())


class Prober(Filter):
    """Looks around from inside a running copy: what is in ``/dev/shm``,
    and which processes does the parent have besides us copies?"""

    def initialize(self, ctx):
        self.shm, self.siblings = set(), set()

    def process(self, stream, buffer, ctx):
        self.shm |= shm_entries()
        self.siblings |= children_of(os.getppid())

    def finalize(self, ctx):
        ctx.deposit("pids", os.getpid())
        ctx.deposit("seen", (self.shm, self.siblings))


@pytest.mark.usefixtures("nothing_left_behind")
class TestRuntimeShm:
    def test_accounting_splits_wire_and_shm(self):
        res = MPRuntime(array_graph()).run(timeout=60)
        assert sorted(sum(res.deposits("sums"), [])) == expected_sums()
        assert res.shm_bytes["P:out"] == 12 * 20_000 * 8
        assert res.wire_bytes["P:out"] < 12 * 4096
        counters = res.metrics["counters"]
        assert counters["shm_pool_hits"] == 12
        assert counters["shm_pool_fallbacks"] == 0
        assert res.metrics["gauges"]["shm_pool_in_use"]["value"] == 0

    def test_run_makes_no_shm_entry_and_no_process_but_its_copies(self):
        # The ledger's leak gate as a test.  Named segments fail it:
        # multiprocessing.shared_memory starts a resource-tracker child.
        g = FilterGraph()
        g.add_filter("P", PidProducer)
        g.add_filter("C", Prober, copies=2)
        g.connect("P", "out", "C", policy="round_robin")
        shm_before, kids_before = shm_entries(), children_of(os.getpid())
        res = MPRuntime(g).run(timeout=60)
        assert res.shm_bytes["P:out"] == 12 * 20_000 * 8  # slabs were in use
        pids = set(res.deposits("pids"))
        assert len(pids) == 3
        for seen_shm, seen_kids in res.deposits("seen"):
            assert seen_shm - shm_before == set()
            new = seen_kids - kids_before
            assert new and new <= pids

    def test_pipe_transport_reports_no_shm_bytes(self):
        # The pool cannot be mapped: the run goes through the pipes
        # alone and says why.
        with slabs_unmappable():
            res = MPRuntime(array_graph(), trace=True).run(timeout=60)
        assert sorted(sum(res.deposits("sums"), [])) == expected_sums()
        assert res.shm_bytes == {"P:out": 0}
        assert res.wire_bytes["P:out"] > 12 * 20_000 * 8
        assert "shm_pool_hits" not in res.metrics["counters"]
        validate_events(res.trace.events)
        (fallback,) = [
            e for e in res.trace.events if e.kind == "transport.fallback"
        ]
        assert "Cannot allocate memory" in fallback.attrs["reason"]

    def test_no_fallback_event_when_the_pool_maps(self):
        res = MPRuntime(array_graph(), trace=True).run(timeout=60)
        assert not [e for e in res.trace.events if e.kind == "transport.fallback"]
        assert len([e for e in res.trace.events if e.kind == "shm.frame"]) == 12

    def test_retaining_consumer_sees_uncorrupted_data(self, pool_geometry):
        # More deliveries than slabs: recycling must wait for the
        # consumer's references, or the retained arrays get overwritten.
        pool_geometry(segments=4)
        res = MPRuntime(
            array_graph(consumer=Retainer, copies=1, count=16)
        ).run(timeout=60)
        assert sum(res.deposits("sums"), []) == expected_sums(16)
        counters = res.metrics["counters"]
        assert counters["shm_pool_hits"] == 4
        assert counters["shm_pool_fallbacks"] == 12

    def test_tiny_pool_falls_back_and_completes(self, pool_geometry):
        pool_geometry(segments=1)
        res = MPRuntime(array_graph()).run(timeout=60)
        assert sorted(sum(res.deposits("sums"), [])) == expected_sums()
        counters = res.metrics["counters"]
        assert counters["shm_pool_hits"] + counters["shm_pool_fallbacks"] == 12

    def test_oversize_payloads_fall_back_and_complete(self, pool_geometry):
        # Slabs smaller than one payload: every delivery goes in-band.
        pool_geometry(segments=4, segment_bytes=1 << 12)
        res = MPRuntime(array_graph()).run(timeout=60)
        assert sorted(sum(res.deposits("sums"), [])) == expected_sums()
        assert res.shm_bytes == {"P:out": 0}
        counters = res.metrics["counters"]
        assert counters["shm_pool_fallbacks"] == 12
        assert counters["shm_pool_fallback_bytes"] == 12 * 20_000 * 8

    def test_bad_poll_interval_rejected(self):
        with pytest.raises(ValueError):
            MPRuntime(array_graph(), poll_interval=-1.0)

    def test_custom_poll_interval_runs(self):
        res = MPRuntime(array_graph(), poll_interval=0.005).run(timeout=60)
        assert sorted(sum(res.deposits("sums"), [])) == expected_sums()


@pytest.mark.usefixtures("nothing_left_behind")
class TestCrashCleanup:
    def test_no_leak_after_hard_child_kill(self):
        # The child dies via os._exit with two slabs in its hands: only
        # the parent's exitcode watcher notices.  The run must fail in
        # bounded time and the slabs must go with it (the fixture checks
        # the parent holds no mapping) without anything to clean up.
        plan = FaultPlan().crash_copy("C", copy_index=0, after_buffers=1,
                                      hard=True)
        start = time.monotonic()
        with pytest.raises(PipelineError) as exc:
            MPRuntime(
                array_graph(consumer=Retainer, copies=1),
                faults=plan, retry=NO_RETRY,
            ).run(timeout=60)
        assert time.monotonic() - start < 15
        assert any(f.kind == "exitcode" for f in exc.value.failures)
        # Nothing was wedged for the next run, on a fresh runtime.
        res = MPRuntime(array_graph()).run(timeout=60)
        assert sorted(sum(res.deposits("sums"), [])) == expected_sums()
        assert res.metrics["counters"]["shm_pool_hits"] == 12

    def test_no_leak_after_abort(self):
        plan = FaultPlan().crash_copy("C", copy_index=0, after_buffers=2)
        with pytest.raises(PipelineError):
            MPRuntime(
                array_graph(consumer=CrashingConsumer, copies=1),
                faults=plan, retry=NO_RETRY,
            ).run(timeout=60)

    def test_no_leak_after_recovered_crash(self):
        # Crash a mid-pipeline copy: its in-flight slab-backed buffer is
        # rerouted to a survivor and every chunk still arrives, doubled.
        g = FilterGraph()
        g.add_filter("P", ArrayProducer)
        g.add_filter("D", Doubler, copies=3)
        g.add_filter("C", SumCollector)
        g.connect("P", "out", "D", policy="demand_driven")
        g.connect("D", "out", "C")
        plan = FaultPlan().crash_copy("D", copy_index=0, after_buffers=2)
        res = MPRuntime(g, faults=plan).run(timeout=60)
        assert sum(res.deposits("sums"), []) == [
            2.0 * s for s in expected_sums()
        ]
        (failure,) = res.failed_copies
        assert failure.recovered
