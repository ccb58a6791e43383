"""Stateful check of the slab pool's free list and reference counts.

Every large payload of a ``processes`` run is written into a slab that a
producer leased and that some consumer's arrays release, so a pool that
ever lists one slab as free twice hands the same memory to two producers
and corrupts a payload silently.  ``ShmPool`` keeps all of its state in
shared cells, so one process can drive it: hypothesis interleaves the
calls producers (``acquire``), ``loads`` (``add_refs``, ``carrier``) and
consumers (``release``, garbage collection of carrier arrays) make, and
compares against a plain dictionary of who holds what.
"""

import gc
import multiprocessing as mp
import sys

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

from repro.datacutter.net.shm import ShmPool

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="fork start method required"
)

SEGMENTS = 3
SEGMENT_BYTES = 4096
THRESHOLD = 64


class SlabPool(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.pool = ShmPool(
            mp.get_context("fork"), SEGMENTS, SEGMENT_BYTES, THRESHOLD
        )
        # The model: references held by hand per leased slot, and the
        # carrier arrays (each worth one reference) still alive.
        self.held = {}
        self.carriers = []
        self.hits = self.fallbacks = self.fallback_bytes = self.peak = 0

    def leased(self):
        return set(self.held) | {slot for slot, _ in self.carriers}

    def refs(self, slot):
        return self.held.get(slot, 0) + sum(s == slot for s, _ in self.carriers)

    def drop_held(self, slot):
        self.held[slot] -= 1
        if not self.held[slot]:
            del self.held[slot]

    # -- producer side -------------------------------------------------------

    @rule(nbytes=st.sampled_from([1, THRESHOLD - 1, THRESHOLD, 1000, SEGMENT_BYTES]))
    def acquire(self, nbytes):
        before = self.leased()
        slot = self.pool.acquire(nbytes)
        if nbytes < THRESHOLD:
            assert slot is None  # the intended inline path: not counted
        elif len(before) == SEGMENTS:
            assert slot is None
            self.fallbacks += 1
            self.fallback_bytes += nbytes
        else:
            assert slot is not None and slot not in before
            self.held[slot] = 1
            self.hits += 1
            self.peak = max(self.peak, len(before) + 1)

    @rule(extra=st.integers(1, 1 << 20))
    def acquire_oversize(self, extra):
        assert self.pool.acquire(SEGMENT_BYTES + extra) is None
        self.fallbacks += 1
        self.fallback_bytes += SEGMENT_BYTES + extra

    # -- consumer side -------------------------------------------------------

    @precondition(lambda self: self.held)
    @rule(data=st.data(), n=st.integers(-1, 3))
    def add_refs(self, data, n):
        slot = data.draw(st.sampled_from(sorted(self.held)))
        self.pool.add_refs(slot, n)
        self.held[slot] += max(n, 0)

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def release(self, data):
        slot = data.draw(st.sampled_from(sorted(self.held)))
        self.pool.release(slot)
        self.drop_held(slot)

    @precondition(lambda self: len(self.leased()) < SEGMENTS)
    @rule(data=st.data())
    def release_of_a_free_slab_is_refused(self, data):
        free = sorted(set(range(SEGMENTS)) - self.leased())
        with pytest.raises(ValueError):
            self.pool.release(data.draw(st.sampled_from(free)))

    @precondition(lambda self: self.held)
    @rule(data=st.data(), derive=st.booleans())
    def hand_a_reference_to_a_carrier(self, data, derive):
        # What loads() does with the delivery's reference.  A filter may
        # keep only a slice: its base chain must keep the slab leased.
        slot = data.draw(st.sampled_from(sorted(self.held)))
        arr = self.pool.carrier(slot, 0, 128)
        self.carriers.append((slot, arr[10:20] if derive else arr))
        self.drop_held(slot)

    @precondition(lambda self: self.carriers)
    @rule(data=st.data())
    def carrier_is_collected(self, data):
        self.carriers.pop(data.draw(st.integers(0, len(self.carriers) - 1)))
        gc.collect()

    # -- what must hold after every step -------------------------------------

    @invariant()
    def free_plus_in_use_is_every_slab_once(self):
        pool = self.pool
        free = list(pool._free[: pool._free_top.value])
        assert len(free) == len(set(free)), f"slab listed free twice: {free}"
        assert set(free) == set(range(SEGMENTS)) - self.leased()
        assert pool.stats()["in_use"] == len(self.leased())

    @invariant()
    def refcounts_match_and_never_go_negative(self):
        for slot in range(SEGMENTS):
            assert self.pool._refs[slot] == self.refs(slot) >= 0

    @invariant()
    def counters_match(self):
        stats = self.pool.stats()
        assert (stats["hits"], stats["fallbacks"], stats["fallback_bytes"]) == (
            self.hits, self.fallbacks, self.fallback_bytes,
        )
        assert stats["peak_in_use"] == self.peak

    def teardown(self):
        self.carriers.clear()
        gc.collect()
        self.pool.destroy()


SlabPool.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestSlabPool = SlabPool.TestCase
