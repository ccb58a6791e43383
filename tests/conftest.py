"""Suite-wide leak gate, and the switch between the two implementations
of the rolling kernel's plane histograms.

A run that returns (or raises) must leave nothing behind: no filter-copy
thread or other ``repro-*`` thread still alive, and no child process.
The middleware, pipeline and service suites are checked after every
test, so the test that leaks is the test that fails.  (The processes
runtime's shared-memory slabs are anonymous mappings: they have no name
that could be left behind.)
"""

import contextlib
import errno
import functools
import multiprocessing
import threading
import time
import types

import pytest

from repro.core import native
from repro.datacutter import runtime_mp
from repro.datacutter.net import shm
from repro.datacutter.runtime_local import _CopyThread

#: Suites that drive the runtimes or the service (checked after every test).
_GATED = ("datacutter", "integration", "pipeline", "service")
#: How long a finished run's copies get to leave (seconds).
_GRACE = 2.0


def _leftovers():
    threads = [
        t.name
        for t in threading.enumerate()
        if (isinstance(t, _CopyThread) or t.name.startswith("repro-"))
        and t.is_alive()
    ]
    children = [repr(p) for p in multiprocessing.active_children()]
    return threads, children


@pytest.fixture(autouse=True)
def no_leaked_copies(request):
    parts = request.node.path.parts
    yield
    if "tests" not in parts or parts[parts.index("tests") + 1] not in _GATED:
        return
    deadline = time.monotonic() + _GRACE
    while any(_leftovers()) and time.monotonic() < deadline:
        time.sleep(0.02)
    threads, children = _leftovers()
    assert not threads, f"repro threads still alive: {threads}"
    assert not children, f"child processes still alive: {children}"


def slab_mappings():
    """Shared anonymous mappings of this process, which is what a slab of
    the processes runtime's pool is (the kernel lists one as a deleted
    ``/dev/zero``): a run that ended must have left none behind."""
    with open("/proc/self/maps") as fh:
        return sum("/dev/zero (deleted)" in line for line in fh)


@pytest.fixture
def pool_geometry(monkeypatch):
    """Shrink the slab pool every ``MPRuntime`` run maps, to put toy
    payloads on the slab path or to force its fallbacks.  The geometry
    is deliberately not a parameter of anything."""

    def patch(segments, segment_bytes=1 << 20, threshold=1 << 10):
        monkeypatch.setattr(runtime_mp, "_POOL_SEGMENTS", segments)
        monkeypatch.setattr(runtime_mp, "_POOL_SEGMENT_BYTES", segment_bytes)
        monkeypatch.setattr(runtime_mp, "_POOL_THRESHOLD", threshold)

    return patch


@contextlib.contextmanager
def slabs_unmappable():
    """What strict overcommit or a tight address-space limit does to the
    processes runtime: ``mmap`` refuses its slab pool.  Only the name in
    ``shm.py`` is patched; multiprocessing's own arenas still map."""

    def refuse(*args, **kwargs):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shm, "mmap", types.SimpleNamespace(mmap=refuse))
        yield


@contextlib.contextmanager
def patched_to_numpy_passes():
    """``incremental`` on its numpy passes: the loader's result is patched
    to "unavailable" (no environment variable selects an implementation)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            native, "_status",
            native.NativeStatus(None, None, "patched out by the test suite"),
        )
        yield


@pytest.fixture(scope="class")
def numpy_passes():
    with patched_to_numpy_passes():
        yield


def on_both_implementations(test):
    """Run a test body as this machine resolves ``incremental`` (the
    compiled pass wherever a C compiler exists), then on the numpy passes.

    Goes under ``@given``/``@settings``, so every drawn example sees both.
    """

    @functools.wraps(test)
    def both(*args, **kwargs):
        test(*args, **kwargs)
        with patched_to_numpy_passes():
            try:
                test(*args, **kwargs)
            except AssertionError as exc:
                raise AssertionError(f"on the numpy passes: {exc}") from exc

    return both
