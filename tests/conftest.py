"""Suite-wide leak gate, and the switch between the two implementations
of the rolling kernel's plane histograms.

A run that returns (or raises) must leave nothing behind: no filter-copy
thread still alive, no child process, no shared-memory segment.  The
middleware suites are checked after every test, so the test that leaks
is the test that fails; ``/dev/shm`` is checked once, when the session
ends.
"""

import contextlib
import functools
import glob
import multiprocessing
import threading
import time

import pytest

from repro.core import native
from repro.datacutter.net.shm import NAME_PREFIX
from repro.datacutter.runtime_local import _CopyThread

#: Suites that drive the runtimes (checked after every test).
_GATED = ("datacutter", "integration", "pipeline", "scenarios")
#: How long a finished run's copies get to leave (seconds).
_GRACE = 2.0


def _leftovers():
    threads = [
        t.name
        for t in threading.enumerate()
        if isinstance(t, _CopyThread) and t.is_alive()
    ]
    children = [repr(p) for p in multiprocessing.active_children()]
    return threads, children


@pytest.fixture(autouse=True)
def no_leaked_copies(request):
    yield
    parts = request.node.path.parts
    if "tests" not in parts or parts[parts.index("tests") + 1] not in _GATED:
        return
    deadline = time.monotonic() + _GRACE
    while any(_leftovers()) and time.monotonic() < deadline:
        time.sleep(0.02)
    threads, children = _leftovers()
    assert not threads, f"filter-copy threads still alive: {threads}"
    assert not children, f"child processes still alive: {children}"


@pytest.fixture(scope="session", autouse=True)
def no_leaked_shm_segments():
    yield
    leaked = glob.glob(f"/dev/shm/{NAME_PREFIX}*")
    assert not leaked, f"leaked shared-memory segments: {leaked}"


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
