"""Suite-wide leak gate.

A run that returns (or raises) must leave nothing behind: no filter-copy
thread still alive, no child process, no shared-memory segment.  The
middleware suites are checked after every test, so the test that leaks
is the test that fails; ``/dev/shm`` is checked once, when the session
ends.
"""

import glob
import multiprocessing
import threading
import time

import pytest

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
