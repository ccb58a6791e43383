"""Job types for the analysis service: requests, handles, results.

A :class:`JobHandle` is the caller's view of one submitted analysis —
a small thread-safe state machine (``queued -> running -> done |
failed``, with ``cancelled`` reachable from ``queued``).  The service
resolves it from a worker thread; callers block on :meth:`JobHandle.result`
or poll :attr:`JobHandle.status` from any thread.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..datacutter.faults import FaultPlan, RetryPolicy
from ..datacutter.obs import Trace
from ..pipeline.config import AnalysisConfig
from ..pipeline.run import RUNTIMES

__all__ = [
    "JobStatus", "RuntimeProfile", "AnalysisRequest", "JobResult",
    "JobHandle", "JobError",
]


class JobStatus:
    """String states of one job (plain strings: JSON- and wire-safe)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    ALL = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
    #: States a job can never leave.
    TERMINAL = (DONE, FAILED, CANCELLED)


class JobError(RuntimeError):
    """Raised by :meth:`JobHandle.result` for failed or cancelled jobs."""


@dataclass(frozen=True)
class RuntimeProfile:
    """Hashable description of how to build an execution backend.

    Mirrors the backend-selection arguments of
    :func:`repro.pipeline.run_pipeline`; being frozen and hashable it is
    the backend part of the service's batch key, so only jobs asking for
    the same backend shape share a pipeline pass.
    """

    runtime: str = "threads"
    max_queue: int = 64
    hosts: Optional[Tuple[str, ...]] = None
    heartbeat_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.runtime not in RUNTIMES:
            raise ValueError(
                f"runtime must be one of {RUNTIMES}, got {self.runtime!r}"
            )
        if self.hosts is not None and not isinstance(self.hosts, tuple):
            object.__setattr__(self, "hosts", tuple(self.hosts))


@dataclass
class AnalysisRequest:
    """Everything one analysis job needs.

    ``faults`` (fault-injection runs) opt the job out of the result
    cache and of request batching: injected failures are a property of
    one run, so neither its outputs nor its runtime pass may be shared
    with unsuspecting co-tenants.
    """

    dataset_root: str
    config: AnalysisConfig = field(default_factory=AnalysisConfig)
    tenant: str = "default"
    profile: RuntimeProfile = field(default_factory=RuntimeProfile)
    retry: Optional[RetryPolicy] = None
    faults: Optional[FaultPlan] = None
    trace: bool = False
    use_cache: bool = True
    batchable: bool = True
    run_timeout: Optional[float] = None


@dataclass
class JobResult:
    """Outcome of one completed job.

    ``cached`` / ``computed`` partition the requested features by where
    their volume came from; ``batch_size`` counts the jobs packed into
    the pipeline pass that produced the computed ones (1 = solo run,
    0 = served entirely from cache).
    """

    job_id: str
    volumes: Dict[str, np.ndarray]
    cached: Tuple[str, ...]
    computed: Tuple[str, ...]
    elapsed: float
    queue_wait: float
    batch_size: int
    trace: Optional[Trace] = None

    @property
    def cache_hit(self) -> bool:
        """True when at least one feature was served from the cache."""
        return bool(self.cached)

    @property
    def from_cache_only(self) -> bool:
        return not self.computed


class JobHandle:
    """Caller-facing view of one submitted job."""

    def __init__(self, job_id: str, request: AnalysisRequest):
        self.id = job_id
        self.request = request
        self.tenant = request.tenant
        self.submitted_at = time.time()
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._status = JobStatus.QUEUED
        self._result: Optional[JobResult] = None
        self._error: Optional[BaseException] = None
        # Set by the queue so cancel() can pull a still-queued job out.
        self._dequeue = None
        # Virtual finish tag stamped at admission (fair queue ordering).
        self._vft = 0.0

    # -- caller API --------------------------------------------------------

    @property
    def status(self) -> str:
        return self._status

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._done.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> JobResult:
        """Block for and return the result; raise for failure/cancel."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"job {self.id} still {self._status} after {timeout}s"
            )
        if self._status == JobStatus.DONE:
            assert self._result is not None
            return self._result
        if self._status == JobStatus.CANCELLED:
            raise JobError(f"job {self.id} was cancelled")
        err = self._error
        raise JobError(f"job {self.id} failed: {err}") from err

    @property
    def error(self) -> Optional[BaseException]:
        return self._error

    def cancel(self) -> bool:
        """Cancel the job if it has not started running yet.

        Returns True when the job transitioned to ``cancelled``; a job
        already running (or finished) is not preempted and False comes
        back.
        """
        with self._lock:
            if self._status != JobStatus.QUEUED:
                return False
            dequeue = self._dequeue
            if dequeue is not None and not dequeue(self.id):
                return False  # a worker claimed it first
            self._status = JobStatus.CANCELLED
        self._done.set()
        return True

    # -- service-side transitions ------------------------------------------

    def _start(self) -> bool:
        """queued -> running; False when the job was cancelled first."""
        with self._lock:
            if self._status != JobStatus.QUEUED:
                return False
            self._status = JobStatus.RUNNING
            return True

    def _finish(self, result: JobResult) -> None:
        with self._lock:
            if self._status in JobStatus.TERMINAL:
                return
            self._status = JobStatus.DONE
            self._result = result
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        with self._lock:
            if self._status in JobStatus.TERMINAL:
                return
            self._status = JobStatus.FAILED
            self._error = error
        self._done.set()

    def _cancel_from_service(self) -> None:
        """Force-cancel (service shutdown with the job still queued)."""
        with self._lock:
            if self._status in JobStatus.TERMINAL:
                return
            self._status = JobStatus.CANCELLED
        self._done.set()

    def __repr__(self) -> str:
        return (
            f"JobHandle(id={self.id!r}, tenant={self.tenant!r}, "
            f"status={self._status!r})"
        )
