"""The always-on analysis service: jobs in, feature volumes out.

:class:`AnalysisService` is the long-lived, multi-tenant front end to
the parallel pipeline.  One process hosts one service; tenants submit
:class:`~repro.service.jobs.AnalysisRequest`\\ s and get back
:class:`~repro.service.jobs.JobHandle`\\ s they can poll, block on or
cancel.  Between the queue and the pipeline sit the three subsystems
this module wires together:

* a :class:`~repro.service.fair_queue.FairQueue` — bounded admission
  (reject with a reason, never block the submitter) and weighted fair
  ordering across tenants;
* a :class:`~repro.service.cache.ResultCache` — content-addressed
  per-feature volumes, so duplicate work is served in microseconds and
  overlapping feature sets only compute the difference;
* the pipeline itself — every pass that does run is one
  :func:`repro.pipeline.run_pipeline` call, built and torn down by that
  call; nothing of a run outlives it.

Workers additionally **batch**: when a popped job's dataset and
parameters match other queued jobs (any tenant), the worker pulls them
in and executes one pipeline pass over the union of the missing
features, then deals each job its requested slice of the results.

Every result is bit-identical to a one-shot
:func:`repro.pipeline.run_pipeline` call with the same request — the
cache key covers exactly the parameters that determine the numbers, and
batching only ever widens the feature set, which the pipeline computes
per-feature independently.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from ..datacutter.obs import MetricsRegistry
from ..pipeline.run import run_pipeline
from .cache import ResultCache, result_key, volume_fingerprint
from .fair_queue import AdmissionError, FairQueue
from .jobs import AnalysisRequest, JobHandle, JobResult, JobStatus

__all__ = ["ServiceConfig", "AnalysisService"]


@dataclass
class ServiceConfig:
    """Tunables of one :class:`AnalysisService` instance."""

    #: Worker threads executing jobs (one pipeline pass each at a time).
    workers: int = 2
    #: Hard bound on queued jobs; beyond it submissions are rejected.
    max_queued: int = 64
    #: Per-tenant fair-share weights; unlisted tenants get the default.
    tenant_weights: Mapping[str, float] = field(default_factory=dict)
    default_weight: float = 1.0
    #: Pack co-batchable queued jobs into one pipeline pass (<= batch_max).
    batching: bool = True
    batch_max: int = 8
    #: Result cache budget in payload bytes; 0 disables caching.
    cache_bytes: int = 256 << 20

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")


class AnalysisService:
    """Always-on multi-tenant front end to the parallel pipeline."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.metrics = MetricsRegistry()
        self.cache = ResultCache(max_bytes=self.config.cache_bytes)
        self.queue = FairQueue(
            max_queued=self.config.max_queued,
            weights=self.config.tenant_weights,
            default_weight=self.config.default_weight,
        )
        self._jobs: Dict[str, JobHandle] = {}
        self._jobs_lock = threading.Lock()
        self._seq = 0
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{i}",
                daemon=True,
            )
            for i in range(self.config.workers)
        ]
        for t in self._workers:
            t.start()

    # -- submission --------------------------------------------------------

    def submit(
        self, request: Optional[AnalysisRequest] = None, **kwargs: Any
    ) -> JobHandle:
        """Admit one job; returns its handle or raises.

        Accepts a prebuilt :class:`AnalysisRequest` or its fields as
        keyword arguments.  Raises :class:`ValueError` for malformed
        requests and :class:`AdmissionError` when the service refuses
        the job (saturated queue, shut down).
        """
        if request is None:
            request = AnalysisRequest(**kwargs)
        elif kwargs:
            raise ValueError("pass a request object or fields, not both")
        if not os.path.isdir(request.dataset_root):
            raise ValueError(
                f"dataset_root {request.dataset_root!r} is not a directory"
            )
        if self._closed:
            raise AdmissionError("service is shut down")
        with self._jobs_lock:
            self._seq += 1
            job = JobHandle(f"j-{self._seq:06d}", request)
            self._jobs[job.id] = job
        try:
            self.queue.push(job)
        except AdmissionError:
            with self._jobs_lock:
                del self._jobs[job.id]
            self.metrics.counter(
                "service_rejected", tenant=request.tenant
            ).inc()
            raise
        self.metrics.counter("service_submitted", tenant=request.tenant).inc()
        self.metrics.gauge("service_queue_depth").set(float(self.queue.depth()))
        return job

    # -- job API -----------------------------------------------------------

    def _handle(self, job_id: str) -> JobHandle:
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job id {job_id!r}")
        return job

    def status(self, job_id: str) -> str:
        return self._handle(job_id).status

    def result(self, job_id: str, timeout: Optional[float] = None) -> JobResult:
        return self._handle(job_id).result(timeout)

    def cancel(self, job_id: str) -> bool:
        job = self._handle(job_id)
        cancelled = job.cancel()
        if cancelled:
            self._count_outcome(job)
        return cancelled

    def jobs(self) -> List[JobHandle]:
        with self._jobs_lock:
            return list(self._jobs.values())

    # -- worker side -------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self.queue.pop()
            if job is None:
                return  # the queue was closed: shutdown
            try:
                self._process(job)
            except BaseException as exc:  # never kill the worker thread
                job._fail(exc)
                self._count_outcome(job)

    def _cache_split(self, job: JobHandle, fingerprint: Optional[str]):
        """Partition a job's features into (cached {name: volume}, missing)."""
        req = job.request
        if fingerprint is None or not req.use_cache:
            return {}, list(req.config.texture.features)
        cached: Dict[str, np.ndarray] = {}
        missing: List[str] = []
        for feat in req.config.texture.features:
            vol = self.cache.get(result_key(fingerprint, req.config.texture, feat))
            if vol is None:
                missing.append(feat)
            else:
                cached[feat] = vol
        self.metrics.counter("service_cache_hits").inc(len(cached))
        self.metrics.counter("service_cache_misses").inc(len(missing))
        return cached, missing

    @staticmethod
    def _batch_key(job: JobHandle):
        """Jobs with equal batch keys can share one pipeline pass.

        Everything about the run except the feature set must match —
        including the runtime profile (they share one ``run_pipeline``
        call) and the trace flag (trace events are stamped per batch).
        """
        req = job.request
        texture = replace(req.config.texture, features=("asm",))
        return (
            os.path.realpath(req.dataset_root),
            replace(req.config, texture=texture),
            req.profile,
            req.retry,
            bool(req.trace),
            req.run_timeout,
        )

    def _process(self, primary: JobHandle) -> None:
        if not primary._start():
            return  # cancelled while queued
        self.metrics.gauge("service_queue_depth").set(float(self.queue.depth()))
        req = primary.request
        fingerprint = None
        if req.use_cache and req.faults is None and self.cache.max_bytes > 0:
            fingerprint = volume_fingerprint(req.dataset_root)
        cached, missing = self._cache_split(primary, fingerprint)

        if not missing:
            self._finish_from_cache(primary, cached)
            return

        # Pull co-batchable queued jobs into this pass (any tenant).
        batch = [(primary, cached, missing)]
        if (
            self.config.batching
            and req.batchable
            and req.faults is None
            and self.config.batch_max > 1
        ):
            key = self._batch_key(primary)
            mates = self.queue.take_matching(
                lambda j: (
                    j.request.batchable
                    and j.request.faults is None
                    and self._batch_key(j) == key
                ),
                self.config.batch_max - 1,
            )
            for mate in mates:
                if not mate._start():
                    continue  # cancelled while queued
                m_cached, m_missing = self._cache_split(mate, fingerprint)
                if not m_missing:
                    self._finish_from_cache(mate, m_cached)
                else:
                    batch.append((mate, m_cached, m_missing))

        union = sorted({feat for _, _, m in batch for feat in m})
        exec_config = replace(
            req.config, texture=replace(req.config.texture, features=tuple(union))
        )
        started = time.time()
        try:
            profile = req.profile
            # bool(): the service collects events, it never exports files.
            result = run_pipeline(
                req.dataset_root,
                exec_config,
                runtime=profile.runtime,
                max_queue=profile.max_queue,
                hosts=list(profile.hosts) if profile.hosts else None,
                heartbeat_timeout=profile.heartbeat_timeout,
                retry=req.retry,
                faults=req.faults,
                trace=bool(req.trace),
                run_timeout=req.run_timeout,
            )
        except BaseException as exc:
            for job, _, _ in batch:
                job._fail(exc)
                self._count_outcome(job)
            return
        elapsed = time.time() - started
        self.metrics.counter("service_runs").inc()
        self.metrics.histogram("service_exec_seconds").observe(elapsed)
        if len(batch) > 1:
            self.metrics.counter("service_batches").inc()
            self.metrics.counter("service_batched_jobs").inc(len(batch) - 1)

        if fingerprint is not None:
            for feat, vol in result.volumes.items():
                self.cache.put(
                    result_key(fingerprint, req.config.texture, feat), vol
                )

        trace = result.trace
        if trace is not None:
            # Per-job scoping: stamp which jobs this pass served, so
            # merged/exported traces stay attributable.
            job_ids = ",".join(j.id for j, _, _ in batch)
            for ev in trace.events:
                ev.attrs.setdefault("jobs", job_ids)

        for job, j_cached, j_missing in batch:
            volumes = dict(j_cached)
            for feat in j_missing:
                volumes[feat] = result.volumes[feat]
            job._finish(
                JobResult(
                    job_id=job.id,
                    volumes=volumes,
                    cached=tuple(sorted(j_cached)),
                    computed=tuple(j_missing),
                    elapsed=elapsed,
                    queue_wait=started - job.submitted_at,
                    batch_size=len(batch),
                    trace=trace,
                )
            )
            self._count_outcome(job)

    def _finish_from_cache(
        self, job: JobHandle, cached: Dict[str, np.ndarray]
    ) -> None:
        self.metrics.counter("service_jobs_from_cache").inc()
        job._finish(
            JobResult(
                job_id=job.id,
                volumes=dict(cached),
                cached=tuple(sorted(cached)),
                computed=(),
                elapsed=0.0,
                queue_wait=time.time() - job.submitted_at,
                batch_size=0,
                trace=None,
            )
        )
        self._count_outcome(job)

    def _count_outcome(self, job: JobHandle) -> None:
        outcome = job.status
        self.metrics.counter(
            "service_jobs", outcome=outcome, tenant=job.tenant
        ).inc()
        self.metrics.histogram(
            "service_queue_wait_seconds", tenant=job.tenant
        ).observe(max(0.0, time.time() - job.submitted_at))

    # -- lifecycle / introspection -----------------------------------------

    def stats(self) -> Dict[str, Any]:
        """One JSON-safe snapshot of every subsystem."""
        return {
            "queue": self.queue.stats(),
            "cache": self.cache.stats(),
            "jobs": {
                status: sum(1 for j in self.jobs() if j.status == status)
                for status in JobStatus.ALL
            },
            "metrics": self.metrics.snapshot(),
        }

    def shutdown(self, wait: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting work, drain the workers, close the cache.

        Jobs still queued are cancelled; jobs already running finish
        (``wait=True``) before the cache is closed.
        """
        if self._closed:
            return
        self._closed = True
        for job in self.queue.drain():
            job._cancel_from_service()
            self._count_outcome(job)
        self.queue.close()
        if wait:
            deadline = None if timeout is None else time.time() + timeout
            for t in self._workers:
                left = None if deadline is None else max(0.0, deadline - time.time())
                t.join(left)
        self.cache.close()

    def __enter__(self) -> "AnalysisService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False
