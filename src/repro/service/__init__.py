"""Always-on multi-tenant analysis service (ISSUE 7).

Turns the one-shot :func:`repro.pipeline.run_pipeline` driver into a
long-lived service: an async job API with admission control and
weighted per-tenant fairness, a content-addressed per-feature result
cache, and request batching that packs overlapping submissions into one
pipeline pass; a pass that does run is one ``run_pipeline`` call.  A
JSON-lines TCP server/client pair (``repro serve`` / ``repro submit``)
fronts the same API over the network.

Quick start::

    from repro.service import AnalysisService, AnalysisRequest

    with AnalysisService() as svc:
        job = svc.submit(AnalysisRequest(dataset_root="study/"))
        volumes = job.result(timeout=120).volumes
"""

from .cache import ResultCache, result_key, volume_fingerprint
from .client import ServiceClient, ServiceClientError, decode_volume
from .fair_queue import AdmissionError, FairQueue
from .jobs import (
    AnalysisRequest,
    JobError,
    JobHandle,
    JobResult,
    JobStatus,
    RuntimeProfile,
)
from .server import ServiceServer, request_from_payload
from .service import AnalysisService, ServiceConfig

__all__ = [
    "AdmissionError",
    "AnalysisRequest",
    "AnalysisService",
    "FairQueue",
    "JobError",
    "JobHandle",
    "JobResult",
    "JobStatus",
    "ResultCache",
    "RuntimeProfile",
    "ServiceClient",
    "ServiceClientError",
    "ServiceConfig",
    "ServiceServer",
    "decode_volume",
    "request_from_payload",
    "result_key",
    "volume_fingerprint",
]
