"""JSON-lines TCP front end for :class:`AnalysisService`.

One request per line, one response per line — the same framing the
``repro submit`` client and :class:`~repro.service.client.ServiceClient`
speak.  The protocol is deliberately tiny (submit / status / result /
cancel / stats / ping) and fully JSON: feature volumes travel either as
summaries (shape, dtype, min/max/mean, content sha256) or, on request,
as base64-encoded raw bytes.

This is an operational front end for trusted networks, not a hardened
public endpoint: there is no authentication, and tenants are
self-declared.
"""

from __future__ import annotations

import base64
import hashlib
import json
import socket
import threading
from typing import Any, Dict, Optional

import numpy as np

from ..filters.messages import TextureParams
from ..pipeline.config import AnalysisConfig
from .fair_queue import AdmissionError
from .jobs import AnalysisRequest, JobStatus, RuntimeProfile
from .service import AnalysisService

__all__ = ["ServiceServer", "request_from_payload", "encode_volume"]


def request_from_payload(payload: Dict[str, Any]) -> AnalysisRequest:
    """Build an :class:`AnalysisRequest` from a wire payload dict."""
    known = {
        "dataset", "tenant", "features", "levels", "roi", "distance",
        "intensity_range", "variant", "copies", "runtime", "max_queue",
        "trace", "use_cache", "batchable", "run_timeout",
    }
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown request fields: {sorted(unknown)}")
    if "dataset" not in payload:
        raise ValueError("request needs a 'dataset' field")
    texture_kwargs: Dict[str, Any] = {}
    if "features" in payload:
        texture_kwargs["features"] = tuple(payload["features"])
    if "levels" in payload:
        texture_kwargs["levels"] = int(payload["levels"])
    if "roi" in payload:
        texture_kwargs["roi_shape"] = tuple(int(r) for r in payload["roi"])
    if "distance" in payload:
        texture_kwargs["distance"] = int(payload["distance"])
    if "intensity_range" in payload:
        lo, hi = payload["intensity_range"]
        texture_kwargs["intensity_range"] = (float(lo), float(hi))
    config_kwargs: Dict[str, Any] = {"texture": TextureParams(**texture_kwargs)}
    if "variant" in payload:
        config_kwargs["variant"] = payload["variant"]
    if "copies" in payload:
        config_kwargs["num_texture_copies"] = int(payload["copies"])
    profile_kwargs: Dict[str, Any] = {}
    if "runtime" in payload:
        profile_kwargs["runtime"] = payload["runtime"]
    if "max_queue" in payload:
        profile_kwargs["max_queue"] = int(payload["max_queue"])
    return AnalysisRequest(
        dataset_root=payload["dataset"],
        config=AnalysisConfig(**config_kwargs),
        tenant=str(payload.get("tenant", "default")),
        profile=RuntimeProfile(**profile_kwargs),
        trace=bool(payload.get("trace", False)),
        use_cache=bool(payload.get("use_cache", True)),
        batchable=bool(payload.get("batchable", True)),
        run_timeout=payload.get("run_timeout"),
    )


def encode_volume(vol: np.ndarray, arrays: bool) -> Dict[str, Any]:
    """Wire form of one feature volume (summary, plus bytes if asked)."""
    out: Dict[str, Any] = {
        "shape": list(vol.shape),
        "dtype": str(vol.dtype),
        "min": float(vol.min()),
        "max": float(vol.max()),
        "mean": float(vol.mean()),
        "sha256": hashlib.sha256(np.ascontiguousarray(vol).tobytes()).hexdigest(),
    }
    if arrays:
        out["data"] = base64.b64encode(
            np.ascontiguousarray(vol).tobytes()
        ).decode("ascii")
    return out


class ServiceServer:
    """Serves one :class:`AnalysisService` over a JSON-lines TCP socket."""

    def __init__(
        self,
        service: AnalysisService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)
        self.host, self.port = self._sock.getsockname()[:2]
        self._closed = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-service-accept", daemon=True
        )
        self._accept_thread.start()

    # -- connection handling -----------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # socket closed
            threading.Thread(
                target=self._serve_conn, args=(conn,), daemon=True
            ).start()

    def _serve_conn(self, conn: socket.socket) -> None:
        with conn, conn.makefile("rwb") as stream:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                try:
                    msg = json.loads(line)
                    resp = self._dispatch(msg)
                except AdmissionError as exc:
                    resp = {"ok": False, "kind": "admission", "error": str(exc)}
                except (ValueError, KeyError, TypeError) as exc:
                    resp = {"ok": False, "kind": "invalid", "error": str(exc)}
                except Exception as exc:
                    resp = {"ok": False, "kind": "internal", "error": str(exc)}
                stream.write(json.dumps(resp).encode() + b"\n")
                stream.flush()

    # -- ops ---------------------------------------------------------------

    def _dispatch(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        op = msg.get("op")
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "submit":
            request = request_from_payload(msg.get("request", {}))
            job = self.service.submit(request)
            return {"ok": True, "job": job.id, "status": job.status}
        if op == "status":
            job_id = msg["job"]
            return {"ok": True, "job": job_id,
                    "status": self.service.status(job_id)}
        if op == "result":
            return self._op_result(msg)
        if op == "cancel":
            job_id = msg["job"]
            return {"ok": True, "job": job_id,
                    "cancelled": self.service.cancel(job_id)}
        if op == "stats":
            return {"ok": True, "stats": self.service.stats()}
        raise ValueError(f"unknown op {op!r}")

    def _op_result(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        job_id = msg["job"]
        handle = self.service._handle(job_id)
        timeout = msg.get("timeout")
        if not handle.wait(timeout):
            return {"ok": False, "kind": "timeout", "job": job_id,
                    "status": handle.status,
                    "error": f"job {job_id} not finished"}
        if handle.status != JobStatus.DONE:
            return {"ok": False, "kind": "job", "job": job_id,
                    "status": handle.status,
                    "error": str(handle.error or handle.status)}
        result = handle.result()
        arrays = bool(msg.get("arrays", False))
        return {
            "ok": True,
            "job": job_id,
            "status": JobStatus.DONE,
            "cached": list(result.cached),
            "computed": list(result.computed),
            "elapsed": result.elapsed,
            "queue_wait": result.queue_wait,
            "batch_size": result.batch_size,
            "volumes": {
                name: encode_volume(vol, arrays)
                for name, vol in sorted(result.volumes.items())
            },
        }

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        # Closing the socket from this thread does not wake an accept()
        # blocked in the accept thread on Linux; shutting it down does.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=2.0)

    def __enter__(self) -> "ServiceServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
