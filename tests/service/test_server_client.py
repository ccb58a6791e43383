"""ServiceServer + ServiceClient over a loopback socket."""

import threading
import time

import numpy as np
import pytest

from repro.pipeline.run import run_pipeline
from repro.service import (
    AnalysisService,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceServer,
)
from repro.service.server import request_from_payload

from .conftest import LEVELS, ROI, make_config


@pytest.fixture
def served(dataset_root):
    with AnalysisService(ServiceConfig(workers=1)) as service:
        with ServiceServer(service, port=0) as server:
            with ServiceClient(port=server.port) as client:
                yield service, server, client


def submit_payload(client, dataset_root, **overrides):
    payload = dict(
        dataset=dataset_root,
        features=["asm", "idm"],
        roi=list(ROI),
        levels=LEVELS,
        intensity_range=[0.0, 65535.0],
    )
    payload.update(overrides)
    return client.submit(**payload)


class TestProtocol:
    def test_ping(self, served):
        _, _, client = served
        assert client.ping()

    def test_submit_result_roundtrip(self, served, dataset_root):
        _, _, client = served
        job_id = submit_payload(client, dataset_root)
        assert job_id.startswith("j-")
        resp = client.result(job_id, timeout=300, arrays=True)
        expected = run_pipeline(dataset_root, make_config()).volumes
        for name, vol in expected.items():
            assert np.array_equal(resp["volumes"][name], vol), name
        assert client.status(job_id) == "done"

    def test_summaries_carry_checksums(self, served, dataset_root):
        _, _, client = served
        job_id = submit_payload(client, dataset_root)
        resp = client.result(job_id, timeout=300, arrays=False)
        entry = resp["volumes"]["asm"]
        assert set(entry) >= {"shape", "dtype", "min", "max", "mean", "sha256"}
        assert "data" not in entry
        import hashlib

        expected = run_pipeline(dataset_root, make_config()).volumes["asm"]
        want = hashlib.sha256(
            np.ascontiguousarray(expected).tobytes()
        ).hexdigest()
        assert entry["sha256"] == want

    def test_stats_and_cache_visible_over_wire(self, served, dataset_root):
        _, _, client = served
        job_id = submit_payload(client, dataset_root)
        client.result(job_id, timeout=300)
        dup = submit_payload(client, dataset_root)
        resp = client.result(dup, timeout=300)
        assert resp["cached"] == ["asm", "idm"]
        stats = client.stats()
        assert stats["cache"]["hits"] >= 2
        assert set(stats) == {"queue", "cache", "jobs", "metrics"}
        assert stats["metrics"]["counters"]["service_runs"] == 1

    def test_cancel_over_wire(self, served, dataset_root):
        _, _, client = served
        blocker = submit_payload(client, dataset_root, use_cache=False,
                                 batchable=False)
        victim = submit_payload(client, dataset_root, use_cache=False,
                                batchable=False)
        client.cancel(victim)  # may race the worker; must not error
        client.result(blocker, timeout=300)


class TestLifecycle:
    def test_close_is_prompt_and_joins_the_accept_thread(self):
        with AnalysisService(ServiceConfig(workers=1)) as service:
            server = ServiceServer(service, port=0)
            time.sleep(0.05)  # let the accept thread block in accept()
            t0 = time.perf_counter()
            server.close()
            assert time.perf_counter() - t0 < 0.5
            assert not server._accept_thread.is_alive()
            assert "repro-service-accept" not in {
                t.name for t in threading.enumerate()
            }
            server.close()  # idempotent


class TestErrors:
    def test_unknown_op_rejected(self, served):
        _, _, client = served
        with pytest.raises(ServiceClientError) as exc:
            client._rpc({"op": "frobnicate"})
        assert exc.value.kind == "invalid"

    def test_unknown_job_rejected(self, served):
        _, _, client = served
        with pytest.raises(ServiceClientError):
            client.status("j-424242")

    def test_bad_dataset_rejected(self, served):
        _, _, client = served
        with pytest.raises(ServiceClientError) as exc:
            client.submit(dataset="/nonexistent", features=["asm"])
        assert exc.value.kind == "invalid"

    def test_unknown_payload_field_rejected(self, served, dataset_root):
        _, _, client = served
        with pytest.raises(ServiceClientError, match="unknown request fields"):
            client.submit(dataset=dataset_root, bogus=1)

    def test_result_timeout_reports_status(self, served, dataset_root):
        _, _, client = served
        blockers = [
            submit_payload(client, dataset_root, use_cache=False,
                           batchable=False)
            for _ in range(3)
        ]
        queued = submit_payload(client, dataset_root, use_cache=False,
                                batchable=False)
        with pytest.raises(ServiceClientError) as exc:
            client.result(queued, timeout=0.0)
        assert exc.value.kind == "timeout"
        assert exc.value.response["status"] in ("queued", "running")
        for job_id in blockers + [queued]:
            client.result(job_id, timeout=300)


class TestPayloadParsing:
    def test_full_payload(self, dataset_root):
        req = request_from_payload({
            "dataset": dataset_root,
            "tenant": "alice",
            "features": ["asm"],
            "levels": 16,
            "roi": [3, 3, 3, 2],
            "distance": 2,
            "intensity_range": [0, 4095],
            "runtime": "processes",
            "use_cache": False,
        })
        assert req.tenant == "alice"
        assert req.config.texture.levels == 16
        assert req.config.texture.distance == 2
        assert req.profile.runtime == "processes"
        assert not req.use_cache

    def test_transport_is_no_longer_a_request_field(self, dataset_root):
        with pytest.raises(ValueError, match=r"unknown request fields: \['transport'\]"):
            request_from_payload({"dataset": dataset_root, "transport": "shm"})

    def test_dataset_required(self):
        with pytest.raises(ValueError, match="dataset"):
            request_from_payload({"features": ["asm"]})
