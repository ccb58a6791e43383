"""Unit tests for data buffers and the timing report helpers."""

import pytest

from repro.datacutter.buffers import DataBuffer, EndOfStream
from repro.datacutter.obs import snapshot_run
from repro.datacutter.runtime_local import RunResult
from repro.pipeline.report import (
    filter_breakdown,
    format_breakdown,
    format_metrics,
)


class TestDataBuffer:
    def test_unique_ids(self):
        a, b = DataBuffer(payload=1), DataBuffer(payload=2)
        assert a.buffer_id != b.buffer_id

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            DataBuffer(payload=None, size_bytes=-1)

    def test_repr_compact(self):
        buf = DataBuffer(payload=list(range(10000)), size_bytes=4, metadata={"k": 1})
        text = repr(buf)
        assert "size=4B" in text and len(text) < 200

    def test_metadata_defaults_to_fresh_dict(self):
        a, b = DataBuffer(payload=1), DataBuffer(payload=2)
        a.metadata["x"] = 1
        assert b.metadata == {}

    def test_eos_identity(self):
        m = EndOfStream(producer="P", copy_index=3)
        assert m.producer == "P" and m.copy_index == 3
        assert m == EndOfStream(producer="P", copy_index=3)


def fake_result():
    return RunResult(
        results={"out": [1, 2]},
        elapsed=2.5,
        busy_time={
            ("RFR", 0): 0.1,
            ("RFR", 1): 0.3,
            ("HMP", 0): 1.0,
            ("HMP", 1): 2.0,
        },
        buffers_sent={"RFR:out": 10},
    )


class TestReport:
    def test_breakdown_statistics(self):
        stats = filter_breakdown(fake_result())
        assert stats["RFR"]["copies"] == 2
        assert stats["RFR"]["total"] == pytest.approx(0.4)
        assert stats["HMP"]["mean"] == pytest.approx(1.5)
        assert stats["HMP"]["max"] == pytest.approx(2.0)

    def test_format_respects_order(self):
        text = format_breakdown(fake_result(), order=("HMP", "RFR"))
        lines = text.splitlines()
        assert lines[1].startswith("HMP")
        assert lines[2].startswith("RFR")
        assert "elapsed" in lines[-1]

    def test_filter_busy_time_helper(self):
        r = fake_result()
        assert r.filter_busy_time("HMP") == pytest.approx(3.0)
        assert r.filter_busy_time("missing") == 0.0
        assert r.deposits("out") == [1, 2]
        assert r.deposits("nope") == []


class TestFormatMetrics:
    @staticmethod
    def run_with(wire, shm_bytes=None, shm_pool=None):
        metrics = snapshot_run(
            {("HCC", 0): 1.0}, {"HCC:hcc2hpc": 128}, 0, 0, [], wire, 2.5,
            shm_bytes=shm_bytes, shm_pool=shm_pool,
        )
        return RunResult(
            results={}, elapsed=2.5, busy_time={}, buffers_sent={},
            metrics=metrics,
        )

    def test_link_traffic_side_by_side_and_pool_line(self):
        text = format_metrics(self.run_with(
            {"IIC:iic2tex": 400_000, "HCC:hcc2hpc": 1_250_000},
            shm_bytes={"IIC:iic2tex": 0, "HCC:hcc2hpc": 169_900_000},
            shm_pool={"segments": 32, "hits": 128, "fallbacks": 0,
                      "peak_in_use": 3, "in_use": 0, "hit_rate": 1.0},
        ))
        lines = text.splitlines()
        assert lines[:3] == [
            "link HCC:hcc2hpc: wire_bytes = 1250000, shm_bytes = 169900000",
            "link IIC:iic2tex: wire_bytes = 400000, shm_bytes = 0",
            "shm_pool: hits = 128, fallbacks = 0, peak_in_use = 3/32",
        ]
        # Shown once: the per-link lines replace the two flat counters.
        assert not [ln for ln in lines[3:] if "_bytes{link" in ln]
        assert "buffers_sent{stream=HCC:hcc2hpc} = 128" in lines
        assert "shm_pool_hit_rate = 1 (max 1)" in lines

    def test_runtime_without_a_pool(self):
        lines = format_metrics(self.run_with({"a/b": 10})).splitlines()
        assert lines[0] == "link a/b: wire_bytes = 10, shm_bytes = 0"
        assert not [ln for ln in lines if ln.startswith("shm_pool")]
