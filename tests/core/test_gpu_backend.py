"""Tests for the import-guarded GPU backend and its fallback path.

Everything above the ``@pytest.mark.gpu`` section runs on CPU-only
machines: probing, the incremental fallback (bit-identity + warning), the
``kernel.fallback`` obs event emitted by the texture filters, and the
``repro kernels`` CLI.  The marked tests exercise a real CUDA device and
are auto-skipped when the probe finds none.
"""

import warnings

import numpy as np
import pytest

from repro.cli import main
from repro.core import gpu as gpu_mod
from repro.core.backends import (
    get_kernel,
    incremental_scan,
    reference_scan,
    resolve_scan_kernel,
)
from repro.core.gpu import (
    GpuProbe,
    GpuUnavailableWarning,
    gpu_fallback_count,
    gpu_scan,
    probe_gpu,
)
from repro.core.roi import ROISpec
from repro.datacutter.buffers import DataBuffer
from repro.datacutter.filter import FilterContext
from repro.filters.hcc import HaralickCoMatrixCalculator
from repro.filters.hmp import HaralickMatrixProducer
from repro.filters.messages import TextureChunk, TextureParams

HAVE_DEVICE = probe_gpu().available


@pytest.fixture()
def small():
    rng = np.random.default_rng(11)
    return rng.integers(0, 8, size=(7, 6, 5), dtype=np.int32), ROISpec((3, 3, 2))


def _collect(scan, data, roi, levels, **kw):
    return [(s, np.array(m)) for s, m in scan(data, roi, levels, **kw)]


class TestProbe:
    def test_probe_fields(self):
        probe = probe_gpu()
        assert isinstance(probe, GpuProbe)
        assert isinstance(probe.available, bool)
        if probe.available:
            assert probe.provider in ("cupy", "numba")
            assert probe.device
        else:
            assert probe.provider is None
            assert probe.device is None
            # The accumulated import/driver errors make the failure
            # diagnosable from `repro kernels`.
            assert probe.detail

    def test_probe_is_cached(self):
        assert probe_gpu() is probe_gpu()

    def test_probe_refresh_reruns(self, monkeypatch):
        sentinel = GpuProbe(False, None, None, "sentinel")
        monkeypatch.setattr(gpu_mod, "_probe_cache", sentinel)
        assert probe_gpu() is sentinel
        assert probe_gpu(refresh=True) is not sentinel
        # The refreshed result replaced the cache.
        assert probe_gpu().detail != "sentinel"

    def test_get_kernel_knows_gpu(self):
        scan = get_kernel("gpu")
        assert callable(scan)


class TestResolveFallback:
    def test_resolve_non_gpu_has_no_fallback(self):
        scan, fallback = resolve_scan_kernel("incremental")
        assert scan is incremental_scan
        assert fallback is None

    @pytest.mark.skipif(HAVE_DEVICE, reason="CUDA device present")
    def test_resolve_gpu_reports_fallback(self):
        scan, fallback = resolve_scan_kernel("gpu")
        assert fallback == {
            "requested": "gpu",
            "used": "incremental",
            "reason": probe_gpu().detail,
        }

    @pytest.mark.skipif(not HAVE_DEVICE, reason="no CUDA device")
    def test_resolve_gpu_native(self):
        _scan, fallback = resolve_scan_kernel("gpu")
        assert fallback is None


@pytest.mark.skipif(HAVE_DEVICE, reason="CUDA device present")
class TestFallbackPath:
    def test_fallback_warns_and_matches_reference(self, small):
        data, roi = small
        before = gpu_fallback_count()
        with pytest.warns(GpuUnavailableWarning, match="falling back"):
            got = _collect(gpu_scan, data, roi, 8)
        assert gpu_fallback_count() == before + 1
        want = _collect(reference_scan, data, roi, 8)
        assert len(got) == len(want)
        for (s0, m0), (s1, m1) in zip(want, got):
            assert s0 == s1
            assert np.array_equal(m0, m1)

    def test_fallback_forwards_scan_options(self, small):
        data, roi = small
        with pytest.warns(GpuUnavailableWarning):
            got = _collect(
                gpu_scan, data, roi, 8, batch=3, symmetric=False
            )
        want = _collect(
            incremental_scan, data, roi, 8, batch=3, symmetric=False
        )
        assert len(got) == len(want) > 1  # batch honoured
        for (s0, m0), (s1, m1) in zip(want, got):
            assert s0 == s1
            assert np.array_equal(m0, m1)

    def test_fallback_still_validates(self, small):
        _data, roi = small
        bad = np.full((6, 6, 6), 9, dtype=np.int32)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GpuUnavailableWarning)
            with pytest.raises(ValueError):
                list(gpu_scan(bad, roi, 8))


class EventContext(FilterContext):
    """Captures sends and obs events for filter unit tests."""

    tracing = True

    def __init__(self):
        super().__init__("test", 0, 1)
        self.sent = []
        self.events = []

    def send(self, stream, payload, size_bytes=0, metadata=None, dest_copy=None):
        self.sent.append(payload)

    def deposit(self, key, value):
        pass

    def event(self, kind, *, dur=0.0, chunk=None, **attrs):
        self.events.append((kind, chunk, attrs))


@pytest.mark.skipif(HAVE_DEVICE, reason="CUDA device present")
class TestFilterFallbackEvent:
    def _params(self, kernel="gpu"):
        return TextureParams(
            roi_shape=(3, 3, 2),
            levels=8,
            features=("asm", "idm"),
            intensity_range=(0.0, 7.0),
            kernel=kernel,
        )

    def _chunk(self, rng):
        from repro.chunks.chunking import partition

        shape = (7, 6, 5)
        chunk = partition(shape, ROISpec((3, 3, 2)), shape)[0]
        data = rng.integers(0, 4096, size=shape).astype(np.float64)
        return TextureChunk(chunk=chunk, data=data)

    @pytest.mark.filterwarnings("ignore::repro.core.gpu.GpuUnavailableWarning")
    @pytest.mark.parametrize("filter_cls", [
        HaralickMatrixProducer, HaralickCoMatrixCalculator,
    ])
    def test_filters_emit_kernel_fallback(self, filter_cls):
        rng = np.random.default_rng(5)
        tc = self._chunk(rng)
        ctx = EventContext()
        filter_cls(self._params()).process(
            "in", DataBuffer(payload=tc), ctx
        )
        fallbacks = [e for e in ctx.events if e[0] == "kernel.fallback"]
        assert len(fallbacks) == 1
        _kind, chunk, attrs = fallbacks[0]
        assert chunk == tc.chunk.index
        assert attrs["requested"] == "gpu"
        assert attrs["used"] == "incremental"
        assert attrs["reason"]
        assert ctx.sent  # the chunk was still fully processed

    def test_no_event_for_cpu_kernel(self):
        rng = np.random.default_rng(6)
        tc = self._chunk(rng)
        ctx = EventContext()
        HaralickMatrixProducer(self._params(kernel="incremental")).process(
            "in", DataBuffer(payload=tc), ctx
        )
        assert not [e for e in ctx.events if e[0] == "kernel.fallback"]


class TestKernelsCli:
    def test_kernels_command(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        for k in ("batched", "gpu", "incremental", "reference"):
            assert k in out
        assert "default kernel" in out
        probe = probe_gpu()
        if probe.available:
            assert "available via" in out
        else:
            assert "falls back to incremental" in out
            # The import/driver evidence is printed for diagnosability.
            assert probe.detail.splitlines()[0] in out

    def test_kernels_refresh_flag(self, capsys):
        assert main(["kernels", "--refresh"]) == 0
        assert "gpu:" in capsys.readouterr().out


@pytest.mark.gpu
@pytest.mark.skipif(not HAVE_DEVICE, reason="no CUDA device")
class TestOnDevice:
    """Real-device bit-identity (runs only where a CUDA device exists)."""

    def test_device_matches_reference(self, small):
        data, roi = small
        got = _collect(gpu_scan, data, roi, 8)
        want = _collect(reference_scan, data, roi, 8)
        assert len(got) == len(want)
        for (s0, m0), (s1, m1) in zip(want, got):
            assert s0 == s1
            assert np.array_equal(m0, m1)

    def test_device_paper_config(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 32, size=(20, 20, 12, 7), dtype=np.int32)
        roi = ROISpec((5, 5, 5, 3))
        got = _collect(gpu_scan, data, roi, 32, batch=2048)
        want = _collect(incremental_scan, data, roi, 32, batch=2048)
        for (s0, m0), (s1, m1) in zip(want, got):
            assert s0 == s1
            assert np.array_equal(m0, m1)
