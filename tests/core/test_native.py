"""Tests for the compiled passes and their loader.

``repro.core.native`` compiles ``_native.c`` on first use and loads it
with ctypes; when that is impossible ``incremental`` runs its numpy
passes and the features their numpy path.  Covered here: the plane
histograms against the numpy passes, the interpreter lock being
released, the argument checks of both wrappers, every loader path (no
compiler, failed build, a library missing a symbol, unusable cache
directory, untrusted cached file, racing builds),
error reporting without memory corruption, the re-pointed
``kernel.fallback`` event and ``repro kernels`` line, and packaging.

Loader tests call ``native._resolve()`` under a private
``XDG_CACHE_HOME``; they never touch the process-wide result that the
rest of the suite runs on.
"""

import os
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core import backends, native
from repro.core.backends import (
    incremental_scan,
    reference_scan,
    resolve_scan_kernel,
)
from repro.core.roi import ROISpec
from repro.datacutter.buffers import DataBuffer
from repro.datacutter.filter import FilterContext
from repro.filters.hcc import HaralickCoMatrixCalculator
from repro.filters.hmp import HaralickMatrixProducer
from repro.filters.messages import TextureChunk, TextureParams

REPO_ROOT = Path(__file__).resolve().parents[2]
LIB = native.load()
needs_native = pytest.mark.skipif(
    LIB is None, reason=f"compiled pass unavailable: {native.status().reason}"
)


def _subprocess_env(**extra):
    return dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), **extra)


def _run_python(code, **env):
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=_subprocess_env(**env), capture_output=True, text=True,
        timeout=120,
    )


@pytest.fixture()
def small():
    rng = np.random.default_rng(11)
    return rng.integers(0, 8, size=(7, 6, 5), dtype=np.int32), ROISpec((3, 3, 2))


def _collect(scan, data, roi, levels, **kw):
    return [(s, np.array(m)) for s, m in scan(data, roi, levels, **kw)]


# --------------------------------------------------------------------------
# The C function against the numpy passes
# --------------------------------------------------------------------------


@st.composite
def histogram_cases(draw):
    gg = draw(st.sampled_from([1, 4, 9, 64]))
    rows = draw(st.integers(1, 5))  # one-row blocks included
    n_planes = draw(st.integers(1, 6))
    n_face = draw(st.integers(0, 12))  # empty faces included
    reach = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    face = rng.integers(0, reach, size=n_face).astype(np.int64)
    # Ascending, as the scan produces them (the numpy passes address
    # their gather relative to origins[0]).
    origins = np.sort(rng.integers(0, reach, size=rows)).astype(np.int64)
    codes = rng.integers(0, gg, size=2 * reach + n_planes).astype(np.int64)
    return codes, origins, n_planes, face, gg


def _numpy_passes(codes, origins, n_planes, face, gg):
    size = origins.size * n_planes * face.size
    table, scratch = np.empty((2, size), dtype=np.int64)
    return backends._numpy_plane_histograms(
        codes, origins, n_planes, face, gg, table, scratch, {}, 0
    )


@needs_native
class TestPlaneHistograms:
    @given(case=histogram_cases())
    @settings(max_examples=150, deadline=None)
    def test_c_pass_equals_numpy_passes(self, case):
        codes, origins, n_planes, face, gg = case
        out = np.full((origins.size, n_planes, gg), -1, dtype=np.int64)
        native.plane_histograms(LIB, codes, origins, n_planes, face, gg, out)
        want = _numpy_passes(codes, origins, n_planes, face, gg)
        assert np.array_equal(out, want)
        assert out.sum() == origins.size * n_planes * face.size

    def test_rejects_wrong_dtype_layout_and_shape(self):
        codes = np.zeros(16, dtype=np.int64)
        origins = np.zeros(2, dtype=np.int64)
        face = np.arange(3, dtype=np.int64)
        out = np.zeros((2, 2, 4), dtype=np.int64)
        call = native.plane_histograms
        with pytest.raises(TypeError, match="codes"):
            call(LIB, codes.astype(np.int32), origins, 2, face, 4, out)
        with pytest.raises(TypeError, match="origins"):
            call(LIB, codes, np.zeros(4, dtype=np.int64)[::2], 2, face, 4, out)
        with pytest.raises(TypeError, match="face"):
            call(LIB, codes, origins, 2, face.reshape(3, 1), 4, out)
        with pytest.raises(TypeError, match="out"):
            call(LIB, codes, origins, 2, face, 4, out[:, :1])
        with pytest.raises(TypeError, match="out"):
            call(LIB, codes, origins, 2, face, 4, out.astype(np.int32))

    def test_releases_the_interpreter_lock(self):
        """A second Python thread keeps running inside a long C call."""
        rng = np.random.default_rng(0)
        rows = n_planes = 32
        face = rng.integers(0, 10**6, size=120_000).astype(np.int64)
        codes = rng.integers(0, 16, size=10**6 + n_planes).astype(np.int64)
        origins = np.zeros(rows, dtype=np.int64)
        out = np.empty((rows, n_planes, 16), dtype=np.int64)
        window = []
        stamps = []
        started, done = threading.Event(), threading.Event()

        def call():
            started.set()
            t0 = time.perf_counter()
            native.plane_histograms(
                LIB, codes, origins, n_planes, face, 16, out
            )
            window.extend((t0, time.perf_counter()))
            done.set()

        def tick():
            started.wait()
            while not done.is_set():
                stamps.append(time.perf_counter())
                time.sleep(0.001)

        threads = [threading.Thread(target=f) for f in (tick, call)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        t0, t1 = window
        assert t1 - t0 > 0.02, "C call too short to tell"
        margin = 0.1 * (t1 - t0)
        inside = [s for s in stamps if t0 + margin < s < t1 - margin]
        # Holding the lock through the call would leave this empty.
        assert len(inside) >= 5, (len(inside), t1 - t0)


@needs_native
class TestWindowSums:
    def _planes(self, rows=2, span=3, widths=(2, 1), g=4, seed=0):
        rng = np.random.default_rng(seed)
        sizes = [rows * (span - 1 + w) * g * g for w in widths]
        planes = rng.integers(0, 3, size=sum(sizes)).astype(np.int64)
        offsets = np.cumsum([0, *sizes])[:-1].astype(np.int64)
        return planes, offsets, np.array(widths, dtype=np.int64)

    def test_sums_of_the_sliding_window(self):
        rows, span, g = 2, 3, 4
        planes, offsets, widths = self._planes(rows, span, (2, 1), g)
        want = []
        for r in range(rows):
            for t in range(span):
                a = np.zeros((g, g), dtype=np.int64)
                for off, w in zip(offsets, widths):
                    n_planes = span - 1 + w
                    group = planes[off : off + rows * n_planes * g * g]
                    group = group.reshape(rows, n_planes, g, g)
                    a += group[r, t : t + w].sum(axis=0)
                c = a + a.T
                i, j = np.indices((g, g))
                want.append(
                    [c.sum(), (c * c).sum()]
                    + [c[np.abs(i - j) == k].sum() for k in range(g)]
                    + [c[i + j == s].sum() for s in range(2 * g - 1)]
                )
        out = np.full((rows, span, 3 * g + 1), -1, dtype=np.int64)
        native.window_sums(LIB, planes.copy(), offsets, widths, span, g, out)
        assert np.array_equal(out.reshape(-1, 3 * g + 1), np.array(want))

    def test_rejects_bad_layout_and_counts(self):
        planes, offsets, widths = self._planes()
        out = np.zeros((2, 3, 13), dtype=np.int64)
        call = native.window_sums
        with pytest.raises(TypeError):
            call(LIB, planes, offsets, widths, 3, 4, out[:, :2])
        with pytest.raises(TypeError):
            call(LIB, planes[:-1], offsets, widths, 3, 4, out)
        with pytest.raises(TypeError):
            call(LIB, planes, offsets[:1], widths, 3, 4, out)
        with pytest.raises(TypeError, match="planes"):
            call(LIB, planes.astype(np.int32), offsets, widths, 3, 4, out)
        planes[5] = -1
        with pytest.raises(ValueError, match="plane count"):
            call(LIB, planes, offsets, widths, 3, 4, out)

    def test_difference_histograms_rejects_layout(self):
        p = np.ones((3, 4, 4))
        for bad in (p.astype(np.float32), p[:, :, :3], p.transpose(0, 2, 1)):
            with pytest.raises(TypeError):
                native.difference_histograms(LIB, bad)
        assert np.array_equal(
            native.difference_histograms(LIB, p), np.tile([4.0, 6, 4, 2], (3, 1))
        )


class TestInformationFeatures:
    @needs_native
    def test_rejects_wrong_dtype_layout_and_shape(self):
        p = np.ones((3, 4, 4))
        tot = np.full(3, 16.0)
        call = native.information_features
        for bad in (p.astype(np.float32), p[:, :, :3], p.transpose(0, 2, 1),
                    p.reshape(3, 16)):
            with pytest.raises(TypeError):
                call(LIB, bad, tot, True)
        for bad in (tot[:2], tot.astype(np.float32)):
            with pytest.raises(TypeError):
                call(LIB, p, bad, False)

    @needs_native
    @pytest.mark.parametrize("with_mcc", [False, True])
    def test_short_scratch_is_refused_before_any_write(self, with_mcc):
        g, n = 6, 2
        p = np.ones((n, g, g))
        tot = np.full(n, 36.0)
        ent = np.full((n, 5), 7.0)
        mcc = np.full(n, 7.0)
        need = 5 * g + (2 * g * g + 2 * g if with_mcc else 0)
        scratch = np.full(need, 7.0)
        args = (p.ctypes.data, n, g, tot.ctypes.data, ent.ctypes.data,
                mcc.ctypes.data if with_mcc else None, scratch.ctypes.data)
        assert LIB.information_features(*args, need - 1) == 1
        assert (ent == 7).all() and (mcc == 7).all() and (scratch == 7).all()
        assert LIB.information_features(*args, need) == 0
        np.testing.assert_allclose(ent, [[2 * np.log(g), np.log(g), np.log(g),
                                          ent[0, 3], ent[0, 4]]] * n)
        if with_mcc:
            np.testing.assert_allclose(mcc, 0.0, atol=1e-7)  # independent


class TestErrorsDoNotCorruptMemory:
    @needs_native
    def test_c_pass_reports_bad_input(self):
        """Out-of-range code, out-of-bounds window: ValueError, guards intact.

        In a subprocess: a wild write would most likely kill it.
        """
        proc = _run_python(
            """
            import numpy as np
            from repro.core import native
            from repro.core.backends import incremental_scan
            from repro.core.roi import ROISpec

            lib = native.load()
            origins = np.zeros(2, dtype=np.int64)
            face = np.arange(3, dtype=np.int64)
            guard = np.full(3 * 2 * 2 * 4, 7, dtype=np.int64)
            out = guard[16:32].reshape(2, 2, 4)

            def refused(codes, origins, match):
                try:
                    native.plane_histograms(lib, codes, origins, 2, face, 4, out)
                except ValueError as exc:
                    assert match in str(exc), exc
                else:
                    raise SystemExit(f"no ValueError for {match}")
                assert (guard[:16] == 7).all() and (guard[32:] == 7).all()

            good = np.zeros(16, dtype=np.int64)
            for bad_code in (4, -1, 2**40):
                codes = good.copy()
                codes[2] = bad_code
                refused(codes, origins, "pair code outside")
            for bad_origin in (13, -1, 2**40):
                refused(good, np.array([0, bad_origin]), "outside the pair-code array")
            # The kernel's caller: validate=False lets a bad level through
            # to the C loop, which refuses it where np.take's clip would not.
            bad = np.full((4, 4), 9, dtype=np.int32)
            try:
                list(incremental_scan(bad, ROISpec((2, 2)), 8, validate=False))
            except ValueError:
                print("ok")
            """
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


@pytest.mark.usefixtures("numpy_passes")
class TestFallbackPath:
    """``incremental`` with the loader's result patched to unavailable."""

    def test_fallback_matches_reference(self, small):
        data, roi = small
        assert native.load() is None
        got = _collect(incremental_scan, data, roi, 8)
        want = _collect(reference_scan, data, roi, 8)
        assert len(got) == len(want)
        for (s0, m0), (s1, m1) in zip(want, got):
            assert s0 == s1
            assert np.array_equal(m0, m1)

    def test_fallback_forwards_scan_options(self, small):
        data, roi = small
        got = _collect(incremental_scan, data, roi, 8, batch=3, symmetric=False)
        want = _collect(reference_scan, data, roi, 8, batch=3, symmetric=False)
        assert len(got) == len(want) > 1  # batch honoured
        for (s0, m0), (s1, m1) in zip(want, got):
            assert s0 == s1
            assert np.array_equal(m0, m1)

    def test_fallback_still_validates(self, small):
        _data, roi = small
        bad = np.full((6, 6, 6), 9, dtype=np.int32)
        with pytest.raises(ValueError):
            list(incremental_scan(bad, roi, 8))

    def test_kernels_command_explains_it(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "native: unavailable — patched out by the test suite" in out
        assert "numpy passes" in out


# --------------------------------------------------------------------------
# Loader paths
# --------------------------------------------------------------------------


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    """A private, empty cache directory for ``native._resolve()``."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "repro"


def _fake_cc(tmp_path, body):
    path = tmp_path / "fakecc"
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(0o755)
    return str(path)


class TestStatus:
    def test_status_fields(self):
        st_ = native.status()
        assert isinstance(st_, native.NativeStatus)
        if st_.lib is not None:
            assert os.path.isfile(st_.path) and st_.reason is None
            assert st_.path.endswith(".so")
        else:
            # Why not is what `repro kernels` and the trace report.
            assert st_.path is None and st_.reason

    def test_resolved_once_per_process(self, monkeypatch):
        assert native.status() is native.status()
        monkeypatch.setattr(
            native, "_resolve", lambda: pytest.fail("resolved twice")
        )
        assert native.load() is native.status().lib


class TestLoader:
    @needs_native
    def test_builds_into_a_private_cache_and_reuses_it(self, cache):
        first = native._resolve()
        assert first.lib is not None, first.reason
        assert Path(first.path).parent == cache
        assert cache.stat().st_mode & 0o777 == 0o700
        assert os.stat(first.path).st_mode & 0o022 == 0
        assert [p.name for p in cache.iterdir()] == [Path(first.path).name]
        mtime = os.stat(first.path).st_mtime_ns
        again = native._resolve()
        assert again.path == first.path
        assert os.stat(first.path).st_mtime_ns == mtime  # not rebuilt

    def test_no_compiler_on_path(self, cache, tmp_path, monkeypatch):
        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setenv("PATH", str(tmp_path / "nowhere"))
        monkeypatch.setattr(native.sysconfig, "get_config_var", lambda name: "cc")
        assert native._resolve() == (None, None, "no C compiler found")

    def test_cc_names_a_missing_compiler(self, cache, monkeypatch):
        # $CC is the caller's choice: no silent switch to another compiler.
        monkeypatch.setenv("CC", "/nonexistent")
        assert native._resolve() == (None, None, "no C compiler found")

    def test_compiler_exits_nonzero(self, cache, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "CC", _fake_cc(tmp_path, "echo 'fakecc: boom' >&2\nexit 3\n")
        )
        st_ = native._resolve()
        assert st_.lib is None and st_.path is None
        assert st_.reason.startswith("build failed:")
        assert "exited 3" in st_.reason and "boom" in st_.reason
        assert list(cache.iterdir()) == []  # no temp file left behind

    def test_compiler_output_is_not_a_library(self, cache, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "CC",
            _fake_cc(
                tmp_path,
                'cat > /dev/null\nwhile [ "$1" != "-o" ]; do shift; done\n'
                'echo junk > "$2"\n',
            ),
        )
        st_ = native._resolve()
        assert st_.lib is None
        assert st_.reason.startswith("build failed: cannot load")

    @needs_native
    def test_library_missing_a_symbol_is_not_loaded(
        self, cache, tmp_path, monkeypatch
    ):
        # A library from an older _native.c: plane_histograms only.
        real = native._compiler()[0]
        monkeypatch.setenv(
            "CC",
            _fake_cc(
                tmp_path,
                'cat > /dev/null\nwhile [ "$1" != "-o" ]; do shift; done\n'
                "echo 'int plane_histograms(void) { return 0; }' | "
                f'{real} -shared -fPIC -x c - -o "$2"\n',
            ),
        )
        st_ = native._resolve()
        assert st_.lib is None
        assert st_.reason.startswith("build failed: cannot load")
        assert "information_features" in st_.reason

    @needs_native
    def test_unusable_cache_dir_builds_in_a_temp_dir_removed_at_exit(
        self, tmp_path
    ):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        proc = _run_python(
            """
            from repro.core import native
            st = native.status()
            assert st.lib is not None, st.reason
            print(st.path)
            """,
            XDG_CACHE_HOME=str(blocker),
        )
        assert proc.returncode == 0, proc.stderr
        built = Path(proc.stdout.strip())
        assert built.parent.name.startswith("repro-native-")
        assert built.parent.parent == Path(tempfile.gettempdir())
        assert not built.parent.exists()

    @needs_native
    def test_cache_dir_others_can_write_is_not_used(self, cache):
        cache.mkdir(parents=True)
        cache.chmod(0o777)
        st_ = native._resolve()  # its temp dir goes when pytest exits
        assert st_.lib is not None, st_.reason
        assert Path(st_.path).parent != cache
        assert list(cache.iterdir()) == []

    @needs_native
    def test_planted_file_others_can_write_is_refused(self, cache):
        built = native._resolve().path
        os.chmod(built, 0o707)
        st_ = native._resolve()
        assert st_.lib is None
        assert st_.reason.startswith("cache refused:")
        assert "writable by group or others" in st_.reason

    @needs_native
    def test_planted_file_with_a_foreign_owner_is_refused(
        self, cache, monkeypatch
    ):
        built = native._resolve().path
        real_lstat = os.lstat

        def foreign(path):
            st_ = real_lstat(path)
            if os.fspath(path) != built:
                return st_
            fields = list(st_)
            fields[4] = st_.st_uid + 1  # st_uid
            return os.stat_result(fields)

        monkeypatch.setattr(native.os, "lstat", foreign)
        st_ = native._resolve()
        assert st_.lib is None
        assert st_.reason.startswith("cache refused:")
        assert "owned by uid" in st_.reason

    @needs_native
    def test_planted_symlink_is_refused(self, cache):
        built = Path(native._resolve().path)
        elsewhere = built.with_name("elsewhere.so")
        built.rename(elsewhere)
        built.symlink_to(elsewhere)
        st_ = native._resolve()
        assert st_.lib is None
        assert "not a regular file" in st_.reason

    @needs_native
    def test_two_processes_racing_the_first_build(self, cache, tmp_path):
        # A compiler slow enough that both processes are building at once.
        slow = _fake_cc(
            tmp_path, f'echo x >> "{tmp_path}/builds"\nsleep 0.5\nexec cc "$@"\n'
        )
        code = textwrap.dedent(
            """
            import numpy as np
            from repro.core import native
            st = native.status()
            assert st.lib is not None, st.reason
            out = np.empty((1, 1, 2), dtype=np.int64)
            native.plane_histograms(
                st.lib, np.array([1, 0, 1]), np.array([0]), 1,
                np.array([0, 1, 2]), 2, out,
            )
            assert out.tolist() == [[[1, 2]]]
            print(st.path)
            """
        )
        env = _subprocess_env(CC=slow, XDG_CACHE_HOME=str(cache.parent))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=120) for p in procs]
        assert [p.returncode for p in procs] == [0, 0], outs
        paths = {out.strip() for out, _err in outs}
        assert len(paths) == 1
        assert [p.name for p in cache.iterdir()] == [Path(paths.pop()).name]
        assert (tmp_path / "builds").read_text().count("x") >= 1


# --------------------------------------------------------------------------
# kernel.fallback, re-pointed
# --------------------------------------------------------------------------


class TestResolveFallback:
    def test_resolve_loaded_has_no_fallback(self, monkeypatch):
        monkeypatch.setattr(
            native, "_status", native.NativeStatus(object(), "/x.so", None)
        )
        assert resolve_scan_kernel("incremental") == (incremental_scan, None)

    def test_resolve_reports_numpy_passes(self, monkeypatch):
        monkeypatch.setattr(
            native, "_status",
            native.NativeStatus(None, None, "no C compiler found"),
        )
        scan, fallback = resolve_scan_kernel("incremental")
        assert scan is incremental_scan
        assert fallback == {
            "requested": "incremental",
            "used": "incremental (numpy passes)",
            "reason": "no C compiler found",
        }
        # A kernel that has no compiled part runs as requested.
        assert resolve_scan_kernel("reference")[1] is None


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


def _params(kernel="incremental"):
    return TextureParams(
        roi_shape=(3, 3, 2),
        levels=8,
        features=("asm", "idm"),
        intensity_range=(0.0, 7.0),
        kernel=kernel,
    )


def _chunk(seed):
    from repro.chunks.chunking import partition

    shape = (7, 6, 5)
    chunk = partition(shape, ROISpec((3, 3, 2)), shape)[0]
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 4096, size=shape).astype(np.float64)
    return TextureChunk(chunk=chunk, data=data)


def _fallback_events(filt, tc, times=1):
    ctx = EventContext()
    for _ in range(times):
        filt.process("in", DataBuffer(payload=tc), ctx)
    assert ctx.sent  # the chunk was fully processed either way
    return [e for e in ctx.events if e[0] == "kernel.fallback"]


@pytest.mark.usefixtures("numpy_passes")
class TestFilterFallbackEvent:
    @pytest.mark.parametrize("filter_cls", [
        HaralickMatrixProducer, HaralickCoMatrixCalculator,
    ])
    def test_filters_emit_kernel_fallback(self, filter_cls):
        tc = _chunk(5)
        fallbacks = _fallback_events(filter_cls(_params()), tc, times=2)
        assert len(fallbacks) == 1  # once per copy, not per chunk
        _kind, chunk, attrs = fallbacks[0]
        assert chunk == tc.chunk.index
        assert attrs == {
            "requested": "incremental",
            "used": "incremental (numpy passes)",
            "reason": native.status().reason,
        }

    def test_no_event_for_other_kernels(self):
        filt = HaralickMatrixProducer(_params(kernel="reference"))
        assert not _fallback_events(filt, _chunk(6))


@needs_native
def test_no_fallback_event_when_native_loaded():
    assert not _fallback_events(HaralickMatrixProducer(_params()), _chunk(6))


class TestKernelsCli:
    def test_kernels_command(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        for k in ("incremental", "reference"):
            assert k in out
        assert "batched" not in out
        assert "gpu" not in out
        assert "default kernel" in out
        st_ = native.status()
        if st_.lib is not None:
            assert f"native: loaded {st_.path}" in out
        else:
            assert f"native: unavailable — {st_.reason}" in out


# --------------------------------------------------------------------------
# Packaging: the C source must travel with the package
# --------------------------------------------------------------------------


class TestPackaging:
    def test_source_is_found_through_importlib_resources(self):
        from importlib import resources

        src = resources.files("repro.core").joinpath("_native.c").read_text()
        assert "plane_histograms" in src and "information_features" in src

    def _setup_py(self, tmp_path, *args):
        pytest.importorskip("setuptools")
        proc = subprocess.run(
            [sys.executable, "setup.py", "-q",
             "egg_info", "--egg-base", str(tmp_path),
             "build", "--build-base", str(tmp_path / "build"), *args],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr

    def test_build_ships_the_c_source(self, tmp_path):
        self._setup_py(tmp_path, "build_py", "--build-lib", str(tmp_path / "lib"))
        assert (tmp_path / "lib" / "repro" / "core" / "_native.c").is_file()

    def test_wheel_ships_the_c_source(self, tmp_path):
        pytest.importorskip("wheel")
        self._setup_py(
            tmp_path, "bdist_wheel", "--dist-dir", str(tmp_path / "dist"),
            "--bdist-dir", str(tmp_path / "bdist"),
        )
        (wheel,) = (tmp_path / "dist").glob("repro-*.whl")
        with zipfile.ZipFile(wheel) as zf:
            assert "repro/core/_native.c" in zf.namelist()
