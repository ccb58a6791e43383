"""Throughput benchmarks of the real compute kernels.

Not a paper figure — these measure the building blocks (co-occurrence
scan, feature kernels, quantization) on this machine, and feed the
``measure_costs`` calibration path of the simulator.

``test_kernel_backend_comparison``, ``test_feature_kernel_rows``,
``test_moment_pass_rows`` and the peak-memory tests need only numpy and
stdlib, so they double as the CI kernel-benchmark smoke (a step of the
`bench-gate` job)::

    pytest benchmarks/bench_kernels.py \
        -k "backend_comparison or feature_kernel or peak_memory or moment_pass"

The comparison writes ``BENCH_kernels.json`` at the repo root with
rois/sec per scan backend and per rolling-axis chunk shape; the feature
rows are merged into the same file (see docs/kernels.md).  ``incremental``
is timed twice, with its compiled pass and with the numpy passes it
falls back to (the loader's result patched to "unavailable", as in the
tests); ``reference`` is the naive one-matrix-per-window column.
"""

import contextlib
import json
import os
import statistics
import time
import tracemalloc

import numpy as np
import pytest

from harness import REPO_ROOT, record_repo_json
from repro.core import native
from repro.core.backends import (
    KERNELS,
    _rolling_plan,
    get_kernel,
    incremental_scan,
)
from repro.core.cooccurrence import cooccurrence_matrix, resolve_directions
from repro.core.features import HARALICK_FEATURES, PAPER_FEATURES, haralick_features
from repro.core.raster import raster_scan_batches
from repro.core.quantization import quantize_linear
from repro.core.roi import ROISpec, valid_positions_shape
from repro.core.workspace import WORKSPACE_BYTES
from repro.data import PhantomConfig, generate_phantom

LEVELS = 32
ROI = ROISpec((5, 5, 5, 3))

#: The row of ``incremental`` on its numpy passes; plain ``incremental``
#: is whatever this machine resolves to (the compiled pass wherever a C
#: compiler exists).
NUMPY_ROW = "incremental (numpy passes)"

#: Rows the comparison times.
BENCH_ROWS = KERNELS + (NUMPY_ROW,)


@contextlib.contextmanager
def _numpy_passes():
    """The loader's result patched to "unavailable", as in the tests."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            native, "_status",
            native.NativeStatus(None, None, "patched out by the bench"),
        )
        yield


@contextlib.contextmanager
def _implementation(row):
    """Resolve a bench row to its scan; patches the loader for NUMPY_ROW."""
    if row != NUMPY_ROW:
        yield get_kernel(row)
        return
    with _numpy_passes():
        yield incremental_scan


@pytest.fixture(scope="module")
def volume():
    rng = np.random.default_rng(0)
    from scipy.ndimage import gaussian_filter

    raw = gaussian_filter(rng.normal(size=(24, 24, 12, 6)), sigma=1.5)
    return quantize_linear(raw, LEVELS)


@pytest.fixture(scope="module")
def matrices(volume):
    batches = [m for _s, m in incremental_scan(volume, ROI, LEVELS, batch=1024)]
    return np.concatenate(batches)[:1024]


def test_incremental_scan_throughput(benchmark, volume):
    def scan():
        total = 0
        for _start, mats in incremental_scan(volume, ROI, LEVELS, batch=2048):
            total += mats.shape[0]
        return total

    total = benchmark(scan)
    benchmark.extra_info["rois"] = total


def test_single_window_matrix(benchmark, volume):
    window = volume[:5, :5, :5, :3]
    benchmark(lambda: cooccurrence_matrix(window, LEVELS))


def test_paper_features_batch(benchmark, matrices):
    benchmark(lambda: haralick_features(matrices, PAPER_FEATURES))


def test_all_fourteen_features_batch(benchmark, matrices):
    benchmark(lambda: haralick_features(matrices, HARALICK_FEATURES))


def test_quantization(benchmark):
    rng = np.random.default_rng(1)
    raw = rng.integers(0, 4096, size=(256, 256, 8, 4)).astype(np.uint16)
    benchmark(lambda: quantize_linear(raw, LEVELS, lo=0, hi=4095))


# --------------------------------------------------------------------------
# Backend comparison + memory bounds: numpy/stdlib only (no scipy, no
# pytest-benchmark), so CI can run them as a smoke job.
# --------------------------------------------------------------------------


def _smoke_volume(levels=LEVELS, shape=(20, 20, 12, 7), seed=0):
    """Quantized paper-config volume without the scipy dependency."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, levels, size=shape, dtype=np.int32)


def _collect(scan, volume, levels=LEVELS, batch=2048):
    out = []
    for _start, mats in scan(volume, ROI, levels, batch=batch):
        out.append(np.array(mats))
    return np.concatenate(out)


def _time_matrix(rows, volume, levels, repeats):
    """Interleaved wall times, one entry per row: best, median, spread.

    One round times every row back to back before the next round
    starts, so slow drift on a shared machine hits all rows equally
    instead of biasing whichever ran last.
    """
    times = {k: [] for k in rows}
    rois = {k: 0 for k in rows}
    for r in range(repeats):
        for k in rows:
            if r > 0 and k == "reference":
                continue  # one round is plenty for the slow baseline
            with _implementation(k) as scan:
                t0 = time.perf_counter()
                rois[k] = sum(
                    m.shape[0]
                    for _s, m in scan(volume, ROI, levels, batch=2048)
                )
                times[k].append(time.perf_counter() - t0)
    return {
        k: {
            "rois": rois[k],
            "repeats": len(times[k]),
            "seconds": round(min(times[k]), 6),
            "seconds_median": round(statistics.median(times[k]), 6),
            "seconds_max": round(max(times[k]), 6),
            "rois_per_sec": round(rois[k] / min(times[k]), 1),
        }
        for k in rows
    }


#: Chunk shapes of the rolling-axis rows: the pipeline ledger's two
#: IIC-to-TEXTURE chunks and a wide one whose leading-axis slab is cut
#: into spans.
ROLLING_CHUNKS = ((13, 13, 8, 6), (10, 10, 8, 6), (24, 24, 8, 6))


def _rolling_axis_rows(repeats=3):
    """``incremental`` on pipeline-sized chunks: which axis rolls, how fast."""
    rows = {}
    for shape in ROLLING_CHUNKS:
        vol = _smoke_volume(shape=shape, seed=2)
        grid = valid_positions_shape(shape, ROI)
        axis, span, _row = _rolling_plan(
            grid, ROI.shape, resolve_directions(4, None, 1), LEVELS * LEVELS,
            WORKSPACE_BYTES,
        )
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            rois = sum(
                m.shape[0]
                for _s, m in incremental_scan(vol, ROI, LEVELS, validate=False)
            )
            best = min(best, time.perf_counter() - t0)
        rows["x".join(map(str, shape))] = {
            "grid": list(grid),
            "rolling_axis": axis,
            "span": span,
            "rois_per_sec": round(rois / best, 1),
        }
    return rows


#: How much faster than the Fig. 2 reference loop ``incremental`` must
#: run at the paper config, on its compiled pass and on its numpy passes.
MIN_SPEEDUP_VS_REFERENCE = 10.0


def test_kernel_backend_comparison():
    """All rows bit-identical; rolling beats the reference loop by
    ``MIN_SPEEDUP_VS_REFERENCE`` on both passes, compiled beats numpy.

    Paper configuration: 5x5x5x3 ROI, 32 levels, all 40 unique 4D
    directions, distance 1, plus a grey-level sweep over 16/32/64 and
    one ``incremental`` row per pipeline chunk shape.  Writes the full
    kernel x levels throughput matrix to ``BENCH_kernels.json`` at the
    repo root ("backends" holds the paper-config 32-level column, with
    repeats and spread per row).
    """
    volume = _smoke_volume()
    sweep = {}
    for levels in (16, 32, 64):
        vol = volume if levels == LEVELS else _smoke_volume(levels=levels)
        want = _collect(get_kernel("reference"), vol, levels)
        for k in BENCH_ROWS:
            with _implementation(k) as scan:
                assert np.array_equal(_collect(scan, vol, levels), want), (
                    f"{k} not bit-identical to reference at G={levels}"
                )
        del want
        sweep[levels] = _time_matrix(BENCH_ROWS, vol, levels, repeats=5)

    results = sweep[LEVELS]
    payload = {
        "config": {
            "volume_shape": list(volume.shape),
            "roi_shape": list(ROI.shape),
            "levels": LEVELS,
            "distance": 1,
            "directions": "all unique 4D",
            "batch": 2048,
        },
        "backends": results,
        "native": (
            "loaded" if native.load() is not None else native.status().reason
        ),
        "levels_sweep": {
            str(levels): {k: r["rois_per_sec"] for k, r in row.items()}
            for levels, row in sweep.items()
        },
        "speedup_incremental_vs_reference": round(
            results["incremental"]["rois_per_sec"]
            / results["reference"]["rois_per_sec"],
            2,
        ),
        "speedup_native_vs_numpy_passes": round(
            results["incremental"]["rois_per_sec"]
            / results[NUMPY_ROW]["rois_per_sec"],
            2,
        ),
        "rolling_axis": _rolling_axis_rows(),
    }
    path = _merge_bench_json(payload)
    print(f"\nwrote {path}")
    for levels, row in sweep.items():
        for k, r in row.items():
            print(f"  G={levels:<3} {k:>26}: {r['rois_per_sec']:>10.1f} rois/sec")

    for shape, row in payload["rolling_axis"].items():
        print(f"  {shape:>11}: axis {row['rolling_axis']} span {row['span']}"
              f" {row['rois_per_sec']:>10.1f} rois/sec")

    # CI gates on the paper config: the rolling kernel, on either pass,
    # must stay an order of magnitude ahead of the Fig. 2 loop, and where
    # the compiled pass loaded it must beat the numpy passes it replaces
    # (CI separately requires that it did load).
    for row in ("incremental", NUMPY_ROW):
        assert (
            results[row]["rois_per_sec"]
            >= MIN_SPEEDUP_VS_REFERENCE * results["reference"]["rois_per_sec"]
        ), (row, payload)
    if native.load() is not None:
        assert (
            results["incremental"]["rois_per_sec"]
            > results[NUMPY_ROW]["rois_per_sec"]
        ), payload


def _merge_bench_json(sections):
    """Replace ``sections`` of ``BENCH_kernels.json``, keeping the rest.

    The scan rows and the feature rows come from different tests; either
    can be re-run alone without dropping the other's numbers.
    """
    path = os.path.join(REPO_ROOT, "BENCH_kernels.json")
    payload = {}
    if os.path.exists(path):
        with open(path) as fh:
            payload = json.load(fh)
    payload.update(sections)
    return record_repo_json("BENCH_kernels.json", payload)


def _feature_matrices(kind):
    """One ledger chunk's GLCMs: ~5% non-zero (phantom) or ~100% (noise)."""
    shape = ROLLING_CHUNKS[0]
    if kind == "phantom_like":
        raw = generate_phantom(PhantomConfig(shape=shape, seed=3)).data
        vol = quantize_linear(raw, LEVELS, lo=0, hi=4095)
    else:
        vol = _smoke_volume(shape=shape, seed=3)
    return _collect(incremental_scan, vol, batch=162)


def _feature_rois_per_sec(mats, feats):
    """Best of 3 passes over ``mats`` in packets of 162 (the ledger's)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for lo in range(0, mats.shape[0], 162):
            vals = haralick_features(mats[lo : lo + 162], feats)
        best = min(best, time.perf_counter() - t0)
    assert all(np.all(np.isfinite(v)) for v in vals.values())
    return round(mats.shape[0] / best, 1)


def test_feature_kernel_rows():
    """Feature-kernel throughput at the filters' packet size.

    The 4 paper features and all 14, on a phantom-like chunk (~5% of
    cells non-zero, what an MRI study looks like) and on uniform noise
    (every cell non-zero, the worst case for the zero-skip entropies),
    each as this machine resolves the compiled pass and again on the
    numpy path (``... (numpy passes)``), as the scan rows do.  Of the
    paper's four only ``idm``'s difference histograms reach the library.
    Merged into ``BENCH_kernels.json`` under ``"features"``.
    """
    rows = {}
    for kind in ("phantom_like", "uniform_noise"):
        mats = _feature_matrices(kind)
        row = {
            "matrices": int(mats.shape[0]),
            "nonzero_frac": round(float(np.count_nonzero(mats)) / mats.size, 4),
        }
        for label, feats in (("paper4", PAPER_FEATURES),
                             ("all14", HARALICK_FEATURES)):
            key = f"{label}_rois_per_sec"
            row[key] = _feature_rois_per_sec(mats, feats)
            with _numpy_passes():
                row[f"{key} (numpy passes)"] = _feature_rois_per_sec(mats, feats)
        rows[kind] = row
        print(f"\n  {kind}: {row}")
    _merge_bench_json({"features": rows})


#: Interleaved rounds of the moment-pass rows.
MOMENT_PASS_REPEATS = 9


def _us_per_roi(fn, rois):
    t0 = time.perf_counter()
    fn()
    return 1e6 * (time.perf_counter() - t0) / rois


def _spread(samples):
    q1, med, q3 = np.percentile(samples, [25, 50, 75])
    return {
        "repeats": len(samples),
        "best": round(min(samples), 3),
        "q1": round(float(q1), 3),
        "median": round(float(med), 3),
        "q3": round(float(q3), 3),
        "max": round(max(samples), 3),
    }


@pytest.mark.skipif(
    native.load() is None,
    reason=f"compiled pass unavailable: {native.status().reason}",
)
def test_moment_pass_rows():
    """The moment pass against scan-then-features, in us/ROI.

    One ledger chunk (13x13x8x6 phantom, ROI 5x5x5x3, the paper's four
    features, packets of 162 = 1/8 chunk) at G in {16, 32, 64}:
    ``raster_scan_batches``, which takes the moment pass for these
    features, against ``incremental_scan`` with ``haralick_features``
    per packet, the pass's twin.  The two alternate within each of
    ``MOMENT_PASS_REPEATS`` rounds; rows keep best, quartiles and max,
    and the per-round ratio pass / twin.  The outputs are checked
    byte-equal first.  Gate: at G = 32 the pass is faster in the median
    round.  Merged into ``BENCH_kernels.json`` under ``"moment_pass"``.
    """
    raw = generate_phantom(PhantomConfig(shape=ROLLING_CHUNKS[0], seed=3)).data
    rows = {}
    for levels in (16, 32, 64):
        vol = quantize_linear(raw, levels, lo=0, hi=4095)
        rois = int(np.prod(valid_positions_shape(vol.shape, ROI)))

        def moment_pass():
            return list(raster_scan_batches(
                vol, ROI, levels, PAPER_FEATURES, batch=162, validate=False,
            ))

        def twin():
            return [
                (start, haralick_features(mats, PAPER_FEATURES))
                for start, mats in incremental_scan(
                    vol, ROI, levels, batch=162, validate=False,
                )
            ]

        for (s0, a), (s1, b) in zip(moment_pass(), twin()):
            assert s0 == s1
            assert all(a[n].tobytes() == b[n].tobytes() for n in a)
        times = {"moment_pass": [], "scan_then_features": []}
        for _ in range(MOMENT_PASS_REPEATS):
            times["moment_pass"].append(_us_per_roi(moment_pass, rois))
            times["scan_then_features"].append(_us_per_roi(twin, rois))
        ratios = [
            a / b for a, b in zip(times["moment_pass"], times["scan_then_features"])
        ]
        rows[str(levels)] = {
            "rois": rois,
            **{k: _spread(v) for k, v in times.items()},
            "ratio_median": round(statistics.median(ratios), 3),
            "pass_faster_rounds": sum(r < 1 for r in ratios),
        }
        print(f"\n  G={levels}: {rows[str(levels)]}")
    _merge_bench_json({"moment_pass": {
        "unit": "us/ROI",
        "chunk": list(ROLLING_CHUNKS[0]),
        "features": list(PAPER_FEATURES),
        "packet": 162,
        "levels": rows,
    }})
    assert rows["32"]["ratio_median"] < 1.0, rows["32"]


def _scan_peak_bytes(scan, volume, batch):
    """Peak python-allocator bytes during one full scan (max-RSS proxy)."""
    # Warm the cached workspaces so they don't count against the scan.
    for _ in scan(volume, ROI, LEVELS, batch=batch):
        break
    tracemalloc.start()
    try:
        for _start, mats in scan(volume, ROI, LEVELS, batch=batch):
            pass
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("row", ["incremental", NUMPY_ROW])
def test_scan_peak_memory(row):
    """Kernel temporaries stay within the workspace budget.

    The unavoidable output allocation is excluded: one ``batch`` of
    G x G int64 matrices.  Everything else — pair codes, plane
    histograms, gather tables and blocks, bincount inputs and outputs,
    symmetrization scratch — must fit in a small multiple of
    ``WORKSPACE_BYTES``, on the compiled pass and on the numpy passes.
    The 16x16x10x6 volume rolls along ``y`` (12 positions), not the
    innermost axis.
    """
    volume = _smoke_volume(shape=(16, 16, 10, 6), seed=1)
    batch = 4096
    mats_bytes = batch * LEVELS * LEVELS * 8
    with _implementation(row) as scan:
        peak = _scan_peak_bytes(scan, volume, batch)
    budget = mats_bytes + 3 * WORKSPACE_BYTES
    assert peak < budget, (
        f"{row} scan peak {peak / 2**20:.1f} MiB exceeds "
        f"{budget / 2**20:.1f} MiB (output {mats_bytes / 2**20:.1f} MiB "
        f"+ 3x workspace)"
    )
