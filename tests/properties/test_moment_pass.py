"""The moment pass: per-window integer sums instead of matrices.

For the eight moment features ``raster_scan_batches`` scans with
``moment_scan``, whose compiled pass slides each window's G x G
histogram along the row and hands over only ``{N, sum c^2, D[0:G],
Hs[0:2G-1]}`` per window; ``moment_features`` turns those into the
features through the float stage ``haralick_features`` uses.  The
contract is exactness:

* the sums equal the ones taken from ``incremental_scan``'s matrices,
  for any dimensionality, G, direction set, distance, batch and plan;
* the features are byte-equal to scan-then-``haralick_features`` for
  every subset of the eight and every batch length;
* with the library loaded, HMP on moment features never forms a
  matrix: neither ``_rolling_block`` nor ``haralick_features`` runs.

Tests that compare the compiled pass with numpy skip without a C
compiler; the rest run there too, on the numpy difference histograms.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import backends, features as features_mod, native, raster
from repro.core.backends import incremental_scan, moment_scan
from repro.core.cooccurrence import resolve_directions
from repro.core.directions import unique_directions
from repro.core.features import (
    MOMENT_FEATURES,
    PAPER_FEATURES,
    haralick_features,
    moment_features,
)
from repro.core.raster import raster_scan_batches
from repro.core.roi import ROISpec, valid_positions_shape
from repro.data.synthetic import PhantomConfig, generate_phantom
from repro.core.quantization import quantize_linear
from repro.datacutter.buffers import DataBuffer
from repro.datacutter.filter import FilterContext
from repro.filters.hmp import HaralickMatrixProducer
from repro.filters.messages import TextureChunk, TextureParams
from repro.chunks.chunking import partition

from ..conftest import on_both_implementations

needs_native = pytest.mark.skipif(
    native.load() is None,
    reason=f"compiled pass unavailable: {native.status().reason}",
)

EIGHT = tuple(sorted(MOMENT_FEATURES))


def sums_of(mats):
    """``{N, sum c^2, D[0:G], Hs[0:2G-1]}`` of ``(B, G, G)`` counts."""
    mats = np.asarray(mats, dtype=np.int64)
    g = mats.shape[-1]
    i, j = np.indices((g, g))
    d = [mats[:, np.abs(i - j) == k].sum(axis=1) for k in range(g)]
    hs = [mats[:, i + j == s].sum(axis=1) for s in range(2 * g - 1)]
    return np.column_stack(
        [mats.sum(axis=(1, 2)), (mats * mats).sum(axis=(1, 2)), *d, *hs]
    )


def _batches(scan, *args, **kwargs):
    return [(start, np.array(part)) for start, part in scan(*args, **kwargs)]


def _volume(levels, shape=(7, 6, 6, 4), seed=5):
    vol = generate_phantom(PhantomConfig(shape=shape, seed=seed))
    return quantize_linear(vol.data, levels, lo=0.0, hi=4095.0)


@st.composite
def scan_cases(draw):
    ndim = draw(st.integers(1, 4))
    roi = tuple(draw(st.integers(1, 4)) for _ in range(ndim))
    shape = tuple(r + draw(st.integers(0, 4)) for r in roi)
    levels = draw(st.sampled_from([2, 8, 32, 64]))
    distance = draw(st.integers(1, 2))
    dirs = unique_directions(ndim)
    n = draw(st.integers(1, len(dirs)))
    subset = draw(st.permutations(range(len(dirs))))[:n]
    directions = tuple(dirs[i] for i in sorted(subset))
    batch = draw(st.sampled_from([1, 7, 2048]))
    seed = draw(st.integers(0, 2**31 - 1))
    data = np.random.default_rng(seed).integers(0, levels, size=shape)
    return data, ROISpec(roi), levels, directions, distance, batch


@needs_native
class TestSumsEqualTheMatrices:
    @given(case=scan_cases())
    @settings(max_examples=60, deadline=None)
    def test_any_scan(self, case):
        data, roi, levels, directions, distance, batch = case
        args = (data, roi, levels, directions, distance)
        got = _batches(moment_scan, *args, batch=batch)
        want = _batches(incremental_scan, *args, batch=batch)
        assert [s for s, _ in got] == [s for s, _ in want]
        for (_s, sums), (_t, mats) in zip(got, want):
            assert sums.dtype == np.int64
            assert sums.shape == (mats.shape[0], 3 * levels + 1)
            assert np.array_equal(sums, sums_of(mats))

    @pytest.mark.parametrize("levels", [2, 8, 32, 64])
    def test_ledger_chunk(self, levels):
        q = _volume(levels, shape=(9, 9, 8, 6))
        roi = ROISpec((5, 5, 5, 3))
        sums = np.concatenate(
            [s for _, s in moment_scan(q, roi, levels, batch=81)]
        )
        mats = np.concatenate([m for _, m in incremental_scan(q, roi, levels)])
        assert np.array_equal(sums, sums_of(mats))

    @pytest.mark.parametrize("budget", [1, 300_000])
    def test_spans_that_cut_the_rows(self, monkeypatch, budget):
        q = _volume(16, shape=(5, 14, 5, 3))
        roi = ROISpec((2, 3, 2, 2))
        grid = valid_positions_shape(q.shape, roi)
        dirs = resolve_directions(4, None, 1)
        axis, span, _ = backends._rolling_plan(
            grid, roi.shape, dirs, 16 * 16, budget
        )
        assert span < grid[axis]
        monkeypatch.setattr(backends, "WORKSPACE_BYTES", budget)
        got = _batches(moment_scan, q, roi, 16, batch=7)
        want = _batches(incremental_scan, q, roi, 16, batch=7)
        assert [s for s, _ in got] == [s for s, _ in want]
        for (_s, sums), (_t, mats) in zip(got, want):
            assert np.array_equal(sums, sums_of(mats))

    def test_difference_histograms_match_numpy(self):
        rng = np.random.default_rng(8)
        counts = rng.integers(0, 9, size=(30, 16, 16)).astype(np.float64)
        got = native.difference_histograms(native.load(), counts)
        want = features_mod._sum_diff_histograms(counts)[1]
        assert np.array_equal(got, want)
        probs = counts / counts.sum(axis=(1, 2), keepdims=True)
        np.testing.assert_allclose(
            native.difference_histograms(native.load(), probs),
            features_mod._sum_diff_histograms(probs)[1],
            rtol=1e-12, atol=1e-15,
        )


class TestFeaturesAreTheTwinsBytes:
    @pytest.mark.parametrize("batch", [1, 7, 2048])
    @on_both_implementations
    def test_every_subset_every_batch(self, batch):
        # The sums come from the compiled pass when it is loaded and
        # from the matrices otherwise; haralick_features takes its
        # difference histograms from the library or from numpy.
        levels = 16
        q = _volume(levels, shape=(5, 5, 4, 4) if batch < 2048 else (7, 6, 6, 4))
        roi = ROISpec((3, 3, 3, 2))
        mats = _batches(incremental_scan, q, roi, levels, batch=batch)
        if native.load() is None:
            sums = [sums_of(m) for _, m in mats]
        else:
            sums = [s for _, s in moment_scan(q, roi, levels, batch=batch)]
        for r in range(1, len(EIGHT) + 1):
            for subset in itertools.combinations(EIGHT, r):
                for (_s, m), s in zip(mats, sums):
                    want = haralick_features(m, subset)
                    got = moment_features(s, subset)
                    assert tuple(got) == subset
                    for name in subset:
                        assert got[name].tobytes() == want[name].tobytes(), (
                            subset, name,
                        )

    @pytest.mark.parametrize("levels", [2, 32, 64])
    @pytest.mark.parametrize("wanted", [PAPER_FEATURES, EIGHT])
    @on_both_implementations
    def test_raster_batches_equal_scan_then_features(self, levels, wanted):
        q = _volume(levels)
        roi = ROISpec((3, 3, 3, 2))
        got = list(raster_scan_batches(q, roi, levels, wanted, batch=37))
        want = [
            (start, haralick_features(m, wanted))
            for start, m in incremental_scan(q, roi, levels, batch=37)
        ]
        assert [s for s, _ in got] == [s for s, _ in want]
        for (_s, g), (_t, w) in zip(got, want):
            for name in wanted:
                assert g[name].tobytes() == w[name].tobytes(), name

    def test_empty_windows_read_zero(self):
        # One grey level and no direction that fits: N = 0 everywhere.
        sums = np.zeros((3, 3 * 8 + 1), dtype=np.int64)
        got = moment_features(sums, EIGHT)
        want = haralick_features(np.zeros((3, 8, 8), dtype=np.int64), EIGHT)
        for name in EIGHT:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_needs_a_moment_feature_and_sums(self):
        sums = np.zeros((2, 25), dtype=np.int64)
        with pytest.raises(ValueError, match="needs the matrix"):
            moment_features(sums, ["asm", "entropy"])
        with pytest.raises(KeyError):
            moment_features(sums, ["nope"])
        for width in (1, 23, 24):
            with pytest.raises(ValueError, match="3G"):
                moment_features(np.zeros((2, width), dtype=np.int64), ["asm"])
        # Nested lists are sums too.
        got = moment_features(sums.tolist(), ["asm", "idm"])
        assert got["asm"].tolist() == got["idm"].tolist() == [0.0, 0.0]


def test_moment_scan_needs_the_library():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "_status", native.NativeStatus(None, None, "off"))
        with pytest.raises(RuntimeError, match="off"):
            moment_scan(np.zeros((4, 4), dtype=np.int64), ROISpec((2, 2)), 4)


class _Ctx(FilterContext):
    def __init__(self):
        super().__init__("HMP", 0, 1)
        self.sent = []

    def send(self, stream, payload, size_bytes=0, metadata=None,
             dest_copy=None):
        self.sent.append(payload)

    def deposit(self, key, value):
        pass


@needs_native
@pytest.mark.parametrize("wanted", [PAPER_FEATURES, EIGHT])
def test_hmp_forms_no_matrix(monkeypatch, wanted):
    def forbidden(*args, **kwargs):
        raise AssertionError("a matrix was formed")

    monkeypatch.setattr(backends, "_rolling_block", forbidden)
    monkeypatch.setattr(raster, "haralick_features", forbidden)
    monkeypatch.setattr(features_mod, "haralick_features", forbidden)
    params = TextureParams(
        roi_shape=(3, 3, 3, 2), levels=16, features=wanted,
        intensity_range=(0.0, 4095.0),
    )
    shape = (9, 8, 6, 4)
    vol = generate_phantom(PhantomConfig(shape=shape, seed=6))
    chunk = partition(shape, params.roi, shape)[0]
    ctx = _Ctx()
    HaralickMatrixProducer(params).process(
        "in", DataBuffer(payload=TextureChunk(chunk=chunk, data=vol.data)), ctx
    )
    assert sum(p.count for p in ctx.sent) == chunk.num_rois
    assert all(tuple(p.values) == wanted for p in ctx.sent)
