"""The feature kernel against the dense oracle, on both of its paths.

``haralick_features`` gets its linear and quadratic statistics from one
GEMM and its information features (the five entropies, IMC and ``mcc``)
from one compiled pass per slab, or from numpy when the library is not
available: entropies over non-zero cells, ``mcc`` from stacked
``eigvalsh`` calls.  ``tests/core/_dense_oracle.py`` keeps the formulas
both replaced.  Each path must agree with the oracle, and the two paths
with each other, to the pipeline ledger's tolerance (``rtol=1e-9,
atol=1e-12``) on anything a scan can produce; a matrix's features must
not depend on the packet it travels in, and the float temporaries must
not grow with the packet.  Tests marked ``on_both_implementations`` run
once as this machine resolves the library and once on the numpy path.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import features as features_mod
from repro.core import native
from repro.core.features import (
    HARALICK_FEATURES,
    PAPER_FEATURES,
    haralick_features,
)

from ..conftest import on_both_implementations, patched_to_numpy_passes
from ._dense_oracle import _mcc, dense_haralick_features

RTOL, ATOL = 1e-9, 1e-12


@st.composite
def count_matrices(draw):
    """Count matrices of shape ``lead + (G, G)``.

    0.5% to 100% dense, symmetric or not, with an all-zero matrix and a
    single-cell matrix slipped into batches that have room for them.
    """
    levels = draw(st.sampled_from([2, 8, 32, 64]))
    lead = draw(st.sampled_from([(), (5,), (2, 3)]))
    density = draw(st.sampled_from([0.005, 0.02, 0.1, 0.5, 1.0]))
    symmetric = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = int(np.prod(lead, dtype=int))
    mats = rng.integers(1, 60, size=(n, levels, levels))
    mats *= rng.random(mats.shape) < max(density, 1.5 / levels**2)
    if symmetric:
        mats = mats + mats.transpose(0, 2, 1)
    if n >= 5:
        mats[1] = 0
        mats[3] = 0
        mats[3, levels - 1, levels // 2] = 7
    return mats.reshape(lead + (levels, levels))


def _probabilities(counts):
    """Each matrix divided by its total (an empty one left at zero)."""
    flat = counts.reshape(-1, *counts.shape[-2:]).astype(float)
    tot = flat.sum(axis=(1, 2))
    return (flat / np.where(tot > 0, tot, 1.0)[:, None, None]).reshape(
        counts.shape
    )


def _well_conditioned(name, counts):
    """Where the oracle itself resolves ``name`` to the tolerance.

    ``correlation`` divides by ``sqrt(var_x var_y)`` and the oracle takes
    each variance as ``E[i^2] - E[i]^2``; ``imc2`` and ``mcc`` end in a
    square root of a difference that is zero for independent marginals.
    Next to those zeros the oracle's own rounding is amplified past the
    tolerance, so such matrices are compared through the square instead
    (``imc2``, ``mcc``) or only required to stay in range.
    """
    flat = counts.reshape(-1, counts.shape[-1], counts.shape[-1]).astype(float)
    tot = np.where(flat.sum(axis=(1, 2)) > 0, flat.sum(axis=(1, 2)), 1.0)
    p = flat / tot[:, None, None]
    lev = np.arange(counts.shape[-1])
    ok = np.ones(flat.shape[0], dtype=bool)
    if name == "correlation":
        for marginal in (p.sum(axis=2), p.sum(axis=1)):
            mean = marginal @ lev
            var = (marginal * (lev[None, :] - mean[:, None]) ** 2).sum(axis=1)
            ok &= (var == 0) | (var > 1e-2)
    return ok.reshape(counts.shape[:-2])


def _assert_matches_oracle(counts, features):
    got = haralick_features(counts, features)
    want = dense_haralick_features(counts, features)
    assert tuple(got) == tuple(features)
    for name in features:
        g, w = got[name], want[name]
        assert g.shape == counts.shape[:-2]
        assert np.all(np.isfinite(g)), name
        if name in ("imc2", "mcc"):
            # sqrt next to zero: compare what is under the root.
            np.testing.assert_allclose(
                g**2, w**2, rtol=RTOL, atol=ATOL, err_msg=name
            )
            firm = w**2 > 1e-6
        else:
            firm = _well_conditioned(name, counts)
        np.testing.assert_allclose(
            g[firm], w[firm], rtol=RTOL, atol=ATOL, err_msg=name
        )


class TestAgainstDenseOracle:
    @given(counts=count_matrices())
    @settings(max_examples=60, deadline=None)
    @on_both_implementations
    def test_all_fourteen_together(self, counts):
        _assert_matches_oracle(counts, HARALICK_FEATURES)

    @pytest.mark.parametrize("name", HARALICK_FEATURES)
    @given(counts=count_matrices())
    @settings(max_examples=15, deadline=None)
    @on_both_implementations
    def test_each_feature_alone(self, name, counts):
        _assert_matches_oracle(counts, (name,))

    @given(counts=count_matrices())
    @settings(max_examples=25, deadline=None)
    @on_both_implementations
    def test_probability_input(self, counts):
        _assert_matches_oracle(_probabilities(counts), HARALICK_FEATURES)

    def test_constant_row_has_no_correlation(self):
        # Every pair starts at level 3: var_x is exactly zero, so the
        # statistic is degenerate and must read 0.0, not rounding noise
        # divided by rounding noise.
        counts = np.zeros((8, 8), dtype=np.int64)
        counts[3, [0, 2, 5, 7]] = [1, 2, 3, 1]
        assert haralick_features(counts, ["correlation"])["correlation"] == 0.0


needs_native = pytest.mark.skipif(
    native.load() is None,
    reason=f"compiled pass unavailable: {native.status().reason}",
)


class TestCompiledAgainstNumpy:
    @needs_native
    @given(counts=count_matrices(), probability=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_paths_agree(self, counts, probability):
        # G in {2, 8, 32, 64}, non-symmetric, empty and single-cell
        # (k < 2 kept levels) matrices come from count_matrices.
        if probability:
            counts = _probabilities(counts)
        got = haralick_features(counts)
        with patched_to_numpy_passes():
            want = haralick_features(counts)
        for name in HARALICK_FEATURES:
            g, w = got[name], want[name]
            if name in ("imc2", "mcc"):
                g, w = g**2, w**2  # sqrt next to zero: compare the square
            np.testing.assert_allclose(g, w, rtol=RTOL, atol=ATOL, err_msg=name)

    @needs_native
    def test_all_fourteen_use_the_compiled_pass(self, monkeypatch):
        calls = []
        real = native.information_features
        monkeypatch.setattr(
            native, "information_features",
            lambda *args: calls.append(args[3]) or real(*args),
        )
        mats = np.random.default_rng(3).integers(0, 9, size=(20, 8, 8))
        haralick_features(mats)
        haralick_features(mats, ["entropy"])
        assert calls == [True, False]  # mcc only when asked for

    def test_paper_features_never_reach_the_seam(self, monkeypatch):
        # The entropies and mcc never run for the paper's four; only
        # idm's difference histograms come from the library, when it is
        # loaded.
        def forbidden(*args):
            raise AssertionError("the paper's four entered the seam")

        calls = []
        real = native.difference_histograms
        monkeypatch.setattr(native, "information_features", forbidden)
        monkeypatch.setattr(
            native, "difference_histograms",
            lambda *args: calls.append(args[1].shape) or real(*args),
        )
        mats = np.random.default_rng(4).integers(0, 9, size=(20, 8, 8))
        out = haralick_features(mats, PAPER_FEATURES)
        assert tuple(out) == PAPER_FEATURES
        assert calls == ([(20, 8, 8)] if native.load() is not None else [])
        haralick_features(mats, ("asm", "correlation", "sum_of_squares"))
        assert len(calls) <= 1  # no idm, no difference histograms


class TestMccBatch:
    @pytest.mark.parametrize("symmetric", [True, False])
    @on_both_implementations
    def test_equals_per_matrix_form(self, symmetric):
        rng = np.random.default_rng(12)
        mats = rng.integers(1, 40, size=(40, 16, 16))
        # Varying numbers of occupied levels, down to one and none.
        for k in range(40):
            dead = rng.permutation(16)[: k % 17]
            mats[k, dead, :] = 0
            mats[k, :, dead] = 0
        if symmetric:
            mats = mats + mats.transpose(0, 2, 1)
        got = haralick_features(mats, ["mcc"])["mcc"]
        occupied = []
        for k, m in enumerate(mats):
            tot = m.sum()
            p = m / tot if tot else m.astype(float)
            px, py = p.sum(axis=1), p.sum(axis=0)
            occupied.append(int(((px > 0) & (py > 0)).sum()))
            assert got[k] == pytest.approx(_mcc(p, px, py), rel=1e-9, abs=1e-12)
        assert {0, 1, 2} <= set(occupied)  # the < 2 levels rule was hit
        assert all(got[k] == 0.0 for k, n in enumerate(occupied) if n < 2)


def test_cached_tables_are_read_only():
    # Every call and every thread shares them: a write would change the
    # features of every later packet.
    haralick_features(np.ones((2, 8, 8)))
    for table in (
        features_mod._moment_table(8, ("1", "x", "xx")),
        *features_mod._sum_weights(8),
    ):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0


class TestPacketIndependence:
    @on_both_implementations
    def test_features_do_not_depend_on_the_batch(self):
        # The runtimes packetize one scan differently (1/8 chunk, 2048,
        # one ROI) and must stitch identical volumes: bitwise, not close.
        rng = np.random.default_rng(21)
        mats = rng.integers(0, 30, size=(300, 16, 16))
        mats *= rng.random(mats.shape) < 0.2
        mats = mats + mats.transpose(0, 2, 1)
        whole = haralick_features(mats)
        for lo, hi in [(0, 1), (1, 2), (0, 7), (7, 100), (100, 300)]:
            part = haralick_features(mats[lo:hi])
            for name in HARALICK_FEATURES:
                assert np.array_equal(part[name], whole[name][lo:hi]), name

    @on_both_implementations
    def test_sub_blocking_is_invisible(self, monkeypatch):
        rng = np.random.default_rng(22)
        mats = rng.integers(0, 9, size=(50, 8, 8))
        whole = haralick_features(mats)
        monkeypatch.setattr(features_mod, "FEATURE_BLOCK_BYTES", 8 * 8 * 8 * 14)
        blocked = haralick_features(mats)
        for name in HARALICK_FEATURES:
            assert np.array_equal(blocked[name], whole[name]), name


def _feature_peak(mats, features):
    haralick_features(mats[:8], features)  # warm the cached tables
    tracemalloc.start()
    try:
        haralick_features(mats, features)
        _cur, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize(
    "features", [HARALICK_FEATURES[:-1], HARALICK_FEATURES], ids=["13", "all14"]
)
@on_both_implementations
def test_feature_temporaries_do_not_grow_with_the_batch(features):
    """The analogue of the scan's ``WORKSPACE_BYTES`` tests.

    One packet is 8 KB per matrix of input; the float slab, moment
    products, histograms and eigen workspaces stay within twice
    ``FEATURE_BLOCK_BYTES`` however many matrices arrive at once.
    """
    rng = np.random.default_rng(5)
    mats = rng.integers(0, 20, size=(4096, 32, 32))
    mats *= rng.random(mats.shape) < 0.05
    outputs = 4096 * 8 * len(features)
    small = _feature_peak(mats[:1024], features)
    large = _feature_peak(mats, features)
    bound = 2 * features_mod.FEATURE_BLOCK_BYTES + outputs
    assert large <= bound, f"{large / 2**20:.1f} MiB > {bound / 2**20:.1f} MiB"
    assert large <= small + outputs + features_mod.FEATURE_BLOCK_BYTES // 4
