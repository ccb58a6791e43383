"""Unit tests for the fourteen Haralick features."""

import numpy as np
import pytest

from repro.core.features import (
    HARALICK_FEATURES,
    PAPER_FEATURES,
    feature_index,
    haralick_feature_vector,
    haralick_features,
)

from ._dense_oracle import naive_features


def random_symmetric_counts(rng, g, scale=10):
    m = rng.integers(0, scale, size=(g, g))
    return m + m.T


class TestAgainstNaive:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("g", [4, 8, 16])
    def test_all_but_mcc_match_naive(self, seed, g):
        rng = np.random.default_rng(seed)
        counts = random_symmetric_counts(rng, g)
        want = naive_features(counts)
        got = haralick_features(counts)
        for name in HARALICK_FEATURES:
            if name == "mcc":
                continue
            assert got[name] == pytest.approx(want[name], abs=1e-10), name


class TestKnownValues:
    def test_uniform_matrix(self):
        g = 8
        p = np.ones((g, g))
        f = haralick_features(p, ["asm", "entropy", "correlation"])
        assert f["asm"] == pytest.approx(1.0 / g**2)
        assert f["entropy"] == pytest.approx(2 * np.log(g))
        # Independent marginals -> zero correlation.
        assert f["correlation"] == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_matrix(self):
        g = 8
        m = np.eye(g)
        f = haralick_features(m, ["contrast", "idm", "correlation"])
        assert f["contrast"] == pytest.approx(0.0)
        assert f["idm"] == pytest.approx(1.0)
        assert f["correlation"] == pytest.approx(1.0)

    def test_single_cell_degenerate(self):
        m = np.zeros((4, 4))
        m[2, 2] = 5
        f = haralick_features(m)
        assert f["asm"] == pytest.approx(1.0)
        assert f["entropy"] == pytest.approx(0.0)
        assert f["correlation"] == pytest.approx(0.0)  # zero variance
        assert f["mcc"] == pytest.approx(0.0)

    def test_empty_matrix_gives_zeros(self):
        f = haralick_features(np.zeros((8, 8)))
        for name in HARALICK_FEATURES:
            assert f[name] == 0.0

    def test_mcc_perfect_association(self):
        # A permutation-structured p gives MCC = 1.
        g = 4
        m = np.zeros((g, g))
        for i in range(g):
            m[i, (i + 1) % g] = 1.0
        m = m + m.T
        f = haralick_features(m, ["mcc"])
        assert f["mcc"] == pytest.approx(1.0, abs=1e-8)

    def test_mcc_independent(self):
        f = haralick_features(np.ones((6, 6)), ["mcc"])
        assert f["mcc"] == pytest.approx(0.0, abs=1e-8)


class TestBatching:
    def test_batch_matches_individual(self):
        rng = np.random.default_rng(11)
        mats = np.stack([random_symmetric_counts(rng, 8) for _ in range(5)])
        batched = haralick_features(mats)
        for k in range(5):
            single = haralick_features(mats[k])
            for name in HARALICK_FEATURES:
                assert batched[name][k] == pytest.approx(single[name]), name

    def test_leading_shape_preserved(self):
        mats = np.ones((2, 3, 8, 8))
        f = haralick_features(mats, ["asm"])
        assert f["asm"].shape == (2, 3)

    def test_feature_vector_order(self):
        rng = np.random.default_rng(5)
        m = random_symmetric_counts(rng, 8)
        vec = haralick_feature_vector(m, ["contrast", "asm"])
        d = haralick_features(m, ["contrast", "asm"])
        assert vec[0] == d["contrast"] and vec[1] == d["asm"]

    def test_full_vector_shape(self):
        rng = np.random.default_rng(6)
        mats = np.stack([random_symmetric_counts(rng, 4) for _ in range(3)])
        assert haralick_feature_vector(mats).shape == (3, 14)


class TestValidation:
    def test_unknown_feature(self):
        with pytest.raises(KeyError):
            haralick_features(np.ones((4, 4)), ["bogus"])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            haralick_features(np.ones((4, 5)))

    def test_feature_index(self):
        assert feature_index("asm") == 0
        assert feature_index("mcc") == 13
        assert len(HARALICK_FEATURES) == 14
        assert set(PAPER_FEATURES) <= set(HARALICK_FEATURES)

    def test_scaling_invariance(self):
        # Counts vs normalized probabilities give identical features.
        rng = np.random.default_rng(9)
        m = random_symmetric_counts(rng, 8)
        a = haralick_features(m)
        b = haralick_features(m / m.sum())
        for name in HARALICK_FEATURES:
            assert a[name] == pytest.approx(b[name]), name
