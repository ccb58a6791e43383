"""Unit tests for the simulation cost model and cluster presets."""

import pytest

from repro.sim.clusters import MBIT, OPTERON, PIII, XEON, ClusterSpec, SimCluster
from repro.sim.costmodel import PAPER_COSTS, CostModel, measure_costs


class TestCostModel:
    def test_hcc_hpc_ratio_in_paper_range(self):
        """Section 5.2: HCC is 4-5x more expensive than HPC."""
        ratio = PAPER_COSTS.hcc_per_roi(False) / PAPER_COSTS.hpc_per_roi(False)
        assert 4.0 <= ratio <= 5.0

    def test_sparse_hurts_hmp_but_helps_hpc(self):
        """Fig. 7a vs. sparse parameter computation."""
        assert PAPER_COSTS.hmp_per_roi(True) > PAPER_COSTS.hmp_per_roi(False)
        assert PAPER_COSTS.hpc_per_roi(True) < PAPER_COSTS.hpc_per_roi(False)

    def test_sparse_wire_collapse(self):
        dense = PAPER_COSTS.matrix_wire_bytes(100, 32, sparse=False)
        sparse = PAPER_COSTS.matrix_wire_bytes(100, 32, sparse=True)
        assert sparse < 0.05 * dense  # ~98% reduction (Section 4.4.1)

    def test_read_time_includes_seeks(self):
        t0 = PAPER_COSTS.read_slice_time(1_000_000)
        t1 = PAPER_COSTS.read_slice_time(1_000_000, seeks=10)
        assert t1 == pytest.approx(t0 + 10 * PAPER_COSTS.disk_seek)

    def test_stitch_time_per_plane(self):
        assert PAPER_COSTS.stitch_time(0, planes=3) == pytest.approx(
            3 * PAPER_COSTS.stitch_per_plane
        )

    def test_feature_wire(self):
        assert PAPER_COSTS.feature_wire_bytes(10, 4) == 10 * 4 * PAPER_COSTS.feature_bytes


class TestMeasureCosts:
    def test_measured_model_is_consistent(self):
        model = measure_costs(levels=16, roi_shape=(4, 4, 4, 2), n_rois=64)
        # Anchored to the paper scale: co-occurrence cost matches anchor.
        assert model.cooc_per_roi == pytest.approx(PAPER_COSTS.cooc_per_roi)
        assert model.feat_full_per_roi > 0
        assert model.feat_sparse_per_roi > 0
        assert model.avg_nnz > 0

    def test_times_the_default_scan_kernel(self, monkeypatch):
        """The calibration times the scan the pipelines run, not another."""
        from repro.core import backends

        scanned = []
        real = backends.get_kernel(backends.DEFAULT_KERNEL)

        def spy(data, roi, levels, *args, **kwargs):
            for start, mats in real(data, roi, levels, *args, **kwargs):
                scanned.append(mats.shape[0])
                yield start, mats

        monkeypatch.setitem(backends._REGISTRY, backends.DEFAULT_KERNEL, spy)
        measure_costs(levels=8, roi_shape=(3, 3, 3, 2), n_rois=32)
        assert sum(scanned) == 8**4  # every position of the (10, 10, 10, 9) sample

    def test_explicit_speedup(self):
        model = measure_costs(
            levels=8, roi_shape=(3, 3, 3, 2), n_rois=32, reference_speedup=1.0
        )
        assert model.cooc_per_roi > 0  # raw measured seconds


class TestClusters:
    def test_paper_specs(self):
        assert PIII.num_nodes == 24 and PIII.cpus_per_node == 1
        assert XEON.num_nodes == 5 and XEON.cpus_per_node == 2
        assert OPTERON.num_nodes == 6 and OPTERON.cpus_per_node == 2
        assert PIII.port_bw == 100 * MBIT
        assert XEON.port_bw == 1000 * MBIT

    def test_piii_preset(self):
        c = SimCluster.piii(8)
        assert len(c.nodes) == 8
        assert c.node("piii03").cluster == "piii"
        assert c.node("piii00").cpu is not None

    def test_heterogeneous_preset(self):
        c = SimCluster.heterogeneous(("xeon", "opteron"))
        assert len(c.cluster_nodes("xeon")) == 5
        assert len(c.cluster_nodes("opteron")) == 6
        # The xeon-opteron gigabit uplink exists; piii links skipped.
        c.network.uplink_utilization("xeon", "opteron", 1.0)

    def test_unknown_cluster_rejected(self):
        with pytest.raises(ValueError):
            SimCluster.heterogeneous(("piii", "cray"))

    def test_unknown_node_rejected(self):
        with pytest.raises(KeyError):
            SimCluster.piii(4).node("piii99")

    def test_duplicate_specs_rejected(self):
        spec = ClusterSpec("x", 2, 1, 1.0, 100.0)
        with pytest.raises(ValueError):
            SimCluster([spec, spec])

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            ClusterSpec("x", 0, 1, 1.0, 100.0)
