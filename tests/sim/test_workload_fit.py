"""Scaled-down simulator workloads always fit their ROI."""

import pytest

from repro.sim import SimRuntime, layouts
from repro.sim.workload import SimWorkload, paper_workload


class TestWorkloadFitsROI:
    @pytest.mark.parametrize("scale", [0.01, 0.1, 0.14])
    def test_small_scale_runs_to_a_makespan(self, scale):
        # The paper ROI is 5x5x5x3; z and t used to clamp to 4, so the
        # run failed inside the event loop.
        wl = paper_workload(scale=scale)
        assert all(s >= r for s, r in zip(wl.dataset_shape, wl.roi_shape))
        assert SimRuntime(wl, *layouts.homogeneous_hmp(2)).run().makespan > 0

    def test_roi_override_raises_the_floor(self):
        wl = paper_workload(scale=0.1, roi_shape=(3, 3, 9, 6))
        assert wl.dataset_shape[2:] == (9, 6)

    def test_roi_checked_when_built(self):
        with pytest.raises(ValueError, match="does not fit"):
            SimWorkload(dataset_shape=(26, 26, 4, 4))
