"""Acceptance tests for the distributed pipeline backend.

The bar: ``run_pipeline(..., runtime="distributed")`` over loopback
agents must produce feature volumes bit-identical to the sequential
reference — including under an injected agent crash, on an uneven
cluster with a slow link, and under a crash while every copy is loaded —
and the codec path must move every ndarray without an intermediate
serialization copy (asserted with the no-pickle-of-ndarray hook over the
whole run).
"""

import sys

import numpy as np
import pytest

from repro.core.analysis import HaralickConfig, haralick_transform
from repro.core.quantization import quantize_linear
from repro.data.synthetic import PhantomConfig, generate_phantom
from repro.datacutter.faults import FaultPlan
from repro.datacutter.net import codec
from repro.filters.messages import TextureParams
from repro.pipeline.config import AnalysisConfig
from repro.pipeline.run import run_pipeline
from repro.storage.dataset import write_dataset

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="fork start method required"
)

SHAPE = (14, 12, 6, 4)
ROI = (3, 3, 3, 2)
LEVELS = 8
FEATURES = ("asm", "contrast")
HOSTS = ["127.0.0.1"] * 3


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    vol = generate_phantom(PhantomConfig(shape=SHAPE, seed=6))
    root = str(tmp_path_factory.mktemp("dist") / "ds")
    write_dataset(vol, root, num_nodes=2)
    return root, vol


@pytest.fixture(scope="module")
def reference(dataset):
    _, vol = dataset
    q = quantize_linear(vol.data, LEVELS, lo=0.0, hi=65535.0)
    return haralick_transform(
        q,
        HaralickConfig(roi_shape=ROI, levels=LEVELS, features=FEATURES),
        quantized=True,
    )


def config(chunk=(8, 8, 6, 4), texture_copies=4):
    params = TextureParams(
        roi_shape=ROI, levels=LEVELS, features=FEATURES,
        intensity_range=(0.0, 65535.0),
    )
    return AnalysisConfig(
        texture=params, variant="hmp",
        texture_chunk_shape=chunk,
        num_texture_copies=texture_copies, num_iic_copies=2,
    )


#: Small chunks, so every texture copy sees many buffers.
CLUSTER_CHUNK = (4, 4, 3, 2)
#: name -> (agents, texture copies, fault plan, a failure is expected).
CLUSTER_CASES = {
    # Five texture copies over three worker agents, one behind a slow
    # link: demand-driven scheduling absorbs it with no failure.
    "heterogeneous": (
        4, 5, FaultPlan(seed=23).delay_connection(3, 0.03, probability=0.5),
        False,
    ),
    # An agent dies while every texture copy is busy: its unacknowledged
    # chunks are rerouted to the survivors.
    "crash_under_load": (
        4, 6,
        FaultPlan(seed=13).delay_buffers("HMP", 0.03).crash_agent(
            2, after_buffers=2
        ),
        True,
    ),
}


class TestDistributedPipeline:
    def test_bit_identical_to_sequential(self, dataset, reference):
        root, _ = dataset
        result = run_pipeline(root, config(), runtime="distributed",
                              hosts=HOSTS)
        for name in FEATURES:
            np.testing.assert_array_equal(result.volumes[name],
                                          reference[name])
        assert result.run.failed_copies == []
        # Serialized transport: every stream reports its wire traffic.
        assert all(v > 0 for v in result.run.wire_bytes.values())

    def test_bit_identical_under_agent_crash(self, dataset, reference):
        root, _ = dataset
        plan = FaultPlan(seed=7).crash_agent(1, after_buffers=1)
        result = run_pipeline(root, config(), runtime="distributed",
                              hosts=HOSTS, faults=plan)
        for name in FEATURES:
            np.testing.assert_array_equal(result.volumes[name],
                                          reference[name])
        assert result.run.failed_copies != []
        assert all(f.recovered for f in result.run.failed_copies)
        assert result.run.reroutes >= 1

    @pytest.mark.parametrize("case", sorted(CLUSTER_CASES))
    def test_bit_identical_on_cluster(self, dataset, reference, case):
        root, _ = dataset
        agents, copies, plan, crash = CLUSTER_CASES[case]
        result = run_pipeline(
            root, config(CLUSTER_CHUNK, copies), runtime="distributed",
            hosts=["127.0.0.1"] * agents, faults=plan,
        )
        for name in FEATURES:
            assert result.volumes[name].tobytes() == reference[name].tobytes()
        run = result.run
        if crash:
            assert run.failed_copies != []
            assert all(f.recovered for f in run.failed_copies)
            assert run.reroutes >= 1
        else:
            assert run.failed_copies == []
            assert run.reroutes == 0

    def test_no_ndarray_serialization_copies(self, dataset, reference):
        root, _ = dataset
        with codec.forbid_array_copies():
            result = run_pipeline(root, config(), runtime="distributed",
                                  hosts=HOSTS)
        np.testing.assert_array_equal(result.volumes["asm"],
                                      reference["asm"])

    def test_hosts_require_distributed_runtime(self, dataset):
        root, _ = dataset
        with pytest.raises(ValueError, match="distributed"):
            run_pipeline(root, config(), runtime="threads", hosts=HOSTS)
