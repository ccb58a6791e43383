"""Property tests: stitching filters are idempotent under re-delivery.

Fault recovery gives the streams at-least-once semantics — after a copy
dies, its queued buffers are re-delivered to survivors, and a buffer the
dead copy had already processed may arrive a second time.  The stitching
filters (IIC, HIC) therefore dedup by position.  Hypothesis
drives arbitrary duplication + reordering of the delivery schedule and
checks the result is bit-identical to the clean, in-order run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunks.chunking import partition
from repro.core.quantization import quantize_linear
from repro.core.raster import raster_scan
from repro.data.synthetic import PhantomConfig, generate_phantom
from repro.datacutter.buffers import DataBuffer
from repro.filters.hic import HaralickImageConstructor
from repro.filters.hmp import HaralickMatrixProducer
from repro.filters.iic import InputImageConstructor
from repro.filters.messages import SlicePortion, TextureParams

from ..filters.test_filters_unit import FakeContext

PARAMS = TextureParams(
    roi_shape=(3, 3, 3, 2),
    levels=8,
    features=("asm", "idm"),
    intensity_range=(0.0, 4095.0),
)
SHAPE = (12, 10, 6, 4)

VOLUME = generate_phantom(PhantomConfig(shape=SHAPE, seed=2))
CHUNK = partition(SHAPE, PARAMS.roi, SHAPE)[0]


def slice_portions():
    return [
        SlicePortion(
            t=t, z=z, x0=0, x1=12, y0=0, y1=10, data=VOLUME.get_slice(t, z)
        )
        for t in range(SHAPE[3])
        for z in range(SHAPE[2])
    ]


def feature_portions():
    hmp = HaralickMatrixProducer(PARAMS)
    ctx = FakeContext()
    from repro.filters.messages import TextureChunk

    hmp.process("iic2tex", DataBuffer(TextureChunk(CHUNK, VOLUME.data)), ctx)
    return [s["payload"] for s in ctx.sent]


FEATURE_PORTIONS = feature_portions()


@st.composite
def at_least_once_schedule(draw, n):
    """Indices 0..n-1, each appearing >= 1 time, arbitrarily reordered."""
    base = list(range(n))
    extra = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), max_size=n)
    )
    return draw(st.permutations(base + extra))


def expected_features():
    q = quantize_linear(VOLUME.data, 8, lo=0.0, hi=4095.0)
    return raster_scan(q, PARAMS.roi, 8, features=PARAMS.features)


class TestIICDedupProperty:
    @settings(max_examples=25, deadline=None)
    @given(at_least_once_schedule(SHAPE[2] * SHAPE[3]))
    def test_duplicated_reordered_planes_stitch_identically(self, schedule):
        portions = slice_portions()
        iic = InputImageConstructor([CHUNK])
        ctx = FakeContext()
        iic.initialize(ctx)
        for i in schedule:
            iic.process("rfr2iic", DataBuffer(portions[i]), ctx)
        iic.finalize(ctx)
        assert len(ctx.sent) == 1  # duplicates never re-emit the chunk
        assert np.array_equal(ctx.sent[0]["payload"].data, VOLUME.data)


class TestHICDedupProperty:
    @settings(max_examples=25, deadline=None)
    @given(at_least_once_schedule(len(FEATURE_PORTIONS)))
    def test_duplicated_reordered_portions_stitch_identically(self, schedule):
        hic = HaralickImageConstructor(SHAPE, PARAMS.roi_shape, PARAMS.features)
        ctx = FakeContext()
        for i in schedule:
            hic.process("tex2out", DataBuffer(FEATURE_PORTIONS[i]), ctx)
        hic.finalize(ctx)
        ((_, volumes),) = ctx.deposited
        want = expected_features()
        for name in PARAMS.features:
            np.testing.assert_array_equal(volumes[name], want[name])


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
