"""Unit tests for the pluggable GLCM scan-backend layer."""

import numpy as np
import pytest

from repro.cli import build_parser
from repro.core.analysis import HaralickConfig, haralick_transform
from repro.core.backends import (
    DEFAULT_KERNEL,
    KERNEL_INFO,
    KERNELS,
    get_kernel,
    incremental_scan,
    reference_scan,
)
from repro.core.cooccurrence import check_levels, cooccurrence_scan
from repro.core.raster import (
    raster_scan,
    raster_scan_batches,
    raster_scan_reference,
)
from repro.core.roi import ROISpec
from repro.core import workspace
from repro.core.workspace import pair_shift, symmetrize_inplace
from repro.filters.messages import TextureParams


@pytest.fixture(scope="module")
def small_volume():
    rng = np.random.default_rng(7)
    return rng.integers(0, 16, size=(8, 7, 6, 5), dtype=np.int32)


class TestRegistry:
    def test_kernels_contents(self):
        assert KERNELS == ("batched", "incremental", "reference")
        assert DEFAULT_KERNEL in KERNELS
        assert set(KERNEL_INFO) == set(KERNELS)

    def test_get_kernel_resolves(self):
        assert get_kernel("batched") is cooccurrence_scan
        assert get_kernel("incremental") is incremental_scan
        assert get_kernel("reference") is reference_scan

    def test_get_kernel_unknown(self):
        with pytest.raises(ValueError, match="unknown scan kernel"):
            get_kernel("turbo")

    def test_get_kernel_suggests_close_match(self):
        with pytest.raises(ValueError, match="did you mean 'incremental'"):
            get_kernel("incrmental")
        with pytest.raises(ValueError, match="did you mean 'batched'"):
            get_kernel("bached")
        # Nothing close: no suggestion, but the valid list is shown.
        with pytest.raises(ValueError, match=r"valid kernels") as exc:
            get_kernel("turbo")
        assert "did you mean" not in str(exc.value)

    def test_config_validates_kernel(self):
        with pytest.raises(ValueError, match="unknown scan kernel"):
            HaralickConfig(kernel="turbo")
        with pytest.raises(ValueError, match="unknown scan kernel"):
            TextureParams(kernel="turbo")
        assert HaralickConfig().kernel == DEFAULT_KERNEL
        assert TextureParams().kernel == DEFAULT_KERNEL


class TestDispatch:
    def test_raster_scan_kernel_equality(self, small_volume):
        roi = ROISpec((3, 3, 3, 2))
        outs = {
            k: raster_scan(small_volume, roi, 16, kernel=k) for k in KERNELS
        }
        # Identical matrices through identical feature kernels: the
        # backend choice must be invisible, down to the last bit.
        for kernel in KERNELS:
            for name, vol in outs["reference"].items():
                assert np.array_equal(outs[kernel][name], vol), (kernel, name)
        # Against the per-window reference *feature* path the reduction
        # order differs, so only closeness is promised (as in test_raster).
        ref = raster_scan_reference(small_volume, roi, 16)
        for name, vol in ref.items():
            np.testing.assert_allclose(outs["batched"][name], vol, atol=1e-12)

    def test_raster_scan_defaults_to_the_default_kernel(self):
        # A direct caller of the documented top-level ``raster_scan``
        # gets the same kernel as the configs, not the 4x slower one.
        import inspect

        for fn in (raster_scan, raster_scan_batches):
            default = inspect.signature(fn).parameters["kernel"].default
            assert default == DEFAULT_KERNEL, fn.__name__

    def test_haralick_transform_kernel_equality(self, small_volume):
        outs = {
            k: haralick_transform(
                small_volume,
                HaralickConfig(roi_shape=(3, 3, 3, 2), levels=16, kernel=k),
                quantized=True,
            )
            for k in KERNELS
        }
        for k in KERNELS:
            for name in outs["reference"]:
                assert np.array_equal(outs[k][name], outs["reference"][name])

    def test_cli_kernel_flag(self):
        parser = build_parser()
        assert parser.parse_args(["analyze", "d"]).kernel == DEFAULT_KERNEL
        for k in KERNELS:
            assert parser.parse_args(["analyze", "d", "--kernel", k]).kernel == k
        with pytest.raises(SystemExit):
            parser.parse_args(["analyze", "d", "--kernel", "turbo"])


class TestValidation:
    def test_check_levels_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            check_levels(np.array([[0, 8]]), 8)
        with pytest.raises(ValueError):
            check_levels(np.array([[-1, 0]]), 8)
        check_levels(np.array([[0, 7]]), 8)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_scan_validate_gating(self, kernel):
        bad = np.full((4, 4), 9, dtype=np.int32)  # out of range for levels=8
        scan = get_kernel(kernel)
        with pytest.raises(ValueError):
            list(scan(bad, ROISpec((2, 2)), 8))
        # validate=False skips the data range check (caller's contract).
        list(scan(bad % 8, ROISpec((2, 2)), 8, validate=False))


class TestWorkspace:
    def test_pair_shift_values_and_readonly(self):
        arr = pair_shift(5, 9)
        assert arr.shape == (5, 1)
        assert np.array_equal(arr[:, 0], np.arange(5) * 9)
        assert not arr.flags.writeable

    def test_pair_shift_cache_growth(self):
        small = pair_shift(3, 11)
        big = pair_shift(300, 11)
        assert np.array_equal(big[:3], small)
        # A smaller request after growth reuses the grown allocation.
        again = pair_shift(3, 11)
        assert again.base is big.base or again.base is big

    def test_symmetrize_inplace_matches_transpose_add(self, monkeypatch):
        # A 3-matrix slab: an empty batch, a batch ending on a partial
        # slab, an exact multiple, and a non-contiguous view.
        monkeypatch.setattr(workspace, "_SYM_SCRATCH_BYTES", 3 * 7 * 7 * 8)
        rng = np.random.default_rng(3)
        for n in (0, 4, 6):
            mats = rng.integers(0, 50, size=(n, 7, 7)).astype(np.int64)
            want = mats + mats.transpose(0, 2, 1)
            got = symmetrize_inplace(mats)
            assert got is mats
            assert np.array_equal(got, want)
        base = rng.integers(0, 50, size=(9, 8, 14)).astype(np.int64)
        before = base.copy()
        view = base[::2, :7, ::2]
        assert not view.flags.c_contiguous
        want = view + view.transpose(0, 2, 1)
        symmetrize_inplace(view)
        assert np.array_equal(view, want)
        # Nothing outside the view moved.
        outside = np.ones(base.shape, dtype=bool)
        outside[::2, :7, ::2] = False
        assert np.array_equal(base[outside], before[outside])

    def test_symmetrize_inplace_single_level(self):
        mats = np.full((2, 1, 1), 3, dtype=np.int64)
        assert np.array_equal(symmetrize_inplace(mats), np.full((2, 1, 1), 6))
