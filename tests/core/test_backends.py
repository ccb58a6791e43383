"""Unit tests for the pluggable GLCM scan-backend layer."""

import numpy as np
import pytest

from repro.cli import build_parser
from repro.core.analysis import HaralickConfig, haralick_transform
from repro.core import backends, native
from repro.core.backends import (
    DEFAULT_KERNEL,
    KERNEL_INFO,
    KERNELS,
    get_kernel,
    incremental_scan,
    reference_scan,
    resolve_scan_kernel,
)
from repro.core.cooccurrence import check_levels, resolve_directions
from repro.core.directions import all_directions
from repro.core.raster import (
    raster_scan,
    raster_scan_batches,
    raster_scan_reference,
)
from repro.core.roi import ROISpec, valid_positions_shape
from repro.core import workspace
from repro.core.workspace import pair_shift, symmetrize_inplace
from repro.filters.messages import TextureParams


@pytest.fixture(scope="module")
def small_volume():
    rng = np.random.default_rng(7)
    return rng.integers(0, 16, size=(8, 7, 6, 5), dtype=np.int32)


class TestRegistry:
    def test_kernels_contents(self):
        assert KERNELS == ("incremental", "reference")
        assert DEFAULT_KERNEL in KERNELS
        assert set(KERNEL_INFO) == set(KERNELS)

    def test_get_kernel_resolves(self, monkeypatch):
        assert get_kernel("incremental") is incremental_scan
        assert get_kernel("reference") is reference_scan
        # The filters' variant adds the fallback disposition, which only
        # ``incremental`` can have (test_native covers it in depth).
        for status, fallback in [
            (native.NativeStatus(object(), "/x.so", None), None),
            (native.NativeStatus(None, None, "no C compiler found"), {
                "requested": "incremental",
                "used": "incremental (numpy passes)",
                "reason": "no C compiler found",
            }),
        ]:
            monkeypatch.setattr(native, "_status", status)
            assert resolve_scan_kernel("incremental") == (
                incremental_scan, fallback)
            assert resolve_scan_kernel("reference") == (reference_scan, None)

    def test_get_kernel_unknown(self):
        with pytest.raises(ValueError, match="unknown scan kernel"):
            get_kernel("turbo")

    def test_get_kernel_suggests_close_match(self):
        with pytest.raises(ValueError, match="did you mean 'incremental'"):
            get_kernel("incrmental")
        with pytest.raises(ValueError, match="did you mean 'reference'"):
            get_kernel("referense")
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
            np.testing.assert_allclose(outs["incremental"][name], vol, atol=1e-12)

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
        # The CLI has no kernel choice: its only other value is the
        # Fig. 2 oracle, so ``analyze`` always runs the default scan.
        parser = build_parser()
        assert not hasattr(parser.parse_args(["analyze", "d"]), "kernel")
        for k in KERNELS:
            with pytest.raises(SystemExit):
                parser.parse_args(["analyze", "d", "--kernel", k])


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
        roi = ROISpec((2, 2))
        with pytest.raises(ValueError, match="requantized"):
            list(scan(bad, roi, 8))
        # validate=False skips the data range check (caller's contract),
        # but never the grey-level count, the shapes or the batch.
        list(scan(bad % 8, roi, 8, validate=False))
        for args, kw, match in [
            ((bad % 8, roi, 1), {}, "grey levels"),
            ((np.zeros((4, 4, 2), int), roi, 8), {}, "ndim"),
            ((np.zeros((4, 4), int), roi, 8), {"batch": 0}, "batch"),
            ((np.zeros((1, 4), int), roi, 8), {}, "ROI"),
        ]:
            with pytest.raises(ValueError, match=match):
                list(scan(*args, validate=False, **kw))
        # Array-likes are accepted.
        good = (bad % 8).tolist()
        assert np.array_equal(
            np.concatenate([m for _s, m in scan(good, roi, 8)]),
            np.concatenate([m for _s, m in scan(bad % 8, roi, 8)]),
        )


def _plan_model(grid, roi_shape, dirs, gg, budget):
    """``_rolling_plan`` as its docstring states it, by search.

    Per axis ``a``: group the fitting directions by their window extent
    ``W_a``; one row span of ``span`` positions holds ``span`` output
    matrices plus, per group, ``span - 1 + W_a`` planes of gather
    indices, gathered codes (one face each) and a histogram segment.
    The span is the longest whose block (every position after ``a``)
    fits ``budget`` bytes, at least 1, then evened out over the spans a
    row needs.  The cheapest axis by gathered codes per ROI wins; ties
    go to the inner axis.
    """
    nd = len(grid)
    best = None
    for a in range(nd):
        groups = {}
        for v in dirs:
            w = [r - abs(c) for r, c in zip(roi_shape, v)]
            if all(x > 0 for x in w):
                face = int(np.prod(w)) // w[a]
                groups[w[a]] = groups.get(w[a], 0) + face

        def row_elems(span):
            return span * gg + sum(
                (span - 1 + wa) * (2 * face + gg) for wa, face in groups.items()
            )

        n_tail = int(np.prod(grid[a + 1:]))
        span = next(
            (sp for sp in range(grid[a], 0, -1)
             if 8 * n_tail * row_elems(sp) <= budget),
            1,
        )
        n_spans = -(-grid[a] // span)
        span = -(-grid[a] // n_spans)
        cost = sum(face * (span - 1 + wa) / span for wa, face in groups.items())
        if best is None or cost <= best[0]:
            best = (cost, a, span, row_elems(span))
    return best[1:]


class TestRollingPlan:
    """Where ``incremental`` rolls and how far per block: invisible in
    the counts (every plan is bit-identical), so checked against the
    documented model directly."""

    def test_ledger_chunk_rolls_along_y(self):
        # docs/kernels.md: the 13x13x8x6 chunk, grid (9, 9, 4, 4), rolls
        # along ``y`` in one span of 9.
        roi = (5, 5, 5, 3)
        grid = valid_positions_shape((13, 13, 8, 6), ROISpec(roi))
        dirs = resolve_directions(4, None, 1)
        plan = backends._rolling_plan(grid, roi, dirs, 32 * 32,
                                      workspace.WORKSPACE_BYTES)
        assert plan[:2] == (1, 9)
        assert plan == _plan_model(grid, roi, dirs, 32 * 32,
                                   workspace.WORKSPACE_BYTES)

    @pytest.mark.parametrize("budget", [1, 2**16, 2**19, 2**22, 2**25])
    def test_matches_the_model(self, budget):
        rng = np.random.default_rng(budget)
        for _ in range(25):
            nd = int(rng.integers(1, 5))
            roi = tuple(int(r) for r in rng.integers(1, 6, size=nd))
            grid = tuple(int(g) for g in rng.integers(1, 12, size=nd))
            dirs = all_directions(nd)
            dirs = [dirs[k] for k in sorted(rng.choice(
                len(dirs), size=int(rng.integers(1, len(dirs) + 1)),
                replace=False))]
            dist = int(rng.integers(1, 3))
            dirs = [tuple(dist * c for c in v) for v in dirs]
            gg = int(rng.choice([4, 64, 1024]))
            got = backends._rolling_plan(grid, roi, dirs, gg, budget)
            assert got == _plan_model(grid, roi, dirs, gg, budget), (
                grid, roi, dirs, gg)


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
