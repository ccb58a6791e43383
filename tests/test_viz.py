"""Unit tests for the visualization helpers."""

import csv

import numpy as np
import pytest

from repro.viz.colormap import COLORMAPS, apply_colormap, save_colormap_ppm, write_ppm
from repro.viz.curves import time_intensity_curve, write_curves_csv
from repro.viz.montage import montage, save_montage_pgm


@pytest.fixture
def volume():
    rng = np.random.default_rng(0)
    return rng.integers(0, 4096, size=(6, 5, 3, 4)).astype(np.uint16)


class TestCurves:
    def test_curve_values(self, volume):
        curve = time_intensity_curve(volume, (2, 3, 1))
        assert curve.shape == (4,)
        assert np.array_equal(curve, volume[2, 3, 1, :].astype(float))

    def test_bad_voxel(self, volume):
        with pytest.raises(IndexError):
            time_intensity_curve(volume, (9, 0, 0))

    def test_requires_4d(self):
        with pytest.raises(ValueError):
            time_intensity_curve(np.zeros((4, 4)), (0, 0, 0))

    def test_csv_round_trip(self, volume, tmp_path):
        path = str(tmp_path / "curves.csv")
        curves = write_curves_csv(path, volume, [(0, 0, 0), (2, 3, 1)])
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "0_0_0", "2_3_1"]
        assert len(rows) == 1 + 4
        assert float(rows[1][2]) == curves[(2, 3, 1)][0]

    def test_empty_voxels_rejected(self, volume, tmp_path):
        with pytest.raises(ValueError):
            write_curves_csv(str(tmp_path / "x.csv"), volume, [])


class TestMontage:
    def test_grid_geometry(self, volume):
        img = montage(volume, border=1)
        nx, ny, nz, nt = volume.shape
        assert img.shape == (nz * nx + (nz - 1), nt * ny + (nt - 1))
        assert img.min() >= 0 and img.max() <= 1

    def test_tiles_match_slices(self, volume):
        img = montage(volume, border=0)
        nx, ny = volume.shape[:2]
        vmin, vmax = volume.min(), volume.max()
        tile = img[nx : 2 * nx, 0:ny]  # z=1, t=0
        want = (volume[:, :, 1, 0] - vmin) / (vmax - vmin)
        np.testing.assert_allclose(tile, want)

    def test_constant_volume(self):
        img = montage(np.ones((2, 2, 2, 2)))
        assert np.all((img == 0) | (img == 0.5))  # tiles black, borders gray

    def test_save_pgm(self, volume, tmp_path):
        path = str(tmp_path / "m.pgm")
        shape = save_montage_pgm(path, volume)
        from repro.data.formats import read_pgm

        assert read_pgm(path).shape == shape

    def test_invalid_inputs(self, volume):
        with pytest.raises(ValueError):
            montage(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            montage(volume, border=-1)
        with pytest.raises(ValueError):
            montage(volume, vmin=5, vmax=1)  # inverted window


class TestColormap:
    def test_shapes_and_dtype(self):
        img = np.linspace(0, 1, 20).reshape(4, 5)
        rgb = apply_colormap(img, "hot")
        assert rgb.shape == (4, 5, 3)
        assert rgb.dtype == np.uint8

    def test_endpoints(self):
        rgb = apply_colormap(np.array([[0.0, 1.0]]), "hot")
        assert list(rgb[0, 0]) == [0, 0, 0]  # black at min
        assert list(rgb[0, 1]) == [255, 255, 255]  # white at max

    def test_gray_is_identity_ramp(self):
        img = np.array([[0.0, 0.5, 1.0]])
        rgb = apply_colormap(img, "gray")
        assert list(rgb[0, :, 0]) == [0, 128, 255]
        assert np.array_equal(rgb[..., 0], rgb[..., 1])

    @pytest.mark.parametrize("name", sorted(COLORMAPS))
    def test_all_colormaps_valid(self, name):
        rgb = apply_colormap(np.random.default_rng(0).random((3, 3)), name)
        assert rgb.min() >= 0 and rgb.max() <= 255

    def test_unknown_colormap(self):
        with pytest.raises(ValueError):
            apply_colormap(np.zeros((2, 2)), "viridis")

    def test_ppm_file(self, tmp_path):
        path = str(tmp_path / "x.ppm")
        save_colormap_ppm(path, np.linspace(0, 1, 12).reshape(3, 4), "coolwarm")
        with open(path, "rb") as fh:
            raw = fh.read()
        assert raw.startswith(b"P6\n4 3\n255\n")
        assert len(raw) == len(b"P6\n4 3\n255\n") + 3 * 4 * 3

    def test_write_ppm_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(str(tmp_path / "x.ppm"), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            write_ppm(str(tmp_path / "x.ppm"), np.zeros((2, 2, 3), dtype=float))
