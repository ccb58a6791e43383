"""Radiologist-facing visualizations (paper Section 1's analysis views).

The paper motivates automation by describing how DCE-MRI is read today:
"cinematic viewing of the contrast agent flow, observation of a
color-coded representation of the vascular permeability characteristics,
and examination of the time versus intensity plots of individual
pixels."  This package renders those three views (plus montages of the
pipeline's parameter maps, and the parameter volumes as PGM image
series) with no plotting dependencies — grayscale PGM and color PPM
images, and CSV curves.
"""

from .curves import time_intensity_curve, write_curves_csv
from .montage import (
    montage,
    normalize_volume,
    save_montage_pgm,
    write_feature_images,
)
from .colormap import apply_colormap, save_colormap_ppm, write_ppm

__all__ = [
    "time_intensity_curve",
    "write_curves_csv",
    "montage",
    "save_montage_pgm",
    "normalize_volume",
    "write_feature_images",
    "apply_colormap",
    "save_colormap_ppm",
    "write_ppm",
]
