"""Montages and image series of 4D volumes.

The "cinematic viewing" substitute: every slice of every time step on
one canvas, normalized to a shared intensity window so enhancement over
time is visible at a glance.  :func:`write_feature_images` is the
paper's JIW output stage (Section 4.3.3): each parameter volume as a
series of normalized 2D grayscale images.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

import numpy as np

from ..data.formats import write_pgm

__all__ = ["montage", "save_montage_pgm", "normalize_volume", "write_feature_images"]


def normalize_volume(volume: np.ndarray, vmin: float, vmax: float) -> np.ndarray:
    """Scale values into [0, 1] using the global parameter min/max.

    A constant volume (``vmin == vmax``) maps to all-black, matching the
    "zero results in a black pixel" convention.
    """
    if vmax < vmin:
        raise ValueError(f"vmax {vmax} < vmin {vmin}")
    if vmax == vmin:
        return np.zeros_like(volume, dtype=np.float64)
    return np.clip((volume - vmin) / (vmax - vmin), 0.0, 1.0)


def write_feature_images(volumes: Dict[str, np.ndarray], out_dir: str) -> int:
    """Write each 4D parameter volume as a series of 2D PGM images.

    Each volume is normalized by its own min/max, and plane ``(z, t)``
    of feature ``name`` goes to ``out_dir/name/tTTTT_zZZZZ.pgm``.  The
    paper writes JPEG; no JPEG codec is available offline, so the
    container is binary PGM (DESIGN.md, "Substitutions").  Returns the
    number of images written.
    """
    written = 0
    for name, volume in volumes.items():
        if volume.ndim != 4:
            raise ValueError(f"{name}: expected a 4-D volume, got {volume.ndim}-D")
        norm = normalize_volume(volume, float(volume.min()), float(volume.max()))
        feature_dir = os.path.join(out_dir, name)
        os.makedirs(feature_dir, exist_ok=True)
        _, _, nz, nt = norm.shape
        for t in range(nt):
            for z in range(nz):
                path = os.path.join(feature_dir, f"t{t:04d}_z{z:04d}.pgm")
                write_pgm(path, norm[:, :, z, t])
                written += 1
    return written


def montage(
    volume: np.ndarray,
    vmin: Optional[float] = None,
    vmax: Optional[float] = None,
    border: int = 1,
) -> np.ndarray:
    """Lay a 4D (x, y, z, t) volume out as a normalized 2D grid.

    Rows are z slices, columns are time steps; all tiles share one
    ``[vmin, vmax]`` window (defaults to the volume's range), normalized
    by :func:`normalize_volume`, so an inverted window raises
    ``ValueError``.  Returns a float image in ``[0, 1]`` with
    ``border``-pixel separators at 0.5.
    """
    volume = np.asarray(volume, dtype=np.float64)
    if volume.ndim != 4:
        raise ValueError(f"expected a 4-D volume, got {volume.ndim}-D")
    if border < 0:
        raise ValueError("border must be >= 0")
    nx, ny, nz, nt = volume.shape
    norm = normalize_volume(
        volume,
        float(volume.min()) if vmin is None else float(vmin),
        float(volume.max()) if vmax is None else float(vmax),
    )
    h = nz * nx + (nz - 1) * border
    w = nt * ny + (nt - 1) * border
    canvas = np.full((h, w), 0.5)
    for z in range(nz):
        for t in range(nt):
            r = z * (nx + border)
            c = t * (ny + border)
            canvas[r : r + nx, c : c + ny] = norm[:, :, z, t]
    return canvas


def save_montage_pgm(
    path: str,
    volume: np.ndarray,
    vmin: Optional[float] = None,
    vmax: Optional[float] = None,
) -> Tuple[int, int]:
    """Write the montage as a PGM; returns the image dimensions."""
    img = montage(volume, vmin=vmin, vmax=vmax)
    write_pgm(path, img)
    return img.shape
