"""Raw slice and PGM image formats.

The paper stores the input dataset as raw 2D image slices, one file per
slice (Section 4.2), and writes visual output as JPEG (JIW filter).  No
JPEG codec is available offline, so :func:`repro.viz.write_feature_images`
writes binary PGM
(P5) — the same normalize-and-write-grayscale behaviour with an
incidental container format (see DESIGN.md substitutions).

Raw slice format: little-endian unsigned integers, C (row-major) order,
no header — dimensions and dtype come from the dataset index.
"""

from __future__ import annotations

import os
from typing import Tuple

import numpy as np

__all__ = ["write_raw_slice", "read_raw_slice", "write_pgm", "read_pgm"]

_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32}


def write_raw_slice(path: str, img: np.ndarray, bytes_per_pixel: int = 2) -> int:
    """Write a 2D slice as headerless little-endian raw data.

    Returns the number of bytes written.
    """
    if bytes_per_pixel not in _DTYPES:
        raise ValueError(f"unsupported bytes_per_pixel {bytes_per_pixel}")
    img = np.asarray(img)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D slice, got shape {img.shape}")
    dtype = np.dtype(_DTYPES[bytes_per_pixel]).newbyteorder("<")
    buf = np.ascontiguousarray(img, dtype=dtype).tobytes()
    with open(path, "wb") as fh:
        fh.write(buf)
    return len(buf)


def read_raw_slice(
    path: str, shape: Tuple[int, int], bytes_per_pixel: int = 2
) -> np.ndarray:
    """Read a raw 2D slice written by :func:`write_raw_slice`."""
    if bytes_per_pixel not in _DTYPES:
        raise ValueError(f"unsupported bytes_per_pixel {bytes_per_pixel}")
    dtype = np.dtype(_DTYPES[bytes_per_pixel]).newbyteorder("<")
    expected = shape[0] * shape[1] * bytes_per_pixel
    size = os.path.getsize(path)
    if size != expected:
        raise ValueError(
            f"{path}: size {size} B != expected {expected} B for shape {shape}"
        )
    with open(path, "rb") as fh:
        data = np.frombuffer(fh.read(), dtype=dtype)
    return data.reshape(shape).astype(_DTYPES[bytes_per_pixel])


def write_pgm(path: str, img: np.ndarray) -> None:
    """Write a 2D float or integer image as a binary PGM (P5) file.

    Float input is assumed to be normalized to ``[0, 1]``
    (:func:`repro.viz.write_feature_images` normalizes with each
    parameter volume's min/max first — the paper's JIW, 4.3.3);
    integer input must already be in ``[0, 255]``.
    """
    img = np.asarray(img)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {img.shape}")
    if np.issubdtype(img.dtype, np.floating):
        if img.size and (img.min() < -1e-9 or img.max() > 1 + 1e-9):
            raise ValueError("float PGM input must be normalized to [0, 1]")
        pix = np.round(np.clip(img, 0, 1) * 255).astype(np.uint8)
    else:
        if img.size and (img.min() < 0 or img.max() > 255):
            raise ValueError("integer PGM input must be in [0, 255]")
        pix = img.astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(pix).tobytes())


def read_pgm(path: str) -> np.ndarray:
    """Read a binary PGM (P5) file written by :func:`write_pgm`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM file")
    # Header: magic, width, height, maxval — whitespace separated, then
    # exactly one whitespace byte before the pixel data.
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":  # comment line
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(int(raw[start:pos]))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    pix = np.frombuffer(raw, dtype=np.uint8, count=width * height, offset=pos)
    return pix.reshape(height, width).copy()
