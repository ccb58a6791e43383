"""Out-of-core analysis: chunked processing of a disk-resident dataset.

Demonstrates the memory story of the paper: a 4D dataset that should not
be loaded whole is processed chunk by chunk.  The example bounds the
texture filters' working set by the IIC-to-TEXTURE chunk size and shows
the chunk/overlap arithmetic of Section 4.4 (Eqs. 1-2), then verifies
the chunked parallel result against a reference region.

Run:
    python examples/out_of_core_dataset.py
"""

import os
import tempfile

import numpy as np

from repro.chunks import overlap, partition
from repro.core import ROISpec, haralick_transform, HaralickConfig
from repro.core.quantization import quantize_linear
from repro.data import PhantomConfig, generate_phantom
from repro.filters import TextureParams
from repro.pipeline import AnalysisConfig, plan_chunks, run_pipeline
from repro.storage import write_dataset


def main(workdir: str) -> None:
    shape = (96, 96, 12, 8)
    roi = ROISpec((5, 5, 5, 3))
    chunk_shape = (40, 40, 12, 8)

    print("=== chunk arithmetic (paper Section 4.4) ===")
    print(f"dataset {shape}, ROI {roi.shape}, chunk target {chunk_shape}")
    print(f"overlap per dimension (Eqs. 1-2): "
          f"{tuple(overlap(r) for r in roi.shape)}")
    chunks = partition(shape, roi, chunk_shape)
    print(f"{len(chunks)} chunks; input voxels per chunk (with overlap):")
    total_in = sum(c.num_voxels for c in chunks)
    raw = int(np.prod(shape))
    print(f"  total read with overlap: {total_in} vs raw {raw} "
          f"(+{100 * (total_in - raw) / raw:.1f}% redundancy)")
    biggest = max(chunks, key=lambda c: c.num_voxels)
    print(f"  largest chunk holds {biggest.num_voxels * 2 / 1e6:.2f} MB "
          f"(2 B/pixel) of the {raw * 2 / 1e6:.1f} MB dataset in memory")

    print("\n=== out-of-core parallel run ===")
    volume = generate_phantom(PhantomConfig(shape=shape, seed=5))
    dataset_root = os.path.join(workdir, "ds")
    write_dataset(volume, dataset_root, num_nodes=4)

    params = TextureParams(
        roi_shape=roi.shape,
        levels=16,
        features=("asm", "idm"),
        intensity_range=(0.0, 4095.0),
    )
    config = AnalysisConfig(
        texture=params,
        variant="hmp",
        texture_chunk_shape=chunk_shape,
        num_texture_copies=4,
        num_iic_copies=2,
    )
    print(f"chunk plan: {len(plan_chunks(shape, config))} chunks -> "
          f"{config.num_texture_copies} HMP copies")
    result = run_pipeline(dataset_root, config)
    print(f"done in {result.elapsed:.2f}s; output shape "
          f"{result.volumes['asm'].shape}")

    # Spot-check a region against the sequential reference.
    q = quantize_linear(volume.data, 16, lo=0.0, hi=4095.0)
    ref = haralick_transform(
        q[:20, :20, :, :],
        HaralickConfig(roi_shape=roi.shape, levels=16, features=("asm", "idm")),
        quantized=True,
    )
    check = result.volumes["asm"][:16, :16, :, :]
    np.testing.assert_allclose(check, ref["asm"][:16, :16, :, :], atol=1e-12)
    print("verified: chunked parallel output == sequential reference region")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        main(tmp)
