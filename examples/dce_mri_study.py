"""DCE-MRI study workflow: disk-resident dataset + parallel pipeline.

The motivating application of the paper (Section 1): a dynamic
contrast-enhanced MRI study is acquired over many time steps, written as
per-slice raw files distributed round-robin over storage nodes, and
analyzed by the parallel filter pipeline — the split HCC+HPC variant.
(The paper's best cluster configuration also enables a sparse matrix
representation; its conversion costs more CPU than any link on one
machine saves, so the co-occurrence matrices travel dense — the
trade-off behind the paper's Fig. 7.)

The stitched parameter volumes are then rendered as normalized PGM
image series by ``repro.viz.write_feature_images`` (the paper's JIW
stage, run after the pipeline).

Run:
    python examples/dce_mri_study.py [workdir]
"""

import os
import sys
import tempfile
import time

import numpy as np

from repro.data import Lesion, PhantomConfig, generate_phantom
from repro.filters import TextureParams
from repro.pipeline import AnalysisConfig, format_breakdown, run_pipeline
from repro.storage import write_dataset
from repro.viz import (
    save_colormap_ppm,
    save_montage_pgm,
    write_curves_csv,
    write_feature_images,
)


def main(workdir: str) -> None:
    # --- acquisition: a study with two lesions of different kinetics ----
    lesions = (
        Lesion(center=(15, 30, 4), radius=5, amplitude=0.8, uptake_rate=1.0,
               washout_rate=0.12),  # malignant-like: fast wash-in/out
        Lesion(center=(33, 14, 8), radius=4, amplitude=0.5, uptake_rate=0.25,
               washout_rate=0.02),  # benign-like: slow persistent uptake
    )
    volume = generate_phantom(
        PhantomConfig(shape=(48, 48, 12, 6), lesions=lesions, seed=7)
    )
    print(f"study: {volume.shape} = {volume.nbytes / 1e6:.1f} MB")

    # --- distribute over 4 storage nodes (paper Section 4.2) -----------
    dataset_root = os.path.join(workdir, "dataset")
    dataset = write_dataset(volume, dataset_root, num_nodes=4)
    print(f"dataset on disk: {dataset.num_nodes} storage nodes, "
          f"{dataset.num_slices * dataset.num_timesteps} slice files")

    # --- parallel analysis: split pipeline, dense matrices -------------
    params = TextureParams(
        roi_shape=(5, 5, 5, 3),
        levels=32,
        intensity_range=(0.0, 4095.0),
    )
    config = AnalysisConfig(
        texture=params,
        variant="split",
        texture_chunk_shape=(24, 24, 12, 6),
        num_hcc_copies=4,
        num_hpc_copies=1,
        num_iic_copies=2,
    )
    t0 = time.perf_counter()
    result = run_pipeline(dataset_root, config)
    elapsed = time.perf_counter() - t0
    print(f"\nparallel analysis finished in {elapsed:.2f}s")
    print(format_breakdown(result.run, order=("RFR", "IIC", "HCC", "HPC", "HIC")))

    # --- inspect the texture response at the two lesions ----------------
    print("\nlesion texture signatures (feature at lesion ROI vs background):")
    for name, vol in result.volumes.items():
        malignant = vol[11:17, 26:32, 2:4].mean()
        benign = vol[29:35, 10:16, 6:8].mean()
        background = vol[:6, :6, :2].mean()
        print(
            f"  {name:<16} malignant={malignant:8.4f}  benign={benign:8.4f}  "
            f"background={background:8.4f}"
        )

    images_dir = os.path.join(workdir, "images")
    total = write_feature_images(result.volumes, images_dir)
    print(f"\nwrote {total} PGM images under {images_dir}")

    # --- radiologist views (paper Section 1) ----------------------------
    viz_dir = os.path.join(workdir, "viz")
    os.makedirs(viz_dir, exist_ok=True)
    save_montage_pgm(os.path.join(viz_dir, "study_montage.pgm"), volume.data)
    write_curves_csv(
        os.path.join(viz_dir, "curves.csv"),
        volume.data,
        [(15, 30, 4), (33, 14, 8), (2, 2, 0)],  # lesions + background
    )
    # Color-coded IDM map of the central slice at the last time step.
    idm = result.volumes["idm"]
    save_colormap_ppm(
        os.path.join(viz_dir, "idm_map.ppm"),
        idm[:, :, idm.shape[2] // 2, -1],
        cmap="coolwarm",
    )
    print(f"radiologist views (montage, curves, color map) under {viz_dir}")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        os.makedirs(sys.argv[1], exist_ok=True)
        main(sys.argv[1])
    else:
        with tempfile.TemporaryDirectory() as tmp:
            main(tmp)
