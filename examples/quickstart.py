"""Quickstart: sequential 4D Haralick texture analysis in memory.

Generates a small synthetic DCE-MRI study, runs the paper's default
analysis (5x5x5x3 ROI, 32 grey levels, four Haralick parameters), and
prints summary statistics of each output feature volume.

Run:
    python examples/quickstart.py

With ``--trace PATH`` the same study is additionally run through the
threaded parallel pipeline with per-chunk tracing on, and a Chrome
trace (open in Perfetto or chrome://tracing) is written to PATH.
"""

import argparse
import tempfile

import numpy as np

from repro import HaralickConfig, haralick_transform
from repro.data import PhantomConfig, Lesion, generate_phantom


def traced_pipeline_run(volume, trace_path: str) -> None:
    """Re-run the study on the parallel pipeline and export its trace."""
    from repro.filters.messages import TextureParams
    from repro.pipeline.config import AnalysisConfig
    from repro.pipeline.run import run_pipeline
    from repro.storage.dataset import write_dataset

    with tempfile.TemporaryDirectory() as td:
        write_dataset(volume, td + "/ds", num_nodes=2)
        config = AnalysisConfig(
            texture=TextureParams(roi_shape=(5, 5, 5, 3), levels=32),
            texture_chunk_shape=(24, 24, 12, 6),
            num_texture_copies=2,
        )
        result = run_pipeline(
            td + "/ds", config, trace="chrome", trace_out=trace_path
        )
    print(f"\nparallel pipeline: {result.elapsed:.3f}s, "
          f"{len(result.trace.events)} trace events -> {trace_path}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trace", metavar="PATH",
        help="also run the threaded pipeline and write a Chrome trace here",
    )
    args = parser.parse_args(argv)
    # A 48x48x12x6 study with one strongly enhancing lesion.
    lesion = Lesion(center=(24, 24, 6), radius=7, amplitude=0.7, uptake_rate=0.9)
    volume = generate_phantom(
        PhantomConfig(shape=(48, 48, 12, 6), lesions=(lesion,), seed=42)
    )
    print(f"input volume: {volume.shape}, dtype {volume.data.dtype}")

    config = HaralickConfig(roi_shape=(5, 5, 5, 3), levels=32)
    print(f"analysis: ROI {config.roi_shape}, G={config.levels}, "
          f"features {config.features}")
    print(f"output shape per feature: {config.output_shape(volume.shape)}")

    features = haralick_transform(volume.data, config)

    print("\nfeature volume statistics:")
    for name, vol in features.items():
        print(
            f"  {name:<16} min={vol.min():8.4f}  mean={vol.mean():8.4f}  "
            f"max={vol.max():8.4f}"
        )

    # Texture responds to the lesion: entropy-like heterogeneity measures
    # differ between lesion center and background.
    asm = features["asm"]
    cx, cy, cz = 22, 22, 4  # ROI-origin coords near the lesion center
    lesion_asm = asm[cx, cy, cz].mean()
    corner_asm = asm[:4, :4, :2].mean()
    print(f"\nASM near lesion: {lesion_asm:.4f}  vs background: {corner_asm:.4f}")
    print("(lower ASM = less uniform texture)")

    if args.trace:
        traced_pipeline_run(volume, args.trace)


if __name__ == "__main__":
    main()
