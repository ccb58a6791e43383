"""Configuration of one parallel Haralick texture analysis run.

Defaults reproduce the paper's experimental setup (Section 5.1):
5x5x5x3 ROI, 32 grey levels, the four expensive parameters,
50x50x32x32 IIC-to-TEXTURE chunks, whole-slice RFR-to-IIC chunks,
demand-driven buffer scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from ..datacutter.faults import RetryPolicy
from ..filters.messages import TextureParams

__all__ = ["AnalysisConfig", "clip_chunk_shape"]

VARIANTS = ("hmp", "split")
OUTPUTS = ("volumes", "images", "uso")


def clip_chunk_shape(
    chunk_shape: Tuple[int, ...],
    dataset_shape: Tuple[int, ...],
    roi_shape: Tuple[int, ...],
) -> Tuple[int, ...]:
    """Clip a requested chunk shape to the dataset, keeping ROIs viable."""
    out = []
    for c, s, r in zip(chunk_shape, dataset_shape, roi_shape):
        out.append(max(min(c, s), r))
    return tuple(out)


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything a parallel run needs besides the dataset itself.

    Attributes
    ----------
    texture:
        Kernel parameters (ROI, grey levels, features, kernel...).
    variant:
        ``"hmp"`` for the combined filter, ``"split"`` for HCC + HPC
        (paper Figs. 4 and 5).
    texture_chunk_shape:
        Target IIC-to-TEXTURE chunk dimensions; clipped per dataset.
    num_texture_copies:
        HMP copies (``variant="hmp"``).
    num_hcc_copies, num_hpc_copies:
        Split-variant copy counts.  The paper keeps HCC:HPC near 4:1
        because HCC is 4-5x more expensive (Section 5.2).
    num_iic_copies, num_uso_copies:
        Stitch and output copy counts.
    scheduling:
        Buffer scheduling policy for the texture streams
        (``"demand_driven"`` or ``"round_robin"``).
    output:
        ``"volumes"`` deposits stitched volumes (HIC),
        ``"images"`` additionally writes PGM series (HIC + JIW),
        ``"uso"`` streams records to disk files (USO).
    output_dir:
        Directory for ``"images"`` / ``"uso"`` outputs.
    retry:
        Fault-tolerance policy for failed ``process()`` calls
        (:class:`~repro.datacutter.faults.RetryPolicy`); ``None`` uses
        the runtime default (3 attempts with backoff, reroute enabled).
    """

    texture: TextureParams = field(default_factory=TextureParams)
    variant: str = "hmp"
    texture_chunk_shape: Tuple[int, ...] = (50, 50, 32, 32)
    rfr_inplane_block: Optional[Tuple[int, int]] = None
    num_texture_copies: int = 1
    num_hcc_copies: int = 1
    num_hpc_copies: int = 1
    num_iic_copies: int = 1
    num_uso_copies: int = 1
    scheduling: str = "demand_driven"
    output: str = "volumes"
    output_dir: Optional[str] = None
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.output not in OUTPUTS:
            raise ValueError(f"output must be one of {OUTPUTS}, got {self.output!r}")
        if self.scheduling not in ("demand_driven", "round_robin"):
            raise ValueError(f"unsupported scheduling {self.scheduling!r}")
        for n in (
            self.num_texture_copies,
            self.num_hcc_copies,
            self.num_hpc_copies,
            self.num_iic_copies,
            self.num_uso_copies,
        ):
            if n < 1:
                raise ValueError("all copy counts must be >= 1")
        if len(self.texture_chunk_shape) != len(self.texture.roi_shape):
            raise ValueError("chunk shape dimensionality != ROI dimensionality")
        if self.output in ("images", "uso") and not self.output_dir:
            raise ValueError(f"output={self.output!r} requires output_dir")

    def with_copies(self, **kwargs) -> "AnalysisConfig":
        """Convenience: derive a config with different copy counts."""
        return replace(self, **kwargs)

    def paper_hcc_hpc_split(self, total_nodes: int) -> Tuple[int, int]:
        """The paper's 4:1 HCC:HPC node split (Section 5.2).

        E.g. 16 nodes -> 13 HCC + 3 HPC.
        """
        if total_nodes < 2:
            return 1, 1
        hpc = max(1, round(total_nodes / 5))
        return total_nodes - hpc, hpc
