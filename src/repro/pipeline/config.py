"""Configuration of one parallel Haralick texture analysis run.

Defaults reproduce the paper's experimental setup (Section 5.1):
5x5x5x3 ROI, 32 grey levels, the four expensive parameters,
50x50x32x32 IIC-to-TEXTURE chunks, demand-driven buffer scheduling.
RFR-to-IIC chunks are always whole slices (Section 5.1), so they take no
setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..datacutter.faults import RetryPolicy
from ..filters.messages import TextureParams

__all__ = ["AnalysisConfig", "clip_chunk_shape"]

VARIANTS = ("hmp", "split")


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
    num_iic_copies:
        Input-stitch (IIC) copy count.  The output stitch (HIC) always
        runs as one copy.
    scheduling:
        Buffer scheduling policy for the texture streams
        (``"demand_driven"`` or ``"round_robin"``).
    retry:
        Fault-tolerance policy for failed ``process()`` calls
        (:class:`~repro.datacutter.faults.RetryPolicy`); ``None`` uses
        the runtime default (3 attempts with backoff, reroute enabled).
    """

    texture: TextureParams = field(default_factory=TextureParams)
    variant: str = "hmp"
    texture_chunk_shape: Tuple[int, ...] = (50, 50, 32, 32)
    num_texture_copies: int = 1
    num_hcc_copies: int = 1
    num_hpc_copies: int = 1
    num_iic_copies: int = 1
    scheduling: str = "demand_driven"
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.scheduling not in ("demand_driven", "round_robin"):
            raise ValueError(f"unsupported scheduling {self.scheduling!r}")
        for n in (
            self.num_texture_copies,
            self.num_hcc_copies,
            self.num_hpc_copies,
            self.num_iic_copies,
        ):
            if n < 1:
                raise ValueError("all copy counts must be >= 1")
        if len(self.texture_chunk_shape) != len(self.texture.roi_shape):
            raise ValueError("chunk shape dimensionality != ROI dimensionality")
