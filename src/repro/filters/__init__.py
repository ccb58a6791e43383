"""The application filters of the Haralick pipeline (Section 4.3).

Input filters: :class:`RawFileReader` (RFR), :class:`InputImageConstructor`
(IIC).  Texture filters: :class:`HaralickMatrixProducer` (HMP, combined) or
the split :class:`HaralickCoMatrixCalculator` (HCC) +
:class:`HaralickParameterCalculator` (HPC).  Output filter:
:class:`HaralickImageConstructor` (HIC), which stitches the parameter
volumes.  The paper's other two output filters are not filters here: its
image series is :func:`repro.viz.write_feature_images`, called on the
volumes after the run, and its unstitched record files (USO) have no
counterpart (DESIGN.md, "Substitutions").
"""

from .hcc import HaralickCoMatrixCalculator
from .hic import HaralickImageConstructor
from .hmp import HaralickMatrixProducer
from .hpc import HaralickParameterCalculator
from .iic import InputImageConstructor
from .messages import (
    FeaturePortion,
    MatrixPacket,
    SlicePortion,
    TextureChunk,
    TextureParams,
    iic_copy_for_chunk,
)
from .rfr import RawFileReader

__all__ = [
    "RawFileReader",
    "InputImageConstructor",
    "HaralickMatrixProducer",
    "HaralickCoMatrixCalculator",
    "HaralickParameterCalculator",
    "HaralickImageConstructor",
    "TextureParams",
    "SlicePortion",
    "TextureChunk",
    "MatrixPacket",
    "FeaturePortion",
    "iic_copy_for_chunk",
]
