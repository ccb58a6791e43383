"""Filter-graph builders for the two pipeline variants.

``build_graph`` wires the end-to-end network of paper Figs. 4 and 5:

* HMP variant::

      RFR x S --explicit--> IIC x I --sched--> HMP x N ----> output
* split variant::

      RFR x S --explicit--> IIC x I --sched--> HCC x C --sched--> HPC x P ----> output

where the output stage is HIC, the one output filter.
"""

from __future__ import annotations

from typing import List, Tuple

from ..chunks.chunking import ChunkSpec, partition
from ..datacutter.graph import FilterGraph
from ..filters.hcc import HaralickCoMatrixCalculator
from ..filters.hic import HaralickImageConstructor
from ..filters.hmp import HaralickMatrixProducer
from ..filters.hpc import HaralickParameterCalculator
from ..filters.iic import InputImageConstructor
from ..filters.messages import (
    HCC_TO_HPC,
    IIC_TO_TEXTURE,
    RFR_TO_IIC,
    TEXTURE_TO_OUTPUT,
)
from ..filters.rfr import RawFileReader
from ..storage.dataset import DiskDataset4D
from .config import AnalysisConfig, clip_chunk_shape

__all__ = ["build_graph", "plan_chunks"]


def plan_chunks(
    dataset_shape: Tuple[int, ...], config: AnalysisConfig
) -> List[ChunkSpec]:
    """IIC-to-TEXTURE chunk plan for a dataset under this config."""
    roi = config.texture.roi
    chunk_shape = clip_chunk_shape(
        config.texture_chunk_shape, dataset_shape, config.texture.roi_shape
    )
    return partition(dataset_shape, roi, chunk_shape)


def build_graph(dataset: DiskDataset4D, config: AnalysisConfig) -> FilterGraph:
    """Build the filter network for one run over an opened dataset."""
    chunks = plan_chunks(dataset.shape, config)
    params = config.texture
    graph = FilterGraph()
    root = dataset.root
    n_iic = config.num_iic_copies

    graph.add_filter(
        "RFR",
        lambda: RawFileReader(
            dataset_root=root, chunks=chunks, num_iic_copies=n_iic
        ),
        copies=dataset.num_nodes,
    )
    graph.add_filter(
        "IIC",
        lambda: InputImageConstructor(chunks=chunks),
        copies=n_iic,
    )
    graph.connect("RFR", RFR_TO_IIC, "IIC", policy="explicit")

    if config.variant == "hmp":
        graph.add_filter(
            "HMP",
            lambda: HaralickMatrixProducer(params),
            copies=config.num_texture_copies,
        )
        graph.connect("IIC", IIC_TO_TEXTURE, "HMP", policy=config.scheduling)
        tex_out = "HMP"
    else:
        graph.add_filter(
            "HCC",
            lambda: HaralickCoMatrixCalculator(params),
            copies=config.num_hcc_copies,
        )
        graph.add_filter(
            "HPC",
            lambda: HaralickParameterCalculator(params),
            copies=config.num_hpc_copies,
        )
        graph.connect("IIC", IIC_TO_TEXTURE, "HCC", policy=config.scheduling)
        graph.connect("HCC", HCC_TO_HPC, "HPC", policy=config.scheduling)
        tex_out = "HPC"

    graph.add_filter(
        "HIC",
        lambda: HaralickImageConstructor(
            dataset_shape=dataset.shape,
            roi_shape=params.roi_shape,
            features=params.features,
        ),
    )
    graph.connect(tex_out, TEXTURE_TO_OUTPUT, "HIC", policy=config.scheduling)

    graph.validate()
    return graph
