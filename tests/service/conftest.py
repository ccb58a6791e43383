"""Shared fixtures for the analysis-service suite: one small dataset."""

import numpy as np
import pytest

from repro.data.synthetic import PhantomConfig, generate_phantom
from repro.filters.messages import TextureParams
from repro.pipeline.config import AnalysisConfig
from repro.storage.dataset import write_dataset

SHAPE = (12, 10, 6, 3)
ROI = (3, 3, 3, 2)
LEVELS = 8


@pytest.fixture(scope="package")
def dataset_root(tmp_path_factory):
    volume = generate_phantom(PhantomConfig(shape=SHAPE, seed=7))
    root = str(tmp_path_factory.mktemp("svc") / "data")
    write_dataset(volume, root, num_nodes=2)
    return root


@pytest.fixture(scope="package")
def second_dataset_root(tmp_path_factory):
    volume = generate_phantom(PhantomConfig(shape=SHAPE, seed=13))
    root = str(tmp_path_factory.mktemp("svc2") / "data")
    write_dataset(volume, root, num_nodes=2)
    return root


#: TextureParams fields make_config routes into the texture dataclass.
_TEXTURE_FIELDS = (
    "levels", "distance", "intensity_range", "kernel", "roi_shape",
)


def make_config(features=("asm", "idm"), **kwargs):
    texture_kwargs = {
        k: kwargs.pop(k) for k in _TEXTURE_FIELDS if k in kwargs
    }
    texture_kwargs.setdefault("roi_shape", ROI)
    texture_kwargs.setdefault("levels", LEVELS)
    texture_kwargs.setdefault("intensity_range", (0.0, 65535.0))
    kwargs.setdefault("texture_chunk_shape", (8, 8, 4, 3))
    return AnalysisConfig(
        texture=TextureParams(features=tuple(features), **texture_kwargs),
        **kwargs,
    )


@pytest.fixture
def config():
    return make_config()


def assert_volumes_equal(got, want):
    assert sorted(got) == sorted(want)
    for name in want:
        assert np.array_equal(got[name], want[name]), name
