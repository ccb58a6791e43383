"""Request-side types of the service: the runtime profile."""

import pytest

from repro.service import RuntimeProfile


class TestRuntimeProfile:
    def test_rejects_unknown_runtime(self):
        with pytest.raises(ValueError):
            RuntimeProfile(runtime="gpu")

    def test_hosts_normalized_to_tuple(self):
        prof = RuntimeProfile(runtime="distributed", hosts=["h1", "h2"])
        assert prof.hosts == ("h1", "h2")
        assert hash(prof)  # stays usable as (part of) the batch key

    def test_has_no_elastic_field(self):
        # Distributed membership is fixed when the run starts.
        with pytest.raises(TypeError):
            RuntimeProfile(runtime="distributed", elastic=True)
