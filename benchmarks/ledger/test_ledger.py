"""Checks of the ledger itself; run with ``python -m pytest benchmarks/ledger -q``.

Not part of the tier-1 suite (``testpaths`` is ``tests``).
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import run  # puts the ledger directory and src/ on sys.path
import measure
import spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_benchmark_json_is_the_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == spec.benchmark_json()


def test_names_units_and_bounds_fit_the_contract():
    names = [w.name for w in spec.WORKLOADS] + list(spec.units())
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(u) for u in spec.units().values())
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in spec.WORKLOADS)
    bounds = {name: bound for name, _, _, bound in spec.END_TO_END}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.fixture(scope="module")
def smoke_ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--smoke",
         "--out", str(out)],
        check=True, timeout=600,
    )
    with open(out) as fh:
        return json.load(fh)


def test_smoke_reports_every_workload_and_metric(smoke_ledger):
    units = spec.units()
    assert list(smoke_ledger["workloads"]) == [w.name for w in spec.WORKLOADS]
    for entry in smoke_ledger["workloads"].values():
        assert entry["correct"] and entry["failed"] == 0
        assert list(entry["end_to_end"]) == [m[0] for m in spec.END_TO_END]
        assert list(entry["per_layer"]) == [m[0] for m in spec.PER_LAYER]
        for name, metric in {**entry["end_to_end"], **entry["per_layer"]}.items():
            assert metric["unit"] == units[name]
        assert all(m["value"] > 0 for m in entry["end_to_end"].values())
        layer = entry["per_layer"]
        assert layer["chunks.count"]["value"] == 2
        assert layer["replay.coverage"]["value"] >= spec.MIN_COVERAGE
        assert layer["replay.bit_identical"]["value"] == 1
    assert smoke_ledger["fingerprint"]["logical_cores"] == os.cpu_count()


def test_smoke_ledger_compares_equal_to_itself(smoke_ledger, tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(smoke_ledger))
    assert run.compare(str(path), str(path))
    slower = json.loads(json.dumps(smoke_ledger))
    slower["workloads"]["hmp_threads"]["end_to_end"]["peak_rss_mb"]["value"] *= 2
    worse = tmp_path / "b.json"
    worse.write_text(json.dumps(slower))
    assert not run.compare(str(path), str(worse))


def test_corrupted_chunk_is_a_failed_operation():
    w = spec.workload("hmp_threads").smoke()
    cfg = measure.config_for(w)
    volume = measure.generate_phantom(measure.PhantomConfig(shape=w.shape, seed=3))
    want = measure.oracle(volume, cfg)
    chunks = measure.plan_chunks(w.shape, cfg)
    assert len(chunks) == 2
    got = {name: vol.copy() for name, vol in want.items()}
    assert measure.failed_chunks(chunks, got, want) == 0
    got["idm"][chunks[1].own_lo] += 1e-6
    assert measure.failed_chunks(chunks, got, want) == 1
    got["asm"][chunks[0].own_lo] = np.nan
    assert measure.failed_chunks(chunks, got, want) == 2
    # A run that raised has no output: every chunk of it failed.
    assert measure.failed_chunks(chunks, None, want) == 2
