"""The analysis service's decision record: what the cache, batching and
a second worker buy, measured the ledger's way.

Not a paper figure.  A service job that has to compute is one
``run_pipeline`` call (docs/service.md, "How a job runs"); what the
service adds on top is measured here as alternating pairs
(``harness.measure``: median, quartiles, pairs won, fingerprint):

* **cold_vs_warm** — the 50-job, two-tenant, six-configuration
  acceptance workload of ISSUE 7, once with the cache and batching off
  (every job pays a pipeline pass) and once as shipped.
* **workers** — one worker against two on cold traffic, per runtime
  (``threads``, ``processes``), on mixed configurations and on one
  configuration.  A second worker pays only with a runtime that leaves
  the GIL.
* **batching** — feature-disjoint duplicates (``asm`` then ``idm`` on
  one dataset and configuration, cache off), with batching on and off:
  on, each such pair lands in one pipeline pass.

Every job of every row is checked bit for bit against a one-shot
``run_pipeline`` with the same request before anything is timed.

``pytest benchmarks/bench_service.py -k smoke`` is the CI smoke (two
pairs per row, smaller worker rows, no file written) and gates what the
service promises: bit-identity, >= 50% cache hits and fewer passes than
jobs on the duplicate-heavy workload, weighted fairness under
saturation, batched jobs.  Wall-clock is recorded, never gated.
``python benchmarks/bench_service.py`` takes the full record and
rewrites ``BENCH_service.json``; run it as the ledger runs, with
``OPENBLAS_NUM_THREADS=1``.
"""

import functools
import os
import shutil
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import measure, record_repo_json  # noqa: E402
from ledger import run as _paths  # noqa: E402,F401  puts src/ on the path

from repro.data.synthetic import PhantomConfig, generate_phantom  # noqa: E402
from repro.filters.messages import TextureParams  # noqa: E402
from repro.pipeline.config import AnalysisConfig  # noqa: E402
from repro.pipeline.run import run_pipeline  # noqa: E402
from repro.service import (  # noqa: E402
    AnalysisRequest,
    AnalysisService,
    RuntimeProfile,
    ServiceConfig,
)
from repro.storage.dataset import write_dataset  # noqa: E402

SHAPE = (16, 14, 6, 4)
ROI = (3, 3, 3, 2)
FEATURES = ("asm", "idm")
#: 6 distinct configurations (levels x distance); 50 jobs cycle over
#: them, so the workload is duplicate-heavy on purpose.
CONFIG_GRID = [(levels, distance)
               for levels in (6, 8, 10) for distance in (1, 2)]
NUM_JOBS = 50
TENANTS = ("clinical", "batch")
WEIGHTS = {"clinical": 2.0, "batch": 1.0}


def make_dataset(tmpdir):
    root = os.path.join(str(tmpdir), "ds")
    write_dataset(generate_phantom(PhantomConfig(shape=SHAPE, seed=3)),
                  root, num_nodes=2)
    return root


def config_for(levels, distance, features=FEATURES):
    return AnalysisConfig(
        texture=TextureParams(
            roi_shape=ROI, levels=levels, features=features,
            distance=distance, intensity_range=(0.0, 65535.0),
        ),
        texture_chunk_shape=(8, 8, 4, 3),
    )


@functools.lru_cache(maxsize=None)
def baseline(dataset_root, levels, distance):
    """One-shot ``run_pipeline`` volumes of one configuration."""
    return run_pipeline(dataset_root, config_for(levels, distance)).volumes


def check_bit_identical(jobs, results):
    for job, result in zip(jobs, results):
        req = job.request
        texture = req.config.texture
        want = baseline(req.dataset_root, texture.levels, texture.distance)
        assert sorted(result.volumes) == sorted(texture.features)
        for name, vol in result.volumes.items():
            assert vol.tobytes() == want[name].tobytes(), (
                f"{job.id}/{name} diverged from run_pipeline"
            )


def run_jobs(service_config, waves):
    """Submit ``waves`` (lists of requests) one after the other to a
    fresh service, waiting for each wave; returns jobs, results, stats."""
    jobs, results = [], []
    with AnalysisService(service_config) as svc:
        for wave in waves:
            submitted = [svc.submit(req) for req in wave]
            jobs += submitted
            results += [job.result(timeout=600) for job in submitted]
        counters = svc.metrics.snapshot()["counters"]
        stats = {
            "pipeline_runs": int(counters.get("service_runs", 0)),
            "batched_jobs": int(counters.get("service_batched_jobs", 0)),
            "cache_hit_rate": round(svc.cache.stats()["hit_rate"], 4),
            "mean_wait": {
                tenant: round(float(np.mean(
                    [r.queue_wait for j, r in zip(jobs, results)
                     if j.tenant == tenant]
                )), 4)
                for tenant in sorted({j.tenant for j in jobs})
            },
        }
    return jobs, results, stats


def _row(sides, pairs, num_jobs):
    """One bench row: check both sides once (warm-up, and the contract),
    then time them as alternating pairs.  ``sides`` maps a name to
    ``(ServiceConfig, waves)``."""
    row = {"jobs": num_jobs}
    for name, (service_config, waves) in sides.items():
        jobs, results, stats = run_jobs(service_config, waves)
        assert len(jobs) == num_jobs
        check_bit_identical(jobs, results)
        row[name] = stats
    timed = measure(
        {name: (lambda side=side: run_jobs(*side))
         for name, side in sides.items()},
        pairs,
    )
    for name in sides:
        row[name].update(timed.pop(name))
        row[name]["jobs_per_sec"] = round(num_jobs / row[name]["median_s"], 2)
    row.update(timed)
    return row


def acceptance_workload(dataset_root, cacheable):
    """The 50-job mix: tenants alternate, configs cycle over the grid.

    Submitted as two waves — one job per distinct configuration, then
    the duplicate-heavy remainder — so the second wave models tenants
    re-requesting analyses the service has already produced.
    """
    reqs = [
        AnalysisRequest(
            dataset_root,
            config_for(*CONFIG_GRID[i % len(CONFIG_GRID)]),
            tenant=TENANTS[i % len(TENANTS)],
            use_cache=cacheable,
            batchable=cacheable,
        )
        for i in range(NUM_JOBS)
    ]
    service_config = ServiceConfig(
        workers=1, max_queued=NUM_JOBS + 8, tenant_weights=WEIGHTS,
        batching=cacheable, cache_bytes=(256 << 20) if cacheable else 0,
    )
    return service_config, [reqs[:len(CONFIG_GRID)], reqs[len(CONFIG_GRID):]]


def cold_traffic(dataset_root, workers, runtime, grid, num_jobs):
    """``num_jobs`` cache-off, unbatchable jobs cycling over ``grid``."""
    profile = RuntimeProfile(runtime=runtime)
    reqs = [
        AnalysisRequest(
            dataset_root, config_for(*grid[i % len(grid)]), profile=profile,
            use_cache=False, batchable=False,
        )
        for i in range(num_jobs)
    ]
    service_config = ServiceConfig(
        workers=workers, max_queued=num_jobs + 8, batching=False, cache_bytes=0,
    )
    return service_config, [reqs]


def disjoint_duplicates(dataset_root, batching, num_jobs):
    """``asm`` then ``idm`` on one dataset and configuration, all queued
    at once behind one worker: nothing for the cache to serve, and a
    pair for batching to merge each time the worker pops."""
    reqs = [
        AnalysisRequest(
            dataset_root,
            config_for(*CONFIG_GRID[(i // 2) % len(CONFIG_GRID)],
                       features=(FEATURES[i % 2],)),
            use_cache=False,
        )
        for i in range(num_jobs)
    ]
    service_config = ServiceConfig(
        workers=1, max_queued=num_jobs + 8, batching=batching, cache_bytes=0,
    )
    return service_config, [reqs]


def decision_record(pairs, worker_jobs):
    """Everything ``BENCH_service.json`` holds."""
    work = tempfile.mkdtemp(prefix="bench-service-")
    try:
        root = make_dataset(work)
        rows = {
            "cold_vs_warm": _row(
                {"cold": acceptance_workload(root, cacheable=False),
                 "warm": acceptance_workload(root, cacheable=True)},
                pairs, NUM_JOBS,
            ),
        }
        for runtime in ("threads", "processes"):
            for label, grid in (("mixed_configs", CONFIG_GRID),
                                ("one_config", CONFIG_GRID[:1])):
                rows[f"workers_{runtime}_{label}"] = _row(
                    {f"workers_{n}": cold_traffic(
                        root, n, runtime, grid, worker_jobs)
                     for n in (1, 2)},
                    pairs, worker_jobs,
                )
        rows["batching_disjoint_duplicates"] = _row(
            {"unbatched": disjoint_duplicates(root, False, worker_jobs),
             "batched": disjoint_duplicates(root, True, worker_jobs)},
            pairs, worker_jobs,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    fingerprint = [row.pop("fingerprint") for row in rows.values()][0]
    return {
        "workload": {
            "dataset_shape": list(SHAPE),
            "roi": list(ROI),
            "features": list(FEATURES),
            "distinct_configs": len(CONFIG_GRID),
            "tenants": list(TENANTS),
            "tenant_weights": WEIGHTS,
        },
        "rows": rows,
        "fingerprint": fingerprint,
    }


def _print(record):
    for name, row in record["rows"].items():
        won = row["pairs_won"]
        a, b = won
        print(f"{name:>30}: " + "  ".join(
            f"{side} {row[side]['jobs_per_sec']:6.2f} jobs/s "
            f"({row[side]['median_s']:.3f} s [{row[side]['q1_s']:.3f}, "
            f"{row[side]['q3_s']:.3f}], {row[side]['pipeline_runs']} passes)"
            for side in (a, b)
        ) + f"  {b} ahead {won[b]}/{row['pairs']}")


def test_service_decision_record_smoke():
    """What the service promises, on every row; wall-clock is recorded,
    never gated (a second worker loses on threads on a 2-core box)."""
    record = decision_record(pairs=2, worker_jobs=12)
    _print(record)
    rows = record["rows"]
    cold, warm = rows["cold_vs_warm"]["cold"], rows["cold_vs_warm"]["warm"]
    # >= 50% cache hits on the duplicate-heavy workload, and the cache
    # and batching spare passes: cold pays one per job.
    assert warm["cache_hit_rate"] >= 0.5, warm
    assert cold["pipeline_runs"] == NUM_JOBS
    assert warm["pipeline_runs"] < NUM_JOBS
    # Weighted fairness under saturation: the weight-2 tenant waits no
    # longer than the weight-1 tenant (cold side: no batching, so the
    # queue order is pure weighted fair queuing).
    assert (cold["mean_wait"]["clinical"]
            <= cold["mean_wait"]["batch"] * 1.05), cold["mean_wait"]
    # Feature-disjoint duplicates share passes only through batching.
    batching = rows["batching_disjoint_duplicates"]
    assert batching["unbatched"]["batched_jobs"] == 0
    assert batching["unbatched"]["pipeline_runs"] == batching["jobs"]
    assert batching["batched"]["batched_jobs"] >= 1
    assert batching["batched"]["pipeline_runs"] < batching["jobs"]


if __name__ == "__main__":
    full = decision_record(pairs=10, worker_jobs=24)
    _print(full)
    print("wrote", record_repo_json("BENCH_service.json", full))
