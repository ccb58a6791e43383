"""Quickstart: the always-on analysis service.

Generates a small synthetic DCE-MRI study on disk, starts an in-process
:class:`repro.service.AnalysisService`, and submits a duplicate-heavy
mix of texture-analysis jobs from two tenants.  The run demonstrates
the three things the service adds over one-shot ``run_pipeline`` calls:

* **content-addressed result cache** — re-submitting an analysis the
  service has already produced is served from the cache without a
  pipeline pass;
* **request batching** — duplicates queued at the same time share one
  pipeline pass (a pass that does run is one ``run_pipeline`` call);
* **weighted fair scheduling** — the ``clinical`` tenant (weight 2)
  gets twice the share of the queue that ``batch`` (weight 1) does.

Run:
    python examples/service_quickstart.py

With ``--serve`` the same service is additionally exposed on a loopback
TCP socket and exercised through :class:`repro.service.ServiceClient`,
the transport behind ``repro serve`` / ``repro submit``.
"""

import argparse
import tempfile

from repro.data import PhantomConfig, generate_phantom
from repro.filters.messages import TextureParams
from repro.pipeline.config import AnalysisConfig
from repro.service import (
    AnalysisRequest,
    AnalysisService,
    ServiceClient,
    ServiceConfig,
    ServiceServer,
)
from repro.storage.dataset import write_dataset


def make_config(levels):
    return AnalysisConfig(
        texture=TextureParams(
            roi_shape=(3, 3, 3, 2), levels=levels,
            features=("asm", "idm"), intensity_range=(0.0, 4095.0),
        ),
        texture_chunk_shape=(8, 8, 4, 3),
    )


def run_service_demo(dataset_root):
    config = ServiceConfig(
        workers=2,
        tenant_weights={"clinical": 2.0, "batch": 1.0},
    )
    with AnalysisService(config) as service:
        # Two distinct configurations, submitted repeatedly by two
        # tenants in three rounds.  Round 1 runs the pipeline and
        # fills the cache; later rounds are served from it — waiting
        # between rounds models tenants re-requesting analyses the
        # service has already produced (simultaneous duplicates are
        # instead packed into one batched pipeline pass).
        jobs, results = [], []
        for round_no in range(3):
            batch = [
                service.submit(AnalysisRequest(
                    dataset_root, make_config(levels), tenant=tenant,
                ))
                for levels in (8, 16)
                for tenant in ("clinical", "batch")
            ]
            jobs += batch
            results += [job.result(timeout=300) for job in batch]

        print(f"ran {len(jobs)} jobs from 2 tenants over 2 configurations")
        for job, result in zip(jobs, results):
            source = ("cache" if result.from_cache_only
                      else "pipeline" + (" (batched)" if result.batch_size > 1
                                         else ""))
            asm = result.volumes["asm"]
            print(f"  {job.id} [{job.tenant:<8}] {source:<20} "
                  f"asm mean={asm.mean():.4f}")

        stats = service.stats()
        print(f"\ncache: {stats['cache']['hits']} hits, "
              f"{stats['cache']['misses']} misses "
              f"({stats['cache']['hit_rate']:.0%} hit rate)")
        counters = stats["metrics"]["counters"]
        print(f"runs:  {counters.get('service_runs', 0)} pipeline passes "
              f"for {len(jobs)} jobs "
              f"({counters.get('service_jobs_from_cache', 0)} served "
              f"entirely from cache)")


def run_wire_demo(dataset_root):
    """The same service behind the JSON-lines TCP protocol."""
    with AnalysisService(ServiceConfig(workers=1)) as service:
        with ServiceServer(service, port=0) as server:
            with ServiceClient(port=server.port) as client:
                job_id = client.submit(
                    dataset=dataset_root, features=["asm"],
                    roi=[3, 3, 3, 2], levels=8,
                    intensity_range=[0.0, 4095.0], tenant="clinical",
                )
                resp = client.result(job_id, timeout=300, arrays=True)
                asm = resp["volumes"]["asm"]
                print(f"\nover the wire: {job_id} -> asm {asm.shape}, "
                      f"mean={asm.mean():.4f}")
                print(f"server stats: {client.stats()['cache']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--serve", action="store_true",
        help="also exercise the loopback TCP server + client",
    )
    args = parser.parse_args(argv)

    volume = generate_phantom(PhantomConfig(shape=(16, 14, 6, 4), seed=11))
    with tempfile.TemporaryDirectory() as td:
        root = td + "/study"
        write_dataset(volume, root, num_nodes=2)
        print(f"dataset: {volume.shape} study at {root}\n")
        run_service_demo(root)
        if args.serve:
            run_wire_demo(root)


if __name__ == "__main__":
    main()
