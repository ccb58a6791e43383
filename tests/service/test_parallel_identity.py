"""N parallel service jobs are bit-identical to N sequential one-shot
``run_pipeline`` calls — with and without fault injection, across
runtimes."""

import numpy as np
import pytest

from repro.datacutter.faults import FaultPlan
from repro.pipeline.run import run_pipeline
from repro.service import (
    AnalysisRequest,
    AnalysisService,
    RuntimeProfile,
    ServiceConfig,
)

from .conftest import assert_volumes_equal, make_config


def split_config(**kwargs):
    # The split variant with >= 2 HCC copies gives crash faults a
    # surviving copy to reroute to.
    return make_config(
        variant="split", num_hcc_copies=2, num_hpc_copies=1, **kwargs
    )


def submit_n(svc, dataset_root, config, n, **kwargs):
    return [
        svc.submit(AnalysisRequest(dataset_root, config, **kwargs))
        for _ in range(n)
    ]


class TestParallelIdentity:
    def test_parallel_jobs_match_sequential_runs(self, dataset_root):
        config = make_config(("asm", "correlation", "idm"))
        sequential = [run_pipeline(dataset_root, config).volumes
                      for _ in range(4)]
        with AnalysisService(ServiceConfig(workers=3)) as svc:
            jobs = submit_n(svc, dataset_root, config, 4,
                            use_cache=False, batchable=False)
            parallel = [j.result(timeout=300).volumes for j in jobs]
        for seq, par in zip(sequential, parallel):
            assert_volumes_equal(par, seq)
        # Sequential runs are themselves deterministic, so one baseline
        # comparison per job suffices — but assert it explicitly.
        for seq in sequential[1:]:
            assert_volumes_equal(seq, sequential[0])

    def test_mixed_configs_and_datasets_in_parallel(self, dataset_root,
                                                    second_dataset_root):
        config_a = make_config(("asm",))
        config_b = make_config(("idm",), distance=2)
        base_a = run_pipeline(dataset_root, config_a).volumes
        base_b = run_pipeline(second_dataset_root, config_b).volumes
        with AnalysisService(ServiceConfig(workers=2)) as svc:
            jobs_a = submit_n(svc, dataset_root, config_a, 2,
                              use_cache=False, batchable=False)
            jobs_b = submit_n(svc, second_dataset_root, config_b, 2,
                              use_cache=False, batchable=False)
            for j in jobs_a:
                assert_volumes_equal(j.result(timeout=300).volumes, base_a)
            for j in jobs_b:
                assert_volumes_equal(j.result(timeout=300).volumes, base_b)

    @pytest.mark.parametrize("runtime", ["threads", "processes"])
    def test_faulted_jobs_recover_bit_identical(self, dataset_root, runtime):
        config = split_config()
        clean = run_pipeline(dataset_root, config).volumes
        # One plan object per job: plans are mutable builder objects.
        profile = RuntimeProfile(runtime=runtime, max_queue=16)
        with AnalysisService(ServiceConfig(workers=2)) as svc:
            faulted = [
                svc.submit(AnalysisRequest(
                    dataset_root, config, profile=profile,
                    faults=FaultPlan().crash_copy(
                        "HCC", copy_index=0, after_buffers=0
                    ),
                ))
                for _ in range(2)
            ]
            witness = svc.submit(AnalysisRequest(
                dataset_root, config, profile=profile,
                use_cache=False, batchable=False,
            ))
            for job in faulted + [witness]:
                assert_volumes_equal(job.result(timeout=600).volumes, clean)

    def test_faulted_jobs_never_batch_or_cache(self, dataset_root):
        config = split_config()
        plan = FaultPlan().crash_copy("HCC", copy_index=0, after_buffers=0)
        with AnalysisService(ServiceConfig(workers=1)) as svc:
            faulted = svc.submit(AnalysisRequest(
                dataset_root, config, faults=plan,
            ))
            result = faulted.result(timeout=600)
            assert result.batch_size == 1
            assert result.cached == ()
            # Nothing the faulted run produced may land in the cache.
            assert svc.cache.stats()["puts"] == 0

    def test_unrecoverable_fault_fails_only_its_job(self, dataset_root):
        from repro.service import JobError

        config = split_config()
        clean = run_pipeline(dataset_root, config).volumes
        # Crash every HCC copy: no survivor to reroute to.
        plan = (FaultPlan()
                .crash_copy("HCC", copy_index=0, after_buffers=0, hard=True)
                .crash_copy("HCC", copy_index=1, after_buffers=0, hard=True))
        with AnalysisService(ServiceConfig(workers=1)) as svc:
            doomed = svc.submit(AnalysisRequest(
                dataset_root, config, faults=plan,
            ))
            follower = svc.submit(AnalysisRequest(
                dataset_root, config, use_cache=False, batchable=False,
            ))
            with pytest.raises(JobError):
                doomed.result(timeout=600)
            # Nothing of the doomed run outlives it: the next job on the
            # same dataset and config gets a fresh run (and the suite's
            # leak gate sees no child or thread of the doomed one).
            assert_volumes_equal(follower.result(timeout=600).volumes, clean)
