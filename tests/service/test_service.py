"""AnalysisService end-to-end: caching, batching, fairness, admission."""

import dataclasses
import time

import numpy as np
import pytest

from repro.data.synthetic import PhantomConfig, generate_phantom
from repro.pipeline.run import run_pipeline
from repro.service import (
    AdmissionError,
    AnalysisRequest,
    AnalysisService,
    JobError,
    JobStatus,
    RuntimeProfile,
    ServiceConfig,
)
from repro.storage.dataset import write_dataset

from .conftest import assert_volumes_equal, make_config


def make_service(**kwargs):
    kwargs.setdefault("workers", 2)
    return AnalysisService(ServiceConfig(**kwargs))


@pytest.fixture(scope="module")
def baseline(dataset_root):
    return run_pipeline(dataset_root, make_config()).volumes


class TestBasics:
    def test_result_bit_identical_to_run_pipeline(self, dataset_root, baseline):
        with make_service() as svc:
            job = svc.submit(AnalysisRequest(dataset_root, make_config()))
            result = job.result(timeout=120)
            assert_volumes_equal(result.volumes, baseline)
            assert job.status == JobStatus.DONE
            assert svc.status(job.id) == JobStatus.DONE

    def test_submit_with_kwargs(self, dataset_root, baseline):
        with make_service() as svc:
            job = svc.submit(dataset_root=dataset_root, config=make_config())
            assert_volumes_equal(job.result(timeout=120).volumes, baseline)

    def test_rejects_missing_dataset(self):
        with make_service() as svc:
            with pytest.raises(ValueError, match="not a directory"):
                svc.submit(AnalysisRequest("/nonexistent/path"))

    def test_failed_job_raises_from_result(self, tmp_path):
        # An existing directory that is not a dataset fails at the
        # prepare phase, inside the worker.
        (tmp_path / "junk.txt").write_text("not a dataset")
        with make_service() as svc:
            job = svc.submit(AnalysisRequest(
                str(tmp_path), make_config(), use_cache=False,
            ))
            with pytest.raises(JobError, match="failed"):
                job.result(timeout=120)
            assert job.status == JobStatus.FAILED
            assert job.error is not None

    def test_unknown_job_id(self, dataset_root):
        with make_service() as svc:
            with pytest.raises(KeyError):
                svc.status("j-999999")


class TestCache:
    def test_duplicate_served_from_cache(self, dataset_root, baseline):
        with make_service(workers=1) as svc:
            first = svc.submit(AnalysisRequest(dataset_root, make_config()))
            first.result(timeout=120)
            second = svc.submit(AnalysisRequest(dataset_root, make_config()))
            result = second.result(timeout=120)
            assert result.from_cache_only
            assert result.batch_size == 0
            assert result.cached == ("asm", "idm")
            assert_volumes_equal(result.volumes, baseline)
            assert svc.cache.stats()["hits"] >= 2
            assert svc.metrics.snapshot()["counters"]["service_runs"] == 1

    def test_overlap_computes_only_difference(self, dataset_root):
        with make_service(workers=1) as svc:
            svc.submit(AnalysisRequest(
                dataset_root, make_config(("asm", "idm")),
            )).result(timeout=120)
            job = svc.submit(AnalysisRequest(
                dataset_root, make_config(("idm", "sum_of_squares")),
            ))
            result = job.result(timeout=120)
            assert result.cached == ("idm",)
            assert result.computed == ("sum_of_squares",)
            expected = run_pipeline(
                dataset_root, make_config(("idm", "sum_of_squares"))
            ).volumes
            assert_volumes_equal(result.volumes, expected)

    def test_cache_key_separates_parameters(self, dataset_root):
        with make_service(workers=1) as svc:
            svc.submit(AnalysisRequest(dataset_root, make_config())).result(
                timeout=120
            )
            job = svc.submit(AnalysisRequest(
                dataset_root, make_config(distance=2),
            ))
            assert job.result(timeout=120).computed == ("asm", "idm")

    def test_use_cache_false_bypasses(self, dataset_root):
        with make_service(workers=1) as svc:
            svc.submit(AnalysisRequest(dataset_root, make_config())).result(
                timeout=120
            )
            job = svc.submit(AnalysisRequest(
                dataset_root, make_config(), use_cache=False, batchable=False,
            ))
            assert job.result(timeout=120).computed == ("asm", "idm")

    def test_cache_disabled_service(self, dataset_root):
        with make_service(workers=1, cache_bytes=0) as svc:
            for _ in range(2):
                result = svc.submit(
                    AnalysisRequest(dataset_root, make_config())
                ).result(timeout=120)
                assert result.computed == ("asm", "idm")


class TestBatching:
    def test_identical_jobs_share_passes(self, dataset_root, baseline):
        with make_service(workers=1, batch_max=8) as svc:
            jobs = [
                svc.submit(AnalysisRequest(
                    dataset_root, make_config(),
                    tenant=f"t{i % 2}", use_cache=False,
                ))
                for i in range(6)
            ]
            results = [j.result(timeout=300) for j in jobs]
            for r in results:
                assert_volumes_equal(r.volumes, baseline)
            # The worker popped at most one solo job before the rest
            # were queued, so everything else ran in one batched pass.
            runs = svc.metrics.snapshot()["counters"]["service_runs"]
            assert runs <= 2
            assert any(r.batch_size > 1 for r in results)

    def test_batch_unions_feature_sets(self, dataset_root):
        with make_service(workers=1, batch_max=8) as svc:
            job_a = svc.submit(AnalysisRequest(
                dataset_root, make_config(("asm",)), use_cache=False,
            ))
            job_b = svc.submit(AnalysisRequest(
                dataset_root, make_config(("idm",)), use_cache=False,
            ))
            ra = job_a.result(timeout=300)
            rb = job_b.result(timeout=300)
            assert set(ra.volumes) == {"asm"}
            assert set(rb.volumes) == {"idm"}
            expected = run_pipeline(
                dataset_root, make_config(("asm", "idm"))
            ).volumes
            assert np.array_equal(ra.volumes["asm"], expected["asm"])
            assert np.array_equal(rb.volumes["idm"], expected["idm"])

    def test_non_batchable_jobs_run_alone(self, dataset_root):
        with make_service(workers=1) as svc:
            jobs = [
                svc.submit(AnalysisRequest(
                    dataset_root, make_config(),
                    use_cache=False, batchable=False,
                ))
                for _ in range(3)
            ]
            for j in jobs:
                assert j.result(timeout=300).batch_size == 1
            counters = svc.metrics.snapshot()["counters"]
            assert counters["service_runs"] == 3
            assert "service_batches" not in counters


class TestConcurrency:
    def test_same_config_jobs_overlap_on_two_workers(self, tmp_path):
        # Worker concurrency is ServiceConfig.workers and nothing else:
        # two cache-off jobs on one dataset and config run side by side.
        # The windows are those of the runs' own trace events, because
        # a job's [start, start + elapsed] also covers whatever it waited
        # for after a worker picked it up.
        volume = generate_phantom(PhantomConfig(shape=(40, 40, 8, 6), seed=3))
        root = str(tmp_path / "data")
        write_dataset(volume, root, num_nodes=2)
        config = make_config(
            ("asm", "idm"), levels=32, intensity_range=(0.0, 4095.0),
            texture_chunk_shape=(20, 20, 8, 6), num_texture_copies=1,
        )
        want = run_pipeline(root, config, runtime="processes").volumes
        with make_service(workers=2) as svc:
            jobs = [
                svc.submit(AnalysisRequest(
                    root, config, profile=RuntimeProfile(runtime="processes"),
                    use_cache=False, batchable=False, trace=True,
                ))
                for _ in range(2)
            ]
            results = [j.result(timeout=300) for j in jobs]
        windows = []
        for res in results:
            assert_volumes_equal(res.volumes, want)
            assert res.elapsed >= 0.3, "study too small to show an overlap"
            events = res.trace.events
            windows.append(
                (min(ev.start for ev in events), max(ev.ts for ev in events))
            )
        (a0, a1), (b0, b1) = windows
        assert max(a0, b0) < min(a1, b1), windows


class TestAdmissionAndFairness:
    def test_saturated_queue_rejects_with_reason(self, dataset_root):
        with make_service(workers=1, max_queued=2) as svc:
            jobs = []
            with pytest.raises(AdmissionError, match="saturated") as exc:
                for _ in range(16):
                    jobs.append(svc.submit(AnalysisRequest(
                        dataset_root, make_config(),
                        use_cache=False, batchable=False,
                    )))
            assert "retry later" in exc.value.reason
            counters = svc.metrics.snapshot()["counters"]
            assert counters["service_rejected{tenant=default}"] >= 1
            for j in jobs:
                j.result(timeout=300)

    def test_rejected_job_not_tracked(self, dataset_root):
        with make_service(workers=1, max_queued=1) as svc:
            jobs = []
            try:
                for _ in range(16):
                    jobs.append(svc.submit(AnalysisRequest(
                        dataset_root, make_config(),
                        use_cache=False, batchable=False,
                    )))
            except AdmissionError:
                pass
            assert len(svc.jobs()) == len(jobs)
            for j in jobs:
                j.result(timeout=300)

    def test_weighted_tenants_both_progress(self, dataset_root, baseline):
        with make_service(
            workers=1, tenant_weights={"gold": 3.0, "bronze": 1.0},
            max_queued=32,
        ) as svc:
            jobs = []
            for i in range(4):
                for tenant in ("gold", "bronze"):
                    jobs.append(svc.submit(AnalysisRequest(
                        dataset_root, make_config(), tenant=tenant,
                        use_cache=False, batchable=False,
                    )))
            for j in jobs:
                assert_volumes_equal(j.result(timeout=600).volumes, baseline)
            waits = svc.metrics.snapshot()["histograms"]
            gold = waits["service_queue_wait_seconds{tenant=gold}"]
            bronze = waits["service_queue_wait_seconds{tenant=bronze}"]
            assert gold["count"] == bronze["count"] == 4
            # Under saturation the heavier tenant drains first.
            assert gold["mean"] <= bronze["mean"]


class TestCancelAndShutdown:
    def test_cancel_queued_job(self, dataset_root):
        with make_service(workers=1) as svc:
            blocker = svc.submit(AnalysisRequest(
                dataset_root, make_config(), use_cache=False, batchable=False,
            ))
            victim = svc.submit(AnalysisRequest(
                dataset_root, make_config(), use_cache=False, batchable=False,
            ))
            cancelled = svc.cancel(victim.id)
            blocker.result(timeout=300)
            if cancelled:  # the worker may have claimed it first
                assert victim.status == JobStatus.CANCELLED
                with pytest.raises(JobError, match="cancelled"):
                    victim.result(timeout=10)
            else:
                victim.result(timeout=300)

    def test_shutdown_cancels_queued_rejects_new(self, dataset_root):
        svc = make_service(workers=1)
        running = svc.submit(AnalysisRequest(
            dataset_root, make_config(), use_cache=False, batchable=False,
        ))
        queued = [
            svc.submit(AnalysisRequest(
                dataset_root, make_config(), use_cache=False, batchable=False,
            ))
            for _ in range(3)
        ]
        svc.shutdown(wait=True, timeout=120)
        assert running.done()
        assert any(j.status == JobStatus.CANCELLED for j in queued) or all(
            j.done() for j in queued
        )
        with pytest.raises(AdmissionError, match="shut down"):
            svc.submit(AnalysisRequest(dataset_root, make_config()))

    def test_idle_workers_block_and_leave_on_close(self):
        # No poll tick: idle workers wait on the queue's condition and
        # close() wakes them, so an idle service stops at once.  Best of
        # three, so a descheduled test process does not read as a tick.
        took = []
        for _ in range(3):
            svc = make_service(workers=2)
            time.sleep(0.1)  # let both workers reach the wait
            t0 = time.perf_counter()
            svc.shutdown(wait=True, timeout=10)
            took.append(time.perf_counter() - t0)
            assert not any(t.is_alive() for t in svc._workers)
        assert min(took) < 0.02, took

    def test_config_fields_are_the_seven_that_do_something(self):
        # Concurrency is `workers` alone: no pool size, no poll tick; the
        # result cache is RAM alone: no spill budget or directory.
        assert {f.name for f in dataclasses.fields(ServiceConfig)} == {
            "workers", "max_queued", "tenant_weights", "default_weight",
            "batching", "batch_max", "cache_bytes",
        }

    @pytest.mark.parametrize("knob", ["cache_spill_bytes", "cache_spill_dir"])
    def test_config_has_no_cache_spill(self, knob):
        with pytest.raises(TypeError):
            ServiceConfig(**{knob: 1})

    def test_stats_shape(self, dataset_root):
        with make_service(workers=1) as svc:
            svc.submit(AnalysisRequest(dataset_root, make_config())).result(
                timeout=120
            )
            stats = svc.stats()
            assert set(stats) == {"queue", "cache", "jobs", "metrics"}
            assert stats["jobs"][JobStatus.DONE] == 1
            assert stats["metrics"]["counters"]["service_runs"] == 1
