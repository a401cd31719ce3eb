"""The service's forked worker processes.

Full chaos runs and cluster scenarios execute in one forked child per
worker thread; step-time queries and degraded chaos runs stay on the
thread.  Across that boundary the payloads must equal in-process
execution, a job's telemetry must arrive whole (series, histograms,
spans, flight records — the seed-3284 postmortem included), a child that
dies mid-job must take the worker-crash retry path, and a stopped service
must leave no child behind and start again.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
from collections import Counter

import pytest

from repro import telemetry
from repro.service import (
    JobFailed,
    ServiceConfig,
    SimJob,
    SimulationService,
    executors,
    run_sweep,
)
from repro.service import service as service_mod
from repro.service import spec as spec_mod
from repro.service.limits import OPEN


@pytest.fixture(autouse=True)
def _fresh_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


def _service(**overrides) -> SimulationService:
    return SimulationService(
        ServiceConfig(**overrides), clock=lambda: 0.0, sleep=lambda s: None
    )


def _chaos(seed: int, **extra) -> dict:
    return {"mesh_shape": [2, 2], "steps": 12, "seed": seed,
            "expected_chip_failures": 1.0, "expected_stragglers": 1.0, **extra}


CLUSTER = {
    "tenants": [
        {"name": "a", "slice_shape": [2, 2], "target_steps": 10},
        {"name": "b", "slice_shape": [2, 2], "target_steps": 10, "priority": 1},
    ],
    "mesh_shape": [4, 4], "max_ticks": 300, "expected_chip_failures": 1.0,
    "seed": 5,
}


class TestRouting:
    def test_heavy_jobs_run_in_the_worker_process_light_ones_on_the_thread(
        self, monkeypatch
    ):
        def where(job, degraded=False):
            if job.params.get("fail"):
                raise ValueError("injected")
            return {"pid": os.getpid()}

        monkeypatch.setattr(service_mod, "execute", where)
        svc = _service(concurrency=1, queue_depth=8, cache_entries=0,
                       breaker_threshold=1, breaker_cooldown_s=100.0)
        with svc:
            def pid(kind, **params):
                return svc.submit(SimJob(kind, params)).result()["pid"]

            child = svc._processes[0].process.pid
            assert pid("steptime") == os.getpid()
            assert pid("chaos") == child
            assert pid("cluster") == child
            # Trip the chaos breaker: the degraded run stays on the thread.
            svc.submit(SimJob("chaos", {"fail": True})).outcome(timeout=30.0)
            assert svc.breaker("chaos").state == OPEN
            assert pid("chaos", i=1) == os.getpid()


class TestPayloadParity:
    @pytest.mark.parametrize("seed", [0, 4, 9])
    def test_chaos_payload_equals_in_process_execution(self, seed):
        job = SimJob("chaos", _chaos(seed))
        with _service(concurrency=1, queue_depth=4) as svc:
            through = svc.submit(job).result(timeout=60.0)
        direct = executors.execute(job)
        assert json.dumps(through, sort_keys=True) == json.dumps(direct, sort_keys=True)

    def test_cluster_payload_equals_in_process_execution(self):
        job = SimJob("cluster", CLUSTER)
        with _service(concurrency=1, queue_depth=4) as svc:
            through = svc.submit(job).result(timeout=60.0)
        direct = executors.execute(job)
        assert json.dumps(through, sort_keys=True) == json.dumps(direct, sort_keys=True)


def _telemetry_view() -> tuple:
    """Series, histogram counts, span names and flight records, without the
    service's own ``service_*`` series."""
    scalars, histograms = {}, {}
    for kind, name, _, labels, value in telemetry.metrics.export_state():
        if name.startswith("service_"):
            continue
        if kind == "histogram":
            histograms[(name, labels)] = value[2]
        else:
            scalars[(kind, name, labels)] = value
    spans = Counter(e.name for e in telemetry.tracer.trace.events)
    records = Counter((r.kind, r.name) for r in telemetry.flight_recorder.records)
    return scalars, histograms, spans, records


class TestTelemetryCrossesWhole:
    def test_a_forked_job_records_what_the_same_job_records_in_thread(self):
        job = SimJob("chaos", _chaos(4))
        # The service first: its child forks from the process state the
        # in-thread run below starts from.
        with _service(concurrency=1, queue_depth=4) as svc:
            svc.submit(job).result(timeout=60.0)
            forked = _telemetry_view()
        telemetry.reset()
        executors.execute(job)
        in_thread = _telemetry_view()

        scalars, histograms, spans, records = forked
        assert set(scalars) == set(in_thread[0])
        integer = [
            key for key, value in in_thread[0].items()
            if key[0] == "counter" and float(value).is_integer()
        ]
        assert integer
        assert {k: scalars[k] for k in integer} == {k: in_thread[0][k] for k in integer}
        assert histograms == in_thread[1]
        assert spans == in_thread[2] and spans["chaos_restart"] > 0
        assert records == in_thread[3] and records[("chaos", "chip_failure")] > 0

    def test_span_times_land_inside_the_job(self):
        with _service(concurrency=1, queue_depth=4) as svc:
            before = telemetry.tracer.now()
            svc.submit(SimJob("chaos", _chaos(4))).result(timeout=60.0)
            after = telemetry.tracer.now()
        events = telemetry.tracer.trace.events
        assert events
        assert all(before <= e.start and e.start + e.duration <= after for e in events)

    def test_disabled_telemetry_stays_off_in_the_child(self):
        job = SimJob("chaos", _chaos(4))
        with telemetry.disabled(), _service(concurrency=1, queue_depth=4) as svc:
            payload = svc.submit(job).result(timeout=60.0)
        assert telemetry.metrics.export_state() == []
        assert telemetry.tracer.trace.events == []
        assert len(telemetry.flight_recorder) == 0
        assert payload == executors.execute(job)

    def test_all_chips_dead_postmortem_holds_the_childs_records(self):
        """The seed-3284 plan of ``TestAllChipsDeadPlan`` in test_service.py:
        the service's postmortem holds the run the child recorded."""
        params = {"mesh_shape": [2, 2], "steps": 50, "seed": 3284,
                  "expected_chip_failures": 0.3, "expected_stragglers": 1.0}
        with _service(concurrency=1, queue_depth=4) as svc:
            handle = svc.submit(SimJob("chaos", params))
            with pytest.raises(JobFailed, match="DeviceLostError: "):
                handle.result(timeout=60.0)
        bundle = telemetry.flight_recorder.last_postmortem
        assert bundle["reason"] == "service.job_failed"
        kinds = Counter((r["kind"], r["name"]) for r in bundle["records"])
        assert kinds[("span", "train_step")] == 26
        assert kinds[("chaos", "chip_failure")] == 4
        assert kinds[("chaos", "restart")] == 3
        assert kinds[("fault", "DeviceLostError")] == 1
        assert kinds[("fault", "JobFailed")] == 1


class TestChildDeath:
    def test_a_child_that_dies_mid_job_is_reforked_and_the_job_retried(
        self, monkeypatch, tmp_path
    ):
        died = tmp_path / "died"

        def dies_once(job, degraded=False):
            if not died.exists():
                died.write_text(str(os.getpid()))
                os._exit(1)
            return {"pid": os.getpid()}

        monkeypatch.setattr(service_mod, "execute", dies_once)
        svc = _service(concurrency=1, queue_depth=4, cache_entries=0)
        with svc:
            handle = svc.submit(SimJob("chaos", {"i": 0}, name="victim"))
            payload = handle.result(timeout=30.0)
        assert handle.attempts == 2
        assert payload["pid"] not in (os.getpid(), int(died.read_text()))
        assert (svc.stats.worker_crashes, svc.stats.retries) == (1, 1)
        assert svc.stats.accounted() and svc.stats.completed == 1
        crashes = [
            r.data for r in telemetry.flight_recorder.records
            if (r.kind, r.name) == ("service", "worker_crash")
        ]
        assert crashes == [{"job": "victim", "worker": 0, "attempt": 1}]
        assert telemetry.metrics.value("service_worker_crashes") == 1
        assert not multiprocessing.active_children()

    def test_a_child_killed_on_every_attempt_fails_the_job(self, monkeypatch):
        monkeypatch.setattr(
            service_mod, "execute",
            lambda job, degraded=False: os.kill(os.getpid(), signal.SIGKILL),
        )
        svc = _service(concurrency=1, queue_depth=4, cache_entries=0)
        attempts = svc.config.retry_policy.max_attempts
        with svc:
            handle = svc.submit(SimJob("cluster", {"i": 0}, name="doomed"))
            with pytest.raises(JobFailed) as exc_info:
                handle.result(timeout=30.0)
        assert exc_info.value.attempts == attempts
        assert f"crashed executing 'doomed' (attempt {attempts})" in exc_info.value.cause
        stats = svc.stats
        assert (stats.worker_crashes, stats.retries, stats.failed) == (
            attempts, attempts - 1, 1
        )
        assert svc.stats.accounted()
        bundle = telemetry.flight_recorder.last_postmortem
        assert bundle["reason"] == "service.job_failed"
        assert sum(
            (r["kind"], r["name"]) == ("service", "worker_crash")
            for r in bundle["records"]
        ) == attempts
        assert not multiprocessing.active_children()

    def test_an_exception_that_cannot_be_pickled_still_fails_the_job(
        self, monkeypatch
    ):
        class LocalError(Exception):
            """Defined in a function: pickle cannot find it by name."""

        def raises(job, degraded=False):
            raise LocalError("boom")

        monkeypatch.setattr(service_mod, "execute", raises)
        with _service(concurrency=1, queue_depth=4) as svc:
            handle = svc.submit(SimJob("chaos", {}))
            with pytest.raises(JobFailed) as exc_info:
                handle.result(timeout=30.0)
        assert handle.attempts == 1
        assert exc_info.value.cause == "ServiceError: LocalError: boom"


class TestLifecycle:
    def test_a_stopped_service_starts_again(self):
        svc = _service(concurrency=2, queue_depth=8)
        for seed in (1, 2):
            with svc:
                assert svc.submit(SimJob("chaos", _chaos(seed))).outcome(60.0)[0] == "ok"
                assert svc.submit(SimJob("steptime", {"chips": 64 * seed})).outcome()[0] == "ok"
            assert not multiprocessing.active_children()
        assert svc.stats.completed == 4 and svc.stats.accounted()


def test_a_submitted_miss_canonicalises_its_spec_once(monkeypatch, tmp_path):
    calls = []
    canonical_spec = spec_mod.canonical_spec

    def counted(kind, params):
        calls.append(kind)
        return canonical_spec(kind, params)

    monkeypatch.setattr(spec_mod, "canonical_spec", counted)
    with _service(concurrency=1, queue_depth=4, default_deadline_s=60.0) as svc:
        job = SimJob("steptime", {"chips": 64})
        # A deadline that differs from the job's re-wraps it.
        assert svc.submit(job, deadline_s=30.0).outcome()[0] == "ok"
        assert calls == ["steptime"]
        swept = SimJob("steptime", {"chips": 256})
        run_sweep(svc, [swept], tmp_path / "journal.jsonl")
    assert calls == ["steptime", "steptime"]
