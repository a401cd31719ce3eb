"""What one job costs the service, counted: the light path's per-job work.

A step-time miss builds its breakdown once, derives no retry key, and
copies its payload into the cache without ``copy.deepcopy``; a job that
retries derives its key once and sleeps the shared policy's delays.  The
reported step time is the model's own, bit for bit.
"""

from __future__ import annotations

import copy

import pytest

from repro import telemetry
from repro.core import step_time
from repro.core.strategy import ParallelismConfig
from repro.experiments import calibration
from repro.seeding import derive_subseed
from repro.service import ServiceConfig, SimJob, SimulationService
from repro.service import service as service_mod
from repro.service.executors import execute_steptime


@pytest.fixture(autouse=True)
def _fresh_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


def _counting(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.name`` so each call appends to the returned list."""
    calls: list = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def _service(sleep=lambda s: None, **overrides) -> SimulationService:
    return SimulationService(
        ServiceConfig(concurrency=1, queue_depth=8, **overrides), sleep=sleep
    )


def test_steptime_miss_builds_once_derives_nothing_deep_copies_nothing(monkeypatch):
    svc = _service()
    with svc:
        breakdowns = _counting(monkeypatch, step_time.StepTimeModel, "breakdown")
        derived = _counting(monkeypatch, service_mod, "derive_subseed")
        deep_copies = _counting(monkeypatch, copy, "deepcopy")
        payload = svc.submit(SimJob("steptime", {"chips": 64})).result()
    assert svc.stats.completed == 1 and svc.stats.cache_hits == 0
    assert payload["chips"] == 64
    assert len(breakdowns) == 1
    assert len(derived) == 0
    assert len(deep_copies) == 0


def test_retrying_job_derives_its_key_once(monkeypatch):
    delays: list[float] = []
    svc = _service(sleep=delays.append, crashes=(("flaky", 1), ("flaky", 2)))
    derived = _counting(monkeypatch, service_mod, "derive_subseed")
    with svc:
        handle = svc.submit(SimJob("steptime", {"chips": 64}, name="flaky"))
        handle.result()
    assert handle.attempts == 3 and svc.stats.retries == 2
    assert len(derived) == 1
    key = derive_subseed(svc.config.seed, "service-retry", "flaky")
    policy = svc.config.retry_policy
    assert delays == [policy.delay_after(1, key=key), policy.delay_after(2, key=key)]


@pytest.mark.parametrize("overlap", [False, True])
@pytest.mark.parametrize("chips", [16, 4096])
@pytest.mark.parametrize("model", ["resnet50", "bert", "dlrm"])
def test_reported_step_time_is_the_models(model, chips, overlap):
    payload = execute_steptime({"model": model, "chips": chips, "overlap": overlap})
    expected = step_time.StepTimeModel(
        calibration.spec_for(model),
        ParallelismConfig(num_chips=chips, global_batch=8192),
        overlap=overlap,
        overlap_buckets=1,
    ).step_time()
    assert payload["step_time_s"].hex() == expected.hex()
