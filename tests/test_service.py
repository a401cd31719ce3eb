"""Simulation-as-a-service tests.

Covers the typed rejection taxonomy (overloaded / rate-limited /
deadline-exceeded — never silent loss), the per-client token bucket and
per-class circuit breaker against a frozen clock, seed-deterministic
worker-crash injection with shared-RetryPolicy retries, terminal
failures dumping flight-recorder postmortems, the content-addressed
result cache (bit-identical hits, LRU eviction telemetry), journaled
kill-and-resume sweeps (zero recomputation, bit-identical payloads at
every interrupt point — property-tested), the service-to-cluster
adapter, and the load experiment's accounting invariant.
"""

from __future__ import annotations

import itertools
import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.service import (
    CircuitBreaker,
    CrashPlan,
    JobFailed,
    Overloaded,
    RateLimited,
    ResultCache,
    ServiceConfig,
    ServiceError,
    SimJob,
    SimulationService,
    SweepInterrupted,
    SweepJournal,
    TokenBucket,
    canonical_spec,
    content_key,
    run_sweep,
    sweep_id,
)
from repro.service import service as service_mod
from repro.service.limits import CLOSED, HALF_OPEN, OPEN


@pytest.fixture(autouse=True)
def _fresh_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


class FakeClock:
    """Monotonic clock the test advances by hand."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _service(clock=None, **overrides) -> SimulationService:
    cfg = ServiceConfig(**overrides)
    return SimulationService(
        cfg,
        clock=clock if clock is not None else FakeClock(),
        sleep=lambda s: None,
    )


class TestSpecAndContentKey:
    def test_canonical_spec_is_order_and_spelling_invariant(self):
        a = canonical_spec("chaos", {"steps": 10, "mesh_shape": (2, 2)})
        b = canonical_spec("chaos", {"mesh_shape": [2, 2], "steps": 10})
        assert a == b
        assert content_key("chaos", {"steps": 10, "mesh_shape": (2, 2)}) == \
            content_key("chaos", {"mesh_shape": [2, 2], "steps": 10})

    def test_name_and_deadline_do_not_enter_the_key(self):
        plain = SimJob("steptime", {"chips": 64})
        named = SimJob("steptime", {"chips": 64}, name="x", deadline_s=5.0)
        assert plain.content_key == named.content_key

    def test_unknown_kind_and_unserializable_params_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            SimJob("bogus", {})
        with pytest.raises(TypeError, match="JSON"):
            SimJob("steptime", {"fn": object()})
        with pytest.raises(ValueError, match="deadline"):
            SimJob("steptime", {}, deadline_s=0.0)

    @pytest.mark.parametrize("params", [[1], "x", 3, None])
    def test_params_that_are_not_an_object_rejected(self, params):
        # Admitted, they would fail only in the executor, as an
        # AttributeError on ``params.get``.
        with pytest.raises(TypeError, match="params must be a JSON object"):
            SimJob("steptime", params)

    def test_label_defaults_to_kind_plus_key_prefix(self):
        job = SimJob("steptime", {"chips": 64})
        assert job.label == f"steptime:{job.content_key[:12]}"
        assert SimJob("steptime", {}, name="n").label == "n"


class TestTokenBucket:
    def test_burst_then_deny_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(2, 1.0, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(1.0)
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_tokens_cap_at_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(3, 10.0, clock=clock)
        clock.advance(100.0)
        assert bucket.tokens == 3.0


class TestCircuitBreaker:
    def _breaker(self, clock):
        return CircuitBreaker(failure_threshold=2, cooldown_s=1.0, clock=clock)

    def test_trips_after_consecutive_failures_only(self):
        br = self._breaker(FakeClock())
        br.record_failure()
        br.record_success()  # success resets the consecutive count
        br.record_failure()
        assert br.state == CLOSED
        br.record_failure()
        assert br.state == OPEN
        assert br.trips == 1
        assert not br.allow()

    def test_half_open_probe_closes_on_success(self):
        clock = FakeClock()
        br = self._breaker(clock)
        br.record_failure()
        br.record_failure()
        clock.advance(1.0)
        assert br.state == HALF_OPEN
        assert br.allow()        # the single probe
        assert not br.allow()    # everyone else still held
        br.record_success()
        assert br.state == CLOSED
        assert br.recoveries == 1

    def test_half_open_probe_failure_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        br = self._breaker(clock)
        br.record_failure()
        br.record_failure()
        clock.advance(1.0)
        assert br.allow()
        br.record_failure()
        assert br.state == OPEN
        assert br.trips == 2
        clock.advance(0.5)
        assert not br.allow()
        clock.advance(0.5)
        assert br.allow()


class TestResultCache:
    def test_lru_eviction_and_stats(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == {"v": 1}  # refreshes a
        cache.put("c", {"v": 3})           # evicts b (LRU)
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1}
        assert cache.get("c") == {"v": 3}
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["hits"] == 3 and stats["misses"] == 1

    @pytest.mark.parametrize(
        "make, mutate",
        [
            (lambda: {"nested": {"v": 1, "w": {"x": 2.5}}},
             lambda p: p["nested"]["w"].update(x=999)),
            (lambda: {"losses": [0.5, 0.25, 0.125]},
             lambda p: (p["losses"].append(1.0), p["losses"].__setitem__(0, 9.0))),
            (lambda: {"pair": ([1, 2], "tag")},
             lambda p: p["pair"][0].append(3)),
            # Not a JSON type: the copy falls back to ``copy.deepcopy``.
            (lambda: {"grid": np.arange(4.0)},
             lambda p: p["grid"].__setitem__(0, -1.0)),
        ],
        ids=["nested-dict", "list-of-floats", "tuple-holding-list", "ndarray"],
    )
    def test_hits_are_isolated_copies(self, make, mutate):
        cache = ResultCache()
        given = make()
        cache.put("k", given)
        mutate(given)
        np.testing.assert_equal(cache.get("k"), make())
        mutate(cache.get("k"))
        np.testing.assert_equal(cache.get("k"), make())


class TestCrashPlan:
    def test_seeded_rate_is_deterministic(self):
        a = CrashPlan(seed=7, crash_rate=0.5)
        b = CrashPlan(seed=7, crash_rate=0.5)
        decisions = [(l, k) for l in ("x", "y", "z") for k in (1, 2, 3)]
        assert [a.should_crash(*d) for d in decisions] == \
            [b.should_crash(*d) for d in decisions]
        assert any(a.should_crash(*d) for d in decisions)

    def test_poisoned_and_pinned_crashes(self):
        plan = CrashPlan(poisoned=("dead",), crashes=(("once", 1),))
        assert plan.should_crash("dead", 1) and plan.should_crash("dead", 99)
        assert plan.should_crash("once", 1) and not plan.should_crash("once", 2)
        assert not CrashPlan().active and plan.active


class TestTypedShedding:
    def test_queue_overflow_sheds_typed_overloaded(self, monkeypatch):
        release, started = threading.Event(), threading.Event()

        def gate_execute(job, degraded=False):
            started.set()
            release.wait(10)
            return {"ran": job.params["i"]}

        monkeypatch.setattr(service_mod, "execute", gate_execute)
        svc = _service(concurrency=1, queue_depth=1, cache_entries=0)
        with svc:
            h1 = svc.submit(SimJob("steptime", {"i": 0}))
            assert started.wait(5)  # the worker now holds h1
            h2 = svc.submit(SimJob("steptime", {"i": 1}))  # fills the queue
            with pytest.raises(Overloaded) as exc_info:
                svc.submit(SimJob("steptime", {"i": 2}))
            assert exc_info.value.reason == "overloaded"
            release.set()
            assert h1.result()["ran"] == 0 and h2.result()["ran"] == 1
            snap = svc.snapshot()
        assert snap["rejected"] == {"overloaded": 1}
        # No silent loss: every submission is accounted.
        assert snap["submitted"] == 3 == snap["completed"] + snap["failed"] + 1

    def test_rate_limit_sheds_typed_and_refills(self, monkeypatch):
        monkeypatch.setattr(
            service_mod, "execute", lambda job, degraded=False: {"ok": 1}
        )
        clock = FakeClock()
        svc = _service(
            clock=clock, concurrency=1, queue_depth=16,
            rate_capacity=2, rate_refill_per_s=1.0, cache_entries=0,
        )
        with svc:
            svc.submit(SimJob("steptime", {"i": 0}), client="greedy").result()
            svc.submit(SimJob("steptime", {"i": 1}), client="greedy").result()
            with pytest.raises(RateLimited) as exc_info:
                svc.submit(SimJob("steptime", {"i": 2}), client="greedy")
            assert exc_info.value.reason == "rate_limited"
            # Another client has its own bucket.
            svc.submit(SimJob("steptime", {"i": 3}), client="other").result()
            # The greedy client recovers after the refill.
            clock.advance(1.0)
            svc.submit(SimJob("steptime", {"i": 4}), client="greedy").result()
            assert svc.stats.rejected == {"rate_limited": 1}

    def test_deadline_ages_out_in_queue(self, monkeypatch):
        clock = FakeClock()
        release, started = threading.Event(), threading.Event()

        def gate_execute(job, degraded=False):
            started.set()
            release.wait(10)
            return {}

        monkeypatch.setattr(service_mod, "execute", gate_execute)
        svc = _service(clock=clock, concurrency=1, queue_depth=8,
                       cache_entries=0)
        with svc:
            svc.submit(SimJob("steptime", {"i": 0}))
            assert started.wait(5)
            stale = svc.submit(SimJob("steptime", {"i": 1}, deadline_s=5.0))
            clock.advance(10.0)  # the queued job ages past its deadline
            release.set()
            reason, payload = stale.outcome(timeout=5.0)
        assert (reason, payload) == ("deadline_exceeded", None)

    def test_deadline_checked_after_execution_too(self, monkeypatch):
        clock = FakeClock()

        def slow_execute(job, degraded=False):
            clock.advance(10.0)
            return {"late": True}

        monkeypatch.setattr(service_mod, "execute", slow_execute)
        svc = _service(clock=clock, concurrency=1, queue_depth=8,
                       cache_entries=0)
        with svc:
            handle = svc.submit(SimJob("steptime", {}, deadline_s=5.0))
            assert handle.outcome(timeout=5.0)[0] == "deadline_exceeded"


class TestRetryAndPostmortem:
    def test_crash_retries_on_shared_policy_then_succeeds(self, monkeypatch):
        monkeypatch.setattr(
            service_mod, "execute", lambda job, degraded=False: {"ok": 1}
        )
        delays: list[float] = []
        cfg = ServiceConfig(
            concurrency=1, queue_depth=8, cache_entries=0,
            crashes=(("flaky", 1), ("flaky", 2)),
        )
        svc = SimulationService(cfg, clock=FakeClock(), sleep=delays.append)
        with svc:
            handle = svc.submit(SimJob("steptime", {}, name="flaky"))
            assert handle.result() == {"ok": 1}
            assert handle.attempts == 3
            assert svc.stats.worker_crashes == 2 and svc.stats.retries == 2
        # Backoff is the shared RetryPolicy's deterministic schedule.
        from repro.cluster.jobs import derive_subseed

        key = derive_subseed(cfg.seed, "service-retry", "flaky")
        policy = cfg.retry_policy
        assert delays == [
            policy.delay_after(1, key=key), policy.delay_after(2, key=key)
        ]

    def test_poisoned_job_fails_terminally_with_postmortem(self):
        svc = _service(concurrency=1, queue_depth=8, cache_entries=0,
                       poisoned=("dead",))
        with svc:
            handle = svc.submit(SimJob("steptime", {"chips": 64}, name="dead"))
            with pytest.raises(JobFailed) as exc_info:
                handle.result()
        assert exc_info.value.attempts == svc.config.retry_policy.max_attempts
        bundle = telemetry.flight_recorder.last_postmortem
        assert bundle is not None
        assert bundle["reason"] == "service.job_failed"
        kinds = {r["kind"] for r in bundle["records"]}
        assert "service" in kinds  # the crash timeline is in the bundle

    def test_deterministic_executor_error_fails_without_retry(self):
        svc = _service(concurrency=1, queue_depth=8, cache_entries=0)
        with svc:
            # 48 chips has no canonical slice: the spec itself is bad, so
            # retrying would burn budget for nothing.
            handle = svc.submit(SimJob("steptime", {"chips": 48}))
            with pytest.raises(JobFailed, match="no canonical slice"):
                handle.result()
            assert handle.attempts == 1


class TestBreakerIntegration:
    def _failing_execute(self, job, degraded=False):
        if job.params.get("fail") and not degraded:
            raise ValueError("injected executor failure")
        return {"mode": "accounting" if degraded else "full"}

    def test_trip_degrade_and_recover_without_restart(self, monkeypatch):
        monkeypatch.setattr(service_mod, "execute", self._failing_execute)
        clock = FakeClock()
        svc = _service(
            clock=clock, concurrency=1, queue_depth=8, cache_entries=0,
            breaker_threshold=2, breaker_cooldown_s=1.0,
        )
        with svc:
            for i in range(2):
                handle = svc.submit(SimJob("chaos", {"fail": True, "i": i}))
                assert handle.outcome(timeout=5.0)[0] == "failed"
            assert svc.breaker("chaos").state == OPEN
            # Open breaker: chaos degrades to accounting-only mode.
            handle = svc.submit(SimJob("chaos", {"i": 2}))
            assert handle.result() == {"mode": "accounting"}
            assert handle.degraded
            assert svc.stats.degraded == 1
            # After the cool-down the half-open probe runs full mode and
            # its success closes the circuit — same process, no restart.
            clock.advance(1.0)
            handle = svc.submit(SimJob("chaos", {"i": 3}))
            assert handle.result() == {"mode": "full"}
            assert not handle.degraded
            br = svc.breaker("chaos")
            assert br.state == CLOSED and br.trips == 1 and br.recoveries == 1

    def test_open_breaker_sheds_non_degradable_kinds(self, monkeypatch):
        monkeypatch.setattr(service_mod, "execute", self._failing_execute)
        svc = _service(concurrency=1, queue_depth=8, cache_entries=0,
                       breaker_threshold=2, breaker_cooldown_s=100.0)
        with svc:
            for i in range(2):
                svc.submit(
                    SimJob("steptime", {"fail": True, "i": i})
                ).outcome(timeout=5.0)
            handle = svc.submit(SimJob("steptime", {"i": 2}))
            reason, _ = handle.outcome(timeout=5.0)
            assert reason == "overloaded"

    def test_degraded_payloads_are_not_cached(self, monkeypatch):
        monkeypatch.setattr(service_mod, "execute", self._failing_execute)
        clock = FakeClock()
        svc = _service(clock=clock, concurrency=1, queue_depth=8,
                       breaker_threshold=1, breaker_cooldown_s=1.0)
        with svc:
            svc.submit(SimJob("chaos", {"fail": True})).outcome(timeout=5.0)
            degraded = svc.submit(SimJob("chaos", {"x": 1}))
            assert degraded.result() == {"mode": "accounting"}
            assert svc.cache.get(degraded.job.content_key) is None
            # Once recovered, the full-mode result of the same spec is
            # cached — an accounting payload never shadows it.
            clock.advance(1.0)
            full = svc.submit(SimJob("chaos", {"x": 1}))
            assert full.result() == {"mode": "full"}
            assert svc.cache.get(full.job.content_key) == {"mode": "full"}


class TestContentAddressedCache:
    def test_identical_specs_hit_bit_identically(self):
        svc = _service(concurrency=2, queue_depth=8)
        with svc:
            first = svc.submit(
                SimJob("chaos", {"mesh_shape": (2, 2), "steps": 8, "seed": 3})
            )
            payload_a = first.result(timeout=30.0)
            # Different name, list spelling, different param order: same key.
            second = svc.submit(
                SimJob("chaos", {"seed": 3, "steps": 8, "mesh_shape": [2, 2]},
                       name="renamed")
            )
            payload_b = second.result(timeout=30.0)
        assert not first.cached and second.cached
        assert payload_a == payload_b
        assert json.dumps(payload_a, sort_keys=True) == \
            json.dumps(payload_b, sort_keys=True)

    def test_cache_telemetry_counters_flow(self, monkeypatch):
        monkeypatch.setattr(
            service_mod, "execute", lambda job, degraded=False: {"ok": 1}
        )
        svc = _service(concurrency=1, queue_depth=8, cache_entries=1)
        with svc:
            svc.submit(SimJob("steptime", {"i": 0})).result()
            svc.submit(SimJob("steptime", {"i": 0})).result()  # hit
            svc.submit(SimJob("steptime", {"i": 1})).result()  # evicts i=0
        snap = telemetry.metrics.snapshot()
        assert snap["service_cache_hits"]["values"][0]["value"] == 1
        assert snap["service_cache_evictions"]["values"][0]["value"] == 1
        assert snap["service_completed"]["values"][0]["value"] == 3


def _sweep_jobs(n: int = 5) -> list[SimJob]:
    return [
        SimJob("steptime", {"chips": 256, "global_batch": 1024 * (i + 1)})
        for i in range(n)
    ]


def _fresh_sweep_service() -> SimulationService:
    # Real clock (latencies irrelevant here), cache off so the journal is
    # the only thing that can prevent recomputation.
    return SimulationService(
        ServiceConfig(concurrency=2, queue_depth=16, cache_entries=0)
    )


class TestResumableSweep:
    @settings(deadline=None, max_examples=8)
    @given(interrupt_after=st.integers(min_value=1, max_value=4))
    def test_kill_and_resume_is_bit_identical_at_every_point(
        self, tmp_path_factory, interrupt_after
    ):
        tmp = tmp_path_factory.mktemp("sweep")
        jobs = _sweep_jobs(5)
        with _fresh_sweep_service() as svc:
            with pytest.raises(SweepInterrupted):
                run_sweep(svc, jobs, tmp / "journal.jsonl",
                          interrupt_after=interrupt_after)
        # A new service (fresh process stand-in): only the tail re-runs.
        with _fresh_sweep_service() as svc:
            resumed = run_sweep(svc, jobs, tmp / "journal.jsonl")
        assert resumed.reused == interrupt_after
        assert resumed.executed == len(jobs) - interrupt_after
        with _fresh_sweep_service() as svc:
            uninterrupted = run_sweep(svc, jobs, tmp / "fresh.jsonl")
        assert resumed.payloads == uninterrupted.payloads
        assert json.dumps(resumed.payloads) == json.dumps(
            uninterrupted.payloads
        )

    def test_completed_journal_reruns_with_zero_executions(self, tmp_path):
        jobs = _sweep_jobs(3)
        with _fresh_sweep_service() as svc:
            first = run_sweep(svc, jobs, tmp_path / "j.jsonl")
            again = run_sweep(svc, jobs, tmp_path / "j.jsonl")
        assert first.executed == 3
        assert again.executed == 0 and again.reused == 3
        assert again.payloads == first.payloads

    def test_journal_refuses_a_different_job_set(self, tmp_path):
        with _fresh_sweep_service() as svc:
            run_sweep(svc, _sweep_jobs(2), tmp_path / "j.jsonl")
            with pytest.raises(ServiceError, match="refusing to resume"):
                run_sweep(svc, _sweep_jobs(3), tmp_path / "j.jsonl")

    def test_torn_trailing_line_is_ignored_and_rerun(self, tmp_path):
        jobs = _sweep_jobs(3)
        path = tmp_path / "j.jsonl"
        with _fresh_sweep_service() as svc:
            run_sweep(svc, jobs, path)
        lines = path.read_text().splitlines()
        # Simulate a kill mid-append: the last record is half-written.
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:10])
        journal = SweepJournal(path)
        entries = journal.load(sweep_id(jobs))
        assert len(entries) == 2
        with _fresh_sweep_service() as svc:
            resumed = run_sweep(svc, jobs, path)
        assert resumed.reused == 2 and resumed.executed == 1


@pytest.fixture(scope="module")
def fresh_sweep(tmp_path_factory):
    """One uninterrupted three-job sweep: its journal bytes and payloads."""
    jobs = _sweep_jobs(3)
    path = tmp_path_factory.mktemp("fresh") / "j.jsonl"
    with _fresh_sweep_service() as svc:
        result = run_sweep(svc, jobs, path)
    return jobs, path.read_bytes(), result.payloads


class TestDamagedJournal:
    @settings(deadline=None, max_examples=60)
    @given(
        damage=st.one_of(
            st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True)),
            st.tuples(
                st.just("flip"), st.floats(0.0, 1.0, exclude_max=True),
                st.integers(1, 255),
            ),
        )
    )
    def test_a_resume_serves_the_fresh_payloads_or_refuses(
        self, fresh_sweep, tmp_path_factory, damage
    ):
        """Cut the journal anywhere or XOR one byte anywhere, then resume:
        every payload served equals the fresh run's, or the resume raises
        ``ServiceError`` (a digit flipped inside a payload still parses, so
        only the record digest can catch it)."""
        jobs, journal, payloads = fresh_sweep
        data = bytearray(journal)
        at = int(damage[1] * len(data))
        if damage[0] == "truncate":
            del data[at:]
        else:
            data[at] ^= damage[2]
        path = tmp_path_factory.mktemp("damaged") / "j.jsonl"
        path.write_bytes(bytes(data))
        with _fresh_sweep_service() as svc:
            try:
                resumed = run_sweep(svc, jobs, path)
            except ServiceError:
                return
            again = run_sweep(svc, jobs, path)
        assert json.dumps(resumed.payloads) == json.dumps(payloads)
        # The resume left a whole journal behind: nothing runs twice.
        assert again.executed == 0
        assert json.dumps(again.payloads) == json.dumps(payloads)

    def test_a_flipped_payload_digit_is_rerun_not_served(self, fresh_sweep, tmp_path):
        """The case the fuzz above is for, pinned: the line still parses,
        only its digest tells."""
        jobs, journal, payloads = fresh_sweep
        data = bytearray(journal)
        at = journal.index(b'"payload": {')
        at += next(i for i, c in enumerate(journal[at:]) if chr(c).isdigit())
        data[at] ^= 1  # one decimal digit to its neighbour
        json.loads(bytes(data).split(b"\n")[1])
        path = tmp_path / "j.jsonl"
        path.write_bytes(bytes(data))
        with _fresh_sweep_service() as svc:
            resumed = run_sweep(svc, jobs, path)
        assert (resumed.executed, resumed.reused) == (3, 0)
        assert json.dumps(resumed.payloads) == json.dumps(payloads)


class TestAllChipsDeadPlan:
    def test_chaos_job_whose_plan_kills_every_chip_fails_once(self):
        """A sampled 2x2 plan that kills all four chips (about 1 draw in
        4 000 at the benchmark's rate): ``run_chaos`` has nothing left to
        restore onto, and the service fails the job deterministically --
        one attempt, nothing cached, a postmortem, every submission
        accounted for."""
        from repro.service.executors import _chaos_plan_and_config

        params = {
            "mesh_shape": [2, 2], "steps": 50,
            "expected_chip_failures": 0.3, "expected_stragglers": 1.0,
        }
        seed = next(
            s for s in itertools.count()
            if len(_chaos_plan_and_config({**params, "seed": s})[0].chip_failures) == 4
        )
        assert seed == 3284
        svc = _service(concurrency=1, queue_depth=4)
        with svc:
            handle = svc.submit(SimJob("chaos", {**params, "seed": seed}))
            with pytest.raises(JobFailed) as exc_info:
                handle.result(timeout=60.0)
        assert exc_info.value.attempts == handle.attempts == 1
        assert exc_info.value.cause.startswith("DeviceLostError: ")
        assert svc.cache.get(handle.job.content_key) is None
        bundle = telemetry.flight_recorder.last_postmortem
        assert bundle is not None and bundle["reason"] == "service.job_failed"
        stats = svc.stats
        assert (stats.submitted, stats.failed, stats.retries) == (1, 1, 0)
        assert stats.submitted == stats.completed + stats.failed + stats.rejected_total


class TestClusterAdapter:
    def test_service_feeds_the_cluster_scheduler_end_to_end(self):
        svc = _service(concurrency=1, queue_depth=4, cache_entries=0)
        tenants = [
            {"name": "batch", "slice_shape": [2, 2], "target_steps": 10,
             "state_bytes": int(1e9)},
            {"name": "hazard", "slice_shape": [2, 2], "target_steps": 10,
             "state_bytes": int(1e9), "priority": 1,
             "checkpoint_policy": {"policy": "risk_adaptive",
                                   "hazard_per_second": 0.5,
                                   "checkpoint_seconds": 1.0}},
        ]
        with svc:
            handle = svc.submit(SimJob("cluster", {
                "tenants": tenants, "mesh_shape": [4, 4],
                "max_ticks": 500, "seed": 11,
            }))
            payload = handle.result(timeout=60.0)
        assert payload["completed"] == 2
        assert set(payload["tenants"]) == {"batch", "hazard"}
        for report in payload["tenants"].values():
            assert "goodput" in report and "steps_executed" in report

    def test_off_pod_fault_plan_fails_fast_without_retry(self, monkeypatch):
        """The executor samples its plan from the params, so an off-pod plan
        is substituted here; the scheduler refuses it before tick 0 and the
        service treats that as a deterministic failure (one attempt)."""
        from repro.resilience.faults import ChipFailure, FaultPlan

        off_pod = FaultPlan(chip_failures=(ChipFailure((7, 7), at_step=3),))
        monkeypatch.setattr(
            FaultPlan, "sample", classmethod(lambda cls, *a, **k: off_pod)
        )
        svc = _service(concurrency=1, queue_depth=4, cache_entries=0)
        with svc:
            handle = svc.submit(SimJob("cluster", {
                "tenants": [{"name": "t0", "slice_shape": [2, 2]}],
                "mesh_shape": [4, 4], "seed": 1,
            }))
            with pytest.raises(JobFailed, match=r"ValueError: .*\(7, 7\), not on the 4x4 pod"):
                handle.result(timeout=60.0)
            assert handle.attempts == 1
        assert svc.stats.retries == 0

    def test_adapter_validates_policy_kind(self):
        from repro.service.executors import to_cluster_spec

        with pytest.raises(ValueError, match="unknown checkpoint policy"):
            to_cluster_spec({
                "name": "x", "checkpoint_policy": {"policy": "bogus"},
            })


class TestLoadExperiment:
    def test_accounting_invariant_and_typed_shedding(self):
        from repro.experiments import service_load

        table = service_load.run()  # raises internally on silent loss
        by_scenario = {}
        for row in table.rows:
            by_scenario.setdefault(row[0], []).append(row)
        idx = {h: i for i, h in enumerate(table.headers)}
        for row in by_scenario["scan"]:
            assert row[idx["ok"]] == service_load.BURST
        # Past the knee the excess is shed with the *matching* typed
        # rejection, and ok + shed always accounts for the whole burst.
        (overload,) = by_scenario["overload"]
        assert overload[idx["ok"]] + overload[idx["overl"]] == \
            service_load.BURST
        assert overload[idx["overl"]] > 0
        (ratelimit,) = by_scenario["ratelimit"]
        assert ratelimit[idx["rate"]] == service_load.BURST - 8
        (deadline,) = by_scenario["deadline"]
        assert deadline[idx["ok"]] + deadline[idx["ddl"]] == \
            service_load.BURST
