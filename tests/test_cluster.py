"""Multi-tenant elastic cluster scheduler tests.

Covers the slice allocator, single-seed sub-seed derivation, the pinned
two-job chaos trace, priority preemption with zero lost steps, elastic
shrink/regrow across a chip-death wave with bit-identical solo replays,
admission retry/backoff/rejection, the shared RetryPolicy consolidation
(link retries and admission run the same dataclass, bit-identically),
the 100-tenant label-cardinality guard, and the shared GoodputAccounting
schema between ChaosReport and JobReport.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import telemetry
from repro.cluster import (
    COMPLETED,
    PENDING,
    REJECTED,
    ClusterConfig,
    ClusterScheduler,
    ClusterState,
    JobReport,
    JobSpec,
    derive_subseed,
    run_cluster,
    solo_replay,
)
from repro.cluster.jobs import TENANT_COUNTERS
from repro.comm.schedule import simulate_degraded_reduce_scatter
from repro.core.trainer import TrainerConfig
from repro.hardware.rings import y_ring
from repro.hardware.topology import TorusMesh
from repro.models.mlp import MLP
from repro.optim.adam import Adam
from repro.resilience.chaos import ChaosConfig, ChaosReport, GoodputAccounting, run_chaos
from repro.resilience.faults import (
    ChipFailure,
    FaultPlan,
    LinkFault,
    PreemptionSignal,
    RetryPolicy,
    StragglerFault,
)
from repro.telemetry.registry import OVERFLOW_COUNTER, OVERFLOW_KEY


@pytest.fixture(autouse=True)
def _fresh_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


def _trainer_config() -> TrainerConfig:
    return TrainerConfig(
        model=MLP([8, 16, 4]), optimizer=Adam(learning_rate=0.01),
        strategy="wus",
    )


def _batch_fn_factory(job_seed: int):
    def batch(step: int):
        rng = np.random.default_rng((job_seed, step))
        return rng.standard_normal((12, 8)), rng.integers(0, 4, size=12)

    return batch


def _params_equal(a, b) -> bool:
    return a is not None and b is not None and all(
        np.array_equal(a[k], b[k]) for k in b
    )


class TestClusterState:
    def test_first_fit_is_row_major(self):
        state = ClusterState((4, 4))
        a = state.allocate("a", (2, 2))
        assert (a.x0, a.y0, a.width, a.height) == (0, 0, 2, 2)
        b = state.allocate("b", (2, 2))
        assert (b.x0, b.y0) == (0, 2)
        c = state.allocate("c", (2, 2))
        assert (c.x0, c.y0) == (2, 0)

    def test_rotated_orientation_is_tried(self):
        state = ClusterState((2, 4))
        assert state.allocate("tall", (4, 2)) is not None
        slc = state.slice_of("tall")
        assert slc.shape == (2, 4)

    def test_full_pod_rejects_then_release_frees(self):
        state = ClusterState((2, 2))
        assert state.allocate("a", (2, 2)) is not None
        assert state.allocate("b", (2, 2)) is None
        state.release("a")
        assert state.allocate("b", (2, 2)) is not None

    def test_double_allocate_raises(self):
        state = ClusterState((2, 2))
        state.allocate("a", (1, 1))
        with pytest.raises(ValueError):
            state.allocate("a", (1, 1))

    def test_dead_chip_blocks_allocation_until_healed(self):
        state = ClusterState((2, 2))
        state.fail_chip((0, 0), now_s=1.0)
        assert state.allocate("a", (2, 2)) is None
        assert state.heal_ready(5.0, heal_after_s=10.0) == ()
        assert state.heal_ready(11.0, heal_after_s=10.0) == ((0, 0),)
        state.heal_chip((0, 0))
        assert state.allocate("a", (2, 2)) is not None

    def test_fail_chip_reports_owner_and_alive_in_shrinks(self):
        state = ClusterState((2, 2))
        state.allocate("a", (2, 2))
        assert state.fail_chip((1, 1), now_s=0.0) == "a"
        assert state.alive_in("a") == ((0, 0), (0, 1), (1, 0))
        assert state.dead_chips == 1

    def test_find_anchor_with_hypothetical_eviction(self):
        state = ClusterState((2, 2))
        state.allocate("a", (2, 2))
        assert state.find_anchor((2, 2)) is None
        assert state.find_anchor((2, 2), evictable=frozenset(("a",))) == (
            0, 0, 2, 2,
        )

    def test_hosts_of_matches_host_map_blocks(self):
        state = ClusterState((4, 4), chips_per_host=8)
        state.allocate("a", (2, 4))
        # Chips enumerate x-major: host 0 drives x in {0, 1}, exactly the
        # (2, 4) slice anchored at the origin.
        assert state.hosts_of("a") == (0,)
        state.allocate("b", (2, 4))
        assert state.hosts_of("b") == (1,)


class TestDeriveSubseed:
    def test_pinned_values(self):
        # Pinned: numpy documents SeedSequence mixing as stable across
        # platforms and versions.  A change here breaks every recorded
        # cluster trace.
        assert derive_subseed(2021, "faults") == 1701088348
        assert derive_subseed(2021, "init", "tenant-a") == 2996706732
        assert derive_subseed(2021, "batches", "tenant-a") == 1344787327
        assert derive_subseed(2021, "retry", "tenant-a") == 631998360
        assert derive_subseed(7, "x", 3) == 2745097216

    def test_distinct_paths_distinct_streams(self):
        seeds = {
            derive_subseed(2021, "init", f"tenant-{i}") for i in range(100)
        }
        assert len(seeds) == 100

    def test_pure_function_of_seed_and_path(self):
        assert derive_subseed(5, "a", 1) == derive_subseed(5, "a", 1)
        assert derive_subseed(5, "a", 1) != derive_subseed(6, "a", 1)


def _contention_specs(state_bytes: int = int(1e9)) -> list[JobSpec]:
    return [
        JobSpec(
            name="tenant-low", slice_shape=(2, 2), target_steps=12,
            priority=0, checkpoint_interval=4, state_bytes=state_bytes,
        ),
        JobSpec(
            name="tenant-high", slice_shape=(2, 2), target_steps=8,
            priority=1, arrival_tick=5, checkpoint_interval=4,
            state_bytes=state_bytes,
        ),
    ]


class TestTwoJobTracePin:
    """Satellite: one ``--seed`` reproduces a multi-job chaos run exactly."""

    PINNED = [
        (0, "admit", "tenant-low"),
        (5, "preempt", "tenant-low"),
        (5, "admit", "tenant-high"),
        (6, "admission_retry", "tenant-low"),
        (9, "admission_retry", "tenant-low"),
        (12, "complete", "tenant-high"),
        (14, "admit", "tenant-low"),
        (21, "complete", "tenant-low"),
    ]

    def test_trace_is_pinned(self):
        config = ClusterConfig(mesh_shape=(2, 2), chips_per_host=2, seed=2021)
        result = run_cluster(_contention_specs(), config)
        assert result.trace() == self.PINNED
        assert result.ticks == 22

    def test_same_seed_same_trace_different_seed_differs_somewhere(self):
        config = ClusterConfig(mesh_shape=(2, 2), chips_per_host=2, seed=2021)
        again = run_cluster(_contention_specs(), config)
        assert again.trace() == self.PINNED
        other = run_cluster(
            _contention_specs(),
            ClusterConfig(mesh_shape=(2, 2), chips_per_host=2, seed=9),
        )
        # Retry jitter is derived from the seed: the raw backoff delays
        # differ even where tick quantization hides it in the trace.
        def delays(result):
            return [
                info["delay_s"]
                for _, event, _, info in result.events
                if event == "admission_retry"
            ]

        assert delays(other) != delays(again)
        assert delays(again) == delays(
            run_cluster(
                _contention_specs(),
                ClusterConfig(mesh_shape=(2, 2), chips_per_host=2, seed=2021),
            )
        )


class TestPriorityPreemption:
    def _run(self):
        trainer_config = _trainer_config()
        specs = [
            JobSpec(
                name=spec.name, slice_shape=spec.slice_shape,
                target_steps=spec.target_steps, priority=spec.priority,
                arrival_tick=spec.arrival_tick,
                checkpoint_interval=spec.checkpoint_interval,
                trainer_config=trainer_config,
                batch_fn_factory=_batch_fn_factory,
            )
            for spec in _contention_specs(state_bytes=0)
        ]
        config = ClusterConfig(mesh_shape=(2, 2), chips_per_host=2, seed=2021)
        return specs, config, run_cluster(specs, config)

    def test_evicted_tenant_loses_zero_steps_and_completes(self):
        _, _, result = self._run()
        low = result.jobs["tenant-low"]
        high = result.jobs["tenant-high"]
        assert low.state == COMPLETED and high.state == COMPLETED
        assert low.preemptions == 1
        assert low.lost_steps == 0  # grace-window save fit the window
        assert high.preemptions == 0
        assert high.goodput == 1.0

    def test_both_tenants_replay_bit_identically_solo(self):
        specs, config, result = self._run()
        for spec in specs:
            report = result.jobs[spec.name]
            replay = solo_replay(spec, report, config.seed)
            assert _params_equal(report.final_params, replay), spec.name

    def test_lower_priority_never_preempts_higher(self):
        # Same shape, but the late arrival has *lower* priority: it must
        # wait for the running tenant to finish, never evict it.
        specs = [
            JobSpec(name="first", slice_shape=(2, 2), target_steps=8,
                    priority=1, state_bytes=0),
            JobSpec(name="later", slice_shape=(2, 2), target_steps=4,
                    priority=0, arrival_tick=2, state_bytes=0),
        ]
        config = ClusterConfig(mesh_shape=(2, 2), chips_per_host=2, seed=0)
        result = run_cluster(specs, config)
        assert result.jobs["first"].preemptions == 0
        assert result.jobs["first"].state == COMPLETED
        assert result.jobs["later"].state == COMPLETED
        assert result.jobs["later"].admitted_tick >= 8


class TestElasticShrinkRegrow:
    def _run(self):
        trainer_config = _trainer_config()
        specs = [
            JobSpec(
                name="wave-victim", slice_shape=(2, 2), target_steps=16,
                min_chips=2, checkpoint_interval=4,
                trainer_config=trainer_config,
                batch_fn_factory=_batch_fn_factory,
            ),
            JobSpec(
                name="bystander", slice_shape=(2, 2), target_steps=16,
                min_chips=2, checkpoint_interval=4,
                trainer_config=trainer_config,
                batch_fn_factory=_batch_fn_factory,
            ),
        ]
        # Name-ordered admission: "bystander" gets columns 0-1, the victim
        # columns 2-3 — the wave hits two of the victim's chips.
        plan = FaultPlan(
            seed=2021,
            chip_failures=(
                ChipFailure(device=(2, 0), at_step=6),
                ChipFailure(device=(2, 1), at_step=6),
            ),
        )
        config = ClusterConfig(
            mesh_shape=(4, 2), chips_per_host=2, heal_after_s=8.0, seed=2021,
        )
        return specs, config, run_cluster(specs, config, plan=plan)

    def test_victim_shrinks_then_regrows(self):
        _, _, result = self._run()
        victim = result.jobs["wave-victim"]
        assert victim.state == COMPLETED
        assert victim.shrinks == 1
        assert victim.regrows == 1
        assert victim.replicas == 4  # back to full size after the heal
        assert victim.lost_steps > 0  # unannounced death rewinds to the ckpt
        # The timeline records the elastic shape changes explicitly.
        builds = [op[1] for op in victim.timeline if op[0] == "build"]
        assert builds == [4, 2, 4]

    def test_bystander_unaffected_and_both_replay_bit_identically(self):
        specs, config, result = self._run()
        bystander = result.jobs["bystander"]
        assert bystander.lost_steps == 0
        assert bystander.shrinks == 0
        assert bystander.goodput == 1.0
        for spec in specs:
            report = result.jobs[spec.name]
            replay = solo_replay(spec, report, config.seed)
            assert _params_equal(report.final_params, replay), spec.name

    def test_shrink_below_min_chips_evicts_and_requeues(self):
        spec = JobSpec(
            name="only", slice_shape=(2, 1), target_steps=10,
            min_chips=2, checkpoint_interval=2, state_bytes=0,
        )
        plan = FaultPlan(
            chip_failures=(ChipFailure(device=(0, 0), at_step=3),),
        )
        config = ClusterConfig(
            mesh_shape=(2, 1), chips_per_host=2, heal_after_s=4.0, seed=1,
        )
        result = run_cluster([spec], config, plan=plan)
        report = result.jobs["only"]
        # One survivor < min_chips: evicted, then readmitted post-heal and
        # finished from the saved checkpoint.
        assert report.evictions == 1
        assert report.state == COMPLETED
        assert report.admissions == 2

    def test_whole_pod_preemption_signal_evicts_with_grace(self):
        spec = JobSpec(
            name="only", slice_shape=(2, 1), target_steps=10,
            checkpoint_interval=3, state_bytes=int(1e9),
        )
        plan = FaultPlan(
            preemptions=(PreemptionSignal(host=0, at_step=4, grace_s=30.0),),
        )
        config = ClusterConfig(
            mesh_shape=(2, 1), chips_per_host=2, heal_after_s=3.0, seed=1,
        )
        result = run_cluster([spec], config, plan=plan)
        report = result.jobs["only"]
        assert report.evictions == 1
        assert report.lost_steps == 0  # grace save fit the 30 s window
        assert report.state == COMPLETED


class TestAdmissionRetryAndRejection:
    def test_impossible_job_rejected_after_max_attempts(self):
        spec = JobSpec(
            name="too-big", slice_shape=(4, 4), target_steps=5, state_bytes=0,
        )
        policy = RetryPolicy(
            timeout_s=0.0, max_attempts=3, backoff_s=2.0, jitter_frac=0.25,
        )
        config = ClusterConfig(
            mesh_shape=(2, 2), admission_policy=policy, seed=3,
        )
        result = run_cluster([spec], config)
        report = result.jobs["too-big"]
        assert report.state == REJECTED
        assert report.admissions == 0
        assert report.admission_retries == policy.max_attempts - 1
        retries = [e for e in result.trace() if e[1] == "admission_retry"]
        assert len(retries) == policy.max_attempts - 1
        # Backoff grows: the retry gaps are non-decreasing.
        ticks = [0] + [e[0] for e in retries]
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        assert gaps == sorted(gaps)

    def test_each_rejection_dumps_a_postmortem_with_the_ledgers(
        self, tmp_path, monkeypatch
    ):
        """The registry has no cluster_* counters until the run ends, so the
        bundle dumped at the rejecting tick carries the JobReports."""
        specs = [
            JobSpec(name="fits", slice_shape=(2, 2), target_steps=40,
                    state_bytes=0),
            JobSpec(name="too-big", slice_shape=(4, 4), target_steps=5,
                    state_bytes=0),
            JobSpec(name="too-wide", slice_shape=(3, 1), target_steps=5,
                    arrival_tick=2, state_bytes=0),
        ]
        policy = RetryPolicy(
            timeout_s=0.0, max_attempts=3, backoff_s=2.0, jitter_frac=0.25,
        )
        config = ClusterConfig(
            mesh_shape=(2, 2), admission_policy=policy, seed=3,
        )
        # Written bundles: also proves the ledgers survive json.dump.
        monkeypatch.setattr(telemetry.flight_recorder, "dump_dir", str(tmp_path))
        result = run_cluster(specs, config)
        bundles = [json.loads(path.read_text()) for path in tmp_path.iterdir()]
        assert result.rejected == 2
        assert sorted(b["reason"] for b in bundles) == [
            "tenant_rejected:too-big", "tenant_rejected:too-wide",
        ]
        rejected_at = {e[2]: e[0] for e in result.trace() if e[1] == "reject"}
        for bundle in bundles:
            name = bundle["reason"].split(":")[1]
            ledger = bundle["tenants"][name]
            final = result.jobs[name]
            assert ledger["state"] == REJECTED
            assert ledger["admission_retries"] == policy.max_attempts - 1
            # Waited every tick from arrival to the rejecting one, inclusive.
            arrival = next(s.arrival_tick for s in specs if s.name == name)
            assert ledger["queue_wait_ticks"] == rejected_at[name] - arrival + 1
            assert ledger["queue_wait_ticks"] == final.queue_wait_ticks
            # "As of that tick": the running tenant's ledger is mid-flight.
            assert bundle["tenants"]["fits"]["state"] == "running"
            assert (
                0 < bundle["tenants"]["fits"]["steps_executed"]
                < result.jobs["fits"].steps_executed
            )

    def test_blocked_tenant_eventually_admitted_when_capacity_frees(self):
        specs = [
            JobSpec(name="holder", slice_shape=(2, 2), target_steps=6,
                    priority=1, state_bytes=0),
            JobSpec(name="waiter", slice_shape=(2, 2), target_steps=4,
                    priority=1, arrival_tick=1, state_bytes=0),
        ]
        config = ClusterConfig(mesh_shape=(2, 2), chips_per_host=2, seed=5)
        result = run_cluster(specs, config)
        waiter = result.jobs["waiter"]
        # Equal priority: no preemption, only backoff until the holder ends.
        assert result.jobs["holder"].preemptions == 0
        assert waiter.state == COMPLETED
        assert waiter.admission_retries > 0
        assert waiter.admitted_tick >= 6

    def test_retry_jitter_is_deterministic_per_key(self):
        policy = RetryPolicy(
            timeout_s=0.0, max_attempts=8, backoff_s=2.0, jitter_frac=0.25,
        )
        assert policy.jitter_after(3, key=42) == policy.jitter_after(3, key=42)
        assert policy.jitter_after(3, key=42) != policy.jitter_after(3, key=43)
        assert 0.0 <= policy.jitter_after(3, key=42) < 0.25 * policy.backoff_after(3)


class TestRetryPolicyConsolidation:
    """Satellite: one shared RetryPolicy for link retries and admission."""

    def test_default_delays_equal_historical_constants_exactly(self):
        policy = RetryPolicy()
        for attempt in range(1, 5):
            legacy = 1e-3 + 2e-3 * 2.0 ** (attempt - 1)
            assert policy.delay_after(attempt) == legacy
            assert policy.jitter_after(attempt) == 0.0

    def test_degraded_schedule_bit_identical_to_explicit_legacy_policy(self):
        mesh = TorusMesh(1, 4, wrap_x=False, wrap_y=True)
        ring = y_ring(mesh, x=0)
        flap = LinkFault((0, 0), (0, 1), start=0.0, duration=2e-3)
        plan = FaultPlan(link_faults=(flap,))
        legacy = RetryPolicy(
            timeout_s=1e-3, max_attempts=4, backoff_s=2e-3,
            backoff_factor=2.0, jitter_frac=0.0,
        )
        default = simulate_degraded_reduce_scatter(mesh, ring, 1e6, plan)
        explicit = simulate_degraded_reduce_scatter(
            mesh, ring, 1e6, plan, policy=legacy
        )
        assert default.seconds == explicit.seconds
        assert default.retries == explicit.retries

    def test_jitter_changes_delay_but_not_backoff_base(self):
        jittered = RetryPolicy(jitter_frac=0.5)
        plain = RetryPolicy()
        assert jittered.backoff_after(3) == plain.backoff_after(3)
        assert jittered.delay_after(3, key=1) >= plain.delay_after(3)


class TestTenantLabelCardinality:
    """Satellite: 100 tenants must not collapse into the overflow child."""

    def test_100_tenants_keep_distinct_series(self):
        specs = [
            JobSpec(
                name=f"tenant-{i:03d}", slice_shape=(1, 1), target_steps=2,
                arrival_tick=0, state_bytes=0,
            )
            for i in range(100)
        ]
        config = ClusterConfig(mesh_shape=(10, 10), seed=11)
        result = run_cluster(specs, config)
        assert result.completed == 100
        for i in range(100):
            name = f"tenant-{i:03d}"
            assert telemetry.metrics.value("cluster_steps", tenant=name) == 2.0
        # Nothing hit the cardinality guard at the default max_children.
        assert telemetry.metrics.total(OVERFLOW_COUNTER) == 0.0
        family = telemetry.metrics._families["cluster_steps"]
        assert OVERFLOW_KEY not in family.children


class TestJobReportIsTheLedger:
    """The scheduler keeps one per-tenant ledger — ``JobReport`` — and
    publishes the ``cluster_*`` counters from it when ``run`` ends."""

    def _scenario(self):
        """12 tenants on 6x6: chip deaths (with healing), a host preemption,
        two stragglers, and a late high-priority arrival that preempts."""
        specs = [
            JobSpec(
                name=f"t{i:02d}", slice_shape=(2, 2), target_steps=12 + i,
                priority=1 if i == 11 else 0,
                arrival_tick=8 if i == 11 else i // 4,
                min_chips=2 if i % 2 else 4, checkpoint_interval=5,
                state_bytes=int(1e9),
            )
            for i in range(12)
        ]
        plan = FaultPlan(
            chip_failures=(
                ChipFailure((0, 0), at_step=3),
                ChipFailure((2, 1), at_step=6),
                ChipFailure((3, 3), at_step=9),
            ),
            preemptions=(PreemptionSignal(host=2, at_step=5, grace_s=30.0),),
            stragglers=(
                StragglerFault((4, 0), start_step=2, duration_steps=6, slowdown=2.5),
                StragglerFault((1, 4), start_step=4, duration_steps=3, slowdown=1.8),
            ),
        )
        config = ClusterConfig(
            mesh_shape=(6, 6), chips_per_host=4, heal_after_s=6.0, seed=19,
            admission_policy=RetryPolicy(
                timeout_s=0.0, max_attempts=4, backoff_s=2.0, jitter_frac=0.25,
            ),
        )
        return specs, config, plan

    def test_published_counters_are_the_report_sums(self):
        specs, config, plan = self._scenario()
        result = run_cluster(specs, config, plan=plan)
        kinds = {event for _, event, _ in result.trace()}
        assert {"chip_failure", "host_preemption", "preempt", "shrink",
                "evict", "migrate", "admission_retry"} <= kinds
        m = telemetry.metrics
        for metric, field_name in TENANT_COUNTERS.items():
            for name, job in result.jobs.items():
                assert m.value(metric, tenant=name) == getattr(job, field_name), (
                    metric, name,
                )
        assert m.total("cluster_completions") == result.completed == 12
        assert m.total("cluster_rejections") == result.rejected == 0
        # The scenario exercises the three quantities that used to exist
        # only as counters.
        assert m.total("cluster_grace_saves") == 5
        assert m.total("cluster_straggler_blames") == 7
        assert m.total("cluster_straggler_stall_ticks") == 6
        assert m.value("cluster_free_chips") == 36
        assert m.value("cluster_running_jobs") == 0
        assert all(
            m.value("cluster_slo_attained", tenant=name) == 1.0
            for name in result.jobs
        )

    def test_disabled_telemetry_returns_the_same_reports_and_writes_nothing(self):
        specs, config, plan = self._scenario()
        enabled = run_cluster(specs, config, plan=plan)
        telemetry.reset()
        with telemetry.disabled():
            silent = run_cluster(specs, config, plan=plan)
        assert silent.jobs == enabled.jobs  # dataclass eq: every field
        assert silent.events == enabled.events
        assert sum(j.grace_saves for j in silent.jobs.values()) == 5
        assert sum(j.straggler_blames for j in silent.jobs.values()) == 7
        assert sum(j.straggler_stall_ticks for j in silent.jobs.values()) == 6
        snap = telemetry.metrics.snapshot()
        assert not any(name.startswith("cluster_") for name in snap)

    def test_a_run_that_raises_still_publishes(self):
        class Boom(RuntimeError):
            pass

        def exploding_batches(job_seed):
            batch = _batch_fn_factory(job_seed)

            def at(step):
                if step == 3:
                    raise Boom("bad shard")
                return batch(step)

            return at

        specs = [
            JobSpec(
                name="real", slice_shape=(2, 1), target_steps=8,
                trainer_config=_trainer_config(),
                batch_fn_factory=exploding_batches,
            ),
            JobSpec(name="acct", slice_shape=(1, 1), target_steps=8),
        ]
        scheduler = ClusterScheduler(specs, ClusterConfig(mesh_shape=(2, 2)))
        with pytest.raises(Boom):
            scheduler.run()
        m = telemetry.metrics
        # "acct" sorts first, so it ran tick 3 before "real" blew up.
        assert m.value("cluster_steps", tenant="acct") == 4
        assert m.value("cluster_steps", tenant="real") == 3
        assert m.value("cluster_admissions", tenant="real") == 1
        assert m.value("cluster_running_jobs") == 2


class TestStragglerStallPin:
    """A sampled plan with stragglers through the tick loop, pinned.

    Values recorded before ``_run_steps`` took its slowdown from
    ``FaultPlan.slowdown_at``: 13 stragglers at 2.5x and 8 chip deaths on
    8x8 under three 4x4 tenants.  Straggled ticks accrue stall debt (17
    stalled ticks), slow steps are blamed through the barrier (20 chip
    blames: two windows overlap inside one slice), tenant-0 also restarts
    three times, tenant-2 never meets a straggler.
    """

    def test_per_tenant_reports_are_pinned(self):
        specs = [
            JobSpec(
                name=f"tenant-{i}", slice_shape=(4, 4), target_steps=30,
                priority=i % 2, arrival_tick=3 * i, min_chips=8,
                checkpoint_interval=8, state_bytes=int(2e9),
            )
            for i in range(3)
        ]
        plan = FaultPlan.sample(
            9, (8, 8), steps=60, expected_chip_failures=3.0,
            expected_stragglers=8.0, straggler_slowdown=2.5,
        )
        assert (len(plan.stragglers), len(plan.chip_failures)) == (13, 8)
        config = ClusterConfig(
            mesh_shape=(8, 8), restore_bandwidth_bytes_per_s=10e9,
            heal_after_s=15.0, seed=9,
        )
        result = run_cluster(specs, config, plan=plan)
        assert (result.ticks, len(result.events)) == (52, 20)
        clean = {
            "restarts": 0, "lost_steps": 0, "restart_seconds": 0.0,
            "detections": 0, "detection_seconds": 0.0, "preemptions": 0,
            "mttr_seconds": 0.0, "mttd_seconds": 0.0, "useful_seconds": 30.0,
        }
        assert {
            name: job.accounting_dict() for name, job in result.jobs.items()
        } == {
            "tenant-0": {
                "steps_executed": 35, "restarts": 3, "lost_steps": 8,
                "checkpoints_taken": 7,
                "restart_seconds": 2.0999999999999996,
                "total_seconds": 51.70000000000002, "useful_seconds": 30.0,
                "detections": 3, "detection_seconds": 1.5, "preemptions": 0,
                "goodput": 0.5802707930367503,
                "mttr_seconds": 0.6999999999999998, "mttd_seconds": 0.5,
            },
            "tenant-1": {
                **clean, "steps_executed": 30, "checkpoints_taken": 4,
                "total_seconds": 36.0, "goodput": 0.8333333333333334,
            },
            "tenant-2": {
                **clean, "steps_executed": 30, "checkpoints_taken": 4,
                "total_seconds": 30.0, "goodput": 1.0,
            },
        }
        m = telemetry.metrics
        assert m.total("cluster_straggler_stall_ticks") == 17
        assert m.total("cluster_straggler_blames") == 20


class TestGoodputSchema:
    """Satellite: chaos and cluster runs share one accounting schema."""

    def test_job_report_extends_goodput_accounting(self):
        assert issubclass(ChaosReport, GoodputAccounting)
        assert issubclass(JobReport, GoodputAccounting)

    def test_accounting_dict_keys_match_across_consumers(self):
        chaos_keys = set(ChaosReport().accounting_dict())
        job_keys = set(JobReport().accounting_dict())
        assert chaos_keys == job_keys
        for key in ("goodput", "mttr_seconds", "mttd_seconds",
                    "lost_steps", "restarts", "preemptions"):
            assert key in chaos_keys

    def test_run_chaos_accounting_mode_returns_structured_report(self):
        plan = FaultPlan(
            chip_failures=(ChipFailure(device=(0, 0), at_step=3),),
        )
        chaos_config = ChaosConfig(
            mesh_shape=(2, 2), target_steps=10, checkpoint_interval=5,
        )
        report = run_chaos(plan, chaos_config, state_bytes=int(1e9))
        assert isinstance(report, GoodputAccounting)
        d = report.accounting_dict()
        assert d["restarts"] == report.restarts
        assert 0.0 < d["goodput"] <= 1.0

    def test_cluster_result_aggregates_fairness_and_slo(self):
        specs = [
            JobSpec(name="a", slice_shape=(1, 1), target_steps=4,
                    state_bytes=0, slo_goodput=0.5),
            JobSpec(name="b", slice_shape=(1, 1), target_steps=4,
                    state_bytes=0, slo_goodput=0.5),
        ]
        config = ClusterConfig(mesh_shape=(2, 1), seed=0)
        result = run_cluster(specs, config)
        assert result.fairness == 1.0  # identical goodput -> Jain == 1
        assert result.slo_attainment == 1.0
        assert 0.0 < result.utilization <= 1.0


class TestSchedulerValidation:
    def test_duplicate_job_names_rejected(self):
        specs = [
            JobSpec(name="same", slice_shape=(1, 1), target_steps=1),
            JobSpec(name="same", slice_shape=(1, 1), target_steps=1),
        ]
        with pytest.raises(ValueError):
            ClusterScheduler(specs, ClusterConfig(mesh_shape=(2, 2)))

    def test_real_numerics_spec_requires_batch_fn(self):
        with pytest.raises(ValueError):
            JobSpec(
                name="a", slice_shape=(1, 1), target_steps=1,
                trainer_config=_trainer_config(),
            )

    def test_strategy_that_cannot_checkpoint_is_rejected_in_the_spec(self):
        """Every recovery path of the scheduler checkpoints; a hybrid
        trainer cannot, so the spec is refused before any scheduler exists."""
        hybrid = TrainerConfig(
            model=MLP([8, 16, 4]), optimizer=Adam(learning_rate=0.01),
            strategy="hybrid", mp_size=2,
        )
        with pytest.raises(ValueError, match="'hybrid' cannot checkpoint"):
            JobSpec(
                name="a", slice_shape=(2, 1), target_steps=1,
                trainer_config=hybrid, batch_fn_factory=_batch_fn_factory,
            )

    def test_pending_forever_job_never_admitted_has_unit_goodput_excluded(self):
        # A job whose arrival is past the horizon stays pending; it must
        # not dilute fairness (its goodput is undefined, not zero).
        specs = [
            JobSpec(name="ran", slice_shape=(1, 1), target_steps=2,
                    state_bytes=0),
            JobSpec(name="late", slice_shape=(1, 1), target_steps=2,
                    arrival_tick=500, state_bytes=0),
        ]
        config = ClusterConfig(mesh_shape=(1, 1), max_ticks=10, seed=0)
        result = run_cluster(specs, config)
        assert result.jobs["late"].state == PENDING
        assert result.fairness == 1.0


class TestPerTenantCheckpointPolicy:
    """Satellite of PR 9: `JobSpec.checkpoint_policy` opt-in."""

    PLAN = FaultPlan(chip_failures=(ChipFailure((0, 0), at_step=21),))

    def _run_one(self, policy, interval=50):
        from repro.cluster.scheduler import run_cluster as _run

        spec = JobSpec(
            name="tenant", slice_shape=(2, 2), target_steps=40,
            checkpoint_interval=interval, state_bytes=int(1e9),
            checkpoint_policy=policy,
        )
        config = ClusterConfig(
            mesh_shape=(2, 2), chips_per_host=2, max_ticks=200, seed=5,
        )
        return _run([spec], config, plan=self.PLAN).jobs["tenant"]

    def test_risk_adaptive_tenant_checkpoints_more_and_loses_less(self):
        from repro.controlplane.checkpointing import RiskAdaptive

        # Same fault plan, same pod: the fixed-interval tenant rides 50
        # steps between snapshots, the high-hazard tenant follows the
        # Young/Daly interval (sqrt(2*1.0/0.5) = 2 s, i.e. ~every 2
        # steps) — so the chip death at step 21 rewinds it far less.
        legacy = self._run_one(None)
        adaptive = self._run_one(
            RiskAdaptive(hazard_per_second=0.5, checkpoint_seconds=1.0)
        )
        assert legacy.state == COMPLETED and adaptive.state == COMPLETED
        assert adaptive.checkpoints_taken > legacy.checkpoints_taken
        assert adaptive.lost_steps < legacy.lost_steps
        assert legacy.lost_steps >= 20  # rewound to the initial snapshot

    def test_none_policy_is_bit_identical_to_legacy_rule(self):
        # The opt-in must not perturb the default path: a spec without a
        # policy replays the exact event trace and accounting of the
        # pre-policy scheduler (interval rule on step count).
        from repro.controlplane.checkpointing import StepInterval

        legacy = self._run_one(None, interval=4)
        stepwise = self._run_one(StepInterval(4), interval=50)
        assert stepwise.checkpoints_taken == legacy.checkpoints_taken
        assert stepwise.lost_steps == legacy.lost_steps
        assert stepwise.timeline == legacy.timeline
