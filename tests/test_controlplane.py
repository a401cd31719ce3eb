"""Control-plane tests: host groups, heartbeats, barriers, guards, chaos.

The acceptance contracts of PR 4, pinned:

* the shared ``host_map`` rule agrees with ``TorusMesh.host_of`` and is
  the same geometry ``fail_host`` and ``HostGroup`` use;
* ``HeartbeatDetector``'s closed-form latency is reproduced event by
  event by its discrete-event simulation, and a suspicion threshold > 1
  rides out a link-flap window that a threshold of 1 false-kills on;
* oracle-vs-heartbeat chaos goodput differs by *exactly* the accounted
  detection latency on a hand-checkable 2x2 case, and replays are
  deterministic;
* injected bit-flip SDC is caught within the guard's check interval and
  training recovers bit-identical to an uninterrupted reference on both
  recovery paths (resync and ambiguous-vote rewind);
* coordinator death kills a single-client job but not a multi-client
  one in the same scenario.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.controlplane import (
    Barrier,
    ConsistencyGuard,
    DesyncEvent,
    HeartbeatDetector,
    HostGroup,
    JobKilledError,
    MultiClientGroup,
    OracleDetector,
    RiskAdaptive,
    SilentCorruptionError,
    SingleClientCoordinator,
    StepInterval,
    WallClockInterval,
    apply_bit_flips,
    resolve_barrier,
)
from repro.core.data_parallel import DataParallelTrainer
from repro.hardware.topology import TorusMesh
from repro.models.mlp import MLP
from repro.optim.adam import Adam
from repro.resilience.chaos import ChaosConfig, run_chaos
from repro.resilience.faults import (
    BitFlipFault,
    ChipFailure,
    DeviceLostError,
    FaultPlan,
    LinkFault,
    PreemptionSignal,
    fail_host,
    host_map,
)
from repro.sim.engine import Simulator

LAYERS = [8, 16, 4]


def _factory(n: int, seed: int = 7):
    trainer = DataParallelTrainer(MLP(LAYERS), Adam(learning_rate=0.01), dp_x=n)
    trainer.init(np.random.default_rng(seed))
    return trainer


def _batch(step: int, batch_size: int = 12):
    rng = np.random.default_rng(40_000 + step)
    x = rng.standard_normal((batch_size, LAYERS[0]))
    labels = rng.integers(0, LAYERS[-1], size=batch_size)
    return x, labels


def _params_equal(a, b) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


# ---------------------------------------------------------------------------
# host_map / HostGroup: one geometry rule everywhere
# ---------------------------------------------------------------------------


class TestHostMap:
    def test_agrees_with_torus_host_of(self):
        mesh = TorusMesh(8, 4)
        hosts = host_map(mesh)
        for host, chips in hosts.items():
            for device in chips:
                assert mesh.host_of(device) == host

    def test_tuple_topology_blocks(self):
        hosts = host_map((4, 4), chips_per_host=8)
        assert sorted(hosts) == [0, 1]
        assert len(hosts[0]) == len(hosts[1]) == 8
        # Row-major: chip (x, y) -> block (x*4 + y) // 8.
        assert (0, 0) in hosts[0] and (1, 3) in hosts[0]
        assert (2, 0) in hosts[1] and (3, 3) in hosts[1]

    def test_host_group_shares_the_rule(self):
        group = HostGroup((4, 4), chips_per_host=4)
        assert group.hosts == host_map((4, 4), chips_per_host=4)

    def test_chips_of_unknown_host(self):
        group = HostGroup((4, 4), chips_per_host=8)
        with pytest.raises(ValueError):
            group.chips_of(99)

    def test_fail_host_matches_group_domain(self):
        group = HostGroup((4, 4), chips_per_host=8)
        failures = fail_host((4, 4), 1, chips_per_host=8, at_step=3)
        assert all(isinstance(f, ChipFailure) for f in failures)
        assert tuple(f.device for f in failures) == group.chips_of(1)
        assert all(f.at_step == 3 for f in failures)
        with pytest.raises(ValueError):
            fail_host((4, 4), 99, chips_per_host=8)


class TestFaultPlanExtensions:
    def test_validation(self):
        with pytest.raises(ValueError):
            PreemptionSignal(host=0, at_step=1, grace_s=-1.0)
        with pytest.raises(ValueError):
            BitFlipFault(device=(0, 0), at_step=1, bit=32)

    def test_step_queries(self):
        plan = FaultPlan(
            preemptions=(PreemptionSignal(host=1, at_step=4),),
            bit_flips=(BitFlipFault(device=(0, 0), at_step=2),),
        )
        assert plan.preemptions_at_step(4)[0].host == 1
        assert plan.preemptions_at_step(3) == ()
        assert plan.bit_flips_at_step(2)[0].device == (0, 0)
        assert plan.bit_flips_at_step(4) == ()

    def test_sample_deterministic_with_new_classes(self):
        kwargs = dict(
            expected_preemptions=2.0, expected_bit_flips=2.0,
            chips_per_host=4,
        )
        a = FaultPlan.sample(11, (4, 4), 30, **kwargs)
        b = FaultPlan.sample(11, (4, 4), 30, **kwargs)
        assert a == b
        assert a.num_events >= 0
        hosts = host_map((4, 4), 4)
        assert all(p.host in hosts for p in a.preemptions)


# ---------------------------------------------------------------------------
# Heartbeat detection: closed form == discrete-event simulation
# ---------------------------------------------------------------------------


class TestHeartbeatDetector:
    def test_validation(self):
        with pytest.raises(ValueError):
            HeartbeatDetector(interval_s=0.0)
        with pytest.raises(ValueError):
            HeartbeatDetector(timeout_s=0.0)
        with pytest.raises(ValueError):
            HeartbeatDetector(suspicion_threshold=0)

    def test_closed_form_hand_checks(self):
        det = HeartbeatDetector(1.0, 0.5, 2)
        # Dies at 2.3: first missed beat is #3 (t=3), declared at the
        # second consecutive missed check (t=4 + 0.5 timeout).
        assert det.detection_latency(2.3) == pytest.approx(4.5 - 2.3)
        # Dies exactly on a deadline: that beat is never sent.
        assert det.detection_latency(2.0) == pytest.approx(3.5 - 2.0)
        # Dies before the first beat.
        assert det.detection_latency(0.0) == pytest.approx(2.5)

    @pytest.mark.parametrize("fault_time", [0.0, 0.4, 1.0, 2.3, 7.9])
    @pytest.mark.parametrize("threshold", [1, 2, 3])
    def test_simulation_reproduces_closed_form(self, fault_time, threshold):
        det = HeartbeatDetector(1.0, 0.5, threshold)
        group = HostGroup((4, 4), chips_per_host=8)
        topology = MultiClientGroup(group)
        detections = det.simulate(topology, {1: fault_time})
        assert len(detections) == 1
        d = detections[0]
        assert d.host == 1 and not d.false_positive
        assert d.latency == pytest.approx(det.detection_latency(fault_time))

    def test_single_client_worker_death_detected_by_coordinator(self):
        det = HeartbeatDetector(1.0, 0.5, 2)
        group = HostGroup((8, 4), chips_per_host=8)  # 4 hosts
        topology = SingleClientCoordinator(group)
        detections = det.simulate(topology, {2: 3.0})
        assert [d.host for d in detections] == [2]
        assert detections[0].by == topology.coordinator

    def test_coordinator_death_is_unobserved(self):
        """Nobody monitors the monitor: the SPOF hole, as a non-detection."""
        det = HeartbeatDetector(1.0, 0.5, 2)
        group = HostGroup((8, 4), chips_per_host=8)
        single = SingleClientCoordinator(group)
        assert det.simulate(single, {0: 3.0}) == []
        # The same death under the peer ring *is* detected...
        multi = MultiClientGroup(group)
        detections = det.simulate(multi, {0: 3.0})
        assert [d.host for d in detections] == [0]
        # ...and only the single-client topology calls it fatal.
        with pytest.raises(JobKilledError):
            single.check_host_failure(0)
        multi.check_host_failure(0)  # survivors re-form; no exception

    def test_flap_window_needs_threshold_above_one(self):
        """Heartbeat flapping across a LinkFault window: threshold 1
        false-kills an alive host, threshold 2 rides it out."""
        group = HostGroup((4, 4), chips_per_host=8)  # hosts 0, 1
        topology = MultiClientGroup(group)
        # Host 0's beats to its observer (host 1) are dropped inside
        # [2.8, 3.2): exactly one beat (t=3) is lost.
        flap = LinkFault(
            src=(0, 0), dst=(2, 0), start=2.8, duration=0.4, factor=0.0,
            bidirectional=False,  # only host 0's beats to host 1 are lost
        )
        plan = FaultPlan(link_faults=(flap,))
        trigger_happy = HeartbeatDetector(1.0, 0.5, 1)
        detections = trigger_happy.simulate(
            topology, {}, plan=plan, horizon_s=10.0
        )
        assert [d.host for d in detections] == [0]
        assert detections[0].false_positive
        patient = HeartbeatDetector(1.0, 0.5, 2)
        assert patient.simulate(topology, {}, plan=plan, horizon_s=10.0) == []

    def test_oracle_detector(self):
        assert OracleDetector(0.5).detection_latency(123.0) == 0.5
        with pytest.raises(ValueError):
            OracleDetector(-1.0)


# ---------------------------------------------------------------------------
# Barrier: timeout and straggler attribution
# ---------------------------------------------------------------------------


class TestBarrier:
    def test_zero_participants_releases_immediately(self):
        result = resolve_barrier({}, timeout_s=5.0)
        assert not result.timed_out
        assert result.arrived == () and result.stragglers == ()

    def test_all_arrive_releases_at_last(self):
        result = resolve_barrier({0: 1.0, 1: 3.0, 2: 2.0}, timeout_s=5.0)
        assert not result.timed_out
        assert result.released_at == pytest.approx(3.0)
        assert result.arrived == (0, 1, 2) and result.stragglers == ()

    def test_all_hosts_straggle(self):
        result = resolve_barrier({0: 9.0, 1: 8.0}, timeout_s=5.0)
        assert result.timed_out
        assert result.released_at == pytest.approx(5.0)
        assert result.arrived == () and result.stragglers == (0, 1)

    def test_partial_timeout_names_the_stragglers(self):
        result = resolve_barrier({0: 1.0, 1: 99.0, 2: 2.0}, timeout_s=5.0)
        assert result.timed_out
        assert result.arrived == (0, 2) and result.stragglers == (1,)

    def test_late_and_unknown_arrivals(self):
        sim = Simulator()
        barrier = Barrier(sim, (0, 1), timeout_s=1.0)
        with pytest.raises(ValueError):
            barrier.arrive(7)
        sim.run()  # nobody arrives; times out
        assert barrier.event.value.timed_out
        barrier.arrive(0)  # late: recorded, result unchanged
        assert barrier.event.value.stragglers == (0, 1)


# ---------------------------------------------------------------------------
# Checkpoint policies
# ---------------------------------------------------------------------------


class TestCheckpointPolicies:
    def test_step_interval_matches_legacy_modulo(self):
        policy = StepInterval(4)
        hits = [
            step for step in range(1, 13)
            if policy.should_checkpoint(
                step=step, now_s=float(step),
                last_checkpoint_step=4 * ((step - 1) // 4),
                last_checkpoint_time_s=0.0,
            )
        ]
        assert hits == [4, 8, 12]

    def test_wall_clock_interval(self):
        policy = WallClockInterval(10.0)
        assert not policy.should_checkpoint(
            step=3, now_s=9.0, last_checkpoint_step=0,
            last_checkpoint_time_s=0.0,
        )
        assert policy.should_checkpoint(
            step=4, now_s=12.0, last_checkpoint_step=0,
            last_checkpoint_time_s=0.0,
        )

    def test_risk_adaptive_young_daly(self):
        policy = RiskAdaptive(hazard_per_second=0.02, checkpoint_seconds=1.0)
        assert policy.interval_s == pytest.approx(np.sqrt(2 * 1.0 / 0.02))
        assert RiskAdaptive(0.0, 1.0).interval_s == np.inf

    def test_risk_adaptive_from_plan(self):
        plan = FaultPlan(
            chip_failures=(ChipFailure((0, 0), at_step=3),),
            preemptions=(PreemptionSignal(host=0, at_step=7),),
        )
        policy = RiskAdaptive.from_plan(
            plan, horizon_s=100.0, state_bytes=int(2e9),
            bandwidth_bytes_per_s=1e9,
        )
        assert policy.hazard_per_second == pytest.approx(2 / 100.0)
        assert policy.checkpoint_seconds == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            StepInterval(0)
        with pytest.raises(ValueError):
            WallClockInterval(0.0)
        with pytest.raises(ValueError):
            RiskAdaptive(-1.0, 1.0)


# ---------------------------------------------------------------------------
# Consistency guard: hashes, bit flips, tripwires
# ---------------------------------------------------------------------------


class TestConsistencyGuard:
    def test_apply_bit_flips_is_a_sparse_involution(self):
        params = {"w": np.arange(6, dtype=np.float64).reshape(2, 3)}
        flip = BitFlipFault(device=(0, 0), at_step=1, param="w", index=4, bit=7)
        once = apply_bit_flips(params, [flip])
        assert not np.array_equal(once["w"], params["w"])
        # Only one element differs, and flipping again restores it.
        assert int(np.sum(once["w"] != params["w"])) == 1
        twice = apply_bit_flips(once, [flip])
        assert np.array_equal(twice["w"], params["w"])

    def test_param_hash_detects_the_flip(self):
        guard = ConsistencyGuard()
        params = {"w": np.ones(4), "b": np.zeros(2)}
        flipped = apply_bit_flips(
            params, [BitFlipFault(device=(0, 0), at_step=1, param="b", bit=3)]
        )
        assert guard.param_hash(params) != guard.param_hash(flipped)
        assert guard.param_hash(params) == guard.param_hash(
            {k: v.copy() for k, v in params.items()}
        )

    def test_find_desynced_majority_and_tie(self):
        guard = ConsistencyGuard()
        assert guard.find_desynced({}) == ((), False)
        assert guard.find_desynced({(0, 0): "a", (1, 0): "a"}) == ((), False)
        desynced, ambiguous = guard.find_desynced(
            {(0, 0): "a", (1, 0): "a", (2, 0): "b"}
        )
        assert desynced == ((2, 0),) and not ambiguous
        desynced, ambiguous = guard.find_desynced({(0, 0): "a", (1, 0): "b"})
        assert desynced == ((0, 0), (1, 0)) and ambiguous

    def test_scan_tree_raises_or_counts(self):
        guard = ConsistencyGuard(on_nonfinite="raise")
        tree = {"ok": np.ones(3), "bad": np.array([1.0, np.nan])}
        with pytest.raises(SilentCorruptionError) as err:
            guard.scan_tree(tree, kind="gradient", step=5)
        assert err.value.names == ("bad",) and err.value.step == 5
        counting = ConsistencyGuard(on_nonfinite="count")
        assert counting.scan_tree(tree) == ("bad",)

    def test_trainer_guard_hook_trips_on_nonfinite_gradients(self):
        trainer = _factory(2)
        trainer.guard = ConsistencyGuard(on_nonfinite="raise")
        x, labels = _batch(0)
        trainer.step(x, labels)  # healthy step passes the tripwire
        name = sorted(trainer.params)[0]
        trainer.params[name] = np.full_like(trainer.params[name], np.nan)
        with pytest.raises(SilentCorruptionError):
            trainer.step(x, labels)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConsistencyGuard(check_interval=0)
        with pytest.raises(ValueError):
            ConsistencyGuard(on_nonfinite="explode")


# ---------------------------------------------------------------------------
# run_chaos with the control plane wired in
# ---------------------------------------------------------------------------


class TestChaosDetector:
    PLAN = FaultPlan(chip_failures=(ChipFailure((1, 1), at_step=7),))
    CONFIG = ChaosConfig(
        mesh_shape=(2, 2), target_steps=12, checkpoint_interval=4,
        detection_timeout_s=0.5, restore_bandwidth_bytes_per_s=1e9,
    )

    def test_oracle_vs_heartbeat_exact_latency_delta(self):
        """Hand check on 2x2: steps 0..7 run (8 s), the failure hangs the
        fleet until detection, then a 1 s restore (1 GB @ 1 GB/s) rewinds
        to step 4.  The only difference between oracle and heartbeat runs
        is the accounted detection latency."""
        oracle = run_chaos(self.PLAN, self.CONFIG, state_bytes=int(1e9))
        detector = HeartbeatDetector(1.0, 0.5, 2)
        heartbeat = run_chaos(
            self.PLAN, self.CONFIG, state_bytes=int(1e9), detector=detector
        )
        expected_latency = detector.detection_latency(8.0)  # hang starts t=8
        assert heartbeat.detections == 1
        assert heartbeat.mttd_seconds == pytest.approx(expected_latency)
        assert heartbeat.total_seconds - oracle.total_seconds == pytest.approx(
            expected_latency - self.CONFIG.detection_timeout_s
        )
        assert heartbeat.lost_steps == oracle.lost_steps == 4
        assert heartbeat.goodput < oracle.goodput

    def test_heartbeat_replay_is_deterministic(self):
        runs = [
            run_chaos(
                self.PLAN, self.CONFIG, state_bytes=int(1e9),
                detector=HeartbeatDetector(1.0, 0.5, 2),
            )
            for _ in range(2)
        ]
        assert runs[0].mttd_seconds == runs[1].mttd_seconds
        assert runs[0].total_seconds == runs[1].total_seconds
        assert runs[0].goodput == runs[1].goodput

    def test_sampled_plan_replay_is_deterministic(self):
        config = ChaosConfig(
            mesh_shape=(4, 4), target_steps=30, checkpoint_interval=5
        )
        reports = [
            run_chaos(
                FaultPlan.sample(9, (4, 4), 30, expected_chip_failures=2.0),
                config, state_bytes=int(1e9),
                detector=HeartbeatDetector(2.0, 1.0, 2),
            )
            for _ in range(2)
        ]
        assert reports[0].mttd_seconds == reports[1].mttd_seconds
        assert reports[0].goodput == reports[1].goodput

    def test_larger_mttd_lowers_accounting_goodput(self):
        """The accounting-only mode threads detection latency into
        goodput: a lazier heartbeat visibly costs throughput."""
        fast = run_chaos(
            self.PLAN, self.CONFIG, state_bytes=int(1e9),
            detector=OracleDetector(0.0),
        )
        slow = run_chaos(
            self.PLAN, self.CONFIG, state_bytes=int(1e9),
            detector=OracleDetector(25.0),
        )
        assert slow.goodput < fast.goodput
        assert slow.total_seconds - fast.total_seconds == pytest.approx(25.0)


class TestChaosPreemption:
    def test_grace_window_save_loses_nothing(self):
        plan = FaultPlan(
            preemptions=(PreemptionSignal(host=0, at_step=6, grace_s=30.0),)
        )
        config = ChaosConfig(
            mesh_shape=(4, 4), target_steps=10, checkpoint_interval=4,
            chips_per_host=8, restore_bandwidth_bytes_per_s=1e9,
        )
        report = run_chaos(plan, config, state_bytes=int(2e9))
        assert report.preemptions == 1
        assert report.grace_saves == 1
        assert report.lost_steps == 0
        assert report.detections == 0  # announced death: nothing to detect
        assert report.survivors == 8

    def test_short_grace_window_loses_steps(self):
        plan = FaultPlan(
            preemptions=(PreemptionSignal(host=0, at_step=6, grace_s=1.0),)
        )
        config = ChaosConfig(
            mesh_shape=(4, 4), target_steps=10, checkpoint_interval=4,
            chips_per_host=8, restore_bandwidth_bytes_per_s=1e9,
        )
        report = run_chaos(plan, config, state_bytes=int(2e9))
        assert report.grace_saves == 0
        assert report.lost_steps == 2  # steps 4, 5 redone from the step-4 ckpt

    def test_preemption_with_trainer_stays_bit_identical(self):
        plan = FaultPlan(
            preemptions=(PreemptionSignal(host=0, at_step=5, grace_s=60.0),)
        )
        config = ChaosConfig(
            mesh_shape=(4, 1), target_steps=8, checkpoint_interval=3,
            chips_per_host=2,
        )
        report = run_chaos(
            plan, config, trainer_factory=_factory, batch_fn=_batch
        )
        assert report.survivors == 2 and report.lost_steps == 0
        # Reference: a clean run to the preemption point on the full mesh,
        # whose grace-window snapshot is restored onto the surviving shape
        # and resumed — the bit-identity contract of the elastic restore.
        reference = _factory(4)
        for step in range(5):
            reference.step(*_batch(step))
        survivor = _factory(2)
        survivor.restore_checkpoint(reference.save_checkpoint())
        for step in range(5, 8):
            survivor.step(*_batch(step))
        assert _params_equal(report.final_params, survivor.params)

    def test_preempting_every_host_raises(self):
        plan = FaultPlan(
            preemptions=(
                PreemptionSignal(host=0, at_step=2),
                PreemptionSignal(host=1, at_step=2),
            )
        )
        config = ChaosConfig(
            mesh_shape=(4, 4), target_steps=10, chips_per_host=8
        )
        with pytest.raises(DeviceLostError):
            run_chaos(plan, config, state_bytes=1)


class TestChaosSilentCorruption:
    def test_resync_recovers_bit_identical(self):
        """4 replicas, 1 flip: majority vote quarantines the minority and
        the final params match an uninterrupted reference exactly."""
        plan = FaultPlan(
            bit_flips=(
                BitFlipFault(device=(1, 0), at_step=5, index=3, bit=12),
            )
        )
        config = ChaosConfig(
            mesh_shape=(4, 1), target_steps=10, checkpoint_interval=4
        )
        guard = ConsistencyGuard(check_interval=2)
        report = run_chaos(
            plan, config, trainer_factory=_factory, batch_fn=_batch,
            guard=guard,
        )
        assert report.desyncs_caught == 1
        event = report.desync_events[0]
        assert event.recovery == "resync"
        assert event.device == (1, 0)
        assert event.detected_step - event.injected_step <= guard.check_interval
        reference = run_chaos(
            FaultPlan(), config, trainer_factory=_factory, batch_fn=_batch
        )
        assert _params_equal(report.final_params, reference.final_params)

    def test_ambiguous_vote_rewinds_bit_identical(self):
        """2 replicas disagree 1-1: no trustworthy donor, so the fleet
        rewinds to the checkpoint and replays clean."""
        plan = FaultPlan(
            bit_flips=(
                BitFlipFault(device=(1, 0), at_step=5, index=1, bit=11),
            )
        )
        config = ChaosConfig(
            mesh_shape=(2, 1), target_steps=10, checkpoint_interval=4
        )
        report = run_chaos(
            plan, config, trainer_factory=_factory, batch_fn=_batch,
            guard=ConsistencyGuard(check_interval=2),
        )
        assert report.desyncs_caught == 1
        assert report.desync_events[0].recovery == "rewind"
        assert report.restarts == 1
        assert report.lost_steps == 2  # caught after step 6, rewound to 4
        reference = run_chaos(
            FaultPlan(), config, trainer_factory=_factory, batch_fn=_batch
        )
        assert _params_equal(report.final_params, reference.final_params)

    @pytest.mark.parametrize("real", [True, False], ids=["real", "accounting"])
    @pytest.mark.parametrize(
        "replicas, recovery", [(4, "resync"), (2, "rewind")]
    )
    def test_desync_events_are_pinned(self, replicas, recovery, real):
        """The flip lands before step 5 runs and the interval-2 guard fires
        after step 5 completes: detected at step 6 in both recoveries — the
        step the guard fired at, not the step 4 a rewind resumes from."""
        plan = FaultPlan(
            bit_flips=(
                BitFlipFault(device=(1, 0), at_step=5, index=3, bit=12),
            )
        )
        config = ChaosConfig(
            mesh_shape=(replicas, 1), target_steps=10, checkpoint_interval=4
        )
        mode = (
            dict(trainer_factory=_factory, batch_fn=_batch)
            if real
            else dict(state_bytes=1000)
        )
        report = run_chaos(
            plan, config, guard=ConsistencyGuard(check_interval=2), **mode
        )
        assert report.desync_events == [
            DesyncEvent(
                device=(1, 0), injected_step=5, detected_step=6,
                recovery=recovery,
            )
        ]
        assert report.restarts == (1 if recovery == "rewind" else 0)

    def test_accounting_mode_tracks_desyncs(self):
        plan = FaultPlan(
            bit_flips=(
                BitFlipFault(device=(1, 0), at_step=5, index=3, bit=12),
            )
        )
        config = ChaosConfig(
            mesh_shape=(4, 1), target_steps=10, checkpoint_interval=4
        )
        report = run_chaos(
            plan, config, state_bytes=1000,
            guard=ConsistencyGuard(check_interval=2, hash_seconds=0.5),
        )
        assert report.desyncs_caught == 1
        assert report.guard_checks == 5
        # 10 steps + 5 hash rounds + one resync transfer (1000 B @ 1 GB/s).
        assert report.total_seconds == pytest.approx(10 + 5 * 0.5 + 1e-6)

    def test_uncaught_without_a_guard(self):
        plan = FaultPlan(
            bit_flips=(
                BitFlipFault(device=(1, 0), at_step=5, index=3, bit=12),
            )
        )
        config = ChaosConfig(mesh_shape=(4, 1), target_steps=10)
        report = run_chaos(plan, config, state_bytes=1000)
        assert report.desyncs_caught == 0  # SDC is silent by definition


class TestChaosPolicies:
    def test_checkpoint_write_cost_is_charged(self):
        config = ChaosConfig(
            mesh_shape=(2, 2), target_steps=12, checkpoint_interval=4,
            checkpoint_write_seconds=0.25,
        )
        report = run_chaos(FaultPlan(), config, state_bytes=1)
        # Checkpoints at steps 4 and 8 (not 12: the run is over).
        assert report.checkpoints_taken == 3  # initial + 2
        assert report.total_seconds == pytest.approx(12 + 2 * 0.25)

    def test_wall_clock_policy_checkpoints_by_time(self):
        config = ChaosConfig(
            mesh_shape=(2, 2), target_steps=10, checkpoint_interval=3
        )
        report = run_chaos(
            FaultPlan(), config, state_bytes=1,
            checkpoint_policy=WallClockInterval(4.0),
        )
        # 1 s steps: snapshots after steps 4 and 8, plus the initial one.
        assert report.checkpoints_taken == 3

    def test_risk_adaptive_policy_runs(self):
        plan = FaultPlan.sample(3, (4, 4), 40, expected_chip_failures=2.0)
        config = ChaosConfig(
            mesh_shape=(4, 4), target_steps=40, checkpoint_interval=5
        )
        policy = RiskAdaptive.from_plan(
            plan, horizon_s=40.0, state_bytes=int(1e9),
            bandwidth_bytes_per_s=1e9,
        )
        report = run_chaos(
            plan, config, state_bytes=int(1e9), checkpoint_policy=policy
        )
        assert report.steps_executed >= 40


class TestChaosTelemetry:
    def test_controlplane_counters_recorded(self, monkeypatch):
        monkeypatch.setattr(telemetry, "enabled", True)
        telemetry.reset()
        try:
            plan = FaultPlan(
                chip_failures=(ChipFailure((1, 0), at_step=7),),
                preemptions=(
                    PreemptionSignal(host=0, at_step=10, grace_s=60.0),
                ),
                bit_flips=(
                    BitFlipFault(device=(3, 0), at_step=2, index=1, bit=9),
                ),
            )
            config = ChaosConfig(
                mesh_shape=(4, 1), target_steps=14, checkpoint_interval=4,
                chips_per_host=2,
            )
            report = run_chaos(
                plan, config, state_bytes=1000,
                detector=HeartbeatDetector(1.0, 0.5, 2),
                guard=ConsistencyGuard(check_interval=2),
            )
            m = telemetry.metrics
            assert m.value("controlplane_detections") == report.detections == 1
            assert m.value("controlplane_detection_seconds") == pytest.approx(
                report.detection_seconds
            )
            assert m.value("controlplane_preemptions") == 1
            assert m.value("controlplane_preempt_checkpoints") == 1
            assert m.value("controlplane_bit_flips_injected") == 1
            assert m.value("controlplane_hash_checks") == report.guard_checks
            assert m.value("controlplane_desyncs_caught") == 1
            from repro.telemetry.report import step_breakdown

            breakdown = step_breakdown()
            assert "controlplane_detections" in breakdown
            assert "controlplane_preemptions" in breakdown
        finally:
            telemetry.reset()
