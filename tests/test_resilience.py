"""Fault injection, checkpoint/restore, and elastic chaos-harness tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.comm.schedule import (
    simulate_degraded_all_gather,
    simulate_degraded_reduce_scatter,
    simulate_ring_all_gather,
    simulate_ring_reduce_scatter,
)
from repro.core.data_parallel import DataParallelTrainer
from repro.core.weight_update_sharding import WeightUpdateShardedTrainer
from repro.hardware.rings import degraded_ring, degraded_rings, y_ring
from repro.hardware.topology import TorusMesh
from repro.models.mlp import MLP
from repro.optim.adam import Adam
from repro.optim.lamb import LAMB
from repro.resilience.chaos import ChaosConfig, run_chaos
from repro.resilience.checkpoint import TrainerCheckpoint
from repro.resilience.faults import (
    ChipFailure,
    DeviceLostError,
    FaultPlan,
    LinkDownError,
    LinkFault,
    RetryPolicy,
    StragglerFault,
)
from repro.runtime.mesh import VirtualMesh

LAYERS = [8, 16, 4]


def _trainer(kind: str, n: int, seed: int = 7):
    if kind == "dp":
        t = DataParallelTrainer(MLP(LAYERS), Adam(learning_rate=0.01), dp_x=n)
    else:
        t = WeightUpdateShardedTrainer(
            MLP(LAYERS), LAMB(learning_rate=0.01), num_replicas=n
        )
    t.init(np.random.default_rng(seed))
    return t


def _batch(step: int, batch_size: int = 12):
    rng = np.random.default_rng(40_000 + step)
    x = rng.standard_normal((batch_size, LAYERS[0]))
    labels = rng.integers(0, LAYERS[-1], size=batch_size)
    return x, labels


def _params_equal(a, b) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


class TestFaultPlan:
    def test_sample_is_seed_deterministic(self):
        kwargs = dict(
            expected_chip_failures=2.0, expected_link_flaps=3.0,
            expected_stragglers=1.0,
        )
        a = FaultPlan.sample(5, (4, 4), 20, **kwargs)
        b = FaultPlan.sample(5, (4, 4), 20, **kwargs)
        c = FaultPlan.sample(6, (4, 4), 20, **kwargs)
        assert a == b
        assert a != c

    def test_step_queries(self):
        plan = FaultPlan(
            chip_failures=(
                ChipFailure((0, 0), at_step=3),
                ChipFailure((1, 1), at_step=5),
            ),
            stragglers=(StragglerFault((2, 0), 4, 2, 3.0),),
        )
        assert plan.chip_failures_at_step(3) == ((0, 0),)
        assert plan.straggler_factor((2, 0), 4) == 3.0
        assert plan.straggler_factor((2, 0), 6) == 1.0
        assert plan.straggler_factor((0, 0), 4) == 1.0

    @given(
        stragglers=st.lists(
            st.builds(
                StragglerFault,
                device=st.tuples(st.integers(0, 3), st.integers(0, 3)),
                start_step=st.integers(0, 12),
                duration_steps=st.integers(1, 6),
                slowdown=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.5]),
            ),
            max_size=8,
        ),
        devices=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=1, max_size=16, unique=True,
        ),
        step=st.integers(0, 20),
    )
    @settings(max_examples=200, deadline=None)
    def test_slowdown_at_is_the_max_straggler_factor(self, stragglers, devices, step):
        """The closed form equals the per-device scan it replaced, for any
        container: windows may overlap on one device, and stragglers on
        devices outside the set (dead chips, other slices) never count."""
        plan = FaultPlan(stragglers=tuple(stragglers))
        oracle = max(plan.straggler_factor(d, step) for d in devices)
        assert plan.slowdown_at(step, devices) == oracle
        assert plan.slowdown_at(step, tuple(devices)) == oracle
        assert plan.slowdown_at(step, frozenset(devices)) == oracle
        assert plan.slowdown_at(step, dict.fromkeys(devices)) == oracle

    def test_slowdown_at_overlapping_windows_and_dead_devices(self):
        plan = FaultPlan(
            stragglers=(
                StragglerFault((1, 1), 2, 6, 2.0),
                StragglerFault((1, 1), 4, 2, 5.0),  # overlaps the first
                StragglerFault((0, 2), 4, 2, 9.0),  # on a chip that is gone
            ),
        )
        alive = [(0, 0), (1, 1)]
        assert [plan.slowdown_at(step, alive) for step in range(1, 9)] == [
            1.0, 2.0, 2.0, 5.0, 5.0, 2.0, 2.0, 1.0,
        ]
        assert plan.slowdown_at(4, alive + [(0, 2)]) == 9.0
        assert plan.slowdown_at(4, [(0, 0)]) == 1.0

    def test_link_factor_window_and_bidirectionality(self):
        plan = FaultPlan(
            link_faults=(LinkFault((0, 0), (0, 1), start=1.0, duration=2.0),),
        )
        assert plan.link_factor((0, 0), (0, 1), 0.5) == 1.0
        assert plan.link_factor((0, 0), (0, 1), 1.5) == 0.0
        assert plan.link_factor((0, 1), (0, 0), 1.5) == 0.0  # bidirectional
        assert plan.link_factor((0, 0), (0, 1), 3.0) == 1.0

    def test_chip_failure_requires_a_time_or_step(self):
        with pytest.raises(ValueError):
            ChipFailure((0, 0))

    def test_retry_backoff_is_exponential(self):
        policy = RetryPolicy(backoff_s=1.0, backoff_factor=2.0)
        assert [policy.backoff_after(k) for k in (1, 2, 3)] == [1.0, 2.0, 4.0]


class TestDegradedRings:
    def test_hole_is_hopped_over(self):
        mesh = TorusMesh(4, 4, wrap_x=True, wrap_y=True)
        ring = y_ring(mesh, x=1)
        healed = degraded_ring(ring, {(1, 2)})
        assert healed is not None
        assert (1, 2) not in healed.members
        assert healed.size == ring.size - 1
        # Survivor order is preserved and the segments still route on the mesh.
        assert [m for m in ring.members if tuple(m) != (1, 2)] == list(
            healed.members
        )
        assert len(healed.segments(mesh)) == healed.size

    def test_unaffected_ring_is_returned_as_is(self):
        mesh = TorusMesh(4, 4, wrap_x=True, wrap_y=True)
        ring = y_ring(mesh, x=0)
        assert degraded_ring(ring, {(3, 3)}) is ring

    def test_ring_with_fewer_than_two_survivors_drops(self):
        mesh = TorusMesh(2, 3, wrap_x=True, wrap_y=True)
        ring = y_ring(mesh, x=0)  # three members
        assert degraded_ring(ring, {(0, 0)}) is not None
        assert degraded_ring(ring, {(0, 0), (0, 1)}) is None
        rings = [y_ring(mesh, x=0), y_ring(mesh, x=1)]
        assert len(degraded_rings(rings, {(0, 0), (0, 1)})) == 1


class TestMeshFaults:
    def test_put_coerces_ndarray_subclasses(self):
        # Regression: inputs arriving as ndarray subclasses must land as
        # base-class arrays, not leak subclass behavior into collectives.
        class Tagged(np.ndarray):
            pass

        mesh = VirtualMesh(2, 1)
        mesh.put("w", (0, 0), np.arange(4.0).view(Tagged))
        stored = mesh.get("w", (0, 0))
        assert type(stored) is np.ndarray
        assert np.array_equal(stored, np.arange(4.0))

    def test_dead_device_buffers_unreachable(self):
        mesh = VirtualMesh(2, 2)
        mesh.put_replicated("w", np.ones(3))
        mesh.fail_device((0, 1))
        with pytest.raises(DeviceLostError) as err:
            mesh.get("w", (0, 1))
        assert err.value.devices == ((0, 1),)
        with pytest.raises(DeviceLostError):
            mesh.put("w", (0, 1), np.zeros(3))
        assert mesh.num_alive == 3
        assert (0, 1) in mesh.dead_devices

    def test_collective_on_holey_mesh_raises_by_default(self):
        mesh = VirtualMesh(2, 2)
        mesh.put_replicated("g", np.ones(4))
        mesh.fail_device((1, 0))
        with pytest.raises(DeviceLostError):
            mesh.all_reduce("g")

    def test_healed_collective_sums_survivors(self):
        mesh = VirtualMesh(2, 2)
        for i, device in enumerate(mesh.devices()):
            mesh.put("g", device, np.full(4, float(i + 1)))
        mesh.fail_device((0, 0))  # held 1.0
        mesh.all_reduce("g", dtype_policy="f64", on_fault="heal")
        expected = np.full(4, 2.0 + 3.0 + 4.0)
        for device in mesh.alive_devices():
            assert np.array_equal(mesh.get("g", device), expected)
        # Rejoining drops the dead device's stale buffer.
        mesh.restore_device((0, 0))
        with pytest.raises(KeyError):
            mesh.get("g", (0, 0))

    def test_healed_collective_counts_in_telemetry(self):
        telemetry.enable()
        telemetry.reset()
        try:
            mesh = VirtualMesh(2, 2)
            mesh.put_replicated("g", np.ones(2))
            mesh.fail_device((1, 1))
            mesh.all_reduce("g", on_fault="heal")
            assert telemetry.metrics.value("mesh_degraded_collectives") == 1
            assert telemetry.metrics.value("mesh_device_failures") == 1
        finally:
            telemetry.reset()


class TestDegradedSchedules:
    def _mesh(self):
        return TorusMesh(4, 4, wrap_x=True, wrap_y=True)

    def test_healthy_plan_matches_fault_free_schedule(self):
        mesh = self._mesh()
        rings = [y_ring(mesh, x) for x in range(4)]
        baseline = simulate_ring_reduce_scatter(mesh, rings, 1e6)
        result = simulate_degraded_reduce_scatter(mesh, rings, 1e6, FaultPlan())
        assert result.seconds == baseline
        assert result.retries == 0
        assert result.degraded_transfers == 0
        assert result.healed_rings == 4
        assert result.dropped_rings == 0

    @pytest.mark.parametrize("gather", [False, True], ids=["reduce_scatter", "all_gather"])
    @pytest.mark.parametrize(
        "wrap, bidirectional",
        [(True, True), (True, False), (False, True)],
        ids=["closed_bidirectional", "closed_one_way", "open_line"],
    )
    def test_empty_plan_is_the_healthy_schedule_exactly(
        self, wrap, bidirectional, gather
    ):
        """One phase driver serves both entry points: with nothing to inject
        the fault-aware leaf must cost exactly what the healthy leaf does,
        and only the healthy entry may touch the phase memo."""
        from repro.comm import schedule

        mesh = TorusMesh(2, 4, wrap_y=wrap)
        rings = [y_ring(mesh, x) for x in range(2)]
        healthy, degraded = (
            (simulate_ring_all_gather, simulate_degraded_all_gather)
            if gather
            else (simulate_ring_reduce_scatter, simulate_degraded_reduce_scatter)
        )
        baseline = healthy(mesh, rings, 3e5, bidirectional=bidirectional)
        memo = dict(schedule._PHASE_CACHE)
        result = degraded(
            mesh, rings, 3e5, FaultPlan(), bidirectional=bidirectional
        )
        assert result.seconds == baseline
        assert result.retries == result.degraded_transfers == 0
        assert dict(schedule._PHASE_CACHE) == memo

    def test_dead_chip_heals_ring_and_slows_schedule(self):
        mesh = self._mesh()
        ring = y_ring(mesh, x=0)
        plan = FaultPlan(chip_failures=(ChipFailure((0, 2), at_time=0.0),),)
        result = simulate_degraded_reduce_scatter(mesh, ring, 1e6, plan)
        assert result.dead_chips == ((0, 2),)
        assert result.healed_rings == 1
        assert result.seconds > 0.0

    def test_link_flap_retries_then_recovers(self):
        mesh = self._mesh()
        ring = y_ring(mesh, x=0)
        baseline = simulate_ring_reduce_scatter(mesh, ring, 1e6)
        flap = LinkFault((0, 0), (0, 1), start=0.0, duration=2e-4)
        result = simulate_degraded_reduce_scatter(
            mesh, ring, 1e6, FaultPlan(link_faults=(flap,)),
            policy=RetryPolicy(timeout_s=1e-4, max_attempts=10, backoff_s=1e-4),
        )
        assert result.retries > 0
        assert result.seconds > baseline

    def test_permanent_outage_exhausts_retries(self):
        mesh = self._mesh()
        ring = y_ring(mesh, x=0)
        outage = LinkFault((0, 0), (0, 1), start=0.0, duration=1e9)
        with pytest.raises(LinkDownError) as err:
            simulate_degraded_reduce_scatter(
                mesh, ring, 1e6, FaultPlan(link_faults=(outage,)),
                policy=RetryPolicy(max_attempts=3),
            )
        assert err.value.attempts == 3
        # The simulator names the ring process the failure surfaced from.
        if hasattr(err.value, "add_note"):  # py3.11+
            notes = err.value.__notes__
            assert any("reduce_scatter_degraded[" in note for note in notes), notes

    def test_degraded_link_slows_without_retries(self):
        mesh = self._mesh()
        ring = y_ring(mesh, x=0)
        baseline = simulate_ring_all_gather(mesh, ring, 1e6)
        slow = LinkFault((0, 0), (0, 1), start=0.0, duration=1e9, factor=0.5)
        result = simulate_degraded_all_gather(
            mesh, ring, 1e6, FaultPlan(link_faults=(slow,))
        )
        assert result.retries == 0
        assert result.degraded_transfers > 0
        assert result.seconds > baseline


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("kind", ["dp", "wus_fused"])
    def test_interrupt_restore_resume_is_bit_identical(self, kind):
        uninterrupted = _trainer(kind, 4)
        for step in range(8):
            uninterrupted.step(*_batch(step))

        interrupted = _trainer(kind, 4)
        for step in range(3):
            interrupted.step(*_batch(step))
        ckpt = interrupted.save_checkpoint()
        resumed = _trainer(kind, 4, seed=99)  # different init: must not matter
        resumed.restore_checkpoint(ckpt)
        for step in range(3, 8):
            resumed.step(*_batch(step))
        assert _params_equal(resumed.params, uninterrupted.params)

    def test_checkpoint_is_a_snapshot(self):
        trainer = _trainer("wus_fused", 2)
        ckpt = trainer.save_checkpoint()
        before = {k: v.copy() for k, v in ckpt.params.items()}
        trainer.step(*_batch(0))
        assert _params_equal(ckpt.params, before)

    def test_npz_round_trip(self, tmp_path):
        trainer = _trainer("wus_fused", 3)
        trainer.step(*_batch(0))
        ckpt = trainer.save_checkpoint()
        path = str(tmp_path / "ckpt.npz")
        ckpt.save(path)
        loaded = TrainerCheckpoint.load(path)
        assert loaded.step_index == ckpt.step_index
        assert loaded.trainer == "WeightUpdateShardedTrainer"
        assert _params_equal(loaded.params, ckpt.params)
        for name, slots in ckpt.opt_state.items():
            for slot, arr in slots.items():
                assert np.array_equal(loaded.opt_state[name][slot], arr)

    def test_checkpoint_metrics_pinned(self):
        telemetry.enable()
        telemetry.reset()
        try:
            trainer = _trainer("dp", 2)
            ckpt = trainer.save_checkpoint()
            trainer.save_checkpoint()
            m = telemetry.metrics
            assert m.value(
                "resilience_checkpoints", trainer="DataParallelTrainer"
            ) == 2
            assert m.value(
                "resilience_checkpoint_bytes", trainer="DataParallelTrainer"
            ) == 2 * ckpt.nbytes
        finally:
            telemetry.reset()


class TestCheckpointProperties:
    """Hypothesis: save -> restore -> resume == uninterrupted, any shape."""

    @given(
        dp_x=st.integers(1, 3), dp_y=st.integers(1, 2),
        interrupt=st.integers(0, 3),
    )
    @settings(max_examples=10, deadline=None)
    def test_data_parallel_any_mesh_shape(self, dp_x, dp_y, interrupt):
        def make():
            t = DataParallelTrainer(
                MLP(LAYERS), Adam(learning_rate=0.01), dp_x=dp_x, dp_y=dp_y
            )
            t.init(np.random.default_rng(3))
            return t

        steps = 5
        uninterrupted = make()
        for step in range(steps):
            uninterrupted.step(*_batch(step))
        source = make()
        for step in range(interrupt):
            source.step(*_batch(step))
        resumed = make()
        resumed.restore_checkpoint(source.save_checkpoint())
        for step in range(interrupt, steps):
            resumed.step(*_batch(step))
        assert _params_equal(resumed.params, uninterrupted.params)

    @given(
        replicas=st.sampled_from([1, 2, 3, 4, 6]),
        interrupt=st.integers(0, 3),
    )
    @settings(max_examples=10, deadline=None)
    def test_wus_any_replica_count(self, replicas, interrupt):
        kind = "wus_fused"
        steps = 5
        uninterrupted = _trainer(kind, replicas)
        for step in range(steps):
            uninterrupted.step(*_batch(step))
        source = _trainer(kind, replicas)
        for step in range(interrupt):
            source.step(*_batch(step))
        resumed = _trainer(kind, replicas, seed=11)
        resumed.restore_checkpoint(source.save_checkpoint())
        for step in range(interrupt, steps):
            resumed.step(*_batch(step))
        assert _params_equal(resumed.params, uninterrupted.params)

    @given(
        n_from=st.sampled_from([2, 3, 4]),
        n_to=st.sampled_from([1, 2, 3, 4, 6]),
    )
    @settings(max_examples=10, deadline=None)
    def test_wus_reshards_across_replica_counts(self, n_from, n_to):
        """A WUS snapshot restores onto any replica count.

        Exact bit-identity only holds within one collective layout, so the
        cross-shape check is semantic: the restored WUS trainer must match
        a DataParallelTrainer restored from the same snapshot to float
        tolerance (the repo-wide WUS == replicated-update equivalence).
        """
        def wus_trainer(n, seed=7):
            t = WeightUpdateShardedTrainer(
                MLP(LAYERS), Adam(learning_rate=0.01), num_replicas=n
            )
            t.init(np.random.default_rng(seed))
            return t

        source = wus_trainer(n_from)
        for step in range(3):
            source.step(*_batch(step))
        ckpt = source.save_checkpoint()

        wus = wus_trainer(n_to, seed=23)
        wus.restore_checkpoint(ckpt)
        reference = DataParallelTrainer(
            MLP(LAYERS), Adam(learning_rate=0.01), dp_x=n_to,
            grad_dtype_policy="f64",
        )
        reference.init(np.random.default_rng(0))
        reference.restore_checkpoint(ckpt)
        for step in range(3, 6):
            wus.step(*_batch(step))
            reference.step(*_batch(step))
        for name in reference.params:
            np.testing.assert_allclose(
                wus.params[name], reference.params[name], rtol=1e-9, atol=1e-12
            )


class TestChaosHarness:
    def _factory(self, n):
        return _trainer("wus_fused", n)

    def test_device_loss_restores_bit_identical_to_clean_resume(self):
        """The acceptance scenario: mid-run chip death, elastic restore.

        The chaos run checkpoints every 4 steps and loses a chip at step 6;
        the reference interrupts nothing — it trains the original shape to
        the same step-4 checkpoint, restores it onto the survivors, and
        runs straight through.  Final params must match bit-for-bit.
        """
        plan = FaultPlan(chip_failures=(ChipFailure((1, 0), at_step=6),))
        config = ChaosConfig(
            mesh_shape=(4, 1), target_steps=10, checkpoint_interval=4
        )
        report = run_chaos(
            plan, config, trainer_factory=self._factory, batch_fn=_batch
        )
        assert report.device_failures == 1
        assert report.survivors == 3

        source = self._factory(4)
        for step in range(4):
            source.step(*_batch(step))
        ckpt = source.save_checkpoint()
        reference = self._factory(3)
        reference.restore_checkpoint(ckpt)
        for step in range(4, 10):
            reference.step(*_batch(step))
        assert _params_equal(report.final_params, reference.params)

    def test_goodput_accounting_pinned(self):
        plan = FaultPlan(
            chip_failures=(ChipFailure((1, 0), at_step=6),),
            stragglers=(StragglerFault((3, 0), 0, 2, 2.0),),
        )
        config = ChaosConfig(
            mesh_shape=(4, 1), target_steps=10, checkpoint_interval=4,
            base_step_seconds=1.0, detection_timeout_s=0.5,
            restore_bandwidth_bytes_per_s=1e9,
        )
        report = run_chaos(plan, config, state_bytes=int(1e9))
        # Steps 0 and 1 run at 2x (straggler); failure at step 6 wastes the
        # partial step plus steps 4-5 (last checkpoint at 4) and restarts.
        assert report.lost_steps == 3
        assert report.restarts == 1
        assert report.steps_executed == 12  # 10 useful + 2 redone
        assert report.restart_seconds == pytest.approx(0.5 + 1.0)
        assert report.mttr_seconds == pytest.approx(1.5)
        # Timeline: 2*2.0 (straggled) + 10*1.0 (clean incl. redone) + 1.0
        # wasted partial + 1.5 restart.
        assert report.total_seconds == pytest.approx(4.0 + 10.0 + 1.0 + 1.5)
        assert report.useful_seconds == pytest.approx(10.0)
        assert report.goodput == pytest.approx(10.0 / 16.5)

    def test_sampled_plan_with_stragglers_pinned(self):
        """Accounting-mode seed recorded before the straggler slowdown went
        closed-form: 8 stragglers, 4 chip failures and a preemption on 8x8,
        one straggler window on a chip that died 90 steps earlier (counting
        it would read 216.0 s)."""
        plan = FaultPlan.sample(
            5, (8, 8), 120, expected_chip_failures=3.0,
            expected_stragglers=6.0, expected_preemptions=1.0,
        )
        assert len(plan.stragglers) == 8
        config = ChaosConfig(
            mesh_shape=(8, 8), target_steps=120, checkpoint_interval=10
        )
        report = run_chaos(plan, config, state_bytes=int(2e9))
        assert report.accounting_dict() == {
            "steps_executed": 140,
            "restarts": 5,
            "lost_steps": 24,
            "checkpoints_taken": 13,
            "restart_seconds": 12.0,
            "total_seconds": 210.0,
            "useful_seconds": 120.0,
            "detections": 4,
            "detection_seconds": 2.0,
            "preemptions": 1,
            "goodput": 0.5714285714285714,
            "mttr_seconds": 2.4,
            "mttd_seconds": 0.5,
        }
        assert report.survivors == 64 - 4 - 8

    def test_failure_counters_pinned(self):
        telemetry.enable()
        telemetry.reset()
        try:
            plan = FaultPlan(chip_failures=(ChipFailure((1, 0), at_step=6),))
            config = ChaosConfig(
                mesh_shape=(4, 1), target_steps=10, checkpoint_interval=4,
                detection_timeout_s=0.5, restore_bandwidth_bytes_per_s=1e9,
            )
            run_chaos(plan, config, state_bytes=int(1e9))
            m = telemetry.metrics
            assert m.value("resilience_device_failures") == 1
            assert m.value("resilience_lost_steps") == 3
            assert m.value("resilience_restarts") == 1
            assert m.value("resilience_restart_seconds") == pytest.approx(1.5)
            assert m.value("resilience_mttr_seconds") == pytest.approx(1.5)
        finally:
            telemetry.reset()

    def test_killing_every_chip_raises(self):
        plan = FaultPlan(
            chip_failures=(
                ChipFailure((0, 0), at_step=1),
                ChipFailure((1, 0), at_step=1),
            ),
        )
        config = ChaosConfig(mesh_shape=(2, 1), target_steps=5)
        with pytest.raises(DeviceLostError):
            run_chaos(plan, config, state_bytes=1)

    def test_multiple_failures_shrink_mesh_progressively(self):
        plan = FaultPlan(
            chip_failures=(
                ChipFailure((0, 0), at_step=2),
                ChipFailure((1, 0), at_step=5),
            ),
        )
        config = ChaosConfig(
            mesh_shape=(4, 1), target_steps=8, checkpoint_interval=2
        )
        report = run_chaos(
            plan, config, trainer_factory=self._factory, batch_fn=_batch
        )
        assert report.device_failures == 2
        assert report.restarts == 2
        assert report.survivors == 2
        assert report.final_params is not None

    def test_trainer_factory_requires_batch_fn(self):
        config = ChaosConfig(mesh_shape=(2, 1), target_steps=1)
        with pytest.raises(ValueError):
            run_chaos(FaultPlan(), config, trainer_factory=self._factory)

    def test_strategy_that_cannot_checkpoint_is_rejected_up_front(self):
        """A hybrid trainer has no save_checkpoint: the harness must say so
        before building anything, not die inside the loop."""
        from repro.core.trainer import TrainerConfig
        from repro.optim import SGDMomentum

        calls = []
        hybrid = TrainerConfig(
            model=MLP(LAYERS), optimizer=SGDMomentum(0.05),
            strategy="hybrid", mp_size=2, seed=0,
        )
        with pytest.raises(ValueError, match="'hybrid' cannot checkpoint"):
            run_chaos(
                FaultPlan(), ChaosConfig((2, 1), 3), trainer_config=hybrid,
                batch_fn=lambda step: calls.append(step) or _batch(step),
            )
        assert calls == []


class TestReportIntegration:
    def test_failure_counters_appear_in_breakdown(self):
        from repro.telemetry.report import step_breakdown

        telemetry.enable()
        telemetry.reset()
        try:
            plan = FaultPlan(chip_failures=(ChipFailure((1, 0), at_step=2),))
            config = ChaosConfig(
                mesh_shape=(2, 1), target_steps=4, checkpoint_interval=2
            )
            run_chaos(plan, config, state_bytes=1000)
            report = step_breakdown()
            for counter in (
                "resilience_device_failures",
                "resilience_lost_steps",
                "resilience_restarts",
                "resilience_restart_seconds",
                "resilience_mttr_seconds",
            ):
                assert counter in report, counter
        finally:
            telemetry.reset()
