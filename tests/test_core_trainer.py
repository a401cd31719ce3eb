"""Unified Trainer API: config validation, factory dispatch, StepResult.

The headline property lives here too: the bucketed-overlap execution mode
is **bit-identical** to the eager mode at the same bucket count — overlap
only changes the modeled timeline and telemetry, never the arithmetic.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.controlplane.guard import ConsistencyGuard, SilentCorruptionError
from repro.core import STRATEGIES, StepResult, Trainer, TrainerConfig, make_trainer
from repro.core.data_parallel import DataParallelTrainer, SingleDeviceTrainer
from repro.core.model_parallel import HybridParallelTrainer
from repro.core.trainer import CHECKPOINTING_STRATEGIES, TrainLog
from repro.core.weight_update_sharding import WeightUpdateShardedTrainer
from repro.models.mlp import MLP, synthetic_classification
from repro.optim import LAMB, LARS, Adam, SGDMomentum


def _workload(seed=0, batch=64, din=12, dout=4):
    rng = np.random.default_rng(seed)
    return synthetic_classification(rng, batch, din, dout)


def _config(**overrides):
    defaults = dict(model=MLP([12, 24, 4]), optimizer=SGDMomentum(0.05), seed=0)
    defaults.update(overrides)
    return TrainerConfig(**defaults)


class TestTrainerConfig:
    def test_defaults(self):
        c = _config()
        assert c.strategy == "data_parallel"
        assert c.num_replicas == 1
        assert c.num_buckets == 1 and not c.overlap

    def test_num_replicas_is_mesh_product(self):
        assert _config(mesh_shape=(4, 2)).num_replicas == 8

    def test_with_returns_modified_copy(self):
        base = _config()
        changed = base.with_(strategy="wus", mesh_shape=(8, 1))
        assert changed.strategy == "wus" and changed.num_replicas == 8
        assert base.strategy == "data_parallel"

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(strategy="pipeline"), "unknown strategy"),
            (dict(mesh_shape=(0, 2)), "mesh_shape"),
            (dict(num_buckets=0), "num_buckets"),
            (dict(mp_size=0), "mp_size"),
            (dict(strategy="single", mesh_shape=(2, 1)), "1x1"),
            (dict(strategy="hybrid", overlap=True), "bucketed overlap"),
            (dict(strategy="single", num_buckets=2), "bucketed overlap"),
            # What the strategy's trainer would silently drop is rejected.
            (dict(strategy="wus", guard=ConsistencyGuard()), "guard"),
            (dict(strategy="data_parallel", mp_size=2), "mp_size > 1"),
            (dict(grad_dtype_policy="fp8"), "grad_dtype_policy"),
        ],
    )
    def test_validation(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            _config(**overrides)

    def test_guard_is_honoured_or_rejected(self):
        """A raise-guard never trains through a NaN batch: the one strategy
        that scans raises, every other refuses the config outright."""
        guard = ConsistencyGuard(on_nonfinite="raise")
        x, y = _workload()
        x[0, 0] = np.nan
        for strategy in STRATEGIES:
            if strategy != "data_parallel":
                with pytest.raises(ValueError, match="guard"):
                    _config(strategy=strategy, guard=guard)
        trainer = make_trainer(
            _config(strategy="data_parallel", mesh_shape=(2, 1), guard=guard)
        )
        with pytest.raises(SilentCorruptionError):
            trainer.step(x, y)


class TestMakeTrainer:
    @pytest.mark.parametrize(
        "overrides, cls",
        [
            (dict(strategy="single"), SingleDeviceTrainer),
            (dict(strategy="data_parallel", mesh_shape=(4, 2)), DataParallelTrainer),
            (dict(strategy="wus", mesh_shape=(8, 1)), WeightUpdateShardedTrainer),
            (dict(strategy="hybrid", mesh_shape=(2, 1), mp_size=2), HybridParallelTrainer),
        ],
    )
    def test_dispatch(self, overrides, cls):
        trainer = make_trainer(_config(**overrides))
        assert type(trainer) is cls
        assert isinstance(trainer, Trainer)
        # The one statement of which strategies can checkpoint stays true.
        can_checkpoint = overrides["strategy"] in CHECKPOINTING_STRATEGIES
        assert hasattr(trainer, "save_checkpoint") == can_checkpoint
        assert hasattr(trainer, "restore_checkpoint") == can_checkpoint

    def test_factory_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for strategy in STRATEGIES:
                mp_size = 2 if strategy == "hybrid" else 1
                make_trainer(_config(strategy=strategy, mp_size=mp_size))

    def test_seed_returns_initialized_trainer(self):
        trainer = make_trainer(_config(seed=3))
        assert trainer.params  # init() already ran
        x, y = _workload()
        assert np.isfinite(float(trainer.step(x, y)))

    def test_no_seed_returns_uninitialized_trainer(self):
        trainer = make_trainer(_config(seed=None))
        assert not getattr(trainer, "params", None)

    def test_same_seed_same_losses(self):
        x, y = _workload()
        losses = []
        for _ in range(2):
            trainer = make_trainer(_config(strategy="wus", mesh_shape=(4, 1)))
            losses.append([float(trainer.step(x, y)) for _ in range(3)])
        assert losses[0] == losses[1]


class TestStepResult:
    def test_is_the_loss(self):
        r = StepResult(0.25, {"forward_backward": 1.0, "update": 0.5}, 128.0, 3)
        assert isinstance(r, float)
        assert float(r) == 0.25 and r.loss == 0.25
        assert r + 1 == 1.25  # arithmetic still works
        assert f"{r:.2f}" == "0.25"

    def test_accounting_fields(self):
        r = StepResult(0.25, {"a": 1.0, "b": 0.5}, 128.0, 3)
        assert r.total_seconds == pytest.approx(1.5)
        assert r.bytes_moved == 128.0
        assert r.step_index == 3

    def test_defaults_empty(self):
        r = StepResult(1.0)
        assert r.phase_seconds == {} and r.bytes_moved == 0.0

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(strategy="single"),
            dict(strategy="data_parallel", mesh_shape=(2, 2), num_buckets=2),
            dict(strategy="wus", mesh_shape=(4, 1), num_buckets=2, overlap=True),
            dict(strategy="hybrid", mesh_shape=(2, 1), mp_size=2),
        ],
    )
    def test_every_trainer_returns_step_result(self, overrides):
        trainer = make_trainer(_config(**overrides))
        x, y = _workload()
        result = trainer.step(x, y)
        assert isinstance(result, StepResult)
        assert "forward_backward" in result.phase_seconds
        assert all(v >= 0.0 for v in result.phase_seconds.values())
        if overrides["strategy"] != "single":
            assert result.bytes_moved > 0.0


#: One arm per strategy, each with the options only it takes.
FOUR_STRATEGIES = [
    dict(strategy="single"),
    dict(strategy="data_parallel", mesh_shape=(2, 2), num_buckets=2),
    dict(strategy="wus", mesh_shape=(4, 1), num_buckets=2, overlap=True),
    dict(strategy="hybrid", mesh_shape=(2, 1), mp_size=2),
]


class TestOneStepFourStrategies:
    """The step around the update is one body: same checks, same telemetry."""

    @pytest.fixture(autouse=True)
    def _clean_telemetry(self, monkeypatch):
        monkeypatch.setattr(telemetry, "enabled", True)
        telemetry.reset()
        yield
        telemetry.reset()

    @pytest.mark.parametrize(
        "overrides", FOUR_STRATEGIES, ids=[o["strategy"] for o in FOUR_STRATEGIES]
    )
    def test_step_contract(self, overrides):
        trainer = make_trainer(_config(seed=None, **overrides))
        x, y = _workload()
        with pytest.raises(RuntimeError, match=r"^call init\(\) before step\(\)$"):
            trainer.step(x, y)
        trainer.init(np.random.default_rng(0))
        name = type(trainer).__name__
        for done in (1, 2):
            telemetry.tracer.reset()
            result = trainer.step(x, y)
            events = [e for e in telemetry.tracer.trace.events if e.actor == "trainer"]
            (step,) = [e for e in events if e.name == "train_step"]
            # Everything else the trainer opens is a phase, bar the modeled
            # overlap timeline (which is not part of the measured step).
            phases = [e for e in events if e.category not in ("step", "overlap")]
            assert [e.name for e in phases] == list(result.phase_seconds)
            for e in phases:
                assert step.start - 1e-9 <= e.start and e.end <= step.end + 1e-9
            assert telemetry.metrics.value("train_steps", trainer=name) == done
            hist = telemetry.metrics.histogram("step_seconds", trainer=name)
            assert hist.count == done

        def batches():
            while True:
                yield x, y

        log = trainer.train(batches(), steps=2)
        assert isinstance(log, TrainLog)
        assert len(log.losses) == 2 and log.last_loss == log.losses[-1]

    @pytest.mark.parametrize(
        "make_opt",
        [lambda: SGDMomentum(0.05), lambda: Adam(0.01), lambda: LARS(0.05),
         lambda: LAMB(0.02)],
        ids=["sgd_momentum", "adam", "lars", "lamb"],
    )
    def test_update_is_the_one_shard_case(self, make_opt, rng):
        """``Optimizer.update`` == ``update_shards`` at one shard == the
        literal norm_stats -> sums of squares -> apply, to the bit."""
        opt = make_opt()
        params = MLP([12, 24, 4]).init_params(rng)
        grads = {k: rng.standard_normal(v.shape) for k, v in params.items()}
        _, state = opt.update(params, grads, opt.init_state(params), 0)
        new_params, new_state = opt.update(params, grads, state, 1)
        for name, p in params.items():
            shard = (p, grads[name], state[name])
            operands, work = opt.norm_stats(name, *shard, 1)
            stats = {k: float(np.sum(x * x)) for k, x in operands.items()}
            literal = opt.apply(name, *shard, 1, stats, work)
            ((one_p, one_s),) = opt.update_shards(name, [shard], 1)
            # Replicated holders: statistics from the first, applied to all.
            both = opt.update_shards(name, [shard, shard], 1, replicated=True)
            for got_p, got_s in [literal, (one_p, one_s), *both]:
                assert np.array_equal(got_p, new_params[name])
                for slot, arr in new_state[name].items():
                    assert np.array_equal(got_s[slot], arr)

    @pytest.mark.parametrize("strategy", ["data_parallel", "wus"])
    def test_restore_clears_per_step_state(self, strategy):
        """What one step derived (overlap timeline, launch records) does not
        survive a restore, whichever strategy produced it."""
        trainer = make_trainer(
            _config(strategy=strategy, mesh_shape=(4, 1), num_buckets=2, overlap=True)
        )
        x, y = _workload()
        ckpt = trainer.save_checkpoint()
        trainer.step(x, y)
        assert trainer.last_overlap is not None and trainer._last_launches
        trainer.restore_checkpoint(ckpt)
        assert trainer.last_overlap is None
        assert trainer._last_launches == []


def _trained_state(trainer):
    """Copies of everything a step may change: weights and optimizer slots."""
    if isinstance(trainer, HybridParallelTrainer):
        tree = {"shards": trainer.shards, "slots": trainer.shard_states}
    else:
        ckpt = trainer.save_checkpoint()
        tree = {"params": ckpt.params, "slots": ckpt.opt_state}

    def flat(node, path=""):
        if isinstance(node, dict):
            return [kv for key in sorted(node) for kv in flat(node[key], f"{path}/{key}")]
        if isinstance(node, list):
            return [kv for i, item in enumerate(node) for kv in flat(item, f"{path}/{i}")]
        return [(path, np.array(node, copy=True))]

    return flat(tree)


class TestRefusedBatches:
    """A batch the model cannot honour is refused before anything trains.

    Labels outside ``[0, classes)`` or not integer used to train silently
    (``-1`` picked the last class) or fail mid-step with a bare numpy
    ``IndexError``; a label count that disagrees with the rows surfaced from
    inside replica 0 or from ``np.split``.
    """

    @pytest.mark.parametrize(
        "overrides", FOUR_STRATEGIES, ids=[o["strategy"] for o in FOUR_STRATEGIES]
    )
    def test_refused_step_changes_nothing(self, overrides):
        trainer = make_trainer(_config(**overrides))
        x, y = _workload()  # 64 rows, 4 classes
        before = _trained_state(trainer)
        bad_labels = {
            "negative": (x, np.where(np.arange(64) == 5, -1, y), r"lie in \[0, 4\)"),
            "too large": (x, np.where(np.arange(64) == 9, 4, y), r"lie in \[0, 4\)"),
            "fractional": (x, y + 0.5, "integer class indices"),
            "more labels": (x, np.concatenate([y, y[:4]]), "does not match a batch"),
            "fewer labels": (x, y[:62], "does not match a batch"),
        }
        for name, (bx, by, match) in bad_labels.items():
            with pytest.raises(ValueError, match=match):
                trainer.step(bx, by)
            assert trainer.step_index == 0, name
        after = _trained_state(trainer)
        assert [path for path, _ in after] == [path for path, _ in before]
        for (path, a), (_, b) in zip(before, after):
            assert np.array_equal(a, b), path
        trainer.step(x, y)
        assert trainer.step_index == 1


class TestOverlapBitIdentity:
    """Overlap mode must not perturb a single bit of the training math."""

    @given(
        strategy=st.sampled_from(["data_parallel", "wus"]),
        mesh_x=st.sampled_from([2, 4]),
        num_buckets=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_overlap_matches_eager_bitwise(self, strategy, mesh_x, num_buckets, seed):
        x, y = _workload(seed=seed)
        base = TrainerConfig(
            model=MLP([12, 24, 4]),
            optimizer=LAMB(0.02),
            strategy=strategy,
            mesh_shape=(mesh_x, 1),
            num_buckets=num_buckets,
            seed=seed,
        )
        eager = make_trainer(base)
        overlapped = make_trainer(base.with_(overlap=True))
        for _ in range(3):
            eager_loss = eager.step(x, y)
            overlap_loss = overlapped.step(x, y)
            assert float(eager_loss) == float(overlap_loss)
        assert set(eager.params) == set(overlapped.params)
        for name in eager.params:
            assert np.array_equal(eager.params[name], overlapped.params[name])
        assert eager.last_overlap is None
        assert overlapped.last_overlap is not None
        assert overlapped.last_overlap.num_buckets == min(
            num_buckets, len(eager.params)
        )

    def test_overlap_telemetry_attached(self):
        trainer = make_trainer(
            _config(strategy="data_parallel", mesh_shape=(4, 1),
                    num_buckets=3, overlap=True)
        )
        x, y = _workload()
        trainer.step(x, y)
        overlap = trainer.last_overlap
        assert overlap.step_seconds <= overlap.serial_step_seconds + 1e-12
        assert 0.0 <= overlap.overlap_efficiency <= 1.0 + 1e-9
        assert overlap.comm_seconds > 0.0
