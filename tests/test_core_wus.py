"""Weight-update sharding equivalence tests (Section 3.2).

WUS must be a pure systems optimization: training with sharded optimizer
state and reduce-scatter / all-gather must match replicated-update data
parallelism (and single-device training) at machine precision — including
for LARS and LAMB whose trust ratios need cross-shard norm reductions.
"""

import numpy as np
import pytest

from repro.core.data_parallel import DataParallelTrainer, SingleDeviceTrainer
from repro.core.weight_update_sharding import (
    WeightUpdateShardedTrainer,
    shard_states,
    sharded_update,
)
from repro.models.mlp import MLP, synthetic_classification
from repro.optim import Adam, LAMB, LARS, SGDMomentum

OPTIMIZERS = [
    ("sgd", lambda: SGDMomentum(0.05)),
    ("lars", lambda: LARS(0.5)),
    ("lamb", lambda: LAMB(0.01)),
    ("adam", lambda: Adam(0.01)),
]


def _data(seed=0):
    rng = np.random.default_rng(seed)
    return synthetic_classification(rng, 64, 12, 4)


def _run(trainer, x, y, steps=4):
    trainer.init(np.random.default_rng(7))
    losses = [trainer.step(x, y) for _ in range(steps)]
    return trainer, losses


def _run_per_parameter(model, optimizer, x, y, replicas, steps=4):
    """Section 3.2 stated literally: ``sharded_update`` stepped by hand."""
    params = model.init_params(np.random.default_rng(7))
    state = shard_states(optimizer.init_state(params), replicas)
    losses = []
    for step in range(steps):
        shard_losses, grads = [], []
        for xi, yi in zip(np.split(x, replicas), np.split(y, replicas)):
            loss_i, g_i = model.loss_and_grad(params, xi, yi)
            shard_losses.append(loss_i)
            # Pre-scaled so the reduce-scatter sum is the global mean.
            grads.append({k: v / replicas for k, v in g_i.items()})
        params, state = sharded_update(params, grads, optimizer, state, step)
        losses.append(float(np.mean(shard_losses)))
    return params, losses


def _max_param_diff(p1, p2):
    return max(
        float(np.max(np.abs(np.asarray(p1[k]) - np.asarray(p2[k])))) for k in p1
    )


class TestShardStates:
    def test_shapes_and_roundtrip(self, rng):
        opt = LAMB(0.01)
        params = {"w": rng.standard_normal((5, 3)), "b": rng.standard_normal(7)}
        state = opt.init_state(params)
        sharded = shard_states(state, 4)
        assert len(sharded) == 4
        # every slot chunk has equal size (padded)
        for d in range(4):
            assert sharded[d]["w"]["m"].size == 4  # ceil(15/4)=4
            assert sharded[d]["b"]["v"].size == 2  # ceil(7/4)=2

    def test_invalid_devices(self):
        with pytest.raises(ValueError):
            shard_states({}, 0)


class TestShardedUpdateEquivalence:
    @pytest.mark.parametrize("name,make_opt", OPTIMIZERS)
    def test_matches_replicated_update(self, name, make_opt, rng):
        """One sharded step == one replicated step, same grads."""
        n = 4
        opt = make_opt()
        model = MLP([10, 8, 3])
        params = model.init_params(rng)
        grads = [
            {k: rng.standard_normal(v.shape) / n for k, v in params.items()}
            for _ in range(n)
        ]
        summed = {
            k: np.sum([g[k] for g in grads], axis=0) for k in params
        }
        state = opt.init_state(params)
        expected, _ = opt.update(dict(params), summed, state, 0)
        sharded = shard_states(opt.init_state(params), n)
        got, new_sharded = sharded_update(dict(params), grads, opt, sharded, 0)
        assert _max_param_diff(expected, got) < 1e-10
        assert len(new_sharded) == n

    @pytest.mark.parametrize("name,make_opt", OPTIMIZERS)
    def test_multi_step_training_equivalence(self, name, make_opt):
        model = MLP([12, 16, 8, 4])
        x, y = _data()
        ref, ref_losses = _run(SingleDeviceTrainer(model, make_opt()), x, y)
        wus, wus_losses = _run(
            WeightUpdateShardedTrainer(model, make_opt(), num_replicas=4), x, y
        )
        assert _max_param_diff(ref.params, wus.params) < 1e-10
        assert wus_losses == pytest.approx(ref_losses, rel=1e-10)

    def test_wus_matches_plain_dp(self):
        model = MLP([12, 16, 4])
        x, y = _data()
        dp, _ = _run(DataParallelTrainer(model, LAMB(0.01), dp_x=4), x, y)
        wus, _ = _run(WeightUpdateShardedTrainer(model, LAMB(0.01), num_replicas=4), x, y)
        assert _max_param_diff(dp.params, wus.params) < 1e-10

    @pytest.mark.parametrize("replicas", [2, 3, 5, 8])
    def test_replica_count_invariance(self, replicas):
        """WUS result is independent of how many shards the update uses."""
        model = MLP([12, 16, 4])
        rng = np.random.default_rng(0)
        x, y = synthetic_classification(rng, 120, 12, 4)
        ref, _ = _run(SingleDeviceTrainer(model, LAMB(0.01)), x, y)
        wus, _ = _run(
            WeightUpdateShardedTrainer(model, LAMB(0.01), num_replicas=replicas),
            x, y,
        )
        assert _max_param_diff(ref.params, wus.params) < 1e-10

    def test_state_stays_sharded(self):
        model = MLP([12, 16, 4])
        x, y = _data()
        wus = WeightUpdateShardedTrainer(model, LAMB(0.01), num_replicas=4)
        wus.init(np.random.default_rng(7))
        assert wus.state is None  # replicated slots are gone
        wus.step(x, y)
        (shards,) = wus._bucket_states  # one bucket: the whole fused model
        assert len(shards) == 4
        # Fused layout: shards are windows of the whole flattened model, so
        # each parameter's slots are split along the fused chunk boundaries
        # and together cover the parameter exactly once.
        params = model.init_params(np.random.default_rng(7))
        total = sum(p.size for p in params.values())
        chunk = -(-total // 4)  # ceil division
        w0 = params["w0"].size
        assert shards[0]["w0"]["m"].size == min(chunk, w0)
        covered = sum(
            state["w0"]["m"].size
            for state in shards
            if "w0" in state
        )
        assert covered == w0

    @pytest.mark.parametrize("name,make_opt", OPTIMIZERS)
    def test_fused_matches_unfused(self, name, make_opt):
        """The (bucketed) trainer == per-parameter ``sharded_update``."""
        model = MLP([12, 16, 8, 4])
        x, y = _data()
        fused, fused_losses = _run(
            WeightUpdateShardedTrainer(model, make_opt(), num_replicas=4), x, y
        )
        plain_params, plain_losses = _run_per_parameter(model, make_opt(), x, y, 4)
        assert _max_param_diff(fused.params, plain_params) < 1e-10
        assert fused_losses == pytest.approx(plain_losses, rel=1e-10)

    def test_mismatched_state_length(self, rng):
        opt = SGDMomentum(0.1)
        params = {"w": rng.standard_normal(8)}
        grads = [{"w": rng.standard_normal(8)} for _ in range(2)]
        with pytest.raises(ValueError):
            sharded_update(params, grads, opt, shard_states(opt.init_state(params), 3), 0)

    def test_no_devices_rejected(self):
        with pytest.raises(ValueError):
            sharded_update({}, [], SGDMomentum(0.1), [], 0)
