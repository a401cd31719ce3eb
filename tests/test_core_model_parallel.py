"""Model-parallel (feature-sharded) training equivalence tests (§3.1)."""

import numpy as np
import pytest

from repro.core.data_parallel import SingleDeviceTrainer
from repro.core.model_parallel import FeatureShardedMLP, HybridParallelTrainer
from repro.models.mlp import MLP, synthetic_classification
from repro.optim import Adam, LAMB, LARS, SGDMomentum

OPTIMIZERS = [
    ("sgd", lambda: SGDMomentum(0.05)),
    ("lars", lambda: LARS(0.5)),
    ("lamb", lambda: LAMB(0.01)),
    ("adam", lambda: Adam(0.01)),
]


def _data(seed=0, n=48):
    rng = np.random.default_rng(seed)
    return synthetic_classification(rng, n, 12, 4)


def _max_param_diff(p1, p2):
    return max(
        float(np.max(np.abs(np.asarray(p1[k]) - np.asarray(p2[k])))) for k in p1
    )


class TestShardingRoundtrip:
    def test_shard_gather_identity(self, rng):
        model = MLP([12, 16, 8, 4])
        mp = FeatureShardedMLP(model, 4)
        params = model.init_params(rng)
        shards = mp.shard_params(params)
        rebuilt = mp.gather_params(shards)
        assert _max_param_diff(params, rebuilt) == 0.0

    def test_shard_shapes(self, rng):
        model = MLP([12, 16, 8, 4])
        mp = FeatureShardedMLP(model, 4)
        shards = mp.shard_params(model.init_params(rng))
        assert shards[0]["w0"].shape == (12, 4)   # column shard
        assert shards[0]["w1"].shape == (4, 8)    # row shard
        assert shards[0]["b0"].shape == (4,)      # sharded bias
        assert shards[0]["b1"].shape == (8,)      # replicated bias

    def test_trailing_layer_replicated(self, rng):
        model = MLP([12, 16, 8, 4])  # 3 layers: pair + trailing
        mp = FeatureShardedMLP(model, 2)
        shards = mp.shard_params(model.init_params(rng))
        assert shards[0]["w2"].shape == (8, 4)
        assert np.array_equal(shards[0]["w2"], shards[1]["w2"])

    def test_indivisible_hidden(self):
        with pytest.raises(ValueError, match="not divisible"):
            FeatureShardedMLP(MLP([12, 10, 4]), 4)

    def test_wrong_shard_count(self, rng):
        model = MLP([12, 16, 4])
        mp = FeatureShardedMLP(model, 2)
        with pytest.raises(ValueError):
            mp.gather_params([model.init_params(rng)])


class TestShardedForwardBackward:
    @pytest.mark.parametrize("mp_size", [1, 2, 4])
    def test_forward_matches_unsharded(self, mp_size, rng):
        model = MLP([12, 16, 4])
        mp = FeatureShardedMLP(model, mp_size)
        params = model.init_params(rng)
        x = rng.standard_normal((6, 12))
        expected = model.forward(params, x)
        got = mp.forward(mp.shard_params(params), x)
        assert np.allclose(got, expected, rtol=1e-12)

    @pytest.mark.parametrize("layers", [[12, 16, 4], [12, 16, 8, 4], [12, 8, 8, 8, 4]])
    def test_gradients_match_unsharded(self, layers, rng):
        model = MLP(layers)
        mp = FeatureShardedMLP(model, 4)
        params = model.init_params(rng)
        x, y = _data(n=16)
        ref_loss, ref_grads = model.loss_and_grad(params, x, y)
        loss, shard_grads = mp.loss_and_grad(mp.shard_params(params), x, y)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        rebuilt = mp.gather_params(shard_grads)
        for k in ref_grads:
            assert np.allclose(rebuilt[k], ref_grads[k], rtol=1e-10, atol=1e-12)


class TestHybridTrainer:
    @pytest.mark.parametrize("name,make_opt", OPTIMIZERS)
    @pytest.mark.parametrize("dp,mp", [(1, 2), (2, 2), (4, 1), (2, 4)])
    def test_equivalence_with_single_device(self, name, make_opt, dp, mp):
        model = MLP([12, 16, 8, 4])
        x, y = _data()
        ref = SingleDeviceTrainer(model, make_opt())
        ref.init(np.random.default_rng(7))
        hy = HybridParallelTrainer(model, make_opt(), dp_size=dp, mp_size=mp)
        hy.init(np.random.default_rng(7))
        for _ in range(3):
            ref_loss = ref.step(x, y)
            hy_loss = hy.step(x, y)
            assert hy_loss == pytest.approx(ref_loss, rel=1e-10)
        assert _max_param_diff(ref.params, hy.full_params()) < 1e-10

    def test_peer_reduction_runs_per_shard(self):
        """Gradients of each weight shard are summed across replicas only
        (the Figure 4 peer rings) — verified by equivalence at dp=3."""
        model = MLP([12, 16, 4])
        x, y = _data(n=48)
        ref = SingleDeviceTrainer(model, SGDMomentum(0.1))
        ref.init(np.random.default_rng(1))
        hy = HybridParallelTrainer(model, SGDMomentum(0.1), dp_size=3, mp_size=2)
        hy.init(np.random.default_rng(1))
        for _ in range(2):
            ref.step(x, y)
            hy.step(x, y)
        assert _max_param_diff(ref.params, hy.full_params()) < 1e-12

    def test_batch_divisibility(self):
        hy = HybridParallelTrainer(MLP([4, 4, 2]), SGDMomentum(0.1), 4, 2)
        hy.init(np.random.default_rng(0))
        with pytest.raises(ValueError):
            hy.step(np.zeros((6, 4)), np.zeros(6, int))

    def test_step_before_init(self):
        hy = HybridParallelTrainer(MLP([4, 4, 2]), SGDMomentum(0.1), 2, 2)
        with pytest.raises(RuntimeError):
            hy.step(np.zeros((4, 4)), np.zeros(4, int))

    def test_train_loop_learns(self):
        rng = np.random.default_rng(5)
        x, y = synthetic_classification(rng, 120, 12, 4, noise=0.05)
        model = MLP([12, 16, 4])
        hy = HybridParallelTrainer(model, SGDMomentum(0.2), dp_size=2, mp_size=2)
        hy.init(np.random.default_rng(0))

        def batches():
            while True:
                yield x, y

        hy.train(batches(), steps=40)
        assert np.mean(model.predict(hy.full_params(), x) == y) > 0.9
