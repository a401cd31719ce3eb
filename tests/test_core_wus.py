"""Weight-update sharding equivalence tests (Section 3.2).

WUS must be a pure systems optimization: training with sharded optimizer
state and reduce-scatter / all-gather must match replicated-update data
parallelism (and single-device training) at machine precision — including
for LARS and LAMB whose trust ratios need cross-shard norm reductions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.data_parallel import DataParallelTrainer, SingleDeviceTrainer
from repro.core.weight_update_sharding import (
    WeightUpdateShardedTrainer,
    bucketed_sharded_update,
    shard_states,
    sharded_update,
)
from repro.models.mlp import MLP, synthetic_classification
from repro.optim import Adam, LAMB, LARS, LinearWarmupPolyDecay, SGDMomentum
from repro.runtime.bucket import BucketPlan
from repro.runtime.collectives import ring_reduce_scatter

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
        assert wus.state is None
        (bucket,) = wus._plan.buckets  # one bucket: the whole fused model
        (slots,) = wus._bucket_slots
        assert set(slots) == {"m", "v"}
        # Flat layout: each slot is one bucket-ordered array and device d's
        # shard is window d of it, as in the reduce-scatter's shard block.
        # The windows cover every element of every parameter exactly once,
        # and a parameter's slot is its range of the flat array.
        chunk = -(-bucket.size // 4)  # ceil division
        covered = np.zeros(bucket.size, dtype=int)
        for d in range(4):
            covered[d * chunk:(d + 1) * chunk] += 1
        full = wus.save_checkpoint().opt_state
        for name in bucket.names:
            assert np.all(covered[bucket.slice_of(name)] == 1)
            for slot, flat in slots.items():
                assert flat.shape == (bucket.size,)
                assert np.array_equal(
                    flat[bucket.slice_of(name)], full[name][slot].reshape(-1)
                )

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 9), min_size=2, max_size=4),
        num_buckets=st.integers(1, 3),
        n=st.integers(1, 6),
        m=st.integers(1, 6),
    )
    def test_checkpoint_restores_onto_any_replica_count(self, dims, num_buckets, n, m):
        """Saved on n replicas, restored onto m: every slot and parameter
        is the same array, whatever the bucket sizes."""
        model = MLP(dims)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((60, dims[0]))  # 60 divides by every n in 1..6
        y = rng.integers(0, dims[-1], size=60)
        source = WeightUpdateShardedTrainer(
            model, LAMB(0.01), num_replicas=n, num_buckets=num_buckets
        )
        source.init(np.random.default_rng(7))
        source.step(x, y)
        saved = source.save_checkpoint()
        target = WeightUpdateShardedTrainer(
            model, LAMB(0.01), num_replicas=m, num_buckets=num_buckets
        )
        target.restore_checkpoint(saved)
        assert target.state is None
        again = target.save_checkpoint()
        assert again.step_index == saved.step_index
        assert again.params.keys() == saved.params.keys()
        for name, param in saved.params.items():
            assert np.array_equal(again.params[name], param)
            assert again.opt_state[name].keys() == saved.opt_state[name].keys()
            for slot, arr in saved.opt_state[name].items():
                got = again.opt_state[name][slot]
                assert got.shape == arr.shape and np.array_equal(got, arr)

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


#: The elementwise optimizers, each with and without what its update
#: reads besides the gradient: weight decay, a learning-rate schedule.
ELEMENTWISE = [
    ("adam", lambda: Adam(0.01)),
    ("adam_schedule", lambda: Adam(LinearWarmupPolyDecay(0.02, 3, 40))),
    ("sgd", lambda: SGDMomentum(0.05)),
    ("sgd_decay", lambda: SGDMomentum(0.05, weight_decay=1e-3)),
    ("sgd_decay_schedule", lambda: SGDMomentum(
        LinearWarmupPolyDecay(0.1, 2, 40, power=1.0), weight_decay=1e-3
    )),
]


def _per_tensor_window(optimizer, tensors, params, grads, slots, step):
    """A bucket window updated one tensor at a time through
    ``update_shards``, its norms summed over the tensor's device segments:
    the layerwise path, stated literally.  Returns the new flat params and
    the new flat slots; the inputs are left alone."""
    new_params = np.empty_like(params)
    new_slots = {slot: flat.copy() for slot, flat in slots.items()}
    for name, span, segments in tensors:
        state = {slot: flat[span] for slot, flat in slots.items()}
        ((values, new_state),) = optimizer.update_shards(
            name, [(params[span], grads[span], state)], step, segments=segments
        )
        new_params[span] = values
        for slot, flat in new_state.items():
            new_slots[slot][span] = flat
    return new_params, new_slots


class TestWindowUpdate:
    """``Optimizer.update_window``: one ``apply`` over a bucket's whole window
    for an elementwise optimizer, the per-tensor loop for a layerwise one."""

    def test_which_optimizers_are_elementwise(self):
        assert Adam(0.01).elementwise and SGDMomentum(0.1).elementwise
        assert not LAMB(0.01).elementwise and not LARS(0.1).elementwise

    @settings(max_examples=60, deadline=None)
    @given(
        opt_index=st.integers(0, len(ELEMENTWISE) - 1),
        dims=st.lists(st.integers(1, 9), min_size=2, max_size=4),
        n=st.integers(1, 6),
        num_buckets=st.integers(1, 3),
        step=st.integers(0, 45),
        seed=st.integers(0, 2**16),
    )
    def test_one_call_is_the_per_tensor_loop(
        self, opt_index, dims, n, num_buckets, step, seed
    ):
        """Same bits as the per-tensor path, for the parameters and every
        slot, on every bucket of any plan: windows that split tensors across
        devices, tensors smaller than a window, padded last windows."""
        optimizer = ELEMENTWISE[opt_index][1]()
        rng = np.random.default_rng(seed)
        params = MLP(dims).init_params(rng)
        plan = BucketPlan(params, num_buckets, dtype=np.float64)
        for bucket in plan.buckets:
            flat_params = bucket.flatten(params)
            grads = rng.standard_normal(bucket.size)
            # Slots as a few steps in would hold them (v stays non-negative).
            slots = {
                slot: np.abs(rng.standard_normal(bucket.size))
                for slot in optimizer.init_state({"w": flat_params})["w"]
            }
            tensors = bucket.tensor_segments(n)
            want_params, want_slots = _per_tensor_window(
                optimizer, tensors, flat_params, grads, slots, step
            )
            got = np.empty(bucket.size)
            optimizer.update_window(tensors, flat_params, grads, slots, step, got)
            assert np.array_equal(got, want_params)
            assert slots.keys() == want_slots.keys()
            for slot, flat in slots.items():
                assert np.array_equal(flat, want_slots[slot])

    @settings(max_examples=30, deadline=None)
    @given(
        opt_index=st.integers(0, len(ELEMENTWISE) - 1),
        dims=st.lists(st.integers(1, 9), min_size=2, max_size=4),
        n=st.integers(1, 6),
        num_buckets=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_bucketed_step_is_the_per_tensor_loop(
        self, opt_index, dims, n, num_buckets, seed
    ):
        """Through ``bucketed_sharded_update`` (reduce-scatter, the window,
        all-gather): the per-tensor path over the same summed gradient."""
        optimizer = ELEMENTWISE[opt_index][1]()
        rng = np.random.default_rng(seed)
        params = MLP(dims).init_params(rng)
        plan = BucketPlan(params, num_buckets, dtype=np.float64)
        for step in range(3):
            for bucket in plan.buckets:
                block = rng.standard_normal((n, bucket.size)) / n
                slots = {
                    slot: np.abs(rng.standard_normal(bucket.size))
                    for slot in optimizer.init_state({"w": block[0]})["w"]
                }
                summed = ring_reduce_scatter(block, "f64").block.reshape(-1)
                want_flat, want_slots = _per_tensor_window(
                    optimizer, bucket.tensor_segments(n), bucket.flatten(params),
                    summed[:bucket.size], slots, step,
                )
                new = bucketed_sharded_update(
                    params, block, optimizer, slots, step, bucket
                )
                for name in bucket.names:
                    want = want_flat[bucket.slice_of(name)].reshape(bucket.shapes[name])
                    assert np.array_equal(new[name], want)
                for slot, flat in slots.items():
                    assert np.array_equal(flat, want_slots[slot])
                params = {**params, **new}

    @pytest.mark.parametrize("make_opt", [lambda: LAMB(0.01), lambda: LARS(0.5)])
    @pytest.mark.parametrize("replicas", [1, 2, 3, 4])
    def test_layerwise_skip_patterns_match_per_parameter_update(
        self, make_opt, replicas, rng
    ):
        """LAMB and LARS keep their per-tensor rules on the fused path: with
        their default skip patterns (a bias, a layer-norm scale and a
        batch-norm shift next to decayed kernels), three bucketed steps
        match the per-parameter ``sharded_update``."""
        params = {
            "dense/kernel": rng.standard_normal((5, 3)),
            "dense/bias": rng.standard_normal(3),
            "ln/gamma": 1.0 + rng.standard_normal(3),
            "bn/beta": rng.standard_normal(4),
            "out/kernel": rng.standard_normal((3, 2)),
        }
        per_param_opt, fused_opt = make_opt(), make_opt()
        reference = dict(params)
        sharded = shard_states(per_param_opt.init_state(params), replicas)
        (bucket,) = BucketPlan(params, 1, dtype=np.float64).buckets
        slots = {
            slot: np.zeros(bucket.size)
            for slot in fused_opt.init_state(params)["dense/kernel"]
        }
        fused = dict(params)
        for step in range(3):
            grads = [
                {k: rng.standard_normal(v.shape) / replicas for k, v in params.items()}
                for _ in range(replicas)
            ]
            reference, sharded = sharded_update(
                reference, grads, per_param_opt, sharded, step
            )
            block = np.stack([bucket.flatten(g) for g in grads])
            fused = {**fused, **bucketed_sharded_update(
                fused, block, fused_opt, slots, step, bucket
            )}
        assert _max_param_diff(reference, fused) < 1e-12
        # The skipped tensors took the other branch of the rule.
        assert not fused_opt.elementwise
        skipped = [name for name in params if name.endswith(("bias", "gamma", "beta"))]
        if isinstance(fused_opt, LAMB):
            assert not any(fused_opt._decay(name) for name in skipped)
        else:
            assert all(fused_opt._skip(name) for name in skipped)
