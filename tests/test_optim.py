"""Optimizer tests: SGD, LARS, LAMB, schedules, and shard-consistency."""

import numpy as np
import pytest

from repro.optim import (
    Adam,
    LAMB,
    LARS,
    ConstantSchedule,
    LinearWarmupPolyDecay,
    SGDMomentum,
)


def _toy_params(rng):
    return {
        "w0": rng.standard_normal((4, 3)),
        "bias0": rng.standard_normal(3),
    }


def _toy_grads(rng, params):
    return {k: rng.standard_normal(v.shape) for k, v in params.items()}


ALL_OPTIMIZERS = [
    ("sgd", lambda: SGDMomentum(0.1)),
    ("lars", lambda: LARS(0.5)),
    ("lamb", lambda: LAMB(0.01)),
    ("adam", lambda: Adam(0.01)),
]


class TestCommon:
    @pytest.mark.parametrize("name,make", ALL_OPTIMIZERS)
    def test_update_changes_params(self, name, make, rng):
        opt = make()
        params = _toy_params(rng)
        grads = _toy_grads(rng, params)
        state = opt.init_state(params)
        new_params, new_state = opt.update(params, grads, state, 0)
        assert set(new_params) == set(params)
        for k in params:
            assert new_params[k].shape == params[k].shape
            assert not np.allclose(new_params[k], params[k])

    @pytest.mark.parametrize("name,make", ALL_OPTIMIZERS)
    def test_zero_grads_with_zero_momentum_noop_modulo_decay(self, name, make, rng):
        opt = make()
        params = _toy_params(rng)
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        state = opt.init_state(params)
        new_params, _ = opt.update(params, grads, state, 0)
        # LAMB/LARS apply weight decay even at zero grad; SGD does not.
        if name == "sgd":
            for k in params:
                assert np.allclose(new_params[k], params[k])

    @pytest.mark.parametrize("name,make", ALL_OPTIMIZERS)
    def test_gradient_shape_mismatch(self, name, make, rng):
        opt = make()
        params = _toy_params(rng)
        grads = {k: np.zeros(99) for k in params}
        with pytest.raises(ValueError):
            opt.update(params, grads, opt.init_state(params), 0)

    @pytest.mark.parametrize("name,make", ALL_OPTIMIZERS)
    def test_shard_consistency(self, name, make, rng):
        """apply() on shards with globally summed stats == full update.

        This is the invariant weight-update sharding relies on (§3.2)."""
        opt = make()
        params = _toy_params(rng)
        grads = _toy_grads(rng, params)
        state = opt.init_state(params)
        full, _ = opt.update(params, dict(grads), state, 3)
        for key, p in params.items():
            flat_p = p.reshape(-1)
            flat_g = np.asarray(grads[key]).reshape(-1)
            halves = np.array_split(np.arange(flat_p.size), 2)
            stats = {}
            for idx in halves:
                sub_state = {
                    slot: arr.reshape(-1)[idx] for slot, arr in state[key].items()
                }
                operands, _ = opt.norm_stats(key, flat_p[idx], flat_g[idx], sub_state, 3)
                for k2, v2 in operands.items():
                    stats[k2] = stats.get(k2, 0.0) + float(np.sum(v2 * v2))
            pieces = []
            for idx in halves:
                sub_state = {
                    slot: arr.reshape(-1)[idx] for slot, arr in state[key].items()
                }
                _, work = opt.norm_stats(key, flat_p[idx], flat_g[idx], sub_state, 3)
                new_piece, _ = opt.apply(
                    key, flat_p[idx], flat_g[idx], sub_state, 3, stats, work
                )
                pieces.append(new_piece)
            rebuilt = np.concatenate(pieces).reshape(p.shape)
            assert np.allclose(rebuilt, full[key], rtol=1e-10)


class TestSGD:
    def test_momentum_accumulates(self, rng):
        opt = SGDMomentum(1.0, momentum=0.5)
        params = {"w": np.zeros(3)}
        grads = {"w": np.ones(3)}
        state = opt.init_state(params)
        p1, state = opt.update(params, grads, state, 0)
        p2, state = opt.update(p1, grads, state, 1)
        # v1 = 1, p1 = -1; v2 = 1.5, p2 = -2.5
        assert np.allclose(p2["w"], -2.5)

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            SGDMomentum(0.1, momentum=1.0)


class TestLARS:
    def test_trust_ratio_scales_update(self, rng):
        opt = LARS(1.0, momentum=0.0, weight_decay=0.0, trust_coefficient=0.001)
        w = np.full(4, 2.0)
        g = np.full(4, 1.0)
        state = opt.init_state({"w": w})
        new, _ = opt.update({"w": w}, {"w": g}, state, 0)
        # local_lr = 0.001 * ||w|| / ||g|| = 0.001 * 4/2 = 0.002
        assert np.allclose(new["w"], w - 0.002 * g)

    def test_skip_list_uses_plain_sgd(self, rng):
        opt = LARS(0.1, momentum=0.0)
        b = np.full(3, 2.0)
        g = np.ones(3)
        new, _ = opt.update({"bias0": b}, {"bias0": g}, opt.init_state({"bias0": b}), 0)
        assert np.allclose(new["bias0"], b - 0.1 * g)

    def test_zero_norm_safe(self):
        opt = LARS(0.1)
        params = {"w": np.zeros(3)}
        grads = {"w": np.zeros(3)}
        new, _ = opt.update(params, grads, opt.init_state(params), 0)
        assert np.all(np.isfinite(new["w"]))


class TestLAMB:
    def test_step_size_bounded_by_trust(self, rng):
        opt = LAMB(0.01, weight_decay=0.0)
        params = {"w": rng.standard_normal(64)}
        grads = {"w": 1e6 * rng.standard_normal(64)}  # huge gradients
        new, _ = opt.update(params, grads, opt.init_state(params), 0)
        delta = np.linalg.norm(new["w"] - params["w"])
        w_norm = np.linalg.norm(params["w"])
        # ||delta|| = lr * trust * ||r|| = lr * ||w||: scale-invariant.
        assert delta == pytest.approx(0.01 * w_norm, rel=1e-6)

    def test_bias_correction_first_step(self, rng):
        opt = LAMB(0.001, weight_decay=0.0)
        params = {"w": np.full(8, 3.0)}
        grads = {"w": np.full(8, 0.5)}
        new, state = opt.update(params, grads, opt.init_state(params), 0)
        # With constant gradients, r ~ 1/sqrt(1) elementwise after bias
        # correction: the update direction is the sign of g.
        assert np.all(new["w"] < params["w"])
        assert np.all(state["w"]["m"] > 0)

    def test_decay_skip_patterns(self):
        opt = LAMB(0.01)
        assert not opt._decay("encoder/layernorm/gamma")
        assert not opt._decay("bias")
        assert opt._decay("encoder/dense/kernel")

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            LAMB(0.01, beta1=1.0)


class TestRefusedHyperparameters:
    """An epsilon of zero divides zero by zero wherever a gradient entry is
    zero on the first step (``Adam(0.01, epsilon=0)`` would turn ``[0, 1, 0]``
    into ``[nan, 0.99, nan]``), and a negative weight decay grows the
    weights it should shrink: both are refused when the optimizer is built."""

    @pytest.mark.parametrize("make", [Adam, LAMB, LARS])
    @pytest.mark.parametrize("epsilon", [0.0, -1e-8, float("nan")])
    def test_epsilon_must_be_positive(self, make, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            make(0.01, epsilon=epsilon)

    @pytest.mark.parametrize("make", [LAMB, LARS, SGDMomentum])
    def test_weight_decay_must_be_non_negative(self, make):
        with pytest.raises(ValueError, match="weight_decay"):
            make(0.01, weight_decay=-1e-4)

    @pytest.mark.parametrize("make", [LAMB, LARS, SGDMomentum])
    def test_zero_weight_decay_is_accepted(self, make):
        make(0.01, weight_decay=0.0)

    @pytest.mark.parametrize("make", [Adam, LAMB])
    def test_zero_gradient_entries_stay_finite(self, make):
        """The case that produced NaN, at the smallest accepted epsilon."""
        opt = make(0.01, epsilon=1e-300)
        params = {"w": np.ones(3)}
        new, state = opt.update(
            params, {"w": np.array([0.0, 1.0, 0.0])}, opt.init_state(params), 0
        )
        assert np.all(np.isfinite(new["w"]))
        assert new["w"][0] == new["w"][2]


class TestSchedules:
    def test_constant(self):
        s = ConstantSchedule(0.5)
        assert s(0) == s(1000) == 0.5

    def test_warmup_ramps_linearly(self):
        s = LinearWarmupPolyDecay(peak=1.0, warmup_steps=10, total_steps=100)
        assert s(0) == pytest.approx(0.1)
        assert s(4) == pytest.approx(0.5)
        assert s(9) == pytest.approx(1.0)

    def test_decay_reaches_end(self):
        s = LinearWarmupPolyDecay(peak=1.0, warmup_steps=0, total_steps=100, end=0.1)
        assert s(100) == pytest.approx(0.1)
        assert s(50) > 0.1

    def test_power_one_is_linear(self):
        s = LinearWarmupPolyDecay(peak=1.0, warmup_steps=0, total_steps=100, power=1.0)
        assert s(50) == pytest.approx(0.5)

    def test_warmup_must_end(self):
        with pytest.raises(ValueError):
            LinearWarmupPolyDecay(peak=1.0, warmup_steps=100, total_steps=100)

