"""MLP model tests: gradients, training progress, synthetic data."""

import numpy as np
import pytest

from repro.models.mlp import MLP, synthetic_classification
from repro.optim import SGDMomentum
from repro.runtime.bucket import GradientBucket


class TestConstruction:
    def test_param_shapes(self, rng):
        m = MLP([8, 16, 4])
        params = m.init_params(rng)
        assert params["w0"].shape == (8, 16)
        assert params["b1"].shape == (4,)
        assert m.num_layers == 2

    def test_too_few_layers(self):
        with pytest.raises(ValueError):
            MLP([5])

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            MLP([5, 0, 3])


class TestForwardBackward:
    def test_forward_shape(self, rng):
        m = MLP([6, 10, 3])
        params = m.init_params(rng)
        logits = m.forward(params, rng.standard_normal((7, 6)))
        assert logits.shape == (7, 3)

    def test_gradients_match_numerical(self, rng):
        m = MLP([4, 6, 3])
        params = m.init_params(rng)
        x = rng.standard_normal((5, 4))
        labels = rng.integers(0, 3, 5)
        _, grads = m.loss_and_grad(params, x, labels)
        eps = 1e-6
        for key in params:
            flat = params[key].reshape(-1)
            for idx in range(0, flat.size, max(1, flat.size // 5)):
                old = flat[idx]
                flat[idx] = old + eps
                hi, _ = m.loss_and_grad(params, x, labels)
                flat[idx] = old - eps
                lo, _ = m.loss_and_grad(params, x, labels)
                flat[idx] = old
                num = (hi - lo) / (2 * eps)
                assert np.asarray(grads[key]).reshape(-1)[idx] == pytest.approx(
                    num, abs=1e-5
                )

    def test_loss_decreases_with_training(self, rng):
        m = MLP([10, 24, 4])
        x, labels = synthetic_classification(rng, 128, 10, 4)
        params = m.init_params(rng)
        opt = SGDMomentum(0.1)
        state = opt.init_state(params)
        first, _ = m.loss_and_grad(params, x, labels)
        for step in range(40):
            _, grads = m.loss_and_grad(params, x, labels)
            params, state = opt.update(params, dict(grads), state, step)
        last, _ = m.loss_and_grad(params, x, labels)
        assert last < first * 0.5

    def test_accuracy_and_predict(self, rng):
        m = MLP([10, 24, 4])
        x, labels = synthetic_classification(rng, 64, 10, 4)
        params = m.init_params(rng)
        pred = m.predict(params, x)
        assert pred.shape == (64,)
        assert 0.0 <= np.mean(pred == labels) <= 1.0


def _same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: stricter than ``array_equal`` (-0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStackedReplicas:
    """The stacked call over ``[n, batch, features]`` is n 2-D calls, to the bit."""

    SENTINEL = -7.25
    PAD = 3

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 32, 256])
    def test_every_row_is_the_per_replica_call(self, n, dtype):
        m = MLP([12, 24, 8, 4], dtype=dtype)
        params = m.init_params(np.random.default_rng(n))
        bucket = GradientBucket({name: params[name] for name in m.grad_names})
        for b in (1, 2, 3, 16):
            rng = np.random.default_rng((n, b))
            x = rng.standard_normal((n, b, 12))
            labels = rng.integers(0, 4, size=(n, b))
            losses, grads = m.loss_and_grad(params, x, labels)
            # The same call writing into a bucket block with padding columns.
            block = np.full((n, bucket.size + self.PAD), self.SENTINEL, dtype=dtype)
            views = bucket.stacked_views(block)
            assert all(np.shares_memory(view, block) for view in views.values())
            out_losses, out_grads = m.loss_and_grad(params, x, labels, out=views)
            assert all(out_grads[name] is views[name] for name in views)
            assert (block[:, bucket.size:] == self.SENTINEL).all()
            assert tuple(grads) == tuple(out_grads) == m.grad_names
            assert losses.shape == (n,) and losses.dtype == np.float64
            assert _same_bits(losses, out_losses)
            for r in range(n):
                loss, ref = m.loss_and_grad(params, x[r], labels[r])
                assert isinstance(loss, float) and losses[r] == loss
                for name, g in ref.items():
                    assert np.array_equal(grads[name][r], g)
                    assert _same_bits(grads[name][r], g)
                    assert _same_bits(views[name][r], g)
                    flat = block[r, bucket.slice_of(name)]
                    assert _same_bits(flat, g.reshape(-1))

    def test_views_that_do_not_fit_are_refused(self):
        bucket = GradientBucket({"w": np.zeros((3, 2)), "b": np.zeros(2)})
        with pytest.raises(ValueError, match="block must be"):
            bucket.stacked_views(np.zeros((4, bucket.size - 1)))


class TestSyntheticData:
    def test_shapes(self, rng):
        x, y = synthetic_classification(rng, 100, 8, 3)
        assert x.shape == (100, 8)
        assert y.shape == (100,)
        assert set(np.unique(y)) <= set(range(3))

    def test_learnable(self, rng):
        """Low noise makes classes separable: a trained MLP beats chance."""
        x, y = synthetic_classification(rng, 256, 8, 4, noise=0.05)
        m = MLP([8, 32, 4])
        params = m.init_params(rng)
        opt = SGDMomentum(0.2)
        state = opt.init_state(params)
        for step in range(60):
            _, grads = m.loss_and_grad(params, x, y)
            params, state = opt.update(params, dict(grads), state, step)
        assert np.mean(m.predict(params, x) == y) > 0.9

    def test_invalid_dims(self, rng):
        with pytest.raises(ValueError):
            synthetic_classification(rng, 0, 8, 3)
        with pytest.raises(ValueError):
            synthetic_classification(rng, 10, 8, 1)
