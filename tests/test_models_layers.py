"""Layer forward/backward tests with numerical gradient checks."""

import numpy as np
import pytest

from repro.models.layers import (
    dense_backward,
    dense_forward,
    dense_param_grads,
    relu,
    relu_backward,
    softmax,
    softmax_cross_entropy,
)


def numerical_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f wrt array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + eps
        hi = f()
        x[idx] = old - eps
        lo = f()
        x[idx] = old
        g[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


class TestDense:
    def test_forward_shapes(self, rng):
        y = dense_forward(rng.standard_normal((4, 3)), rng.standard_normal((3, 5)))
        assert y.shape == (4, 5)

    def test_forward_with_bias(self, rng):
        x = rng.standard_normal((2, 3))
        w = rng.standard_normal((3, 4))
        b = rng.standard_normal(4)
        assert np.allclose(dense_forward(x, w, b), x @ w + b)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            dense_forward(rng.standard_normal((2, 3)), rng.standard_normal((4, 5)))

    def test_backward_matches_numerical(self, rng):
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 2))
        target = rng.standard_normal((3, 2))

        def loss():
            return 0.5 * np.sum((x @ w - target) ** 2)

        dy = x @ w - target
        dx, dw, db = dense_backward(x, w, dy)
        assert np.allclose(dw, numerical_grad(loss, w), atol=1e-5)
        assert np.allclose(dx, numerical_grad(loss, x), atol=1e-5)
        assert np.allclose(db, dy.sum(axis=0))

    def test_param_grads_are_the_backward_bits(self, rng):
        """The input layer's call without ``dx`` writes what the full
        backward writes, into ``out`` when given."""
        x = rng.standard_normal((2, 5, 4))
        w = rng.standard_normal((4, 3))
        dy = rng.standard_normal((2, 5, 3))
        _, dw, db = dense_backward(x, w, dy)
        out = (np.empty_like(dw), np.empty_like(db))
        got = dense_param_grads(x, dy, out)
        assert got[0] is out[0] and got[1] is out[1]
        assert dw.tobytes() == out[0].tobytes() and db.tobytes() == out[1].tobytes()


class TestRelu:
    def test_forward(self):
        assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_backward_masks(self):
        x = np.array([-1.0, 0.5, 2.0])
        dy = np.ones(3)
        assert np.array_equal(relu_backward(x, dy), [0.0, 1.0, 1.0])


class TestSoftmaxCrossEntropy:
    def test_softmax_rows_sum_to_one(self, rng):
        p = softmax(rng.standard_normal((5, 7)))
        assert np.allclose(p.sum(axis=-1), 1.0)

    def test_softmax_stability(self):
        p = softmax(np.array([[1000.0, 1000.0]]))
        assert np.allclose(p, 0.5)

    def test_loss_of_perfect_prediction(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        labels = np.array([0, 1])
        loss, _ = softmax_cross_entropy(logits, labels)
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_grad_matches_numerical(self, rng):
        logits = rng.standard_normal((4, 3))
        labels = np.array([0, 2, 1, 1])

        def loss():
            return softmax_cross_entropy(logits, labels)[0]

        _, dlogits = softmax_cross_entropy(logits, labels)
        assert np.allclose(dlogits, numerical_grad(loss, logits), atol=1e-5)

    def test_label_shape_check(self, rng):
        with pytest.raises(ValueError):
            softmax_cross_entropy(rng.standard_normal((4, 3)), np.zeros(5, int))

    @pytest.mark.parametrize(
        "labels, match",
        [
            # -1 used to pick the last class: the same loss as labels [3, 0].
            ([-1, 0], r"lie in \[0, 4\)"),
            ([4, 0], r"lie in \[0, 4\)"),
            ([0.5, 0.0], "integer class indices"),
            ([1.0, 0.0], "integer class indices"),
            ([True, False], "integer class indices"),
        ],
    )
    def test_labels_outside_the_classes_are_refused(self, labels, match):
        with pytest.raises(ValueError, match=match):
            softmax_cross_entropy(np.zeros((2, 4)), np.array(labels))

    @pytest.mark.parametrize("dtype", ["<i8", ">i8", "i1", "i4", "u1", "<u8", ">u2"])
    def test_every_integer_label_type_gives_the_same_answer(self, dtype, rng):
        """Signed, unsigned, narrow and byte-swapped labels pick the same
        classes; out-of-range ones are refused in every type."""
        logits = rng.standard_normal((3, 4))
        loss, dlogits = softmax_cross_entropy(logits, np.array([0, 3, 1]))
        got_loss, got_d = softmax_cross_entropy(logits, np.array([0, 3, 1], dtype=dtype))
        assert got_loss == loss and np.array_equal(got_d, dlogits)
        with pytest.raises(ValueError, match=r"lie in \[0, 4\)"):
            softmax_cross_entropy(logits, np.array([0, 4, 1], dtype=dtype))
        if np.dtype(dtype).kind == "i":
            with pytest.raises(ValueError, match=r"lie in \[0, 4\)"):
                softmax_cross_entropy(logits, np.array([0, -1, 1], dtype=dtype))

    def test_leading_axes_are_per_slice(self, rng):
        logits = rng.standard_normal((3, 5, 4))
        labels = rng.integers(0, 4, size=(3, 5))
        losses, dlogits = softmax_cross_entropy(logits, labels)
        assert losses.shape == (3,)
        for r in range(3):
            loss, d = softmax_cross_entropy(logits[r], labels[r])
            assert losses[r] == loss and np.array_equal(dlogits[r], d)
