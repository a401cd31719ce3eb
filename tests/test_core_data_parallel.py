"""Data-parallel training equivalence tests.

The central invariant of Section 3: parallelizing the computation must not
change the math.  Data-parallel training with real ring / 2-D hierarchical
collectives must match single-device training on the concatenated batch to
machine precision (float64).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.data_parallel import (
    DataParallelTrainer,
    SingleDeviceTrainer,
    _divide_in_place,
)
from repro.models.mlp import MLP, synthetic_classification
from repro.optim import Adam, LAMB, LARS, SGDMomentum

OPTIMIZERS = [
    ("sgd", lambda: SGDMomentum(0.05)),
    ("lars", lambda: LARS(0.5)),
    ("lamb", lambda: LAMB(0.01)),
    ("adam", lambda: Adam(0.01)),
]


def _data(seed=0, n=64, features=12, classes=4):
    rng = np.random.default_rng(seed)
    return synthetic_classification(rng, n, features, classes)


def _run(trainer, x, y, steps=4, seed=7):
    trainer.init(np.random.default_rng(seed))
    losses = [trainer.step(x, y) for _ in range(steps)]
    return trainer, losses


def _max_param_diff(p1, p2):
    return max(
        float(np.max(np.abs(np.asarray(p1[k]) - np.asarray(p2[k])))) for k in p1
    )


class TestEquivalence:
    @pytest.mark.parametrize("name,make_opt", OPTIMIZERS)
    def test_dp_matches_single_device(self, name, make_opt):
        model = MLP([12, 16, 8, 4])
        x, y = _data()
        ref, ref_losses = _run(SingleDeviceTrainer(model, make_opt()), x, y)
        dp, dp_losses = _run(DataParallelTrainer(model, make_opt(), dp_x=4), x, y)
        assert _max_param_diff(ref.params, dp.params) < 1e-12
        assert dp_losses == pytest.approx(ref_losses, rel=1e-12)

    @pytest.mark.parametrize("name,make_opt", OPTIMIZERS)
    def test_2d_mesh_matches_single_device(self, name, make_opt):
        model = MLP([12, 16, 4])
        x, y = _data(n=48)
        ref, _ = _run(SingleDeviceTrainer(model, make_opt()), x, y)
        dp, _ = _run(DataParallelTrainer(model, make_opt(), dp_x=2, dp_y=3), x, y)
        assert _max_param_diff(ref.params, dp.params) < 1e-12

    def test_replica_counts_agree(self):
        model = MLP([12, 16, 4])
        x, y = _data()
        results = {}
        for replicas in (1, 2, 4, 8):
            dp, _ = _run(
                DataParallelTrainer(model, SGDMomentum(0.05), dp_x=replicas), x, y
            )
            results[replicas] = dp.params
        base = results[1]
        for replicas, params in results.items():
            assert _max_param_diff(base, params) < 1e-12

    def test_bf16_gradients_close_but_not_exact(self):
        model = MLP([12, 16, 4])
        x, y = _data()
        ref, _ = _run(SingleDeviceTrainer(model, SGDMomentum(0.05)), x, y)
        dp, _ = _run(
            DataParallelTrainer(model, SGDMomentum(0.05), dp_x=4,
                                grad_dtype_policy="bf16"),
            x, y,
        )
        diff = _max_param_diff(ref.params, dp.params)
        assert diff > 0  # quantization happened
        assert diff < 0.05  # but stays small

    def test_bf16_training_still_learns(self):
        model = MLP([12, 24, 4])
        rng = np.random.default_rng(3)
        x, y = synthetic_classification(rng, 128, 12, 4, noise=0.05)
        dp = DataParallelTrainer(model, SGDMomentum(0.2), dp_x=4,
                                 grad_dtype_policy="bf16")
        dp.init(np.random.default_rng(0))
        for step in range(50):
            dp.step(x, y)
        assert np.mean(model.predict(dp.params, x) == y) > 0.9


class TestMechanics:
    def test_batch_divisibility(self):
        model = MLP([4, 4, 2])
        dp = DataParallelTrainer(model, SGDMomentum(0.1), dp_x=4)
        dp.init(np.random.default_rng(0))
        with pytest.raises(ValueError, match="divisible"):
            dp.step(np.zeros((6, 4)), np.zeros(6, int))

    def test_step_before_init(self):
        dp = DataParallelTrainer(MLP([4, 2]), SGDMomentum(0.1), dp_x=2)
        with pytest.raises(RuntimeError):
            dp.step(np.zeros((4, 4)), np.zeros(4, int))

    def test_invalid_mesh(self):
        with pytest.raises(ValueError):
            DataParallelTrainer(MLP([4, 2]), SGDMomentum(0.1), dp_x=0)

    def test_train_loop(self):
        model = MLP([8, 8, 3])
        x, y = _data(features=8, classes=3)

        def batches():
            while True:
                yield x, y

        dp = DataParallelTrainer(model, SGDMomentum(0.1), dp_x=2)
        dp.init(np.random.default_rng(0))
        log = dp.train(batches(), steps=5)
        assert len(log.losses) == 5
        assert log.last_loss == log.losses[-1]


def _special_words(bits: int) -> list[int]:
    """Signed zeros, subnormals, extremes, ±inf and NaN payloads of a float."""
    mant = {32: 23, 64: 52}[bits]
    sign, exp_ones = 1 << (bits - 1), ((1 << (bits - 1 - mant)) - 1) << mant
    words = [
        0, 1, (1 << mant) - 1,  # +0, smallest and largest subnormal
        1 << mant, exp_ones - 1,  # smallest normal, largest finite
        exp_ones, exp_ones | 1, exp_ones | (1 << (mant - 1)),  # inf, sNaN, qNaN
        exp_ones | ((1 << mant) - 1), exp_ones | 0xFFFF,  # NaN payloads
    ]
    return words + [w | sign for w in words]


@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    n=st.one_of(st.integers(0, 12).map(lambda k: 2 ** k), st.sampled_from([3, 6, 7])),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_mean_scale_is_the_division_bit_for_bit(dtype, n, data):
    """A power-of-two replica count multiplies by its exact reciprocal;
    every input word, special values included, keeps the bits of ``g / n``."""
    uint = {np.float32: np.uint32, np.float64: np.uint64}[dtype]
    bits = 8 * np.dtype(dtype).itemsize
    words = data.draw(st.lists(
        st.one_of(st.sampled_from(_special_words(bits)), st.integers(0, 2 ** bits - 1)),
        min_size=1, max_size=64,
    ))
    g = np.array(words, dtype=uint).view(dtype)
    with np.errstate(all="ignore"):
        want = g / n
        got = g.copy()
        _divide_in_place(got, n)
    assert got.view(uint).tobytes() == want.view(uint).tobytes()
