"""How many optimizer calls one weight-update-sharded step makes, counted.

An elementwise optimizer (Adam, SGD with momentum) updates a fused bucket's
whole window in one :meth:`~repro.optim.base.Optimizer.apply` call; a
layerwise one (LAMB, LARS) needs one per tensor, since its trust ratio and
its decay/skip rules depend on the layer.  Counts, not time, so the
evidence does not depend on the machine.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest

from repro.core.trainer import TrainerConfig, make_trainer
from repro.models.mlp import MLP
from repro.optim import Adam, LAMB, LARS, SGDMomentum

#: (optimizer, whether it makes one call per bucket rather than per tensor).
OPTIMIZERS = [
    pytest.param(lambda: Adam(0.01), True, id="adam"),
    pytest.param(lambda: SGDMomentum(0.05), True, id="sgd"),
    pytest.param(lambda: SGDMomentum(0.05, weight_decay=1e-4), True, id="sgd_decay"),
    pytest.param(lambda: LAMB(0.01), False, id="lamb"),
    pytest.param(lambda: LARS(0.5), False, id="lars"),
]


def _count_calls(monkeypatch, optimizer) -> collections.Counter:
    calls: collections.Counter = collections.Counter()
    cls = type(optimizer)
    for name in ("apply", "norm_stats", "update_shards"):
        method = getattr(cls, name)

        def counted(self, *args, _method=method, _name=name, **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("num_buckets", [1, 2, 3])
@pytest.mark.parametrize("mesh_shape", [(2, 2), (3, 1)], ids=["2x2", "3x1"])
@pytest.mark.parametrize("make_opt, per_bucket", OPTIMIZERS)
def test_a_wus_step_calls_apply_once_per_window(
    monkeypatch, make_opt, per_bucket, mesh_shape, num_buckets
):
    trainer = make_trainer(TrainerConfig(
        model=MLP([8, 16, 4]), optimizer=make_opt(), strategy="wus",
        mesh_shape=mesh_shape, num_buckets=num_buckets, seed=4,
    ))
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((12, 8)), rng.integers(0, 4, size=12)
    trainer.step(x, y)
    calls = _count_calls(monkeypatch, trainer.optimizer)
    trainer.step(x, y)
    buckets = trainer._plan.buckets
    assert len(buckets) == num_buckets
    tensors = sum(len(bucket.names) for bucket in buckets)  # 4: w0 b0 w1 b1
    if per_bucket:
        assert dict(calls) == {"apply": num_buckets}
    else:
        assert dict(calls) == {
            "apply": tensors, "norm_stats": tensors, "update_shards": tensors,
        }
