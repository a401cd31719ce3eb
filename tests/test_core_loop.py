"""Train/eval loop simulation tests (§3.4 / §4.6)."""

import pytest

from repro.core.loop import (
    dlrm_eval_accumulation_ablation,
    simulate_train_eval_loop,
)


def _loop(**overrides):
    kwargs = dict(
        train_steps=20,
        device_step_seconds=1e-3,
        infeed_seconds_per_batch=1e-4,
        eval_interval_steps=10,
        eval_steps_per_pass=5,
        eval_step_seconds=5e-4,
        host_roundtrip_seconds=2e-3,
        accumulate_eval_on_device=True,
    )
    kwargs.update(overrides)
    return simulate_train_eval_loop(**kwargs)


class TestLoop:
    def test_total_accounts_for_components(self):
        r = _loop()
        assert r.total_seconds >= r.train_seconds + r.eval_seconds + r.host_sync_seconds

    def test_train_time_exact(self):
        r = _loop()
        assert r.train_seconds == pytest.approx(20 * 1e-3)

    def test_eval_passes_counted(self):
        r = _loop()
        # 2 eval passes x 5 steps x 0.5 ms.
        assert r.eval_seconds == pytest.approx(2 * 5 * 5e-4)

    def test_accumulation_reduces_host_sync(self):
        naive = _loop(accumulate_eval_on_device=False)
        opt = _loop(accumulate_eval_on_device=True)
        # 2 passes: 2 round trips accumulated vs 10 per-step.
        assert opt.host_sync_seconds == pytest.approx(2 * 2e-3)
        assert naive.host_sync_seconds == pytest.approx(10 * 2e-3)
        assert opt.total_seconds < naive.total_seconds

    def test_slow_infeed_stalls(self):
        r = _loop(infeed_seconds_per_batch=2e-3, prefetch_batches=1)
        assert r.stall_seconds > 0
        assert r.total_seconds > 20 * 1e-3

    def test_no_eval(self):
        r = _loop(eval_steps_per_pass=0)
        assert r.eval_seconds == 0.0
        assert r.host_sync_seconds == 0.0

    def test_trace_categories(self):
        r = _loop()
        assert {e.category for e in r.trace.events} >= {"train", "eval", "host", "infeed"}
        train = sum(e.duration for e in r.trace.events if e.category == "train")
        assert train == pytest.approx(r.train_seconds)

    def test_chrome_trace_exports(self):
        r = _loop()
        events = r.trace.to_chrome_trace()
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) > 20
        assert all(e["ph"] in ("X", "M") for e in events)
        assert all(e["args"]["actor"] == e["tid"] for e in spans)

    def test_validation(self):
        with pytest.raises(ValueError):
            _loop(train_steps=0)
        with pytest.raises(ValueError):
            _loop(device_step_seconds=0.0)


class TestDlrmAblation:
    def test_accumulation_claim(self):
        """Section 4.6: per-step host communication is an unacceptable
        overhead; on-device accumulation removes most of it."""
        naive, opt = dlrm_eval_accumulation_ablation()
        assert naive.eval_overhead_fraction > 2 * opt.eval_overhead_fraction
        assert opt.total_seconds < naive.total_seconds
        # Train time itself is untouched.
        assert naive.train_seconds == pytest.approx(opt.train_seconds)
