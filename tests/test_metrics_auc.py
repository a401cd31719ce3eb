"""AUC implementation tests, including hypothesis cross-checks (§4.6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.auc import auc_naive, auc_sorted, synthetic_pctr


class TestKnownValues:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([0, 0, 1, 1])
        assert auc_sorted(scores, labels) == 1.0
        assert auc_naive(scores, labels) == 1.0

    def test_perfectly_wrong(self):
        scores = np.array([0.9, 0.8, 0.1, 0.2])
        labels = np.array([0, 0, 1, 1])
        assert auc_sorted(scores, labels) == 0.0

    def test_random_is_half(self):
        rng = np.random.default_rng(0)
        scores = rng.random(20_000)
        labels = rng.integers(0, 2, 20_000)
        assert auc_sorted(scores, labels) == pytest.approx(0.5, abs=0.02)

    def test_all_ties_is_half(self):
        scores = np.ones(10)
        labels = np.array([0, 1] * 5)
        assert auc_sorted(scores, labels) == pytest.approx(0.5)
        assert auc_naive(scores, labels) == pytest.approx(0.5)


class TestAgreement:
    def test_sorted_matches_naive_with_ties(self, rng):
        scores = rng.integers(0, 20, 500).astype(float)  # many ties
        labels = rng.integers(0, 2, 500)
        labels[0], labels[1] = 0, 1
        assert auc_sorted(scores, labels) == pytest.approx(
            auc_naive(scores, labels), rel=1e-12
        )

    @given(
        n=st.integers(min_value=4, max_value=200),
        levels=st.integers(min_value=2, max_value=30),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_sorted_equals_naive(self, n, levels, seed):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, levels, n).astype(float)
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 0, 1
        assert auc_sorted(scores, labels) == pytest.approx(
            auc_naive(scores, labels), rel=1e-10
        )


class TestValidation:
    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc_sorted(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_non_binary_labels(self):
        with pytest.raises(ValueError):
            auc_sorted(np.array([0.1, 0.2]), np.array([0, 2]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            auc_sorted(np.zeros(3), np.zeros(4))


class TestSyntheticPctr:
    def test_target_auc_reached(self, rng):
        scores, labels = synthetic_pctr(rng, 100_000, auc_target=0.80)
        assert auc_sorted(scores, labels) == pytest.approx(0.80, abs=0.01)

    def test_both_classes_present(self, rng):
        _, labels = synthetic_pctr(rng, 10)
        assert 0 < labels.sum() < len(labels)

    def test_invalid_target(self, rng):
        with pytest.raises(ValueError):
            synthetic_pctr(rng, 100, auc_target=0.4)

    def test_scaling_behavior(self, rng):
        """Sorted AUC is near-linearithmic: 4x data < 8x time (smoke)."""
        import time

        s1, l1 = synthetic_pctr(rng, 100_000)
        s2, l2 = synthetic_pctr(rng, 400_000)
        t0 = time.perf_counter(); auc_sorted(s1, l1); t1 = time.perf_counter() - t0
        t0 = time.perf_counter(); auc_sorted(s2, l2); t2 = time.perf_counter() - t0
        assert t2 < 10 * max(t1, 1e-4)
