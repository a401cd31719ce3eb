"""Cost-spec sanity tests for the six MLPerf benchmarks."""

import pytest

from repro.models import (
    bert_large_spec,
    dlrm_spec,
    maskrcnn_spec,
    resnet50_spec,
    ssd_spec,
    transformer_big_spec,
)
from repro.models.costspec import LayerCost, ModelCostSpec

ALL_SPECS = [
    resnet50_spec(),
    bert_large_spec(),
    transformer_big_spec(),
    ssd_spec(),
    maskrcnn_spec(),
    dlrm_spec(),
]


class TestSpecsSanity:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_positive_accounting(self, spec):
        assert spec.params > 0
        assert spec.flops_per_example > 0
        assert spec.dataset_examples > 0
        assert spec.reference_global_batch >= 256

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_layer_fractions_bounded(self, spec):
        total = sum(l.flops_fraction for l in spec.layers)
        assert total <= 1.0 + 1e-9

    def test_resnet_parameters(self):
        spec = resnet50_spec()
        assert spec.params == pytest.approx(25.6e6)
        assert spec.optimizer == "lars"
        assert spec.gradient_bytes == pytest.approx(25.6e6 * 4)

    def test_bert_uses_bf16_gradients(self):
        spec = bert_large_spec()
        assert spec.grad_wire_dtype_bytes == 2
        assert spec.gradient_bytes == pytest.approx(334e6 * 2)

    def test_transformer_model_parallel_limits(self):
        spec = transformer_big_spec()
        assert spec.max_model_parallel_cores == 4
        assert not spec.supports_large_batch_scaling
        assert spec.activation_allreduce_bytes_per_example > 0

    def test_segmentation_models_spatial(self):
        for spec in (ssd_spec(), maskrcnn_spec()):
            assert spec.max_model_parallel_cores == 8
            partitionable = sum(
                l.flops_fraction for l in spec.layers if l.spatially_partitionable
            )
            assert 0.5 < partitionable < 1.0

    def test_dlrm_embedding_traffic(self):
        spec = dlrm_spec()
        assert spec.embedding_hbm_bytes_per_example > 0
        # Dense params are tiny; embeddings dominate memory, not gradients.
        assert spec.params < 10e6


class TestValidation:
    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            ModelCostSpec(
                name="bad", params=-1, flops_per_example=1,
                dataset_examples=1, eval_examples=1, quality_target="x",
                reference_global_batch=1,
            )

    def test_layer_fraction_overflow(self):
        with pytest.raises(ValueError):
            ModelCostSpec(
                name="bad", params=1, flops_per_example=1,
                dataset_examples=1, eval_examples=1, quality_target="x",
                reference_global_batch=1,
                layers=(LayerCost("a", 0.7), LayerCost("b", 0.7)),
            )

    def test_layer_cost_validation(self):
        with pytest.raises(ValueError):
            LayerCost("a", 1.5)
        with pytest.raises(ValueError):
            LayerCost("a", 0.5, height=0)
