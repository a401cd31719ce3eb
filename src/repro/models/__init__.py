"""Models: trainable numpy networks and MLPerf v0.7 cost specifications.

Two kinds of model live here:

* **Trainable models** (:mod:`repro.models.layers`, :mod:`repro.models.mlp`)
  — small numpy networks with hand-written gradients, used to run the
  paper's parallelization schemes *for real* and check they leave the math
  unchanged.
* **Cost specs** (:mod:`repro.models.costspec` and the per-benchmark
  modules) — FLOPs / parameter / activation accounting for the six MLPerf
  v0.7 models, consumed by the step-time and end-to-end models that
  regenerate the paper's tables and figures.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "dense_forward": "layers",
    "dense_backward": "layers",
    "relu": "layers",
    "relu_backward": "layers",
    "softmax_cross_entropy": "layers",
    "MLP": "mlp",
    "ModelCostSpec": "costspec",
    "LayerCost": "costspec",
    "bert_large_spec": "bert",
    "resnet50_spec": "resnet",
    "transformer_big_spec": "transformer",
    "ssd_spec": "ssd",
    "maskrcnn_spec": "maskrcnn",
    "dlrm_spec": "dlrm",
    "AttentionParams": "attention",
    "HeadShardedAttention": "attention",
    "attention_forward": "attention",
    "attention_backward": "attention",
    "TinyTransformerClassifier": "transformer_small",
    "synthetic_sequences": "transformer_small",
    "EmbeddingTableSpec": "embedding",
    "EmbeddingPlacement": "embedding",
    "ShardedEmbedding": "embedding",
    "plan_embedding_placement": "embedding",
    "interaction_gather": "embedding",
    "interaction_masked": "embedding",
    "expand_weights_for_mask": "embedding",
    "criteo_tables": "embedding",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
