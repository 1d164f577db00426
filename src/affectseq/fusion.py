"""Late fusion of per-modality encoder states.

Concatenated final hidden states pass through an optional batch-norm +
dropout stage, a context gate, and a mixture of logistic-regression
experts with a softmax gating network per output dimension. A second
context gate sits on the mixture output by default (configurable to the
mixture input instead), and an affine map takes the gated probabilities
into the configured annotation range.

The batched training-time loss lives in :mod:`affectseq.model`, which
wires these pieces to the encoders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DimensionError
from .numerics import ParamStore, glorot_uniform
from .seqmodel import BatchNormState, batch_norm_graph

OUTPUT_DIMS = ("valence", "arousal")


@dataclass(frozen=True)
class FusionConfig:
    """Shape and regularization of the fusion head."""

    modality_dims: tuple[tuple[str, int], ...]
    num_experts: int = 2
    l2_lambda: float = 1e-5
    enable_dropout: bool = False
    enable_batchnorm: bool = False
    dropout_rate: float = 0.5
    output_range: tuple[float, float] = (-1.0, 1.0)
    cg2_position: str = "moe_output"
    bn_momentum: float = 0.9
    bn_epsilon: float = 1e-5
    use_batch_stats_at_inference: bool = True

    def __post_init__(self):
        if not self.modality_dims:
            raise ConfigError("fusion needs at least one modality")
        if self.num_experts < 1:
            raise ConfigError("num_experts must be >= 1")
        if self.l2_lambda < 0:
            raise ConfigError("l2_lambda must be >= 0")
        lo, hi = self.output_range
        if not lo < hi:
            raise ConfigError(f"output range ({lo}, {hi}) must satisfy lo < hi")
        if self.cg2_position not in ("moe_input", "moe_output"):
            raise ConfigError(f"unknown cg2_position: {self.cg2_position!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must lie in [0, 1)")

    @property
    def concat_dim(self) -> int:
        return sum(d for _, d in self.modality_dims)


def init_fusion_params(store: ParamStore, config: FusionConfig,
                       rng: np.random.Generator, prefix: str = "fusion") -> None:
    f = config.concat_dim
    e = config.num_experts
    if config.enable_batchnorm:
        store.add(f"{prefix}.bn.gamma", np.ones(f))
        store.add(f"{prefix}.bn.beta", np.zeros(f))
        store.add(f"{prefix}.bn.running_mean", np.zeros(f))
        store.add(f"{prefix}.bn.running_var", np.ones(f))
    store.add(f"{prefix}.cg1.W", glorot_uniform((f, f), rng))
    store.add(f"{prefix}.cg1.b", np.zeros(f))
    for dim in OUTPUT_DIMS:
        store.add(f"{prefix}.moe.{dim}.expert_W", glorot_uniform((e, f), rng))
        store.add(f"{prefix}.moe.{dim}.expert_b", np.zeros(e))
        store.add(f"{prefix}.moe.{dim}.gate_W", glorot_uniform((e, f), rng))
        store.add(f"{prefix}.moe.{dim}.gate_b", np.zeros(e))
    cg2_dim = f if config.cg2_position == "moe_input" else len(OUTPUT_DIMS)
    store.add(f"{prefix}.cg2.W", glorot_uniform((cg2_dim, cg2_dim), rng))
    store.add(f"{prefix}.cg2.b", np.zeros(cg2_dim))


def bn_state_view(store: ParamStore, config: FusionConfig, prefix: str = "fusion") -> BatchNormState:
    return BatchNormState(
        gamma=store.value(f"{prefix}.bn.gamma"),
        beta=store.value(f"{prefix}.bn.beta"),
        running_mean=store.value(f"{prefix}.bn.running_mean"),
        running_var=store.value(f"{prefix}.bn.running_var"),
        momentum=config.bn_momentum,
        epsilon=config.bn_epsilon,
        use_batch_stats_at_inference=config.use_batch_stats_at_inference,
    )


def map_to_range(p: np.ndarray, output_range: tuple[float, float]) -> np.ndarray:
    lo, hi = output_range
    return lo + (hi - lo) * np.asarray(p, dtype=np.float64)


def context_gate_graph(x, w: ad.Var, b: ad.Var) -> ad.Var:
    """y = sigmoid(x W^T + b) * x, elementwise; never grows magnitudes."""
    return ad.mul(ad.sigmoid(ad.linear(x, w, b)), x)


def moe_graph(v, leaves: Mapping[str, ad.Var], prefix: str = "fusion") -> ad.Var:
    """Mixture output [B, 2]: per output dimension, logistic-regression
    experts weighted by a softmax over gate logits. Entries lie in (0, 1)."""
    columns = []
    for dim in OUTPUT_DIMS:
        logits = ad.linear(v, leaves[f"{prefix}.moe.{dim}.expert_W"],
                           leaves[f"{prefix}.moe.{dim}.expert_b"])
        gates = ad.softmax_rows(ad.linear(v, leaves[f"{prefix}.moe.{dim}.gate_W"],
                                          leaves[f"{prefix}.moe.{dim}.gate_b"]))
        columns.append(ad.sum_axis1(ad.mul(gates, ad.sigmoid(logits))))
    return ad.concat_cols(columns)


def fusion_head_graph(x, store: ParamStore, leaves: Mapping[str, ad.Var],
                      config: FusionConfig, mode: str = "eval",
                      mask_rng: np.random.Generator | None = None,
                      prefix: str = "fusion") -> ad.Var:
    """Batched head over a [B, F] input; returns gated probabilities [B, 2]."""
    values = x.value if isinstance(x, ad.Var) else np.asarray(x, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != config.concat_dim:
        raise DimensionError(f"fusion input {values.shape} does not match F={config.concat_dim}")
    if config.enable_batchnorm:
        x = batch_norm_graph(x, bn_state_view(store, config, prefix),
                             leaves[f"{prefix}.bn.gamma"], leaves[f"{prefix}.bn.beta"], mode)
    if config.enable_dropout and mode == "train":
        if mask_rng is None:
            raise ConfigError("train-mode dropout needs a generator")
        mask = (mask_rng.random(values.shape) >= config.dropout_rate) / (1.0 - config.dropout_rate)
        x = ad.mul(x, mask) if isinstance(x, ad.Var) else x * mask
    v = context_gate_graph(x, leaves[f"{prefix}.cg1.W"], leaves[f"{prefix}.cg1.b"])
    cg2_w = leaves[f"{prefix}.cg2.W"]
    cg2_b = leaves[f"{prefix}.cg2.b"]
    if config.cg2_position == "moe_input":
        v = context_gate_graph(v, cg2_w, cg2_b)
        return moe_graph(v, leaves, prefix)
    p = moe_graph(v, leaves, prefix)
    return context_gate_graph(p, cg2_w, cg2_b)
