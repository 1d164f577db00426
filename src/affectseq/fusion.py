"""Late fusion of per-modality encoder states.

Concatenated final hidden states pass through an optional batch-norm
stage and inverted dropout (a rate of 0 turns it off), a context gate,
and a mixture of logistic-regression experts with a softmax gating
network per output dimension. A second context gate sits on the mixture
output by default (configurable to the mixture input instead), and an
affine map takes the gated probabilities into the configured annotation
range. Every head parameter, batch-norm running statistics included,
lives in the parameter store under ``fusion.``; the head's input width
is the width of ``fusion.cg1.W``.

The batched training-time loss lives in :mod:`affectseq.model`, which
wires these pieces to the encoders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError, DimensionError
from .numerics import ParamStore, glorot_uniform

OUTPUT_DIMS = ("valence", "arousal")


@dataclass(frozen=True)
class FusionConfig:
    """Regularization and shape of the fusion head (its input width comes
    from the encoders)."""

    num_experts: int = 2
    l2_lambda: float = 1e-5
    enable_batchnorm: bool = False
    dropout_rate: float = 0.0
    output_range: tuple[float, float] = (-1.0, 1.0)
    cg2_position: str = "moe_output"
    bn_momentum: float = 0.9
    bn_epsilon: float = 1e-5
    use_batch_stats_at_inference: bool = True

    def __post_init__(self):
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
        if not 0.0 < self.bn_momentum < 1.0:
            raise ConfigError("bn_momentum must lie in (0, 1)")
        if not self.bn_epsilon > 0.0:
            raise ConfigError("bn_epsilon must be positive")


def init_fusion_params(store: ParamStore, config: FusionConfig, input_dim: int,
                       rng: np.random.Generator) -> None:
    """Add the head's parameters for an ``input_dim``-wide encoder state."""
    if input_dim < 1:
        raise ConfigError("fusion needs at least one input feature")
    f = input_dim
    e = config.num_experts
    if config.enable_batchnorm:
        store.add("fusion.bn.gamma", np.ones(f))
        store.add("fusion.bn.beta", np.zeros(f))
        store.add("fusion.bn.running_mean", np.zeros(f))
        store.add("fusion.bn.running_var", np.ones(f))
    store.add("fusion.cg1.W", glorot_uniform((f, f), rng))
    store.add("fusion.cg1.b", np.zeros(f))
    for dim in OUTPUT_DIMS:
        store.add(f"fusion.moe.{dim}.expert_W", glorot_uniform((e, f), rng))
        store.add(f"fusion.moe.{dim}.expert_b", np.zeros(e))
        store.add(f"fusion.moe.{dim}.gate_W", glorot_uniform((e, f), rng))
        store.add(f"fusion.moe.{dim}.gate_b", np.zeros(e))
    cg2_dim = f if config.cg2_position == "moe_input" else len(OUTPUT_DIMS)
    store.add("fusion.cg2.W", glorot_uniform((cg2_dim, cg2_dim), rng))
    store.add("fusion.cg2.b", np.zeros(cg2_dim))


def map_to_range(p: np.ndarray, output_range: tuple[float, float]) -> np.ndarray:
    lo, hi = output_range
    return lo + (hi - lo) * np.asarray(p, dtype=np.float64)


def batch_norm_graph(x, leaves: Mapping[str, ad.Var], config: FusionConfig, mode: str):
    """Differentiable batch norm over a [B, F] batch with the ``fusion.bn.``
    scale, shift and running statistics.

    Train mode normalizes by the batch mean/var (biased) and folds the
    batch statistics into the running ones with
    ``running = bn_momentum * running + (1 - bn_momentum) * batch`` as a
    side effect on the leaves' arrays, which are the store's own. Eval
    mode normalizes by the current batch's statistics when
    ``use_batch_stats_at_inference`` is set (the default), else by the
    running statistics.
    """
    running_mean = ad.value(leaves["fusion.bn.running_mean"])
    running_var = ad.value(leaves["fusion.bn.running_var"])
    eps = config.bn_epsilon
    if mode not in ("train", "eval"):
        raise ConfigError(f"unknown mode: {mode!r}")
    train = mode == "train"
    if train and ad.value(x).shape[0] < 2:
        raise DataError("batch normalization needs B >= 2 in train mode")
    if train or config.use_batch_stats_at_inference:
        mu = ad.mean_axis0(x)
        centered = ad.sub(x, mu)
        var = ad.mean_axis0(ad.mul(centered, centered))
        xhat = ad.mul(centered, ad.rsqrt_shift(var, eps))
        if train:
            m = config.bn_momentum
            running_mean[:] = m * running_mean + (1.0 - m) * ad.value(mu)[0]
            running_var[:] = m * running_var + (1.0 - m) * ad.value(var)[0]
    else:
        inv = 1.0 / np.sqrt(running_var + eps)
        xhat = ad.mul(ad.sub(x, running_mean.reshape(1, -1)), inv.reshape(1, -1))
    return ad.add(ad.mul(xhat, leaves["fusion.bn.gamma"]), leaves["fusion.bn.beta"])


def context_gate_graph(x, w: ad.Var, b: ad.Var) -> ad.Var:
    """y = sigmoid(x W^T + b) * x, elementwise; never grows magnitudes."""
    return ad.mul(ad.sigmoid(ad.linear(x, w, b)), x)


def moe_graph(v, leaves: Mapping[str, ad.Var]) -> ad.Var:
    """Mixture output [B, 2]: per output dimension, logistic-regression
    experts weighted by a softmax over gate logits. Entries lie in (0, 1)."""
    columns = []
    for dim in OUTPUT_DIMS:
        logits = ad.linear(v, leaves[f"fusion.moe.{dim}.expert_W"],
                           leaves[f"fusion.moe.{dim}.expert_b"])
        gates = ad.softmax_rows(ad.linear(v, leaves[f"fusion.moe.{dim}.gate_W"],
                                          leaves[f"fusion.moe.{dim}.gate_b"]))
        columns.append(ad.sum_axis1(ad.mul(gates, ad.sigmoid(logits))))
    return ad.concat_cols(columns)


def fusion_head_graph(x, leaves: Mapping[str, ad.Var], config: FusionConfig,
                      mode: str = "eval",
                      mask_rng: np.random.Generator | None = None) -> ad.Var:
    """Batched head over a [B, F] input; returns gated probabilities [B, 2].

    Train mode updates the batch-norm running statistics in place through
    the leaves, which share the store's arrays.
    """
    values = ad.value(x)
    width = ad.value(leaves["fusion.cg1.W"]).shape[1]
    if values.ndim != 2 or values.shape[1] != width:
        raise DimensionError(f"fusion input {values.shape} does not match F={width}")
    if config.enable_batchnorm:
        x = batch_norm_graph(x, leaves, config, mode)
    if config.dropout_rate > 0.0 and mode == "train":
        if mask_rng is None:
            raise ConfigError("train-mode dropout needs a generator")
        mask = (mask_rng.random(values.shape) >= config.dropout_rate) / (1.0 - config.dropout_rate)
        x = ad.mul(x, mask)
    v = context_gate_graph(x, leaves["fusion.cg1.W"], leaves["fusion.cg1.b"])
    cg2_w = leaves["fusion.cg2.W"]
    cg2_b = leaves["fusion.cg2.b"]
    if config.cg2_position == "moe_input":
        v = context_gate_graph(v, cg2_w, cg2_b)
        return moe_graph(v, leaves)
    p = moe_graph(v, leaves)
    return context_gate_graph(p, cg2_w, cg2_b)
