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

A training pass (one given the step's generator) normalizes a batch by
its own statistics and draws dropout masks; an inference pass normalizes
each row alone by the running statistics, which only training sets (see
:mod:`affectseq.training`), and skips dropout.

The batched training-time loss lives in :mod:`affectseq.model`, which
wires these pieces to the encoders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError, DimensionError
from .numerics import GLOROT, Layout, ParamStore, add_params, dropout_mask

OUTPUT_DIMS = ("valence", "arousal")
CG2_POSITIONS = ("moe_input", "moe_output")


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
    bn_epsilon: float = 1e-5

    def __post_init__(self):
        if self.num_experts < 1:
            raise ConfigError("num_experts must be >= 1")
        if self.l2_lambda < 0:
            raise ConfigError("l2_lambda must be >= 0")
        lo, hi = self.output_range
        if not lo < hi:
            raise ConfigError(f"output range ({lo}, {hi}) must satisfy lo < hi")
        if self.cg2_position not in CG2_POSITIONS:
            raise ConfigError(f"unknown cg2_position: {self.cg2_position!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must lie in [0, 1)")
        if not self.bn_epsilon > 0.0:
            raise ConfigError("bn_epsilon must be positive")


def fusion_layout(config: FusionConfig, input_dim: int) -> Layout:
    """``(name, shape, fill)`` of the head's parameters for an
    ``input_dim``-wide encoder state, in draw order (see :func:`add_params`)."""
    if input_dim < 1:
        raise ConfigError("fusion needs at least one input feature")
    f = input_dim
    e = config.num_experts
    layout = []
    if config.enable_batchnorm:
        layout += [("fusion.bn.gamma", (f,), 1), ("fusion.bn.beta", (f,), 0),
                   ("fusion.bn.running_mean", (f,), 0), ("fusion.bn.running_var", (f,), 1)]
    layout += [("fusion.cg1.W", (f, f), GLOROT), ("fusion.cg1.b", (f,), 0)]
    for dim in OUTPUT_DIMS:
        layout += [(f"fusion.moe.{dim}.expert_W", (e, f), GLOROT),
                   (f"fusion.moe.{dim}.expert_b", (e,), 0),
                   (f"fusion.moe.{dim}.gate_W", (e, f), GLOROT),
                   (f"fusion.moe.{dim}.gate_b", (e,), 0)]
    cg2_dim = f if config.cg2_position == "moe_input" else len(OUTPUT_DIMS)
    layout += [("fusion.cg2.W", (cg2_dim, cg2_dim), GLOROT), ("fusion.cg2.b", (cg2_dim,), 0)]
    return layout


def init_fusion_params(store: ParamStore, config: FusionConfig, input_dim: int,
                       rng: np.random.Generator) -> None:
    """Add the head's parameters for an ``input_dim``-wide encoder state."""
    add_params(store, fusion_layout(config, input_dim), rng)


def map_to_range(p: np.ndarray, output_range: tuple[float, float]) -> np.ndarray:
    lo, hi = output_range
    return lo + (hi - lo) * np.asarray(p, dtype=np.float64)


def batch_norm_graph(x, leaves: Mapping[str, ad.Var], config: FusionConfig,
                     rng: np.random.Generator | None):
    """Differentiable batch norm over a [B, F] batch with the ``fusion.bn.``
    scale and shift.

    A training pass (``rng`` given) normalizes by the batch mean and biased
    variance; an inference pass normalizes each row by the running
    statistics. Neither writes a leaf.
    """
    eps = config.bn_epsilon
    if rng is not None:
        if ad.value(x).shape[0] < 2:
            raise DataError("batch normalization needs B >= 2 in a training pass")
        centered = ad.sub(x, ad.mean_axis0(x))
        xhat = ad.mul(centered, ad.rsqrt_shift(ad.mean_axis0(ad.mul(centered, centered)), eps))
    else:
        inv = 1.0 / np.sqrt(ad.value(leaves["fusion.bn.running_var"]) + eps)
        xhat = ad.mul(ad.sub(x, ad.value(leaves["fusion.bn.running_mean"]).reshape(1, -1)),
                      inv.reshape(1, -1))
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
                      rng: np.random.Generator | None = None) -> ad.Var:
    """Batched head over a [B, F] input; returns gated probabilities [B, 2]."""
    values = ad.value(x)
    width = ad.value(leaves["fusion.cg1.W"]).shape[1]
    if values.ndim != 2 or values.shape[1] != width:
        raise DimensionError(f"fusion input {values.shape} does not match F={width}")
    if config.enable_batchnorm:
        x = batch_norm_graph(x, leaves, config, rng)
    if rng is not None and config.dropout_rate > 0.0:
        x = ad.mul(x, dropout_mask(rng, values.shape, config.dropout_rate))
    v = context_gate_graph(x, leaves["fusion.cg1.W"], leaves["fusion.cg1.b"])
    cg2_w = leaves["fusion.cg2.W"]
    cg2_b = leaves["fusion.cg2.b"]
    if config.cg2_position == "moe_input":
        v = context_gate_graph(v, cg2_w, cg2_b)
        return moe_graph(v, leaves)
    p = moe_graph(v, leaves)
    return context_gate_graph(p, cg2_w, cg2_b)
