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

Each layer computes plain numpy and writes its own backward, returning
``autodiff.layer(x, out, grad_fn)``: over a ``Var`` input that links it
into the training chain, over an array it is the output array alone.
Where a value feeds several ops inside a layer, its gradient terms are
summed in one fixed order, so every gradient keeps its bits. The
batched training-time loss lives in :mod:`affectseq.model`, which wires
these pieces to the encoders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError, DimensionError
from .numerics import (GLOROT, Layout, ParamStore, add_params, dropout_mask, sigmoid,
                       softmax_rows)

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


def batch_norm_graph(x, params: Mapping[str, np.ndarray], config: FusionConfig,
                     rng: np.random.Generator | None):
    """Batch norm over a [B, F] batch with the ``fusion.bn.`` scale and shift.

    A training pass (``rng`` given) normalizes by the batch mean and biased
    variance; an inference pass normalizes each row by the running
    statistics. Neither writes a parameter.
    """
    vx = ad.value(x)
    eps = config.bn_epsilon
    if rng is not None:
        if vx.shape[0] < 2:
            raise DataError("batch normalization needs B >= 2 in a training pass")
        centered = vx - vx.mean(axis=0, keepdims=True)
        var = (centered * centered).mean(axis=0, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
    else:
        inv = (1.0 / np.sqrt(params["fusion.bn.running_var"] + eps)).reshape(1, -1)
        centered = vx - params["fusion.bn.running_mean"].reshape(1, -1)
    xhat = centered * inv
    gamma = params["fusion.bn.gamma"]

    def grad_fn(g):
        named = {"fusion.bn.gamma": (g * xhat).sum(axis=0), "fusion.bn.beta": g.sum(axis=0)}
        g = g * gamma
        dx = g * inv
        if rng is not None:
            # the batch statistics' terms: the centered batch gets its scale
            # term, then its two variance terms, then x its mean's term
            dvar = -0.5 * (g * centered).sum(axis=0, keepdims=True) * inv / (var + eps)
            dsq = dvar / len(vx) * centered
            dx += dsq
            dx += dsq
            dx = dx + (-dx).sum(axis=0, keepdims=True) / len(vx)
        return dx, named

    return ad.layer(x, xhat * gamma + params["fusion.bn.beta"], grad_fn)


def context_gate_graph(x, params: Mapping[str, np.ndarray], gate: str):
    """y = sigmoid(x W^T + b) * x, elementwise, with the ``fusion.<gate>.``
    parameters; never grows magnitudes."""
    vx = ad.value(x)
    w, b = params[f"fusion.{gate}.W"], params[f"fusion.{gate}.b"]
    if w.shape != (vx.shape[1],) * 2 or b.shape != (vx.shape[1],):
        raise DimensionError(f"{gate}: input {vx.shape} does not match W {w.shape}, b {b.shape}")
    s = sigmoid(vx @ w.T + b)

    def grad_fn(g):
        dz = g * vx * s * (1.0 - s)
        return g * s + dz @ w, {f"fusion.{gate}.W": dz.T @ vx, f"fusion.{gate}.b": dz.sum(axis=0)}

    return ad.layer(x, s * vx, grad_fn)


def moe_graph(v, params: Mapping[str, np.ndarray]):
    """Mixture output [B, 2]: per output dimension, logistic-regression
    experts weighted by a softmax over gate logits. Entries lie in (0, 1)."""
    vv = ad.value(v)
    columns, kept = [], []
    for dim in OUTPUT_DIMS:
        name = f"fusion.moe.{dim}."
        experts = sigmoid(vv @ params[name + "expert_W"].T + params[name + "expert_b"])
        gates = softmax_rows(vv @ params[name + "gate_W"].T + params[name + "gate_b"])
        columns.append((gates * experts).sum(axis=1, keepdims=True))
        kept.append((name, experts, gates))

    def grad_fn(g):
        terms, named = [], {}
        for d, (name, experts, gates) in enumerate(kept):
            dgates = g[:, d:d + 1] * experts
            dz = {"gate": gates * (dgates - (dgates * gates).sum(axis=1, keepdims=True)),
                  "expert": g[:, d:d + 1] * gates * experts * (1.0 - experts)}
            for kind, grad in dz.items():
                terms.append(grad @ params[f"{name}{kind}_W"])
                named[f"{name}{kind}_W"] = grad.T @ vv
                named[f"{name}{kind}_b"] = grad.sum(axis=0)
        # v's four terms, summed left to right in the order that keeps bits
        return sum(terms[1:], terms[0]), named

    return ad.layer(v, np.concatenate(columns, axis=1), grad_fn)


def fusion_head_graph(x, params: Mapping[str, np.ndarray], config: FusionConfig,
                      rng: np.random.Generator | None = None):
    """Head over a [B, F] input; returns gated probabilities [B, 2], a
    ``Var`` on the chain if ``x`` is one (see :mod:`affectseq.autodiff`)."""
    values = ad.value(x)
    width = params["fusion.cg1.W"].shape[1]
    if values.ndim != 2 or values.shape[1] != width:
        raise DimensionError(f"fusion input {values.shape} does not match F={width}")
    if config.enable_batchnorm:
        x = batch_norm_graph(x, params, config, rng)
    if rng is not None and config.dropout_rate > 0.0:
        mask = dropout_mask(rng, values.shape, config.dropout_rate)
        x = ad.layer(x, ad.value(x) * mask, lambda g: (g * mask, {}))
    v = context_gate_graph(x, params, "cg1")
    if config.cg2_position == "moe_input":
        return moe_graph(context_gate_graph(v, params, "cg2"), params)
    return context_gate_graph(moe_graph(v, params), params, "cg2")
