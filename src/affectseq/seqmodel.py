"""Sequence-to-one recurrent encoders: GRU and LSTM cells, dropout, and
batch normalization.

Cell conventions are pinned so results are reproducible:

GRU    z = sigmoid(W_z x + U_z h + b_z)
       r = sigmoid(W_r x + U_r h + b_r)
       hc = tanh(W_h x + U_h (r * h) + b_h)
       h' = (1 - z) * h + z * hc

LSTM   i, f, o = sigmoid(W_* x + U_* h + b_*)
       g = tanh(W_g x + U_g h + b_g)
       c' = f * c + i * g,  h' = o * tanh(c')

No peepholes; the LSTM forget-gate bias starts at 1. Initial hidden and
cell states are zero vectors. Dropout sits on each layer's input only,
never on the recurrent connection, and uses the inverted convention so
evaluation is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError, DimensionError, DomainError
from .numerics import ParamStore, glorot_uniform

GRU_GATES = ("z", "r", "h")
LSTM_GATES = ("i", "f", "g", "o")


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture of one per-modality encoder."""

    input_dim: int
    hidden_units: tuple[int, ...] = (128,)
    cell_kind: str = "gru"
    sequence_length: int = 60
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.cell_kind not in ("gru", "lstm"):
            raise ConfigError(f"unknown cell kind: {self.cell_kind!r}")
        if self.input_dim < 1:
            raise ConfigError("input_dim must be >= 1")
        if not 1 <= len(self.hidden_units) <= 2:
            raise ConfigError("encoders support 1 or 2 layers")
        if any(h < 1 for h in self.hidden_units):
            raise ConfigError("hidden_units must be >= 1")
        if self.sequence_length < 1:
            raise ConfigError("sequence_length must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise DomainError("dropout_rate must lie in [0, 1)")

    @property
    def num_layers(self) -> int:
        return len(self.hidden_units)

    @property
    def output_dim(self) -> int:
        return self.hidden_units[-1]

    def layer_input_dim(self, layer: int) -> int:
        return self.input_dim if layer == 0 else self.hidden_units[layer - 1]


@dataclass
class BatchNormState:
    """Learned scale/shift plus running statistics (views into a store)."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.9
    epsilon: float = 1e-5
    use_batch_stats_at_inference: bool = True

    def __post_init__(self):
        if not 0.0 < self.momentum < 1.0:
            raise ConfigError("batch-norm momentum must lie in (0, 1)")
        if self.epsilon <= 0:
            raise ConfigError("batch-norm epsilon must be positive")


def init_encoder_params(store: ParamStore, prefix: str, config: EncoderConfig,
                        rng: np.random.Generator) -> None:
    """Add one encoder's weights under ``prefix.l<layer>.``."""
    gates = GRU_GATES if config.cell_kind == "gru" else LSTM_GATES
    for layer in range(config.num_layers):
        d = config.layer_input_dim(layer)
        h = config.hidden_units[layer]
        base = f"{prefix}.l{layer}"
        for gate in gates:
            store.add(f"{base}.W_{gate}", glorot_uniform((h, d), rng))
            store.add(f"{base}.U_{gate}", glorot_uniform((h, h), rng))
            bias = np.ones(h) if (config.cell_kind == "lstm" and gate == "f") else np.zeros(h)
            store.add(f"{base}.b_{gate}", bias)


# Batched, differentiable paths used by training and prediction. Inputs
# are constants; parameters come in as leaf Vars for training or as plain
# arrays for prediction, which then builds no graph.

def gru_step_graph(x, h_prev, cell: Mapping[str, ad.Var]) -> ad.Var:
    z = ad.sigmoid(ad.add(ad.linear(x, cell["W_z"], cell["b_z"]), ad.linear(h_prev, cell["U_z"])))
    r = ad.sigmoid(ad.add(ad.linear(x, cell["W_r"], cell["b_r"]), ad.linear(h_prev, cell["U_r"])))
    gated = ad.mul(r, h_prev)
    hc = ad.tanh(ad.add(ad.linear(x, cell["W_h"], cell["b_h"]), ad.linear(gated, cell["U_h"])))
    keep = ad.scale_shift(z, -1.0, 1.0)
    return ad.add(ad.mul(keep, h_prev), ad.mul(z, hc))


def lstm_step_graph(x, h_prev, c_prev, cell: Mapping[str, ad.Var]) -> tuple[ad.Var, ad.Var]:
    i = ad.sigmoid(ad.add(ad.linear(x, cell["W_i"], cell["b_i"]), ad.linear(h_prev, cell["U_i"])))
    f = ad.sigmoid(ad.add(ad.linear(x, cell["W_f"], cell["b_f"]), ad.linear(h_prev, cell["U_f"])))
    o = ad.sigmoid(ad.add(ad.linear(x, cell["W_o"], cell["b_o"]), ad.linear(h_prev, cell["U_o"])))
    g = ad.tanh(ad.add(ad.linear(x, cell["W_g"], cell["b_g"]), ad.linear(h_prev, cell["U_g"])))
    c = ad.add(ad.mul(f, c_prev), ad.mul(i, g))
    return ad.mul(o, ad.tanh(c)), c


def encode_batch_graph(seqs: np.ndarray, config: EncoderConfig,
                       leaves: Mapping[str, ad.Var], prefix: str,
                       mode: str = "eval",
                       mask_rng: np.random.Generator | None = None):
    """Differentiable unroll of a [B, T, D] batch; returns the final h [B, H]."""
    seqs = np.asarray(seqs, dtype=np.float64)
    batch, steps, dim = seqs.shape
    if steps != config.sequence_length or dim != config.input_dim:
        raise DimensionError(
            f"batch windows {seqs.shape[1:]} do not match encoder "
            f"({config.sequence_length}, {config.input_dim})"
        )
    train = mode == "train"
    if train and config.dropout_rate > 0.0 and mask_rng is None:
        raise ConfigError("train-mode dropout needs a generator")

    gates = GRU_GATES if config.cell_kind == "gru" else LSTM_GATES
    inputs = [seqs[:, t, :] for t in range(steps)]
    for layer in range(config.num_layers):
        cell = {}
        for gate in gates:
            for kind in ("W", "U", "b"):
                key = f"{kind}_{gate}"
                cell[key] = leaves[f"{prefix}.l{layer}.{key}"]
        width = config.hidden_units[layer]
        h = np.zeros((batch, width))
        c = np.zeros((batch, width))
        outputs = []
        for x in inputs:
            if train and config.dropout_rate > 0.0:
                mask = (mask_rng.random((batch, config.layer_input_dim(layer)))
                        >= config.dropout_rate) / (1.0 - config.dropout_rate)
                x = ad.mul(x, mask)
            if config.cell_kind == "gru":
                h = gru_step_graph(x, h, cell)
            else:
                h, c = lstm_step_graph(x, h, c, cell)
            outputs.append(h)
        inputs = outputs
    return h


def batch_norm_graph(x, state: BatchNormState, gamma: ad.Var, beta: ad.Var, mode: str):
    """Differentiable batch norm over a [B, F] batch.

    Train mode normalizes by the batch mean/var (biased) and folds the
    batch statistics into the running ones with
    ``running = momentum * running + (1 - momentum) * batch`` as a side
    effect. Eval mode normalizes by the current batch's statistics when
    ``use_batch_stats_at_inference`` is set (the default), else by the
    running statistics.
    """
    values = ad.value(x)
    if values.ndim != 2 or values.shape[1] != state.gamma.shape[0]:
        raise DimensionError(
            f"batch of shape {values.shape} does not match {state.gamma.shape[0]} features"
        )
    if mode == "train":
        if values.shape[0] < 2:
            raise DataError("batch normalization needs B >= 2 in train mode")
        mu = ad.mean_axis0(x)
        centered = ad.sub(x, mu)
        var = ad.mean_axis0(ad.mul(centered, centered))
        m = state.momentum
        state.running_mean[:] = m * state.running_mean + (1.0 - m) * ad.value(mu)[0]
        state.running_var[:] = m * state.running_var + (1.0 - m) * ad.value(var)[0]
        inv = ad.rsqrt_shift(var, state.epsilon)
        xhat = ad.mul(centered, inv)
    elif mode == "eval":
        if state.use_batch_stats_at_inference:
            mu = ad.mean_axis0(x)
            centered = ad.sub(x, mu)
            var = ad.mean_axis0(ad.mul(centered, centered))
            inv = ad.rsqrt_shift(var, state.epsilon)
            xhat = ad.mul(centered, inv)
        else:
            inv = 1.0 / np.sqrt(state.running_var + state.epsilon)
            xhat = ad.mul(ad.sub(x, state.running_mean.reshape(1, -1)), inv.reshape(1, -1))
    else:
        raise ConfigError(f"unknown mode: {mode!r}")
    return ad.add(ad.mul(xhat, gamma), beta)
