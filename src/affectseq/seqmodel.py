"""Sequence-to-one recurrent encoders: GRU and LSTM cells with input
dropout. Batch normalization belongs to the fusion head
(:mod:`affectseq.fusion`).

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
evaluation is the identity; a rate of 0 turns it off. The window length
T is a model setting (:class:`affectseq.model.ModelConfig`), not an
encoder one: an encoder unrolls whatever T its batch has.

Each layer is one fused op, ``gru_sequence`` or ``lstm_sequence``, and
one autodiff node for the whole window, after Appleyard et al.
(arXiv:1604.01946). The per-gate U and b are stacked per call, so each
step does a single h @ U.T for all gates; the input projections x_t @ W.T
are hoisted out of the recurrence into GEMMs over blocks of steps. In
prediction the windows of a movie overlap, each one second after the last,
and arrive as a strided view of the movie's rows; the first layer then
projects each distinct row once, B+T-1 rows for B windows instead of B*T,
and every step reads its B rows of that one table. The
backward pass is hand-written backpropagation through time: one reverse
loop over the steps for the pre-activation gradients, then every weight
gradient is one GEMM over all B*T rows. The parameters keep their
per-gate names (``<prefix>.l<layer>.W_z`` ... ``b_o``), so
checkpoints written before the fused ops load unchanged. With constant inputs
and parameters (prediction) the ops keep no per-step state for a
backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DimensionError, DomainError
from .numerics import GLOROT, Layout, ParamStore, add_params

CELL_KINDS = ("gru", "lstm")
GRU_GATES = ("z", "r", "h")
LSTM_GATES = ("i", "f", "g", "o")


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture of one per-modality encoder."""

    input_dim: int
    hidden_units: tuple[int, ...] = (128,)
    cell_kind: str = "gru"
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.cell_kind not in CELL_KINDS:
            raise ConfigError(f"unknown cell kind: {self.cell_kind!r}")
        if self.input_dim < 1:
            raise ConfigError("input_dim must be >= 1")
        if not 1 <= len(self.hidden_units) <= 2:
            raise ConfigError("encoders support 1 or 2 layers")
        if any(h < 1 for h in self.hidden_units):
            raise ConfigError("hidden_units must be >= 1")
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


def encoder_layout(prefix: str, config: EncoderConfig) -> Layout:
    """``(name, shape, fill)`` of one encoder's parameters under
    ``prefix.l<layer>.``, in draw order (see :func:`add_params`)."""
    gates = GRU_GATES if config.cell_kind == "gru" else LSTM_GATES
    layout = []
    for layer in range(config.num_layers):
        d = config.layer_input_dim(layer)
        h = config.hidden_units[layer]
        base = f"{prefix}.l{layer}"
        for gate in gates:
            bias = 1 if (config.cell_kind == "lstm" and gate == "f") else 0
            layout += [(f"{base}.W_{gate}", (h, d), GLOROT), (f"{base}.U_{gate}", (h, h), GLOROT),
                       (f"{base}.b_{gate}", (h,), bias)]
    return layout


def init_encoder_params(store: ParamStore, prefix: str, config: EncoderConfig,
                        rng: np.random.Generator) -> None:
    """Add one encoder's weights under ``prefix.l<layer>.``."""
    add_params(store, encoder_layout(prefix, config), rng)


# Batched, differentiable paths used by training and prediction. Windows
# are constants; parameters come in as leaf Vars for training or as plain
# arrays for prediction, which then builds no graph and keeps no per-step
# state. Inside the fused ops time runs along the first axis ([T, B, .]);
# pre-activation gradients are kept in window order ([B, T, .]), the row
# order of the [B, T, D] input, for the GEMMs after the time loop.

# Input rows of a copied batch projected per block of steps; a strided
# view's row table is projected whole (see _input_steps).
_BLOCK_BYTES = 1 << 20


def _stack(cell: Mapping, kind: str, gates: tuple[str, ...]) -> np.ndarray:
    """The ``kind`` ("W", "U" or "b") parameters of ``gates``, stacked in that order."""
    return np.concatenate([ad.value(cell[f"{kind}_{gate}"]) for gate in gates])


def _project(rows: np.ndarray, ws: list[np.ndarray], b: np.ndarray) -> np.ndarray:
    """rows @ W.T + b for the stacked gates of [M, D] ``rows``: one GEMM per gate."""
    width = ws[0].shape[0]
    proj = np.empty((rows.shape[0], b.size))
    for k, w in enumerate(ws):
        proj[:, k * width:(k + 1) * width] = rows @ w.T
    proj += b
    return proj


def _input_steps(x, cell: Mapping, gates: tuple[str, ...]):
    """x_t @ W.T + b of every step t of a [B, T, D] input, as [B, G*H]
    arrays in time order.

    When the window and step strides of ``x`` are equal (the overlapping
    windows of one movie that prediction reads as a strided view), window
    i at step t is row i + t of one [B+T-1, D] table, so that table is
    projected once and step t reads rows t .. t+B-1. Any other input is
    projected a block of steps at a time, one [B*c, D] GEMM per gate, with
    c steps of input (all T when D is small) fitting in ``_BLOCK_BYTES``,
    so a training batch at the wide feature widths (D ~ 2000) never holds
    a stacked copy of W or the whole [B*T, G*H] projection.
    """
    vx = ad.value(x)
    ws = [ad.value(cell[f"W_{gate}"]) for gate in gates]
    if vx.ndim != 3 or vx.shape[2] != ws[0].shape[1]:
        raise DimensionError(f"sequence input {vx.shape} incompatible with "
                             f"gate weights {ws[0].shape}")
    batch, steps, dim = vx.shape
    b = _stack(cell, "b", gates)
    if vx.strides[0] == vx.strides[1]:
        table = np.lib.stride_tricks.as_strided(
            vx, (batch + steps - 1, dim), (vx.strides[0], vx.strides[2]), writeable=False)
        proj = _project(table, ws, b)
        return (proj[t:t + batch] for t in range(steps))
    block = max(1, _BLOCK_BYTES // (8 * batch * dim))

    def blocks():
        for t0 in range(0, steps, block):
            proj = _project(vx[:, t0:t0 + block].reshape(-1, dim), ws, b)
            yield from proj.reshape(batch, -1, b.size).transpose(1, 0, 2)

    return blocks()


def _rows(seq: np.ndarray) -> np.ndarray:
    """A [T, B, F] array as [B*T, F] rows in window order."""
    return seq.transpose(1, 0, 2).reshape(-1, seq.shape[2])


def _input_grads(d_pre: np.ndarray, x, cell: Mapping,
                 gates: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Gradients of the stacked W and b, and of ``x`` when it is a Var, from
    the [B, T, G*H] pre-activation gradients: one GEMM each over B*T rows."""
    rows = d_pre.reshape(-1, d_pre.shape[2])
    vx = ad.value(x)
    grads = {"W": rows.T @ vx.reshape(rows.shape[0], -1), "b": rows.sum(axis=0)}
    if isinstance(x, ad.Var):
        grads["x"] = (rows @ _stack(cell, "W", gates)).reshape(vx.shape)
    return grads


def _sequence_node(out: np.ndarray, x, cell: Mapping, gates: tuple[str, ...], bptt):
    """The op's result: one node over ``x`` and every gate parameter.

    ``bptt(g)`` returns the stacked gradients ``"W"``, ``"U"``, ``"b"`` (and
    ``"x"`` when ``x`` is a Var). The first grad_fn that ``backward`` calls
    runs it; each grad_fn then reads its gate's rows of the result.
    """
    width = ad.value(cell[f"U_{gates[0]}"]).shape[1]
    memo: dict[str, np.ndarray] = {}

    def grad_fn(kind: str, k: int | None = None):
        def fn(g):
            if not memo:
                memo.update(bptt(g))
            grad = memo[kind]
            return grad if k is None else grad[k * width:(k + 1) * width]
        return fn

    return ad._node(out, (x, grad_fn("x")),
                    *((cell[f"{kind}_{gate}"], grad_fn(kind, k))
                      for k, gate in enumerate(gates) for kind in ("W", "U", "b")))


def _tracks_grad(x, cell: Mapping) -> bool:
    return any(isinstance(v, ad.Var) for v in (x, *cell.values()))


def gru_sequence(x, cell: Mapping):
    """GRU states [B, T, H] over a [B, T, D] input from a zero initial
    state, as one node; ``cell`` maps ``W_z`` ... ``b_h`` to the layer's
    parameters."""
    u = _stack(cell, "U", GRU_GATES)
    inputs = _input_steps(x, cell, GRU_GATES)
    batch, steps = ad.value(x).shape[:2]
    width = u.shape[1]
    u_zr, u_h = u[:2 * width], u[2 * width:]
    keep = _tracks_grad(x, cell)
    hs = np.zeros((steps + 1, batch, width))
    acts = np.empty((steps, batch, 3 * width)) if keep else None  # z, r, hc
    for t, xw in enumerate(inputs):
        h = hs[t]
        zr = ad.sigmoid(xw[:, :2 * width] + h @ u_zr.T)
        z, r = zr[:, :width], zr[:, width:]
        hc = np.tanh(xw[:, 2 * width:] + (r * h) @ u_h.T)
        hs[t + 1] = (1.0 - z) * h + z * hc
        if keep:
            acts[t, :, :2 * width] = zr
            acts[t, :, 2 * width:] = hc

    def bptt(g):
        d_pre = np.empty((batch, steps, 3 * width))
        dh = np.zeros((batch, width))
        for t in reversed(range(steps)):
            h = hs[t]
            z, r, hc = (acts[t, :, k * width:(k + 1) * width] for k in range(3))
            dh = dh + g[:, t]
            d = d_pre[:, t]
            d[:, 2 * width:] = dh * z * (1.0 - hc * hc)
            d_rh = d[:, 2 * width:] @ u_h
            d[:, :width] = dh * (hc - h) * z * (1.0 - z)
            d[:, width:2 * width] = d_rh * h * r * (1.0 - r)
            dh = dh * (1.0 - z) + d_rh * r + d[:, :2 * width] @ u_zr
        grads = _input_grads(d_pre, x, cell, GRU_GATES)
        rows = d_pre.reshape(-1, 3 * width)
        prev = _rows(hs[:-1])
        gated = _rows(acts[:, :, width:2 * width] * hs[:-1])
        grads["U"] = np.concatenate([rows[:, :2 * width].T @ prev,
                                     rows[:, 2 * width:].T @ gated])
        return grads

    return _sequence_node(hs[1:].transpose(1, 0, 2), x, cell, GRU_GATES, bptt)


# The LSTM stacks its sigmoid gates first so one sigmoid covers them.
_LSTM_STACK = ("i", "f", "o", "g")


def lstm_sequence(x, cell: Mapping):
    """LSTM states h [B, T, H] over a [B, T, D] input from zero initial
    states, as one node; ``cell`` maps ``W_i`` ... ``b_o`` to the layer's
    parameters."""
    u = _stack(cell, "U", _LSTM_STACK)
    inputs = _input_steps(x, cell, _LSTM_STACK)
    batch, steps = ad.value(x).shape[:2]
    width = u.shape[1]
    keep = _tracks_grad(x, cell)
    hs = np.zeros((steps + 1, batch, width))
    cs = np.zeros((steps + 1, batch, width)) if keep else None
    acts = np.empty((steps, batch, 4 * width)) if keep else None  # i, f, o, g
    c = np.zeros((batch, width))
    for t, xw in enumerate(inputs):
        pre = xw + hs[t] @ u.T
        ifo = ad.sigmoid(pre[:, :3 * width])
        g = np.tanh(pre[:, 3 * width:])
        c = ifo[:, width:2 * width] * c + ifo[:, :width] * g
        hs[t + 1] = ifo[:, 2 * width:] * np.tanh(c)
        if keep:
            acts[t, :, :3 * width] = ifo
            acts[t, :, 3 * width:] = g
            cs[t + 1] = c

    def bptt(grad):
        d_pre = np.empty((batch, steps, 4 * width))
        dh = np.zeros((batch, width))
        dc = np.zeros((batch, width))
        for t in reversed(range(steps)):
            i, f, o, g = (acts[t, :, k * width:(k + 1) * width] for k in range(4))
            tc = np.tanh(cs[t + 1])
            dh = dh + grad[:, t]
            dc = dc + dh * o * (1.0 - tc * tc)
            d = d_pre[:, t]
            d[:, :width] = dc * g * i * (1.0 - i)
            d[:, width:2 * width] = dc * cs[t] * f * (1.0 - f)
            d[:, 2 * width:3 * width] = dh * tc * o * (1.0 - o)
            d[:, 3 * width:] = dc * i * (1.0 - g * g)
            dc = dc * f
            dh = d @ u
        grads = _input_grads(d_pre, x, cell, _LSTM_STACK)
        grads["U"] = d_pre.reshape(-1, 4 * width).T @ _rows(hs[:-1])
        return grads

    return _sequence_node(hs[1:].transpose(1, 0, 2), x, cell, _LSTM_STACK, bptt)


def encode_batch_graph(seqs: np.ndarray, config: EncoderConfig,
                       leaves: Mapping[str, ad.Var], prefix: str,
                       mode: str = "eval",
                       mask_rng: np.random.Generator | None = None):
    """Differentiable encoder over a [B, T, D] batch; returns the final h [B, H]."""
    seqs = np.asarray(seqs, dtype=np.float64)
    batch, steps, dim = seqs.shape
    if dim != config.input_dim:
        raise DimensionError(f"batch windows of width {dim} do not match encoder "
                             f"input_dim {config.input_dim}")
    train = mode == "train"
    if train and config.dropout_rate > 0.0 and mask_rng is None:
        raise ConfigError("train-mode dropout needs a generator")

    gates = GRU_GATES if config.cell_kind == "gru" else LSTM_GATES
    sequence = gru_sequence if config.cell_kind == "gru" else lstm_sequence
    states = seqs
    for layer in range(config.num_layers):
        if train and config.dropout_rate > 0.0:
            # One [T, B, D] draw gives the values of T successive [B, D] draws.
            draw = mask_rng.random((steps, batch, config.layer_input_dim(layer)))
            mask = (draw >= config.dropout_rate) / (1.0 - config.dropout_rate)
            states = ad.mul(states, mask.transpose(1, 0, 2))
        cell = {f"{kind}_{gate}": leaves[f"{prefix}.l{layer}.{kind}_{gate}"]
                for gate in gates for kind in ("W", "U", "b")}
        states = sequence(states, cell)
    return ad.last_step(states)
