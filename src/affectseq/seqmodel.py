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
an inference pass (no generator) skips it; a rate of 0 turns it off.
The window length T is a model setting (:class:`affectseq.model.ModelConfig`),
not an encoder one: an encoder unrolls whatever T its batch has.

Each layer is one fused op, ``gru_sequence`` or ``lstm_sequence``, over
the whole window, after Appleyard et al. (arXiv:1604.01946). The
per-gate U and b are stacked per call, so each step does a single
h @ U.T for all gates. A copied [B, T, D] input is projected inside the
recurrence, one [B, D] GEMM per gate on step t's rows, so an op never
holds more than one step's projection. In prediction the windows of a
movie overlap, each one second after the last, and arrive as a strided
view of the movie's rows; the first layer then projects each distinct
row once, B+T-1 rows for B windows instead of B*T, and every step reads
its B rows of that one table. An encoder's top layer runs with
``last_only``: it outputs only the final state [B, H] and takes a
[B, H] gradient, while the layer below outputs every step's state.

The encoders take plain arrays and stay off the head's chain
(:mod:`affectseq.autodiff`). Their backward pass is hand-written
backpropagation through time, returned as a closure: with ``keep`` an
op returns its states and ``bptt``, and ``encode_batch_graph`` its
final state and ``backward``, which maps that state's gradient to
``{parameter name: gradient}``, layer by layer from the top down. An op
run with ``keep`` holds its state window-major,
[B, T, .] arrays whose flat row b*T + t is window b at step t (the row
order of the [B, T, D] input): the state before each step, the gate
activations, and the GRU's r * h or the LSTM's cell states. One reverse
loop over the steps writes each step's pre-activation gradients over
that step's activations, in place; then every weight gradient is one
GEMM over [B*T, .] views of those arrays. The parameters keep their
per-gate names (``<prefix>.l<layer>.W_z`` ... ``b_o``), the names every
``v2`` checkpoint records. Without ``keep``
(prediction) an op holds no per-step state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigError, DimensionError, DomainError
from .numerics import GLOROT, Layout, ParamStore, add_params, dropout_mask, sigmoid

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


def _stack(cell: Mapping, kind: str, gates: tuple[str, ...]) -> np.ndarray:
    """The ``kind`` ("W", "U" or "b") parameters of ``gates``, stacked in that order."""
    return np.concatenate([cell[f"{kind}_{gate}"] for gate in gates])


def _project(rows: np.ndarray, ws: list[np.ndarray], b: np.ndarray) -> np.ndarray:
    """rows @ W.T + b for the stacked gates of [M, D] ``rows``: one GEMM per gate."""
    width = ws[0].shape[0]
    proj = np.empty((rows.shape[0], b.size))
    for k, w in enumerate(ws):
        proj[:, k * width:(k + 1) * width] = rows @ w.T
    proj += b
    return proj


def _input_steps(x: np.ndarray, cell: Mapping, gates: tuple[str, ...]):
    """x_t @ W.T + b of every step t of a [B, T, D] input, as [B, G*H]
    arrays in time order.

    When the window and step strides of ``x`` are equal (the overlapping
    windows of one movie that prediction reads as a strided view), window
    i at step t is row i + t of one [B+T-1, D] table, so that table is
    projected once and step t reads rows t .. t+B-1. Any other input is
    projected as the recurrence reaches each step, one [B, D] GEMM per
    gate on that step's rows, so no batch holds its whole projection nor,
    at the wide feature widths (D ~ 2000), a stacked copy of W.
    """
    ws = [cell[f"W_{gate}"] for gate in gates]
    if x.ndim != 3 or x.shape[2] != ws[0].shape[1]:
        raise DimensionError(f"sequence input {x.shape} incompatible with "
                             f"gate weights {ws[0].shape}")
    batch, steps, dim = x.shape
    b = _stack(cell, "b", gates)
    if x.strides[0] == x.strides[1]:
        table = np.lib.stride_tricks.as_strided(
            x, (batch + steps - 1, dim), (x.strides[0], x.strides[2]), writeable=False)
        proj = _project(table, ws, b)
        return (proj[t:t + batch] for t in range(steps))
    return (_project(x[:, t], ws, b) for t in range(steps))


def _layer_grads(x: np.ndarray, cell: Mapping, gates: tuple[str, ...], rows: np.ndarray,
                 du: np.ndarray, want_x: bool):
    """A layer's ``{"W_<gate>": gradient, ...}`` and, if ``want_x``, the
    gradient of its [B, T, D] input ``x`` (else None), from the [B*T, G*H]
    pre-activation gradients ``rows`` and the stacked U gradient ``du``.
    The stacked W, b and ``x`` gradients are each one GEMM (or sum) over
    all B*T rows, and each gate's gradients are its rows of the stacks.
    """
    width = du.shape[1]
    stacked = {"W": rows.T @ x.reshape(rows.shape[0], -1), "U": du, "b": rows.sum(axis=0)}
    grads = {f"{kind}_{gate}": grad[k * width:(k + 1) * width]
             for kind, grad in stacked.items() for k, gate in enumerate(gates)}
    return grads, (rows @ _stack(cell, "W", gates)).reshape(x.shape) if want_x else None


def gru_sequence(x: np.ndarray, cell: Mapping, last_only: bool = False, keep: bool = False):
    """GRU states [B, T, H] over a [B, T, D] input from a zero initial
    state, or with ``last_only`` the final state [B, H] alone; ``cell``
    maps ``W_z`` ... ``b_h`` to the layer's parameters.

    With ``keep`` it returns ``(states, bptt)``: ``bptt(g, want_x)``, run
    once, maps the states' gradient ``g`` to the :func:`_layer_grads` of
    the layer.
    """
    u = _stack(cell, "U", GRU_GATES)
    inputs = _input_steps(x, cell, GRU_GATES)
    batch, steps = x.shape[:2]
    width = u.shape[1]
    u_zr, u_h = u[:2 * width], u[2 * width:]
    out = None if last_only else np.empty((batch, steps, width))
    if keep:
        prev = np.empty((batch, steps, width))  # the state before each step
        gated = np.empty((batch, steps, width))  # r * prev
        acts = np.empty((batch, steps, 3 * width))  # z, r, hc
    h = np.zeros((batch, width))
    for t, xw in enumerate(inputs):
        zr = sigmoid(xw[:, :2 * width] + h @ u_zr.T)
        z, r = zr[:, :width], zr[:, width:]
        rh = r * h
        hc = np.tanh(xw[:, 2 * width:] + rh @ u_h.T)
        if keep:
            prev[:, t], gated[:, t] = h, rh
            acts[:, t, :2 * width], acts[:, t, 2 * width:] = zr, hc
        h = (1.0 - z) * h + z * hc
        if out is not None:
            out[:, t] = h
    if not keep:
        return h if last_only else out

    def bptt(g, want_x):
        # Each step's pre-activation gradients overwrite its activations
        # once the step has read them.
        dh = g if last_only else np.zeros((batch, width))
        for t in reversed(range(steps)):
            h, a = prev[:, t], acts[:, t]
            z, r, hc = a[:, :width], a[:, width:2 * width], a[:, 2 * width:]
            if not last_only:
                dh = dh + g[:, t]
            d_z = dh * (hc - h) * z * (1.0 - z)
            carry = dh * (1.0 - z)
            hc[...] = dh * z * (1.0 - hc * hc)
            z[...] = d_z
            d_rh = a[:, 2 * width:] @ u_h
            carry += d_rh * r
            r[...] = d_rh * h * r * (1.0 - r)
            dh = carry + a[:, :2 * width] @ u_zr
        rows = acts.reshape(-1, 3 * width)
        du = np.concatenate([rows[:, :2 * width].T @ prev.reshape(-1, width),
                             rows[:, 2 * width:].T @ gated.reshape(-1, width)])
        return _layer_grads(x, cell, GRU_GATES, rows, du, want_x)

    return (h if last_only else out), bptt


# The LSTM stacks its sigmoid gates first so one sigmoid covers them.
_LSTM_STACK = ("i", "f", "o", "g")


def lstm_sequence(x: np.ndarray, cell: Mapping, last_only: bool = False, keep: bool = False):
    """LSTM states h [B, T, H] over a [B, T, D] input from zero initial
    states, or with ``last_only`` the final h [B, H] alone; ``cell`` maps
    ``W_i`` ... ``b_o`` to the layer's parameters. ``keep`` is
    :func:`gru_sequence`'s."""
    u = _stack(cell, "U", _LSTM_STACK)
    inputs = _input_steps(x, cell, _LSTM_STACK)
    batch, steps = x.shape[:2]
    width = u.shape[1]
    out = None if last_only else np.empty((batch, steps, width))
    if keep:
        prev = np.empty((batch, steps, width))  # h before each step
        cs = np.zeros((batch, steps + 1, width))  # c before each step, then the last c
        acts = np.empty((batch, steps, 4 * width))  # i, f, o, g
    h = c = np.zeros((batch, width))
    for t, xw in enumerate(inputs):
        pre = xw + h @ u.T
        ifo = sigmoid(pre[:, :3 * width])
        g = np.tanh(pre[:, 3 * width:])
        c = ifo[:, width:2 * width] * c + ifo[:, :width] * g
        if keep:
            prev[:, t], cs[:, t + 1] = h, c
            acts[:, t, :3 * width], acts[:, t, 3 * width:] = ifo, g
        h = ifo[:, 2 * width:] * np.tanh(c)
        if out is not None:
            out[:, t] = h
    if not keep:
        return h if last_only else out

    def bptt(grad, want_x):
        # Each step's pre-activation gradients overwrite its activations
        # once the step has read them.
        dh = grad if last_only else np.zeros((batch, width))
        dc = np.zeros((batch, width))
        for t in reversed(range(steps)):
            a = acts[:, t]
            i, f, o, g = (a[:, k * width:(k + 1) * width] for k in range(4))
            tc = np.tanh(cs[:, t + 1])
            if not last_only:
                dh = dh + grad[:, t]
            dc = dc + dh * o * (1.0 - tc * tc)
            d_i = dc * g * i * (1.0 - i)
            g[...] = dc * i * (1.0 - g * g)
            i[...] = d_i
            d_f = dc * cs[:, t] * f * (1.0 - f)
            dc = dc * f
            f[...] = d_f
            o[...] = dh * tc * o * (1.0 - o)
            dh = a @ u
        rows = acts.reshape(-1, 4 * width)
        return _layer_grads(x, cell, _LSTM_STACK, rows, rows.T @ prev.reshape(-1, width), want_x)

    return (h if last_only else out), bptt


def encode_batch_graph(seqs: np.ndarray, config: EncoderConfig,
                       params: Mapping[str, np.ndarray], prefix: str,
                       rng: np.random.Generator | None = None, keep: bool = False):
    """The final h [B, H] of the encoder under ``prefix`` over a [B, T, D]
    batch. Dropout draws each layer's input mask from ``rng``, and is the
    identity without one.

    With ``keep`` it returns ``(h, backward)``: ``backward(g)``, run once,
    maps h's gradient ``g`` to ``{parameter name: gradient}``, layer by
    layer from the top down.
    """
    seqs = np.asarray(seqs, dtype=np.float64)
    dim = seqs.shape[2]
    if dim != config.input_dim:
        raise DimensionError(f"batch windows of width {dim} do not match encoder "
                             f"input_dim {config.input_dim}")
    dropout = rng is not None and config.dropout_rate > 0.0

    gates = GRU_GATES if config.cell_kind == "gru" else LSTM_GATES
    sequence = gru_sequence if config.cell_kind == "gru" else lstm_sequence
    states = seqs
    kept = []  # (layer, the mask on its input or None, bptt), bottom up
    for layer in range(config.num_layers):
        mask = None
        if dropout:
            # one [T, B, D] draw gives the values of T successive [B, D] draws
            batch, steps, width = states.shape
            mask = dropout_mask(rng, (steps, batch, width),
                                config.dropout_rate).transpose(1, 0, 2)
            states = states * mask
            if not layer:  # the input gets no gradient, so its mask is not held
                mask = None
        cell = {f"{kind}_{gate}": params[f"{prefix}.l{layer}.{kind}_{gate}"]
                for gate in gates for kind in ("W", "U", "b")}
        states = sequence(states, cell, layer == config.num_layers - 1, keep)
        if keep:
            states, bptt = states
            kept.append((layer, mask, bptt))
    if not keep:
        return states

    def backward(g):
        grads = {}
        while kept:  # each layer's state is freed once its gradients are out
            layer, mask, bptt = kept.pop()
            cell_grads, g = bptt(g, layer > 0)
            grads.update((f"{prefix}.l{layer}.{key}", grad) for key, grad in cell_grads.items())
            if mask is not None:
                np.multiply(g, mask, out=g)
        return grads

    return states, backward
