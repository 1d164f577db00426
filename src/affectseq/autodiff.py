"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Var`` wraps a float64 ndarray. Operations build a DAG; ``backward``
walks it once in reverse topological order and accumulates gradients into
``Var.grad``. Plain ndarrays or scalars passed to any op are treated as
constants and get no gradient path, which keeps feature windows and
dropout masks out of the bookkeeping.

Graphs are built per forward pass and thrown away; call ``backward`` at
most once per graph. Elementwise ops follow numpy broadcasting; matrix
ops are restricted to the 2-D forms the models here need.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError

ArrayLike = "np.ndarray | float | Var"


class Var:
    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(self, value, parents: tuple = (), backward: Callable | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def _val(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _accum(var: Var, g: np.ndarray) -> None:
    if var.grad is None:
        var.grad = np.zeros_like(var.value)
    var.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _elementwise(a, b, out_value, da: Callable, db: Callable) -> Var:
    parents, backs = [], []
    if isinstance(a, Var):
        parents.append(a)
        backs.append((a, da))
    if isinstance(b, Var):
        parents.append(b)
        backs.append((b, db))

    def backward(g):
        for var, fn in backs:
            _accum(var, _unbroadcast(fn(g), var.value.shape))

    return Var(out_value, tuple(parents), backward)


def add(a, b) -> Var:
    va, vb = _val(a), _val(b)
    return _elementwise(a, b, va + vb, lambda g: g, lambda g: g)


def sub(a, b) -> Var:
    va, vb = _val(a), _val(b)
    return _elementwise(a, b, va - vb, lambda g: g, lambda g: -g)


def mul(a, b) -> Var:
    va, vb = _val(a), _val(b)
    return _elementwise(a, b, va * vb, lambda g: g * vb, lambda g: g * va)


def scale_shift(x, a: float = 1.0, b: float = 0.0) -> Var:
    """a * x + b with python-scalar a, b."""
    vx = _val(x)
    if not isinstance(x, Var):
        return Var(a * vx + b)

    def backward(g):
        _accum(x, a * g)

    return Var(a * vx + b, (x,), backward)


def linear(x, w, b=None) -> Var:
    """x @ w.T (+ b): x is [B, D], w is [H, D], b is [H]."""
    vx, vw = _val(x), _val(w)
    if vx.ndim != 2 or vw.ndim != 2 or vx.shape[1] != vw.shape[1]:
        raise DimensionError(f"linear: x {vx.shape} incompatible with w {vw.shape}")
    out = vx @ vw.T
    if b is not None:
        vb = _val(b)
        if vb.shape != (vw.shape[0],):
            raise DimensionError(f"linear: bias {vb.shape} incompatible with w {vw.shape}")
        out = out + vb

    def backward(g):
        if isinstance(x, Var):
            _accum(x, g @ vw)
        if isinstance(w, Var):
            _accum(w, g.T @ vx)
        if b is not None and isinstance(b, Var):
            _accum(b, g.sum(axis=0))

    parents = tuple(v for v in (x, w, b) if isinstance(v, Var))
    return Var(out, parents, backward)


def sigmoid(x) -> Var:
    vx = _val(x)
    out = np.empty_like(vx)
    pos = vx >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-vx[pos]))
    ex = np.exp(vx[~pos])
    out[~pos] = ex / (1.0 + ex)
    if not isinstance(x, Var):
        return Var(out)

    def backward(g):
        _accum(x, g * out * (1.0 - out))

    return Var(out, (x,), backward)


def tanh(x) -> Var:
    vx = _val(x)
    out = np.tanh(vx)
    if not isinstance(x, Var):
        return Var(out)

    def backward(g):
        _accum(x, g * (1.0 - out * out))

    return Var(out, (x,), backward)


def safe_log(x, floor: float = 1e-12) -> Var:
    """log(max(x, floor)); gradient is zero where the floor is active."""
    vx = _val(x)
    clipped = np.maximum(vx, floor)
    out = np.log(clipped)
    if not isinstance(x, Var):
        return Var(out)

    def backward(g):
        _accum(x, np.where(vx > floor, g / clipped, 0.0))

    return Var(out, (x,), backward)


def rsqrt_shift(x, eps: float) -> Var:
    """1 / sqrt(x + eps)."""
    vx = _val(x)
    out = 1.0 / np.sqrt(vx + eps)
    if not isinstance(x, Var):
        return Var(out)

    def backward(g):
        _accum(x, -0.5 * g * out / (vx + eps))

    return Var(out, (x,), backward)


def mean_axis0(x) -> Var:
    """Column means of a [B, F] matrix, kept as [1, F]."""
    vx = _val(x)
    if vx.ndim != 2:
        raise DimensionError(f"mean_axis0 expects a matrix, got shape {vx.shape}")
    out = vx.mean(axis=0, keepdims=True)
    if not isinstance(x, Var):
        return Var(out)

    def backward(g):
        _accum(x, np.broadcast_to(g / vx.shape[0], vx.shape).copy())

    return Var(out, (x,), backward)


def sum_axis1(x) -> Var:
    """Row sums of a [B, F] matrix, kept as [B, 1]."""
    vx = _val(x)
    if vx.ndim != 2:
        raise DimensionError(f"sum_axis1 expects a matrix, got shape {vx.shape}")
    out = vx.sum(axis=1, keepdims=True)
    if not isinstance(x, Var):
        return Var(out)

    def backward(g):
        _accum(x, np.broadcast_to(g, vx.shape).copy())

    return Var(out, (x,), backward)


def softmax_rows(x) -> Var:
    """Row-wise softmax of a [B, K] matrix, max-subtracted for stability."""
    vx = _val(x)
    shifted = vx - vx.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    if not isinstance(x, Var):
        return Var(out)

    def backward(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        _accum(x, out * (g - dot))

    return Var(out, (x,), backward)


def concat_cols(parts: Sequence) -> Var:
    """Concatenate [B, F_i] blocks along columns."""
    values = [_val(p) for p in parts]
    rows = {v.shape[0] for v in values}
    if any(v.ndim != 2 for v in values) or len(rows) != 1:
        raise DimensionError("concat_cols expects matrices with a common row count")
    out = np.concatenate(values, axis=1)
    widths = [v.shape[1] for v in values]

    def backward(g):
        offset = 0
        for part, width in zip(parts, widths):
            if isinstance(part, Var):
                _accum(part, g[:, offset:offset + width])
            offset += width

    parents = tuple(p for p in parts if isinstance(p, Var))
    return Var(out, parents, backward)


def sum_all(x) -> Var:
    vx = _val(x)
    out = np.asarray(vx.sum())
    if not isinstance(x, Var):
        return Var(out)

    def backward(g):
        _accum(x, np.broadcast_to(g, vx.shape).copy())

    return Var(out, (x,), backward)


def sum_squares(x) -> Var:
    """Scalar sum of squared entries (for weight penalties)."""
    vx = _val(x)
    out = np.asarray((vx * vx).sum())
    if not isinstance(x, Var):
        return Var(out)

    def backward(g):
        _accum(x, 2.0 * g * vx)

    return Var(out, (x,), backward)


def _topo_order(root: Var) -> list[Var]:
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    return order


def backward(root: Var) -> None:
    """Accumulate d(root)/d(leaf) into every reachable Var's ``grad``.

    ``root`` must be scalar. Call once per graph; a second call would add
    the same gradients again.
    """
    if root.value.size != 1:
        raise DimensionError(f"backward needs a scalar root, got shape {root.value.shape}")
    root.grad = np.ones_like(root.value)
    for node in reversed(_topo_order(root)):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
