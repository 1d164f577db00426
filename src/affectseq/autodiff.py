"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Var`` wraps a float64 ndarray. Operations build a DAG; ``backward``
walks it once in reverse topological order and accumulates gradients into
the leaves' ``Var.grad``. Plain ndarrays or scalars passed to any op are
constants and get no gradient path, which keeps feature windows and
dropout masks out of the bookkeeping. An op whose inputs are all
constants returns a plain float64 ndarray, not a ``Var``: the same model
code run over parameter arrays instead of leaf ``Var``s computes the
same values and builds no graph. ``value`` reads the array behind either
kind of result.

Graphs are built per forward pass and thrown away; call ``backward``
once per graph, from a scalar root. Elementwise ops follow numpy
broadcasting; matrix ops are restricted to the 2-D forms the models here
need. The graph serves only the fusion head and the loss, over leaf
``Var``s holding the encoder states (:mod:`affectseq.model`).

Each node holds its edges, an ``(input, grad_fn)`` pair per ``Var``
input, and ``backward`` has one rule for every edge: an input's first
share of a gradient is copied into its ``grad``, and later shares are
added with ``+=``, so a grad_fn may return the gradient it was given.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import numerics
from .errors import DimensionError

class Var:
    __slots__ = ("value", "grad", "edges")

    def __init__(self, value, edges: tuple = ()):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.edges = edges

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def value(x) -> np.ndarray:
    """The float64 array behind ``x``: a Var's value, or ``x`` as an array."""
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g if g.shape == shape else g.reshape(shape)


def _node(out, *inputs):
    """An op's result from its value and its (input, grad_fn) pairs.

    Only ``Var`` inputs are kept, as the node's edges; ``grad_fn`` maps the
    output's gradient to that input's share, which ``backward`` copies or
    adds (see the module docstring). With no ``Var`` input the result is
    ``out`` itself as a plain array: constants in, constant out, and no
    node is built.
    """
    edges = tuple((x, fn) for x, fn in inputs if isinstance(x, Var))
    return Var(out, edges) if edges else np.asarray(out, dtype=np.float64)


def _elementwise(a, b, out, da: Callable, db: Callable):
    return _node(out, (a, lambda g: _unbroadcast(da(g), a.value.shape)),
                 (b, lambda g: _unbroadcast(db(g), b.value.shape)))


def add(a, b):
    return _elementwise(a, b, value(a) + value(b), lambda g: g, lambda g: g)


def sub(a, b):
    return _elementwise(a, b, value(a) - value(b), lambda g: g, lambda g: -g)


def mul(a, b):
    va, vb = value(a), value(b)
    return _elementwise(a, b, va * vb, lambda g: g * vb, lambda g: g * va)


def scale_shift(x, a: float = 1.0, b: float = 0.0):
    """a * x + b with python-scalar a, b."""
    return _node(a * value(x) + b, (x, lambda g: a * g))


def linear(x, w, b=None):
    """x @ w.T (+ b): x is [B, D], w is [H, D], b is [H]."""
    vx, vw = value(x), value(w)
    if vx.ndim != 2 or vw.ndim != 2 or vx.shape[1] != vw.shape[1]:
        raise DimensionError(f"linear: x {vx.shape} incompatible with w {vw.shape}")
    out = vx @ vw.T
    if b is not None:
        vb = value(b)
        if vb.shape != (vw.shape[0],):
            raise DimensionError(f"linear: bias {vb.shape} incompatible with w {vw.shape}")
        out = out + vb
    return _node(out, (x, lambda g: g @ vw), (w, lambda g: g.T @ vx),
                 (b, lambda g: g.sum(axis=0)))


def sigmoid(x):
    """:func:`affectseq.numerics.sigmoid`, with its gradient."""
    out = numerics.sigmoid(value(x))
    return _node(out, (x, lambda g: g * out * (1.0 - out)))


def safe_log(x, floor: float = 1e-12):
    """log(max(x, floor)); gradient is zero where the floor is active."""
    vx = value(x)
    clipped = np.maximum(vx, floor)
    return _node(np.log(clipped), (x, lambda g: np.where(vx > floor, g / clipped, 0.0)))


def rsqrt_shift(x, eps: float):
    """1 / sqrt(x + eps)."""
    vx = value(x)
    out = 1.0 / np.sqrt(vx + eps)
    return _node(out, (x, lambda g: -0.5 * g * out / (vx + eps)))


def mean_axis0(x):
    """Column means of a [B, F] matrix, kept as [1, F]."""
    vx = value(x)
    if vx.ndim != 2:
        raise DimensionError(f"mean_axis0 expects a matrix, got shape {vx.shape}")
    return _node(vx.mean(axis=0, keepdims=True),
                 (x, lambda g: np.broadcast_to(g / vx.shape[0], vx.shape)))


def sum_axis1(x):
    """Row sums of a [B, F] matrix, kept as [B, 1]."""
    vx = value(x)
    if vx.ndim != 2:
        raise DimensionError(f"sum_axis1 expects a matrix, got shape {vx.shape}")
    return _node(vx.sum(axis=1, keepdims=True), (x, lambda g: np.broadcast_to(g, vx.shape)))


def softmax_rows(x):
    """Row-wise softmax of a [B, K] matrix, max-subtracted for stability."""
    vx = value(x)
    e = np.exp(vx - vx.max(axis=1, keepdims=True))
    out = e / e.sum(axis=1, keepdims=True)
    return _node(out, (x, lambda g: out * (g - (g * out).sum(axis=1, keepdims=True))))


def concat_cols(parts: Sequence):
    """Concatenate [B, F_i] blocks along columns."""
    values = [value(p) for p in parts]
    rows = {v.shape[0] for v in values}
    if any(v.ndim != 2 for v in values) or len(rows) != 1:
        raise DimensionError("concat_cols expects matrices with a common row count")
    bounds = np.cumsum([0] + [v.shape[1] for v in values])
    return _node(np.concatenate(values, axis=1),
                 *((p, lambda g, lo=lo, hi=hi: g[:, lo:hi])
                   for p, lo, hi in zip(parts, bounds[:-1], bounds[1:])))


def sum_all(x):
    vx = value(x)
    return _node(np.asarray(vx.sum()), (x, lambda g: np.broadcast_to(g, vx.shape)))


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
        stack.extend((parent, False) for parent, _ in node.edges)
    return order


def backward(root: Var) -> None:
    """Accumulate d(root)/d(leaf) into the ``grad`` of every reachable leaf
    (a Var built from a value alone, such as a parameter); ``root`` must
    be a scalar.

    Each edge's share is copied into its input's ``grad`` if it is the
    first, and added with ``+=`` if not. An interior node's ``grad`` is
    dropped, set back to None, once its edges have passed it on, so the
    gradients of a deep graph are not all alive at once. Call once per graph.
    """
    if not isinstance(root, Var):
        raise DimensionError("backward root has no graph: it was built only from constants")
    if root.value.size != 1:
        raise DimensionError(f"backward needs a scalar root, got shape {root.value.shape}")
    root.grad = np.ones_like(root.value)
    for node in reversed(_topo_order(root)):
        if not node.edges:
            continue
        for x, grad_fn in node.edges:
            share = grad_fn(node.grad)
            if x.grad is None:
                x.grad = np.array(share, dtype=np.float64)
            else:
                x.grad += share
        node.grad = None
