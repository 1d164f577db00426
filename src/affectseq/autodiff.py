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
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import numerics
from .errors import DimensionError

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


def value(x) -> np.ndarray:
    """The float64 array behind ``x``: a Var's value, or ``x`` as an array."""
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _accum(var: Var, g: np.ndarray, shared: bool) -> None:
    """Add ``g``, a grad_fn's result, to ``var.grad``.

    Later terms are added to the first in place, so a first ``g`` that
    someone else may hold is copied: one marked ``shared`` (see
    :func:`_node`) or a view (a slice of ``concat_cols``). A new array
    that only this call holds, such as ``mul``'s ``g * b``, is taken as
    it is.
    """
    if var.grad is not None:
        var.grad += g
    elif shared or not isinstance(g, np.ndarray) or g.base is not None:
        var.grad = np.array(g, dtype=np.float64)
    else:
        var.grad = g


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

    Only ``Var`` inputs are kept; ``grad_fn`` maps the output's gradient
    to that input's. It returns the gradient it was given, a view, or a
    new array that it keeps no reference to (see :func:`_accum`). The
    output's gradient belongs to the node alone, which drops it once the
    grad_fns have run, so the last input's grad_fn may also overwrite it
    in place, and the last input takes it over without a copy; the other
    inputs get copies. With no ``Var`` input the result is ``out`` itself
    as a plain array: constants in, constant out, and no node is built.
    """
    edges = tuple((x, fn) for x, fn in inputs if isinstance(x, Var))
    if not edges:
        return np.asarray(out, dtype=np.float64)

    def backward(g):
        for i, (x, fn) in enumerate(edges, 1):
            grad = fn(g)
            _accum(x, grad, grad is g and i < len(edges))

    return Var(out, tuple(x for x, _ in edges), backward)


def _elementwise(a, b, out, da: Callable, db: Callable):
    return _node(out, (a, lambda g: _unbroadcast(da(g), a.value.shape)),
                 (b, lambda g: _unbroadcast(db(g), b.value.shape)))


def add(a, b):
    return _elementwise(a, b, value(a) + value(b), lambda g: g, lambda g: g)


def sub(a, b):
    return _elementwise(a, b, value(a) - value(b), lambda g: g, lambda g: -g)


def mul(a, b):
    # b's grad_fn, and a's when b is a constant, belongs to the node's last
    # input and scales the node's own gradient in place (see _node): a
    # dropout mask's product then takes no second array in backward.
    va, vb = value(a), value(b)
    da = (lambda g: g * vb) if isinstance(b, Var) else (lambda g: np.multiply(g, vb, out=g))
    return _elementwise(a, b, va * vb, da, lambda g: np.multiply(g, va, out=g))


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
                 (x, lambda g: np.broadcast_to(g / vx.shape[0], vx.shape).copy()))


def sum_axis1(x):
    """Row sums of a [B, F] matrix, kept as [B, 1]."""
    vx = value(x)
    if vx.ndim != 2:
        raise DimensionError(f"sum_axis1 expects a matrix, got shape {vx.shape}")
    return _node(vx.sum(axis=1, keepdims=True),
                 (x, lambda g: np.broadcast_to(g, vx.shape).copy()))


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
    return _node(np.asarray(vx.sum()), (x, lambda g: np.broadcast_to(g, vx.shape).copy()))


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
    """Accumulate d(root)/d(leaf) into the ``grad`` of every reachable leaf
    (a Var built from a value alone, such as a parameter); ``root`` must
    be a scalar.

    An interior node's ``grad`` is dropped, set back to None, as soon as
    its ``_backward`` has passed it on, so the gradients of a deep graph
    are not all alive at once. Call once per graph.
    """
    if not isinstance(root, Var):
        raise DimensionError("backward root has no graph: it was built only from constants")
    if root.value.size != 1:
        raise DimensionError(f"backward needs a scalar root, got shape {root.value.shape}")
    root.grad = np.ones_like(root.value)
    for node in reversed(_topo_order(root)):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None
