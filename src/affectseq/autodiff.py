"""The chain that links the fusion head's layers and the loss for backward.

Each layer computes its output in plain numpy and writes its own
backward, ``grad_fn(g) -> (input gradient, {parameter name: gradient})``,
as the encoders do (:func:`affectseq.seqmodel.encode_batch_graph`).
:func:`layer` links that ``grad_fn`` to the layer's input when the input
is a ``Var``; over a plain array it returns the output array itself, so
the same code run over parameter arrays alone (prediction) builds no
chain. ``backward`` walks the chain from a scalar root down to its first
``Var``, running each ``grad_fn`` once.

A chain has no branches: a value that feeds several ops inside a layer
gets their gradient terms summed inside that layer's ``grad_fn``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DimensionError


class Var:
    __slots__ = ("value", "input", "grad_fn")

    def __init__(self, value, input: Var | None = None, grad_fn: Callable | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.input = input
        self.grad_fn = grad_fn

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def value(x) -> np.ndarray:
    """The float64 array behind ``x``: a Var's value, or ``x`` as an array."""
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def layer(x, out: np.ndarray, grad_fn: Callable):
    """A layer's output ``out`` over input ``x``: a ``Var`` linked to ``x``
    by ``grad_fn`` if ``x`` is a ``Var``, else ``out`` itself as a float64 array."""
    return Var(out, x, grad_fn) if isinstance(x, Var) else np.asarray(out, dtype=np.float64)


def backward(root: Var) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """``({parameter name: gradient}, gradient of the first Var)`` of the
    scalar ``root``: each layer's ``grad_fn`` runs once, from the root down,
    and their parameter gradients are merged."""
    if not isinstance(root, Var):
        raise DimensionError("backward root has no graph: it was built only from constants")
    if root.value.size != 1:
        raise DimensionError(f"backward needs a scalar root, got shape {root.value.shape}")
    grads: dict[str, np.ndarray] = {}
    g = np.ones_like(root.value)
    node = root
    while node.input is not None:
        g, named = node.grad_fn(g)
        grads.update(named)
        node = node.input
    return grads, g
