"""Training support: parameter storage and checkpoints, weight
initialization, the activations the layers share, dropout masks, the
loss record and the Adam optimizer.

A :class:`ParamStore` holds named values only: a loss returns its
gradients as a ``{name: gradient}`` dict, and :func:`adam_step` takes it.

A checkpoint (``affectseq-params v2``) is a text index of parameter names
and shapes followed by one raw little-endian float64 payload; it is the
one checkpoint format read or written. Loading reads the payload once,
straight into one array whose slices are the parameters, so the file is
never held in memory beside its values; saving writes each parameter's
own memory. The file goes through :mod:`affectseq.files`'s one opener
and one writer, and only its text part is decoded.

All math is double precision. Every layer backpropagates by hand, in
:mod:`affectseq.seqmodel`, :mod:`affectseq.fusion` and
:mod:`affectseq.model`; nothing here computes a layer.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from .errors import ConfigError, DataError, DimensionError, DomainError, NumericError
from .files import decode_text, open_input, shown, write_file

CHECKPOINT_HEADER = "affectseq-params v2"


def glorot_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Uniform init in [-s, s] with s = sqrt(6 / (fan_in + fan_out))."""
    if len(shape) == 2:
        fan_out, fan_in = shape
    else:
        fan_in = fan_out = shape[0]
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape)


GLOROT = "glorot"
# (name, shape, fill) of each parameter a module adds, in draw order
Layout = list[tuple[str, tuple[int, ...], object]]


def add_params(store: ParamStore, layout: Layout, rng: np.random.Generator) -> None:
    """Add each ``(name, shape, fill)`` of ``layout`` in order: a ``GLOROT``
    fill draws from ``rng`` with :func:`glorot_uniform`, a number fills
    the tensor with itself."""
    for name, shape, fill in layout:
        store.add(name, glorot_uniform(shape, rng) if fill == GLOROT
                  else np.full(shape, float(fill)))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """0.5 * (1 + tanh(x / 2)): no overflow and no branches. It differs from
    1 / (1 + exp(-x)) by at most one float64 epsilon, which in the far
    negative tail, where values fall below 1e-9, is a large relative error."""
    out = np.tanh(0.5 * x)
    out += 1.0
    out *= 0.5
    return out


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a [B, K] matrix, max-subtracted for stability."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def dropout_mask(rng: np.random.Generator, shape: tuple[int, ...], rate: float) -> np.ndarray:
    """An inverted-dropout mask of ``shape``: 0 where a uniform draw falls
    below ``rate``, else 1 / (1 - rate), built in the draw's own buffer."""
    mask = rng.random(shape)
    np.greater_equal(mask, rate, out=mask)
    mask /= 1.0 - rate
    return mask


class ParamStore:
    """Named float64 tensors, and nothing else.

    Names are unique; arrays are C-contiguous. Values change only on the
    thread that runs the training loop, in Adam steps and when an epoch
    sets the batch-norm running statistics; forward passes and the
    encoder threads of :mod:`affectseq.model` only read them. Snapshots
    for read-only use come from :meth:`copy`.
    """

    def __init__(self):
        self._values: dict[str, np.ndarray] = {}

    def add(self, name: str, value) -> np.ndarray:
        """Store a C-contiguous float64 copy of ``value`` under ``name``."""
        self._check_new_name(name)
        arr = np.array(value, dtype=np.float64, order="C")
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"parameter {name} initialized with non-finite values")
        self._values[name] = arr
        return arr

    def _check_new_name(self, name: str) -> None:
        if name in self._values:
            raise ConfigError(f"duplicate parameter name: {name}")
        # str.split() also splits on every line break str.splitlines() knows,
        # and a lone surrogate does not survive the round trip through UTF-8
        if name.split() != [name] or name.encode("utf-8", "replace").decode() != name:
            raise ConfigError(f"parameter names must be non-empty UTF-8 text without "
                              f"whitespace or line breaks: {name!r}")

    def names(self) -> list[str]:
        return sorted(self._values)

    def value(self, name: str) -> np.ndarray:
        return self._values[name]

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        for name in self.names():
            yield name, self._values[name]

    def copy(self) -> "ParamStore":
        dup = ParamStore()
        for name, v in self._values.items():
            dup.add(name, v)
        return dup

    def save(self, path) -> None:
        """Write an ``affectseq-params v2`` checkpoint: the header line, one
        ``<name> <dims>`` index line per parameter in name order, a blank
        line, then every value as raw little-endian float64, in index order
        and C order, each written from the parameter's own memory. The bytes
        depend only on names, shapes and values."""
        names = self.names()
        index = [CHECKPOINT_HEADER]
        for name in names:
            dims = ",".join(str(d) for d in self._values[name].shape) or "-"
            index.append(f"{name} {dims}")
        payload = (memoryview(self._values[name].astype("<f8", copy=False)) for name in names)
        write_file(path, itertools.chain(["\n".join(index) + "\n\n"], payload))

    @classmethod
    def load(cls, path) -> "ParamStore":
        """Read an ``affectseq-params v2`` checkpoint: decode only the index,
        then read the payload once, straight into one aligned ``<f8`` array
        that the store owns; each parameter is a C-contiguous, writable view
        of its own slice of it. The payload's length comes from the file's
        size and is checked before the array is allocated. Every fault is a
        :class:`DataError` naming the file, and the line of the record at
        fault; a file with another first line is refused, ``v1`` checkpoints
        included.
        """
        source = shown(path)
        with open_input(path) as file:
            index = [file.readline()]
            if index[0] != CHECKPOINT_HEADER.encode() + b"\n":
                raise DataError(f"{source}: missing checkpoint header {CHECKPOINT_HEADER!r} "
                                f"(affectseq-params v1 checkpoints are retired)")
            while (line := file.readline()) != b"\n":
                if not line:
                    raise DataError(f"{source}: no blank line ends the checkpoint index")
                index.append(line)
            text = decode_text(path, b"".join(index))
            records = []
            total = 0
            for lineno, line in enumerate(text.split("\n")[1:-1], start=2):
                where = f"{source}:{lineno}"
                fields = line.split(" ")
                if len(fields) != 2:
                    raise DataError(f"{where}: malformed index line {line!r}")
                shape, count = _shape(where, fields[1])
                records.append((where, fields[0], shape, total, total + count))
                total += count
            size = os.fstat(file.fileno()).st_size - file.tell()
            if size != 8 * total:
                # a short payload is blamed on the first record it cannot hold
                where = next((where for where, *_, stop in records if 8 * stop > size), source)
                raise DataError(f"{where}: payload has {size} bytes, expected {8 * total}")
            flat = np.empty(total, dtype="<f8")
            got = file.readinto(flat)
            if got != size:
                raise DataError(f"{source}: short read: the payload ended after {got} of "
                                f"{size} bytes (the file changed while it was read)")
        store = cls()
        for where, name, shape, start, stop in records:
            values = flat[start:stop]
            if not np.all(np.isfinite(values)):
                raise DataError(f"{where}: parameter {name} has non-finite values")
            try:
                values = values.reshape(shape)
                store._check_new_name(name)
            except ValueError as exc:  # reshape: past numpy's size or dims limit, even if empty
                raise DataError(f"{where}: bad shape {shape} ({exc})") from None
            except ConfigError as exc:
                raise DataError(f"{where}: {exc}") from None
            store._values[name] = values
        return store


def _shape(where: str, dims: str) -> tuple[tuple[int, ...], int]:
    """Shape and value count of a dims token: ``-`` (0-d) or comma-joined
    plain ASCII digits. The count is a Python int, so it cannot wrap."""
    if dims == "-":
        return (), 1
    parts = dims.split(",")
    try:
        if not all(p.isascii() and p.isdigit() for p in parts):
            raise ValueError(dims)
        shape = tuple(int(p) for p in parts)  # int() refuses past its digit limit
    except ValueError:
        raise DataError(f"{where}: bad shape {dims!r}") from None
    return shape, math.prod(shape)


@dataclass
class LossValue:
    """Cross-entropy part, L2 penalty, and the regularization weight; under
    train-mode batch norm also the fusion input's [mean, unbiased var]."""

    loss: float
    l2_penalty: float
    lambda_l2: float
    batch_moments: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.total):
            raise NumericError(f"non-finite loss: {self.loss} + {self.lambda_l2} * {self.l2_penalty}")
        if self.l2_penalty < 0 or self.lambda_l2 < 0:
            raise DomainError("l2 penalty and weight must be non-negative")

    @property
    def total(self) -> float:
        return self.loss + self.lambda_l2 * self.l2_penalty


@dataclass
class AdamState:
    """Per-parameter first/second moments and the shared step counter."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, store: ParamStore, **hyper) -> "AdamState":
        """Zero moments for every parameter; ``hyper`` overrides the defaults."""
        state = cls(**hyper)
        for name, value in store.items():
            state.m[name] = np.zeros_like(value)
            state.v[name] = np.zeros_like(value)
        return state


def adam_step(store: ParamStore, state: AdamState, grads: Mapping[str, np.ndarray]) -> None:
    """One Adam update with bias correction, p -= lr * m_hat / (sqrt(v_hat) + eps),
    of exactly the parameters in ``grads``. Every gradient is checked first
    (a known name, its parameter's shape, finite values): a bad one moves nothing."""
    if sorted(state.m) != store.names():
        raise ConfigError("Adam state does not match the parameter store")
    for name, g in grads.items():
        if name not in state.m:
            raise ConfigError(f"gradient for unknown parameter {name}")
        if np.shape(g) != state.m[name].shape:
            raise DimensionError(f"gradient for parameter {name} has shape {np.shape(g)}, "
                                 f"expected {state.m[name].shape}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name}")
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for name in sorted(grads):
        g = np.asarray(grads[name], dtype=np.float64)
        m, v = state.m[name], state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p = store.value(name)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)
        if not np.all(np.isfinite(p)):
            raise NumericError(f"parameter {name} became non-finite after Adam step")
