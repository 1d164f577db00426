"""Training support around the autodiff graph: parameter storage and
checkpoints, weight initialization, the loss record, the Adam optimizer,
and a finite-difference gradient checker.

All math is double precision. Model code builds its forward pass and
gradients with the reverse-mode engine in :mod:`affectseq.autodiff`;
nothing here computes a layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .errors import (
    ConfigError,
    ContractViolation,
    DataError,
    DomainError,
    NumericError,
)

CHECKPOINT_HEADER = "affectseq-params v1"


def glorot_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Uniform init in [-s, s] with s = sqrt(6 / (fan_in + fan_out))."""
    if len(shape) == 2:
        fan_out, fan_in = shape
    else:
        fan_in = fan_out = shape[0]
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape)


class ParamStore:
    """Named float64 tensors plus same-shape gradient buffers.

    Names are unique; arrays are C-contiguous. Training mutates values and
    grads on one logical thread; snapshots for read-only use come from
    :meth:`copy`.
    """

    def __init__(self):
        self._values: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}

    def add(self, name: str, value) -> np.ndarray:
        if name in self._values:
            raise ConfigError(f"duplicate parameter name: {name}")
        if " " in name or not name:
            raise ConfigError(f"parameter names must be non-empty and space-free: {name!r}")
        arr = np.array(value, dtype=np.float64, order="C")
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"parameter {name} initialized with non-finite values")
        self._values[name] = arr
        self._grads[name] = np.zeros_like(arr)
        return arr

    def names(self) -> list[str]:
        return sorted(self._values)

    def value(self, name: str) -> np.ndarray:
        return self._values[name]

    def grad(self, name: str) -> np.ndarray:
        return self._grads[name]

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        for name in self.names():
            yield name, self._values[name]

    def zero_grads(self) -> None:
        for g in self._grads.values():
            g.fill(0.0)

    def copy(self) -> "ParamStore":
        dup = ParamStore()
        for name, v in self._values.items():
            dup.add(name, v)
            np.copyto(dup._grads[name], self._grads[name])
        return dup

    def copy_values_from(self, other: "ParamStore") -> None:
        if self.names() != other.names():
            raise ConfigError("parameter stores hold different names")
        for name, v in other._values.items():
            np.copyto(self._values[name], v)

    def save(self, path) -> None:
        """Versioned text checkpoint; hex floats round-trip exactly."""
        lines = [CHECKPOINT_HEADER]
        for name in self.names():
            arr = self._values[name]
            dims = ",".join(str(d) for d in arr.shape) or "-"
            values = " ".join(float(v).hex() for v in arr.ravel())
            lines.append(f"{name} {dims} {values}".rstrip())
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "ParamStore":
        text = Path(path).read_text(encoding="utf-8")
        lines = text.splitlines()
        if not lines or lines[0] != CHECKPOINT_HEADER:
            raise DataError(f"{path}: missing checkpoint header {CHECKPOINT_HEADER!r}")
        store = cls()
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            fields = line.split(" ")
            if len(fields) < 2:
                raise DataError(f"{path}:{lineno}: malformed parameter record")
            name, dims = fields[0], fields[1]
            try:
                shape = () if dims == "-" else tuple(int(d) for d in dims.split(","))
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad shape {dims!r}") from None
            expected = int(np.prod(shape, dtype=np.int64)) if shape else 1
            raw = fields[2:]
            if len(raw) != expected:
                raise DataError(
                    f"{path}:{lineno}: parameter {name} has {len(raw)} values, expected {expected}"
                )
            try:
                flat = np.array([float.fromhex(v) for v in raw], dtype=np.float64)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad float literal ({exc})") from exc
            if not np.all(np.isfinite(flat)):
                raise DataError(f"{path}:{lineno}: parameter {name} has non-finite values")
            try:
                store.add(name, flat.reshape(shape))
            except ConfigError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
        return store


@dataclass
class LossValue:
    """Cross-entropy part, L2 penalty, and the regularization weight."""

    loss: float
    l2_penalty: float
    lambda_l2: float

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
    def for_params(cls, store: ParamStore, lr=0.001, beta1=0.9, beta2=0.999, epsilon=1e-8):
        state = cls(lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon)
        for name, value in store.items():
            state.m[name] = np.zeros_like(value)
            state.v[name] = np.zeros_like(value)
        return state


def adam_step(store: ParamStore, state: AdamState) -> None:
    """One Adam update with bias correction: p -= lr * m_hat / (sqrt(v_hat) + eps)."""
    if sorted(state.m) != store.names():
        raise ConfigError("Adam state does not match the parameter store")
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for name in store.names():
        g = store.grad(name)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name}")
        m, v = state.m[name], state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p = store.value(name)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)
        if not np.all(np.isfinite(p)):
            raise NumericError(f"parameter {name} became non-finite after Adam step")


def grad_check(
    loss_fn: Callable[[ParamStore], float],
    store: ParamStore,
    eps: float = 1e-5,
) -> float:
    """Central finite differences against the analytic gradient.

    ``loss_fn`` must return a scalar loss and populate ``store`` gradients
    as a side effect (gradients are zeroed before the analytic call). The
    closure must be deterministic; live dropout or any other source of
    run-to-run variation is a contract violation. Returns the max over
    parameter entries of ``|g_fd - g_an| / max(1e-8, |g_fd| + |g_an|)``.
    On return the store's gradient buffers are zeroed.
    """
    if eps <= 0:
        raise DomainError("grad_check needs eps > 0")
    store.zero_grads()
    base = float(loss_fn(store))
    analytic = {name: store.grad(name).copy() for name in store.names()}
    store.zero_grads()
    if float(loss_fn(store)) != base:
        raise ContractViolation("loss closure is not deterministic across calls")

    worst = 0.0
    for name in store.names():
        flat = store.value(name).ravel()
        gan = analytic[name].ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            lp = float(loss_fn(store))
            flat[i] = keep - eps
            lm = float(loss_fn(store))
            flat[i] = keep
            fd = (lp - lm) / (2.0 * eps)
            denom = max(1e-8, abs(fd) + abs(gan[i]))
            worst = max(worst, abs(fd - gan[i]) / denom)
    store.zero_grads()
    return worst
