"""The joint model: per-modality encoders feeding the fusion head, plus
the batched training loss and prediction paths.

Targets arrive in annotation units [lo, hi], get mapped to [0, 1], and the
loss is cross-entropy against the gated mixture probabilities (the same
quantity the affine output map reports), plus an L2 penalty over every
weight matrix (2-D parameter), never biases:

    loss = mean_batch sum_dim -[t' log p' + (1 - t') log(1 - p')]
           + lambda_l2 * sum_W ||W||^2

Batch reduction order is fixed (sample order within the batch, dimensions
valence then arousal) so reruns are bit-identical.

The autodiff graph covers the head and the loss alone: its leaves are
the head's parameters and leaf ``Var``s holding the encoder states. Each
encoder hands back its own backward closure
(:func:`affectseq.seqmodel.encode_batch_graph`), which runs from the
gradient its state's leaf receives. The penalty is a plain sum, and each
weight matrix's gradient gets its term, 2 * lambda * W.

The modalities meet only at the head, so
:func:`affectseq.lanes.in_threads` runs their encoders at once, forward
and backward. In a training pass (one given the step's generator) the
calling thread spawns one child generator per modality before any
encoder starts; each encoder draws its dropout masks from its child, and
the head from the step's generator. No encoder writes what another
reads, and modality k's child is the same whatever the modality count,
so each encoder computes exactly what it computes alone: every output is
bit-identical at any thread count, and an encoder's state does not
depend on how many modalities run beside it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError, DimensionError
from .fusion import (FusionConfig, fusion_head_graph, fusion_layout, init_fusion_params,
                     map_to_range)
from .lanes import in_threads
from .numerics import LossValue, ParamStore
from .rng import generator
from .seqmodel import EncoderConfig, encode_batch_graph, encoder_layout, init_encoder_params


@dataclass(frozen=True)
class ModelConfig:
    """Ordered per-modality encoders plus the fusion head, over windows of
    ``sequence_length`` seconds."""

    encoders: tuple[tuple[str, EncoderConfig], ...]
    fusion: FusionConfig
    sequence_length: int = 60

    def __post_init__(self):
        names = [name for name, _ in self.encoders]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate modality names")

    @property
    def state_width(self) -> int:
        """Width of the concatenated encoder states the fusion head reads."""
        return sum(enc.output_dim for _, enc in self.encoders)


def init_model_params(config: ModelConfig, seed: int) -> ParamStore:
    store = ParamStore()
    for name, enc in config.encoders:
        init_encoder_params(store, f"enc.{name}", enc, generator(seed, f"init-enc-{name}"))
    init_fusion_params(store, config.fusion, config.state_width, generator(seed, "init-fusion"))
    return store


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """``{name: shape}`` of every parameter :func:`init_model_params` adds,
    read from the same layouts without drawing a value."""
    layout = [p for name, enc in config.encoders for p in encoder_layout(f"enc.{name}", enc)]
    layout += fusion_layout(config.fusion, config.state_width)
    return {name: shape for name, shape, _ in layout}


def _check_windows(config: ModelConfig, windows: dict[str, np.ndarray]) -> int:
    sizes = set()
    for name, _ in config.encoders:
        if name not in windows:
            raise ConfigError(f"missing windows for modality {name}")
        w = windows[name]
        if w.ndim != 3:
            raise DimensionError(f"windows for {name} must be [B, T, D], got {w.shape}")
        if w.shape[1] != config.sequence_length:
            raise DimensionError(f"windows for {name} span T={w.shape[1]}, "
                                 f"the model expects T={config.sequence_length}")
        sizes.add(w.shape[0])
    if len(sizes) != 1:
        raise DimensionError(f"modalities disagree on batch size: {sorted(sizes)}")
    return sizes.pop()


def encode_states(params: dict[str, np.ndarray], config: ModelConfig,
                  windows: dict[str, np.ndarray], rng: np.random.Generator | None = None,
                  keep: bool = False) -> list:
    """Each modality's final encoder state [B, H], or with ``keep`` its
    ``(state, backward)`` (see :func:`encode_batch_graph`), in modality
    order, over windows that :func:`_check_windows` has passed (see the
    module docstring)."""
    count = len(config.encoders)
    rngs = [None] * count if rng is None else rng.spawn(count)
    return in_threads([functools.partial(encode_batch_graph, windows[name], enc, params,
                                         f"enc.{name}", child, keep)
                       for (name, enc), child in zip(config.encoders, rngs)])


def head_graph(states: list, leaves: dict, config: ModelConfig,
               rng: np.random.Generator | None = None):
    """Gated probabilities p_prime [B, 2] from the encoder states."""
    return fusion_head_graph(ad.concat_cols(states), leaves, config.fusion, rng)


def predict_batch(store: ParamStore, config: ModelConfig,
                  windows: dict[str, np.ndarray]) -> np.ndarray:
    """Eval-mode predictions in annotation units, shape [B, 2]."""
    _check_windows(config, windows)
    params = dict(store.items())
    p_prime = head_graph(encode_states(params, config, windows), params, config)
    return map_to_range(p_prime, config.fusion.output_range)


def training_loss(windows: dict[str, np.ndarray], targets: np.ndarray,
                  store: ParamStore, config: ModelConfig, rng: np.random.Generator | None
                  ) -> tuple[LossValue, dict[str, np.ndarray]]:
    """Batch loss and its gradients, ``{name: d total / d parameter}`` for
    every parameter the loss reaches (all but the batch-norm running
    statistics, which have no gradient), over a training pass drawing from
    the step's generator ``rng``, or over an inference pass if it is None.
    Under training-pass batch norm the loss record also carries the
    batch's moments of the fusion input.

    ``targets`` is [B, 2] in annotation units and must lie inside the
    configured output range. Probabilities are floored at 1e-12 inside the
    logs purely as an overflow guard; the clamp is inactive anywhere the
    optimizer should ever be.
    """
    batch = _check_windows(config, windows)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (batch, 2):
        raise DimensionError(f"targets must be [{batch}, 2], got {targets.shape}")
    lo, hi = config.fusion.output_range
    if np.any(targets < lo) or np.any(targets > hi):
        raise DataError(f"targets fall outside the annotation range ({lo}, {hi})")
    t01 = (targets - lo) / (hi - lo)

    params = dict(store.items())
    encoded = encode_states(params, config, windows, rng, keep=True)
    # The head is the only graph. It runs over leaves holding the encoder
    # states, so its backward stops there, and each encoder's backward then
    # runs from its leaf's gradient.
    cut = [ad.Var(state) for state, _ in encoded]
    leaves = {name: ad.Var(value) for name, value in params.items()
              if name.startswith("fusion.")}
    p_prime = head_graph(cut, leaves, config, rng)
    like = ad.add(
        ad.mul(t01, ad.safe_log(p_prime)),
        ad.mul(1.0 - t01, ad.safe_log(ad.scale_shift(p_prime, -1.0, 1.0))),
    )
    xent = ad.scale_shift(ad.sum_all(like), -1.0 / batch)
    weights = [(name, value) for name, value in params.items() if value.ndim == 2]
    penalty = 0.0
    for _, value in weights:  # in name order, left to right
        penalty += float((value * value).sum())

    result = LossValue(loss=float(xent.value), l2_penalty=penalty,
                       lambda_l2=config.fusion.l2_lambda)
    if rng is not None and config.fusion.enable_batchnorm:
        x = np.concatenate([leaf.value for leaf in cut], axis=1)
        result.batch_moments = np.stack([x.mean(axis=0), x.var(axis=0, ddof=1)])
        del x  # free before backward allocates, as training.train_run's loop explains
    ad.backward(xent)
    grads = {name: leaf.grad for name, leaf in leaves.items() if leaf.grad is not None}
    for part in in_threads([functools.partial(backward, leaf.grad)
                            for (_, backward), leaf in zip(encoded, cut)]):
        grads.update(part)
    for name, value in weights:
        grads[name] += (2.0 * config.fusion.l2_lambda) * value
    return result, grads
