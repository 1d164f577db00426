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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError, DimensionError
from .fusion import FusionConfig, fusion_head_graph, init_fusion_params, map_to_range
from .numerics import LossValue, ParamStore
from .rng import generator
from .seqmodel import EncoderConfig, encode_batch_graph, init_encoder_params


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


def init_model_params(config: ModelConfig, seed: int) -> ParamStore:
    store = ParamStore()
    for name, enc in config.encoders:
        init_encoder_params(store, f"enc.{name}", enc, generator(seed, f"init-enc-{name}"))
    width = sum(enc.output_dim for _, enc in config.encoders)
    init_fusion_params(store, config.fusion, width, generator(seed, "init-fusion"))
    return store


def wrap_leaves(store: ParamStore) -> dict[str, ad.Var]:
    """Leaf Vars sharing the store's arrays (no copies)."""
    return {name: ad.Var(store.value(name)) for name in store.names()}


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


def forward_graph(leaves: dict[str, ad.Var], config: ModelConfig,
                  windows: dict[str, np.ndarray], mode: str = "eval",
                  mask_rng: np.random.Generator | None = None):
    """Gated probabilities p_prime [B, 2] over the given parameter leaves.

    Leaf Vars (``wrap_leaves``) give a graph to backpropagate; the store's
    plain arrays give the same values as an ndarray and build no graph.
    """
    _check_windows(config, windows)
    states = [
        encode_batch_graph(windows[name], enc, leaves, f"enc.{name}", mode, mask_rng)
        for name, enc in config.encoders
    ]
    x = ad.concat_cols(states)
    return fusion_head_graph(x, leaves, config.fusion, mode, mask_rng)


def predict_batch(store: ParamStore, config: ModelConfig,
                  windows: dict[str, np.ndarray]) -> np.ndarray:
    """Eval-mode predictions in annotation units, shape [B, 2]."""
    p_prime = forward_graph(dict(store.items()), config, windows, mode="eval")
    return map_to_range(p_prime, config.fusion.output_range)


def weight_penalty_graph(leaves: dict[str, ad.Var]) -> ad.Var:
    """Sum of squared entries over weight matrices (2-D leaves), in name order."""
    total = None
    for name in sorted(leaves):
        leaf = leaves[name]
        if leaf.value.ndim != 2:
            continue
        term = ad.sum_squares(leaf)
        total = term if total is None else ad.add(total, term)
    if total is None:
        raise ConfigError("no weight matrices found")
    return total


def training_loss(windows: dict[str, np.ndarray], targets: np.ndarray,
                  store: ParamStore, config: ModelConfig, mode: str = "train",
                  mask_rng: np.random.Generator | None = None) -> LossValue:
    """Batch loss; backpropagates into the store's gradient buffers.

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

    leaves = wrap_leaves(store)
    p_prime = forward_graph(leaves, config, windows, mode, mask_rng)
    like = ad.add(
        ad.mul(t01, ad.safe_log(p_prime)),
        ad.mul(1.0 - t01, ad.safe_log(ad.scale_shift(p_prime, -1.0, 1.0))),
    )
    xent = ad.scale_shift(ad.sum_all(like), -1.0 / batch)
    penalty = weight_penalty_graph(leaves)
    total = ad.add(xent, ad.scale_shift(penalty, config.fusion.l2_lambda))

    result = LossValue(
        loss=float(xent.value),
        l2_penalty=float(penalty.value),
        lambda_l2=config.fusion.l2_lambda,
    )
    ad.backward(total)
    for name, leaf in leaves.items():
        if leaf.grad is not None:
            store.grad(name)[...] += leaf.grad
    return result
