"""The training loop plus batched per-movie prediction.

Training is fully deterministic given the config and seed: epoch
shuffles, each step's dropout generator, and initialization all derive
from purpose-split child seeds. Each modality's encoder draws its masks
from its own child of the step's generator (see :mod:`affectseq.model`).
The loop itself runs on one thread; within a step, and in the per-epoch
validation pass, the modality encoders may run on several, which moves
no bit of any output. A NaN or Inf loss aborts the run with NumericError
rather than continuing silently.
Each epoch ends by setting the batch-norm running statistics to the
window-weighted means of its steps' batch means and unbiased variances
(Ioffe & Szegedy, arXiv:1502.03167, Algorithm 2), which validation, early
stopping's snapshot and the saved model then read. Prediction runs one
movie at a time, in sorted order, in batches of ``batch_size`` windows;
it normalizes each window alone, so the batch size only bounds memory.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import RunConfig
from .dataio import batch_indices, load_dataset, split_dataset, window_sequences
from .errors import ConfigError
from .evalmetrics import METRICS, evaluate_run
from .files import shown, write_file
from .model import ModelConfig, init_model_params, predict_batch, training_loss
from .numerics import AdamState, ParamStore, adam_step
from .rng import generator

TRAINING_LOG_NAME = "training_log.csv"
CHECKPOINT_NAME = "model.ckpt"


@dataclass
class EpochLog:
    """One ``training_log.csv`` row: its fields, in order, are the columns."""

    epoch: int
    train_loss: float
    train_xent: float
    train_l2: float
    val_valence_mse: float | None = None
    val_valence_pcc: float | None = None
    val_arousal_mse: float | None = None
    val_arousal_pcc: float | None = None

    def csv_row(self) -> str:
        values = [getattr(self, f.name) for f in fields(self)[1:]]
        return ",".join([str(self.epoch), *("" if v is None else repr(float(v)) for v in values)])


def write_training_log(logs: list[EpochLog], path) -> None:
    lines = [",".join(f.name for f in fields(EpochLog))] + [log.csv_row() for log in logs]
    write_file(path, ["\n".join(lines) + "\n"])


def predict_tracks(store: ParamStore, model_config: ModelConfig,
                   features: Mapping[str, Mapping[str, np.ndarray]],
                   batch_size: int = 512) -> dict[str, np.ndarray]:
    """Eval-mode predictions for whole movies, one window per second, in movie order.

    A batch is a slice of the movie's windows as one zero-copy [L, T, D]
    view of its padded rows, whose window and step strides are equal, so
    the encoders project each row once per batch (see
    :func:`affectseq.seqmodel._input_steps`) and no window is copied.
    """
    window = model_config.sequence_length

    # a function scope frees one movie's rows before the next movie's are
    # built, which bounds peak memory by the largest movie
    def one_movie(movie: str) -> np.ndarray:
        windows = window_sequences({movie: features[movie]}, None, window)
        views = {mod: sliding_window_view(rows, window, axis=0).transpose(0, 2, 1)
                 for mod, rows in windows.rows.items()}
        return np.concatenate([
            predict_batch(store, model_config,
                          {mod: view[idx[0]:idx[-1] + 1] for mod, view in views.items()})
            for idx in batch_indices(len(windows), batch_size)])

    return {movie: one_movie(movie) for movie in sorted(features)}


@dataclass
class TrainResult:
    store: ParamStore
    model_config: ModelConfig
    logs: list[EpochLog]
    train_movies: tuple[str, ...]
    validation_movies: tuple[str, ...]


def train_run(cfg: RunConfig) -> TrainResult:
    features, annotations = load_dataset(cfg.manifest)
    train_ids, val_ids = split_dataset(cfg.manifest, cfg.seed, cfg.train_fraction,
                                       require_validation=cfg.early_stop_patience > 0)
    if not train_ids:
        raise ConfigError("no training movies left after the split")

    model_config = cfg.model_config()
    windows = window_sequences({m: features[m] for m in train_ids}, annotations,
                               model_config.sequence_length)
    if model_config.fusion.enable_batchnorm and len(windows) < 2:
        raise ConfigError(f"{shown(cfg.manifest.path)}: batch normalization (enable_batchnorm, or "
                          f"profiles run2-run4) needs >= 2 training windows, got {len(windows)}")
    store = init_model_params(model_config, cfg.seed)
    adam = AdamState.for_params(store, lr=cfg.learning_rate, beta1=cfg.adam_beta1,
                                beta2=cfg.adam_beta2, epsilon=cfg.adam_epsilon)

    logs: list[EpochLog] = []
    best_score = np.inf
    best_params: ParamStore | None = None
    stale = 0
    for epoch in range(cfg.epochs):
        order = generator(cfg.seed, f"shuffle-epoch-{epoch}").permutation(len(windows))
        loss_sum = xent_sum = l2_last = 0.0
        moments = np.zeros((2, model_config.state_width))
        for b, idx in enumerate(batch_indices(len(windows), cfg.batch_size, order)):
            batch, targets = windows.gather(idx)
            rng = generator(cfg.seed, f"dropout-e{epoch}-b{b}")
            value, grads = training_loss(batch, targets, store, model_config, rng)
            adam_step(store, adam, grads)
            del grads  # free before the next step's graph (kept: +3 % peak RSS at paper sizes)
            loss_sum += value.total * len(idx)
            xent_sum += value.loss * len(idx)
            l2_last = value.l2_penalty
            if value.batch_moments is not None:
                moments += value.batch_moments * len(idx)
            # no array a step allocates may outlive it: one kept can pin the heap's
            # top and keep the freed graph resident (paper_train peak RSS +10 %)
            del value
        if model_config.fusion.enable_batchnorm:
            store.value("fusion.bn.running_mean")[:] = moments[0] / len(windows)
            store.value("fusion.bn.running_var")[:] = moments[1] / len(windows)
        log = EpochLog(
            epoch=epoch,
            train_loss=loss_sum / len(windows),
            train_xent=xent_sum / len(windows),
            train_l2=l2_last,
        )
        if val_ids:
            report = evaluate_run(
                predict_tracks(store, model_config, {m: features[m] for m in val_ids},
                               cfg.batch_size),
                {m: annotations[m] for m in val_ids}, "macro_per_movie")
            for name in METRICS:
                setattr(log, f"val_{name}", getattr(report, name))
        logs.append(log)

        if cfg.early_stop_patience > 0:
            score = log.val_valence_mse + log.val_arousal_mse
            if score < best_score - 1e-12:
                best_score = score
                best_params = store.copy()
                stale = 0
            else:
                stale += 1
                if stale >= cfg.early_stop_patience:
                    break
    return TrainResult(store=store if best_params is None else best_params,
                       model_config=model_config, logs=logs,
                       train_movies=train_ids, validation_movies=val_ids)
