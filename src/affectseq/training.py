"""The training loop plus batched per-movie prediction.

Training is single-threaded and fully deterministic given the config and
seed: epoch shuffles, dropout masks, and initialization all derive from
purpose-split child seeds. A NaN or Inf loss aborts the run with
NumericError rather than continuing silently.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .config import RunConfig
from .dataio import batch_indices, load_dataset, split_dataset, window_sequences
from .errors import ConfigError
from .evalmetrics import evaluate_run
from .model import ModelConfig, init_model_params, predict_batch, training_loss
from .numerics import AdamState, ParamStore, adam_step
from .rng import generator

TRAINING_LOG_NAME = "training_log.csv"
CHECKPOINT_NAME = "model.ckpt"

_LOG_HEADER = ("epoch,train_loss,train_xent,train_l2,"
               "val_valence_mse,val_valence_pcc,val_arousal_mse,val_arousal_pcc")


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    train_xent: float
    train_l2: float
    val_valence_mse: float | None = None
    val_valence_pcc: float | None = None
    val_arousal_mse: float | None = None
    val_arousal_pcc: float | None = None

    def csv_row(self) -> str:
        def cell(v):
            return "" if v is None else repr(float(v))

        return ",".join([
            str(self.epoch), cell(self.train_loss), cell(self.train_xent),
            cell(self.train_l2), cell(self.val_valence_mse), cell(self.val_valence_pcc),
            cell(self.val_arousal_mse), cell(self.val_arousal_pcc),
        ])


def write_training_log(logs: list[EpochLog], path) -> None:
    lines = [_LOG_HEADER] + [log.csv_row() for log in logs]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def predict_tracks(store: ParamStore, model_config: ModelConfig,
                   features: Mapping[str, Mapping[str, np.ndarray]],
                   batch_size: int = 512, parallel: int = 1) -> dict[str, np.ndarray]:
    """Eval-mode predictions for whole movies, one window per second."""
    window = model_config.sequence_length

    def one_movie(movie: str) -> np.ndarray:
        windows = window_sequences({movie: features[movie]}, None, window)
        chunks = []
        for idx in batch_indices(len(windows), batch_size):
            batch, _ = windows.gather(idx)
            chunks.append(predict_batch(store, model_config, batch))
        return np.concatenate(chunks)

    movies = sorted(features)
    if parallel > 1:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(one_movie, movies))
        return dict(zip(movies, results))
    return {movie: one_movie(movie) for movie in movies}


def _validation_metrics(store, model_config, features, annotations, movies, batch_size):
    preds = predict_tracks(store, model_config,
                           {m: features[m] for m in movies}, batch_size)
    report = evaluate_run(preds, {m: annotations[m] for m in movies}, "macro_per_movie")
    return report


@dataclass
class TrainResult:
    store: ParamStore
    model_config: ModelConfig
    logs: list[EpochLog]
    train_movies: tuple[str, ...]
    validation_movies: tuple[str, ...]


def train_run(cfg: RunConfig) -> TrainResult:
    features, annotations = load_dataset(cfg.manifest)
    train_ids, val_ids = split_dataset(
        cfg.manifest, cfg.seed,
        require_validation=cfg.early_stop_patience > 0,
        train_fraction=cfg.train_fraction,
    )
    if not train_ids:
        raise ConfigError("no training movies left after the split")

    model_config = cfg.model_config()
    store = init_model_params(model_config, cfg.seed)
    adam = AdamState.for_params(store, lr=cfg.learning_rate, beta1=cfg.adam_beta1,
                                beta2=cfg.adam_beta2, epsilon=cfg.adam_epsilon)
    windows = window_sequences({m: features[m] for m in train_ids}, annotations,
                               model_config.sequence_length)

    needs_masks = model_config.fusion.dropout_rate > 0.0 or any(
        enc.dropout_rate > 0.0 for _, enc in model_config.encoders)
    logs: list[EpochLog] = []
    best_score = np.inf
    best_params: ParamStore | None = None
    stale = 0
    for epoch in range(cfg.epochs):
        order = generator(cfg.seed, f"shuffle-epoch-{epoch}").permutation(len(windows))
        loss_sum = xent_sum = l2_last = 0.0
        for b, idx in enumerate(batch_indices(len(windows), cfg.batch_size, order)):
            batch, targets = windows.gather(idx)
            store.zero_grads()
            mask_rng = generator(cfg.seed, f"dropout-e{epoch}-b{b}") if needs_masks else None
            value = training_loss(batch, targets, store, model_config, "train", mask_rng)
            adam_step(store, adam)
            loss_sum += value.total * len(idx)
            xent_sum += value.loss * len(idx)
            l2_last = value.l2_penalty
        log = EpochLog(
            epoch=epoch,
            train_loss=loss_sum / len(windows),
            train_xent=xent_sum / len(windows),
            train_l2=l2_last,
        )
        if val_ids:
            report = _validation_metrics(store, model_config, features, annotations,
                                         val_ids, cfg.batch_size)
            log.val_valence_mse = report.valence_mse
            log.val_valence_pcc = report.valence_pcc
            log.val_arousal_mse = report.arousal_mse
            log.val_arousal_pcc = report.arousal_pcc
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
    if best_params is not None:
        store.copy_values_from(best_params)
    return TrainResult(store=store, model_config=model_config, logs=logs,
                       train_movies=train_ids, validation_movies=val_ids)
