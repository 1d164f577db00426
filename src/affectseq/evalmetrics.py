"""Scoring: MSE and Pearson correlation, per-movie aggregation, run
ensembling, and report rendering.

Undefined correlations (zero-variance series, or a movie annotated for
one second) are reported as the ``UNDEFINED`` sentinel, excluded from
macro means, and counted, so reports stay machine-readable instead of
propagating NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .dataio import AFFECT_COLUMNS
from .errors import ConfigError, CoverageError, DataError

AGGREGATION_MODES = ("macro_per_movie", "pooled")
REPORT_COLUMNS = ("Valence MSE", "Valence PCC", "Arousal MSE", "Arousal PCC")

UNDEFINED = None


def mse(pred, truth) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise DataError(f"mse needs equal-length vectors, got {pred.shape} vs {truth.shape}")
    if pred.size < 1:
        raise DataError("mse needs at least one sample")
    return float(np.mean((pred - truth) ** 2))


def pearson(pred, truth) -> float | None:
    """Pearson correlation, or the UNDEFINED sentinel for constant input."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise DataError(f"pearson needs equal-length vectors, got {pred.shape} vs {truth.shape}")
    if pred.size < 2:
        raise DataError("pearson needs at least two samples")
    if np.all(pred == pred[0]) or np.all(truth == truth[0]):
        return UNDEFINED
    dx = pred - pred.mean()
    dy = truth - truth.mean()
    ssx = float(dx @ dx)
    ssy = float(dy @ dy)
    if ssx == 0.0 or ssy == 0.0:
        return UNDEFINED
    return float((dx @ dy) / np.sqrt(ssx * ssy))


_SCORES = {"mse": mse, "pcc": pearson}
# the four headline metrics in report order: valence_mse, valence_pcc, arousal_mse, arousal_pcc
METRICS = tuple(f"{affect}_{score}" for affect in AFFECT_COLUMNS for score in _SCORES)
_PCC_METRICS = tuple(f"{affect}_pcc" for affect in AFFECT_COLUMNS)


@dataclass
class EvalReport:
    """The four headline metrics plus the per-movie breakdown."""

    valence_mse: float
    valence_pcc: float | None
    arousal_mse: float
    arousal_pcc: float | None
    aggregation: str
    per_movie: dict[str, dict[str, float | None]] = field(default_factory=dict)
    valence_pcc_undefined: int = 0
    arousal_pcc_undefined: int = 0

    def row(self) -> tuple:
        return tuple(getattr(self, name) for name in METRICS)


def _check_coverage(preds: Mapping[str, np.ndarray], annos: Mapping[str, np.ndarray]) -> None:
    gaps = []
    for movie in sorted(annos):
        if movie not in preds:
            gaps.append(f"{movie}: no predictions")
            continue
        have = preds[movie].shape[0]
        need = annos[movie].shape[0]
        if have < need:
            gaps.append(f"{movie}: seconds {have}..{need - 1} missing")
    if gaps:
        raise CoverageError("predictions do not cover annotations: " + "; ".join(gaps))


def _movie_metrics(pred: np.ndarray, anno: np.ndarray) -> dict[str, float | None]:
    """The four metrics over the annotated seconds; a single second has an
    UNDEFINED PCC, as a constant track has."""
    n = anno.shape[0]
    return {f"{affect}_{score}": UNDEFINED if score == "pcc" and n < 2
            else metric(pred[:n, d], anno[:, d])
            for d, affect in enumerate(AFFECT_COLUMNS) for score, metric in _SCORES.items()}


def evaluate_run(preds: Mapping[str, np.ndarray], annos: Mapping[str, np.ndarray],
                 aggregation: str = "macro_per_movie") -> EvalReport:
    """Score predictions against annotations.

    ``macro_per_movie`` computes each metric per movie and averages with
    equal weight, skipping (and counting) movies whose PCC is undefined.
    ``pooled`` concatenates every annotated second, in movie-ID order,
    before computing the metrics once.
    """
    if aggregation not in AGGREGATION_MODES:
        raise ConfigError(f"unknown aggregation: {aggregation!r}")
    if not annos:
        raise DataError("no annotated movies to evaluate")
    _check_coverage(preds, annos)
    movies = sorted(annos)
    per_movie = {}
    for m in movies:  # both aggregations report every movie's metrics
        try:
            per_movie[m] = _movie_metrics(preds[m], annos[m])
        except DataError as exc:
            raise DataError(f"{m}: {exc}") from None
    if aggregation == "pooled":
        pred_all = np.concatenate([preds[m][: annos[m].shape[0]] for m in movies])
        anno_all = np.concatenate([annos[m] for m in movies])
        headline = _movie_metrics(pred_all, anno_all)
    else:
        headline = {}
        for key in METRICS:
            defined = [per_movie[m][key] for m in movies if per_movie[m][key] is not UNDEFINED]
            headline[key] = float(np.mean(defined)) if defined else UNDEFINED
    undefined = {f"{key}_undefined": sum(per_movie[m][key] is UNDEFINED for m in movies)
                 for key in _PCC_METRICS}
    return EvalReport(**headline, **undefined, aggregation=aggregation, per_movie=per_movie)


def ensemble_average(runs: Sequence[Mapping[str, np.ndarray]],
                     names: Sequence[str] | None = None) -> dict[str, np.ndarray]:
    """Pointwise mean over K prediction-track collections. Runs that differ
    from the first in movies or track shapes are refused; an error names
    the run at fault and the first by ``names`` (default ``run 1..K``)."""
    if not runs:
        raise DataError("ensemble needs at least one run")
    names = names or [f"run {k}" for k in range(1, len(runs) + 1)]
    movies = sorted(runs[0])
    for name, run in zip(names[1:], runs[1:]):
        if sorted(run) != movies:
            raise DataError(f"{name} covers different movies than {names[0]}")
        for movie in movies:
            if run[movie].shape != runs[0][movie].shape:
                raise DataError(f"{name} has a different track shape for {movie} than {names[0]}")
    return {
        movie: np.mean([run[movie] for run in runs], axis=0)
        for movie in movies
    }


def _fmt(value: float | None) -> str:
    return "undefined" if value is UNDEFINED else f"{value:.4f}"


def render_text(report: EvalReport) -> str:
    """Aligned table with the four headline columns, one data row."""
    header = "  ".join(REPORT_COLUMNS)
    row = "  ".join(_fmt(v) for v in report.row())
    lines = [
        f"aggregation: {report.aggregation}",
        header,
        row,
    ]
    if report.valence_pcc_undefined or report.arousal_pcc_undefined:
        lines.append(
            f"movies with undefined PCC: valence={report.valence_pcc_undefined} "
            f"arousal={report.arousal_pcc_undefined}"
        )
    return "\n".join(lines) + "\n"


def render_csv(report: EvalReport) -> str:
    """``metric,aggregation,value`` rows: headline metrics then per-movie."""
    def cell(value) -> str:
        return "undefined" if value is UNDEFINED else repr(float(value))

    out = ["metric,aggregation,value"]
    out += [f"{name},{report.aggregation},{cell(value)}"
            for name, value in zip(METRICS, report.row())]
    out += [f"{key}_undefined_movies,{report.aggregation},{getattr(report, f'{key}_undefined')}"
            for key in _PCC_METRICS]
    out += [f"{movie}.{key},per_movie,{cell(report.per_movie[movie][key])}"
            for movie in sorted(report.per_movie) for key in METRICS]
    return "\n".join(out) + "\n"
