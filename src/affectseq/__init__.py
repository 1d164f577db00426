"""affectseq: sequence-to-one valence/arousal regression over per-second
multimodal feature tracks, with context-gated mixture-of-experts fusion,
low-pass post-smoothing, run ensembling, and MSE/PCC evaluation."""

from .dataio import (
    DatasetManifest,
    SynthSpec,
    load_features,
    load_manifest,
    load_predictions,
    parse_pairs,
    split_dataset,
    synth_generate,
    window_sequences,
    write_track,
)
from .errors import AffectSeqError
from .evalmetrics import EvalReport, ensemble_average, evaluate_run, mse, pearson
from .fusion import FusionConfig
from .model import ModelConfig, init_model_params, predict_batch, training_loss
from .numerics import AdamState, LossValue, ParamStore, adam_step, grad_check
from .seqmodel import EncoderConfig
from .smoothing import IIRCoefficients, SmootherSpec, butter_design, filtfilt, smooth_track
from .training import predict_tracks, train_run

__version__ = "0.1.0"

__all__ = [
    "AdamState", "AffectSeqError", "DatasetManifest", "EncoderConfig",
    "EvalReport", "FusionConfig", "IIRCoefficients", "LossValue",
    "ModelConfig", "ParamStore", "SmootherSpec", "SynthSpec", "adam_step",
    "butter_design", "ensemble_average", "evaluate_run", "filtfilt",
    "grad_check", "init_model_params", "load_features", "load_manifest",
    "load_predictions", "mse", "parse_pairs", "pearson", "predict_batch",
    "predict_tracks", "smooth_track", "split_dataset", "synth_generate",
    "train_run", "training_loss", "window_sequences", "write_track",
]
