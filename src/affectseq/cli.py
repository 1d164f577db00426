"""Batch command-line front end.

Subcommands wire the pipeline end to end on files:

    synth     write a synthetic dataset with known latent dynamics
    train     fit a model from a config file; writes checkpoint + log
    predict   checkpoint + features -> raw prediction CSVs
    smooth    prediction CSVs -> smoothed prediction CSVs
    ensemble  average K aligned prediction directories
    evaluate  predictions + annotations -> report.csv / report.txt

Exit codes: 0 success, 1 usage error, 2 data/config error, 3 numeric
failure (non-finite loss or gradients).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import parse_config, parse_values, smoother_spec, write_resolved
from .dataio import (
    SynthSpec,
    load_dataset,
    load_prediction_dir,
    parse_pairs,
    save_prediction_dir,
    split_dataset,
    synth_generate,
)
from .errors import AffectSeqError, ConfigError, DataError, NumericError
from .evalmetrics import ensemble_average, evaluate_run, render_csv, render_text
from .model import init_model_params
from .numerics import ParamStore
from .smoothing import SmootherSpec, smooth_track
from .training import (
    CHECKPOINT_NAME,
    TRAINING_LOG_NAME,
    predict_tracks,
    train_run,
    write_training_log,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="affectseq", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="dataset directory to create")
    p.add_argument("--movies", type=int, default=3)
    p.add_argument("--length", type=int, default=200, help="seconds per movie")
    p.add_argument("--modalities", default="audio:8,image:8", help="name:dim pairs")
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--noise-override", default="",
                   help="per-modality noise as name:level[,name:level]")
    p.add_argument("--lag", type=int, default=3)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--validation", default="", help="comma-separated validation movie ids")

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output directory (overrides the config)")
    p.add_argument("--seed", type=int, help="seed (overrides the config)")
    p.add_argument("--profile", help="run profile (overrides the config)")

    p = sub.add_parser("predict", help="run inference over a dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=("all", "train", "validation"), default="all")
    p.add_argument("--seed", type=int, help="seed (overrides the config)")
    p.add_argument("--parallel", type=int, default=1, metavar="N")

    p = sub.add_parser("smooth", help="low-pass filter prediction tracks")
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="take smoother settings from a config file")
    p.add_argument("--smoother", choices=("butterworth", "moving_average", "none"))
    p.add_argument("--order", help="Butterworth order (config key butter_order)")
    p.add_argument("--cutoff", help="Butterworth cutoff (config key butter_cutoff)")
    p.add_argument("--weights", help="comma-separated moving-average weights (ma_weights)")
    p.add_argument("--causal", action="store_true",
                   help="single forward pass instead of zero-phase")

    p = sub.add_parser("ensemble", help="average prediction runs")
    p.add_argument("--runs", nargs="+", required=True, metavar="DIR")
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="score predictions against annotations")
    p.add_argument("--predictions", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--aggregation", choices=("macro_per_movie", "pooled"),
                   default="macro_per_movie")
    return parser


# SynthSpec and manifest keys that synth flags set, and those flags
_SYNTH_FLAGS = {"num_movies": "--movies", "length": "--length", "noise": "--noise",
                "lag": "--lag", "noise_overrides": "--noise-override",
                "modalities": "--modalities", "validation_movies": "--validation"}


def _cmd_synth(args) -> int:
    try:
        spec = SynthSpec(
            num_movies=args.movies,
            length=args.length,
            modalities=parse_pairs(args.modalities, int, "modalities"),
            noise=args.noise,
            noise_overrides=parse_pairs(args.noise_override, float, "noise_overrides"),
            lag=args.lag,
            validation_movies=tuple(v.strip() for v in args.validation.split(",") if v.strip()),
        )
        manifest = synth_generate(spec, args.out, args.seed)
    except ConfigError as exc:
        if exc.key not in _SYNTH_FLAGS:
            raise
        raise ConfigError(f"{_SYNTH_FLAGS[exc.key]}: {exc}") from None
    print(f"wrote {len(manifest.movies)} movies to {args.out}")
    return EXIT_OK


def _config_overrides(args) -> dict[str, str]:
    overrides = {}
    for key in ("out", "seed", "profile"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = str(value)
    return overrides


def _cmd_train(args) -> int:
    cfg = parse_config(args.config, _config_overrides(args))
    if not cfg.out:
        raise DataError("no output directory: set 'out' in the config or pass --out")
    for warning in cfg.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_resolved(cfg, out_dir)
    result = train_run(cfg)
    result.store.save(out_dir / CHECKPOINT_NAME)
    write_training_log(result.logs, out_dir / TRAINING_LOG_NAME)
    last = result.logs[-1]
    print(f"trained {len(result.logs)} epochs; final loss {last.train_loss:.6f}; "
          f"checkpoint at {out_dir / CHECKPOINT_NAME}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    cfg = parse_config(args.config, _config_overrides(args))
    store = ParamStore.load(args.checkpoint)
    model_config = cfg.model_config()
    expected = init_model_params(model_config, seed=0)
    if expected.names() != store.names():
        raise DataError(
            f"checkpoint {args.checkpoint} does not match the configured architecture"
        )
    for name in store.names():
        if store.value(name).shape != expected.value(name).shape:
            raise DataError(f"checkpoint parameter {name} has shape "
                            f"{store.value(name).shape}, expected {expected.value(name).shape}")
    features, _ = load_dataset(cfg.manifest, with_annotations=False)
    if args.split != "all":
        train_ids, val_ids = split_dataset(cfg.manifest, cfg.seed,
                                           train_fraction=cfg.train_fraction)
        wanted = train_ids if args.split == "train" else val_ids
        if not wanted:
            raise DataError(f"the {args.split} split is empty")
        features = {m: features[m] for m in wanted}
    preds = predict_tracks(store, model_config, features,
                           batch_size=cfg.batch_size, parallel=args.parallel)
    save_prediction_dir(preds, args.out)
    print(f"wrote predictions for {len(preds)} movies to {args.out}")
    return EXIT_OK


# smooth flags and the config keys they set
_SMOOTH_FLAGS = {"smoother": "smoother", "order": "butter_order",
                 "cutoff": "butter_cutoff", "weights": "ma_weights"}


def _smoother_from_args(args) -> SmootherSpec:
    """Flags override the config's smoother keys, or the defaults without
    one; either way they are parsed and bounded like config keys."""
    given = {key: getattr(args, flag) for flag, key in _SMOOTH_FLAGS.items()
             if getattr(args, flag) is not None}
    values = parse_values(given, {key: f"--{flag}" for flag, key in _SMOOTH_FLAGS.items()})
    if args.config:
        return parse_config(args.config, given).smoother_spec()
    return smoother_spec(values)


def _cmd_smooth(args) -> int:
    spec = _smoother_from_args(args)
    preds = load_prediction_dir(args.predictions)
    smoothed = {m: smooth_track(track, spec, causal=args.causal) for m, track in preds.items()}
    save_prediction_dir(smoothed, args.out)
    print(f"smoothed {len(smoothed)} movies with {spec.kind} into {args.out}")
    return EXIT_OK


def _cmd_ensemble(args) -> int:
    runs = [load_prediction_dir(run_dir) for run_dir in args.runs]
    averaged = ensemble_average(runs)
    save_prediction_dir(averaged, args.out)
    print(f"averaged {len(args.runs)} runs into {args.out}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    annos = load_prediction_dir(args.annotations)
    preds = load_prediction_dir(args.predictions)
    report = evaluate_run(preds, annos, args.aggregation)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.csv").write_text(render_csv(report), encoding="utf-8")
    (out_dir / "report.txt").write_text(render_text(report), encoding="utf-8")
    print(render_text(report), end="")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "smooth": _cmd_smooth,
    "ensemble": _cmd_ensemble,
    "evaluate": _cmd_evaluate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("affectseq: a subcommand is required", file=sys.stderr)
            return EXIT_USAGE
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"affectseq: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse -h/--help
        return int(exc.code or 0)
    except NumericError as exc:
        print(f"affectseq: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except AffectSeqError as exc:
        print(f"affectseq: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
