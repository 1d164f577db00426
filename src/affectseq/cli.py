"""Batch command-line front end.

Subcommands wire the pipeline end to end on files:

    synth     write a synthetic dataset with known latent dynamics
    train     fit a model from a config file; writes checkpoint + log
    predict   checkpoint + features -> raw prediction CSVs
    smooth    prediction CSVs -> smoothed prediction CSVs
    ensemble  average K aligned prediction directories
    evaluate  predictions + annotations -> report.csv / report.txt

Exit codes: 0 success, 1 usage error (an unknown or missing command
option, or a bad value of a command option such as ``--split``), 2
data/config error (a bad value of a setting flag included), 3 numeric
failure (non-finite loss or gradients).

Each setting flag stores its text under the config key or SynthSpec
field it sets, and leaves parsing to that setting's parser and the
default to the record that owns it. A setting error names the flag if
you typed it, else the file and key it came from.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

from .config import (RunConfig, declared, number, parse_config, parse_fields, smoother_spec,
                     tagged, write_resolved)
from .dataio import (SynthSpec, load_dataset, load_prediction_dir, save_prediction_dir,
                     split_dataset, synth_generate)
from .errors import AffectSeqError, ConfigError, DataError, NumericError
from .evalmetrics import (
    AGGREGATION_MODES,
    ensemble_average,
    evaluate_run,
    render_csv,
    render_text,
)
from .files import check_out_dir, shown, write_file
from .lanes import per_track
from .model import ModelConfig, param_shapes
from .numerics import ParamStore
from .smoothing import SMOOTHERS, smooth_track
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
    p.add_argument("--movies", dest="num_movies")
    p.add_argument("--length", help="seconds per movie")
    p.add_argument("--modalities", help="name:dim pairs")
    p.add_argument("--noise")
    p.add_argument("--noise-override", dest="noise_overrides",
                   help="per-modality noise as name:level[,name:level]")
    p.add_argument("--lag")
    p.add_argument("--seed", default="1")
    p.add_argument("--validation", dest="validation_movies",
                   help="comma-separated validation movie ids")

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output directory (overrides the config)")
    p.add_argument("--seed", help="seed (overrides the config)")
    p.add_argument("--profile", help="run profile (overrides the config)")

    p = sub.add_parser("predict", help="run inference over a dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=("all", "train", "validation"), default="all")
    p.add_argument("--seed", help="seed (overrides the config)")

    p = sub.add_parser("smooth", help="low-pass filter prediction tracks")
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="take smoother settings from a config file")
    p.add_argument("--smoother", help=" | ".join(SMOOTHERS))
    p.add_argument("--order", dest="butter_order", help="Butterworth order")
    p.add_argument("--cutoff", dest="butter_cutoff", help="Butterworth cutoff")
    p.add_argument("--weights", dest="ma_weights", help="comma-separated moving-average weights")
    p.add_argument("--causal", action="store_true", default=None,
                   help="single forward pass instead of zero-phase")

    p = sub.add_parser("ensemble", help="average prediction runs")
    p.add_argument("--runs", nargs="+", required=True, metavar="DIR")
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="score predictions against annotations")
    p.add_argument("--predictions", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--aggregation", choices=AGGREGATION_MODES, default="macro_per_movie")
    return parser


# flags spelled otherwise than the key they set
_FLAGS = {"num_movies": "--movies", "noise_overrides": "--noise-override",
          "validation_movies": "--validation", "butter_order": "--order",
          "butter_cutoff": "--cutoff", "ma_weights": "--weights"}


def _typed(args, record) -> dict[str, str]:
    """The keys of ``record`` that typed flags set."""
    keys = declared(record)
    return {key: value for key, value in vars(args).items() if key in keys and value is not None}


def _cmd_synth(args) -> int:
    values = parse_fields(SynthSpec, _typed(args, SynthSpec))
    seed = tagged("seed", number(int), args.seed)
    manifest = synth_generate(SynthSpec(**values), args.out, seed)
    print(f"wrote {len(manifest.movies)} movies to {shown(args.out)}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = parse_config(args.config, _typed(args, RunConfig))
    if not cfg.out:
        raise DataError("no output directory: set 'out' in the config or pass --out")
    check_out_dir(cfg.out)
    for warning in cfg.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    result = train_run(cfg)  # before any output, so a bad input leaves none
    out_dir = Path(cfg.out)
    write_resolved(cfg, out_dir)
    result.store.save(out_dir / CHECKPOINT_NAME)
    write_training_log(result.logs, out_dir / TRAINING_LOG_NAME)
    last = result.logs[-1]
    print(f"trained {len(result.logs)} epochs; final loss {last.train_loss:.6f}; "
          f"checkpoint at {shown(out_dir / CHECKPOINT_NAME)}")
    return EXIT_OK


def _check_architecture(store: ParamStore, model_config: ModelConfig, checkpoint) -> None:
    """Refuse a checkpoint whose names or shapes differ from the configured
    model's."""
    expected = param_shapes(model_config)
    if sorted(expected) != store.names():
        raise DataError(f"checkpoint {shown(checkpoint)} does not match the configured "
                        "architecture")
    for name, shape in sorted(expected.items()):
        if store.value(name).shape != shape:
            raise DataError(f"checkpoint {shown(checkpoint)}: parameter {name} has shape "
                            f"{store.value(name).shape}, expected {shape}")


def _cmd_predict(args) -> int:
    cfg = parse_config(args.config, _typed(args, RunConfig))
    check_out_dir(args.out)
    store = ParamStore.load(args.checkpoint)
    model_config = cfg.model_config()
    _check_architecture(store, model_config, args.checkpoint)
    manifest = cfg.manifest
    if args.split != "all":
        train_ids, val_ids = split_dataset(manifest, cfg.seed, cfg.train_fraction)
        wanted = train_ids if args.split == "train" else val_ids
        if not wanted:
            raise DataError(f"the {args.split} split is empty")
        # read only the split's tracks; the split is drawn, so the validation
        # list, which may name dropped movies, is no longer needed
        manifest = replace(manifest, validation_movies=(), movies=tuple(
            (movie, length) for movie, length in manifest.movies if movie in wanted))
    features, _ = load_dataset(manifest, with_annotations=False)
    preds = predict_tracks(store, model_config, features, batch_size=cfg.batch_size)
    save_prediction_dir(preds, args.out)
    print(f"wrote predictions for {len(preds)} movies to {shown(args.out)}")
    return EXIT_OK


def _cmd_smooth(args) -> int:
    settings = _typed(args, RunConfig)
    spec = smoother_spec(vars(parse_config(args.config, settings)) if args.config
                         else parse_fields(RunConfig, settings))
    preds = load_prediction_dir(args.predictions)
    if spec.kind == "moving_average":
        for movie, track in preds.items():
            if len(track) < len(spec.weights):
                raise ConfigError(f"{shown(Path(args.predictions) / f'{movie}.csv')}: track of "
                                  f"length {len(track)} is shorter than the "
                                  f"{len(spec.weights)} weights of ma_weights", key="ma_weights")
    tracks = preds.values()
    jobs = [partial(smooth_track, track, spec, causal=bool(args.causal)) for track in tracks]
    smoothed = dict(zip(preds, per_track(jobs, sum(track.size for track in tracks))))
    save_prediction_dir(smoothed, args.out)
    print(f"smoothed {len(smoothed)} movies with {spec.kind} into {shown(args.out)}")
    return EXIT_OK


def _cmd_ensemble(args) -> int:
    runs = [load_prediction_dir(run_dir) for run_dir in args.runs]
    averaged = ensemble_average(runs, [shown(run_dir) for run_dir in args.runs])
    save_prediction_dir(averaged, args.out)
    print(f"averaged {len(args.runs)} runs into {shown(args.out)}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    annos = load_prediction_dir(args.annotations)
    preds = load_prediction_dir(args.predictions)
    report = evaluate_run(preds, annos, args.aggregation)
    out_dir = Path(args.out)
    write_file(out_dir / "report.csv", [render_csv(report)])
    write_file(out_dir / "report.txt", [render_text(report)])
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
        # a flag's dest is the key it sets, and it is None unless typed
        key = getattr(exc, "key", None)
        typed = key is not None and getattr(args, key, None) is not None
        flag = f"{_FLAGS.get(key, f'--{key}')}: " if typed else ""
        print(f"affectseq: {flag}{exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
