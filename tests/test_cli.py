"""End-to-end command-line tests over a small synthetic dataset."""

import argparse
import contextlib
import io
import itertools
import math
import re
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from affectseq import cli, config
from affectseq.cli import _build_parser, main
from affectseq.config import DatasetManifest, declared, parse_config
from affectseq.dataio import SynthSpec, load_dataset, load_prediction_dirs, synth_generate
from affectseq.model import init_model_params
from affectseq.numerics import ParamStore


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rc = main(["synth", "--out", str(root / "data"), "--movies", "2",
               "--length", "50", "--modalities", "audio:3,image:2",
               "--noise", "0.05", "--seed", "5", "--validation", "m001"])
    assert rc == 0
    (root / "run.cfg").write_text(
        f"manifest = {root / 'data' / 'manifest.txt'}\n"
        "profile = run1\n"
        "seed = 3\n"
        "epochs = 2\n"
        "sequence_length = 10\n"
        "hidden_units = 4\n"
        "learning_rate = 0.01\n"
        "butter_cutoff = 0.2\n"
    )
    return root


def run_pipeline(root, out_name, seed="3"):
    out = root / out_name
    assert main(["train", "--config", str(root / "run.cfg"),
                 "--out", str(out / "model"), "--seed", seed]) == 0
    assert main(["predict", "--config", str(root / "run.cfg"),
                 "--checkpoint", str(out / "model" / "model.ckpt"),
                 "--out", str(out / "raw"), "--seed", seed]) == 0
    assert main(["smooth", "--predictions", str(out / "raw"),
                 "--out", str(out / "smooth"), "--config", str(root / "run.cfg")]) == 0
    assert main(["evaluate", "--predictions", str(out / "smooth"),
                 "--annotations", str(root / "data" / "annotations"),
                 "--out", str(out / "eval")]) == 0
    return out


# A name of each kind that cannot be a movie id or modality name, because
# each of those becomes a file or directory name
NOT_PLAIN_NAMES = {"": "empty", ".": "dot", "..": "dotdot", "a/b": "slash", "a\\b": "backslash",
                   "a\x07b": "control"}

INPUT_KINDS = ("config", "manifest", "feature-csv", "annotation-csv", "prediction-csv",
               "checkpoint")
UNREADABLE_CASES = [*((kind, fault) for kind in INPUT_KINDS
                      for fault in ("missing", "directory", "not-utf8")), ("manifest", "nul")]
UNWRITABLE_CASES = [*((command, where) for command in ("synth", "train", "predict", "smooth",
                                                       "ensemble", "evaluate")
                      for where in ("on-file", "under-file")), ("train", "config-nul")]


def input_readers(case):
    """Each input kind: (its file in the ``case`` directory, the argv of
    every command that reads it, ``--out`` aside)."""
    cfg, ckpt, data, preds = case / "run.cfg", case / "model.ckpt", case / "data", case / "preds"
    train = ["train", "--config", str(cfg)]
    predict = ["predict", "--config", str(cfg), "--checkpoint", str(ckpt)]
    evaluate = ["evaluate", "--predictions", str(preds), "--annotations", str(data / "annotations")]
    return {
        "config": (cfg, [train, predict,
                         ["smooth", "--config", str(cfg), "--predictions", str(preds)]]),
        "manifest": (data / "manifest.txt", [train, predict]),
        "feature-csv": (data / "features" / "audio" / "m001.csv", [train, predict]),
        "annotation-csv": (data / "annotations" / "m001.csv", [train, evaluate]),
        "prediction-csv": (preds / "m001.csv", [
            ["smooth", "--predictions", str(preds)],
            ["ensemble", "--runs", str(data / "annotations"), str(preds)], evaluate]),
        "checkpoint": (ckpt, [predict]),
    }


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["synth", "--out", "x", "--turbo"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["train"]) == 1

    def test_evaluate_missing_annotations_names_path(self, workspace, capsys, tmp_path):
        missing = tmp_path / "nowhere"
        rc = main(["evaluate", "--predictions", str(workspace / "data" / "annotations"),
                   "--annotations", str(missing), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert str(missing) in capsys.readouterr().err

    def test_bad_config_is_exit_2(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed = 1\n")  # missing manifest
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("argv, flag", [
        (["synth", "--modalities", "audio:x"], "--modalities"),
        (["synth", "--noise-override", "audio:abc"], "--noise-override"),
        (["smooth", "--smoother", "moving_average", "--weights", "a,b"], "--weights"),
        (["smooth", "--order", "9"], "--order"),
        (["smooth", "--cutoff", "1.5"], "--cutoff"),
        (["synth", "--validation", "zzz"], "--validation"),
        (["synth", "--modalities", "audio:0"], "affectseq: --modalities: dims must be >= 1"),
        (["synth", "--movies", "0"], "affectseq: --movies: must be >= 1"),
        (["synth", "--length", "0"], "--length"),
        (["synth", "--noise-override", "audio:-1"], "--noise-override"),
        (["smooth", "--smoother", "moving_average", "--weights", "1,1"], "--weights"),
        (["smooth", "--weights", ","], "--weights"),
        (["synth", "--noise", "nan"], "--noise"),
        (["synth", "--noise", "inf"], "--noise"),
        (["synth", "--noise-override", "audio:nan"], "--noise-override"),
        (["synth", "--modalities", "audio:3,audio:2"], "--modalities"),
        (["synth", "--modalities", "audio:3,audio:3"], "--modalities"),
        (["train", "--profile", "run9"], "affectseq: --profile: must be one of"),
        *((["synth", "--modalities", f"{name}:3"], "--modalities") for name in NOT_PLAIN_NAMES),
        # values argparse once typed itself, exiting 1 with its own message
        (["train", "--seed", "x"], "affectseq: --seed: expected an integer, got 'x'"),
        (["predict", "--seed", "x"], "affectseq: --seed: expected an integer, got 'x'"),
        (["synth", "--movies", "x"], "affectseq: --movies: expected an integer, got 'x'"),
        (["synth", "--length", "x"], "affectseq: --length: expected an integer, got 'x'"),
        (["synth", "--lag", "1.5"], "affectseq: --lag: expected an integer, got '1.5'"),
        (["synth", "--noise", "abc"], "affectseq: --noise: expected a number, got 'abc'"),
        (["synth", "--seed", "x"], "affectseq: --seed: expected an integer, got 'x'"),
        (["smooth", "--smoother", "kalman"], "affectseq: --smoother: must be one of"),
    ], ids=["synth-modalities", "synth-noise-override", "smooth-weights", "smooth-order",
            "smooth-cutoff", "synth-validation", "synth-modality-dim", "synth-movies",
            "synth-length", "synth-negative-noise-override", "smooth-even-weights",
            "smooth-no-weights", "synth-nan-noise", "synth-inf-noise",
            "synth-nan-noise-override", "synth-repeated-modality",
            "synth-repeated-modality-same-dim", "train-profile",
            *(f"synth-modality-{kind}" for kind in NOT_PLAIN_NAMES.values()),
            "train-seed", "predict-seed", "synth-movies-text", "synth-length-text",
            "synth-lag-fraction", "synth-noise-text", "synth-seed", "smooth-smoother"])
    def test_malformed_flag_is_exit_2(self, workspace, fuzz_root, tmp_path, capsys, argv, flag):
        # smooth, train and predict read real files, so only the flag can be at fault
        where = {"synth": [], "train": ["--config", str(workspace / "run.cfg")],
                 "predict": ["--config", str(workspace / "run.cfg"), "--checkpoint",
                             str(fuzz_root / "model.ckpt")],
                 "smooth": ["--predictions", str(workspace / "data" / "annotations")]}
        assert main([*argv, *where[argv[0]], "--out", str(tmp_path / "o")]) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [
        ("movies", "m000:abc"),
        ("modalities", "audio:x"),
        ("annotation_range", "0, b"),
        ("movies", "m000:120, m000:120"),
        ("modalities", "audio:0"),
        ("annotation_range", "1, -1"),
        ("annotation_range", "-inf, inf"),
        ("annotation_range", "0, nan"),
        ("annotation_range", "-1e308, 1e308"),
        ("modalities", "audio:3, audio:3"),
        ("modalities", "audio:3, image:2, audio:2"),
    ])
    def test_malformed_manifest_value_is_exit_2(self, workspace, tmp_path, capsys, key, value):
        lines = (workspace / "data" / "manifest.txt").read_text().splitlines()
        lines = [line for line in lines if not line.startswith(f"{key} =")]
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("\n".join([*lines, f"{key} = {value}"]) + "\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"manifest = {manifest}\nprofile = run1\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{manifest}: key {key}: " in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--noise-override", "audio:x"], "--noise-override: expected a number, got 'x'"),
        (["--noise", "x"], "--noise: expected a number, got 'x'"),
        (["--modalities", "audio:1.5"], "--modalities: expected an integer, got '1.5'"),
        (["--movies", "1.5"], "--movies: expected an integer, got '1.5'"),
        (["--modalities", "audio"], "--modalities: entry 'audio' must be name:value"),
        (["--noise-override", "audio:nan"], "--noise-override: expected a finite number, "
                                            "got 'nan'"),
    ], ids=["noise-override", "noise", "modalities", "movies", "modalities-entry",
            "noise-override-nan"])
    def test_synth_number_flags_share_one_message(self, tmp_path, capsys, argv, message):
        """One number parser reads every synth flag, and the message names
        the flag once."""
        assert main(["synth", *argv, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"affectseq: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("modalities", "audio:x", "expected an integer, got 'x'"),
        ("movies", "m000:1.5", "expected an integer, got '1.5'"),
        ("modalities", "audio", "entry 'audio' must be name:value"),
        ("annotation_range", "0, b", "expected a number, got 'b'"),
        ("annotation_range", "1", "must be 'lo, hi'"),
        ("annotation_range", "0, nan", "expected a finite number, got 'nan'"),
    ], ids=["modalities", "movies", "modalities-entry", "range-text", "range-one-bound",
            "range-nan"])
    def test_manifest_value_names_manifest_and_key_once(self, workspace, tmp_path, capsys,
                                                         key, value, message):
        lines = (workspace / "data" / "manifest.txt").read_text().splitlines()
        lines = [line for line in lines if not line.startswith(f"{key} =")]
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("\n".join([*lines, f"{key} = {value}"]) + "\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"manifest = {manifest}\nprofile = run1\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"affectseq: {manifest}: key {key}: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("body, key", [
        ("learning_rate = inf", "learning_rate"),
        ("l2_lambda = inf", "l2_lambda"),
        ("adam_epsilon = nan", "adam_epsilon"),
        ("ma_weights = 1,1", "ma_weights"),
        ("ma_weights = ,", "ma_weights"),
        ("batch_size = 1\nenable_batchnorm = true", "batch_size"),
        ("batch_size = 1\nprofile = run3", "batch_size"),
    ], ids=["inf-learning-rate", "inf-l2", "nan-epsilon", "even-weights", "no-weights",
            "batchnorm-batch-1", "run3-batch-1"])
    def test_malformed_config_value_is_exit_2(self, workspace, tmp_path, capsys, body, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"manifest = {workspace / 'data' / 'manifest.txt'}\n{body}\n")
        for argv in (["train", "--config", str(cfg)],
                     ["smooth", "--config", str(cfg),
                      "--predictions", str(workspace / "data" / "annotations")]):
            assert main([*argv, "--out", str(tmp_path / "o")]) == 2
            assert f"key {key}: " in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_degenerate_butterworth_is_exit_2(self, workspace, tmp_path, capsys, source):
        # the order-2 design at this cutoff rounds to b = 0, a = [1, -2, 1]
        if source == "flag":
            settings = ["--cutoff", "1e-9"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"manifest = {workspace / 'data' / 'manifest.txt'}\n"
                           "butter_cutoff = 1e-9\n")
            settings = ["--config", str(cfg)]
        rc = main(["smooth", *settings, "--predictions", str(workspace / "data" / "annotations"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "order 2, cutoff 1e-09" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_track_under_wrong_name_is_exit_2(self, workspace, tmp_path, capsys):
        annotations = tmp_path / "annotations"
        shutil.copytree(workspace / "data" / "annotations", annotations)
        moved = annotations / "m001.csv"
        moved.write_text((annotations / "m000.csv").read_text())
        rc = main(["evaluate", "--predictions", str(workspace / "data" / "annotations"),
                   "--annotations", str(annotations), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{moved}: movie id 'm000'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("version, fault, lineno", [
        ("v1", "non-finite", 2), ("v1", "duplicate", 3),
        ("v2", "non-finite", 2), ("v2", "duplicate", 3)])
    def test_malformed_checkpoint_is_exit_2(self, workspace, tmp_path, capsys, version, fault,
                                            lineno):
        """A faulty ``v2`` record is named by its line; a ``v1`` file with
        the same fault is refused at its header, before the record is read."""
        ckpt = tmp_path / "model.ckpt"
        store = init_model_params(parse_config(workspace / "run.cfg").model_config(), 0)
        if version == "v1":
            oracles.write_v1_checkpoint(store, ckpt)
            lines = ckpt.read_text().splitlines()
            if fault == "non-finite":
                name, dims, _, *values = lines[1].split(" ")
                lines[1] = " ".join([name, dims, "inf", *values])
            else:
                lines.insert(2, lines[1])
            ckpt.write_text("\n".join(lines) + "\n")
        else:
            store.save(ckpt)
            index, payload = split_checkpoint(ckpt.read_bytes())
            if fault == "non-finite":
                payload = struct.pack("<d", np.inf) + payload[8:]
            else:
                index.insert(2, index[1])
                payload = payload[:8 * store.value(store.names()[0]).size] + payload
            ckpt.write_bytes(b"\n".join(index) + b"\n\n" + payload)
        rc = main(["predict", "--config", str(workspace / "run.cfg"),
                   "--checkpoint", str(ckpt), "--out", str(tmp_path / "p")])
        assert rc == 2
        err = capsys.readouterr().err
        if version == "v1":
            assert err == (f"affectseq: {ckpt}: missing checkpoint header "
                           f"'affectseq-params v2' (affectseq-params v1 checkpoints are retired)\n")
        else:
            assert f"{ckpt}:{lineno}:" in err
        assert not (tmp_path / "p").exists()

    def test_v1_checkpoint_is_exit_2(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        oracles.write_v1_checkpoint(
            init_model_params(parse_config(workspace / "run.cfg").model_config(), 0), ckpt)
        rc = main(["predict", "--config", str(workspace / "run.cfg"),
                   "--checkpoint", str(ckpt), "--out", str(tmp_path / "p")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"affectseq: {ckpt}: missing checkpoint header 'affectseq-params v2' "
            f"(affectseq-params v1 checkpoints are retired)\n")
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("kind, fault", UNREADABLE_CASES,
                             ids=[f"{kind}-{fault}" for kind, fault in UNREADABLE_CASES])
    def test_unreadable_input_is_exit_2(self, workspace, fuzz_root, tmp_path, kind, fault):
        """Each command that reads an input exits 2 naming it, and writes
        nothing, when the input is missing, a directory, not UTF-8 text, or
        named by a path holding a NUL."""
        for k in range(len(input_readers(tmp_path)[kind][1])):
            case = tmp_path / f"case-{k}"
            shutil.copytree(workspace / "data", case / "data")
            shutil.copytree(workspace / "data" / "annotations", case / "preds")
            shutil.copyfile(fuzz_root / "model.ckpt", case / "model.ckpt")
            (case / "run.cfg").write_text((workspace / "run.cfg").read_text().replace(
                str(workspace / "data"), str(case / "data")))
            path, readers = input_readers(case)[kind]
            argv = readers[k]
            if fault == "missing" and str(path.parent) in argv:  # a track directory
                shutil.rmtree(path.parent)
                expected = f"missing track directory: {path.parent}"
            elif fault == "missing":
                path.unlink()
                expected = f"missing file: {path}"
            elif fault == "directory":
                path.unlink()
                path.mkdir()
                expected = f"missing file: {path}"
            elif fault == "not-utf8":
                head, _, rest = path.read_bytes().partition(b"\n")
                path.write_bytes(head + b"\n\xe9" + rest)
                expected = f"{path}:2: not UTF-8 text"
            else:
                path = case / "data" / "manifest\x00.txt"
                (case / "run.cfg").write_text(f"manifest = {path}\nprofile = run1\n")
                expected = f"missing file: {str(path)!r}"  # the NUL shown escaped
            rc, err = run_cli([*argv, "--out", str(case / "out")])
            assert rc == 2, (argv, err)
            assert expected in err, (argv, err)
            assert not (case / "out").exists()

    @pytest.mark.parametrize("command, where", UNWRITABLE_CASES,
                             ids=[f"{command}-{where}" for command, where in UNWRITABLE_CASES])
    def test_unwritable_output_is_exit_2(self, workspace, fuzz_root, tmp_path, monkeypatch,
                                         command, where):
        """An output on an existing file, under one, or at a path holding a
        NUL exits 2 naming the output that cannot be written, and writes
        nothing. Every command refuses it before its work starts (generating,
        training, inference, or reading the track directories), and shows a
        NUL escaped."""
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        cfg = workspace / "run.cfg"
        if where == "config-nul":
            out = tmp_path / "r\x00x"
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{(workspace / 'run.cfg').read_text()}out = {out}\n")
        else:
            out = blocker if where == "on-file" else blocker / "x"
        annotations = str(workspace / "data" / "annotations")
        argv = {
            "synth": ["synth", "--movies", "1", "--length", "5"],
            "train": ["train", "--config", str(cfg)],
            "predict": ["predict", "--config", str(cfg),
                        "--checkpoint", str(fuzz_root / "model.ckpt")],
            "smooth": ["smooth", "--predictions", annotations],
            "ensemble": ["ensemble", "--runs", annotations, annotations],
            "evaluate": ["evaluate", "--predictions", annotations, "--annotations", annotations],
        }[command]
        def no_work(*args, **kwargs):
            raise AssertionError("the work started before --out was checked")

        for work in ("synth_generate", "train_run", "predict_tracks", "load_prediction_dirs"):
            monkeypatch.setattr(cli, work, no_work)
        rc, err = run_cli(argv if where == "config-nul" else [*argv, "--out", str(out)])
        assert rc == 2, err
        if where == "config-nul":
            assert f"cannot write {str(out)!r}: embedded null byte\n" in err, err
        else:
            assert f"cannot write {out}: Not a directory\n" in err, err
        assert blocker.read_text() == "kept\n"
        assert {p.name for p in tmp_path.iterdir()} <= {"file", "run.cfg"}

    @pytest.mark.parametrize("source, setting", [("flag", "--weights"), ("config", "ma_weights")])
    def test_moving_average_longer_than_track_is_exit_2(self, workspace, tmp_path, capsys,
                                                        source, setting):
        preds = tmp_path / "preds"
        preds.mkdir()
        track = preds / "m000.csv"
        lines = (workspace / "data" / "annotations" / "m000.csv").read_text().splitlines()
        track.write_text("\n".join(lines[:6]) + "\n")  # 5 seconds
        if source == "flag":
            settings = ["--smoother", "moving_average", "--weights", "1,1,1,1,1,1,1"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"manifest = {workspace / 'data' / 'manifest.txt'}\n"
                           "smoother = moving_average\nma_weights = 1,1,1,1,1,1,1\n")
            settings = ["--config", str(cfg)]
        rc = main(["smooth", *settings, "--predictions", str(preds),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{track}: track of length 5" in err and setting in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_causal_moving_average_is_exit_2(self, workspace, tmp_path, capsys, source):
        if source == "flag":
            settings = ["--smoother", "moving_average"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"manifest = {workspace / 'data' / 'manifest.txt'}\n"
                           "smoother = moving_average\n")
            settings = ["--config", str(cfg)]
        rc = main(["smooth", *settings, "--causal", "--predictions",
                   str(workspace / "data" / "annotations"), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--causal" in err and "moving_average" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow to inf is the point
    def test_exploding_run_is_numeric_failure(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "explode.cfg"
        cfg.write_text(
            f"manifest = {workspace / 'data' / 'manifest.txt'}\n"
            "profile = run1\n"
            "epochs = 2\n"
            "sequence_length = 10\n"
            "hidden_units = 4\n"
            "learning_rate = 1e200\n"
        )
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "numeric" in capsys.readouterr().err

    @pytest.mark.parametrize("aggregation", ["macro_per_movie", "pooled"])
    def test_one_second_movie_in_evaluate_names_the_movie(self, tmp_path, capsys, aggregation):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--movies", "2", "--length", "1"]) == 0
        capsys.readouterr()
        rc = main(["evaluate", "--predictions", str(data / "annotations"),
                   "--annotations", str(data / "annotations"), "--out", str(tmp_path / "o"),
                   "--aggregation", aggregation])
        assert rc == 0
        # each movie is named in the report, with its PCC undefined and counted
        report = (tmp_path / "o" / "report.csv").read_text()
        for movie in ("m000", "m001"):
            assert f"{movie}.valence_pcc,per_movie,undefined" in report
            assert f"{movie}.arousal_pcc,per_movie,undefined" in report
        if aggregation == "macro_per_movie":
            assert f"valence_pcc_undefined_movies,{aggregation},2" in report

    def test_batch_norm_on_one_training_window_names_manifest_and_setting(self, tmp_path,
                                                                          capsys):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--movies", "1", "--length", "1"]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"manifest = {data / 'manifest.txt'}\nprofile = run3\nbatch_size = 4\n")
        capsys.readouterr()
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"affectseq: {data / 'manifest.txt'}: batch normalization (enable_batchnorm, or "
            "profiles run2-run4) needs >= 2 training windows, got 1\n")
        assert not (tmp_path / "o").exists()


TRACK_FAULTS = ("header", "empty", "short_row", "token", "nan", "gap", "movie_id")
# not numbers, though float.fromhex reads the first three as 2748, 30 and 255,
# float() reads "1_0" as 10.0, and "0x1p-3" is a hex float, which tracks do not hold
BAD_TOKENS = ("abc", "1e", "ff", "", "1.2.3", "0x", "n/a", "1_0", "0x1p-3")


def mangle_track(path, fault, row, col, token):
    """Break one track CSV in place; returns the line number at fault, or
    None when the fault is in the file as a whole."""
    if fault == "empty":
        path.write_text("")
        return None
    lines = path.read_text().splitlines()
    if fault == "header":
        lines[0] = lines[0].replace(",t,", ",sec,")
        lineno = None
    else:
        fields = lines[row].split(",")
        if fault == "short_row":
            fields.pop()
        elif fault in ("token", "nan"):
            fields[2 + col] = token if fault == "token" else "nan"
        elif fault == "gap":
            fields[1] = str(int(fields[1]) + 1)
        else:
            fields[0] += "x"
        lines[row] = ",".join(fields)
        # the first data row sets the file's movie id, so a changed id there shows at the next
        lineno = max(row, 2) + 1 if fault == "movie_id" else row + 1
    path.write_text("\n".join(lines) + "\n")
    return lineno


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def assert_names_fault(rc, err, path, lineno):
    assert rc == 2, err
    assert str(path) in err, err
    if lineno is not None:
        assert f"{path}:{lineno}:" in err, err


@pytest.fixture(scope="module")
def fuzz_root(workspace, tmp_path_factory):
    """Parent of one fresh directory per example; holds the untrained
    checkpoint of the workspace's configuration."""
    root = tmp_path_factory.mktemp("fuzz")
    init_model_params(parse_config(workspace / "run.cfg").model_config(), 0).save(
        root / "model.ckpt")
    return root


def check_feature_csv_in_predict(workspace, fuzz_root, fault, row, col, token):
    case = fuzz_root / f"predict-{len(list(fuzz_root.iterdir()))}"
    shutil.copytree(workspace / "data", case / "data")
    path = case / "data" / "features" / "audio" / "m001.csv"
    lineno = mangle_track(path, fault, row, col, token)
    cfg = case / "run.cfg"
    cfg.write_text((workspace / "run.cfg").read_text().replace(
        str(workspace / "data"), str(case / "data")))
    rc, err = run_cli(["predict", "--config", str(cfg), "--checkpoint",
                       str(fuzz_root / "model.ckpt"), "--out", str(case / "out")])
    assert_names_fault(rc, err, path, lineno)
    assert not (case / "out").exists()


def check_prediction_csv_in_smooth_and_evaluate(workspace, fuzz_root, fault, row, col, token):
    case = fuzz_root / f"tracks-{len(list(fuzz_root.iterdir()))}"
    shutil.copytree(workspace / "data" / "annotations", case / "preds")
    path = case / "preds" / "m001.csv"
    lineno = mangle_track(path, fault, row, col, token)
    for argv in (["smooth", "--predictions", str(case / "preds"), "--config",
                  str(workspace / "run.cfg")],
                 ["evaluate", "--predictions", str(case / "preds"), "--annotations",
                  str(workspace / "data" / "annotations")]):
        rc, err = run_cli([*argv, "--out", str(case / "out")])
        assert_names_fault(rc, err, path, lineno)
        assert not (case / "out").exists()


class TestMalformedTracks:
    """Every malformed feature or prediction CSV exits 2 naming the file,
    and the line for a row fault, before anything is written. The fuzz
    draws faults at random; every bad token also has a pinned case."""

    @given(fault=st.sampled_from(TRACK_FAULTS), row=st.integers(1, 49), col=st.integers(0, 2),
           token=st.sampled_from(BAD_TOKENS))
    @settings(max_examples=100, deadline=None)
    def test_feature_csv_in_predict(self, workspace, fuzz_root, fault, row, col, token):
        check_feature_csv_in_predict(workspace, fuzz_root, fault, row, col, token)

    @given(fault=st.sampled_from(TRACK_FAULTS), row=st.integers(1, 49), col=st.integers(0, 1),
           token=st.sampled_from(BAD_TOKENS))
    @settings(max_examples=100, deadline=None)
    def test_prediction_csv_in_smooth_and_evaluate(self, workspace, fuzz_root, fault, row, col,
                                                   token):
        check_prediction_csv_in_smooth_and_evaluate(workspace, fuzz_root, fault, row, col, token)

    @pytest.mark.parametrize("token", BAD_TOKENS, ids=repr)
    def test_each_token_in_feature_csv(self, workspace, fuzz_root, token):
        check_feature_csv_in_predict(workspace, fuzz_root, "token", 7, 1, token)

    @pytest.mark.parametrize("token", BAD_TOKENS, ids=repr)
    def test_each_token_in_prediction_csv(self, workspace, fuzz_root, token):
        check_prediction_csv_in_smooth_and_evaluate(workspace, fuzz_root, "token", 7, 1, token)


def split_checkpoint(data):
    """(header and index lines, payload) of a v2 checkpoint's bytes."""
    end = data.find(b"\n\n")
    return data[:end].split(b"\n"), data[end + 2:]


CHECKPOINT_FAULTS = ("truncate", "append", "drop_blank", "dims", "dup_line", "del_line",
                     "nonfinite", "header")
# quiet and signalling NaNs of both signs, and both infinities
NONFINITE_BITS = (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                  0x7FF0000000000000, 0xFFF0000000000000)


def mangle_checkpoint(path, fault, pick, text, blob, bits):
    """Apply one fault to a v2 checkpoint in place; returns the line number
    at fault when the fault pins one, else None."""
    (header, *index), payload = split_checkpoint(path.read_bytes())
    ends = list(itertools.accumulate(
        math.prod(int(d) for d in line.split(b" ")[1].split(b",")) for line in index))
    lineno = None
    row = pick % len(index)
    if fault == "truncate":
        cut = pick % len(payload)
        payload = payload[:cut]
        lineno = 2 + next(k for k, end in enumerate(ends) if 8 * end > cut)
    elif fault == "append":
        payload += blob
    elif fault == "nonfinite":
        at = pick % ends[-1]
        payload = payload[:8 * at] + struct.pack("<Q", bits) + payload[8 * at + 8:]
        lineno = 2 + next(k for k, end in enumerate(ends) if end > at)
    elif fault == "dims":
        index[row] = index[row].split(b" ")[0] + b" " + text.encode()
    elif fault == "dup_line":
        index.insert(row, index[row])
    elif fault == "del_line":
        del index[row]
    elif fault == "header":
        at = pick % len(header)
        header = header[:at] + bytes([header[at] ^ (blob[0] | 1)]) + header[at + 1:]
    blank = b"\n" if fault == "drop_blank" else b"\n\n"
    path.write_bytes(b"\n".join([header, *index]) + blank + payload)
    return lineno


def check_checkpoint_in_predict(workspace, fuzz_root, fault, pick, text, blob, bits):
    """``predict`` over a mangled checkpoint exits 0 or 2, never 1 or 3; on
    2 it names the checkpoint (and the line, when the fault pins one) and
    writes nothing. Returns the exit code."""
    case = fuzz_root / f"ckpt-{len(list(fuzz_root.iterdir()))}"
    case.mkdir()
    ckpt = case / "model.ckpt"
    shutil.copyfile(fuzz_root / "model.ckpt", ckpt)
    lineno = mangle_checkpoint(ckpt, fault, pick, text, blob, bits)
    rc, err = run_cli(["predict", "--config", str(workspace / "run.cfg"),
                       "--checkpoint", str(ckpt), "--out", str(case / "out")])
    assert rc in (0, 2), err
    if rc == 2:
        assert_names_fault(rc, err, ckpt, lineno)
        assert not (case / "out").exists()
    return rc


class TestMalformedCheckpoints:
    """Every malformed v2 checkpoint exits 2 naming the file before
    anything is written. The fuzz draws faults at random; every fault kind
    also has a pinned case."""

    @given(fault=st.sampled_from(CHECKPOINT_FAULTS), pick=st.integers(0, 2 ** 20),
           text=st.text(max_size=12) | st.integers(2 ** 31, 10 ** 40).map(str)
           | st.sampled_from(["3037000500,3037000500", "9" * 5000, ",".join("1" * 65)]),
           blob=st.binary(min_size=1, max_size=16), bits=st.sampled_from(NONFINITE_BITS))
    @settings(max_examples=100, deadline=None)
    def test_fuzzed_checkpoint_in_predict(self, workspace, fuzz_root, fault, pick, text, blob,
                                          bits):
        check_checkpoint_in_predict(workspace, fuzz_root, fault, pick, text, blob, bits)

    @pytest.mark.parametrize("fault, text, bits", [
        ("truncate", "", NONFINITE_BITS[0]),
        ("append", "", NONFINITE_BITS[0]),
        ("drop_blank", "", NONFINITE_BITS[0]),
        ("dims", "4,x", NONFINITE_BITS[0]),
        ("dims", "2,2", NONFINITE_BITS[0]),  # right count, wrong shape
        ("dims", "3037000500,3037000500", NONFINITE_BITS[0]),
        ("dims", "1000000000000000000000000000000", NONFINITE_BITS[0]),
        ("dup_line", "", NONFINITE_BITS[0]),
        ("del_line", "", NONFINITE_BITS[0]),
        *(("nonfinite", "", bits) for bits in NONFINITE_BITS),
        ("header", "", NONFINITE_BITS[0]),
    ], ids=lambda v: hex(v) if isinstance(v, int) else v)
    def test_each_fault_in_predict(self, workspace, fuzz_root, fault, text, bits):
        assert check_checkpoint_in_predict(workspace, fuzz_root, fault, 37, text, b"\x00",
                                           bits) == 2


@pytest.fixture(scope="module")
def run_a(workspace):
    """The whole chain at the workspace's seed."""
    return run_pipeline(workspace, "runA")


@pytest.fixture(scope="module")
def run_d(workspace):
    """The whole chain at another seed."""
    return run_pipeline(workspace, "runD", seed="4")


def test_predict_does_not_depend_on_batch_size(tmp_path):
    """``batch_size`` bounds prediction's memory only: a run3 (batch-norm)
    checkpoint predicts the same tracks at 64 and at 128 windows a batch,
    to within how BLAS rounds another row count (``oracles.prediction_drift``)."""
    assert main(["synth", "--out", str(tmp_path / "data"), "--movies", "2", "--length", "300",
                 "--modalities", "audio:3,image:2", "--seed", "7"]) == 0
    for size in (64, 128):
        (tmp_path / f"b{size}.cfg").write_text(
            f"manifest = {tmp_path / 'data' / 'manifest.txt'}\nprofile = run3\nseed = 3\n"
            f"epochs = 1\nsequence_length = 10\nhidden_units = 4\nbatch_size = {size}\n")
    checkpoint = tmp_path / "model" / "model.ckpt"
    assert main(["train", "--config", str(tmp_path / "b64.cfg"),
                 "--out", str(checkpoint.parent)]) == 0
    tracks = {}
    for size in (64, 128):
        assert main(["predict", "--config", str(tmp_path / f"b{size}.cfg"), "--checkpoint",
                     str(checkpoint), "--out", str(tmp_path / f"raw{size}")]) == 0
        tracks[size] = load_prediction_dirs(tmp_path / f"raw{size}")[0]
    cfg = parse_config(tmp_path / "b64.cfg")
    drift = oracles.prediction_drift(ParamStore.load(checkpoint), cfg.model_config(),
                                     load_dataset(cfg.manifest, with_annotations=False)[0])
    assert sorted(tracks[64]) == sorted(tracks[128]) == sorted(drift) == ["m000", "m001"]
    for movie, (_, bound) in drift.items():
        assert tracks[64][movie].shape == (300, 2)
        assert np.all(np.abs(tracks[64][movie] - tracks[128][movie]) <= bound)


class TestPipeline:
    def test_full_chain_produces_defined_metrics(self, run_a):
        report = (run_a / "eval" / "report.csv").read_text().splitlines()
        headline = {line.split(",")[0]: line.split(",")[2]
                    for line in report[1:5]}
        for key in ("valence_mse", "valence_pcc", "arousal_mse", "arousal_pcc"):
            assert headline[key] != "undefined"
            float(headline[key])
        text = (run_a / "eval" / "report.txt").read_text()
        assert "Valence MSE  Valence PCC  Arousal MSE  Arousal PCC" in text

    def test_training_artifacts(self, run_a):
        log = (run_a / "model" / "training_log.csv").read_text().splitlines()
        assert log[0].startswith("epoch,train_loss,")
        assert len(log) == 3  # header + 2 epochs
        for row in log[1:]:
            loss = float(row.split(",")[1])
            assert np.isfinite(loss)
        resolved = (run_a / "model" / "resolved_config.txt").read_text()
        assert "dropout_rate = 0.0" in resolved
        assert "# resolved from profile: run1" in resolved

    def test_prediction_files_reload(self, run_a):
        preds = load_prediction_dirs(run_a / "raw")[0]
        assert sorted(preds) == ["m000", "m001"]
        assert preds["m000"].shape == (50, 2)
        assert np.all(np.abs(preds["m000"]) < 1.0)

    def test_determinism_byte_identical(self, workspace, run_a):
        out_c = run_pipeline(workspace, "runC")
        for rel in ("model/model.ckpt", "model/training_log.csv",
                    "model/resolved_config.txt", "raw/m000.csv", "raw/m001.csv",
                    "smooth/m000.csv", "smooth/m001.csv",
                    "eval/report.csv", "eval/report.txt"):
            ba = (run_a / rel).read_bytes()
            bc = (out_c / rel).read_bytes()
            assert ba == bc, f"{rel} differs between identical runs"

    def test_different_seed_changes_outputs(self, run_a, run_d):
        assert (run_a / "raw" / "m000.csv").read_bytes() != \
            (run_d / "raw" / "m000.csv").read_bytes()

    def test_ensemble_of_duplicate_dir_is_identity(self, run_a, tmp_path):
        raw = run_a / "raw"
        out = tmp_path / "ens"
        assert main(["ensemble", "--runs", str(raw), str(raw),
                     "--out", str(out)]) == 0
        for movie in ("m000", "m001"):
            a = load_prediction_dirs(raw)[0][movie]
            b = load_prediction_dirs(out)[0][movie]
            np.testing.assert_array_equal(a, b)

    def test_ensemble_averages_two_runs(self, run_a, run_d, tmp_path):
        out = tmp_path / "ens2"
        assert main(["ensemble", "--runs", str(run_a / "raw"), str(run_d / "raw"),
                     "--out", str(out)]) == 0
        pa = load_prediction_dirs(run_a / "raw")[0]["m000"]
        pd = load_prediction_dirs(run_d / "raw")[0]["m000"]
        pe = load_prediction_dirs(out)[0]["m000"]
        np.testing.assert_allclose(pe, (pa + pd) / 2.0, atol=1e-15)

    def test_predict_validation_split(self, workspace, run_a, tmp_path):
        dest = tmp_path / "valpred"
        assert main(["predict", "--config", str(workspace / "run.cfg"),
                     "--checkpoint", str(run_a / "model" / "model.ckpt"),
                     "--out", str(dest), "--split", "validation"]) == 0
        assert sorted(load_prediction_dirs(dest)[0]) == ["m001"]

    def test_predict_split_reads_only_its_movies(self, workspace, run_a, tmp_path, capsys):
        """A split's predict reads only its own movies' features: a broken
        track of the training movie stops ``--split all`` alone."""
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        cfg = tmp_path / "run.cfg"
        cfg.write_text((workspace / "run.cfg").read_text().replace(
            str(workspace / "data"), str(data)))
        broken = data / "features" / "audio" / "m000.csv"
        broken.write_bytes(b"\xff\xfe")
        predict = ["predict", "--config", str(cfg),
                   "--checkpoint", str(run_a / "model" / "model.ckpt")]
        assert main([*predict, "--out", str(tmp_path / "val"), "--split", "validation"]) == 0
        assert sorted(load_prediction_dirs(tmp_path / "val")[0]) == ["m001"]
        capsys.readouterr()
        assert main([*predict, "--out", str(tmp_path / "all"), "--split", "all"]) == 2
        assert capsys.readouterr().err == f"affectseq: {broken}:1: not UTF-8 text\n"

    def test_smooth_standalone_flags(self, run_a, tmp_path):
        raw = run_a / "raw"
        dest = tmp_path / "sm"
        assert main(["smooth", "--predictions", str(raw), "--out", str(dest),
                     "--smoother", "moving_average", "--weights", "1,2,1"]) == 0
        assert sorted(load_prediction_dirs(dest)[0]) == ["m000", "m001"]
        assert main(["smooth", "--predictions", str(raw), "--out", str(tmp_path / "bw"),
                     "--order", "4", "--cutoff", "0.3"]) == 0

    def test_checkpoint_architecture_mismatch_is_exit_2(self, workspace, run_a, tmp_path,
                                                        capsys):
        wider = tmp_path / "wider.cfg"
        wider.write_text(
            f"manifest = {workspace / 'data' / 'manifest.txt'}\n"
            "profile = run1\nsequence_length = 10\nhidden_units = 8\n"
        )
        rc = main(["predict", "--config", str(wider),
                   "--checkpoint", str(run_a / "model" / "model.ckpt"),
                   "--out", str(tmp_path / "p")])
        assert rc == 2
        assert "checkpoint" in capsys.readouterr().err

        lstm = tmp_path / "lstm.cfg"
        lstm.write_text(
            f"manifest = {workspace / 'data' / 'manifest.txt'}\n"
            "profile = run1\nsequence_length = 10\nhidden_units = 4\ncell = lstm\n"
        )
        rc = main(["predict", "--config", str(lstm),
                   "--checkpoint", str(run_a / "model" / "model.ckpt"),
                   "--out", str(tmp_path / "p")])
        assert rc == 2

    def test_misaligned_ensemble_is_exit_2(self, run_a, tmp_path, capsys):
        raw = run_a / "raw"
        partial = tmp_path / "partial"
        partial.mkdir()
        (partial / "m000.csv").write_text((raw / "m000.csv").read_text())
        rc = main(["ensemble", "--runs", str(raw), str(partial),
                   "--out", str(tmp_path / "e")])
        assert rc == 2


# Values each config key's parser refuses; hidden_units.audio is the
# per-modality override of hidden_units.
BAD_CONFIG_VALUES = {
    "profile": ("run9", "Run1", ""), "seed": ("1.5", "abc"), "epochs": ("0", "x"),
    "batch_size": ("0", "-3"), "learning_rate": ("-1", "inf", "nan"),
    "adam_beta1": ("1.5", "-0.1"), "adam_beta2": ("2", "nan"),
    "adam_epsilon": ("0", "-1e-8"), "cell": ("rnn", "GRU"),
    "hidden_units": ("0", "4,4,4", "a"), "hidden_units.audio": ("0", "4,4,4"),
    "sequence_length": ("0", "1e3"), "dropout_rate": ("1", "-0.1", "nan"),
    "enable_batchnorm": ("yes", "1"), "train_fraction": ("0", "1.5"),
    "num_experts": ("0", "2.0"), "l2_lambda": ("-1", "inf"), "cg2_position": ("middle",),
    "bn_epsilon": ("0", "-inf"), "smoother": ("kalman",),
    "butter_order": ("0", "5"), "butter_cutoff": ("0", "1"),
    "ma_weights": ("1,1", ",", "1,-1,1"), "early_stop_patience": ("-1",),
}
# Values each manifest key refuses without reading a track.
BAD_MANIFEST_VALUES = {
    "modalities": ("audio:x", "audio:0", "audio:3, audio:3", "audio", "",
                   *(f"{name}:3" for name in NOT_PLAIN_NAMES)),
    # m001 stays, so validation_movies = m001 holds and only the name is at fault
    "movies": ("m000:abc", "m000:50, m000:50", "m000:0", "",
               *(f"m001:50, {name}:50" for name in [*NOT_PLAIN_NAMES, "../x"])),
    "annotation_range": ("0, b", "1, -1", "-inf, inf", "0, nan", "-1e308, 1e308", "1",
                         "0,1,2"),
    "validation_movies": ("m999",),
}
# enable_dropout, bn_momentum and use_batch_stats_at_inference were keys once
RETIRED_KEYS = ("enable_dropout", "bn_momentum", "use_batch_stats_at_inference")
# the run config alone sets train_fraction; manifests once carried it too
RETIRED_MANIFEST_KEYS = ("train_fraction",)
UNKNOWN_KEYS = (*RETIRED_KEYS, "optimizer", "Seed", "hidden_units_audio")
OWNED = tuple((profile, key) for profile, preset in config._PROFILE_PRESETS.items()
              for key in preset)
# values a profile-owned key would accept anywhere else
OWNED_VALUES = {"dropout_rate": ("0.3", "0", "0.5"), "enable_batchnorm": ("true", "false"),
                "train_fraction": ("0.5", "0.7")}
CONFIG_FAULTS = ("value", "unknown", "owned", "duplicate", "syntax", "no_manifest",
                 "override", "batchnorm_batch")
MANIFEST_FAULTS = ("value", "unknown", "missing", "duplicate", "syntax")


def write_lines(path, items, extra=()):
    """``key = value`` lines from a dict, then the raw ``extra`` lines."""
    lines = [f"{k} = {v}" for k, v in items.items()]
    path.write_text("\n".join([*lines, *extra]) + "\n")


def check_settings_in_train_and_predict(fuzz_root, cfg, file, needles):
    """``train`` and ``predict`` on ``cfg`` both exit 2, name ``file`` and
    every needle, and write nothing."""
    out = cfg.parent / "out"
    for argv in (["train", "--config", str(cfg)],
                 ["predict", "--config", str(cfg), "--checkpoint",
                  str(fuzz_root / "model.ckpt")]):
        rc, err = run_cli([*argv, "--out", str(out)])
        assert rc == 2, err
        assert str(file) in err, err
        for needle in needles:
            assert needle in err, (needle, err)
        assert not out.exists()


def check_config_fault(workspace, fuzz_root, fault, key, value, pick):
    case = fuzz_root / f"config-{len(list(fuzz_root.iterdir()))}"
    case.mkdir()
    cfg = case / "run.cfg"
    items = {"manifest": workspace / "data" / "manifest.txt", "seed": "3",
             "sequence_length": "10", "hidden_units": "4", "epochs": "1"}
    extra = []
    if fault == "value":
        items[key] = value
        needles = [f"{cfg}: key {key}: "]
    elif fault == "unknown":
        items[key] = value
        needles = [f"{cfg}: unknown config keys: ['{key}']"]
    elif fault == "owned":
        profile, key = OWNED[pick % len(OWNED)]
        items.update({"profile": profile, key: OWNED_VALUES[key][pick % len(OWNED_VALUES[key])]})
        needles = [f"{cfg}: profile {profile} fixes {key};"]
    elif fault == "duplicate":
        key = list(items)[pick % len(items)]
        extra = [f"{key} = {items[key]}"]
        needles = [f"{cfg}:{len(items) + 1}: duplicate key '{key}'"]
    elif fault == "syntax":
        extra = [f"{key} {value}"]
        needles = [f"{cfg}:{len(items) + 1}: expected 'key = value'"]
    elif fault == "no_manifest":
        del items["manifest"]
        needles = [f"{cfg}: missing required key 'manifest'"]
    elif fault == "override":
        items[f"hidden_units.{key}"] = "4"
        needles = [f"{cfg}: key hidden_units.{key}: modality not in manifest"]
    else:  # batch norm, switched on or preset by a profile, with one-window batches
        items["batch_size"] = "1"
        if pick % 4:
            items["profile"] = f"run{pick % 4 + 1}"
        else:
            items["enable_batchnorm"] = "true"
        needles = [f"{cfg}: key batch_size: batch normalization"]
    write_lines(cfg, items, extra)
    check_settings_in_train_and_predict(fuzz_root, cfg, cfg, needles)


def check_manifest_fault(workspace, fuzz_root, fault, key, value, pick):
    case = fuzz_root / f"manifest-{len(list(fuzz_root.iterdir()))}"
    case.mkdir()
    manifest = case / "manifest.txt"
    items = dict(line.split(" = ", 1) for line in
                 (workspace / "data" / "manifest.txt").read_text().splitlines()
                 if " = " in line)
    extra = []
    if fault == "value":
        items[key] = value
        needles = [f"{manifest}: key {key}: "]
    elif fault == "unknown":
        items[key] = value
        needles = [f"{manifest}: unknown manifest keys: ['{key}']"]
    elif fault == "missing":
        key = ("modalities", "movies")[pick % 2]
        del items[key]
        needles = [f"{manifest}: missing required key '{key}'"]
    elif fault == "duplicate":
        key = list(items)[pick % len(items)]
        extra = [f"{key} = {items[key]}"]
        needles = [f"{manifest}:{len(items) + 1}: duplicate key '{key}'"]
    else:
        extra = [f"{key} {value}"]
        needles = [f"{manifest}:{len(items) + 1}: expected 'key = value'"]
    write_lines(manifest, items, extra)
    cfg = case / "run.cfg"
    write_lines(cfg, {"manifest": "manifest.txt", "profile": "run1"})
    check_settings_in_train_and_predict(fuzz_root, cfg, manifest, needles)


@st.composite
def config_faults(draw):
    fault = draw(st.sampled_from(CONFIG_FAULTS))
    if fault == "value":
        key = draw(st.sampled_from(sorted(BAD_CONFIG_VALUES)))
        return fault, key, draw(st.sampled_from(BAD_CONFIG_VALUES[key]))
    if fault == "unknown":
        return fault, draw(st.sampled_from(UNKNOWN_KEYS)), draw(st.sampled_from(("true", "1")))
    if fault == "override":
        return fault, draw(st.sampled_from(("faces", "Audio", "image2"))), ""
    return fault, draw(st.sampled_from(("seed", "cell", "x"))), draw(st.sampled_from(("", "1")))


@st.composite
def manifest_faults(draw):
    fault = draw(st.sampled_from(MANIFEST_FAULTS))
    if fault == "value":
        key = draw(st.sampled_from(sorted(BAD_MANIFEST_VALUES)))
        return fault, key, draw(st.sampled_from(BAD_MANIFEST_VALUES[key]))
    if fault == "unknown":
        return fault, draw(st.sampled_from((*UNKNOWN_KEYS, *RETIRED_MANIFEST_KEYS))), "1"
    return fault, draw(st.sampled_from(("movies", "x"))), draw(st.sampled_from(("", "1")))


class TestMalformedSettings:
    """Every malformed config or manifest makes ``train`` and ``predict``
    exit 2, naming the file and the key at fault (the line, for a line that
    is not ``key = value``), before anything is written. The fuzz draws
    faults at random; every fault kind, every bad value and every
    profile-owned ``dropout_rate`` also has a pinned case."""

    @given(case=config_faults(), pick=st.integers(0, 2 ** 16))
    @settings(max_examples=100, deadline=None)
    def test_fuzzed_config(self, workspace, fuzz_root, case, pick):
        check_config_fault(workspace, fuzz_root, *case, pick)

    @given(case=manifest_faults(), pick=st.integers(0, 2 ** 16))
    @settings(max_examples=100, deadline=None)
    def test_fuzzed_manifest(self, workspace, fuzz_root, case, pick):
        check_manifest_fault(workspace, fuzz_root, *case, pick)

    @pytest.mark.parametrize("fault, key, value, pick", [
        ("unknown", "enable_dropout", "true", 0),
        ("unknown", "enable_dropout", "false", 0),
        *(("owned", "", "", OWNED.index((p, "dropout_rate")))
          for p in ("run1", "run2", "run3", "run4")),
        ("owned", "", "", OWNED.index(("run3", "enable_batchnorm"))),
        ("owned", "", "", OWNED.index(("run2", "train_fraction"))),
        ("duplicate", "", "", 1),
        ("syntax", "seed", "1", 0),
        ("no_manifest", "", "", 0),
        ("override", "faces", "", 0),
        *(("batchnorm_batch", "", "", pick) for pick in range(4)),
    ], ids=str)
    def test_each_config_fault(self, workspace, fuzz_root, fault, key, value, pick):
        check_config_fault(workspace, fuzz_root, fault, key, value, pick)

    @pytest.mark.parametrize("key, value", [(k, v) for k, values in BAD_CONFIG_VALUES.items()
                                            for v in values], ids=str)
    def test_each_bad_config_value(self, workspace, fuzz_root, key, value):
        check_config_fault(workspace, fuzz_root, "value", key, value, 0)

    @pytest.mark.parametrize("key", RETIRED_KEYS)
    def test_each_retired_config_key(self, workspace, fuzz_root, key):
        check_config_fault(workspace, fuzz_root, "unknown", key, "true", 0)

    @pytest.mark.parametrize("fault, key, value, pick", [
        *(("value", k, v, 0) for k, values in BAD_MANIFEST_VALUES.items() for v in values),
        ("unknown", "enable_dropout", "1", 0),
        ("missing", "", "", 0),
        ("missing", "", "", 1),
        ("duplicate", "", "", 1),
        ("syntax", "movies", "", 0),
    ], ids=str)
    def test_each_manifest_fault(self, workspace, fuzz_root, fault, key, value, pick):
        check_manifest_fault(workspace, fuzz_root, fault, key, value, pick)

    # 1.0 is what synth wrote into every manifest while the key was one
    @pytest.mark.parametrize("key", RETIRED_MANIFEST_KEYS)
    @pytest.mark.parametrize("value", ["1.0", "0.5"])
    def test_each_retired_manifest_key(self, workspace, fuzz_root, key, value):
        check_manifest_fault(workspace, fuzz_root, "unknown", key, value, 0)


def test_settable_surface():
    """Every CLI flag, config key and manifest key, as sets: a new knob
    fails here until it is listed."""
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {(name, option) for name, sub in commands.choices.items()
             for action in sub._actions for option in action.option_strings
             if option not in ("-h", "--help")}
    expected = {
        "synth": ("out", "movies", "length", "modalities", "noise", "noise-override", "lag",
                  "seed", "validation"),
        "train": ("config", "out", "seed", "profile"),
        "predict": ("config", "checkpoint", "out", "split", "seed"),
        "smooth": ("predictions", "out", "config", "smoother", "order", "cutoff", "weights",
                   "causal"),
        "ensemble": ("runs", "out"),
        "evaluate": ("predictions", "annotations", "out", "aggregation"),
    }
    assert flags == {(name, f"--{flag}") for name, names in expected.items() for flag in names}
    assert len(flags) == 32
    assert config._KNOWN_KEYS == {
        "manifest", "out", "profile", "seed", "epochs", "batch_size", "learning_rate",
        "adam_beta1", "adam_beta2", "adam_epsilon", "cell", "hidden_units",
        "sequence_length", "dropout_rate", "enable_batchnorm", "train_fraction",
        "num_experts", "l2_lambda", "cg2_position", "bn_epsilon", "smoother",
        "butter_order", "butter_cutoff", "ma_weights", "early_stop_patience",
    }
    assert len(config._KNOWN_KEYS) == 25
    assert set(declared(DatasetManifest)) == {"modalities", "movies", "annotation_range",
                                              "validation_movies"}
    assert len(declared(DatasetManifest)) == 4


def test_setting_flags_carry_text():
    """A flag that sets a config key or a synth setting leaves its value to
    that setting's parser: argparse neither types nor restricts it."""
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    settings_ = config._KNOWN_KEYS | {*declared(SynthSpec), "seed"}
    actions = [action for sub in commands.choices.values() for action in sub._actions
               if action.dest in settings_ and action.dest != "out"]
    assert len(actions) == 15
    for action in actions:
        assert (action.type, action.choices) == (None, None), action.option_strings


def tree_bytes(root):
    """Every file under ``root``, by relative path, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestSettingLabels:
    """One rule names the setting at fault: the flag when the user typed
    it, else the config file and key it came from."""

    def test_synth_defaults_are_the_records(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "cli")]) == 0
        synth_generate(SynthSpec(), tmp_path / "lib", 1)
        cli_files = tree_bytes(tmp_path / "cli")
        assert cli_files == tree_bytes(tmp_path / "lib")
        assert len(cli_files) == 3 + 3 * 2 + 1  # annotations, features, manifest

    @pytest.mark.parametrize("flag, value, message", [
        ("--order", "9", "9 outside valid range [1, 4]"),
        ("--weights", "1,1", "needs an odd number of weights, got 2"),
    ])
    def test_smooth_flag_over_config_names_the_flag(self, workspace, tmp_path, flag, value,
                                                    message):
        cfg = workspace / "run.cfg"
        rc, err = run_cli(["smooth", "--config", str(cfg), flag, value, "--predictions",
                           str(workspace / "data" / "annotations"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert err == f"affectseq: {flag}: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags", [[], ["--cutoff", "0.2"], ["--smoother", "butterworth"]],
                             ids=["no-flag", "other-flag", "smoother-flag"])
    def test_smooth_config_value_names_file_and_key(self, workspace, tmp_path, flags):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"manifest = {workspace / 'data' / 'manifest.txt'}\nbutter_order = 9\n")
        rc, err = run_cli(["smooth", "--config", str(cfg), *flags, "--predictions",
                           str(workspace / "data" / "annotations"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert err == f"affectseq: {cfg}: key butter_order: 9 outside valid range [1, 4]\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fault", ["dim", "length"])
    def test_feature_csv_at_odds_with_manifest(self, workspace, fuzz_root, tmp_path, fault):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        csv = data / "features" / "audio" / "m001.csv"
        lines = csv.read_text().splitlines()
        if fault == "dim":  # drop the last value column, header included
            lines = [line.rpartition(",")[0] for line in lines]
            needle = f"{csv}: 2 feature columns, but {data / 'manifest.txt'} declares audio:3"
        else:
            lines = lines[:-1]
            needle = f"{csv}: 49 seconds, but {data / 'manifest.txt'} declares m001:50"
        csv.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text((workspace / "run.cfg").read_text().replace(
            str(workspace / "data"), str(data)))
        check_settings_in_train_and_predict(fuzz_root, cfg, csv, [needle])

    @pytest.mark.parametrize("fault", ["dim", "length", "range"])
    def test_dataset_messages_name_the_manifest_file(self, workspace, fuzz_root, tmp_path,
                                                     fault):
        """The config's ``manifest`` key names other.txt, not manifest.txt;
        each dataset message names that file."""
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        manifest = data / "other.txt"
        (data / "manifest.txt").rename(manifest)
        cfg = tmp_path / "run.cfg"
        cfg.write_text((workspace / "run.cfg").read_text().replace(
            str(workspace / "data" / "manifest.txt"), str(manifest)))
        if fault == "range":
            csv = data / "annotations" / "m000.csv"
            csv.write_text(re.sub(r"^m000,3,[^,]*,", "m000,3,7.5,", csv.read_text(), flags=re.M))
            rc, err = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
            assert rc == 2
            assert err == (f"affectseq: {csv}: annotation outside the range [-1.0, 1.0] "
                           f"that {manifest} declares\n")
            return
        csv = data / "features" / "audio" / "m001.csv"
        lines = csv.read_text().splitlines()
        if fault == "dim":
            lines = [line.rpartition(",")[0] for line in lines]
            needle = f"{csv}: 2 feature columns, but {manifest} declares audio:3"
        else:
            lines = lines[:-1]
            needle = f"{csv}: 49 seconds, but {manifest} declares m001:50"
        csv.write_text("\n".join(lines) + "\n")
        check_settings_in_train_and_predict(fuzz_root, cfg, csv, [needle])

    @pytest.mark.parametrize("fault", ["movies", "shape"])
    def test_misaligned_ensemble_names_both_directories(self, workspace, tmp_path, fault):
        first, second = tmp_path / "e1", tmp_path / "e2"
        shutil.copytree(workspace / "data" / "annotations", first)
        shutil.copytree(workspace / "data" / "annotations", second)
        track = second / "m001.csv"
        if fault == "movies":
            track.unlink()
            needle = f"{second} covers different movies than {first}"
        else:
            track.write_text("\n".join(track.read_text().splitlines()[:-1]) + "\n")
            needle = f"{second} has a different track shape for m001 than {first}"
        rc, err = run_cli(["ensemble", "--runs", str(first), str(second),
                           "--out", str(tmp_path / "o")])
        assert rc == 2
        assert err == f"affectseq: {needle}\n"
        assert not (tmp_path / "o").exists()


# a directory name holding ESC: printed raw, "[31m" would turn a terminal red
ESCAPE_DIR = "bad\x1b[31m"


class TestControlBytesInPaths:
    """Each reader shows a path holding a control byte as its ``repr``, so
    no control byte reaches stderr."""

    @staticmethod
    def check(argv, path, message):
        rc, err = run_cli(argv)
        assert rc == 2, err
        assert f"{str(path)!r}{message}" in err, err
        assert "\x1b" not in err

    def test_config(self, workspace, fuzz_root, tmp_path):
        cfg = tmp_path / ESCAPE_DIR / "run.cfg"
        cfg.parent.mkdir()
        cfg.write_text(f"manifest = {workspace / 'data' / 'manifest.txt'}\nbogus = 1\n")
        self.check(["predict", "--config", str(cfg), "--checkpoint", str(fuzz_root / "model.ckpt"),
                    "--out", str(tmp_path / "o")], cfg, ": unknown config keys: ['bogus']")

    def test_manifest(self, workspace, tmp_path):
        data = tmp_path / ESCAPE_DIR
        shutil.copytree(workspace / "data", data)
        manifest = data / "manifest.txt"
        manifest.write_text(manifest.read_text() + "bogus = 1\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"manifest = {manifest}\nprofile = run1\n")
        self.check(["train", "--config", str(cfg), "--out", str(tmp_path / "o")], manifest,
                   ": unknown manifest keys: ['bogus']")

    def test_track_csv(self, workspace, tmp_path):
        preds = tmp_path / ESCAPE_DIR
        shutil.copytree(workspace / "data" / "annotations", preds)
        track = preds / "m001.csv"
        mangle_track(track, "token", 2, 0, "abc")
        self.check(["smooth", "--predictions", str(preds), "--out", str(tmp_path / "o")], track,
                   ":3: bad float literal 'abc'")

    def test_checkpoint(self, workspace, fuzz_root, tmp_path):
        ckpt = tmp_path / ESCAPE_DIR / "model.ckpt"
        ckpt.parent.mkdir()
        ckpt.write_bytes(b"not a checkpoint\n")
        self.check(["predict", "--config", str(workspace / "run.cfg"), "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "o")], ckpt, ": missing checkpoint header")
