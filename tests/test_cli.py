"""End-to-end command-line tests over a small synthetic dataset."""

import contextlib
import io
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectseq.cli import main
from affectseq.config import parse_config
from affectseq.dataio import load_prediction_dir
from affectseq.model import init_model_params


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
        (["synth", "--modalities", "audio:0"], "--modalities"),
        (["synth", "--movies", "0"], "--movies"),
        (["synth", "--length", "0"], "--length"),
        (["synth", "--noise-override", "audio:-1"], "--noise-override"),
    ], ids=["synth-modalities", "synth-noise-override", "smooth-weights", "smooth-order",
            "smooth-cutoff", "synth-validation", "synth-modality-dim", "synth-movies",
            "synth-length", "synth-negative-noise-override"])
    def test_malformed_flag_is_exit_2(self, workspace, tmp_path, capsys, argv, flag):
        # smooth reads real prediction files, so only the flag can be at fault
        where = (["--out", str(tmp_path / "o")] if argv[0] == "synth" else
                 ["--predictions", str(workspace / "data" / "annotations"),
                  "--out", str(tmp_path / "o")])
        assert main([*argv, *where]) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [
        ("movies", "m000:abc"),
        ("modalities", "audio:x"),
        ("train_fraction", "abc"),
        ("annotation_range", "0, b"),
        ("movies", "m000:120, m000:120"),
        ("modalities", "audio:0"),
        ("annotation_range", "1, -1"),
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
        assert str(manifest) in err and key in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fault, lineno", [("non-finite", 2), ("duplicate", 3)])
    def test_malformed_checkpoint_is_exit_2(self, workspace, tmp_path, capsys, fault, lineno):
        ckpt = tmp_path / "model.ckpt"
        init_model_params(parse_config(workspace / "run.cfg").model_config(), 0).save(ckpt)
        lines = ckpt.read_text().splitlines()
        if fault == "non-finite":
            name, dims, _, *values = lines[1].split(" ")
            lines[1] = " ".join([name, dims, "inf", *values])
        else:
            lines.insert(2, lines[1])
        ckpt.write_text("\n".join(lines) + "\n")
        rc = main(["predict", "--config", str(workspace / "run.cfg"),
                   "--checkpoint", str(ckpt), "--out", str(tmp_path / "p")])
        assert rc == 2
        assert f"{ckpt}:{lineno}:" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

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


TRACK_FAULTS = ("header", "empty", "short_row", "token", "nan", "gap", "movie_id")
# not numbers, though float.fromhex reads the first three as 2748, 30 and 255
BAD_TOKENS = ("abc", "1e", "ff", "", "1.2.3", "0x", "n/a")


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


class TestMalformedTracks:
    """Every malformed feature or prediction CSV exits 2 naming the file,
    and the line for a row fault, before anything is written."""

    @given(fault=st.sampled_from(TRACK_FAULTS), row=st.integers(1, 49), col=st.integers(0, 2),
           token=st.sampled_from(BAD_TOKENS))
    @settings(max_examples=100, deadline=None)
    def test_feature_csv_in_predict(self, workspace, fuzz_root, fault, row, col, token):
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

    @given(fault=st.sampled_from(TRACK_FAULTS), row=st.integers(1, 49), col=st.integers(0, 1),
           token=st.sampled_from(BAD_TOKENS))
    @settings(max_examples=100, deadline=None)
    def test_prediction_csv_in_smooth_and_evaluate(self, workspace, fuzz_root, fault, row, col,
                                                   token):
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


class TestPipeline:
    def test_full_chain_produces_defined_metrics(self, workspace):
        out = run_pipeline(workspace, "runA")
        report = (out / "eval" / "report.csv").read_text().splitlines()
        headline = {line.split(",")[0]: line.split(",")[2]
                    for line in report[1:5]}
        for key in ("valence_mse", "valence_pcc", "arousal_mse", "arousal_pcc"):
            assert headline[key] != "undefined"
            float(headline[key])
        text = (out / "eval" / "report.txt").read_text()
        assert "Valence MSE  Valence PCC  Arousal MSE  Arousal PCC" in text

    def test_training_artifacts(self, workspace):
        out = workspace / "runA"
        log = (out / "model" / "training_log.csv").read_text().splitlines()
        assert log[0].startswith("epoch,train_loss,")
        assert len(log) == 3  # header + 2 epochs
        for row in log[1:]:
            loss = float(row.split(",")[1])
            assert np.isfinite(loss)
        resolved = (out / "model" / "resolved_config.txt").read_text()
        assert "enable_dropout = false" in resolved
        assert "# resolved from profile: run1" in resolved

    def test_prediction_files_reload(self, workspace):
        out = workspace / "runA"
        preds = load_prediction_dir(out / "raw")
        assert sorted(preds) == ["m000", "m001"]
        assert preds["m000"].shape == (50, 2)
        assert np.all(np.abs(preds["m000"]) < 1.0)

    def test_determinism_byte_identical(self, workspace):
        out_b = run_pipeline(workspace, "runB")
        out_c = run_pipeline(workspace, "runC")
        for rel in ("model/model.ckpt", "model/training_log.csv",
                    "model/resolved_config.txt", "raw/m000.csv", "raw/m001.csv",
                    "smooth/m000.csv", "smooth/m001.csv",
                    "eval/report.csv", "eval/report.txt"):
            ba = (out_b / rel).read_bytes()
            bc = (out_c / rel).read_bytes()
            assert ba == bc, f"{rel} differs between identical runs"

    def test_different_seed_changes_outputs(self, workspace):
        out_b = workspace / "runB"
        out_d = run_pipeline(workspace, "runD", seed="4")
        assert (out_b / "raw" / "m000.csv").read_bytes() != \
            (out_d / "raw" / "m000.csv").read_bytes()

    def test_ensemble_of_duplicate_dir_is_identity(self, workspace, tmp_path):
        raw = workspace / "runA" / "raw"
        out = tmp_path / "ens"
        assert main(["ensemble", "--runs", str(raw), str(raw),
                     "--out", str(out)]) == 0
        for movie in ("m000", "m001"):
            a = load_prediction_dir(raw)[movie]
            b = load_prediction_dir(out)[movie]
            np.testing.assert_array_equal(a, b)

    def test_ensemble_averages_two_runs(self, workspace, tmp_path):
        run_b = workspace / "runB" / "raw"
        run_d = workspace / "runD" / "raw"
        out = tmp_path / "ens2"
        assert main(["ensemble", "--runs", str(run_b), str(run_d),
                     "--out", str(out)]) == 0
        pb = load_prediction_dir(run_b)["m000"]
        pd = load_prediction_dir(run_d)["m000"]
        pe = load_prediction_dir(out)["m000"]
        np.testing.assert_allclose(pe, (pb + pd) / 2.0, atol=1e-15)

    def test_predict_validation_split(self, workspace, tmp_path):
        out = workspace / "runA"
        dest = tmp_path / "valpred"
        assert main(["predict", "--config", str(workspace / "run.cfg"),
                     "--checkpoint", str(out / "model" / "model.ckpt"),
                     "--out", str(dest), "--split", "validation"]) == 0
        assert sorted(load_prediction_dir(dest)) == ["m001"]

    def test_smooth_standalone_flags(self, workspace, tmp_path):
        raw = workspace / "runA" / "raw"
        dest = tmp_path / "sm"
        assert main(["smooth", "--predictions", str(raw), "--out", str(dest),
                     "--smoother", "moving_average", "--weights", "1,2,1"]) == 0
        assert sorted(load_prediction_dir(dest)) == ["m000", "m001"]
        assert main(["smooth", "--predictions", str(raw), "--out", str(tmp_path / "bw"),
                     "--order", "4", "--cutoff", "0.3"]) == 0

    def test_checkpoint_architecture_mismatch_is_exit_2(self, workspace, tmp_path, capsys):
        out = workspace / "runA"
        wider = tmp_path / "wider.cfg"
        wider.write_text(
            f"manifest = {workspace / 'data' / 'manifest.txt'}\n"
            "profile = run1\nsequence_length = 10\nhidden_units = 8\n"
        )
        rc = main(["predict", "--config", str(wider),
                   "--checkpoint", str(out / "model" / "model.ckpt"),
                   "--out", str(tmp_path / "p")])
        assert rc == 2
        assert "checkpoint" in capsys.readouterr().err

        lstm = tmp_path / "lstm.cfg"
        lstm.write_text(
            f"manifest = {workspace / 'data' / 'manifest.txt'}\n"
            "profile = run1\nsequence_length = 10\nhidden_units = 4\ncell = lstm\n"
        )
        rc = main(["predict", "--config", str(lstm),
                   "--checkpoint", str(out / "model" / "model.ckpt"),
                   "--out", str(tmp_path / "p")])
        assert rc == 2

    def test_misaligned_ensemble_is_exit_2(self, workspace, tmp_path, capsys):
        raw = workspace / "runA" / "raw"
        partial = tmp_path / "partial"
        partial.mkdir()
        (partial / "m000.csv").write_text((raw / "m000.csv").read_text())
        rc = main(["ensemble", "--runs", str(raw), str(partial),
                   "--out", str(tmp_path / "e")])
        assert rc == 2

    def test_parallel_predict_matches_serial(self, workspace, tmp_path):
        out = workspace / "runA"
        dest = tmp_path / "par"
        assert main(["predict", "--config", str(workspace / "run.cfg"),
                     "--checkpoint", str(out / "model" / "model.ckpt"),
                     "--out", str(dest), "--parallel", "4"]) == 0
        for movie in ("m000", "m001"):
            assert (dest / f"{movie}.csv").read_bytes() == \
                (out / "raw" / f"{movie}.csv").read_bytes()
