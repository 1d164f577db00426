"""Training-loop behavior over small synthetic datasets."""

import numpy as np
import pytest

from affectseq.config import parse_config
from affectseq.dataio import SynthSpec, load_dataset, synth_generate
from affectseq.errors import ConfigError
from affectseq.numerics import ParamStore
from affectseq.training import predict_tracks, train_run, write_training_log


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("train-data")
    synth_generate(
        SynthSpec(num_movies=3, length=60, modalities=(("audio", 4), ("image", 3)),
                  noise=0.05, validation_movies=("m002",)),
        root, seed=2,
    )
    return root


def make_config(tmp_path, dataset, extra="", epochs=3, learning_rate=0.01):
    path = tmp_path / "run.cfg"
    path.write_text(
        f"manifest = {dataset / 'manifest.txt'}\n"
        "seed = 4\n"
        f"epochs = {epochs}\n"
        "sequence_length = 10\n"
        "hidden_units = 4\n"
        f"learning_rate = {learning_rate}\n"
        + extra
    )
    return parse_config(path)


class TestRegularizedTraining:
    def test_run3_updates_running_stats_and_modes_differ(self, tmp_path, dataset):
        cfg = make_config(tmp_path, dataset, "profile = run3\ndropout_rate = 0.3\n")
        result = train_run(cfg)
        rm = result.store.value("fusion.bn.running_mean")
        rv = result.store.value("fusion.bn.running_var")
        assert not np.allclose(rm, 0.0)
        assert not np.allclose(rv, 1.0)

        features, _ = load_dataset(cfg.manifest)
        with_batch = predict_tracks(result.store, result.model_config, features)
        pop_cfg = make_config(tmp_path, dataset,
                              "profile = run3\ndropout_rate = 0.3\n"
                              "use_batch_stats_at_inference = false\n")
        with_running = predict_tracks(result.store, pop_cfg.model_config(), features)
        deltas = [np.abs(with_batch[m] - with_running[m]).max() for m in with_batch]
        assert max(deltas) > 0.0

    def test_checkpoint_roundtrips_running_stats(self, tmp_path, dataset):
        cfg = make_config(tmp_path, dataset, "profile = run3\n")
        result = train_run(cfg)
        result.store.save(tmp_path / "model.ckpt")
        loaded = ParamStore.load(tmp_path / "model.ckpt")
        for name in ("fusion.bn.running_mean", "fusion.bn.running_var"):
            np.testing.assert_array_equal(loaded.value(name), result.store.value(name))

    def test_dropout_training_deterministic_per_seed(self, tmp_path, dataset):
        cfg = make_config(tmp_path, dataset, "profile = run3\ndropout_rate = 0.4\n")
        a = train_run(cfg)
        b = train_run(cfg)
        for name in a.store.names():
            np.testing.assert_array_equal(a.store.value(name), b.store.value(name))

    def test_zero_rate_turns_dropout_off_under_any_profile(self, tmp_path, dataset):
        # run3 presets enable_dropout = true; a zero rate still means no
        # dropout, so the run trains exactly like batch norm alone.
        artifacts = []
        for run, extra in enumerate(("profile = run3\ndropout_rate = 0\n",
                                     "enable_batchnorm = true\nenable_dropout = false\n")):
            result = train_run(make_config(tmp_path, dataset, extra))
            out = tmp_path / f"run{run}"
            out.mkdir()
            result.store.save(out / "model.ckpt")
            write_training_log(result.logs, out / "training_log.csv")
            artifacts.append([(out / name).read_bytes()
                              for name in ("model.ckpt", "training_log.csv")])
        assert artifacts[0] == artifacts[1]

    def test_run2_trains_on_fraction(self, tmp_path, dataset):
        cfg = make_config(tmp_path, dataset, "profile = run2\n")
        result = train_run(cfg)
        # 2 non-validation movies, fraction 0.7 -> 1 retained.
        assert len(result.train_movies) == 1
        assert result.validation_movies == ("m002",)


class TestEarlyStopping:
    def test_requires_validation_split(self, tmp_path, tmp_path_factory):
        root = tmp_path_factory.mktemp("noval")
        synth_generate(SynthSpec(num_movies=2, length=40,
                                 modalities=(("audio", 3),)), root, seed=3)
        cfg = make_config(tmp_path, root, "early_stop_patience = 2\n")
        with pytest.raises(ConfigError):
            train_run(cfg)

    def test_stops_and_restores_best(self, tmp_path, dataset):
        # Aggressive learning rate so the validation score worsens quickly.
        cfg = make_config(tmp_path, dataset, "early_stop_patience = 1\n",
                          epochs=30, learning_rate=0.2)
        result = train_run(cfg)
        assert len(result.logs) <= 30
        scores = [log.val_valence_mse + log.val_arousal_mse for log in result.logs]
        best = min(scores)
        # The restored parameters must reproduce the best epoch's score.
        features, annos = load_dataset(cfg.manifest)
        preds = predict_tracks(result.store, result.model_config,
                               {m: features[m] for m in result.validation_movies})
        from affectseq.evalmetrics import evaluate_run
        report = evaluate_run(preds, {m: annos[m] for m in result.validation_movies})
        np.testing.assert_allclose(report.valence_mse + report.arousal_mse, best,
                                   atol=1e-12)


class TestLogs:
    def test_log_csv_shape(self, tmp_path, dataset):
        cfg = make_config(tmp_path, dataset)
        result = train_run(cfg)
        write_training_log(result.logs, tmp_path / "log.csv")
        lines = (tmp_path / "log.csv").read_text().splitlines()
        assert lines[0] == ("epoch,train_loss,train_xent,train_l2,"
                            "val_valence_mse,val_valence_pcc,"
                            "val_arousal_mse,val_arousal_pcc")
        assert len(lines) == 1 + len(result.logs)
        for row in lines[1:]:
            cells = row.split(",")
            assert np.isfinite(float(cells[1]))
            assert cells[4] != ""  # validation split exists here

    def test_no_validation_leaves_val_columns_blank(self, tmp_path, tmp_path_factory):
        root = tmp_path_factory.mktemp("noval2")
        synth_generate(SynthSpec(num_movies=2, length=40,
                                 modalities=(("audio", 3),)), root, seed=5)
        cfg = make_config(tmp_path, root)
        result = train_run(cfg)
        write_training_log(result.logs, tmp_path / "log.csv")
        for row in (tmp_path / "log.csv").read_text().splitlines()[1:]:
            assert row.endswith(",,,")
