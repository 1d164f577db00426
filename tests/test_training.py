"""Training-loop behavior over small synthetic datasets."""

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import oracles
from affectseq import training
from affectseq.config import parse_config
from affectseq.dataio import (SynthSpec, batch_indices, load_dataset, synth_generate,
                              window_sequences)
from affectseq.errors import ConfigError
from affectseq.model import init_model_params, predict_batch, training_loss
from affectseq.numerics import ParamStore
from affectseq.rng import generator
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


@pytest.mark.parametrize("profile", ["run1", "run3"])
def test_loss_returns_a_gradient_per_trained_parameter(tmp_path, dataset, profile):
    cfg = make_config(tmp_path, dataset, f"profile = {profile}\n")
    model_config = cfg.model_config()
    store = init_model_params(model_config, cfg.seed)
    features, annotations = load_dataset(cfg.manifest)
    batch, targets = window_sequences(features, annotations,
                                      model_config.sequence_length).gather(np.arange(8))
    _, grads = training_loss(batch, targets, store, model_config, generator(cfg.seed, "dropout"))
    running = {"fusion.bn.running_mean", "fusion.bn.running_var"}
    assert (running <= set(store.names())) == (profile == "run3")
    assert sorted(grads) == [name for name in store.names() if name not in running]
    for name, grad in grads.items():
        assert grad.shape == store.value(name).shape and grad.dtype == np.float64


class TestRegularizedTraining:
    def test_running_stats_are_the_last_epochs_batch_average(self, tmp_path, dataset,
                                                             monkeypatch):
        """Each epoch sets the running statistics to the mean of its steps'
        batch moments, weighted by their window counts (120 windows in
        batches of 16 leave a last batch of 8)."""
        cfg = make_config(tmp_path, dataset, "enable_batchnorm = true\ndropout_rate = 0.3\n"
                          "batch_size = 16\n")
        steps = []

        def recorded(batch, targets, *args):
            value, grads = training_loss(batch, targets, *args)
            steps.append((len(targets), value.batch_moments))
            return value, grads

        monkeypatch.setattr(training, "training_loss", recorded)
        result = train_run(cfg)
        assert len(steps) == 3 * 8 and [m for m, _ in steps[-8:]] == [16] * 7 + [8]
        last = steps[-8:]
        expected = sum(m * moments for m, moments in last) / sum(m for m, _ in last)
        np.testing.assert_allclose(result.store.value("fusion.bn.running_mean"), expected[0],
                                   rtol=1e-14, atol=0)
        np.testing.assert_allclose(result.store.value("fusion.bn.running_var"), expected[1],
                                   rtol=1e-14, atol=0)
        assert not np.allclose(expected, steps[0][1])

    def test_checkpoint_roundtrips_running_stats(self, tmp_path, dataset):
        cfg = make_config(tmp_path, dataset, "profile = run3\n")
        result = train_run(cfg)
        result.store.save(tmp_path / "model.ckpt")
        loaded = ParamStore.load(tmp_path / "model.ckpt")
        for name in ("fusion.bn.running_mean", "fusion.bn.running_var"):
            np.testing.assert_array_equal(loaded.value(name), result.store.value(name))

    def test_dropout_training_deterministic_per_seed(self, tmp_path, dataset):
        cfg = make_config(tmp_path, dataset, "enable_batchnorm = true\ndropout_rate = 0.4\n")
        a = train_run(cfg)
        b = train_run(cfg)
        for name in a.store.names():
            np.testing.assert_array_equal(a.store.value(name), b.store.value(name))

    def test_run2_trains_on_fraction(self, tmp_path, dataset):
        cfg = make_config(tmp_path, dataset, "profile = run2\n")
        result = train_run(cfg)
        # 2 non-validation movies, fraction 0.7 -> 1 retained.
        assert len(result.train_movies) == 1
        assert result.validation_movies == ("m002",)


class TestBatchComposition:
    @pytest.mark.parametrize("length, batch_size", [(17, 8), (513, 64)])
    def test_one_window_remainder_trains_under_batch_norm(self, tmp_path, length, batch_size):
        # One movie gives one window per second, so length = 1 (mod
        # batch_size) would leave a one-window batch, which train-mode batch
        # norm refuses.
        data = tmp_path / "data"
        synth_generate(SynthSpec(num_movies=1, length=length, modalities=(("audio", 3),)),
                       data, seed=1)
        cfg = make_config(tmp_path, data, f"profile = run3\nbatch_size = {batch_size}\n",
                          epochs=1)
        result = train_run(cfg)
        assert np.isfinite(result.logs[0].train_loss)


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


    def test_restores_the_best_epochs_batch_norm_statistics(self, tmp_path, dataset):
        """The snapshot of the best epoch holds the statistics its
        validation pass read."""
        cfg = make_config(tmp_path, dataset, "profile = run3\nearly_stop_patience = 2\n"
                          "batch_size = 16\n", epochs=12, learning_rate=0.2)
        result = train_run(cfg)
        scores = [log.val_valence_mse + log.val_arousal_mse for log in result.logs]
        assert np.argmin(scores) < len(scores) - 1  # a later epoch's statistics were set
        features, annos = load_dataset(cfg.manifest)
        preds = predict_tracks(result.store, result.model_config,
                               {m: features[m] for m in result.validation_movies})
        from affectseq.evalmetrics import evaluate_run
        report = evaluate_run(preds, {m: annos[m] for m in result.validation_movies})
        np.testing.assert_allclose(report.valence_mse + report.arousal_mse, min(scores),
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


def copied_window_predictions(store, model_config, features, batch_size):
    """Predictions with every batch's windows copied into one [B, T, D]
    array (``WindowSet.gather``), as ``predict_tracks`` read them before it
    took strided views."""
    preds = {}
    for movie in sorted(features):
        windows = window_sequences({movie: features[movie]}, None,
                                   model_config.sequence_length)
        preds[movie] = np.concatenate([
            predict_batch(store, model_config, windows.gather(idx)[0])
            for idx in batch_indices(len(windows), batch_size)])
    return preds


def first_layer_projections_agree(store, model_config, features, batch_size):
    """Whether BLAS rounds every batch's shared first-layer projection as it
    rounds the copied windows' (see ``oracles.projections_agree``)."""
    steps = model_config.sequence_length
    for movie in sorted(features):
        rows = window_sequences({movie: features[movie]}, None, steps).rows
        for name, enc in model_config.encoders:
            view = oracles.sliding_windows(rows[name], steps)
            cell = {key[len(f"enc.{name}.l0."):]: value for key, value in store.items()
                    if key.startswith(f"enc.{name}.l0.")}
            for idx in batch_indices(len(view), batch_size):
                if not oracles.projections_agree(view[idx[0]:idx[-1] + 1], cell, enc.cell_kind):
                    return False
    return True


class TestStridedPrediction:
    """``predict_tracks`` reads each batch as a slice of one strided view of
    the movie's padded rows. Its predictions must be those of the same
    batches copied, bit for bit wherever BLAS rounds the shared projection
    as it rounds the copy's (see ``tests/test_seqmodel.py``). Both sides use
    one batch size; ``TestBatchSizeIndependence`` compares batch sizes."""

    @settings(max_examples=25, deadline=None)
    @given(profile=st.sampled_from(["run1", "run3"]), kind=st.sampled_from(["gru", "lstm"]),
           units=st.sampled_from(["4", "5,3"]), steps=st.integers(1, 8),
           batch_size=st.integers(2, 9), extra=st.lists(st.integers(1, 30), min_size=0,
                                                        max_size=2),
           seed=st.integers(0, 2**16))
    # a one-second movie gives a one-window batch, whose copy is projected
    # one row a step while its view's table has two rows
    @example(profile="run1", kind="gru", units="4", steps=2, batch_size=2, extra=[1], seed=0)
    def test_matches_copied_windows(self, tmp_path_factory, dataset, profile, kind, units,
                                    steps, batch_size, extra, seed):
        path = tmp_path_factory.mktemp("strided") / "run.cfg"
        path.write_text(f"manifest = {dataset / 'manifest.txt'}\nprofile = {profile}\n"
                        f"cell = {kind}\nhidden_units = {units}\n"
                        f"sequence_length = {steps}\n")
        model_config = parse_config(path).model_config()
        store = init_model_params(model_config, seed)
        rng = np.random.default_rng(seed)
        # the first movie always spans more than one batch
        lengths = [batch_size + 1 + int(rng.integers(0, 2 * batch_size)), *extra]
        features = {f"m{i:03d}": {name: rng.normal(size=(length, enc.input_dim))
                                  for name, enc in model_config.encoders}
                    for i, length in enumerate(lengths)}
        strided = predict_tracks(store, model_config, features, batch_size)
        copied = copied_window_predictions(store, model_config, features, batch_size)
        assert sorted(strided) == sorted(copied)
        exact = first_layer_projections_agree(store, model_config, features, batch_size)
        event(f"projection rows agree: {exact}")
        for movie in copied:
            if exact:
                np.testing.assert_array_equal(strided[movie], copied[movie])
            else:
                np.testing.assert_allclose(strided[movie], copied[movie], rtol=0, atol=1e-9)

    def test_batches_share_the_padded_rows(self, tmp_path, dataset, monkeypatch):
        """No batch copies its windows: each is a view of the movie's rows."""
        model_config = make_config(tmp_path, dataset, "profile = run3\n").model_config()
        store = init_model_params(model_config, 0)
        features, _ = load_dataset(parse_config(tmp_path / "run.cfg").manifest)
        built, seen = [], []

        def recorded_windows(*args):
            built.append(window_sequences(*args))
            return built[-1]

        def recorded_batch(store, config, windows):
            seen.append((built[-1], windows))
            return predict_batch(store, config, windows)

        monkeypatch.setattr(training, "window_sequences", recorded_windows)
        monkeypatch.setattr(training, "predict_batch", recorded_batch)
        predict_tracks(store, model_config, features, batch_size=16)
        assert len(seen) == 3 * 4  # three 60-s movies, four batches of up to 16 windows each
        for windows, batch in seen:
            for name, _ in model_config.encoders:
                assert batch[name].shape[1:] == (10, windows.rows[name].shape[1])
                assert np.shares_memory(batch[name], windows.rows[name])


class TestBatchSizeIndependence:
    """Eval mode treats each window alone, so ``batch_size`` only bounds
    memory. Two batch sizes give the same predictions up to how BLAS rounds
    a product at another row count: a one-row batch's head GEMMs round
    otherwise than a 256-row batch's even at F=6, so bits can differ even
    where ``oracles.projections_agree`` holds. Each prediction must lie
    within the drift bound of ``oracles.prediction_drift``."""

    @settings(max_examples=40, deadline=None)
    @given(profile=st.sampled_from(["run1", "run3"]), kind=st.sampled_from(["gru", "lstm"]),
           units=st.sampled_from(["4", "5,3"]), steps=st.integers(1, 8),
           sizes=st.tuples(st.integers(1, 40), st.integers(1, 40)),
           lengths=st.lists(st.integers(1, 90), min_size=1, max_size=3),
           seed=st.integers(0, 2**16))
    def test_predictions_do_not_depend_on_batch_size(self, tmp_path_factory, dataset, profile,
                                                     kind, units, steps, sizes, lengths, seed):
        path = tmp_path_factory.mktemp("batch-size") / "run.cfg"
        path.write_text(f"manifest = {dataset / 'manifest.txt'}\nprofile = {profile}\n"
                        f"cell = {kind}\nhidden_units = {units}\n"
                        f"sequence_length = {steps}\n")
        model_config = parse_config(path).model_config()
        store = init_model_params(model_config, seed)
        rng = np.random.default_rng(seed)
        if model_config.fusion.enable_batchnorm:
            width = model_config.state_width
            store.value("fusion.bn.running_mean")[:] = rng.normal(0.0, 0.3, size=width)
            store.value("fusion.bn.running_var")[:] = rng.uniform(0.01, 0.5, size=width)
        features = {f"m{i:03d}": {name: rng.normal(size=(length, enc.input_dim))
                                  for name, enc in model_config.encoders}
                    for i, length in enumerate(lengths)}
        first, second = (predict_tracks(store, model_config, features, size) for size in sizes)
        drift = oracles.prediction_drift(store, model_config, features)
        for movie, (expected, bound) in drift.items():
            event(f"bit for bit: {np.array_equal(first[movie], second[movie])}")
            assert first[movie].shape == expected.shape == (lengths[int(movie[1:])], 2)
            assert np.all(np.abs(first[movie] - second[movie]) <= bound)
            assert np.all(np.abs(first[movie] - expected) <= bound)
