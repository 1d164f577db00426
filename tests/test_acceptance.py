"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import contextlib
import time

import numpy as np

import oracles
from oracles import grad_check
from affectseq.cli import main as cli_main
from affectseq.config import parse_config
from affectseq.dataio import (
    SynthSpec,
    batch_indices,
    load_dataset,
    synth_generate,
    window_sequences,
)
from affectseq.evalmetrics import UNDEFINED, EvalReport, mse, pearson, render_text
from affectseq.fusion import (
    FusionConfig,
    fusion_head_graph,
    map_to_range,
)
from affectseq.model import ModelConfig, init_model_params, training_loss
from affectseq.numerics import AdamState, adam_step
from affectseq.rng import generator
from affectseq.seqmodel import EncoderConfig
from affectseq.smoothing import butter_design, filtfilt
from affectseq.training import predict_tracks, train_run
from oracles import freq_response


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_01_gradient_fidelity():
    with criterion(1, "gradient-fidelity"):
        encoders = (
            ("a", EncoderConfig(input_dim=4, hidden_units=(3,))),
            ("b", EncoderConfig(input_dim=4, hidden_units=(3,))),
        )
        config = ModelConfig(encoders=encoders, fusion=FusionConfig(num_experts=2),
                             sequence_length=5)
        store = init_model_params(config, seed=101)
        rng = generator(102, "windows")
        windows = {name: rng.normal(size=(3, 5, 4)) for name, _ in encoders}
        targets = generator(103, "targets").uniform(-0.7, 0.7, size=(3, 2))

        def loss(s):
            value, grads = training_loss(windows, targets, s, config, generator(0, "masks"))
            return value.total, grads

        started = time.perf_counter()
        err = grad_check(loss, store, eps=1e-5)
        elapsed = time.perf_counter() - started
        assert err < 1e-4, f"max relative gradient error {err}"
        assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"


def test_02_filter_correctness():
    with criterion(2, "filter-correctness"):
        c = butter_design(1, 0.5)
        np.testing.assert_allclose(c.b, [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(c.a, [1.0, 0.0], atol=1e-9)
        grid = np.linspace(0.0, np.pi, 512)
        for order in (1, 2, 3, 4):
            for cutoff in (0.05, 0.1, 0.25):
                coeffs = butter_design(order, cutoff)
                dc = np.abs(freq_response(coeffs, np.array([0.0])))[0]
                assert abs(dc - 1.0) <= 1e-9
                half = np.abs(freq_response(coeffs, np.array([np.pi * cutoff])))[0]
                assert abs(half - 1.0 / np.sqrt(2.0)) <= 1e-6
                mag = np.abs(freq_response(coeffs, grid))
                assert np.all(np.diff(mag) <= 1e-12)


def test_03_zero_phase():
    with criterion(3, "zero-phase"):
        # Symmetric pulse with quiet ends through the default filter.
        n = 1024
        t = np.arange(n)
        pulse = np.exp(-0.5 * ((t - (n - 1) / 2) / 8.0) ** 2)
        c = butter_design(2, 0.05)
        y = filtfilt(c, pulse)
        assert np.max(np.abs(y - y[::-1])) < 1e-9

        x = np.full(128, -0.4375)
        np.testing.assert_allclose(filtfilt(c, x), x, atol=1e-9)

        # Reversal symmetry; filters chosen so boundary transients decay
        # inside the pad (see the smoothing module notes).
        rng = np.random.default_rng(42)
        noise = rng.normal(size=200)
        for order, cutoff, track in (
            (1, 0.5, noise),
            (1, 0.49, noise),
            (2, 0.4, np.concatenate([np.zeros(20), noise[20:-20], np.zeros(20)])),
        ):
            coeffs = butter_design(order, cutoff)
            fwd = filtfilt(coeffs, track)
            rev = filtfilt(coeffs, track[::-1])[::-1]
            np.testing.assert_allclose(rev, fwd, atol=1e-9)


def test_04_overfit_smoke(tmp_path):
    with criterion(4, "overfit-smoke"):
        started = time.perf_counter()
        synth_generate(
            SynthSpec(num_movies=3, length=200,
                      modalities=(("audio", 8), ("image", 8)), noise=0.05),
            tmp_path / "data", seed=21,
        )
        (tmp_path / "run.cfg").write_text(
            f"manifest = {tmp_path / 'data' / 'manifest.txt'}\n"
            "profile = run1\n"
            "seed = 7\n"
            "epochs = 150\n"
            "sequence_length = 10\n"
            "hidden_units = 32\n"
            "learning_rate = 0.01\n"
        )
        cfg = parse_config(tmp_path / "run.cfg")
        assert cfg.epochs <= 200
        result = train_run(cfg)
        features, annos = load_dataset(cfg.manifest)
        preds = predict_tracks(result.store, result.model_config, features,
                               cfg.batch_size)
        se = 0.0
        count = 0
        for movie, anno in annos.items():
            se += np.sum((preds[movie] - anno) ** 2)
            count += anno.size
        train_mse = se / count
        elapsed = time.perf_counter() - started
        assert train_mse < 0.01, f"training MSE {train_mse:.4f}"
        assert elapsed < 120.0, f"smoke run took {elapsed:.1f}s"


def test_05_ensemble_property():
    with criterion(5, "ensemble-property"):
        rng = np.random.default_rng(55)
        for _ in range(100):
            truth = rng.uniform(-0.5, 0.5, size=64)
            runs = [truth + rng.normal(scale=rng.uniform(0.02, 0.6), size=64)
                    for _ in range(5)]
            ens = np.mean(runs, axis=0)
            assert mse(ens, truth) <= np.mean([mse(r, truth) for r in runs]) + 1e-15

        # Dyadic values keep truth +- d exact in float64, so the two-run
        # symmetric ensemble cancels to literal zero error.
        truth = rng.integers(-2 ** 19, 2 ** 19, size=64) / 2.0 ** 20
        d = rng.integers(-2 ** 19, 2 ** 19, size=64) / 2.0 ** 20
        ens = np.mean([truth + d, truth - d], axis=0)
        assert mse(ens, truth) == 0.0


def test_06_metric_oracles():
    with criterion(6, "metric-oracles"):
        rng = np.random.default_rng(66)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            pred = rng.normal(size=n)
            truth = rng.normal(size=n)
            brute_mse = sum((p - t) ** 2 for p, t in zip(pred, truth)) / n
            assert abs(mse(pred, truth) - brute_mse) < 1e-12
            mx, my = sum(pred) / n, sum(truth) / n
            sxy = sum((p - mx) * (t - my) for p, t in zip(pred, truth))
            sxx = sum((p - mx) ** 2 for p in pred)
            syy = sum((t - my) ** 2 for t in truth)
            brute_pcc = sxy / (sxx * syy) ** 0.5
            assert abs(pearson(pred, truth) - brute_pcc) < 1e-12

        x = rng.normal(size=50)
        y = rng.normal(size=50)
        base = pearson(x, y)
        assert abs(pearson(3.0 * x + 0.2, y) - base) < 1e-12
        assert abs(pearson(-3.0 * x + 0.2, y) + base) < 1e-12
        out = pearson(np.full(10, 1.23), rng.normal(size=10))
        assert out is UNDEFINED and out is not float("nan")


def test_07_run_matrix_fixture(tmp_path):
    with criterion(7, "run-matrix-fixture"):
        synth_generate(SynthSpec(num_movies=2, length=30,
                                 modalities=(("audio", 3),)),
                       tmp_path / "data", seed=3)

        def resolve(profile):
            path = tmp_path / f"{profile}.cfg"
            path.write_text(
                f"manifest = {tmp_path / 'data' / 'manifest.txt'}\n"
                f"profile = {profile}\nseed = 5\nepochs = 20\n"
            )
            return parse_config(path)

        run1 = resolve("run1")
        assert run1.dropout_rate == 0.0 and run1.enable_batchnorm is False
        run2 = resolve("run2")
        assert run2.dropout_rate == 0.5 and run2.enable_batchnorm
        assert run2.train_fraction == 0.7
        run3 = resolve("run3")
        assert run3.dropout_rate == 0.5 and run3.enable_batchnorm
        assert run3.train_fraction == 1.0
        run4 = resolve("run4")
        assert run4.dropout_rate == 0.5 and run4.enable_batchnorm
        assert (run4.seed, run4.epochs) != (run3.seed, run3.epochs)

        report = EvalReport(valence_mse=0.0837, valence_pcc=0.1786,
                            arousal_mse=0.1334, arousal_pcc=0.3358,
                            aggregation="macro_per_movie")
        lines = render_text(report).splitlines()
        assert lines[1] == "Valence MSE  Valence PCC  Arousal MSE  Arousal PCC"
        assert lines[2] == "0.0837  0.1786  0.1334  0.3358"


def test_08_determinism(tmp_path):
    with criterion(8, "determinism"):
        assert cli_main(["synth", "--out", str(tmp_path / "data"), "--movies", "2",
                         "--length", "50", "--modalities", "audio:3,image:2",
                         "--noise", "0.05", "--seed", "5"]) == 0
        (tmp_path / "run.cfg").write_text(
            f"manifest = {tmp_path / 'data' / 'manifest.txt'}\n"
            "profile = run1\nseed = 3\nepochs = 2\nsequence_length = 10\n"
            "hidden_units = 4\nlearning_rate = 0.01\nbutter_cutoff = 0.2\n"
        )
        for run in ("one", "two"):
            out = tmp_path / run
            assert cli_main(["train", "--config", str(tmp_path / "run.cfg"),
                             "--out", str(out / "model")]) == 0
            assert cli_main(["predict", "--config", str(tmp_path / "run.cfg"),
                             "--checkpoint", str(out / "model" / "model.ckpt"),
                             "--out", str(out / "raw")]) == 0
            assert cli_main(["smooth", "--predictions", str(out / "raw"),
                             "--out", str(out / "smooth"),
                             "--config", str(tmp_path / "run.cfg")]) == 0
            assert cli_main(["evaluate", "--predictions", str(out / "smooth"),
                             "--annotations", str(tmp_path / "data" / "annotations"),
                             "--out", str(out / "eval")]) == 0
        one = sorted((tmp_path / "one").rglob("*"))
        for path in one:
            if path.is_dir():
                continue
            twin = tmp_path / "two" / path.relative_to(tmp_path / "one")
            assert path.read_bytes() == twin.read_bytes(), f"{path.name} differs"


def test_09_windowing_suite():
    with criterion(9, "windowing-suite"):
        rng = np.random.default_rng(99)
        for length in (1, 59, 60, 61, 200):
            for window in (10, 30, 60):
                feats = {
                    "x": {"mod": rng.normal(size=(length, 3))},
                    "y": {"mod": rng.normal(size=(length, 3)) + 100.0},
                }
                annos = {m: np.zeros((length, 2)) for m in feats}
                ws = window_sequences(feats, annos, window)
                assert len(ws) == 2 * length

                def padded_window(movie, t):
                    track = feats[movie]["mod"]
                    padded = np.concatenate([np.repeat(track[:1], window - 1, axis=0), track])
                    return padded[t: t + window]

                # Windows are ordered by (movie id, t): x's come first, and
                # x's padded window at t=0 is its row 0 repeated.
                windows, _ = ws.gather([0])
                np.testing.assert_array_equal(
                    windows["mod"][0], np.repeat(feats["x"]["mod"][:1], window, axis=0))

                last = length - 1
                windows, _ = ws.gather([last])
                start = max(0, last - window + 1)
                np.testing.assert_array_equal(windows["mod"][0, window - (last - start + 1):],
                                              feats["x"]["mod"][start:length])

                # No cross-movie leakage: y-windows sit near +100, x near 0.
                for i in (length, 2 * length - 1):
                    windows, _ = ws.gather([i])
                    np.testing.assert_array_equal(windows["mod"][0],
                                                  padded_window("y", i - length))
                    assert windows["mod"].min() > 50.0

                batches = [len(ws) // 512 + (1 if len(ws) % 512 else 0)]
                from affectseq.dataio import batch_indices
                chunks = list(batch_indices(len(ws), 512))
                assert len(chunks) == batches[0]
                assert sum(len(c) for c in chunks) == len(ws)


def test_10_batchnorm_inference_modes(tmp_path):
    with criterion(10, "batchnorm-inference-modes"):
        # Train mode normalizes by the batch's statistics; eval mode by the
        # running statistics, which each epoch sets to the inference
        # statistics of Ioffe & Szegedy (arXiv:1502.03167, Algorithm 2)
        # over its own batches. A replay of the training steps recomputes
        # them from per-window oracle states: each step's mean and unbiased
        # variance, weighted by its window count.
        synth_generate(SynthSpec(num_movies=3, length=45, modalities=(("a", 3), ("b", 2)),
                                 validation_movies=("m002",)), tmp_path / "data", seed=23)
        (tmp_path / "run.cfg").write_text(
            f"manifest = {tmp_path / 'data' / 'manifest.txt'}\n"
            "enable_batchnorm = true\nseed = 6\nepochs = 2\nbatch_size = 16\n"
            "sequence_length = 5\nhidden_units = 3\nlearning_rate = 0.05\n")
        cfg = parse_config(tmp_path / "run.cfg")
        result = train_run(cfg)
        config = result.model_config

        features, annotations = load_dataset(cfg.manifest)
        windows = window_sequences({m: features[m] for m in result.train_movies}, annotations,
                                   config.sequence_length)
        store = init_model_params(config, cfg.seed)
        adam = AdamState.for_params(store, lr=cfg.learning_rate)
        for epoch in range(cfg.epochs):
            order = generator(cfg.seed, f"shuffle-epoch-{epoch}").permutation(len(windows))
            mean_sum, var_sum = 0.0, 0.0
            for b, idx in enumerate(batch_indices(len(windows), cfg.batch_size, order)):
                batch, targets = windows.gather(idx)
                x = np.array([np.concatenate([oracles.encode(batch[name][i], enc, store,
                                                             f"enc.{name}")
                                              for name, enc in config.encoders])
                              for i in range(len(idx))])
                mean_sum = mean_sum + len(idx) * x.mean(axis=0)
                var_sum = var_sum + len(idx) * np.sum((x - x.mean(axis=0)) ** 2, axis=0) / (
                    len(idx) - 1)
                _, grads = training_loss(batch, targets, store, config,
                                         generator(cfg.seed, f"dropout-e{epoch}-b{b}"))
                adam_step(store, adam, grads)
        np.testing.assert_allclose(result.store.value("fusion.bn.running_mean"),
                                   mean_sum / len(windows), rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(result.store.value("fusion.bn.running_var"),
                                   var_sum / len(windows), rtol=1e-12, atol=1e-14)

        # Each row's eval output is the same in any batch of the same size,
        # in-distribution or shifted and rescaled, bit for bit; alone, it
        # moves only by how BLAS rounds a one-row product (oracles.head_drift).
        fusion = config.fusion
        mu = result.store.value("fusion.bn.running_mean")
        sig = np.sqrt(result.store.value("fusion.bn.running_var"))
        rng = generator(19, "test-stream")
        probe = mu + sig * rng.standard_normal((8, mu.size))
        leaves = dict(result.store.items())

        def predict(x):
            return map_to_range(fusion_head_graph(x, leaves, fusion), fusion.output_range)

        near = predict(np.concatenate([probe, mu + sig * rng.standard_normal((248, mu.size))]))
        shifted = predict(np.concatenate([probe, (mu + 2.0) + (3.0 * sig)
                                          * rng.standard_normal((248, mu.size))]))
        np.testing.assert_array_equal(near[:8], shifted[:8])
        expected, bound = oracles.head_drift(probe, np.zeros_like(probe), result.store, fusion)
        for i in range(8):
            alone = predict(probe[i:i + 1])[0]
            assert np.all(np.abs(alone - near[i]) <= bound[i])
            assert np.all(np.abs(expected[i] - near[i]) <= bound[i])
