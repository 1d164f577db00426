import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectseq.errors import ConfigError, CoverageError, DataError
from affectseq.evalmetrics import (
    UNDEFINED,
    EvalReport,
    ensemble_average,
    evaluate_run,
    mse,
    pearson,
    render_csv,
    render_text,
)


def brute_mse(pred, truth):
    total = 0.0
    for p, t in zip(pred, truth):
        total += (p - t) ** 2
    return total / len(pred)


def brute_pearson(pred, truth):
    n = len(pred)
    mx = sum(pred) / n
    my = sum(truth) / n
    sxy = sum((p - mx) * (t - my) for p, t in zip(pred, truth))
    sxx = sum((p - mx) ** 2 for p in pred)
    syy = sum((t - my) ** 2 for t in truth)
    if sxx == 0.0 or syy == 0.0:
        return None
    return sxy / (sxx * syy) ** 0.5


class TestMse:
    def test_perfect_prediction(self):
        x = np.array([0.1, -0.5, 0.9])
        assert mse(x, x) == 0.0

    def test_constant_offset(self):
        truth = np.array([0.0, 0.2, -0.4, 1.0])
        assert mse(truth + 0.3, truth) == pytest.approx(0.09, abs=1e-15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=100)
        truth = rng.normal(size=100)
        assert mse(pred, truth) == pytest.approx(brute_mse(pred, truth), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            mse(np.ones(3), np.ones(4))

    @given(st.floats(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_shift_invariance(self, c):
        rng = np.random.default_rng(1)
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        assert abs(mse(x + c, y + c) - mse(x, y)) < 1e-12


class TestPearson:
    def test_identity_correlation(self):
        x = np.array([0.0, 1.0, 2.0, 5.0])
        assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_anti_correlation(self):
        x = np.array([0.0, 1.0, 2.0, 5.0])
        assert pearson(-x, x) == pytest.approx(-1.0, abs=1e-12)

    def test_constant_series_is_undefined_not_nan(self):
        out = pearson(np.full(10, 0.3), np.arange(10.0))
        assert out is UNDEFINED
        out = pearson(np.arange(10.0), np.full(10, -1.0))
        assert out is UNDEFINED

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pred = rng.normal(size=64)
            truth = rng.normal(size=64)
            assert pearson(pred, truth) == pytest.approx(
                brute_pearson(pred.tolist(), truth.tolist()), abs=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(DataError):
            pearson(np.ones(1), np.ones(1))

    @given(st.floats(0.01, 10), st.floats(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_positive_affine_invariance(self, a, b):
        rng = np.random.default_rng(3)
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        base = pearson(x, y)
        assert pearson(a * x + b, y) == pytest.approx(base, abs=1e-12)
        assert pearson(-a * x + b, y) == pytest.approx(-base, abs=1e-12)


class TestEvaluateRun:
    def _toy(self):
        rng = np.random.default_rng(4)
        annos = {
            "m000": rng.uniform(-0.9, 0.9, size=(40, 2)),
            "m001": rng.uniform(-0.9, 0.9, size=(25, 2)),
        }
        preds = {m: v + 0.1 * rng.normal(size=v.shape) for m, v in annos.items()}
        return preds, annos

    @pytest.mark.parametrize("aggregation", ["macro_per_movie", "pooled"])
    def test_one_second_movie_has_undefined_pcc(self, aggregation):
        """A movie annotated for one second has an UNDEFINED PCC, skipped
        and counted under macro; the pooled headline uses every second."""
        preds, annos = self._toy()
        annos["m002"] = np.array([[0.3, -0.2]])
        preds["m002"] = np.array([[0.1, 0.4], [0.5, 0.5]])
        report = evaluate_run(preds, annos, aggregation)
        assert report.per_movie["m002"]["valence_pcc"] is UNDEFINED
        assert report.per_movie["m002"]["arousal_pcc"] is UNDEFINED
        assert report.per_movie["m002"]["valence_mse"] == (0.1 - 0.3) ** 2
        assert report.valence_pcc_undefined == report.arousal_pcc_undefined == 1
        movies = sorted(annos)
        if aggregation == "pooled":
            truth = np.concatenate([annos[m] for m in movies])
            pred = np.concatenate([preds[m][:len(annos[m])] for m in movies])
            for d, key in enumerate(("valence_pcc", "arousal_pcc")):
                assert getattr(report, key) == pearson(pred[:, d], truth[:, d])
        else:
            assert report.valence_pcc == np.mean([report.per_movie[m]["valence_pcc"]
                                                  for m in ("m000", "m001")])

    def test_perfect_predictions(self):
        _, annos = self._toy()
        report = evaluate_run(annos, annos)
        assert report.valence_mse == 0.0 and report.arousal_mse == 0.0
        assert report.valence_pcc == pytest.approx(1.0, abs=1e-12)
        assert report.arousal_pcc == pytest.approx(1.0, abs=1e-12)

    def test_macro_matches_hand_aggregation(self):
        preds, annos = self._toy()
        report = evaluate_run(preds, annos, "macro_per_movie")
        hand = {key: [] for key in ("vm", "vp", "am", "ap")}
        for m in ("m000", "m001"):
            hand["vm"].append(brute_mse(preds[m][:, 0], annos[m][:, 0]))
            hand["vp"].append(brute_pearson(preds[m][:, 0].tolist(), annos[m][:, 0].tolist()))
            hand["am"].append(brute_mse(preds[m][:, 1], annos[m][:, 1]))
            hand["ap"].append(brute_pearson(preds[m][:, 1].tolist(), annos[m][:, 1].tolist()))
        assert report.valence_mse == pytest.approx(np.mean(hand["vm"]), abs=1e-12)
        assert report.valence_pcc == pytest.approx(np.mean(hand["vp"]), abs=1e-12)
        assert report.arousal_mse == pytest.approx(np.mean(hand["am"]), abs=1e-12)
        assert report.arousal_pcc == pytest.approx(np.mean(hand["ap"]), abs=1e-12)

    def test_pooled_matches_concatenation(self):
        preds, annos = self._toy()
        report = evaluate_run(preds, annos, "pooled")
        pall = np.concatenate([preds["m000"], preds["m001"]])
        aall = np.concatenate([annos["m000"], annos["m001"]])
        assert report.valence_mse == pytest.approx(brute_mse(pall[:, 0], aall[:, 0]), abs=1e-12)
        assert report.arousal_pcc == pytest.approx(
            brute_pearson(pall[:, 1].tolist(), aall[:, 1].tolist()), abs=1e-12)

    def test_pooled_equals_length_weighted_sums(self):
        preds, annos = self._toy()
        report = evaluate_run(preds, annos, "pooled")
        total = sum(a.shape[0] for a in annos.values())
        weighted = sum(
            brute_mse(preds[m][:, 0], annos[m][:, 0]) * annos[m].shape[0]
            for m in annos
        ) / total
        assert report.valence_mse == pytest.approx(weighted, abs=1e-12)

    def test_undefined_pcc_excluded_and_counted(self):
        rng = np.random.default_rng(5)
        annos = {
            "m000": rng.uniform(-0.9, 0.9, size=(30, 2)),
            "m001": rng.uniform(-0.9, 0.9, size=(30, 2)),
        }
        preds = {
            "m000": annos["m000"] + 0.05,
            "m001": np.zeros((30, 2)),  # constant: PCC undefined
        }
        report = evaluate_run(preds, annos, "macro_per_movie")
        assert report.valence_pcc_undefined == 1
        assert report.arousal_pcc_undefined == 1
        assert report.valence_pcc == pytest.approx(1.0, abs=1e-12)
        assert report.per_movie["m001"]["valence_pcc"] is UNDEFINED

    def test_missing_movie_is_coverage_error(self):
        preds, annos = self._toy()
        del preds["m001"]
        with pytest.raises(CoverageError, match="m001"):
            evaluate_run(preds, annos)

    def test_missing_seconds_listed(self):
        preds, annos = self._toy()
        preds["m001"] = preds["m001"][:20]
        with pytest.raises(CoverageError, match="seconds 20..24"):
            evaluate_run(preds, annos)

    def test_unknown_aggregation(self):
        preds, annos = self._toy()
        with pytest.raises(ConfigError):
            evaluate_run(preds, annos, "micro")


class TestEnsemble:
    def _runs(self, k=5, seed=6):
        rng = np.random.default_rng(seed)
        truth = {"m000": rng.uniform(-0.5, 0.5, size=(30, 2))}
        runs = [
            {"m000": truth["m000"] + rng.normal(scale=0.3, size=(30, 2))}
            for _ in range(k)
        ]
        return truth, runs

    def test_identical_runs_unchanged(self):
        # Exact for K a power of two (division is exact); 1-ulp otherwise.
        _, runs = self._runs(1)
        for k in (2, 4):
            avg = ensemble_average([runs[0]] * k)
            np.testing.assert_array_equal(avg["m000"], runs[0]["m000"])
        avg = ensemble_average([runs[0]] * 3)
        np.testing.assert_allclose(avg["m000"], runs[0]["m000"], rtol=1e-15)

    def test_symmetric_runs_cancel_exactly(self):
        truth, _ = self._runs()
        d = np.full((30, 2), 0.37)
        avg = ensemble_average([{"m000": truth["m000"] + d},
                                {"m000": truth["m000"] - d}])
        assert mse(avg["m000"][:, 0], truth["m000"][:, 0]) == 0.0
        assert mse(avg["m000"][:, 1], truth["m000"][:, 1]) == 0.0

    def test_jensen_inequality_over_random_runsets(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            truth = rng.uniform(-0.5, 0.5, size=40)
            runs = [truth + rng.normal(scale=rng.uniform(0.05, 0.5), size=40)
                    for _ in range(5)]
            ens = np.mean(runs, axis=0)
            member_mean = np.mean([mse(r, truth) for r in runs])
            assert mse(ens, truth) <= member_mean + 1e-15

    def test_misaligned_runs_rejected(self):
        _, runs = self._runs(2)
        runs[1] = {"other": runs[1]["m000"]}
        with pytest.raises(DataError):
            ensemble_average(runs)
        _, runs = self._runs(2)
        runs[1]["m000"] = runs[1]["m000"][:10]
        with pytest.raises(DataError):
            ensemble_average(runs)

    def test_misaligned_runs_named_by_position(self):
        _, runs = self._runs(3)
        runs[2] = {"other": runs[2]["m000"]}
        with pytest.raises(DataError, match="^run 3 covers different movies than run 1$"):
            ensemble_average(runs)
        _, runs = self._runs(2)
        runs[1]["m000"] = runs[1]["m000"][:10]
        with pytest.raises(DataError,
                           match="^run 2 has a different track shape for m000 than run 1$"):
            ensemble_average(runs)


class TestRendering:
    def _report(self):
        return EvalReport(
            valence_mse=0.0837, valence_pcc=0.1786,
            arousal_mse=0.1334, arousal_pcc=0.3358,
            aggregation="macro_per_movie",
        )

    def test_row_fixture(self):
        text = render_text(self._report())
        lines = text.splitlines()
        assert lines[1] == "Valence MSE  Valence PCC  Arousal MSE  Arousal PCC"
        assert lines[2] == "0.0837  0.1786  0.1334  0.3358"

    def test_column_order(self):
        header = render_text(self._report()).splitlines()[1]
        cols = [header[header.index(c)] for c in
                ("Valence MSE", "Valence PCC", "Arousal MSE", "Arousal PCC")]
        assert header.index("Valence MSE") < header.index("Valence PCC") \
            < header.index("Arousal MSE") < header.index("Arousal PCC")

    def test_csv_schema(self):
        report = self._report()
        report.per_movie = {"m000": {"valence_mse": 0.1, "valence_pcc": None,
                                     "arousal_mse": 0.2, "arousal_pcc": 0.5}}
        lines = render_csv(report).splitlines()
        assert lines[0] == "metric,aggregation,value"
        assert "valence_mse,macro_per_movie,0.0837" in lines
        assert "m000.valence_pcc,per_movie,undefined" in lines

    def test_undefined_rendered_not_nan(self):
        report = self._report()
        report.valence_pcc = None
        text = render_text(report) + render_csv(report)
        assert "nan" not in text.lower().replace("undefined", "")
        assert "undefined" in text
