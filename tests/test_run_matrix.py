"""The full run matrix end to end: four trained configurations plus their
ensemble average, driven through the CLI on one synthetic dataset."""

import numpy as np
import pytest

from affectseq.cli import main
from affectseq.config import load_manifest
from affectseq.dataio import load_dataset, load_prediction_dir
from affectseq.evalmetrics import evaluate_run


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    root = tmp_path_factory.mktemp("matrix")
    assert main(["synth", "--out", str(root / "data"), "--movies", "3",
                 "--length", "120", "--modalities", "audio:4,image:4",
                 "--noise", "0.05", "--seed", "9", "--validation", "m002"]) == 0
    base = (
        f"manifest = {root / 'data' / 'manifest.txt'}\n"
        "seed = 2\n"
        "epochs = 6\n"
        "sequence_length = 10\n"
        "hidden_units = 8\n"
        "learning_rate = 0.01\n"
        "butter_cutoff = 0.1\n"
    )
    run_dirs = []
    for profile in ("run1", "run2", "run3", "run4"):
        cfg = root / f"{profile}.cfg"
        cfg.write_text(base + f"profile = {profile}\n")
        out = root / profile
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["predict", "--config", str(cfg),
                     "--checkpoint", str(out / "model.ckpt"),
                     "--out", str(out / "raw")]) == 0
        assert main(["smooth", "--predictions", str(out / "raw"),
                     "--out", str(out / "smooth"), "--config", str(cfg)]) == 0
        run_dirs.append(out / "smooth")
    assert main(["ensemble", "--runs", *map(str, run_dirs),
                 "--out", str(root / "run5")]) == 0
    return root, run_dirs


def scores(root, pred_dir):
    manifest = load_manifest(root / "data" / "manifest.txt")
    _, annos = load_dataset(manifest)
    preds = load_prediction_dir(pred_dir)
    return evaluate_run(preds, annos, "macro_per_movie")


class TestRunMatrix:
    def test_all_runs_produce_full_tracks(self, matrix):
        root, run_dirs = matrix
        for pred_dir in run_dirs + [root / "run5"]:
            preds = load_prediction_dir(pred_dir)
            assert sorted(preds) == ["m000", "m001", "m002"]
            for track in preds.values():
                assert track.shape == (120, 2)
                assert np.all(np.isfinite(track))

    def test_runs_actually_differ(self, matrix):
        root, run_dirs = matrix
        tracks = [load_prediction_dir(d)["m000"] for d in run_dirs]
        for i in range(len(tracks)):
            for j in range(i + 1, len(tracks)):
                assert not np.array_equal(tracks[i], tracks[j]), (i, j)

    def test_ensemble_mse_dominates_member_mean(self, matrix):
        # Pointwise averaging can never lose to the average member, per
        # dimension, by convexity of the squared error.
        root, run_dirs = matrix
        members = [scores(root, d) for d in run_dirs]
        ensemble = scores(root, root / "run5")
        assert ensemble.valence_mse <= np.mean([m.valence_mse for m in members]) + 1e-12
        assert ensemble.arousal_mse <= np.mean([m.arousal_mse for m in members]) + 1e-12

    def test_run4_differs_from_run3_only_by_schedule(self, matrix):
        root, _ = matrix
        r3 = (root / "run3" / "resolved_config.txt").read_text().splitlines()
        r4 = (root / "run4" / "resolved_config.txt").read_text().splitlines()
        diff_keys = set()
        for a, b in zip(r3, r4):
            if a != b:
                diff_keys.add(a.split(" = ")[0])
        assert diff_keys == {"seed", "epochs", "# resolved from profile: run3"}
