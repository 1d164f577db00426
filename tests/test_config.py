import re

import pytest

from affectseq.config import RunConfig, parse_config, parse_fields, write_resolved
from affectseq.dataio import SynthSpec, synth_generate
from affectseq.errors import ConfigError


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    synth_generate(SynthSpec(num_movies=3, length=40,
                             modalities=(("audio", 4), ("image", 3)),
                             validation_movies=("m002",)),
                   root, seed=1)
    return root


def write_config(tmp_path, dataset, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(f"manifest = {dataset / 'manifest.txt'}\n{extra}")
    return path


class TestDefaults:
    def test_batch_size_defaults_to_512(self, tmp_path, dataset):
        cfg = parse_config(write_config(tmp_path, dataset))
        assert cfg.batch_size == 512

    def test_documented_defaults(self, tmp_path, dataset):
        cfg = parse_config(write_config(tmp_path, dataset))
        assert cfg.sequence_length == 60
        assert cfg.cell == "gru"
        assert cfg.hidden_units == (128,)
        assert cfg.num_experts == 2
        assert cfg.l2_lambda == 1e-5
        assert cfg.learning_rate == 0.001
        assert cfg.cg2_position == "moe_output"
        assert cfg.smoother == "butterworth"
        assert (cfg.butter_order, cfg.butter_cutoff) == (2, 0.05)
        assert cfg.dropout_rate == 0.0 and cfg.enable_batchnorm is False

    def test_output_range_comes_from_manifest(self, tmp_path, dataset):
        cfg = parse_config(write_config(tmp_path, dataset))
        assert cfg.model_config().fusion.output_range == (-1.0, 1.0)


class TestProfiles:
    def test_run1_disables_regularization(self, tmp_path, dataset):
        cfg = parse_config(write_config(tmp_path, dataset, "profile = run1\n"))
        assert cfg.dropout_rate == 0.0
        assert cfg.enable_batchnorm is False
        assert cfg.train_fraction == 1.0

    def test_run2_regularized_on_partial_data(self, tmp_path, dataset):
        cfg = parse_config(write_config(tmp_path, dataset, "profile = run2\n"))
        assert cfg.dropout_rate == 0.5
        assert cfg.enable_batchnorm is True
        assert cfg.train_fraction == 0.7

    def test_run3_regularized_full_data(self, tmp_path, dataset):
        cfg = parse_config(write_config(tmp_path, dataset, "profile = run3\n"))
        assert cfg.dropout_rate == 0.5
        assert cfg.enable_batchnorm is True
        assert cfg.train_fraction == 1.0

    def test_run4_shifts_seed_and_epochs(self, tmp_path, dataset):
        base = parse_config(write_config(tmp_path, dataset,
                                         "profile = run3\nseed = 10\nepochs = 40\n"))
        cfg = parse_config(write_config(tmp_path, dataset,
                                        "profile = run4\nseed = 10\nepochs = 40\n"))
        assert cfg.dropout_rate == 0.5 and cfg.enable_batchnorm
        assert cfg.seed != base.seed
        assert cfg.epochs != base.epochs
        assert (cfg.seed, cfg.epochs) == (11, 50)

    @pytest.mark.parametrize("profile, key, value", [
        *((p, "dropout_rate", "0.3") for p in ("run1", "run2", "run3", "run4")),
        *((p, "enable_batchnorm", "true") for p in ("run1", "run2", "run3", "run4")),
        ("run2", "train_fraction", "0.5"),
    ])
    def test_profile_owns_its_keys(self, tmp_path, dataset, profile, key, value):
        path = write_config(tmp_path, dataset, f"profile = {profile}\n{key} = {value}\n")
        message = f"{path}: profile {profile} fixes {key};"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            parse_config(path)

    def test_profile_override_owns_keys_of_the_file(self, tmp_path, dataset):
        path = write_config(tmp_path, dataset, "dropout_rate = 0.3\n")
        message = f"{path}: profile run3 fixes dropout_rate;"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            parse_config(path, {"profile": "run3"})

    def test_custom_sets_any_dropout_rate(self, tmp_path, dataset):
        cfg = parse_config(write_config(tmp_path, dataset,
                                        "enable_batchnorm = true\ndropout_rate = 0.3\n"))
        model = cfg.model_config()
        assert model.fusion.dropout_rate == 0.3
        assert all(enc.dropout_rate == 0.3 for _, enc in model.encoders)

    def test_resolved_snapshot(self, tmp_path, dataset):
        cfg = parse_config(write_config(tmp_path, dataset, "profile = run2\nseed = 3\n"))
        lines = cfg.resolved_lines()
        assert "dropout_rate = 0.5" in lines
        assert "enable_batchnorm = true" in lines
        assert "train_fraction = 0.7" in lines
        assert "batch_size = 512" in lines
        assert "# resolved from profile: run2" in lines
        target = write_resolved(cfg, tmp_path / "out")
        assert target.read_text().splitlines() == lines

    def test_resolved_config_golden(self, tmp_path, dataset):
        # Pins every echo formatter byte for byte: preset expansion and the
        # profile comment, a per-modality override, non-integer weights,
        # exponent floats, and the off-grid warning line.
        cfg = parse_config(write_config(
            tmp_path, dataset,
            "profile = run2\nhidden_units.audio = 8,4\nsmoother = moving_average\n"
            "ma_weights = 0.5, 1.25, 2\nbn_epsilon = 1e-05\nsequence_length = 7\n"))
        target = write_resolved(cfg, tmp_path / "out")
        assert target.read_bytes() == (
            "# resolved from profile: run2\n"
            "adam_beta1 = 0.9\n"
            "adam_beta2 = 0.999\n"
            "adam_epsilon = 1e-08\n"
            "batch_size = 512\n"
            "bn_epsilon = 1e-05\n"
            "butter_cutoff = 0.05\n"
            "butter_order = 2\n"
            "cell = gru\n"
            "cg2_position = moe_output\n"
            "dropout_rate = 0.5\n"
            "early_stop_patience = 0\n"
            "enable_batchnorm = true\n"
            "epochs = 30\n"
            "hidden_units = 128\n"
            "hidden_units.audio = 8,4\n"
            "l2_lambda = 1e-05\n"
            "learning_rate = 0.001\n"
            "ma_weights = 0.5,1.25,2.0\n"
            f"manifest = {dataset / 'manifest.txt'}\n"
            "num_experts = 2\n"
            "profile = custom\n"
            "seed = 1\n"
            "sequence_length = 7\n"
            "smoother = moving_average\n"
            "train_fraction = 0.7\n"
            "# warning: sequence_length 7 is outside the usual grid (10, 30, 60); accepted\n"
        ).encode("utf-8")

    def test_resolved_echo_reloads_identically(self, tmp_path, dataset):
        cfg = parse_config(write_config(
            tmp_path, dataset,
            "profile = run4\nseed = 3\nepochs = 8\nhidden_units.audio = 8\n"))
        target = write_resolved(cfg, tmp_path / "out")
        again = parse_config(target)
        assert again.profile == "custom"
        for key in ("seed", "epochs", "dropout_rate", "enable_batchnorm",
                    "train_fraction", "hidden_units", "hidden_overrides",
                    "sequence_length", "learning_rate", "batch_size",
                    "num_experts", "l2_lambda", "smoother", "butter_order",
                    "butter_cutoff", "cell", "cg2_position"):
            assert getattr(again, key) == getattr(cfg, key), key


class TestValidation:
    def test_missing_manifest_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 3\n")
        with pytest.raises(ConfigError, match="manifest"):
            parse_config(path)

    # enable_dropout, bn_momentum and use_batch_stats_at_inference are
    # retired keys: a config that still sets one is refused by name
    @pytest.mark.parametrize("line", ["optimizer = sgd", "enable_dropout = true",
                                      "enable_dropout = false", "bn_momentum = 0.9",
                                      "use_batch_stats_at_inference = false"])
    def test_unknown_key_rejected(self, tmp_path, dataset, line):
        path = write_config(tmp_path, dataset, line + "\n")
        message = f"{path}: unknown config keys: ['{line.split()[0]}']"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(path)

    def test_out_of_range_value_names_range(self, tmp_path, dataset):
        for line, match in (("dropout_rate = 1.5", r"dropout_rate: .*\[0, 1\)"),
                            ("bn_epsilon = 0", r"bn_epsilon: .*\(0, inf\)")):
            path = write_config(tmp_path, dataset, line + "\n")
            with pytest.raises(ConfigError, match=match):
                parse_config(path)

    def test_sequence_length_off_grid_warns_but_parses(self, tmp_path, dataset):
        cfg = parse_config(write_config(tmp_path, dataset, "sequence_length = 7\n"))
        assert cfg.sequence_length == 7
        assert any("sequence_length" in w for w in cfg.warnings)

    def test_on_grid_lengths_do_not_warn(self, tmp_path, dataset):
        for t in (10, 30, 60):
            cfg = parse_config(write_config(tmp_path, dataset, f"sequence_length = {t}\n"))
            assert cfg.warnings == ()

    def test_per_modality_hidden_units(self, tmp_path, dataset):
        cfg = parse_config(write_config(
            tmp_path, dataset, "hidden_units = 16\nhidden_units.audio = 8,4\n"))
        model = cfg.model_config()
        encoders = dict(model.encoders)
        assert encoders["audio"].hidden_units == (8, 4)
        assert encoders["image"].hidden_units == (16,)

    def test_unknown_modality_override_rejected(self, tmp_path, dataset):
        path = write_config(tmp_path, dataset, "hidden_units.faces = 8\n")
        with pytest.raises(ConfigError, match="faces"):
            parse_config(path)

    def test_overrides_behave_like_file_keys(self, tmp_path, dataset):
        cfg = parse_config(write_config(tmp_path, dataset),
                           {"seed": "9", "profile": "run1"})
        assert cfg.seed == 9 and cfg.profile == "run1"

    def test_parse_values_tags_the_key(self):
        with pytest.raises(ConfigError, match=r"^9 outside valid range \[1, 4\]$") as err:
            parse_fields(RunConfig, {"butter_order": "9"})
        assert err.value.key == "butter_order"

    def test_file_key_names_the_file_and_override_is_bare(self, tmp_path, dataset):
        path = write_config(tmp_path, dataset, "seed = x\n")
        message = f"{path}: key seed: expected an integer, got 'x'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$") as err:
            parse_config(path)
        assert err.value.key == "seed"
        with pytest.raises(ConfigError, match=r"^expected an integer, got 'y'$") as err:
            parse_config(path, {"seed": "y"})
        assert err.value.key == "seed"

    def test_bad_bool(self, tmp_path, dataset):
        path = write_config(tmp_path, dataset, "enable_batchnorm = yes\n")
        with pytest.raises(ConfigError, match="true or false"):
            parse_config(path)
