import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectseq.dataio import (
    AFFECT_COLUMNS,
    DatasetManifest,
    SynthSpec,
    batch_indices,
    load_dataset,
    load_features,
    load_manifest,
    load_predictions,
    parse_pairs,
    save_manifest,
    split_dataset,
    synth_generate,
    window_sequences,
    write_track,
)
from affectseq.errors import ConfigError, DataError


def write_feature_csv(path, movie="m000", dim=2, rows=3, mangle=None):
    header = "movie_id,t," + ",".join(f"f{i}" for i in range(dim))
    lines = [header]
    for t in range(rows):
        lines.append(f"{movie},{t}," + ",".join(f"{0.1 * (t + i):.3f}" for i in range(dim)))
    if mangle:
        lines = mangle(lines)
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadFeatures:
    def test_well_formed(self, tmp_path):
        path = write_feature_csv(tmp_path / "m000.csv", rows=2)
        movie_id, values = load_features(path)
        assert values.shape == (2, 2)
        assert movie_id == "m000"

    def test_ragged_row_names_line(self, tmp_path):
        def mangle(lines):
            lines[2] = "m000,1,0.5"  # one value short
            return lines

        path = write_feature_csv(tmp_path / "m000.csv", mangle=mangle)
        with pytest.raises(DataError, match=r":3"):
            load_features(path)

    def test_gap_in_seconds(self, tmp_path):
        def mangle(lines):
            lines[3] = lines[3].replace("m000,2", "m000,3")
            return lines

        path = write_feature_csv(tmp_path / "m000.csv", mangle=mangle)
        with pytest.raises(DataError, match="t=2"):
            load_features(path)

    def test_nonfinite_value(self, tmp_path):
        def mangle(lines):
            lines[1] = "m000,0,nan,0.0"
            return lines

        path = write_feature_csv(tmp_path / "m000.csv", mangle=mangle)
        with pytest.raises(DataError):
            load_features(path)

    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(11, 5)) * 1e-7
        write_track(tmp_path / "m007.csv", "m007", values)  # shortest round-trip decimals
        movie_id, loaded = load_features(tmp_path / "m007.csv")
        assert movie_id == "m007"
        np.testing.assert_array_equal(loaded, values)
        write_track(tmp_path / "again.csv", movie_id, loaded)
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "m007.csv").read_bytes()

    def test_hex_literals_read_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(4, 3)) * 1e-7
        lines = ["movie_id,t,f0,f1,f2"] + [
            f"m001,{t}," + ",".join(v.hex() for v in row.tolist()) for t, row in enumerate(values)]
        (tmp_path / "hex.csv").write_text("\n".join(lines) + "\n")
        _, loaded = load_features(tmp_path / "hex.csv")
        np.testing.assert_array_equal(loaded, values)

    def test_header_must_name_columns(self, tmp_path):
        path = write_feature_csv(tmp_path / "m000.csv")
        path.write_text(path.read_text().replace("f1", "g1", 1))
        with pytest.raises(DataError, match="f0,f1"):
            load_features(path)
        with pytest.raises(DataError, match="valence,arousal"):
            load_predictions(path)

    def test_writer_refuses_bad_tracks(self, tmp_path):
        for values in (np.zeros((0, 2)), np.zeros(3), np.array([[0.0, np.inf]])):
            with pytest.raises(DataError, match="m000"):
                write_track(tmp_path / "m000.csv", "m000", values, AFFECT_COLUMNS)
        with pytest.raises(DataError, match="columns"):
            write_track(tmp_path / "m000.csv", "m000", np.zeros((2, 3)), AFFECT_COLUMNS)
        assert not (tmp_path / "m000.csv").exists()

    def test_annotation_range_enforced(self, tmp_path):
        manifest = synth_generate(SynthSpec(num_movies=2, length=5), tmp_path, seed=1)
        path = manifest.annotation_path("m001")
        path.write_text("movie_id,t,valence,arousal\n" + "".join(
            f"m001,{t},0.5,{1.4 if t == 3 else 0.0}\n" for t in range(5)))
        with pytest.raises(DataError, match="range") as err:
            load_dataset(manifest)
        assert str(path) in str(err.value)
        movie_id, values = load_predictions(path)  # the reader itself declares no range
        assert movie_id == "m001" and values.shape == (5, 2)


class TestParsePairs:
    def test_values_and_blank_entries(self):
        assert parse_pairs(" audio:8, ,image: 5,", int, "modalities") == (("audio", 8),
                                                                          ("image", 5))
        assert parse_pairs("", float, "noise_overrides") == ()

    @pytest.mark.parametrize("text", ["audio", "audio:x", "audio:1.5"])
    def test_bad_entry_names_key(self, text):
        with pytest.raises(ConfigError, match="modalities") as err:
            parse_pairs(text, int, "modalities")
        assert err.value.key == "modalities"


class TestWindowing:
    def _features(self, length, dims=(2, 3), seed=0):
        rng = np.random.default_rng(seed)
        return {
            f"mod{j}": rng.normal(size=(length, d))
            for j, d in enumerate(dims)
        }

    @staticmethod
    def _padded_window(track, t, window):
        """The window ending at second t, cut from the left-padded track."""
        padded = np.concatenate([np.repeat(track[:1], window - 1, axis=0), track])
        return padded[t: t + window]

    @pytest.mark.parametrize("length", [1, 59, 60, 61, 200])
    @pytest.mark.parametrize("window", [10, 30, 60])
    def test_window_count_equals_length(self, length, window):
        feats = {"m000": self._features(length)}
        annos = {"m000": np.zeros((length, 2))}
        ws = window_sequences(feats, annos, window)
        assert len(ws) == length

    def test_t1_windows_are_single_rows(self):
        feats = {"m000": self._features(5)}
        ws = window_sequences(feats, None, 1)
        for i in range(5):
            t = i  # one movie: window i ends at second i
            windows, targets = ws.gather([i])
            assert targets is None
            np.testing.assert_array_equal(windows["mod0"][0],
                                          feats["m000"]["mod0"][t: t + 1])

    def test_left_pad_repeats_first_row(self):
        feats = {"m000": self._features(30)}
        ws = window_sequences(feats, None, 10)
        windows, _ = ws.gather([0])  # t = 0
        expected = np.repeat(feats["m000"]["mod0"][:1], 10, axis=0)
        np.testing.assert_array_equal(windows["mod0"][0], expected)
        # Partially padded window at t=3: seven copies of row 0, then rows 1..3.
        windows, _ = ws.gather([3])
        np.testing.assert_array_equal(windows["mod0"][0, :7],
                                      np.repeat(feats["m000"]["mod0"][:1], 7, axis=0))
        np.testing.assert_array_equal(windows["mod0"][0, 7:],
                                      feats["m000"]["mod0"][1:4])

    def test_index_arithmetic_at_l100_t60(self):
        feats = {"m000": self._features(100)}
        ws = window_sequences(feats, None, 60)
        assert len(ws) == 100
        windows, _ = ws.gather([99])  # t = 99
        np.testing.assert_array_equal(windows["mod0"][0], feats["m000"]["mod0"][40:100])

    def test_no_cross_movie_leakage(self):
        # Two movies with disjoint constant values: every window row must
        # carry its own movie's value.
        feats = {
            "a": {"mod0": np.full((50, 2), 1.0)},
            "b": {"mod0": np.full((50, 2), 2.0)},
        }
        ws = window_sequences(feats, None, 30)
        for i in range(len(ws)):
            movie = "a" if i < 50 else "b"  # windows are ordered by (movie id, t)
            windows, _ = ws.gather([i])
            expected = 1.0 if movie == "a" else 2.0
            assert np.all(windows["mod0"] == expected)

    def test_targets_attached_at_final_second(self):
        length = 20
        feats = {"m000": self._features(length)}
        annos = {"m000": np.arange(length * 2, dtype=float).reshape(length, 2)}
        ws = window_sequences(feats, annos, 5)
        for i in (0, 7, 19):
            t = i  # one movie: window i ends at second i
            _, target = ws.gather([i])
            np.testing.assert_array_equal(target[0], annos["m000"][t])

    def test_gather_matches_samples(self):
        feats = {"m000": self._features(40), "m001": self._features(25, seed=1)}
        annos = {"m000": np.zeros((40, 2)), "m001": np.ones((25, 2))}
        ws = window_sequences(feats, annos, 10)
        idx = np.array([0, 5, 41, 64])
        batch, targets = ws.gather(idx)
        for row, i in enumerate(idx):
            movie, t = ("m000", i) if i < 40 else ("m001", i - 40)  # (movie id, t) order
            for mod in feats[movie]:
                np.testing.assert_array_equal(
                    batch[mod][row], self._padded_window(feats[movie][mod], t, 10))
            np.testing.assert_array_equal(targets[row], annos[movie][t])

    def test_empty_movie_rejected(self):
        with pytest.raises(DataError, match="empty"):
            window_sequences({"m000": {"mod0": np.zeros((0, 2))}}, None, 5)

    def test_modality_names_must_agree(self):
        # Rows of all movies share one array per modality, so a movie with
        # other modality names must be refused, not misaligned.
        feats = {"m000": {"mod0": np.zeros((5, 2))}, "m001": {"mod1": np.zeros((5, 2))}}
        with pytest.raises(DataError, match="m001"):
            window_sequences(feats, None, 3)

    @pytest.mark.parametrize("n,batch,sizes", [(600, 512, [512, 88]), (512, 512, [512]),
                                               (513, 512, [513]), (100, 512, [100]),
                                               (17, 8, [8, 9]), (1, 8, [1]), (3, 1, [1, 1, 1])])
    def test_batch_partition_sizes(self, n, batch, sizes):
        # A one-window remainder joins the batch before it.
        chunks = list(batch_indices(n, batch))
        assert [len(c) for c in chunks] == sizes
        np.testing.assert_array_equal(np.concatenate(chunks), np.arange(n))

    @given(st.integers(0, 2000), st.integers(1, 600), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_batches_partition_order_without_singletons(self, n, batch, seed):
        order = np.random.default_rng(seed).permutation(n)
        chunks = list(batch_indices(n, batch, order))
        np.testing.assert_array_equal(np.concatenate([np.arange(0)] + chunks), order)
        sizes = [len(c) for c in chunks]
        assert all(size == batch for size in sizes[:-1])
        if n > 1 and batch > 1:
            assert min(sizes) >= 2 and sizes[-1] <= batch + 1


class TestManifestAndSplit:
    def _manifest(self, tmp_path, n=30, validation=13):
        movies = tuple((f"m{i:03d}", 100) for i in range(n))
        return DatasetManifest(
            root=tmp_path,
            modalities=(("audio", 4), ("image", 8)),
            movies=movies,
            validation_movies=tuple(f"m{i:03d}" for i in range(validation)),
        )

    def test_split_counts(self, tmp_path):
        manifest = self._manifest(tmp_path)
        train, val = split_dataset(manifest, seed=1)
        assert len(train) == 17 and len(val) == 13
        assert not set(train) & set(val)

    def test_train_fraction_drops_whole_movies(self, tmp_path):
        manifest = self._manifest(tmp_path, n=23, validation=13)
        train, _ = split_dataset(manifest, seed=1, train_fraction=0.7)
        assert len(train) == 7

    def test_split_deterministic(self, tmp_path):
        manifest = self._manifest(tmp_path)
        a = split_dataset(manifest, seed=5, train_fraction=0.5)
        b = split_dataset(manifest, seed=5, train_fraction=0.5)
        c = split_dataset(manifest, seed=6, train_fraction=0.5)
        assert a == b
        assert a != c

    def test_validation_required(self, tmp_path):
        manifest = self._manifest(tmp_path, validation=0)
        with pytest.raises(ConfigError):
            split_dataset(manifest, seed=1, require_validation=True)

    def test_manifest_roundtrip(self, tmp_path):
        manifest = self._manifest(tmp_path, n=3, validation=1)
        path = save_manifest(manifest, tmp_path / "manifest.txt")
        loaded = load_manifest(path)
        assert loaded.modalities == manifest.modalities
        assert loaded.movies == manifest.movies
        assert loaded.validation_movies == manifest.validation_movies

    def test_unknown_manifest_key_rejected(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("modalities = a:2\nmovies = m:5\nfps = 30\n")
        with pytest.raises(ConfigError, match="fps"):
            load_manifest(path)

    def test_unknown_validation_movie_rejected(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("modalities = a:2\nmovies = m:5\nvalidation_movies = ghost\n")
        with pytest.raises(ConfigError, match="ghost"):
            load_manifest(path)


class TestSynth:
    def _spec(self, **kw):
        base = dict(num_movies=2, length=60, modalities=(("audio", 6), ("image", 5)),
                    noise=0.05)
        base.update(kw)
        return SynthSpec(**base)

    def test_deterministic_bytes(self, tmp_path):
        for sub in ("a", "b"):
            synth_generate(self._spec(), tmp_path / sub, seed=11)
        files_a = sorted((tmp_path / "a").rglob("*.csv")) + [tmp_path / "a" / "manifest.txt"]
        for fa in files_a:
            fb = tmp_path / "b" / fa.relative_to(tmp_path / "a")
            assert fa.read_bytes() == fb.read_bytes(), fa

    def test_different_seeds_differ(self, tmp_path):
        synth_generate(self._spec(), tmp_path / "a", seed=11)
        synth_generate(self._spec(), tmp_path / "b", seed=12)
        fa = tmp_path / "a" / "annotations" / "m000.csv"
        fb = tmp_path / "b" / "annotations" / "m000.csv"
        assert fa.read_bytes() != fb.read_bytes()

    def test_annotations_within_range(self, tmp_path):
        manifest = synth_generate(self._spec(num_movies=3), tmp_path, seed=3)
        _, annos = load_dataset(manifest)
        for values in annos.values():
            assert values.min() >= -1.0 and values.max() <= 1.0

    def test_linear_probe_recovers_latent_without_noise(self, tmp_path):
        manifest = synth_generate(self._spec(noise=0.0, length=120), tmp_path, seed=7)
        features, annos = load_dataset(manifest)
        for movie in annos:
            x = np.concatenate([features[movie]["audio"], features[movie]["image"]], axis=1)
            y = annos[movie]
            coef, *_ = np.linalg.lstsq(np.column_stack([x, np.ones(len(x))]), y, rcond=None)
            resid = y - np.column_stack([x, np.ones(len(x))]) @ coef
            ss_res = (resid ** 2).sum(axis=0)
            ss_tot = ((y - y.mean(axis=0)) ** 2).sum(axis=0)
            r2 = 1.0 - ss_res / ss_tot
            assert np.all(r2 > 0.99)

    def test_dataset_loads_consistently(self, tmp_path):
        manifest = synth_generate(self._spec(), tmp_path, seed=5)
        features, annos = load_dataset(manifest)
        assert sorted(features) == ["m000", "m001"]
        assert features["m000"]["audio"].shape == (60, 6)
        assert annos["m001"].shape == (60, 2)

    def test_validation_movies_recorded(self, tmp_path):
        manifest = synth_generate(self._spec(validation_movies=("m001",)),
                                  tmp_path, seed=5)
        reloaded = load_manifest(tmp_path / "manifest.txt")
        assert reloaded.validation_movies == ("m001",)

    def test_per_modality_noise_levels(self, tmp_path):
        spec = self._spec(noise=0.05, noise_overrides=(("image", 0.0),))
        assert spec.noise_for("audio") == 0.05
        assert spec.noise_for("image") == 0.0
        manifest = synth_generate(spec, tmp_path, seed=9)
        features, annos = load_dataset(manifest)
        # Noise-free modality is an exact linear lift: residual is zero.
        for movie in annos:
            x = features[movie]["image"]
            y = annos[movie]
            design = np.column_stack([x, np.ones(len(x))])
            coef, *_ = np.linalg.lstsq(design, y, rcond=None)
            assert np.max(np.abs(y - design @ coef)) < 1e-9

    def test_noise_override_unknown_modality(self):
        with pytest.raises(ConfigError):
            self._spec(noise_overrides=(("ghost", 0.1),))
