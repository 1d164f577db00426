import ast
import os
import re
import signal
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from affectseq import dataio, files, lanes
from affectseq.cli import main
from affectseq.config import (DatasetManifest, declared, load_manifest, parse_config,
                              parse_pairs, save_manifest)
from affectseq.dataio import (
    AFFECT_COLUMNS,
    SynthSpec,
    batch_indices,
    load_dataset,
    load_features,
    load_predictions,
    save_prediction_dir,
    split_dataset,
    synth_generate,
    window_sequences,
    write_track,
)
from affectseq.errors import ConfigError, DataError
from affectseq.files import check_out_dir, decode_text, read_file, shown, write_file
from affectseq.model import init_model_params
from oracles import track_text


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

    def test_annotation_length_names_file_and_manifest(self, tmp_path):
        manifest = synth_generate(SynthSpec(num_movies=2, length=5), tmp_path, seed=1)
        path = manifest.annotation_path("m001")
        path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
        message = f"{path}: 4 seconds, but {tmp_path / 'manifest.txt'} declares m001:5"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_dataset(manifest)

    def test_annotation_id_must_match_file(self, tmp_path):
        manifest = synth_generate(SynthSpec(num_movies=2, length=5), tmp_path, seed=1)
        path = manifest.annotation_path("m001")
        path.write_text(manifest.annotation_path("m000").read_text())
        with pytest.raises(DataError, match="movie id 'm000'") as err:
            load_dataset(manifest)
        assert str(path) in str(err.value)


# Tokens the one-pass reader and the per-line parse must treat alike: read
# alike (+1, padded, Arabic-Indic digit), or refuse alike (hex, "_", "#")
ODD_TOKENS = ("1_0", " 1.0", "1.0 ", "+1", "nan", "inf", "1e400", "0x1p-3", "\u0661", "1#2",
              "", "\x1f1", "1\x1f", "1\x00")
LINE_EDITS = ("padded_t", "blank_line", "extra_column", "short_row", "id_underscore")


@st.composite
def track_texts(draw):
    """(value width, text, edited) of a track CSV as ``write_track`` writes
    it, then maybe with one value replaced by an odd token and up to two
    lines edited."""
    width, length = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=width * length, max_size=width * length))
    movie = draw(st.sampled_from(("m000", "m_1", "")))
    rows = [[movie, str(t), *map(repr, values[t * width:(t + 1) * width])]
            for t in range(length)]
    token = draw(st.none() | st.sampled_from(ODD_TOKENS))
    if token is not None:
        rows[draw(st.integers(0, length - 1))][2 + draw(st.integers(0, width - 1))] = token
    edits = draw(st.lists(st.tuples(st.sampled_from(LINE_EDITS), st.integers(0, length - 1)),
                          max_size=2))
    blanks = []
    for edit, row in edits:
        fields = rows[row]
        if edit == "padded_t":
            fields[1] = "0" + fields[1]
        elif edit == "blank_line":
            blanks.append(row)
        elif edit == "extra_column":
            fields.append("0.5")
        elif edit == "short_row":
            del fields[-1]
        else:
            fields[0] += "_"
    lines = [",".join(fields) for fields in rows]
    for row in sorted(blanks, reverse=True):
        lines.insert(row, "")
    header = "movie_id,t," + ",".join(f"f{i}" for i in range(width))
    return width, "\n".join([header, *lines]) + "\n", token is not None or bool(edits)


def read_outcome(read):
    """What a reader made of a track: its id and value bits, or its error."""
    try:
        movie_id, values = read()
    except DataError as exc:
        return str(exc)
    return movie_id, values.shape, values.view(np.int64).tolist()


class TestReaderPaths:
    """The one-pass ``np.loadtxt`` read of a canonical track and the
    per-line parse behind it agree on every text."""

    @given(case=track_texts())
    @example(case=(1, "movie_id,t,f0\nm000,0,\n", True))  # loadtxt skips empty lines, then warns
    @example(case=(1, "movie_id,t,f0\nm000,0,1\x1f\n", True))  # loadtxt strips \x1f, float() not
    @settings(max_examples=400, deadline=None)
    def test_reader_matches_line_parse(self, tmp_path_factory, case):
        width, text, edited = case
        path = tmp_path_factory.getbasetemp() / "track.csv"
        path.write_text(text, encoding="utf-8")
        body = text.splitlines()[1:]
        outcome = read_outcome(lambda: load_features(path))
        assert outcome == read_outcome(lambda: dataio._parse_rows(path, body, width))
        if not edited:
            data = text.encode("utf-8")
            assert dataio._load_canonical(data, dataio._line_ends(data), width) is not None

    def test_underscore_token_names_line(self, tmp_path):
        path = write_feature_csv(tmp_path / "m000.csv", mangle=lambda lines: [
            *lines[:2], lines[2].replace("0.100", "1_0"), *lines[3:]])
        with pytest.raises(DataError) as err:
            load_features(path)
        assert str(err.value) == f"{path}:3: bad float literal '1_0'"

    def test_hex_token_names_line(self, tmp_path):
        path = write_feature_csv(tmp_path / "m000.csv", mangle=lambda lines: [
            *lines[:2], lines[2].replace("0.100", "0x1p-3"), *lines[3:]])
        with pytest.raises(DataError) as err:
            load_features(path)
        assert str(err.value) == f"{path}:3: bad float literal '0x1p-3'"


# Line heads write_track never writes: t tokens in plain digits, t tokens
# that int() reads but the format refuses, t tokens that name another
# second, and another id of the same length
HEAD_EDITS = {"padded": lambda m, t: (m, "0" + t), "signed": lambda m, t: (m, "+" + t),
              "spaced": lambda m, t: (m, f" {t} "), "next": lambda m, t: (m, str(int(t) + 1)),
              "short": lambda m, t: (m, t[:-1]), "other_id": lambda m, t: ("m001", t)}


@pytest.mark.parametrize("row", [9, 10, 99, 100, 999, 1000])
@pytest.mark.parametrize("edit", sorted(HEAD_EDITS))
def test_head_check_at_digit_boundaries(tmp_path, row, edit):
    """A line head edited on either side of a digit-count boundary of t
    is read as the per-line parse reads it, value for value or error for
    error."""
    path = tmp_path / "m000.csv"
    write_track(path, "m000", np.arange(2002.0).reshape(1001, 2))
    lines = path.read_text().splitlines()
    movie, t, rest = lines[row + 1].split(",", 2)
    lines[row + 1] = ",".join([*HEAD_EDITS[edit](movie, t), rest])
    path.write_text("\n".join(lines) + "\n")
    outcome = read_outcome(lambda: load_features(path))
    assert outcome == read_outcome(lambda: dataio._parse_rows(str(path), lines[1:], 2))
    assert isinstance(outcome, tuple) == (edit == "padded")


@pytest.mark.parametrize("line, token", [(3, "+1"), (3, " 1"), (3, "1 "), (3, "\u0661"),
                                         (3, "1_0"), (2, "-0")], ids=repr)
def test_second_index_is_plain_ascii_digits(tmp_path, line, token):
    """A second index is plain ASCII digits: a sign, a space, a digit
    group or a non-ASCII digit, each of which ``int()`` reads, names its
    line."""
    path = tmp_path / "m000.csv"
    write_track(path, "m000", np.zeros((3, 2)), AFFECT_COLUMNS)
    lines = path.read_text().splitlines()
    movie, _, rest = lines[line - 1].split(",", 2)
    lines[line - 1] = ",".join([movie, token, rest])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_predictions(path)
    assert str(err.value) == f"{path}:{line}: bad second index {token!r}"


# Values whose shortest repr takes an unusual form: signed zero, the
# least subnormal, and exponent forms below and above repr's
# fixed-point range.
EDGE_VALUES = (-0.0, 5e-324, 1e-5, 1e16, 1e22)


@st.composite
def written_tracks(draw):
    """(movie id, [L, C] values) for ``write_track``: C in 1-3 or 2048,
    L around the digit-count boundaries of t and around row-block
    boundaries, the edge values planted among random magnitudes."""
    width = draw(st.sampled_from((1, 2, 3, 2048)))
    rows = max(1, dataio._BLOCK_VALUES // width)  # rows per written block
    if width == 2048:  # every row is a block
        length = draw(st.integers(1, 4))
    else:
        around_block = st.builds(lambda k, d: k * rows + d, st.integers(1, 2), st.integers(-1, 1))
        length = draw(st.sampled_from((9, 10, 99, 100, 999, 1000)) | st.integers(1, 3)
                      | around_block)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.normal(size=(length, width)) * 10.0 ** rng.integers(-320, 300, (length, width))
    planted = st.sampled_from(EDGE_VALUES) | st.floats(allow_nan=False, allow_infinity=False)
    for value in draw(st.lists(planted, max_size=8)):
        values[rng.integers(length), rng.integers(width)] = value
    movie = draw(st.sampled_from(("m000", "%d", "\u6620\u753b", "a b", "")) | st.text(max_size=6))
    return movie, values


def plain_id(movie):
    return files.plain_name(movie) and "," not in movie


# every edge value, in a one-column track one row past its first block
EDGE_TRACK = ("m000", np.resize(EDGE_VALUES, (dataio._BLOCK_VALUES + 1, 1)))


class TestTrackWriter:
    """``write_track`` formats a block of rows at a time, and what it
    writes is what the row-by-row reference writes and what the one-pass
    reader reads."""

    @given(track=written_tracks())
    @example(track=EDGE_TRACK)
    @settings(max_examples=60, deadline=None)
    def test_bytes_match_row_by_row_reference(self, tmp_path_factory, track):
        movie, values = track
        path = tmp_path_factory.getbasetemp() / "written.csv"
        if not plain_id(movie):
            with pytest.raises(DataError, match=re.escape(f"track {movie!r}: ")):
                write_track(path, movie, values)
            return
        write_track(path, movie, values)
        columns = tuple(f"f{i}" for i in range(values.shape[1]))
        assert path.read_bytes() == track_text(movie, values, columns).encode("utf-8")

    @given(track=written_tracks())
    @example(track=EDGE_TRACK)
    @settings(max_examples=60, deadline=None)
    def test_every_written_track_is_read_in_one_pass(self, tmp_path_factory, track):
        movie, values = track
        assume(plain_id(movie))
        path = tmp_path_factory.getbasetemp() / "written.csv"
        write_track(path, movie, values)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "_parse_rows", None)  # any line-by-line read fails
            movie_id, loaded = load_features(path)
        assert movie_id == movie
        assert loaded.shape == values.shape
        assert loaded.view(np.int64).tolist() == values.view(np.int64).tolist()

    @pytest.mark.parametrize("movie", ["../escaped", "a/b", "a\\b", "m,1", "m\n1", "m\r1",
                                       "m\u20281", "", ".", ".."], ids=repr)
    def test_movie_id_must_be_plain(self, tmp_path, movie):
        out = tmp_path / "out"
        for write in (lambda: write_track(out / "track.csv", movie, np.zeros((2, 2))),
                      lambda: save_prediction_dir({"m000": np.zeros((2, 2)),
                                                   movie: np.zeros((2, 2))}, out)):
            with pytest.raises(DataError) as err:
                write()
            assert str(err.value) == (f"track {movie!r}: a movie id must be a plain file "
                                      "name without ','")
        assert list(tmp_path.iterdir()) == []


class TestParsePairs:
    def test_values_and_blank_entries(self):
        assert parse_pairs(" audio:8, ,image: 5,", int) == (("audio", 8), ("image", 5))
        assert parse_pairs("", float) == ()

    @pytest.mark.parametrize("text, kind, message", [
        ("audio", int, "entry 'audio' must be name:value"),
        ("audio:x", int, "expected an integer, got 'x'"),
        ("audio:1.5", int, "expected an integer, got '1.5'"),
        ("audio:nan", float, "expected a finite number, got 'nan'"),
    ], ids=["audio", "audio:x", "audio:1.5", "audio:nan"])
    def test_bad_entry_message(self, text, kind, message):
        """The message leaves the setting to its caller, which names the
        flag, or the manifest and the key, once."""
        with pytest.raises(ConfigError) as err:
            parse_pairs(text, kind)
        assert str(err.value) == message


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
            path=tmp_path / "manifest.txt",
            modalities=(("audio", 4), ("image", 8)),
            movies=movies,
            validation_movies=tuple(f"m{i:03d}" for i in range(validation)),
        )

    def test_split_counts(self, tmp_path):
        manifest = self._manifest(tmp_path)
        train, val = split_dataset(manifest, seed=1, train_fraction=1.0)
        assert len(train) == 17 and len(val) == 13
        assert not set(train) & set(val)

    def test_validation_required_names_the_manifest(self, tmp_path):
        manifest = self._manifest(tmp_path, validation=0)
        message = (f"{tmp_path / 'manifest.txt'}: a validation movie list is required "
                   "but validation_movies is empty")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            split_dataset(manifest, seed=1, train_fraction=1.0, require_validation=True)

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
            split_dataset(manifest, seed=1, train_fraction=1.0, require_validation=True)

    def test_manifest_roundtrip(self, tmp_path):
        manifest = self._manifest(tmp_path, n=3, validation=1)
        path = save_manifest(manifest)
        loaded = load_manifest(path)
        assert loaded.modalities == manifest.modalities
        assert loaded.movies == manifest.movies
        assert loaded.validation_movies == manifest.validation_movies
        keys = [line.split(" = ")[0] for line in path.read_text().splitlines()[1:]]
        assert keys == list(declared(DatasetManifest))

    def test_unknown_manifest_key_rejected(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("modalities = a:2\nmovies = m:5\nfps = 30\n")
        with pytest.raises(ConfigError, match="fps"):
            load_manifest(path)

    @pytest.mark.parametrize("key", ["modalities", "movies"])
    @pytest.mark.parametrize("name", ["", ".", "..", "../x", "a/b", "a\\b", "a\x00b", "a\tb",
                                      "a\x7fb", "a\x85b", "a\u2028b", "a\u2029b"], ids=repr)
    def test_names_must_be_plain_file_names(self, tmp_path, key, name):
        entries = {"modalities": (("audio", 4),), "movies": (("m000", 10),)}
        entries[key] = ((name, 4),)
        with pytest.raises(ConfigError, match="not a plain file name") as info:
            DatasetManifest(path=tmp_path / "manifest.txt", **entries)
        assert info.value.key == key

    def test_plain_names_may_hold_spaces_dots_and_any_script(self, tmp_path):
        manifest = DatasetManifest(path=tmp_path / "manifest.txt",
                                   modalities=(("face mesh", 4),),
                                   movies=(("...", 5), ("a.b", 5), ("\u6620\u753b", 5)))
        assert manifest.feature_path("face mesh", "...").parent.name == "face mesh"

    def test_unknown_validation_movie_rejected(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("modalities = a:2\nmovies = m:5\nvalidation_movies = ghost\n")
        with pytest.raises(ConfigError) as info:
            load_manifest(path)
        assert str(info.value) == f"{path}: key validation_movies: not in movies: ['ghost']"


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


class TestFileBoundary:
    def test_reader_faults_name_the_path(self, tmp_path):
        (tmp_path / "dir").mkdir()
        for path, text in ((tmp_path / "missing", f"{tmp_path}/missing"),
                           (tmp_path / "dir", f"{tmp_path}/dir"),
                           (tmp_path / "nul\x00", repr(f"{tmp_path}/nul\x00"))):
            with pytest.raises(DataError) as info:
                read_file(path)
            assert str(info.value) == f"missing file: {text}"

    def test_decoder_names_the_line(self):
        assert decode_text("p", "a\n\u00e9\n".encode()) == "a\n\u00e9\n"
        with pytest.raises(DataError) as info:
            decode_text("p", b"a\nb\n\xe9\n")
        assert str(info.value) == "p:3: not UTF-8 text"

    def test_writer_makes_parents_and_joins_chunks(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.bin"
        write_file(path, iter(["t\u00e9xt\n", b"\x00\xff"]))
        assert path.read_bytes() == "t\u00e9xt\n".encode() + b"\x00\xff"

    @pytest.mark.parametrize("where, reason", [("on-file", "File exists"),
                                               ("under-file", "Not a directory"),
                                               ("nul", "embedded null byte")])
    def test_writer_faults_name_the_path(self, tmp_path, where, reason):
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        path = {"on-file": blocker / "out.csv", "under-file": blocker / "x" / "out.csv",
                "nul": tmp_path / "r\x00x" / "out.csv"}[where]
        with pytest.raises(DataError) as info:
            write_file(path, ["text"])
        shown = repr(str(path)) if where == "nul" else str(path)
        assert str(info.value) == f"cannot write {shown}: {reason}"
        assert blocker.read_text() == "kept"

    def test_messages_escape_unprintable_paths(self, tmp_path):
        """A printable path reads as it always did; one holding a control
        character reads as its ``repr``, so no raw control byte is printed."""
        assert shown(tmp_path / "plain \u00e9") == f"{tmp_path}/plain \u00e9"
        assert shown("r\x00x") == "'r\\x00x'"
        assert shown("a\x1b[31mb\n") == "'a\\x1b[31mb\\n'"
        with pytest.raises(DataError) as info:
            decode_text("r\x07x", b"\xff")
        assert str(info.value) == "'r\\x07x':1: not UTF-8 text"

    def test_out_dir_check(self, tmp_path):
        """An output directory is refused before any work when it, or its
        nearest existing ancestor, is not a directory, or it holds a NUL;
        the check makes nothing."""
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        check_out_dir(tmp_path)
        check_out_dir(tmp_path / "new" / "deeper")
        for path, reason in ((blocker, "Not a directory"),
                             (blocker / "x" / "y", "Not a directory"),
                             (tmp_path / "r\x00x", "embedded null byte")):
            with pytest.raises(DataError) as info:
                check_out_dir(path)
            assert str(info.value) == f"cannot write {shown(path)}: {reason}"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
        assert blocker.read_text() == "kept"

    def test_files_are_touched_only_by_the_reader_and_writer(self):
        """``open`` and the pathlib calls that read, write or make a
        directory appear in the package only inside ``open_input`` (the
        opener of ``read_file`` and the checkpoint loader) and
        ``write_file``, so every input and output gets their checks."""
        touching = {"open", "read_text", "read_bytes", "write_text", "write_bytes", "mkdir"}
        found = set()

        class Scopes(ast.NodeVisitor):
            def __init__(self, module):
                self.module, self.scope = module, []

            def visit_scope(self, node):
                self.scope.append(node.name)
                self.generic_visit(node)
                self.scope.pop()

            visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_scope

            def note(self, node, name):
                if name in touching:
                    found.add((self.module, ".".join(self.scope), name))
                self.generic_visit(node)

            def visit_Name(self, node):
                self.note(node, node.id)

            def visit_Attribute(self, node):
                self.note(node, node.attr)

        package = Path(files.__file__).parent
        for path in sorted(package.glob("*.py")):
            Scopes(path.stem).visit(ast.parse(path.read_text(), str(path)))
        assert found == {("files", "open_input", "open"),
                         ("files", "write_file", "mkdir"), ("files", "write_file", "open")}


def test_no_module_imports_another_modules_private_name():
    """Each module of the package imports only public names from the
    others: a name that starts with ``_`` stays in its own module."""
    found = set()
    package = Path(files.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:  # from .<module> import
                found |= {(path.stem, node.module, alias.name) for alias in node.names
                          if alias.name.startswith("_")}
    assert found == set()


def test_every_private_module_name_is_used():
    """A module-level private name (``def _x``, ``class _X``, ``_X = ...``)
    is loaded, reached as an attribute or imported somewhere in the
    package: code that nothing calls is deleted, not kept."""
    defined, used = set(), set()
    package = Path(files.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                names = set()
            defined |= {(path.stem, name) for name in names
                        if name.startswith("_") and not name.endswith("__")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
    assert defined, "no private module-level names found"
    assert {(module, name) for module, name in defined if name not in used} == set()


def test_only_dataio_and_model_import_lanes():
    """The fork and thread policy stays behind one module: only ``dataio``
    (the per-track reads and writes) and ``model`` (the encoder threads)
    import ``affectseq.lanes``, however the import is spelled."""
    importers = set()
    package = Path(files.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any("lanes" in name.split(".") for name in names):
                importers.add(path.stem)
    assert importers == {"dataio", "model"}


def lane_tracks():
    """Four movies of 2100 s, 16,800 values: above the fork floor."""
    rng = np.random.default_rng(3)
    tracks = {f"m{i:03d}": rng.normal(size=(2100, 2)) for i in range(4)}
    assert sum(t.size for t in tracks.values()) >= lanes._FORK_VALUES
    return tracks


class TestPredictionDirLanes:
    """``save_prediction_dir`` and ``load_prediction_dirs`` write and read a
    large directory from one lane per usable CPU, this process and forked
    children; what they write, return and raise does not depend on the
    lane count."""

    def test_bytes_do_not_depend_on_lanes(self, monkeypatch, tmp_path, forks):
        tracks = lane_tracks()
        for cpus in (1, 2):
            monkeypatch.setattr(lanes, "usable_cpus", lambda cpus=cpus: cpus)
            save_prediction_dir(tracks, tmp_path / f"cpus{cpus}")
            assert len(forks) == cpus - 1
        for movie in tracks:
            assert ((tmp_path / "cpus1" / f"{movie}.csv").read_bytes()
                    == (tmp_path / "cpus2" / f"{movie}.csv").read_bytes())

    def test_failure_in_a_child_lane_is_raised_as_inline(self, monkeypatch, tmp_path, forks):
        tracks = lane_tracks()
        messages = []
        for cpus in (1, 2):
            out = tmp_path / f"cpus{cpus}"
            (out / "m001.csv").mkdir(parents=True)  # in the child's lane at two lanes
            monkeypatch.setattr(lanes, "usable_cpus", lambda cpus=cpus: cpus)
            with pytest.raises(DataError) as err:
                save_prediction_dir(tracks, out)
            messages.append(str(err.value).replace(str(out), "<out>"))
        assert len(forks) == 1
        assert messages == ["cannot write <out>/m001.csv: Is a directory"] * 2

    def test_tracks_a_dead_child_left_are_written_here(self, monkeypatch, tmp_path, forks):
        tracks = lane_tracks()
        parent, write = os.getpid(), dataio._write_checked

        def dying(path, *args):
            if os.getpid() != parent and path.name == "m003.csv":
                os.kill(os.getpid(), signal.SIGKILL)
            write(path, *args)

        monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
        monkeypatch.setattr(dataio, "_write_checked", dying)
        save_prediction_dir(tracks, tmp_path / "lanes")
        assert len(forks) == 1
        for movie, values in tracks.items():
            write_track(tmp_path / "inline.csv", movie, values, AFFECT_COLUMNS)
            assert ((tmp_path / "lanes" / f"{movie}.csv").read_bytes()
                    == (tmp_path / "inline.csv").read_bytes())

    def test_reads_do_not_depend_on_lanes(self, monkeypatch, tmp_path, forks):
        save_prediction_dir(lane_tracks(), tmp_path)
        read = []
        for cpus in (1, 2):
            forks.clear()
            monkeypatch.setattr(lanes, "usable_cpus", lambda cpus=cpus: cpus)
            read.append(dataio.load_prediction_dirs(tmp_path)[0])
            assert len(forks) == cpus - 1
        assert list(read[0]) == list(read[1]) == [f"m00{i}" for i in range(4)]
        for movie, values in read[0].items():
            assert values.tobytes() == read[1][movie].tobytes()

    def test_bad_token_in_a_child_lane_is_raised_as_inline(self, monkeypatch, tmp_path, forks):
        save_prediction_dir(lane_tracks(), tmp_path)
        path = tmp_path / "m001.csv"  # in the child's lane at two lanes
        lines = path.read_text().splitlines(keepends=True)
        lines[4] = "m001,3,1_0," + lines[4].split(",", 3)[3]
        path.write_text("".join(lines))
        messages = []
        for cpus in (1, 2):
            forks.clear()
            monkeypatch.setattr(lanes, "usable_cpus", lambda cpus=cpus: cpus)
            with pytest.raises(DataError) as err:
                dataio.load_prediction_dirs(tmp_path)[0]
            assert len(forks) == cpus - 1
            messages.append(str(err.value))
        assert messages == [f"{path}:5: bad float literal '1_0'"] * 2

    def test_tracks_a_dead_child_left_are_read_here(self, monkeypatch, tmp_path, forks):
        save_prediction_dir(lane_tracks(), tmp_path)
        inline = dataio.load_prediction_dirs(tmp_path)[0]
        forks.clear()
        parent, load = os.getpid(), dataio.load_predictions

        def dying(path):
            if os.getpid() != parent and path.name == "m003.csv":
                os.kill(os.getpid(), signal.SIGKILL)
            return load(path)

        monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
        monkeypatch.setattr(dataio, "load_predictions", dying)
        read = dataio.load_prediction_dirs(tmp_path)[0]
        assert len(forks) == 1
        assert list(read) == list(inline)
        for movie, values in inline.items():
            assert values.tobytes() == read[movie].tobytes()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_fork_while_another_thread_runs(self, monkeypatch, tmp_path):
        def refuse():
            raise AssertionError("forked while another thread ran")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(60,))
        thread.start()
        try:
            save_prediction_dir(lane_tracks(), tmp_path)
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"m00{i}.csv" for i in range(4)]

    def test_bad_track_writes_nothing(self, tmp_path):
        with pytest.raises(DataError) as err:
            save_prediction_dir({"m000": np.zeros((3, 2)), "m001": np.array([[0.0, np.nan]])},
                                tmp_path / "out")
        assert str(err.value) == "track m001 has non-finite values"
        assert not (tmp_path / "out").exists()

    def test_commands_leave_no_child_process(self, monkeypatch, tmp_path, forks):
        """``predict``, ``smooth``, ``ensemble`` and ``evaluate`` handle
        directories of 16,400 values and fork one child per pass of per-track
        work, and every child is reaped when they return: ``predict`` writes
        (1); ``smooth`` reads and filters in one pass, then writes (2);
        ``ensemble`` reads both runs in one pass, then writes (2); ``evaluate``
        reads the annotations and the predictions in one pass (1)."""
        manifest = synth_generate(SynthSpec(num_movies=2, length=4100,
                                            modalities=(("audio", 1),)), tmp_path / "data", 1)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"manifest = {manifest.path}\nprofile = run1\nsequence_length = 2\n"
                       "hidden_units = 2\nbatch_size = 4096\n")
        init_model_params(parse_config(cfg).model_config(), 0).save(tmp_path / "model.ckpt")
        monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
        raw, smooth, mean = (str(tmp_path / name) for name in ("raw", "smooth", "mean"))
        for argv in (["predict", "--config", str(cfg), "--checkpoint",
                      str(tmp_path / "model.ckpt"), "--out", raw],
                     ["smooth", "--predictions", raw, "--out", smooth],
                     ["ensemble", "--runs", raw, smooth, "--out", mean],
                     ["evaluate", "--predictions", mean, "--annotations",
                      str(tmp_path / "data" / "annotations"), "--out", str(tmp_path / "eval")]):
            assert main(argv) == 0
        assert len(forks) == 6
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def lane_dataset(root):
    """Two movies of 100 s over 40 + 42 feature columns, 16,400 feature
    values and 400 annotation values: above the fork floor."""
    manifest = synth_generate(SynthSpec(num_movies=2, length=100,
                                        modalities=(("audio", 40), ("image", 42))), root, 1)
    assert 2 * 100 * (40 + 42) >= lanes._FORK_VALUES
    return manifest


class TestDatasetLanes:
    """``load_dataset`` reads and checks one track per job, each movie's
    modalities and then its annotations: at two lanes this process reads
    jobs 0, 2, 4 (m000/audio, m000 annotations, m001/image) and a child
    jobs 1, 3, 5. What it returns and raises does not depend on the lane
    count."""

    @pytest.mark.parametrize("with_annotations", [True, False])
    def test_arrays_do_not_depend_on_lanes(self, monkeypatch, tmp_path, forks,
                                           with_annotations):
        manifest = lane_dataset(tmp_path)
        read = []
        for cpus in (1, 2):
            forks.clear()
            monkeypatch.setattr(lanes, "usable_cpus", lambda cpus=cpus: cpus)
            read.append(load_dataset(manifest, with_annotations))
            assert len(forks) == cpus - 1
        (features, annotations), (features2, annotations2) = read
        assert list(features) == list(features2) == ["m000", "m001"]
        assert list(annotations) == list(annotations2) == (
            ["m000", "m001"] if with_annotations else [])
        for movie, tracks in features.items():
            assert list(tracks) == list(features2[movie]) == ["audio", "image"]
            for modality, values in tracks.items():
                assert values.shape == (100, 40 if modality == "audio" else 42)
                assert values.tobytes() == features2[movie][modality].tobytes()
        for movie, values in annotations.items():
            assert values.tobytes() == annotations2[movie].tobytes()

    def raised(self, monkeypatch, manifest, forks) -> list[str]:
        messages = []
        for cpus in (1, 2):
            forks.clear()
            monkeypatch.setattr(lanes, "usable_cpus", lambda cpus=cpus: cpus)
            with pytest.raises(DataError) as err:
                load_dataset(manifest)
            assert len(forks) == cpus - 1
            messages.append(str(err.value))
        return messages

    def test_bad_token_in_a_child_lane_is_raised_as_inline(self, monkeypatch, tmp_path, forks):
        manifest = lane_dataset(tmp_path)
        path = manifest.feature_path("image", "m000")  # job 1: the child's lane
        lines = path.read_text().splitlines(keepends=True)
        lines[4] = "m000,3,1_0," + lines[4].split(",", 3)[3]
        path.write_text("".join(lines))
        assert self.raised(monkeypatch, manifest, forks) == [
            f"{path}:5: bad float literal '1_0'"] * 2

    def test_first_fault_in_job_order_wins(self, monkeypatch, tmp_path, forks):
        """An annotation fault in m000 (job 2, this lane) wins over a
        feature fault in m001 (job 3, the child's lane), at both counts."""
        manifest = lane_dataset(tmp_path)
        annotation = manifest.annotation_path("m000")
        write_track(annotation, "m000", np.full((100, 2), 1.5), AFFECT_COLUMNS)
        feature = manifest.feature_path("audio", "m001")
        feature.write_text(feature.read_text().replace("m001,7,", "m001,8,", 1))
        assert self.raised(monkeypatch, manifest, forks) == [
            f"{annotation}: annotation outside the range [-1.0, 1.0] that "
            f"{manifest.path} declares"] * 2
        write_track(annotation, "m000", np.zeros((100, 2)), AFFECT_COLUMNS)
        assert self.raised(monkeypatch, manifest, forks) == [
            f"{feature}:9: gap in seconds, expected t=7, got t=8"] * 2
