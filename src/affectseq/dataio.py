"""Track files and the datasets built from them: the track CSV format,
prediction directories, dataset loading, windows, splits, batches, and
the synthetic generator.

A track CSV's header is ``movie_id,t,`` and its value columns
(``f0..f{D-1}`` for features, ``valence,arousal`` for annotations and
predictions). Seconds are strictly consecutive integers from 0 in plain
ASCII digits; gaps are errors, never interpolated, and a track's movie
id must match its file name. Every track CSV goes through one reader
(``load_features`` and ``load_predictions`` are its public faces) and
one writer, ``write_track``. Ingest accepts only finite decimal float
literals (``float()`` syntax without ``_``); the writer emits each value
as its shortest round-trip decimal (``repr``), a block of rows at a
time, and the value reads back bit for bit. A track as the writer lays
it out (rows ``<id>,<t>,...`` with one id, t written 0..L-1, and no
control byte but the newline) has its line heads checked by vectorised
passes over its bytes and its values parsed in one ``np.loadtxt`` pass;
any other text is read line by line, which gives the same values and
the ``<path>:<line>`` errors. A movie id is a file name and a CSV field,
so the writers refuse one that is not plain or that holds ``,``.
``save_prediction_dir`` checks every track before it writes one.

A prediction directory's reads and writes, and ``load_dataset``'s reads
and checks, run one job per track through
:func:`affectseq.lanes.per_track`; a lane reads and writes with the same
code, so the values, files and faults do not depend on the lane count.
"""

from __future__ import annotations

import functools
import io
import math
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .config import (MANIFEST_NAME, DatasetManifest, items, number, parse_pairs, save_manifest,
                     setting)
from .errors import ConfigError, DataError
from .files import decode_text, plain_name, read_file, shown, write_file
from .lanes import per_track
from .rng import generator

AFFECT_COLUMNS = ("valence", "arousal")


def _parse_float(token: str, where: str) -> float:
    if "_" not in token:  # float() reads digit groups: "1_0" would be 10.0
        try:
            return float(token)
        except ValueError:
            pass
    raise DataError(f"{where}: bad float literal {token!r}")


def _read_track(path: Path, columns: tuple[str, ...] | None) -> tuple[str, np.ndarray]:
    """(movie id, [L, C] values) of one track CSV; ``columns`` None means
    ``f0..f{C-1}`` with C taken from the header."""
    data = read_file(path)
    source = shown(path)
    if not data:
        raise DataError(f"{source}: empty file")
    ends = _line_ends(data)
    lines = None if ends is not None else decode_text(path, data).splitlines()
    first = lines[0] if ends is None else data[:ends[0]].decode()
    header = first.split(",")
    if columns is None:
        columns = tuple(f"f{i}" for i in range(len(header) - 2))
    expected = ["movie_id", "t", *columns]
    if header != expected:
        raise DataError(f"{source}: header {first!r} is not {','.join(expected)!r}")
    if not columns:
        raise DataError(f"{source}: no value columns")
    if ends is not None:
        track = _load_canonical(data, ends, len(columns))
        if track is not None:
            return track
        lines = data.decode().splitlines()
    return _parse_rows(source, lines[1:], len(columns))


def _line_ends(data: bytes) -> np.ndarray | None:
    """The offset of each line's end in a track file's bytes when a
    newline alone ends its lines, as ``str.splitlines()`` would end them:
    UTF-8 text with no other control byte and no U+0085, U+2028 or U+2029
    line break; else None."""
    if not data.isascii():
        try:
            text = data.decode()
        except UnicodeDecodeError:
            return None
        if any(ch in text for ch in "\x85\u2028\u2029"):
            return None
    octets = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(octets < 0x20)
    if (octets[ends] != ord("\n")).any():
        return None
    return ends if data.endswith(b"\n") else np.append(ends, len(data))


def _load_canonical(data: bytes, ends: np.ndarray, width: int) -> tuple[str, np.ndarray] | None:
    """(movie id, [L, width] values) of a track file's bytes, whose lines
    end at ``ends``, when every data line is ``<id>,<t>,<width values>``
    with one id and t written 0..L-1; None for any other text. Vectorised
    passes over the bytes check each line's head, and one ``np.loadtxt``
    pass parses the values."""
    starts, stops = ends[:-1] + 1, ends[1:]
    count = len(starts)
    if not count:
        return None
    head = data[starts[0]:stops[0]].partition(b",")[0] + b","
    digits = np.ones(count, np.int64)  # of each line's t
    for power in range(1, len(str(count - 1))):
        digits[10 ** power:] += 1
    at = starts + len(head)  # where each t begins
    # loadtxt skips empty lines, so each must hold its head and a value
    if (stops - at <= digits + 1).any():
        return None
    octets = np.frombuffer(data, np.uint8)
    if any((octets[starts + i] != byte).any() for i, byte in enumerate(head)):
        return None
    t = np.arange(count)
    for i in range(digits[-1]):  # the i-th digit of every t that has one
        has = slice(10 ** i if i else 0, None)
        if (octets[at[has] + i] != ord("0") + t[has] // 10 ** (digits[has] - 1 - i) % 10).any():
            return None
    # a line of fewer than width + 2 fields fails loadtxt's usecols, so
    # the body's comma count shows any line of more
    commas = np.count_nonzero(octets[ends[0]:] == ord(","))
    if (octets[at + digits] != ord(",")).any() or commas != count * (width + 1):
        return None
    try:
        values = np.loadtxt(io.BytesIO(data), delimiter=",", comments=None, skiprows=1,
                            usecols=range(2, width + 2), ndmin=2)
    except ValueError:
        return None
    if values.shape != (count, width) or not np.isfinite(values).all():
        return None
    return head[:-1].decode(), values


def _parse_rows(source: str, lines: list[str], width: int) -> tuple[str, np.ndarray]:
    """(movie id, [L, width] values) of the data lines of the file shown as
    ``source``, read line by line; the authority on ``<path>:<line>`` errors."""
    movie_id = None
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        where = f"{source}:{lineno}"
        fields = line.split(",")
        if len(fields) != width + 2:
            raise DataError(f"{where}: expected {width + 2} fields, got {len(fields)}")
        if movie_id is None:
            movie_id = fields[0]
        elif fields[0] != movie_id:
            raise DataError(f"{where}: mixed movie ids {movie_id!r} and {fields[0]!r}")
        try:
            if not (fields[1].isascii() and fields[1].isdigit()):  # int() reads "+1", "1_0"
                raise ValueError(fields[1])
            t = int(fields[1])  # int() refuses past its digit limit
        except ValueError:
            raise DataError(f"{where}: bad second index {fields[1]!r}") from None
        expected_t = len(rows)
        if t != expected_t:
            raise DataError(f"{where}: gap in seconds, expected t={expected_t}, got t={t}")
        values = [_parse_float(tok, where) for tok in fields[2:]]
        if not all(math.isfinite(v) for v in values):
            raise DataError(f"{where}: non-finite value")
        rows.append(values)
    if not rows:
        raise DataError(f"{source}: no data rows (empty movie)")
    return movie_id, np.array(rows)


def _check_movie_id(path: Path, movie_id: str, expected: str) -> None:
    if movie_id != expected:
        raise DataError(f"{shown(path)}: movie id {movie_id!r} does not match file location")


def load_features(path) -> tuple[str, np.ndarray]:
    """(movie id, [L, D] values) of one feature CSV; D comes from the header."""
    return _read_track(Path(path), None)


def load_predictions(path) -> tuple[str, np.ndarray]:
    """(movie id, [L, 2] values) of one annotation or prediction CSV."""
    return _read_track(Path(path), AFFECT_COLUMNS)


def _checked_track(movie_id: str, values, columns: tuple[str, ...] | None
                   ) -> tuple[np.ndarray, tuple[str, ...]]:
    """(values as float64, column names) of a track that ``write_track`` can
    write: a plain movie id without ``,``, [L>=1, C>=1] finite values, and
    as many columns as names."""
    if not plain_name(movie_id) or "," in movie_id:  # a file name, and a CSV field
        raise DataError(f"track {movie_id!r}: a movie id must be a plain file name without ','")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
        raise DataError(f"track {movie_id} must be [L>=1, C>=1], got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise DataError(f"track {movie_id} has non-finite values")
    if columns is None:
        columns = tuple(f"f{i}" for i in range(values.shape[1]))
    if len(columns) != values.shape[1]:
        raise DataError(f"track {movie_id} has {values.shape[1]} value columns, "
                        f"expected {len(columns)}")
    return values, columns


# A track is formatted a block of whole rows at a time, each block about
# this many values, so the text is never held whole.
_BLOCK_VALUES = 2 ** 11


def _write_checked(path, movie_id: str, values: np.ndarray, columns: tuple[str, ...]) -> None:
    write_file(path, _track_text(movie_id, values, columns))


def _track_text(movie_id: str, values: np.ndarray, columns: tuple[str, ...]) -> Iterator[str]:
    """The text of a checked track: its header, then one string per row
    block, which joins the block's value reprs with commas and lets each
    row's last value carry the line break and the next row's head."""
    yield "movie_id,t," + ",".join(columns) + "\n"
    count, width = values.shape
    rows = max(1, _BLOCK_VALUES // width)
    head = f"\n{movie_id},"
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        tokens = list(map(repr, values[start:stop].ravel().tolist()))
        last = slice(width - 1, -1, width)  # each row's last value but the block's
        tokens[last] = map(str.__add__, tokens[last],
                           map(head.__add__, map(str, range(start + 1, stop))))
        tokens[0] = f"{movie_id},{start},{tokens[0]}"
        tokens[-1] += "\n"
        yield ",".join(tokens)


def write_track(path, movie_id: str, values, columns: tuple[str, ...] | None = None) -> None:
    """Write one track CSV, each value as its shortest round-trip decimal;
    ``columns`` None names the value columns ``f0..f{C-1}``."""
    _write_checked(path, movie_id, *_checked_track(movie_id, values, columns))


def _load_named(path: Path) -> np.ndarray:
    """The values of one track CSV whose movie id is its file name's stem."""
    movie_id, values = load_predictions(path)
    _check_movie_id(path, movie_id, path.stem)
    return values


def load_prediction_dir(directory) -> dict[str, np.ndarray]:
    """All ``<movie>.csv`` tracks in a prediction or annotation directory,
    each checked for its movie id.

    A directory of files that hold at least ``_FORK_VALUES`` values, as
    their bytes tell, is read by :func:`per_track`'s lanes, one job per
    file; a fault is raised as an inline read raises it.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise DataError(f"missing track directory: {shown(directory)}")
    paths = sorted(directory.glob("*.csv"))
    if not paths:
        raise DataError(f"no track files in {shown(directory)}")
    size = 0
    for path in paths:
        with suppress(OSError):  # the read names the file
            size += path.stat().st_size
    # a value as write_track writes a track of two columns takes about 24
    # bytes: its repr, a comma, and half its row's head
    jobs = [functools.partial(_load_named, path) for path in paths]
    return dict(zip((path.stem for path in paths), per_track(jobs, size // 24)))


def save_prediction_dir(preds: Mapping[str, np.ndarray], directory) -> None:
    """Write each ``<movie>.csv`` track of ``preds`` into ``directory`` as
    ``write_track`` writes it, after checking every track, so a bad track
    raises its ``write_track`` message before any file is written.

    The tracks are written by :func:`per_track`, one job per track; on a
    failure other movies' files may be left behind.
    """
    directory = Path(directory)
    jobs = [functools.partial(_write_checked, directory / f"{movie}.csv", movie,
                              *_checked_track(movie, preds[movie], AFFECT_COLUMNS))
            for movie in sorted(preds)]
    per_track(jobs, sum(job.args[2].size for job in jobs))


def load_dataset(manifest: DatasetManifest, with_annotations: bool = True):
    """Load every declared track; returns (features, annotations).

    ``features[movie][modality]`` is [L, D]; ``annotations[movie]`` is
    [L, 2]. Lengths are validated against the manifest and each other.
    Each track is read and checked by one job of :func:`per_track`, each
    movie's modalities and then its annotations; its fork floor counts the
    values the manifest declares (length x width per track). The first
    fault in that order is raised, as an inline read raises it.
    """
    lo, hi = manifest.annotation_range
    declared = f"but {shown(manifest.path)} declares"

    def feature(movie: str, length: int, modality: str, dim: int) -> np.ndarray:
        path = manifest.feature_path(modality, movie)
        movie_id, values = load_features(path)
        _check_movie_id(path, movie_id, movie)
        if values.shape[1] != dim:
            raise DataError(f"{shown(path)}: {values.shape[1]} feature columns, "
                            f"{declared} {modality}:{dim}")
        if len(values) != length:
            raise DataError(f"{shown(path)}: {len(values)} seconds, {declared} {movie}:{length}")
        return values

    def annotation(movie: str, length: int) -> np.ndarray:
        path = manifest.annotation_path(movie)
        movie_id, values = load_predictions(path)
        _check_movie_id(path, movie_id, movie)
        if np.any(values < lo) or np.any(values > hi):
            raise DataError(f"{shown(path)}: annotation outside the range [{lo}, {hi}] "
                            f"that {shown(manifest.path)} declares")
        if len(values) != length:
            raise DataError(f"{shown(path)}: {len(values)} seconds, {declared} {movie}:{length}")
        return values

    jobs = []
    for movie, length in manifest.movies:
        jobs += [functools.partial(feature, movie, length, modality, dim)
                 for modality, dim in manifest.modalities]
        if with_annotations:
            jobs.append(functools.partial(annotation, movie, length))
    width = sum(dim for _, dim in manifest.modalities) + len(AFFECT_COLUMNS) * with_annotations
    tracks = iter(per_track(jobs, width * sum(length for _, length in manifest.movies)))
    features: dict[str, dict[str, np.ndarray]] = {}
    annotations: dict[str, np.ndarray] = {}
    for movie, _ in manifest.movies:
        features[movie] = {modality: next(tracks) for modality, _ in manifest.modalities}
        if with_annotations:
            annotations[movie] = next(tracks)
    return features, annotations


@dataclass(frozen=True)
class WindowSet:
    """Sliding T-second windows over movie-aligned modality tracks.

    One window per annotated second t, covering seconds [t-T+1, t]; the
    seconds before 0 repeat the t=0 feature row. Windows never mix rows
    from two movies. Windows are ordered by (movie id, t).

    ``rows[mod]`` is every movie's left-padded track concatenated in that
    order; window i covers rows ``starts[i] .. starts[i] + window - 1``.
    ``targets`` is [N, 2], or None for inference windows.
    """

    window: int
    rows: dict[str, np.ndarray]
    starts: np.ndarray
    targets: np.ndarray | None

    def __len__(self) -> int:
        return len(self.starts)

    def gather(self, indices) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
        """Materialize a batch: per-modality [B, T, D] arrays plus targets."""
        indices = np.asarray(indices, dtype=np.int64)
        rows = self.starts[indices, None] + np.arange(self.window)
        windows = {mod: arr[rows] for mod, arr in self.rows.items()}
        return windows, None if self.targets is None else self.targets[indices]


def window_sequences(features: Mapping[str, Mapping[str, np.ndarray]],
                     annotations: Mapping[str, np.ndarray] | None,
                     window: int) -> WindowSet:
    """Build the windows of every movie; with annotations each window
    carries its final second's target, without them none does."""
    if window < 1:
        raise ConfigError("window length must be >= 1")
    if not features:
        raise DataError("no movies to window")
    movies = sorted(features)
    modalities = sorted(features[movies[0]])
    parts: dict[str, list[np.ndarray]] = {mod: [] for mod in modalities}
    starts, targets = [], []
    offset = 0
    for movie in movies:
        tracks = features[movie]
        if sorted(tracks) != modalities:
            raise DataError(f"{movie}: modalities {sorted(tracks)} differ from {modalities}")
        lengths = {len(arr) for arr in tracks.values()}
        if len(lengths) != 1:
            raise DataError(f"{movie}: modalities disagree on length")
        length = lengths.pop()
        if length == 0:
            raise DataError(f"{movie}: empty movie")
        if annotations is not None:
            if movie not in annotations:
                raise DataError(f"{movie}: no annotations")
            if len(annotations[movie]) != length:
                raise DataError(f"{movie}: targets do not match track length")
            targets.append(annotations[movie])
        for mod in modalities:
            arr = tracks[mod]
            parts[mod] += [np.repeat(arr[:1], window - 1, axis=0), arr]
        starts.append(offset + np.arange(length))
        offset += window - 1 + length
    return WindowSet(
        window=window,
        rows={mod: np.concatenate(p, dtype=np.float64) for mod, p in parts.items()},
        starts=np.concatenate(starts, dtype=np.int64),
        targets=None if annotations is None else np.concatenate(targets, dtype=np.float64),
    )


def split_dataset(manifest: DatasetManifest, seed: int, train_fraction: float,
                  require_validation: bool = False) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Movie-level split: validation ids from the manifest, then a seeded
    ``train_fraction`` cut on whole movies (no second-level leakage).

    The fraction, in (0, 1], comes from the run config; the cut keeps
    round(fraction * n) movies chosen by a seeded shuffle.
    """
    validation = tuple(sorted(manifest.validation_movies))
    if require_validation and not validation:
        raise ConfigError(f"{shown(manifest.path)}: a validation movie list is required "
                          "but validation_movies is empty")
    if not 0.0 < train_fraction <= 1.0:
        raise ConfigError("train_fraction must lie in (0, 1]")
    train = sorted(set(manifest.movie_ids) - set(validation))
    if train_fraction < 1.0 and train:
        keep = max(1, int(math.floor(train_fraction * len(train) + 0.5)))
        rng = generator(seed, "train-fraction")
        order = rng.permutation(len(train))
        train = sorted(train[i] for i in order[:keep])
    return tuple(train), validation


def batch_indices(n: int, batch_size: int, order: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """Chunk 0..n-1 (or a given order) into consecutive batches of
    ``batch_size``. A one-window remainder (n = 1 mod batch_size) joins the
    batch before it, so no batch holds a single window unless n == 1 or
    batch_size == 1: train-mode batch norm needs two."""
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    idx = np.arange(n) if order is None else np.asarray(order)
    starts = list(range(0, n, batch_size))
    if n % batch_size == 1 and len(starts) > 1:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [n]):
        yield idx[lo:hi]


@dataclass(frozen=True)
class SynthSpec:
    """Shape of a generated dataset with known latent dynamics.

    ``noise`` is a shared level; ``noise_overrides`` sets per-modality
    levels on top of it. Each field but ``annotation_range`` is set by a
    ``synth`` flag and declared with its parser; ``__post_init__`` checks
    the ranges.
    """

    num_movies: int = setting(3, number(int))
    length: int = setting(200, number(int))
    modalities: tuple[tuple[str, int], ...] = setting((("audio", 8), ("image", 8)),
                                                      lambda raw: parse_pairs(raw, int))
    noise: float = setting(0.05, number(float))
    noise_overrides: tuple[tuple[str, float], ...] = setting(
        (), lambda raw: parse_pairs(raw, float))
    annotation_range: tuple[float, float] = (-1.0, 1.0)
    lag: int = setting(3, number(int))
    validation_movies: tuple[str, ...] = setting((), items(str))

    def __post_init__(self):
        for key in ("num_movies", "length"):
            if getattr(self, key) < 1:
                raise ConfigError("must be >= 1", key=key)
        for key in ("noise", "lag"):
            if not 0 <= getattr(self, key) < math.inf:  # NaN fails too
                raise ConfigError("must be finite and >= 0", key=key)
        names = {name for name, _ in self.modalities}
        for name, level in self.noise_overrides:
            if name not in names:
                raise ConfigError(f"unknown modality {name!r}", key="noise_overrides")
            if not 0 <= level < math.inf:
                raise ConfigError("levels must be finite and >= 0", key="noise_overrides")

    def noise_for(self, modality: str) -> float:
        for name, level in self.noise_overrides:
            if name == modality:
                return level
        return self.noise


def _latent_trajectory(length: int, annotation_range: tuple[float, float],
                       rng: np.random.Generator) -> np.ndarray:
    """Smooth 2-D trajectory: a few low-frequency sinusoids, clipped to range."""
    lo, hi = annotation_range
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    t = np.arange(length)
    out = np.empty((length, 2))
    for d in range(2):
        n_waves = 4
        freqs = rng.uniform(0.002, 0.02, size=n_waves)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n_waves)
        amps = rng.uniform(0.5, 1.0, size=n_waves)
        amps *= 0.8 * half / amps.sum()
        offset = rng.uniform(-0.1, 0.1) * half
        wave = sum(a * np.sin(2.0 * np.pi * f * t + p) for a, f, p in zip(amps, freqs, phases))
        out[:, d] = mid + offset + wave
    return np.clip(out, lo, hi)


def synth_generate(spec: SynthSpec, out_dir, seed: int) -> DatasetManifest:
    """Write a full synthetic dataset; same seed gives byte-identical files.

    Annotations are the latent trajectory itself. Each modality's features
    are a fixed random linear lift of (latent, lagged latent) plus
    Gaussian noise, so a linear probe can recover the latent when noise
    is zero.
    """
    out_dir = Path(out_dir)
    movie_ids = [f"m{i:03d}" for i in range(spec.num_movies)]
    manifest = DatasetManifest(
        path=out_dir / MANIFEST_NAME,
        modalities=spec.modalities,
        movies=tuple((m, spec.length) for m in movie_ids),
        annotation_range=spec.annotation_range,
        validation_movies=spec.validation_movies,
    )
    lifts = {
        name: generator(seed, f"lift-{name}").normal(0.0, 0.5, size=(dim, 4))
        for name, dim in spec.modalities
    }
    for movie in movie_ids:
        latent = _latent_trajectory(spec.length, spec.annotation_range,
                                    generator(seed, f"latent-{movie}"))
        write_track(manifest.annotation_path(movie), movie, latent, AFFECT_COLUMNS)
        lag_idx = np.maximum(np.arange(spec.length) - spec.lag, 0)
        base = np.concatenate([latent, latent[lag_idx]], axis=1)
        for name, dim in spec.modalities:
            noise = generator(seed, f"noise-{name}-{movie}").normal(
                0.0, 1.0, size=(spec.length, dim))
            values = base @ lifts[name].T + spec.noise_for(name) * noise
            write_track(manifest.feature_path(name, movie), movie, values)
    save_manifest(manifest)
    return manifest
