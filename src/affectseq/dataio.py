"""Dataset ingestion, windowing, splits, and the synthetic generator.

On-disk layout, rooted at the directory holding ``manifest.txt``:

    manifest.txt
    features/<modality>/<movie_id>.csv    header: movie_id,t,f0..f{D-1}
    annotations/<movie_id>.csv            header: movie_id,t,valence,arousal

Seconds are strictly consecutive integers from 0; gaps are errors, never
interpolated. Ingest accepts decimal or hexadecimal float literals;
round-trip dumps write hexadecimal so values survive bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .errors import ConfigError, DataError
from .rng import generator

FEATURES_DIR = "features"
ANNOTATIONS_DIR = "annotations"
MANIFEST_NAME = "manifest.txt"


def _parse_float(token: str, where: str) -> float:
    try:
        return float(token)
    except ValueError:
        try:
            return float.fromhex(token)
        except ValueError:
            raise DataError(f"{where}: bad float literal {token!r}") from None


def _format_float(value: float, hex_floats: bool) -> str:
    return float(value).hex() if hex_floats else repr(float(value))


@dataclass(frozen=True)
class FeatureTrack:
    """One movie, one modality: a 1 Hz sequence of D-dim feature vectors."""

    movie_id: str
    modality: str
    values: np.ndarray  # [L, D]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise DataError(f"feature track {self.movie_id}/{self.modality} must be [L>=1, D>=1]")
        if not np.all(np.isfinite(values)):
            raise DataError(f"feature track {self.movie_id}/{self.modality} has non-finite values")

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class AnnotationTrack:
    """Per-second (valence, arousal) ground truth for one movie."""

    movie_id: str
    values: np.ndarray  # [L, 2]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[1] != 2 or values.shape[0] < 1:
            raise DataError(f"annotation track {self.movie_id} must be [L>=1, 2]")
        if not np.all(np.isfinite(values)):
            raise DataError(f"annotation track {self.movie_id} has non-finite values")

    @property
    def length(self) -> int:
        return self.values.shape[0]


def _read_track_rows(path: Path, expected_header: list[str] | None,
                     value_count: int | None) -> tuple[list[str], list[list[float]], str]:
    if not path.exists():
        raise DataError(f"missing file: {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    header = lines[0].split(",")
    if expected_header is not None and header[: len(expected_header)] != expected_header:
        raise DataError(f"{path}: header {lines[0]!r} does not start with {','.join(expected_header)!r}")
    if value_count is None:
        value_count = len(header) - 2
    if len(header) != value_count + 2:
        raise DataError(f"{path}: header declares {len(header) - 2} value columns, expected {value_count}")
    movie_id = None
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != value_count + 2:
            raise DataError(f"{path}:{lineno}: expected {value_count + 2} fields, got {len(fields)}")
        if movie_id is None:
            movie_id = fields[0]
        elif fields[0] != movie_id:
            raise DataError(f"{path}:{lineno}: mixed movie ids {movie_id!r} and {fields[0]!r}")
        try:
            t = int(fields[1])
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad second index {fields[1]!r}") from None
        expected_t = len(rows)
        if t != expected_t:
            raise DataError(f"{path}:{lineno}: gap in seconds, expected t={expected_t}, got t={t}")
        values = [_parse_float(tok, f"{path}:{lineno}") for tok in fields[2:]]
        if not all(math.isfinite(v) for v in values):
            raise DataError(f"{path}:{lineno}: non-finite value")
        rows.append(values)
    if not rows:
        raise DataError(f"{path}: no data rows (empty movie)")
    return header, rows, movie_id


def load_features(path, modality: str | None = None) -> FeatureTrack:
    """Read one feature CSV; the dimensionality comes from the header."""
    path = Path(path)
    header, rows, movie_id = _read_track_rows(path, ["movie_id", "t"], None)
    dim = len(header) - 2
    if header[2:] != [f"f{i}" for i in range(dim)]:
        raise DataError(f"{path}: feature columns must be named f0..f{dim - 1}")
    if modality is None:
        modality = path.parent.name
    return FeatureTrack(movie_id=movie_id, modality=modality, values=np.array(rows))


def save_features(track: FeatureTrack, path, hex_floats: bool = True) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = "movie_id,t," + ",".join(f"f{i}" for i in range(track.dim))
    lines = [header]
    for t in range(track.length):
        vals = ",".join(_format_float(v, hex_floats) for v in track.values[t])
        lines.append(f"{track.movie_id},{t},{vals}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_annotations(path, value_range: tuple[float, float] | None = None) -> AnnotationTrack:
    path = Path(path)
    _, rows, movie_id = _read_track_rows(path, ["movie_id", "t", "valence", "arousal"], 2)
    values = np.array(rows)
    if value_range is not None:
        lo, hi = value_range
        if np.any(values < lo) or np.any(values > hi):
            raise DataError(f"{path}: annotation outside declared range [{lo}, {hi}]")
    return AnnotationTrack(movie_id=movie_id, values=values)


def save_annotations(track: AnnotationTrack, path, hex_floats: bool = False) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["movie_id,t,valence,arousal"]
    for t in range(track.length):
        v, a = track.values[t]
        lines.append(f"{track.movie_id},{t},{_format_float(v, hex_floats)},{_format_float(a, hex_floats)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


load_predictions = load_annotations
save_predictions = save_annotations


def load_prediction_dir(directory) -> dict[str, np.ndarray]:
    """All ``<movie>.csv`` tracks in a prediction or annotation directory."""
    directory = Path(directory)
    if not directory.is_dir():
        raise DataError(f"missing track directory: {directory}")
    paths = sorted(directory.glob("*.csv"))
    if not paths:
        raise DataError(f"no track files in {directory}")
    return {track.movie_id: track.values for track in map(load_predictions, paths)}


def save_prediction_dir(preds: Mapping[str, np.ndarray], directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for movie in sorted(preds):
        save_predictions(AnnotationTrack(movie_id=movie, values=preds[movie]),
                         directory / f"{movie}.csv")


@dataclass(frozen=True)
class DatasetManifest:
    """Declares modalities, movies, ranges, and the split."""

    root: Path
    modalities: tuple[tuple[str, int], ...]
    movies: tuple[tuple[str, int], ...]
    annotation_range: tuple[float, float] = (-1.0, 1.0)
    validation_movies: tuple[str, ...] = ()
    train_fraction: float = 1.0

    def __post_init__(self):
        names = [m for m, _ in self.movies]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate movie ids in movies", key="movies")
        if not self.modalities:
            raise ConfigError("modalities needs at least one entry", key="modalities")
        if any(d < 1 for _, d in self.modalities):
            raise ConfigError("dims in modalities must be >= 1", key="modalities")
        if any(length < 1 for _, length in self.movies):
            raise ConfigError("lengths in movies must be >= 1", key="movies")
        lo, hi = self.annotation_range
        if not lo < hi:
            raise ConfigError("annotation_range must satisfy lo < hi", key="annotation_range")
        unknown = set(self.validation_movies) - set(names)
        if unknown:
            raise ConfigError(f"validation_movies not in movies: {sorted(unknown)}",
                              key="validation_movies")
        if not 0.0 < self.train_fraction <= 1.0:
            raise ConfigError("train_fraction must lie in (0, 1]", key="train_fraction")

    @property
    def movie_ids(self) -> tuple[str, ...]:
        return tuple(m for m, _ in self.movies)

    def feature_path(self, modality: str, movie: str) -> Path:
        return self.root / FEATURES_DIR / modality / f"{movie}.csv"

    def annotation_path(self, movie: str) -> Path:
        return self.root / ANNOTATIONS_DIR / f"{movie}.csv"


def _parse_kv_lines(path: Path) -> dict[str, str]:
    if not path.exists():
        raise DataError(f"missing file: {path}")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise DataError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    kv = _parse_kv_lines(path)
    allowed = {"modalities", "movies", "annotation_range", "validation_movies", "train_fraction"}
    unknown = set(kv) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown manifest keys: {sorted(unknown)}")
    for required in ("modalities", "movies"):
        if required not in kv:
            raise ConfigError(f"{path}: missing required key {required!r}")

    def number(kind: type, key: str, raw: str):
        try:
            return kind(raw)
        except ValueError:
            raise ConfigError(f"{path}: bad value {raw!r} in {key}") from None

    def pairs(key: str) -> tuple[tuple[str, int], ...]:
        items = []
        for chunk in kv[key].split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if ":" not in chunk:
                raise ConfigError(f"{path}: entry {chunk!r} in {key} must be name:count")
            name, _, count = chunk.partition(":")
            items.append((name.strip(), number(int, key, count)))
        if not items:
            raise ConfigError(f"{path}: key {key} is empty")
        return tuple(items)

    annotation_range = (-1.0, 1.0)
    if "annotation_range" in kv:
        parts = [p.strip() for p in kv["annotation_range"].split(",")]
        if len(parts) != 2:
            raise ConfigError(f"{path}: annotation_range must be 'lo, hi'")
        annotation_range = tuple(number(float, "annotation_range", p) for p in parts)
    validation = tuple(
        p.strip() for p in kv.get("validation_movies", "").split(",") if p.strip()
    )
    parsed = dict(
        modalities=pairs("modalities"),
        movies=pairs("movies"),
        annotation_range=annotation_range,
        validation_movies=validation,
        train_fraction=number(float, "train_fraction", kv.get("train_fraction", "1.0")),
    )
    try:
        return DatasetManifest(root=path.parent, **parsed)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def save_manifest(manifest: DatasetManifest, path=None) -> Path:
    path = Path(path) if path is not None else manifest.root / MANIFEST_NAME
    lines = [
        "# affectseq dataset manifest",
        "modalities = " + ", ".join(f"{n}:{d}" for n, d in manifest.modalities),
        "movies = " + ", ".join(f"{m}:{l}" for m, l in manifest.movies),
        "annotation_range = " + f"{manifest.annotation_range[0]}, {manifest.annotation_range[1]}",
        "validation_movies = " + ", ".join(manifest.validation_movies),
        f"train_fraction = {manifest.train_fraction}",
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def load_dataset(manifest: DatasetManifest, with_annotations: bool = True):
    """Load every declared track; returns (features, annotations).

    ``features[movie][modality]`` is [L, D]; ``annotations[movie]`` is
    [L, 2]. Lengths are validated against the manifest and each other.
    """
    features: dict[str, dict[str, np.ndarray]] = {}
    annotations: dict[str, np.ndarray] = {}
    for movie, length in manifest.movies:
        per_mod: dict[str, np.ndarray] = {}
        for modality, dim in manifest.modalities:
            track = load_features(manifest.feature_path(modality, movie), modality)
            if track.movie_id != movie:
                raise DataError(f"{manifest.feature_path(modality, movie)}: movie id "
                                f"{track.movie_id!r} does not match file location")
            if track.dim != dim:
                raise DataError(f"{movie}/{modality}: dim {track.dim} != manifest {dim}")
            if track.length != length:
                raise DataError(f"{movie}/{modality}: length {track.length} != manifest {length}")
            per_mod[modality] = track.values
        features[movie] = per_mod
        if with_annotations:
            anno = load_annotations(manifest.annotation_path(movie), manifest.annotation_range)
            if anno.length != length:
                raise DataError(f"{movie}: annotation length {anno.length} != manifest {length}")
            annotations[movie] = anno.values
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


def split_dataset(manifest: DatasetManifest, seed: int,
                  require_validation: bool = False,
                  train_fraction: float | None = None) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Movie-level split: validation ids from the manifest, then an optional
    seeded train_fraction cut on whole movies (no second-level leakage).

    ``train_fraction`` overrides the manifest value when given; the cut
    keeps round(fraction * n) movies chosen by a seeded shuffle.
    """
    validation = tuple(sorted(manifest.validation_movies))
    if require_validation and not validation:
        raise ConfigError("a validation movie list is required but empty")
    fraction = manifest.train_fraction if train_fraction is None else train_fraction
    if not 0.0 < fraction <= 1.0:
        raise ConfigError("train_fraction must lie in (0, 1]")
    train = sorted(set(manifest.movie_ids) - set(validation))
    if fraction < 1.0 and train:
        keep = max(1, int(math.floor(fraction * len(train) + 0.5)))
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
    levels on top of it.
    """

    num_movies: int = 3
    length: int = 200
    modalities: tuple[tuple[str, int], ...] = (("audio", 8), ("image", 8))
    noise: float = 0.05
    noise_overrides: tuple[tuple[str, float], ...] = ()
    annotation_range: tuple[float, float] = (-1.0, 1.0)
    lag: int = 3
    validation_movies: tuple[str, ...] = ()
    train_fraction: float = 1.0

    def __post_init__(self):
        for key in ("num_movies", "length"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1", key=key)
        for key in ("noise", "lag"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0", key=key)
        names = {name for name, _ in self.modalities}
        for name, level in self.noise_overrides:
            if name not in names:
                raise ConfigError(f"noise override for unknown modality {name!r}",
                                  key="noise_overrides")
            if level < 0:
                raise ConfigError("noise levels must be >= 0", key="noise_overrides")

    def noise_for(self, modality: str) -> float:
        for name, level in self.noise_overrides:
            if name == modality:
                return level
        return self.noise


def _latent_trajectory(length: int, value_range: tuple[float, float],
                       rng: np.random.Generator) -> np.ndarray:
    """Smooth 2-D trajectory: a few low-frequency sinusoids, clipped to range."""
    lo, hi = value_range
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
        root=out_dir,
        modalities=spec.modalities,
        movies=tuple((m, spec.length) for m in movie_ids),
        annotation_range=spec.annotation_range,
        validation_movies=spec.validation_movies,
        train_fraction=spec.train_fraction,
    )
    lifts = {
        name: generator(seed, f"lift-{name}").normal(0.0, 0.5, size=(dim, 4))
        for name, dim in spec.modalities
    }
    for movie in movie_ids:
        latent = _latent_trajectory(spec.length, spec.annotation_range,
                                    generator(seed, f"latent-{movie}"))
        save_annotations(AnnotationTrack(movie_id=movie, values=latent),
                         out_dir / ANNOTATIONS_DIR / f"{movie}.csv")
        lag_idx = np.maximum(np.arange(spec.length) - spec.lag, 0)
        base = np.concatenate([latent, latent[lag_idx]], axis=1)
        for name, dim in spec.modalities:
            noise = generator(seed, f"noise-{name}-{movie}").normal(
                0.0, 1.0, size=(spec.length, dim))
            values = base @ lifts[name].T + spec.noise_for(name) * noise
            save_features(FeatureTrack(movie_id=movie, modality=name, values=values),
                          out_dir / FEATURES_DIR / name / f"{movie}.csv",
                          hex_floats=False)
    save_manifest(manifest)
    return manifest
