"""Settings: the ``key = value`` files and flags that configure the
pipeline, and the records that declare their keys.

Each key is a field of the record that owns it, declared with
:func:`setting`, which holds its default and its parser: a run config
key is a :class:`RunConfig` field, a manifest key a
:class:`DatasetManifest` field, and a ``synth`` flag a
:class:`~affectseq.dataio.SynthSpec` field. :func:`parse_fields` parses
any record's keys from those declarations. The parsers (one number
parser ``number``, one comma-list parser ``items``, and ``parse_pairs``
for ``name:value`` lists) and the records' checks name no setting:
``tagged`` and the checks tag a fault with its key, and the caller names
the flag, or the file and the key (``<file>: key <k>: ``), once.

A settings file holds ``key = value`` lines and ``#`` comments; a key
appears once, and an unknown one, a retired one such as ``bn_momentum``
included, is refused. The manifest (``manifest.txt``, or the file a
config's ``manifest`` key names) declares the dataset alone; its tracks
lie under its directory, at ``features/<modality>/<movie_id>.csv`` and
``annotations/<movie_id>.csv``. A run config names its manifest,
relative to the config file, and may set every other
:class:`RunConfig` key; ``train_fraction`` (1.0, whole movies dropped
by a seeded shuffle) is set there or by run2, never by the manifest.
The ``profile`` key expands to preset regularization and split settings:

    run1    dropout_rate 0, no batch normalization
    run2    dropout_rate 0.5 + batch normalization, train_fraction 0.7
    run3    dropout_rate 0.5 + batch normalization
    run4    run3 with a shifted seed (+1) and longer schedule (+epochs//4)
    custom  nothing preset (the default)

A profile owns the keys it presets; setting one in the same file is an
error naming the profile. A ``dropout_rate`` of 0 (the default) means no
dropout. Values outside the usual grids (for example a sequence length
other than 10/30/60) are accepted with a warning record. Batch norm
needs ``batch_size >= 2``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import MISSING, Field, dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterator, Mapping

from .errors import ConfigError, DataError
from .files import decode_text, plain_name, read_file, shown, write_file
from .fusion import CG2_POSITIONS, FusionConfig
from .model import ModelConfig
from .numerics import AdamState
from .seqmodel import CELL_KINDS, EncoderConfig
from .smoothing import SMOOTHERS, SmootherSpec

FEATURES_DIR = "features"
ANNOTATIONS_DIR = "annotations"
MANIFEST_NAME = "manifest.txt"

_PROFILE_PRESETS = {
    "custom": {},
    "run1": {"dropout_rate": 0.0, "enable_batchnorm": False},
    "run2": {"dropout_rate": 0.5, "enable_batchnorm": True, "train_fraction": 0.7},
    "run3": {"dropout_rate": 0.5, "enable_batchnorm": True},
    "run4": {"dropout_rate": 0.5, "enable_batchnorm": True},
}
PROFILES = tuple(_PROFILE_PRESETS)
_PAPERED_SEQUENCE_LENGTHS = (10, 30, 60)


def _read_settings(path: Path) -> dict[str, str]:
    """The ``key = value`` lines of the settings file at ``path``."""
    out: dict[str, str] = {}
    source = shown(path)
    for lineno, raw in enumerate(decode_text(path, read_file(path)).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise DataError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


@contextmanager
def _naming(source: str, bare=()) -> Iterator[None]:
    """Re-raise the block's :class:`ConfigError` naming the file ``source``
    and its key, unless the key is in ``bare``: a flag the caller names."""
    try:
        yield
    except ConfigError as exc:
        if exc.key in bare:
            raise
        raise ConfigError(f"{source}: key {exc.key}: {exc}", key=exc.key) from None


# Parsers take the raw string and raise ConfigError with a message that
# ``tagged`` tags with the key at fault.

def number(kind: type, lo=None, hi=None, lo_open=False, hi_open=False) -> Callable[[str], float]:
    """An int or float parser with inclusive, exclusive or absent bounds;
    a float must be finite."""
    left = "(-inf" if lo is None else f"{'(' if lo_open else '['}{lo:g}"
    right = "inf)" if hi is None else f"{hi:g}{')' if hi_open else ']'}"

    def parse(raw: str):
        try:
            value = kind(raw)
        except ValueError:
            raise ConfigError(
                f"expected {'an integer' if kind is int else 'a number'}, got {raw!r}") from None
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"expected a finite number, got {raw!r}")
        above = lo is None or (value > lo if lo_open else value >= lo)
        below = hi is None or (value < hi if hi_open else value <= hi)
        if not (above and below):
            raise ConfigError(f"{value} outside valid range {left}, {right}")
        return value
    return parse


def tagged(key: str, parse: Callable[[str], object], raw: str):
    """``parse(raw)``, its error tagged with ``key``."""
    try:
        return parse(raw)
    except ConfigError as exc:
        raise ConfigError(str(exc), key=key) from None


def items(item: Callable[[str], object]) -> Callable[[str], tuple]:
    """A parser of comma-separated items, each read by ``item``; blank
    items are skipped."""
    def parse(raw: str) -> tuple:
        return tuple(item(tok.strip()) for tok in raw.split(",") if tok.strip())
    return parse


def parse_pairs(text: str, kind: type) -> tuple[tuple[str, int | float], ...]:
    """The ``name:value`` entries of a comma list, each value read by
    ``number(kind)``; blank entries are skipped."""
    value = number(kind)

    def pair(chunk: str) -> tuple[str, int | float]:
        name, sep, raw = chunk.partition(":")
        if not sep:
            raise ConfigError(f"entry {chunk!r} must be name:value")
        return name.strip(), value(raw)
    return items(pair)(text)


def _range(raw: str) -> tuple[float, ...]:
    bounds = items(number(float))(raw)
    if len(bounds) != 2:
        raise ConfigError("must be 'lo, hi'")
    return bounds


def _choice(*options: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in options:
            raise ConfigError(f"must be one of {', '.join(options)}, got {raw!r}")
        return raw
    return parse


def _bool(raw: str) -> bool:
    if raw in ("true", "false"):
        return raw == "true"
    raise ConfigError(f"expected true or false, got {raw!r}")


def _units(raw: str) -> tuple[int, ...]:
    units = items(number(int, lo=1))(raw)
    if not 1 <= len(units) <= 2:
        raise ConfigError(f"encoders support 1 or 2 layers, got {len(units)}")
    return units


def _weights(raw: str) -> tuple[float, ...]:
    weights = items(number(float, lo=0, lo_open=True))(raw)
    if len(weights) % 2 == 0:
        raise ConfigError(f"needs an odd number of weights, got {len(weights)}")
    return weights


def setting(default, parse: Callable[[str], object], echo: bool = True):
    """A settings key as a field of the record that owns it: its default
    (``MISSING`` for a key that must be set), its parser, and whether a
    config's resolved echo writes it."""
    return field(default=default, metadata={"parse": parse, "echo": echo})


def declared(record) -> dict[str, Field]:
    """The fields of ``record`` declared with :func:`setting`, by key, in
    declaration order."""
    return {f.name: f for f in fields(record) if "parse" in f.metadata}


def parse_fields(record, raw: Mapping[str, str]) -> dict:
    """Each key ``record`` declares: its parsed entry in ``raw``, else its
    default. A bad entry is a :class:`ConfigError` whose ``key`` is the key."""
    return {name: tagged(name, f.metadata["parse"], raw[name]) if name in raw else f.default
            for name, f in declared(record).items()}


@dataclass(frozen=True)
class DatasetManifest:
    """Declares modalities, movies, ranges, and the split. ``path`` is the
    manifest file; the tracks lie under its directory, ``root``."""

    path: Path
    modalities: tuple[tuple[str, int], ...] = setting(MISSING, lambda raw: parse_pairs(raw, int))
    movies: tuple[tuple[str, int], ...] = setting(MISSING, lambda raw: parse_pairs(raw, int))
    annotation_range: tuple[float, float] = setting((-1.0, 1.0), _range)
    validation_movies: tuple[str, ...] = setting((), items(str))

    def __post_init__(self):
        for key in ("modalities", "movies"):
            names = [name for name, _ in getattr(self, key)]
            if not names:
                raise ConfigError("needs at least one entry", key=key)
            if len(set(names)) != len(names):
                raise ConfigError("duplicate names", key=key)
            for name in names:  # each becomes a file or directory name
                if not plain_name(name):
                    raise ConfigError(f"name {name!r} is not a plain file name", key=key)
        if any(d < 1 for _, d in self.modalities):
            raise ConfigError("dims must be >= 1", key="modalities")
        if any(length < 1 for _, length in self.movies):
            raise ConfigError("lengths must be >= 1", key="movies")
        lo, hi = self.annotation_range
        if not (lo < hi and math.isfinite(hi - lo)):  # a finite width has finite bounds
            raise ConfigError("needs finite lo < hi", key="annotation_range")
        unknown = set(self.validation_movies) - set(self.movie_ids)
        if unknown:
            raise ConfigError(f"not in movies: {sorted(unknown)}", key="validation_movies")

    @property
    def root(self) -> Path:
        return self.path.parent

    @property
    def movie_ids(self) -> tuple[str, ...]:
        return tuple(m for m, _ in self.movies)

    def feature_path(self, modality: str, movie: str) -> Path:
        return self.root / FEATURES_DIR / modality / f"{movie}.csv"

    def annotation_path(self, movie: str) -> Path:
        return self.root / ANNOTATIONS_DIR / f"{movie}.csv"


def load_manifest(path) -> DatasetManifest:
    """The manifest at ``path``. A value that does not parse, or that the
    manifest refuses, names the manifest and its key (``<path>: key <k>: ``)."""
    path = Path(path)
    source = shown(path)
    kv = _read_settings(path)
    unknown = set(kv).difference(declared(DatasetManifest))
    if unknown:
        raise ConfigError(f"{source}: unknown manifest keys: {sorted(unknown)}")
    for required in ("modalities", "movies"):
        if required not in kv:
            raise ConfigError(f"{source}: missing required key {required!r}", key=required)
    with _naming(source):
        return DatasetManifest(path=path, **parse_fields(DatasetManifest, kv))


def save_manifest(manifest: DatasetManifest) -> Path:
    """Write ``manifest`` to its ``path``, one line per key in declaration
    order; returns the path."""
    lines = [
        "# affectseq dataset manifest",
        "modalities = " + ", ".join(f"{n}:{d}" for n, d in manifest.modalities),
        "movies = " + ", ".join(f"{m}:{l}" for m, l in manifest.movies),
        "annotation_range = " + f"{manifest.annotation_range[0]}, {manifest.annotation_range[1]}",
        "validation_movies = " + ", ".join(manifest.validation_movies),
    ]
    write_file(manifest.path, ["\n".join(lines) + "\n"])
    return manifest.path


@dataclass
class RunConfig:
    """Fully resolved settings for one pipeline run."""

    manifest: DatasetManifest
    out: str | None = setting(None, str, echo=False)
    profile: str = setting("custom", _choice(*PROFILES), echo=False)
    seed: int = setting(1, number(int))
    epochs: int = setting(30, number(int, lo=1))
    batch_size: int = setting(512, number(int, lo=1))
    learning_rate: float = setting(AdamState.lr, number(float, lo=0))
    adam_beta1: float = setting(AdamState.beta1, number(float, lo=0, hi=1))
    adam_beta2: float = setting(AdamState.beta2, number(float, lo=0, hi=1))
    adam_epsilon: float = setting(AdamState.epsilon, number(float, lo=0, lo_open=True))
    cell: str = setting(EncoderConfig.cell_kind, _choice(*CELL_KINDS))
    hidden_units: tuple[int, ...] = setting(EncoderConfig.hidden_units, _units)
    sequence_length: int = setting(ModelConfig.sequence_length, number(int, lo=1))
    dropout_rate: float = setting(EncoderConfig.dropout_rate,
                                  number(float, lo=0, hi=1, hi_open=True))
    enable_batchnorm: bool = setting(FusionConfig.enable_batchnorm, _bool)
    train_fraction: float = setting(1.0, number(float, lo=0, hi=1, lo_open=True))
    num_experts: int = setting(FusionConfig.num_experts, number(int, lo=1))
    l2_lambda: float = setting(FusionConfig.l2_lambda, number(float, lo=0))
    cg2_position: str = setting(FusionConfig.cg2_position, _choice(*CG2_POSITIONS))
    bn_epsilon: float = setting(FusionConfig.bn_epsilon, number(float, lo=0, lo_open=True))
    smoother: str = setting(SmootherSpec.kind, _choice(*SMOOTHERS))
    butter_order: int = setting(SmootherSpec.order, number(int, lo=1, hi=4))
    butter_cutoff: float = setting(SmootherSpec.cutoff,
                                   number(float, lo=0, hi=1, lo_open=True, hi_open=True))
    ma_weights: tuple[float, ...] = setting(SmootherSpec.weights, _weights)
    early_stop_patience: int = setting(0, number(int, lo=0))
    hidden_overrides: dict[str, tuple[int, ...]] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def model_config(self) -> ModelConfig:
        encoders = tuple(
            (name, EncoderConfig(
                input_dim=dim,
                hidden_units=self.hidden_overrides.get(name, self.hidden_units),
                cell_kind=self.cell,
                dropout_rate=self.dropout_rate,
            ))
            for name, dim in self.manifest.modalities
        )
        fusion = FusionConfig(
            num_experts=self.num_experts,
            l2_lambda=self.l2_lambda,
            enable_batchnorm=self.enable_batchnorm,
            dropout_rate=self.dropout_rate,
            output_range=self.manifest.annotation_range,
            cg2_position=self.cg2_position,
            bn_epsilon=self.bn_epsilon,
        )
        return ModelConfig(encoders=encoders, fusion=fusion,
                           sequence_length=self.sequence_length)

    def resolved_lines(self) -> list[str]:
        """A reloadable snapshot: parse_config on the echo reproduces this
        config. Profile presets are already expanded, so the echo says
        ``custom`` and records the source profile as a comment. The out
        path is deliberately absent: the echo lives inside it, and
        identical configs must produce byte-identical echoes.
        """
        entries = {"manifest": str(self.manifest.path), "profile": "custom"}
        for f in declared(RunConfig).values():
            if f.metadata["echo"]:
                entries[f.name] = _echo(getattr(self, f.name))
        for name, units in self.hidden_overrides.items():
            entries[f"hidden_units.{name}"] = _echo(units)
        lines = []
        if self.profile != "custom":
            lines.append(f"# resolved from profile: {self.profile}")
        lines.extend(f"{key} = {entries[key]}" for key in sorted(entries))
        lines.extend(f"# warning: {w}" for w in self.warnings)
        return lines


_KNOWN_KEYS = {"manifest", *declared(RunConfig)}


def _echo(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def smoother_spec(values: Mapping[str, object]) -> SmootherSpec:
    """The smoother that the ``smoother``, ``butter_*`` and ``ma_weights``
    values select."""
    return SmootherSpec(kind=values["smoother"], order=values["butter_order"],
                        cutoff=values["butter_cutoff"], weights=values["ma_weights"])


def parse_config(path, overrides: dict[str, str] | None = None) -> RunConfig:
    """Load, validate, and fully resolve a run config file.

    ``overrides`` (from CLI flags) behave as if the file contained those
    keys, replacing any it did contain. A fault in a key from the file
    names the file and the key (``<path>: key <k>: ``); a fault in an
    override is raised bare, its ``key`` left for the front end to name
    the flag that set it.
    """
    path = Path(path)
    source = shown(path)
    kv = _read_settings(path)
    overrides = {k: str(v) for k, v in (overrides or {}).items()}
    kv.update(overrides)

    hidden_overrides_raw: dict[str, str] = {}
    for key in list(kv):
        if key.startswith("hidden_units."):
            hidden_overrides_raw[key[len("hidden_units."):]] = kv.pop(key)
    unknown = set(kv) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"{source}: unknown config keys: {sorted(unknown)}")
    if "manifest" not in kv:
        raise ConfigError(f"{source}: missing required key 'manifest'")

    manifest_path = Path(kv.pop("manifest"))
    if not manifest_path.is_absolute():
        manifest_path = path.parent / manifest_path
    manifest = load_manifest(manifest_path)

    known_modalities = {name for name, _ in manifest.modalities}
    with _naming(source, bare=overrides):
        values = parse_fields(RunConfig, kv)
        hidden_overrides = {}
        for name, raw in hidden_overrides_raw.items():
            if name not in known_modalities:
                raise ConfigError("modality not in manifest", key=f"hidden_units.{name}")
            hidden_overrides[name] = tagged(f"hidden_units.{name}", _units, raw)
    preset = _PROFILE_PRESETS[values["profile"]]
    for owned in preset:
        if owned in kv:
            raise ConfigError(f"{source}: profile {values['profile']} fixes {owned}; "
                              "remove the key")
    values.update(preset)
    cfg = RunConfig(manifest=manifest, hidden_overrides=hidden_overrides, **values)

    if cfg.profile == "run4":
        cfg.seed = cfg.seed + 1
        cfg.epochs = cfg.epochs + max(1, cfg.epochs // 4)
    if cfg.enable_batchnorm and cfg.batch_size < 2:
        with _naming(source):
            raise ConfigError("batch normalization (enable_batchnorm, or profiles run2-run4) "
                              f"needs batch_size >= 2, got {cfg.batch_size}", key="batch_size")

    if cfg.sequence_length not in _PAPERED_SEQUENCE_LENGTHS:
        cfg.warnings = (
            f"sequence_length {cfg.sequence_length} is outside the usual grid "
            f"{_PAPERED_SEQUENCE_LENGTHS}; accepted",
        )
    return cfg


def write_resolved(cfg: RunConfig, out_dir) -> Path:
    target = Path(out_dir) / "resolved_config.txt"
    write_file(target, ["\n".join(cfg.resolved_lines()) + "\n"])
    return target
