"""Run configuration: key-value config files, run profiles, and the
resolved echo written next to training artifacts.

Config files use ``key = value`` lines with ``#`` comments. Unknown keys
are rejected. The ``profile`` key expands to preset regularization and
split settings:

    run1    no dropout, no batch normalization
    run2    dropout + batch normalization, train_fraction 0.7
    run3    dropout + batch normalization
    run4    run3 with a shifted seed (+1) and longer schedule (+epochs//4)
    custom  nothing preset (the default)

A profile owns the keys it presets; overriding them in the same file is
an error. Values outside the usual grids (for example a sequence length
other than 10/30/60) are accepted with a warning record.

Every key except ``manifest`` is a :class:`RunConfig` field declared with
:func:`_key`, which holds its default and its parser; the known-key set,
parsing, validation and the resolved echo all read that one table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Mapping

from .dataio import DatasetManifest, _parse_kv_lines, load_manifest
from .errors import ConfigError
from .fusion import FusionConfig
from .model import ModelConfig
from .seqmodel import EncoderConfig
from .smoothing import SmootherSpec

PROFILES = ("custom", "run1", "run2", "run3", "run4")
_PROFILE_PRESETS = {
    "run1": {"enable_dropout": False, "enable_batchnorm": False},
    "run2": {"enable_dropout": True, "enable_batchnorm": True, "train_fraction": 0.7},
    "run3": {"enable_dropout": True, "enable_batchnorm": True},
    "run4": {"enable_dropout": True, "enable_batchnorm": True},
}
_PAPERED_SEQUENCE_LENGTHS = (10, 30, 60)


# Parsers take the raw string and raise ConfigError with a message that
# the caller prefixes with the key (or CLI flag) at fault.

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


def _number(kind: type, lo=None, hi=None, lo_open=False, hi_open=False) -> Callable[[str], float]:
    """An int or float parser with inclusive, exclusive or absent bounds."""
    left = "(-inf" if lo is None else f"{'(' if lo_open else '['}{lo:g}"
    right = "inf)" if hi is None else f"{hi:g}{')' if hi_open else ']'}"

    def parse(raw: str):
        try:
            value = kind(raw)
        except ValueError:
            raise ConfigError(
                f"expected {'an integer' if kind is int else 'a number'}, got {raw!r}") from None
        above = lo is None or (value > lo if lo_open else value >= lo)
        below = hi is None or (value < hi if hi_open else value <= hi)
        if not (above and below):
            raise ConfigError(f"{value} outside valid range {left}, {right}")
        return value
    return parse


def _list(item: Callable[[str], float]) -> Callable[[str], tuple]:
    """Comma-separated items; blank items are skipped."""
    def parse(raw: str) -> tuple:
        return tuple(item(tok.strip()) for tok in raw.split(",") if tok.strip())
    return parse


def _units(raw: str) -> tuple[int, ...]:
    units = _list(_number(int, lo=1))(raw)
    if not 1 <= len(units) <= 2:
        raise ConfigError(f"encoders support 1 or 2 layers, got {len(units)}")
    return units


def _key(default, parse: Callable[[str], object], echo: bool = True):
    """A config key: its RunConfig field default, its parser, and whether
    the resolved echo writes it."""
    return field(default=default, metadata={"parse": parse, "echo": echo})


def _parse(label: str, parse: Callable[[str], object], raw: str):
    try:
        return parse(raw)
    except ConfigError as exc:
        raise ConfigError(f"{label}: {exc}") from None


@dataclass
class RunConfig:
    """Fully resolved settings for one pipeline run."""

    manifest_path: Path
    manifest: DatasetManifest
    out: str | None = _key(None, str, echo=False)
    profile: str = _key("custom", _choice(*PROFILES), echo=False)
    seed: int = _key(1, _number(int))
    epochs: int = _key(30, _number(int, lo=1))
    batch_size: int = _key(512, _number(int, lo=1))
    learning_rate: float = _key(0.001, _number(float, lo=0))
    adam_beta1: float = _key(0.9, _number(float, lo=0, hi=1))
    adam_beta2: float = _key(0.999, _number(float, lo=0, hi=1))
    adam_epsilon: float = _key(1e-8, _number(float, lo=0, lo_open=True))
    cell: str = _key("gru", _choice("gru", "lstm"))
    hidden_units: tuple[int, ...] = _key((128,), _units)
    sequence_length: int = _key(60, _number(int, lo=1))
    dropout_rate: float = _key(0.5, _number(float, lo=0, hi=1, hi_open=True))
    enable_dropout: bool = _key(False, _bool)
    enable_batchnorm: bool = _key(False, _bool)
    train_fraction: float = _key(1.0, _number(float, lo=0, hi=1, lo_open=True))
    num_experts: int = _key(2, _number(int, lo=1))
    l2_lambda: float = _key(1e-5, _number(float, lo=0))
    cg2_position: str = _key("moe_output", _choice("moe_input", "moe_output"))
    bn_momentum: float = _key(0.9, _number(float, lo=0, hi=1, lo_open=True, hi_open=True))
    bn_epsilon: float = _key(1e-5, _number(float, lo=0, lo_open=True))
    use_batch_stats_at_inference: bool = _key(True, _bool)
    smoother: str = _key("butterworth", _choice("butterworth", "moving_average", "none"))
    butter_order: int = _key(2, _number(int, lo=1, hi=4))
    butter_cutoff: float = _key(0.05, _number(float, lo=0, hi=1, lo_open=True, hi_open=True))
    ma_weights: tuple[float, ...] = _key((1.0,) * 5, _list(_number(float, lo=0, lo_open=True)))
    early_stop_patience: int = _key(0, _number(int, lo=0))
    hidden_overrides: dict[str, tuple[int, ...]] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def model_config(self) -> ModelConfig:
        dropout = self.dropout_rate if self.enable_dropout else 0.0
        encoders = tuple(
            (name, EncoderConfig(
                input_dim=dim,
                hidden_units=self.hidden_overrides.get(name, self.hidden_units),
                cell_kind=self.cell,
                dropout_rate=dropout,
            ))
            for name, dim in self.manifest.modalities
        )
        fusion = FusionConfig(
            num_experts=self.num_experts,
            l2_lambda=self.l2_lambda,
            enable_batchnorm=self.enable_batchnorm,
            dropout_rate=dropout,
            output_range=self.manifest.annotation_range,
            cg2_position=self.cg2_position,
            bn_momentum=self.bn_momentum,
            bn_epsilon=self.bn_epsilon,
            use_batch_stats_at_inference=self.use_batch_stats_at_inference,
        )
        return ModelConfig(encoders=encoders, fusion=fusion,
                           sequence_length=self.sequence_length)

    def smoother_spec(self) -> SmootherSpec:
        return smoother_spec(vars(self))

    def resolved_lines(self) -> list[str]:
        """A reloadable snapshot: parse_config on the echo reproduces this
        config. Profile presets are already expanded, so the echo says
        ``custom`` and records the source profile as a comment. The out
        path is deliberately absent: the echo lives inside it, and
        identical configs must produce byte-identical echoes.
        """
        items = {"manifest": str(self.manifest_path), "profile": "custom"}
        for f in _TABLE.values():
            if f.metadata["echo"]:
                items[f.name] = _echo(getattr(self, f.name))
        for name, units in self.hidden_overrides.items():
            items[f"hidden_units.{name}"] = _echo(units)
        lines = []
        if self.profile != "custom":
            lines.append(f"# resolved from profile: {self.profile}")
        lines.extend(f"{key} = {items[key]}" for key in sorted(items))
        lines.extend(f"# warning: {w}" for w in self.warnings)
        return lines


_TABLE = {f.name: f for f in fields(RunConfig) if "parse" in f.metadata}
_KNOWN_KEYS = {"manifest", *_TABLE}


def _echo(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def parse_values(raw: Mapping[str, str], labels: Mapping[str, str] | None = None) -> dict:
    """Every table key's value: its default, or its parsed entry in ``raw``.

    Errors name ``labels[key]`` when given (a CLI flag, say), else the key.
    """
    labels = labels or {}
    values = {}
    for name, f in _TABLE.items():
        values[name] = (_parse(labels.get(name, f"key {name}"), f.metadata["parse"], raw[name])
                        if name in raw else f.default)
    return values


def smoother_spec(values: Mapping[str, object]) -> SmootherSpec:
    """The smoother that the ``smoother``, ``butter_*`` and ``ma_weights``
    values select."""
    if values["smoother"] == "butterworth":
        return SmootherSpec.butterworth(values["butter_order"], values["butter_cutoff"])
    if values["smoother"] == "moving_average":
        return SmootherSpec.moving_average(values["ma_weights"])
    return SmootherSpec.none()


def parse_config(path, overrides: dict[str, str] | None = None) -> RunConfig:
    """Load, validate, and fully resolve a run config file.

    ``overrides`` (from CLI flags) behave as if the file contained those
    keys, replacing any it did contain.
    """
    path = Path(path)
    kv = _parse_kv_lines(path)
    if overrides:
        kv.update({k: str(v) for k, v in overrides.items()})

    hidden_overrides_raw: dict[str, str] = {}
    for key in list(kv):
        if key.startswith("hidden_units."):
            hidden_overrides_raw[key[len("hidden_units."):]] = kv.pop(key)
    unknown = set(kv) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")
    if "manifest" not in kv:
        raise ConfigError(f"{path}: missing required key 'manifest'")

    manifest_path = Path(kv.pop("manifest"))
    if not manifest_path.is_absolute():
        manifest_path = path.parent / manifest_path
    manifest = load_manifest(manifest_path)

    values = parse_values(kv)
    preset = _PROFILE_PRESETS.get(values["profile"], {})
    for owned in preset:
        if owned in kv:
            raise ConfigError(f"profile {values['profile']} fixes {owned}; remove the explicit key")
    if "train_fraction" not in kv:
        values["train_fraction"] = manifest.train_fraction
    values.update(preset)
    cfg = RunConfig(manifest_path=manifest_path, manifest=manifest, **values)

    known_modalities = {name for name, _ in manifest.modalities}
    for name, raw in hidden_overrides_raw.items():
        if name not in known_modalities:
            raise ConfigError(f"hidden_units.{name}: modality not in manifest")
        cfg.hidden_overrides[name] = _parse(f"key hidden_units.{name}", _units, raw)

    if cfg.profile == "run4":
        cfg.seed = cfg.seed + 1
        cfg.epochs = cfg.epochs + max(1, cfg.epochs // 4)

    if cfg.sequence_length not in _PAPERED_SEQUENCE_LENGTHS:
        cfg.warnings = (
            f"sequence_length {cfg.sequence_length} is outside the usual grid "
            f"{_PAPERED_SEQUENCE_LENGTHS}; accepted",
        )
    return cfg


def write_resolved(cfg: RunConfig, out_dir) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / "resolved_config.txt"
    target.write_text("\n".join(cfg.resolved_lines()) + "\n", encoding="utf-8")
    return target
