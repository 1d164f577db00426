"""Run configuration: key-value config files, run profiles, and the
resolved echo written next to training artifacts.

Config files use ``key = value`` lines with ``#`` comments. Unknown keys,
retired ones such as ``bn_momentum`` included, are rejected. The
``profile`` key expands to preset regularization and split settings:

    run1    dropout_rate 0, no batch normalization
    run2    dropout_rate 0.5 + batch normalization, train_fraction 0.7
    run3    dropout_rate 0.5 + batch normalization
    run4    run3 with a shifted seed (+1) and longer schedule (+epochs//4)
    custom  nothing preset (the default)

A profile owns the keys it presets; setting one in the same file is an
error naming the profile. A ``dropout_rate`` of 0 (the default) means no
dropout. Values outside the usual grids (for example a sequence length
other than 10/30/60) are accepted with a warning record.

Every key except ``manifest`` is a :class:`RunConfig` field declared with
:func:`_key`, which holds its default (the one of the record that owns the
setting) and its parser; the known-key set, parsing, validation and the
resolved echo all read that one table, which is also the one place
smoother settings are checked. The table is the one owner of each key:
``train_fraction`` (1.0, whole movies dropped by a seeded shuffle) is set
here or by run2, never by the manifest. Batch norm needs
``batch_size >= 2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Mapping

from .dataio import (DatasetManifest, _list, _number, _parse, _parse_kv_lines, load_manifest,
                     shown, write_file)
from .errors import ConfigError
from .fusion import CG2_POSITIONS, FusionConfig
from .model import ModelConfig
from .numerics import AdamState
from .seqmodel import CELL_KINDS, EncoderConfig
from .smoothing import SMOOTHERS, SmootherSpec

_PROFILE_PRESETS = {
    "custom": {},
    "run1": {"dropout_rate": 0.0, "enable_batchnorm": False},
    "run2": {"dropout_rate": 0.5, "enable_batchnorm": True, "train_fraction": 0.7},
    "run3": {"dropout_rate": 0.5, "enable_batchnorm": True},
    "run4": {"dropout_rate": 0.5, "enable_batchnorm": True},
}
PROFILES = tuple(_PROFILE_PRESETS)
_PAPERED_SEQUENCE_LENGTHS = (10, 30, 60)


# Parsers take the raw string and raise ConfigError with a message that
# ``_parse`` tags with the key at fault.

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
    units = _list(_number(int, lo=1))(raw)
    if not 1 <= len(units) <= 2:
        raise ConfigError(f"encoders support 1 or 2 layers, got {len(units)}")
    return units


def _weights(raw: str) -> tuple[float, ...]:
    weights = _list(_number(float, lo=0, lo_open=True))(raw)
    if len(weights) % 2 == 0:
        raise ConfigError(f"needs an odd number of weights, got {len(weights)}")
    return weights


def _key(default, parse: Callable[[str], object], echo: bool = True):
    """A config key: its RunConfig field default, its parser, and whether
    the resolved echo writes it."""
    return field(default=default, metadata={"parse": parse, "echo": echo})


@dataclass
class RunConfig:
    """Fully resolved settings for one pipeline run."""

    manifest: DatasetManifest
    out: str | None = _key(None, str, echo=False)
    profile: str = _key("custom", _choice(*PROFILES), echo=False)
    seed: int = _key(1, _number(int))
    epochs: int = _key(30, _number(int, lo=1))
    batch_size: int = _key(512, _number(int, lo=1))
    learning_rate: float = _key(AdamState.lr, _number(float, lo=0))
    adam_beta1: float = _key(AdamState.beta1, _number(float, lo=0, hi=1))
    adam_beta2: float = _key(AdamState.beta2, _number(float, lo=0, hi=1))
    adam_epsilon: float = _key(AdamState.epsilon, _number(float, lo=0, lo_open=True))
    cell: str = _key(EncoderConfig.cell_kind, _choice(*CELL_KINDS))
    hidden_units: tuple[int, ...] = _key(EncoderConfig.hidden_units, _units)
    sequence_length: int = _key(ModelConfig.sequence_length, _number(int, lo=1))
    dropout_rate: float = _key(EncoderConfig.dropout_rate,
                               _number(float, lo=0, hi=1, hi_open=True))
    enable_batchnorm: bool = _key(FusionConfig.enable_batchnorm, _bool)
    train_fraction: float = _key(1.0, _number(float, lo=0, hi=1, lo_open=True))
    num_experts: int = _key(FusionConfig.num_experts, _number(int, lo=1))
    l2_lambda: float = _key(FusionConfig.l2_lambda, _number(float, lo=0))
    cg2_position: str = _key(FusionConfig.cg2_position, _choice(*CG2_POSITIONS))
    bn_epsilon: float = _key(FusionConfig.bn_epsilon, _number(float, lo=0, lo_open=True))
    smoother: str = _key(SmootherSpec.kind, _choice(*SMOOTHERS))
    butter_order: int = _key(SmootherSpec.order, _number(int, lo=1, hi=4))
    butter_cutoff: float = _key(SmootherSpec.cutoff,
                                _number(float, lo=0, hi=1, lo_open=True, hi_open=True))
    ma_weights: tuple[float, ...] = _key(SmootherSpec.weights, _weights)
    early_stop_patience: int = _key(0, _number(int, lo=0))
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
        items = {"manifest": str(self.manifest.path), "profile": "custom"}
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


def parse_values(raw: Mapping[str, str]) -> dict:
    """Every table key's value: its default, or its parsed entry in ``raw``.
    A bad entry is a :class:`ConfigError` whose ``key`` is the key."""
    return {name: _parse(name, f.metadata["parse"], raw[name]) if name in raw else f.default
            for name, f in _TABLE.items()}


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
    kv = _parse_kv_lines(path)
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
    try:
        values = parse_values(kv)
        hidden_overrides = {}
        for name, raw in hidden_overrides_raw.items():
            if name not in known_modalities:
                raise ConfigError("modality not in manifest", key=f"hidden_units.{name}")
            hidden_overrides[name] = _parse(f"hidden_units.{name}", _units, raw)
    except ConfigError as exc:
        if exc.key in overrides:
            raise
        raise ConfigError(f"{source}: key {exc.key}: {exc}", key=exc.key) from None
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
        raise ConfigError(f"{source}: key batch_size: batch normalization (enable_batchnorm, or "
                          f"profiles run2-run4) needs batch_size >= 2, got {cfg.batch_size}",
                          key="batch_size")

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
