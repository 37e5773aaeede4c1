"""Run configuration: dataclasses, presets, and the flat key=value file.

A run is fully described by three dataclasses: ``TrainConfig`` here,
``EncoderConfig`` and ``DecoderConfig`` in ``model``. ``_KEYS`` is the one
table of flat keys, mapping each to exactly one (dataclass, field, type);
its order is the order of a checkpoint's ``config.*`` lines.
``config_as_flat_dict`` writes the configs as flat text, and its exact
inverse ``configs_from_flat_dict`` rebuilds them from a checkpoint through
the same builder that ``resolve_configs`` uses.

The config file is a flat list of ``key = value`` lines with no sections;
unknown keys are rejected by name so a typo cannot silently fall back to a
default. Precedence, lowest to highest: preset, config file, --set
overrides, the DUALMAE_SEED environment variable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .model import DecoderConfig, EncoderConfig

SEED_ENV_VAR = "DUALMAE_SEED"


class ConfigError(ValueError):
    """A config key or value the run cannot proceed with."""


@dataclass(frozen=True)
class TrainConfig:
    mask_ratio_encoder: float = 0.15
    mask_ratio_decoder: float = 0.5
    epochs: int = 8
    batch_size: int = 32
    learning_rate: float = 1e-4
    weight_decay: float = 0.01
    warmup_steps: int = 0
    seed: int = 42
    encoder_mlm_weight: float = 0.0

    def __post_init__(self):
        for name in ("mask_ratio_encoder", "mask_ratio_decoder"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ConfigError(f"{name} must lie strictly inside (0, 1), got {value}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        for name in ("learning_rate", "weight_decay", "encoder_mlm_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")
        if self.warmup_steps < 0 or self.seed < 0:
            raise ConfigError("warmup_steps and seed cannot be negative")


# flat key -> (dataclass, field, python type), in checkpoint manifest order
_KEYS: dict[str, tuple[type, str, type]] = {
    "layers": (EncoderConfig, "layers", int),
    "hidden_dim": (EncoderConfig, "hidden_dim", int),
    "heads": (EncoderConfig, "heads", int),
    "ffn_dim": (EncoderConfig, "ffn_dim", int),
    "max_len": (EncoderConfig, "max_len", int),
    "vocab_size": (EncoderConfig, "vocab_size", int),
    "decoder_heads": (DecoderConfig, "heads", int),
    "mode": (DecoderConfig, "mode", str),
    "mask_ratio_encoder": (TrainConfig, "mask_ratio_encoder", float),
    "mask_ratio_decoder": (TrainConfig, "mask_ratio_decoder", float),
    "decoder_layers": (DecoderConfig, "layers", int),
    "epochs": (TrainConfig, "epochs", int),
    "batch_size": (TrainConfig, "batch_size", int),
    "learning_rate": (TrainConfig, "learning_rate", float),
    "weight_decay": (TrainConfig, "weight_decay", float),
    "warmup_steps": (TrainConfig, "warmup_steps", int),
    "seed": (TrainConfig, "seed", int),
    "encoder_mlm_weight": (TrainConfig, "encoder_mlm_weight", float),
}


def _flat_values(train: TrainConfig, encoder: EncoderConfig, decoder: DecoderConfig) -> dict[str, object]:
    owners = {TrainConfig: train, EncoderConfig: encoder, DecoderConfig: decoder}
    return {key: getattr(owners[cls], name) for key, (cls, name, _) in _KEYS.items()}


PRESETS: dict[str, dict[str, object]] = {
    # the published full-scale recipe, held by the dataclass defaults; not
    # meant to be trained here
    "full": _flat_values(TrainConfig(), EncoderConfig(), DecoderConfig()),
}
# small enough to train on one core while keeping every mechanism intact
PRESETS["desk"] = PRESETS["full"] | {
    "layers": 2,
    "hidden_dim": 64,
    "heads": 4,
    "ffn_dim": 256,
    "max_len": 128,
    "vocab_size": 2048,
    "decoder_heads": 4,
    "learning_rate": 1e-3,
}


def _coerce(key: str, raw: str, where: str) -> object:
    kind = _KEYS[key][2]
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"bad value for {key!r} in {where}: {raw!r}") from None


def parse_config_file(path: str | Path) -> dict[str, object]:
    """Read ``key = value`` lines; unknown keys are an error, not a warning."""
    values: dict[str, object] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e.reason})") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, raw, f"{path}:{lineno}")
    return values


def parse_overrides(pairs: Iterable[str]) -> dict[str, object]:
    """--set key=value pairs from the command line."""
    values: dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must look like key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _coerce(key, raw.strip(), "--set")
    return values


def _build(
    values: Mapping[str, object], coerce: bool = False
) -> tuple[TrainConfig, EncoderConfig, DecoderConfig]:
    """The three validated configs from exactly one value per flat key;
    ``coerce`` parses text values by the key's type first."""
    for key in _KEYS:
        if key not in values:
            raise ConfigError(f"missing config key {key!r}")
    for key in values:
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    kwargs: dict[type, dict[str, object]] = {EncoderConfig: {}, TrainConfig: {}, DecoderConfig: {}}
    for key, (cls, name, _) in _KEYS.items():
        kwargs[cls][name] = _coerce(key, values[key], "flat config") if coerce else values[key]
    try:
        encoder, train, decoder = (cls(**fields) for cls, fields in kwargs.items())
    except ValueError as e:  # the model configs raise plain ValueError
        raise ConfigError(str(e)) from None
    # the decoder blocks run at the encoder's width
    if encoder.hidden_dim % decoder.heads != 0:
        raise ConfigError(
            f"hidden_dim {encoder.hidden_dim} must divide evenly across decoder_heads {decoder.heads}"
        )
    return train, encoder, decoder


def resolve_configs(
    preset: str = "full",
    file_values: Mapping[str, object] | None = None,
    overrides: Mapping[str, object] | None = None,
    env: Mapping[str, str] | None = None,
) -> tuple[TrainConfig, EncoderConfig, DecoderConfig]:
    """Merge all sources and build the three validated configs."""
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    merged = dict(PRESETS[preset])
    merged.update(file_values or {})
    merged.update(overrides or {})
    env = os.environ if env is None else env
    if SEED_ENV_VAR in env:
        try:
            merged["seed"] = int(env[SEED_ENV_VAR])
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env[SEED_ENV_VAR]!r}") from None
    return _build(merged)


def config_as_flat_dict(
    train: TrainConfig, encoder: EncoderConfig, decoder: DecoderConfig
) -> dict[str, str]:
    """Every flat key with its value as text, in ``_KEYS`` order. A
    float's ``str`` is its shortest exact repr, so the text parses back
    to the same value."""
    return {key: str(value) for key, value in _flat_values(train, encoder, decoder).items()}


def configs_from_flat_dict(flat: Mapping[str, str]) -> tuple[TrainConfig, EncoderConfig, DecoderConfig]:
    """The exact inverse of ``config_as_flat_dict``: requires exactly the
    flat key set, coerces each text value, and builds the three configs."""
    return _build(flat, coerce=True)
