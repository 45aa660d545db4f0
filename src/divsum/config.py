"""Run configuration: dataclass defaults, key=value files, CLI overrides.

Precedence is defaults < config file < command-line overrides. Config
files are plain text, one key=value per line; a line starting with #
is a comment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .attention import BOUNDARY_POLICIES, LCA_VARIANTS, SIMILARITY_KINDS


class ConfigError(ValueError):
    """Bad key, unparsable value, or unreadable config file."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    weight_decay: float = 1e-5
    epochs: int = 200
    alpha: float = 0.1  # repelling-loss weight
    beta: float = 1.0  # reconstruction-loss weight
    sim_kind: str = "l2"
    scale_q: float = 0.0  # 0 resolves to the feature dim
    neighbor_R: int = 2
    lca_variant: str = "contextual"
    window_boundary: str = "clamp"
    use_positions: bool = True
    use_gda: bool = True
    use_lca: bool = True
    supervised: bool = True
    # NOTE: recon_final_sigmoid bounds reconstructions to (0,1). Leave it
    # off unless the dataset's features are themselves scaled to [0,1],
    # otherwise the reconstruction loss has an impossible target.
    recon_final_sigmoid: bool = False
    early_stop: bool = False
    patience: int = 20
    min_delta: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        for key in ("weight_decay", "alpha", "beta", "scale_q", "min_delta", "seed"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)}")
        for key, allowed in (("sim_kind", SIMILARITY_KINDS), ("lca_variant", LCA_VARIANTS),
                             ("window_boundary", BOUNDARY_POLICIES)):
            if getattr(self, key) not in allowed:
                raise ConfigError(f"{key} must be one of {', '.join(allowed)}, "
                                  f"got {getattr(self, key)!r}")
        if self.learning_rate <= 0.0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        for key in ("epochs", "neighbor_R", "patience"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")


_FIELD_TYPES = {f.name: type(getattr(TrainConfig(), f.name)) for f in fields(TrainConfig)}


def _coerce(key: str, text: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key: {key!r}")
    kind = _FIELD_TYPES[key]
    text = text.strip()
    if kind is bool:
        low = text.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {text!r}")
    try:
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a {kind.__name__}, got {text!r}")
    return text


def parse_config_text(text: str) -> dict:
    """key=value lines to a typed override dict. A key may appear once."""
    out, seen = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: {key} is already set on line {seen[key]}")
        out[key], seen[key] = _coerce(key, value), lineno
    return out


def load_config(path=None, overrides: dict | None = None) -> TrainConfig:
    """Assemble a config from an optional file plus explicit overrides."""
    values = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as e:
            raise ConfigError(f"cannot read config file {path}: {e}")
        except UnicodeDecodeError as e:
            raise ConfigError(f"config file {path} is not valid UTF-8: {e}") from None
        values.update(parse_config_text(text))
    for key, val in (overrides or {}).items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key: {key!r}")
        values[key] = val
    return TrainConfig(**values)


def config_to_text(cfg: TrainConfig) -> str:
    """Stable key=value dump (sorted keys), parseable by parse_config_text."""
    lines = []
    for f in sorted(fields(TrainConfig), key=lambda f: f.name):
        lines.append(f"{f.name}={getattr(cfg, f.name)}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> TrainConfig:
    return TrainConfig(**parse_config_text(text))
