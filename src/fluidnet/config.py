"""Experiment configuration: defaults, file parsing, digest."""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError, DomainError
from .placement import region_for_expected_count

DEFAULT_ETAS = tuple(round(2.2 + 0.2 * i, 1) for i in range(11))


@dataclass(frozen=True)
class ExperimentConfig:
    """Full parameter set for one reproducible experiment; lengths in units of R_c."""

    expected_stations: float = 50.0
    eta_list: tuple = DEFAULT_ETAS
    runs: int = 100
    users: int = 2000
    seed: int = 1
    exclusion: float = 0.01
    rings: int = 3

    def validate(self) -> "ExperimentConfig":
        numbers = [getattr(self, k) for k, kind in _FIELD_TYPES.items() if kind is float]
        if not all(math.isfinite(v) for v in (*numbers, *self.eta_list)):
            raise ConfigError("every real-valued setting must be finite")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.expected_stations <= 0:
            raise ConfigError("expected_stations must be positive")
        try:
            region_for_expected_count(self.expected_stations)
        except DomainError as exc:
            raise ConfigError(f"expected_stations = {self.expected_stations!r}: {exc}") from None
        if not self.eta_list:
            raise ConfigError("eta_list must be nonempty")
        if any(e <= 2 for e in self.eta_list):
            raise ConfigError("every path-loss exponent must exceed 2")
        if self.runs < 1 or self.users < 1:
            raise ConfigError("runs and users must be >= 1")
        if not 0 < self.exclusion < 1:
            raise ConfigError("exclusion must lie in (0, 1)")
        if self.rings < 1:
            raise ConfigError("rings must be >= 1")
        return self

    def canonical_items(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(repr(x) for x in v)
            yield f.name, v

    def digest(self) -> str:
        """Short content hash identifying this configuration."""
        text = "\n".join(f"{k}={v!r}" for k, v in self.canonical_items())
        return hashlib.sha256(text.encode()).hexdigest()[:12]


# the type of each settable key is that of its default; eta_list is parsed apart
_FIELD_TYPES = {f.name: type(f.default) for f in fields(ExperimentConfig)
                if f.name != "eta_list"}


def parse_float_list(text: str) -> tuple:
    """Parse a nonempty comma- (or semicolon-) separated list of finite numbers."""
    try:
        values = tuple(float(tok) for tok in text.replace(";", ",").split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad number list {text!r}") from exc
    if not values:
        raise ConfigError(f"empty number list {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"non-finite value in {text!r}")
    return values


def load_config_file(path) -> dict:
    """Parse a line-based `key = value` config file with `#` comments."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    mapping = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        mapping[key] = value
    return mapping


def config_from_mapping(mapping: dict, base: ExperimentConfig | None = None) -> ExperimentConfig:
    cfg = base or ExperimentConfig()
    updates = {}
    for key, value in mapping.items():
        if key == "eta_list":
            updates[key] = parse_float_list(value) if isinstance(value, str) else tuple(value)
        elif key in _FIELD_TYPES:
            try:
                updates[key] = _FIELD_TYPES[key](value)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {value!r}") from exc
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return replace(cfg, **updates).validate()
