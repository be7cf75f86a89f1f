"""Run configuration: a single JSON document with canonical hashing.

Every experiment is fully determined by one RunConfig; the canonical JSON
serialization (sorted keys, no whitespace) is hashed so that reports can be
reproduced from their own config echo.
"""

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .carleman import CarlemanSettings
from .elliptic import PhysicsParams, elliptic_factors
from .grid import DomainSpec, TimeGrid
from .hum import HumSettings
from .nonlinear import FixedPointSettings


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass
class InitialDataConfig:
    shape: str = "cosine"
    amplitude: float = 1e-2
    file_path: str = None


@dataclass
class OutputConfig:
    dir: str = "out"


@dataclass
class RunConfig:
    domain: DomainSpec = field(default_factory=DomainSpec)
    time: TimeGrid = field(default_factory=TimeGrid)
    physics: PhysicsParams = field(default_factory=PhysicsParams)
    carleman: CarlemanSettings = field(default_factory=CarlemanSettings)
    hum: HumSettings = field(default_factory=HumSettings)
    fixed_point: FixedPointSettings = field(default_factory=FixedPointSettings)
    initial_data: InitialDataConfig = field(default_factory=InitialDataConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _checked(path: str, kind: type, value, default):
    """value if it fits a field of type kind, else ConfigError: ints must be real ints (no
    bool or float), floats finite (an int is taken), None only where it is the default."""
    if value is None and default is None:
        return value
    if type(value) not in ((int, float) if kind is float else (kind,)):
        raise ConfigError(f"{path} must be of type {kind.__name__}, got {value!r}")
    # rejects NaN, infinities and ints past the float range alike
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path} must be finite, got {value!r}")
    return float(value) if kind is float else value


def _build(cls, data, where: str):
    """Instance of the config dataclass cls from a (possibly partial) dict."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where or 'config document'} must be a JSON object")
    unknown = set(data) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown keys in {where or 'config'}: {sorted(unknown)}")
    kwargs = {}
    for f in fields(cls):
        if f.name in data:
            path = f"{where}.{f.name}" if where else f.name
            kwargs[f.name] = (_build(f.type, data[f.name], path) if is_dataclass(f.type)
                              else _checked(path, f.type, data[f.name], f.default))
    try:
        return cls(**kwargs)
    except ValueError as exc:  # a settings record's message starts with the key it rejects
        raise ConfigError(f"{where}.{exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    """Build a validated RunConfig from a (possibly partial) plain dict."""
    cfg = _build(RunConfig, data, "")
    validate_config(cfg)
    return cfg


def read_config(path: str) -> dict:
    """The JSON object in the config file at path, not yet validated."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    return data


def apply_override(cfg_dict: dict, override: str) -> None:
    """Apply one --set override of the form section.key=value in place."""
    if "=" not in override:
        raise ConfigError(f"override '{override}' must look like path=value")
    dotted, raw_value = override.split("=", 1)
    parts = dotted.split(".")
    node = cfg_dict
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot descend into '{dotted}'")
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    node[parts[-1]] = value


# Values in one (time.n_steps + 1, domain.n_cells) trajectory, 1 GiB of float64: a
# larger grid is rejected before any of its arrays is allocated.
MAX_GRID_VALUES = 2 ** 27


def validate_config(cfg: RunConfig) -> None:
    """The checks that span sections or need the grid; a settings record checks its own."""
    values = cfg.domain.n_cells * (cfg.time.n_steps + 1)
    if values > MAX_GRID_VALUES:
        raise ConfigError(f"domain.n_cells * (time.n_steps + 1) must be at most "
                          f"{MAX_GRID_VALUES}, got {values}")
    if not cfg.output.dir:
        raise ConfigError("output.dir must not be empty")
    try:  # a failed profile certificate, or an indefinite elliptic operator
        cfg.domain.beta
        elliptic_factors(cfg.physics.gamma, cfg.domain.n_cells, cfg.domain.h)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.initial_data.shape not in ("cosine", "bump", "file"):
        raise ConfigError(f"unknown initial data shape '{cfg.initial_data.shape}'")
    if cfg.initial_data.shape == "file" and not cfg.initial_data.file_path:
        raise ConfigError("initial_data.file_path required for shape 'file'")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg.seed}")


def initial_data(cfg: RunConfig) -> np.ndarray:
    """Built-in initial data shapes on cfg.domain, or cell values ingested from a file."""
    a, domain = cfg.initial_data.amplitude, cfg.domain
    x = domain.centers
    if cfg.initial_data.shape == "cosine":
        return a * (1.0 + np.cos(np.pi * x)) / 2.0
    if cfg.initial_data.shape == "bump":
        return a * np.exp(-100.0 * (x - domain.x0) ** 2)
    try:
        with open(cfg.initial_data.file_path) as fh:  # numpy opens a path through gzip
            values = np.loadtxt(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read initial data file: {exc}") from exc
    if values.shape != (domain.n_cells,) or not np.all(np.isfinite(values)):
        raise ConfigError(
            f"initial data file must hold {domain.n_cells} finite cell values, "
            f"got shape {values.shape}"
        )
    return a * values
