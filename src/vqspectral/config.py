"""Sectioned key=value experiment configuration.

Configs are the reproducibility artifact: parsing is strict (unknown sections
or keys are rejected by name) and canonicalization is idempotent, so a
resolved config re-parses to an identical object.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import math
from dataclasses import dataclass

from .errors import ConfigurationError
from .spectral import BENCHMARK_PDES, BoundarySpec, DirectionBC, assemble_system

__all__ = [
    "ExperimentConfig",
    "MAX_SYSTEM_SIZE",
    "parse_config",
    "parse_config_text",
    "canonical_text",
    "scaling_config",
    "build_system",
]

MAX_SYSTEM_SIZE = 1 << 10  # largest n_modes ** direction_count a verb builds


@dataclass(frozen=True)
class ExperimentConfig:
    # [benchmark]
    pde: str = "helm1d"
    boundary: str = "dirichlet"
    n_modes: int = 16
    dimensions: int = 1  # joint_helm only; other benchmarks fix their own d
    epsilon: float = 0.1
    k_squared: float = 4.0
    nu: float = 1.0
    nu2: float = 1.0
    # [circuit]
    ansatz: str = "hardware_efficient_ry"
    layers: int = 8
    # [network]
    hidden: tuple[int, ...] = (64, 64)
    activation: str = "gelu"
    conv_channels: tuple[int, ...] = ()
    conv_kernel: int = 3
    # [dataset]
    family: str = "trig_1d"
    train_size: int = 20
    test_size: int = 50
    data_seed: int = 11
    k_min: float = 4.0
    k_max: float = 5.0
    k_is_squared: bool = False
    # [train]
    objective: str = "unnormalized"
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    epochs: int = 1000
    eval_every: int = 100
    gradient_mode: str = "adjoint"
    net_seed: int = 5
    # [study]
    thresholds: tuple[float, ...] = (0.5, 0.1, 0.05, 0.01)
    scaling_modes: tuple[int, ...] = (4, 8, 16, 32)
    scaling_dims: tuple[int, ...] = (1,)
    signflip_seeds: int = 10

    @property
    def direction_count(self) -> int:
        """Directions of the benchmark's domain; its system size is n_modes ** this."""
        if self.pde == "wave1d":  # space-time
            return 2
        # every other pde name ends in its dimension: rd1d, cd2d, ...
        return self.dimensions if self.pde == "joint_helm" else int(self.pde[-2])

    def with_seed(self, seed: int) -> "ExperimentConfig":
        """CLI --seed override: reseeds data and network deterministically."""
        seeded = dataclasses.replace(self, data_seed=seed, net_seed=seed + 1)
        _validate(seeded)  # a negative seed exits 2 here, naming [dataset] seed
        return seeded


_SCHEMA = {
    "benchmark": {
        "pde": str,
        "boundary": str,
        "n_modes": int,
        "dimensions": int,
        "epsilon": float,
        "k_squared": float,
        "nu": float,
        "nu2": float,
    },
    "circuit": {"ansatz": str, "layers": int},
    "network": {
        "hidden": "int_list",
        "activation": str,
        "conv_channels": "int_list",
        "conv_kernel": int,
    },
    "dataset": {
        "family": str,
        "train_size": int,
        "test_size": int,
        "seed": int,
        "k_min": float,
        "k_max": float,
        "k_is_squared": bool,
    },
    "train": {
        "objective": str,
        "optimizer": str,
        "learning_rate": float,
        "beta1": float,
        "beta2": float,
        "epsilon": float,
        "epochs": int,
        "eval_every": int,
        "gradient_mode": str,
        "seed": int,
    },
    "study": {
        "thresholds": "float_list",
        "scaling_modes": "int_list",
        "scaling_dims": "int_list",
        "signflip_seeds": int,
    },
}

# (section, key) -> dataclass field; keys named "seed"/"epsilon" collide across
# sections, hence the indirection
_FIELD_OF = {
    ("dataset", "seed"): "data_seed",
    ("train", "seed"): "net_seed",
    ("train", "epsilon"): "adam_epsilon",
}


def _field_name(section: str, key: str) -> str:
    return _FIELD_OF.get((section, key), key)


def _parse_value(kind, raw: str, where: str):
    raw = raw.strip()
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError(raw)
            return value
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind == "int_list":
            return tuple(int(v) for v in raw.split(",") if v.strip()) if raw else ()
        if kind == "float_list":
            return tuple(_parse_value(float, v, where) for v in raw.split(",") if v.strip())
        return raw
    except ValueError:
        raise ConfigurationError(f"invalid value {raw!r} for {where}") from None


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigurationError(f"malformed config: {err}") from None
    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigurationError(f"unknown key [{section}] {key}")
            values[_field_name(section, key)] = _parse_value(
                _SCHEMA[section][key], raw, f"[{section}] {key}"
            )
    cfg = dataclasses.replace(ExperimentConfig(), **values)
    _validate(cfg)
    return cfg


def parse_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


# (section, key, smallest allowed value) of the integer settings
_LOWER_BOUNDS = (
    ("circuit", "layers", 1),
    ("network", "conv_kernel", 1),
    ("dataset", "train_size", 1),
    ("dataset", "test_size", 0),
    ("dataset", "seed", 0),
    ("train", "epochs", 1),
    ("train", "eval_every", 1),
    ("train", "seed", 0),
    ("study", "signflip_seeds", 1),
)


# (section, key, accepted values) of the string settings
_CHOICES = (
    ("benchmark", "pde", BENCHMARK_PDES),
    ("benchmark", "boundary", ("dirichlet", "neumann")),
    ("circuit", "ansatz", ("hardware_efficient_ry", "strongly_entangling")),
    ("network", "activation", ("relu", "gelu", "identity")),
    ("dataset", "family", ("shallow_ry", "trig_1d", "trig_2d", "wave_family", "joint_k")),
    ("train", "objective", ("unnormalized", "normalized")),
    ("train", "optimizer", ("adam", "lbfgs")),
    ("train", "gradient_mode", ("adjoint", "parameter_shift")),
)


def _validate(cfg: ExperimentConfig) -> None:
    for section, key, choices in _CHOICES:
        value = getattr(cfg, key)
        if value not in choices:
            raise ConfigurationError(
                f"[{section}] {key} must be one of {', '.join(choices)}, got {value!r}"
            )
    # every system size is a power of the mode count, and a circuit needs a power of two
    if not _valid_modes(cfg.n_modes):
        raise ConfigurationError(
            f"[benchmark] n_modes must be a power of two >= 2, got {cfg.n_modes}"
        )
    if not all(_valid_modes(m) for m in cfg.scaling_modes):
        raise ConfigurationError(
            f"[study] scaling_modes must be powers of two >= 2, got {_fmt(cfg.scaling_modes)}"
        )
    if cfg.dimensions not in (1, 2):
        raise ConfigurationError(f"[benchmark] dimensions must be 1 or 2, got {cfg.dimensions}")
    # each entry names the pde the scaling study builds, which the family table must know
    fits = (d in (1, 2) and scaling_config(cfg, d).pde in BENCHMARK_PDES for d in cfg.scaling_dims)
    if not all(fits):
        raise ConfigurationError(
            f"[study] scaling_dims entries must be 1 or 2 and name a {cfg.pde} variant, "
            f"got {_fmt(cfg.scaling_dims)}"
        )
    if cfg.n_modes**cfg.direction_count > MAX_SYSTEM_SIZE:
        raise ConfigurationError(
            f"[benchmark] n_modes {cfg.n_modes} over {cfg.direction_count} direction(s) "
            f"exceeds {MAX_SYSTEM_SIZE} unknowns"
        )
    if cfg.n_modes**cfg.direction_count < 4:  # both ansaetze entangle at least two qubits
        raise ConfigurationError(
            f"[benchmark] n_modes {cfg.n_modes} over {cfg.direction_count} direction(s) "
            "gives one qubit; the ansatz needs at least 2"
        )
    if cfg.pde in ("cd1d", "cd2d") and cfg.boundary != "dirichlet":
        raise ConfigurationError(
            f"[benchmark] boundary must be dirichlet for pde {cfg.pde}, got {cfg.boundary}"
        )
    # trig_1d samples a line, trig_2d and wave_family a plane; joint_k draws joint_helm's k
    wanted = {"trig_1d": 1, "trig_2d": 2, "wave_family": 2}.get(cfg.family, cfg.direction_count)
    if wanted != cfg.direction_count or cfg.family == "joint_k" and cfg.pde != "joint_helm":
        raise ConfigurationError(
            f"[dataset] family {cfg.family} does not fit pde {cfg.pde}, "
            f"which has {cfg.direction_count} direction(s)"
        )
    for section, key, low in _LOWER_BOUNDS:
        value = getattr(cfg, _field_name(section, key))
        if not value >= low:
            raise ConfigurationError(f"[{section}] {key} must be >= {low}, got {value}")
    for key in ("learning_rate", "epsilon"):
        value = getattr(cfg, _field_name("train", key))
        if not value > 0:
            raise ConfigurationError(f"[train] {key} must be > 0, got {value}")
    for key in ("beta1", "beta2"):
        value = getattr(cfg, key)
        if not 0 <= value < 1:
            raise ConfigurationError(f"[train] {key} must be in [0, 1), got {value}")
    if cfg.conv_kernel % 2 == 0:
        raise ConfigurationError(f"[network] conv_kernel must be odd, got {cfg.conv_kernel}")
    for key in ("hidden", "conv_channels"):
        widths = getattr(cfg, key)
        if any(width < 1 for width in widths):
            raise ConfigurationError(f"[network] {key} widths must be >= 1, got {_fmt(widths)}")
    if cfg.conv_channels and cfg.family not in ("trig_2d", "wave_family"):  # grid features
        raise ConfigurationError(f"[network] conv_channels needs a grid family, got {cfg.family}")
    if not cfg.k_min <= cfg.k_max:
        raise ConfigurationError(f"[dataset] k_min {cfg.k_min} exceeds k_max {cfg.k_max}")
    if cfg.k_is_squared and not cfg.k_min >= 0:
        raise ConfigurationError(
            f"[dataset] k_min must be >= 0 when k_is_squared = true, got {cfg.k_min}"
        )
    for key, k in (("k_min", cfg.k_min), ("k_max", cfg.k_max)):  # B + k^2 C needs a finite k^2
        if not math.isfinite(k if cfg.k_is_squared else k * k):
            raise ConfigurationError(f"[dataset] {key} must keep k^2 finite, got {k}")


def _valid_modes(value: int) -> bool:
    return value >= 2 and value & (value - 1) == 0


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def canonical_text(cfg: ExperimentConfig) -> str:
    """Stable, fully explicit rendering; parsing it reproduces cfg exactly."""
    out = io.StringIO()
    for section, keys in _SCHEMA.items():
        out.write(f"[{section}]\n")
        for key in keys:
            out.write(f"{key} = {_fmt(getattr(cfg, _field_name(section, key)))}\n")
        out.write("\n")
    return out.getvalue()


def scaling_config(cfg: ExperimentConfig, d: int) -> ExperimentConfig:
    """The config the scaling study builds for a scaling_dims entry: the pde renamed to d."""
    pde = cfg.pde[:-2] + f"{d}d" if cfg.pde[-2:] in ("1d", "2d") else cfg.pde
    return dataclasses.replace(cfg, pde=pde, dimensions=d)


def build_system(cfg: ExperimentConfig):
    """Assemble the spectral system described by the benchmark section."""
    if cfg.pde == "wave1d":
        directions = (DirectionBC.dirichlet(), DirectionBC.initial_value())
    else:
        direction = DirectionBC.neumann() if cfg.boundary == "neumann" else DirectionBC.dirichlet()
        directions = (direction,) * cfg.direction_count
    params = {
        "epsilon": cfg.epsilon,
        "k_squared": cfg.k_squared,
        "nu": cfg.nu,
        "nu1": cfg.nu,
        "nu2": cfg.nu2,
    }
    return assemble_system(cfg.pde, params, BoundarySpec(directions), cfg.n_modes)
