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
import typing
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


def _setting(section: str, default, *, key=None, low=None, choices=None):
    """A field read from `[section] key` (key defaults to the field name).

    low is an inclusive lower bound on the value, or on every entry of a list
    setting; choices are the accepted values. The kind comes from the annotation.
    """
    meta = {"section": section, "key": key, "low": low, "choices": choices}
    return dataclasses.field(default=default, metadata=meta)


@dataclass(frozen=True)
class ExperimentConfig:
    pde: str = _setting("benchmark", "helm1d", choices=BENCHMARK_PDES)
    boundary: str = _setting("benchmark", "dirichlet", choices=("dirichlet", "neumann"))
    n_modes: int = _setting("benchmark", 16)
    dimensions: int = _setting("benchmark", 1, choices=(1, 2))  # joint_helm's; others fix d
    epsilon: float = _setting("benchmark", 0.1)
    k_squared: float = _setting("benchmark", 4.0)
    nu: float = _setting("benchmark", 1.0)
    nu2: float = _setting("benchmark", 1.0)
    ansatz: str = _setting(
        "circuit", "hardware_efficient_ry", choices=("hardware_efficient_ry", "strongly_entangling")
    )
    layers: int = _setting("circuit", 8, low=1)
    hidden: tuple[int, ...] = _setting("network", (64, 64), low=1)
    activation: str = _setting("network", "gelu", choices=("relu", "gelu", "identity"))
    conv_channels: tuple[int, ...] = _setting("network", (), low=1)
    conv_kernel: int = _setting("network", 3, low=1)
    family: str = _setting(
        "dataset", "trig_1d", choices=("shallow_ry", "trig_1d", "trig_2d", "wave_family", "joint_k")
    )
    train_size: int = _setting("dataset", 20, low=1)
    test_size: int = _setting("dataset", 50, low=0)
    data_seed: int = _setting("dataset", 11, key="seed", low=0)
    k_min: float = _setting("dataset", 4.0)
    k_max: float = _setting("dataset", 5.0)
    k_is_squared: bool = _setting("dataset", False)
    objective: str = _setting("train", "unnormalized", choices=("unnormalized", "normalized"))
    optimizer: str = _setting("train", "adam", choices=("adam", "lbfgs"))
    learning_rate: float = _setting("train", 1e-3)
    beta1: float = _setting("train", 0.9)
    beta2: float = _setting("train", 0.999)
    adam_epsilon: float = _setting("train", 1e-8, key="epsilon")
    epochs: int = _setting("train", 1000, low=1)
    eval_every: int = _setting("train", 100, low=1)
    gradient_mode: str = _setting("train", "adjoint", choices=("adjoint", "parameter_shift"))
    net_seed: int = _setting("train", 5, key="seed", low=0)
    thresholds: tuple[float, ...] = _setting("study", (0.5, 0.1, 0.05, 0.01), low=0)
    scaling_modes: tuple[int, ...] = _setting("study", (4, 8, 16, 32))
    scaling_dims: tuple[int, ...] = _setting("study", (1,))
    signflip_seeds: int = _setting("study", 10, low=1)

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


# section -> key -> field, in field order, which is the order canonical_text writes
_SETTINGS: dict[str, dict[str, dataclasses.Field]] = {}
for _f in dataclasses.fields(ExperimentConfig):
    _SETTINGS.setdefault(_f.metadata["section"], {})[_f.metadata["key"] or _f.name] = _f
_KINDS = typing.get_type_hints(ExperimentConfig)  # field name -> int, float, bool, str or tuple


def _parse_value(kind, raw: str, where: str):
    raw = raw.strip()
    if entry_kinds := typing.get_args(kind):  # tuple[int, ...] or tuple[float, ...]: a comma list
        return tuple(_parse_value(entry_kinds[0], v, where) for v in raw.split(",") if v.strip())
    try:
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        value = kind(raw)
        if kind is float and not math.isfinite(value):
            raise ValueError(raw)
        return value
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
        if section not in _SETTINGS:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SETTINGS[section]:
                raise ConfigurationError(f"unknown key [{section}] {key}")
            name = _SETTINGS[section][key].name
            values[name] = _parse_value(_KINDS[name], raw, f"[{section}] {key}")
    cfg = dataclasses.replace(ExperimentConfig(), **values)
    _validate(cfg)
    return cfg


def parse_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _with_setting(cfg: ExperimentConfig, section: str, key: str, raw: str) -> ExperimentConfig:
    """A CLI override: cfg with `[section] key = raw`, parsed and checked like a config line."""
    name = _SETTINGS[section][key].name
    cfg = dataclasses.replace(cfg, **{name: _parse_value(_KINDS[name], raw, f"[{section}] {key}")})
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    for section, fields in _SETTINGS.items():
        for key, field in fields.items():
            value = getattr(cfg, field.name)
            low, choices = field.metadata["low"], field.metadata["choices"]
            if choices is not None and value not in choices:
                shown = ", ".join(map(str, choices))
                raise ConfigurationError(f"[{section}] {key} must be one of {shown}, got {value!r}")
            entries = value if isinstance(value, tuple) else (value,)
            if low is not None and not all(entry >= low for entry in entries):
                raise ConfigurationError(f"[{section}] {key} must be >= {low}, got {_fmt(value)}")
    # every system size is a power of the mode count, and a circuit needs a power of two
    if not _valid_modes(cfg.n_modes):
        raise ConfigurationError(
            f"[benchmark] n_modes must be a power of two >= 2, got {cfg.n_modes}"
        )
    if not all(_valid_modes(m) for m in cfg.scaling_modes):
        raise ConfigurationError(
            f"[study] scaling_modes must be powers of two >= 2, got {_fmt(cfg.scaling_modes)}"
        )
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
    for key, value in (("learning_rate", cfg.learning_rate), ("epsilon", cfg.adam_epsilon)):
        if not value > 0:
            raise ConfigurationError(f"[train] {key} must be > 0, got {value}")
    for key in ("beta1", "beta2"):
        value = getattr(cfg, key)
        if not 0 <= value < 1:
            raise ConfigurationError(f"[train] {key} must be in [0, 1), got {value}")
    if cfg.conv_kernel % 2 == 0:
        raise ConfigurationError(f"[network] conv_kernel must be odd, got {cfg.conv_kernel}")
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
    for section, fields in _SETTINGS.items():
        out.write(f"[{section}]\n")
        for key, field in fields.items():
            out.write(f"{key} = {_fmt(getattr(cfg, field.name))}\n")
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
