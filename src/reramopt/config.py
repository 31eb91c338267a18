"""Campaign configuration: YAML schema, defaults, and object builders.

The effective configuration is a tree of frozen dataclasses; the gp,
nsga2, budget, noise, resna and hw sections are the runtime classes
themselves (``resna:`` is ``MlpSpec``, ``hw:`` is ``HwCostParams``), so
their own checks run at parse time. Parsing is
strict: unknown keys are rejected with their dotted path, YAML syntax
errors carry the line number, and an empty document yields the defaults.
``emit_defaults()`` round-trips through ``parse_config()`` to an equal
config.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import types
import typing
from dataclasses import dataclass, field

import yaml

from .design_space import DesignSpace
from .gp import GpConfig
from .mesmo import Budget, MesmoConfig
from .noise import NoiseSpec
from .objectives import HwCostParams, MooProblem, reram_problem, synthetic_cf_problem
from .pareto import Nsga2Config
from .resna import MlpSpec


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ProblemSection:
    name: str = "branin-currin-cf"  # or "zdt1", "reram"


@dataclass(frozen=True)
class DeviceSection:
    bit_quan: int = 8
    r_on: float = 3.03e3
    r_off: float = 3.03e6
    res_dac: int = 8
    res_adc: int | None = 8
    v_r: float = 1.65
    sigma_prog: float = 0.0658


@dataclass(frozen=True)
class SpaceSection:
    res_cell_levels: tuple[int, ...] = (1, 2, 3, 4, 8)
    xbar_sizes: tuple[int, ...] = (32, 64, 128)
    freq_bounds_hz: tuple[float, float] = (1.0e7, 1.0e9)
    temperature_bounds_k: tuple[float, float] = (300.0, 400.0)


@dataclass(frozen=True)
class MesmoSection:
    n_front_samples: int = 10
    pool_size: int = 2000
    fidelity_levels: int = 10
    n_init: int = 5
    rff_features: int = 500
    gp_refit_every: int = 3
    inner_pop: int = 64
    inner_gens: int = 40

    def __post_init__(self):
        for name in ("n_front_samples", "pool_size", "fidelity_levels", "rff_features", "inner_pop"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.inner_gens < 0:
            raise ValueError(f"inner_gens must be >= 0, got {self.inner_gens}")


@dataclass(frozen=True)
class CampaignConfig:
    problem: ProblemSection = field(default_factory=ProblemSection)
    optimizer: str = "cf-mesmo"  # cf-mesmo | mesmo | random | nsga2
    seeds: tuple[int, ...] = (0,)
    out_dir: str = "campaign_out"
    workers: int = 1
    budget: Budget = field(default_factory=Budget)
    device: DeviceSection = field(default_factory=DeviceSection)
    space: SpaceSection = field(default_factory=SpaceSection)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    resna: MlpSpec = field(default_factory=MlpSpec)
    hw: HwCostParams = field(default_factory=HwCostParams)
    gp: GpConfig = field(default_factory=GpConfig)
    mesmo: MesmoSection = field(default_factory=MesmoSection)
    nsga2: Nsga2Config = field(default_factory=Nsga2Config)


OPTIMIZERS = ("cf-mesmo", "mesmo", "random", "nsga2")
PROBLEMS = ("reram", "branin-currin-cf", "zdt1")


def parse_config(text: str) -> CampaignConfig:
    """Parse YAML text into a validated CampaignConfig (empty -> defaults)."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"YAML parse error{line}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a mapping")
    cfg = _from_mapping(CampaignConfig, data, path="")
    _validate(cfg)
    return cfg


def load_config(path: str) -> CampaignConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def _validate(cfg: CampaignConfig) -> None:
    if cfg.optimizer not in OPTIMIZERS:
        raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {cfg.optimizer!r}")
    if cfg.problem.name not in PROBLEMS:
        raise ConfigError(f"problem.name must be one of {PROBLEMS}, got {cfg.problem.name!r}")
    if not cfg.seeds:
        raise ConfigError("seeds must not be empty")
    if cfg.workers < 1:
        raise ConfigError("workers must be >= 1")
    # A corner that fails with the default device is the space's fault;
    # one that fails only with the configured device is the device's.
    space = build_space(cfg)
    for section, constants in (("space", {}), ("device", space.constants)):
        try:
            dataclasses.replace(space, constants=constants).corners()
        except ValueError as exc:
            raise ConfigError(f"'{section}': {exc}") from exc


def _from_mapping(cls, data: dict, path: str):
    fields_by_name = {f.name: f for f in dataclasses.fields(cls)}
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(data) - set(fields_by_name))
    if unknown:
        where = f"{path}.{unknown[0]}" if path else unknown[0]
        raise ConfigError(f"unknown config key '{where}'")
    kwargs = {}
    for name, value in data.items():
        sub_path = f"{path}.{name}" if path else name
        kwargs[name] = _coerce(hints[name], value, sub_path)
    try:
        return cls(**kwargs)
    except ValueError as exc:  # a runtime class rejected the section's values
        raise ConfigError(f"'{path}': {exc}") from exc


def _coerce(hint, value, path: str):
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        if value is None:
            return None
        return _coerce(args[0], value, path)
    if dataclasses.is_dataclass(hint):
        if not isinstance(value, dict):
            raise ConfigError(f"'{path}' must be a mapping")
        return _from_mapping(hint, value, path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"'{path}' must be a list")
        elem = typing.get_args(hint)[0]
        return tuple(_coerce(elem, v, f"{path}[{i}]") for i, v in enumerate(value))
    if hint is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"'{path}' must be a boolean")
        return value
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"'{path}' must be an integer")
        return value
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"'{path}' must be a number")
        return float(value)
    if hint is str:
        if not isinstance(value, str):
            raise ConfigError(f"'{path}' must be a string")
        return value
    raise ConfigError(f"'{path}': unsupported config field type {hint}")


def to_dict(obj) -> dict:
    """Plain-data view of a config dataclass (tuples become lists)."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            out[f.name] = to_dict(value)
        elif isinstance(value, tuple):
            out[f.name] = list(value)
        else:
            out[f.name] = value
    return out


def emit_defaults() -> str:
    return yaml.safe_dump(to_dict(CampaignConfig()), sort_keys=False)


def dump_config(cfg: CampaignConfig) -> str:
    return yaml.safe_dump(to_dict(cfg), sort_keys=False)


def config_hash(cfg: CampaignConfig) -> str:
    canonical = json.dumps(to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# Builders from config sections to runtime objects.


def _project(cls, section, **extra):
    """``cls`` built from the fields of ``section`` it shares by name, plus ``extra``."""
    shared = {f.name for f in dataclasses.fields(cls)} & {f.name for f in dataclasses.fields(section)}
    return cls(**{name: getattr(section, name) for name in shared - extra.keys()}, **extra)


def build_space(cfg: CampaignConfig) -> DesignSpace:
    return _project(DesignSpace, cfg.space, constants=dataclasses.asdict(cfg.device))


def build_mlp(cfg: CampaignConfig) -> MlpSpec:
    return cfg.resna


def build_hw_params(cfg: CampaignConfig) -> HwCostParams:
    return cfg.hw


def build_mesmo_config(cfg: CampaignConfig) -> MesmoConfig:
    m = cfg.mesmo
    inner = dataclasses.replace(cfg.nsga2, pop=m.inner_pop, gens=m.inner_gens)
    return _project(MesmoConfig, m, gp=cfg.gp, inner_nsga2=inner)


def build_problem(cfg: CampaignConfig) -> MooProblem:
    if cfg.problem.name == "reram":
        return reram_problem(build_space(cfg), cfg.resna, cfg.noise, cfg.hw)
    return synthetic_cf_problem(cfg.problem.name)
