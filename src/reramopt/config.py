"""Campaign configuration: YAML schema, defaults, and object builders.

The effective configuration is a tree of frozen dataclasses; every
section is the runtime class itself (``device:`` is ``Device``,
``space:`` is ``SpaceBounds``, ``resna:`` is ``MlpSpec``, ``hw:`` is
``HwCostParams``, ``mesmo:`` is ``MesmoConfig``), so its own checks run
at parse time. A ``CampaignConfig`` checks the rules that span sections
when it is built, by ``parse_config`` or by ``dataclasses.replace``,
and raises ``ConfigError``. Parsing is
strict: unknown keys are rejected with their dotted path, YAML syntax
errors carry the line number, and an empty document yields the defaults.
Plain scalars such as ``1e9`` and ``1.0e9`` are floats, as in YAML 1.2;
PyYAML's YAML 1.1 resolver would leave them strings.
``emit_defaults()`` round-trips through ``parse_config()`` to an equal
config.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import types
import typing
from dataclasses import dataclass, field

import yaml

from .design_space import DesignSpace, Device, SpaceBounds
from .gp import GpConfig
from .mesmo import OPTIMIZERS, SURROGATES, Budget, MesmoConfig
from .noise import NoiseSpec
from .objectives import HwCostParams, MooProblem, reram_problem, synthetic_cf_problem
from .pareto import Nsga2Config
from .resna import MlpSpec


class ConfigError(ValueError):
    pass


PROBLEMS = ("reram", "branin-currin-cf", "zdt1")


@dataclass(frozen=True)
class ProblemSection:
    name: str = "branin-currin-cf"  # or "zdt1", "reram"


@dataclass(frozen=True)
class CampaignConfig:
    problem: ProblemSection = field(default_factory=ProblemSection)
    optimizer: str = "cf-mesmo"  # one of mesmo.OPTIMIZERS
    seeds: tuple[int, ...] = (0,)
    out_dir: str = "campaign_out"
    workers: int = 1
    budget: Budget = field(default_factory=Budget)
    device: Device = field(default_factory=Device)
    space: SpaceBounds = field(default_factory=SpaceBounds)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    resna: MlpSpec = field(default_factory=MlpSpec)
    hw: HwCostParams = field(default_factory=HwCostParams)
    gp: GpConfig = field(default_factory=GpConfig)
    mesmo: MesmoConfig = field(default_factory=MesmoConfig)
    nsga2: Nsga2Config = field(default_factory=Nsga2Config)

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.problem.name not in PROBLEMS:
            raise ConfigError(f"problem.name must be one of {PROBLEMS}, got {self.problem.name!r}")
        if not self.seeds:
            raise ConfigError("seeds must not be empty")
        # Each seed names its own artifacts and generator stream.
        if min(self.seeds) < 0 or len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"seeds must be distinct and >= 0, got {list(self.seeds)}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        # The surrogates need two observations before the first pick; random
        # search needs no initial design.
        if self.optimizer in SURROGATES and self.mesmo.n_init < 2:
            raise ConfigError(
                f"'mesmo': n_init must be >= 2 for {self.optimizer}, got {self.mesmo.n_init}"
            )
        # A corner that fails with the default device is the space's fault;
        # one that fails only with the configured device is the device's.
        space = build_space(self)
        for section, constants in (("space", {}), ("device", space.constants)):
            try:
                corners = dataclasses.replace(space, constants=constants).corners()
            except ValueError as exc:
                raise ConfigError(f"'{section}': {exc}") from exc
        # Every design runs its classifier layer at the resna: operating point.
        try:
            corners[0].with_context(self.resna.classifier_freq_hz, self.resna.classifier_temperature_k)
        except ValueError as exc:
            raise ConfigError(f"'resna': classifier operating point: {exc}") from exc


class _Loader(yaml.SafeLoader):
    """SafeLoader that also resolves the YAML 1.2 core-schema floats that
    YAML 1.1 reads as strings: an exponent without a sign or without a dot."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def parse_config(text: str) -> CampaignConfig:
    """Parse YAML text into a validated CampaignConfig (empty -> defaults)."""
    try:
        data = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"YAML parse error{line}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a mapping")
    return _from_mapping(CampaignConfig, data, path="")


def load_config(path: str) -> CampaignConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


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
    except ConfigError:  # CampaignConfig's checks name their own section
        raise
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
    if hint not in _SCALARS:
        raise ConfigError(f"'{path}': unsupported config field type {hint}")
    accepted, what = _SCALARS[hint]
    if not isinstance(value, accepted) or (isinstance(value, bool) and hint is not bool):
        raise ConfigError(f"'{path}' must be {what}")
    return float(value) if hint is float else value


# The YAML values each scalar field type accepts (a bool is no number), and their name.
_SCALARS = {
    bool: (bool, "a boolean"), int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string")
}


def to_dict(obj) -> dict:
    """Plain-data view of a config dataclass (tuples become lists)."""
    values = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    plain = {k: to_dict(v) if dataclasses.is_dataclass(v) else v for k, v in values.items()}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in plain.items()}


def emit_defaults() -> str:
    return dump_config(CampaignConfig())


def dump_config(cfg: CampaignConfig) -> str:
    return yaml.safe_dump(to_dict(cfg), sort_keys=False)


def config_hash(cfg: CampaignConfig) -> str:
    canonical = json.dumps(to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# Builders from config sections to runtime objects.


def build_space(cfg: CampaignConfig) -> DesignSpace:
    return DesignSpace(**dataclasses.asdict(cfg.space), constants=dataclasses.asdict(cfg.device))


def build_mlp(cfg: CampaignConfig) -> MlpSpec:
    return cfg.resna


def build_hw_params(cfg: CampaignConfig) -> HwCostParams:
    return cfg.hw


def build_problem(cfg: CampaignConfig) -> MooProblem:
    if cfg.problem.name == "reram":
        return reram_problem(build_space(cfg), cfg.resna, cfg.noise, cfg.hw)
    return synthetic_cf_problem(cfg.problem.name)
