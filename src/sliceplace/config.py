"""Run configuration: JSON schema, strict validation, flag merging.

A config file drives the simulate/compare commands and can preload topology
parameters for generate/place. Unknown keys anywhere are rejected so typos
fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Any, Mapping

from .exact import DEFAULT_NODE_BUDGET
from .nspr import ClassSpec, SliceClass, catalog_from_json
from .sim import Scenario, _NAMED_MIXES
from .topology import TopologyError, TopologyParams, load_json, params_from_json, typed

ENV_CONFIG = "SLICEPLACE_CONFIG"


class ConfigError(ValueError):
    pass


# scenario key -> JSON type of its value ("mix" is checked on its own)
_SCENARIO_TYPES = {"name": str, "target_load": float, "horizon": float,
                   "mean_holding": float, "replications": int, "base_seed": int,
                   "warmup": float, "include_holding_time": bool}
_SCENARIO_KEYS = set(_SCENARIO_TYPES) | {"mix"}
_TOP_KEYS = {"topology", "scenario", "algorithm", "catalog", "solver",
             "validate", "measure_time", "jobs", "series_interval", "output"}
_typed = functools.partial(typed, error=ConfigError)


def _require_keys(obj: Mapping, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


@dataclass
class RunConfig:
    topology_params: TopologyParams = field(default_factory=TopologyParams)
    topology_file: str | None = None
    scenario_name: str = "MIX"
    scenario_fields: dict[str, Any] = field(default_factory=dict)
    mix: dict[SliceClass, float] | None = None
    algorithm: str = "p2c-2"
    catalog: dict[SliceClass, ClassSpec] | None = None
    max_nodes: int | None = DEFAULT_NODE_BUDGET
    validate: bool = False
    measure_time: bool = False
    jobs: int = 1
    series_interval: float | None = None
    out_metrics: str | None = None
    out_series: str | None = None

    def scenario(self, **overrides: Any) -> Scenario:
        fields = dict(self.scenario_fields)
        fields.update({k: v for k, v in overrides.items() if v is not None})
        fields.setdefault("target_load", 1.0)
        if self.mix is not None:
            return Scenario(name=self.scenario_name, mix=self.mix, **fields)
        return Scenario.named(self.scenario_name, **fields)

    @classmethod
    def from_json(cls, obj: Mapping) -> "RunConfig":
        if not isinstance(obj, Mapping):
            raise ConfigError("config root must be an object")
        _require_keys(obj, _TOP_KEYS, "config")
        cfg = cls()

        topo = obj.get("topology", {})
        if not isinstance(topo, Mapping):
            raise ConfigError("topology section must be an object")
        topo = dict(topo)
        cfg.topology_file = _typed(topo.pop("file", None), str, "topology file",
                                   nullable=True)
        if topo:
            try:
                cfg.topology_params = params_from_json(topo)
            except TopologyError as exc:
                raise ConfigError(f"bad topology parameters: {exc}") from exc

        scen = obj.get("scenario", {})
        if not isinstance(scen, Mapping):
            raise ConfigError("scenario section must be an object")
        _require_keys(scen, _SCENARIO_KEYS, "scenario")
        scen = dict(scen)
        raw_mix = scen.pop("mix", None)
        for key, value in scen.items():
            _typed(value, _SCENARIO_TYPES[key], f"scenario {key}")
        cfg.scenario_name = scen.pop("name", "MIX")
        if raw_mix is not None:
            if not isinstance(raw_mix, Mapping):
                raise ConfigError("scenario mix must be an object")
            try:
                cfg.mix = {SliceClass(k): _typed(v, float, f"mix share {k!r}")
                           for k, v in raw_mix.items()}
            except ValueError as exc:
                raise ConfigError(f"bad mix: {exc}") from exc
        elif cfg.scenario_name not in _NAMED_MIXES:
            raise ConfigError(f"scenario name {cfg.scenario_name!r} needs an "
                              f"explicit mix (known: {', '.join(_NAMED_MIXES)})")
        cfg.scenario_fields = scen

        cfg.algorithm = _typed(obj.get("algorithm", cfg.algorithm), str, "algorithm")
        if "catalog" in obj:
            if not isinstance(obj["catalog"], Mapping):
                raise ConfigError("catalog must be an object")
            try:
                cfg.catalog = catalog_from_json(obj["catalog"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad catalog: {exc}") from exc

        solver = obj.get("solver", {})
        if not isinstance(solver, Mapping):
            raise ConfigError("solver section must be an object")
        _require_keys(solver, {"max_nodes"}, "solver")
        if "max_nodes" in solver:
            cfg.max_nodes = _typed(solver["max_nodes"], int, "solver max_nodes",
                                   nullable=True)
            if cfg.max_nodes is not None and cfg.max_nodes < 1:
                raise ConfigError("solver max_nodes must be null or >= 1")

        for key in ("validate", "measure_time"):
            if key in obj:
                setattr(cfg, key, _typed(obj[key], bool, key))
        if "jobs" in obj:
            cfg.jobs = _typed(obj["jobs"], int, "jobs")
            if cfg.jobs < 1:
                raise ConfigError("jobs must be >= 1")
        if "series_interval" in obj:
            cfg.series_interval = _typed(obj["series_interval"], float,
                                         "series_interval", nullable=True)
            if cfg.series_interval is not None and cfg.series_interval <= 0:
                raise ConfigError("series_interval must be positive")

        output = obj.get("output", {})
        if not isinstance(output, Mapping):
            raise ConfigError("output section must be an object")
        _require_keys(output, {"metrics", "series"}, "output")
        cfg.out_metrics = _typed(output.get("metrics"), str, "output metrics", nullable=True)
        cfg.out_series = _typed(output.get("series"), str, "output series", nullable=True)
        return cfg

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        return cls.from_json(load_json(path, ConfigError))


def default_config_path() -> str | None:
    return os.environ.get(ENV_CONFIG)
