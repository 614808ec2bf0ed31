"""Run configuration: JSON schema, strict validation, flag merging.

A config file drives the simulate/compare commands and can preload topology
parameters for generate/place. Unknown keys anywhere are rejected so typos
fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Mapping

from .exact import DEFAULT_NODE_BUDGET
from .nspr import ClassSpec, SliceClass, catalog_from_json
from .sim import Scenario, _NAMED_MIXES
from .topology import TopologyParams

ENV_CONFIG = "SLICEPLACE_CONFIG"


class ConfigError(ValueError):
    pass


_SCENARIO_KEYS = {"name", "mix", "target_load", "horizon", "mean_holding",
                  "replications", "base_seed", "warmup", "include_holding_time"}
_TOP_KEYS = {"topology", "scenario", "algorithm", "catalog", "solver",
             "validate", "measure_time", "jobs", "series_interval", "output"}


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
        cfg.topology_file = topo.pop("file", None)
        if topo:
            known = set(TopologyParams.__dataclass_fields__)
            _require_keys(topo, known, "topology")
            try:
                cfg.topology_params = TopologyParams(**topo)
                cfg.topology_params.validate()
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad topology parameters: {exc}") from exc

        scen = obj.get("scenario", {})
        if not isinstance(scen, Mapping):
            raise ConfigError("scenario section must be an object")
        _require_keys(scen, _SCENARIO_KEYS, "scenario")
        scen = dict(scen)
        cfg.scenario_name = scen.pop("name", "MIX")
        raw_mix = scen.pop("mix", None)
        if raw_mix is not None:
            try:
                cfg.mix = {SliceClass(k): float(v) for k, v in raw_mix.items()}
            except ValueError as exc:
                raise ConfigError(f"bad mix: {exc}") from exc
        elif cfg.scenario_name not in _NAMED_MIXES:
            raise ConfigError(f"scenario name {cfg.scenario_name!r} needs an "
                              f"explicit mix (known: {', '.join(_NAMED_MIXES)})")
        cfg.scenario_fields = scen

        cfg.algorithm = obj.get("algorithm", cfg.algorithm)
        if "catalog" in obj:
            try:
                cfg.catalog = catalog_from_json(obj["catalog"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad catalog: {exc}") from exc

        solver = obj.get("solver", {})
        if not isinstance(solver, Mapping):
            raise ConfigError("solver section must be an object")
        _require_keys(solver, {"max_nodes"}, "solver")
        if "max_nodes" in solver:
            cfg.max_nodes = (None if solver["max_nodes"] is None
                             else int(solver["max_nodes"]))

        for key in ("validate", "measure_time"):
            if key in obj:
                if not isinstance(obj[key], bool):
                    raise ConfigError(f"{key} must be a boolean")
                setattr(cfg, key, obj[key])
        if "jobs" in obj:
            cfg.jobs = int(obj["jobs"])
            if cfg.jobs < 1:
                raise ConfigError("jobs must be >= 1")
        if "series_interval" in obj and obj["series_interval"] is not None:
            cfg.series_interval = float(obj["series_interval"])
            if cfg.series_interval <= 0:
                raise ConfigError("series_interval must be positive")

        output = obj.get("output", {})
        if not isinstance(output, Mapping):
            raise ConfigError("output section must be an object")
        _require_keys(output, {"metrics", "series"}, "output")
        cfg.out_metrics = output.get("metrics")
        cfg.out_series = output.get("series")
        return cfg

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        with open(path) as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        return cls.from_json(obj)


def default_config_path() -> str | None:
    return os.environ.get(ENV_CONFIG)
