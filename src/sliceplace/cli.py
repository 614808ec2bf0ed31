"""Command-line front end.

Subcommands: generate (reference topologies), place (one request), simulate
(replicated event-loop campaigns), check (audit a placement file against the
constraint checker), compare (all four algorithms on one scenario).

Exit codes: 0 ok; 1 placement rejected or check failed; 2 usage error or a
malformed config, topology or placement document (not JSON included); 3 a
file that cannot be read or written. The SLICEPLACE_CONFIG environment
variable supplies a default --config path.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .config import ConfigError, RunConfig, default_config_path
from .nspr import DEFAULT_CATALOG, SliceClass, make_request
from .p2c import DrawStream
from .placement import MalformedPlacementError, check_placement
from .sim import Algorithm, MetricsReport, Scenario, aggregate, place_request, run
from .topology import PhysicalNetwork, TopologyError, build_reference_psn, load_json


def _load_config(path: str | None) -> RunConfig:
    path = path or default_config_path()
    if path is None:
        return RunConfig()
    return RunConfig.load(path)


def _load_topology(args, cfg: RunConfig) -> PhysicalNetwork:
    topo_file = getattr(args, "topology", None) or cfg.topology_file
    if topo_file:
        return PhysicalNetwork.load(topo_file)
    params = cfg.topology_params
    scale = getattr(args, "scale", None)
    if scale is not None:
        params = dataclasses.replace(params, scale=scale)
    return build_reference_psn(params.scale, params)


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out and out != "-":
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_generate(args) -> int:
    cfg = _load_config(args.config)
    net = _load_topology(args, cfg)
    _emit(net.to_json(), args.out)
    return 0


def _request_from_args(args, net: PhysicalNetwork, cfg: RunConfig):
    try:
        cls_ = SliceClass(args.slice_class.strip().lower())
    except ValueError:
        raise ConfigError(f"unknown slice class {args.slice_class!r}; known: "
                          + ", ".join(c.value for c in SliceClass)) from None
    if not net.uaps:
        raise ConfigError("topology has no UAPs")
    if not 0 <= args.uap < len(net.uaps):
        raise ConfigError(f"--uap index {args.uap} outside 0..{len(net.uaps) - 1}")
    catalog = cfg.catalog or DEFAULT_CATALOG
    if cls_ not in catalog:
        raise ConfigError(f"catalog has no class {cls_.value!r}")
    return make_request(cls_, net.uaps[args.uap], catalog=catalog)


def cmd_place(args) -> int:
    cfg = _load_config(args.config)
    net = _load_topology(args, cfg)
    request = _request_from_args(args, net, cfg)
    algorithm = Algorithm.parse(args.algorithm)
    outcome = place_request(net, request, algorithm,
                            DrawStream(np.random.default_rng(args.seed)),
                            max_nodes=cfg.max_nodes)
    obj = outcome.to_json(net)
    obj["algorithm"] = algorithm.value
    obj["class"] = request.cls.value
    obj["uap"] = request.uap
    _emit(obj, args.out)
    return 0 if outcome.accepted else 1


def cmd_check(args) -> int:
    cfg = _load_config(args.config)
    net = _load_topology(args, cfg)
    request = _request_from_args(args, net, cfg)
    obj = load_json(args.placement, MalformedPlacementError)
    if isinstance(obj, dict) and "placement" in obj:
        obj = obj["placement"]  # accept cmd_place outcome files as-is
    verdict = check_placement(net, request, obj)
    _emit(verdict.to_json(), args.out)
    return 0 if verdict.ok else 1


def _run_replications(net: PhysicalNetwork, scenario: Scenario,
                      algorithm: Algorithm, cfg: RunConfig) -> list[MetricsReport]:
    options = dict(validate=cfg.validate, measure_time=cfg.measure_time,
                   max_nodes=cfg.max_nodes, series_interval=cfg.series_interval)
    if cfg.catalog is not None:
        options["catalog"] = cfg.catalog
    # one replication per seed; a worker gets the network pickled, as read
    replicate = functools.partial(run, net, scenario, algorithm, **options)
    seeds = [(scenario.base_seed, i) for i in range(scenario.replications)]
    # the pool forks every worker at once: no more than the CPUs this process may use
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cfg.jobs, len(seeds), cpus or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(replicate, seeds))
    return list(map(replicate, seeds))


def _apply_sim_flags(cfg: RunConfig, args) -> None:
    if args.jobs is not None:
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        cfg.jobs = args.jobs
    if args.validate:
        cfg.validate = True
    if args.measure_time:
        cfg.measure_time = True
    if getattr(args, "out", None):
        cfg.out_metrics = args.out
    if getattr(args, "series", None):
        cfg.out_series = args.series
    if args.scenario is not None:
        cfg.scenario_name = args.scenario
        cfg.mix = None


def _scenario_from(cfg: RunConfig, args) -> Scenario:
    return cfg.scenario(target_load=args.load, horizon=args.horizon,
                        replications=args.replications, base_seed=args.seed)


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    _apply_sim_flags(cfg, args)
    scenario = _scenario_from(cfg, args)
    algorithm = Algorithm.parse(args.algorithm or cfg.algorithm)
    net = _load_topology(args, cfg)
    reports = _run_replications(net, scenario, algorithm, cfg)
    agg = aggregate(reports)
    obj = {
        "aggregate": agg.to_json(),
        "replications": [r.to_json() for r in reports],
    }
    _emit(obj, cfg.out_metrics)
    if cfg.out_series:
        reports[0].series_to_csv(cfg.out_series)
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args.config)
    _apply_sim_flags(cfg, args)
    scenario = _scenario_from(cfg, args)
    net = _load_topology(args, cfg)
    table, runs = {}, {}
    for algorithm in Algorithm:
        runs[algorithm.value] = _run_replications(net, scenario, algorithm, cfg)
        table[algorithm.value] = aggregate(runs[algorithm.value])

    cols = ["blocking_ratio", "acceptance_ratio", "mean_cost_accepted",
            "held_bw_total_time_avg", "utilization[total.cpu]"]
    widths = [max(len(c), 12) for c in cols]
    header = f"{'algorithm':<10}" + "".join(f"  {c:>{w}}" for c, w in zip(cols, widths))
    lines = [header, "-" * len(header)]
    for name, agg in table.items():
        cells = []
        for c, w in zip(cols, widths):
            m = agg.metrics.get(c)
            cells.append(f"  {m['mean'] if m else 0.0:>{w}.4f}")
        lines.append(f"{name:<10}" + "".join(cells))
    sys.stdout.write("\n".join(lines) + "\n")
    if cfg.out_metrics:
        # each algorithm's aggregate, with its replications' reports in seed
        # order, from which paired differences can be read
        _emit({name: {**agg.to_json(), "reports": [r.to_json() for r in runs[name]]}
               for name, agg in table.items()}, cfg.out_metrics)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sliceplace",
        description="Slice placement on a three-tier substrate: topology "
                    "generation, single placements, simulation campaigns, "
                    "placement audits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file (default: "
                                        "$SLICEPLACE_CONFIG if set)")

    p_gen = sub.add_parser("generate", help="build a reference topology JSON")
    add_common(p_gen)
    p_gen.add_argument("--scale", type=int, help="server-count multiplier")
    p_gen.add_argument("--out", help="output path (default stdout)")
    p_gen.set_defaults(func=cmd_generate)

    def add_request_args(p: argparse.ArgumentParser) -> None:
        add_common(p)
        p.add_argument("--topology", help="topology JSON file (default: "
                                          "generated from config parameters)")
        p.add_argument("--scale", type=int, help="scale when generating")
        p.add_argument("--class", dest="slice_class", required=True,
                       help="slice class: " + ", ".join(c.value for c in SliceClass))
        p.add_argument("--uap", type=int, default=0,
                       help="index into the topology's UAP list (default 0)")

    p_place = sub.add_parser("place", help="place one request, print the outcome")
    add_request_args(p_place)
    p_place.add_argument("--algorithm", default="p2c-2",
                         help="p2c-1, p2c-2, ilp-1 or ilp-2")
    p_place.add_argument("--seed", type=int, default=1)
    p_place.add_argument("--out", help="write outcome JSON here instead of stdout")
    p_place.set_defaults(func=cmd_place)

    p_check = sub.add_parser("check", help="audit a placement file")
    add_request_args(p_check)
    p_check.add_argument("--placement", required=True,
                         help="placement JSON (or a place outcome file)")
    p_check.add_argument("--out", help="write verdict JSON here instead of stdout")
    p_check.set_defaults(func=cmd_check)

    def add_sim_args(p: argparse.ArgumentParser) -> None:
        add_common(p)
        p.add_argument("--topology", help="topology JSON file")
        p.add_argument("--scale", type=int)
        p.add_argument("--scenario", help="BEF, URLLC, eMBB or MIX")
        p.add_argument("--load", type=float, help="target CPU load rho")
        p.add_argument("--horizon", type=float)
        p.add_argument("--replications", type=int)
        p.add_argument("--seed", type=int, dest="seed", help="base seed")
        p.add_argument("--jobs", type=int, help="parallel replications, at most one per usable CPU")
        p.add_argument("--validate", action="store_true",
                       help="re-check every acceptance and audit conservation")
        p.add_argument("--measure-time", action="store_true")
        p.add_argument("--out", help="metrics JSON path (default stdout)")
        p.add_argument("--series", help="CSV path for replication 0's series")

    p_sim = sub.add_parser("simulate", help="run one algorithm over a scenario")
    add_sim_args(p_sim)
    p_sim.add_argument("--algorithm", help="p2c-1, p2c-2, ilp-1 or ilp-2")
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="run all four algorithms, tabulate")
    add_sim_args(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"sliceplace: error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, MalformedPlacementError, TopologyError, ValueError) as exc:
        print(f"sliceplace: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
