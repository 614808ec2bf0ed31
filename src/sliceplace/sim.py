"""Online discrete-event simulation of slice arrivals and departures.

One run clones the substrate, draws Poisson arrivals calibrated to a target
CPU load, places each request against current residuals with the chosen
algorithm, holds accepted slices for an exponential time (departures release
resources), and reports blocking, per-VNF blocking attribution, and
time-averaged utilization per data-center tier.

Simultaneous events process departures before arrivals so capacity freed at
time t is visible to an arrival at t. Randomness is split into five
independent streams (arrival gaps, class draws, UAP draws, holding times,
placement decisions), so runs with the same seed pair arrival processes
across algorithms while placement draws stay independent. All five are
drawn in blocks, which give the values one draw at a time would give: the
first four as their own values, the placement stream as raw 32-bit values
that `p2c.DrawStream` reduces to P2C's bounded draws.
"""

from __future__ import annotations

import csv
import heapq
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from statistics import NormalDist
from typing import Mapping, Sequence

import numpy as np

from .exact import DEFAULT_NODE_BUDGET, SolveStatus, solve_ilp1, solve_ilp2
from .nspr import (DEFAULT_CATALOG, DEFAULT_MIX, ClassSpec, ClassTable, SliceClass,
                   SliceRequest, make_request)
from .p2c import DrawStream, OutcomeStatus, PlacementOutcome, Policy, blocks, place
from .placement import (Placement, apply_placement, check_placement,
                        release_placement)
from .topology import SCALE, LinkKind, PhysicalNetwork, left_sum

TIER_GROUPS = ("EDC", "CDC", "CCP")
ALL_GROUPS = TIER_GROUPS + ("transport",)
RESOURCES = ("cpu", "ram", "bw")
# (group, resource) of each accounting slot
_SLOTS = tuple((g, res) for g in ALL_GROUPS for res in RESOURCES)
# `run` refuses more series samples than this (the default interval gives
# 100), and more expected arrivals: a run so long would not end in practice,
# and a sample or arrival time too close to the last one to add to it would
# not end at all
MAX_SERIES_SAMPLES = 100_000
MAX_EXPECTED_ARRIVALS = 10**8


class Algorithm(str, Enum):
    P2C_1 = "p2c-1"
    P2C_2 = "p2c-2"
    ILP_1 = "ilp-1"
    ILP_2 = "ilp-2"

    @classmethod
    def parse(cls, name: str) -> "Algorithm":
        key = name.strip().lower().replace("_", "-")
        for algorithm in cls:
            if key in (algorithm.value, algorithm.value.replace("-", "")):
                return algorithm
        raise ValueError(f"unknown algorithm {name!r}")


class SimulationInvariantError(RuntimeError):
    """Raised in validate mode when a checked invariant breaks mid-run."""


_NAMED_MIXES = {
    "BEF": {SliceClass.BEST_EFFORT: 1.0},
    "URLLC": {SliceClass.URLLC: 1.0},
    "eMBB": {SliceClass.EMBB: 1.0},
    "MIX": dict(DEFAULT_MIX),
}


@dataclass(frozen=True)
class Scenario:
    name: str
    mix: Mapping[SliceClass, float]
    target_load: float
    horizon: float = 2000.0
    mean_holding: float = 100.0
    replications: int = 1
    base_seed: int = 1
    warmup: float = 0.0
    include_holding_time: bool = True

    def __post_init__(self) -> None:
        # NaN fails every comparison; a non-finite load or duration would
        # leave the event loop without an end
        if not 0 < self.target_load < math.inf:
            raise ValueError("target_load must be positive and finite")
        if not (0 < self.horizon < math.inf and 0 < self.mean_holding < math.inf):
            raise ValueError("horizon and mean_holding must be positive and finite")
        if not 0 <= self.warmup < self.horizon:
            raise ValueError("warmup must lie in [0, horizon)")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not self.mix:
            raise ValueError("mix is empty")
        total = left_sum(self.mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mix sums to {total}, need 1")

    @classmethod
    def named(cls, name: str, target_load: float, **kwargs) -> "Scenario":
        for known, mix in _NAMED_MIXES.items():
            if name.lower() == known.lower():
                return cls(name=known, mix=mix, target_load=target_load, **kwargs)
        raise ValueError(f"unknown scenario name {name!r}; "
                         f"known: {', '.join(_NAMED_MIXES)}")


def arrival_rates_for_load(psn: PhysicalNetwork, mix: Mapping[SliceClass, float],
                           rho: float, *,
                           catalog: Mapping[SliceClass, ClassSpec] = DEFAULT_CATALOG,
                           mean_holding: float = 100.0,
                           include_holding_time: bool = True) -> dict[SliceClass, float]:
    """Per-class arrival rates so the offered CPU load equals rho.

    Solves sum_k lambda_k * hold * A_k = rho * C for rates proportional to the
    mix, where A_k is one request's total CPU demand and C the substrate's
    CPU capacity. include_holding_time=False drops the hold factor (the raw
    arrival-mass convention)."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    if not mix:
        raise ValueError("mix is empty")
    total_cpu = psn.total_cpu_capacity()
    if total_cpu <= 0:
        raise ValueError("substrate has no CPU capacity to load")
    hold = mean_holding if include_holding_time else 1.0
    denom = 0.0
    for cls_, share in mix.items():
        spec = catalog.get(cls_)
        if spec is None:
            raise ValueError(f"catalog has no class {cls_.value!r} of the mix")
        denom += share * spec.cpu_per_vnf * spec.chain_length * hold
    if denom <= 0:
        raise ValueError("mix carries no CPU demand")
    big_lambda = rho * total_cpu / denom
    return {cls_: big_lambda * share for cls_, share in mix.items()}


@dataclass
class MetricsReport:
    scenario_name: str
    algorithm: str
    seed: int | tuple
    target_load: float
    horizon: float
    mean_holding: float
    warmup: float
    arrivals: int = 0
    accepted: int = 0
    rejected: int = 0
    rejected_budget: int = 0
    departures: int = 0
    validated_accepted: int = 0
    per_class: dict[str, dict[str, float]] = field(default_factory=dict)
    blocking_attribution: dict[int, int] = field(default_factory=dict)
    blocking_ratio: float = 0.0
    acceptance_ratio: float = 0.0
    mean_cost_accepted: float = 0.0
    utilization: dict[str, dict[str, float]] = field(default_factory=dict)
    held_time_avg: dict[str, dict[str, float]] = field(default_factory=dict)
    held_bw_total_time_avg: float = 0.0
    placement_time_ms: dict[str, float] | None = None
    series: list[tuple[float, str, str, float, float]] = field(default_factory=list)

    def to_json(self) -> dict:
        obj = {
            "schema": "metrics/1",
            "scenario": self.scenario_name,
            "algorithm": self.algorithm,
            "seed": list(self.seed) if isinstance(self.seed, tuple) else self.seed,
            "target_load": self.target_load,
            "horizon": self.horizon,
            "mean_holding": self.mean_holding,
            "warmup": self.warmup,
            "arrivals": self.arrivals,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "rejected_budget": self.rejected_budget,
            "departures": self.departures,
            "validated_accepted": self.validated_accepted,
            "per_class": self.per_class,
            "blocking_attribution": {str(k): v for k, v in sorted(self.blocking_attribution.items())},
            "blocking_ratio": self.blocking_ratio,
            "acceptance_ratio": self.acceptance_ratio,
            "mean_cost_accepted": self.mean_cost_accepted,
            "utilization": self.utilization,
            "held_time_avg": self.held_time_avg,
            "held_bw_total_time_avg": self.held_bw_total_time_avg,
        }
        if self.placement_time_ms is not None:
            obj["placement_time_ms"] = self.placement_time_ms
        return obj

    def series_to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "dc_tier", "resource", "used", "capacity"])
            for row in self.series:
                writer.writerow(row)


class _Accounting:
    """Tier-grouped capacity bookkeeping plus time-weighted integrals, one
    slot per (group, resource) of `_SLOTS`. Held amounts are exact counts of
    residual units (`to_units`); series rows and the integrals read them in
    CPU units, GB and Gbps."""

    def __init__(self, net: PhysicalNetwork, warmup: float, horizon: float,
                 series_interval: float) -> None:
        self.warmup = warmup
        self.horizon = horizon
        slot = {key: k for k, key in enumerate(_SLOTS)}
        self.cap = [0.0] * len(_SLOTS)
        # node id -> its group's CPU slot (RAM is the next); link id -> its
        # group's bandwidth slot, -1 for a link outside every group
        self.server_slot = [-1] * len(net.nodes)
        self.link_slot = [-1] * len(net.links)
        for srv in net.servers():
            k = self.server_slot[srv.id] = slot[(net.dc_of(srv.id).kind.value, "cpu")]
            self.cap[k] += srv.cpu_capacity
            self.cap[k + 1] += srv.ram_capacity
        for link in net.links:
            if link.kind is LinkKind.TRANSPORT:
                g = "transport"
            elif link.kind is LinkKind.INTRA_DC:
                g = net.data_centers[net.nodes[link.a].dc or net.nodes[link.b].dc].kind.value
            else:
                continue
            k = self.link_slot[link.id] = slot[(g, "bw")]
            self.cap[k] += link.bw_capacity
        self.held = [0] * len(_SLOTS)
        self.integral = [0.0] * len(_SLOTS)
        self.last_t = 0.0
        self.series: list[tuple[float, str, str, float, float]] = []
        self.interval = series_interval
        self.next_sample = 0.0

    def _rows_at(self, t: float) -> None:
        for (g, res), capacity, units in zip(_SLOTS, self.cap, self.held):
            if capacity != 0.0:
                self.series.append((t, g, res, units / SCALE, capacity))

    def advance(self, t: float) -> None:
        t = min(t, self.horizon)
        while self.next_sample <= t + 1e-12 and self.next_sample <= self.horizon:
            self._rows_at(self.next_sample)
            self.next_sample += self.interval
        lo = max(self.last_t, self.warmup)
        if t > lo:
            dt = t - lo
            integral = self.integral
            for k, units in enumerate(self.held):
                if units:
                    integral[k] += units / SCALE * dt
        self.last_t = max(self.last_t, t)

    def commit(self, request: SliceRequest, placement: Placement,
               sign: int) -> None:
        held, server_slot, link_slot = self.held, self.server_slot, self.link_slot
        vnfs, vls = request.vnfs, request.vls
        for v, s in placement.x.items():
            cpu, ram = vnfs[v - 1].units
            k = server_slot[s]
            held[k] += sign * cpu
            held[k + 1] += sign * ram
        for i, path in placement.y.items():
            units = sign * vls[i - 1].bw_units
            for lid in path:
                k = link_slot[lid]
                if k >= 0:
                    held[k] += units

    def finish(self) -> None:
        self.advance(self.horizon)
        if not self.series or self.series[-1][0] != self.horizon:
            self._rows_at(self.horizon)

    def summaries(self) -> tuple[dict, dict, float]:
        duration = self.horizon - self.warmup
        util: dict[str, dict[str, float]] = {}
        avg: dict[str, dict[str, float]] = {}
        total_bw = 0.0
        for (g, res), capacity, integral in zip(_SLOTS, self.cap, self.integral):
            if capacity == 0.0:
                continue
            mean_held = integral / duration
            avg.setdefault(g, {})[res] = mean_held
            util.setdefault(g, {})[res] = mean_held / capacity
            if res == "bw":
                total_bw += mean_held
        # whole-substrate roll-up: a resource's slots, one per group in order
        for r, res in enumerate(RESOURCES):
            cap_total = left_sum(self.cap[r::len(RESOURCES)])
            if cap_total:
                mean_held = left_sum(self.integral[r::len(RESOURCES)]) / duration
                avg.setdefault("total", {})[res] = mean_held
                util.setdefault("total", {})[res] = mean_held / cap_total
        return util, avg, total_bw


class _Ledger:
    """The network a run should see: a clone of the network the run starts
    from, whose residual arrays are written from the held placements
    themselves, on commit and on departure, never through the transaction
    log. Between events it holds the state before the next placement."""

    def __init__(self, net: PhysicalNetwork) -> None:
        self.net = net.clone()

    def commit(self, request: SliceRequest, placement: Placement, sign: int) -> None:
        net = self.net
        pos = net.index().pos
        for v, s in placement.x.items():
            cpu, ram = request.vnf(v).units
            net.cpu_units[pos[s]] -= sign * cpu
            net.ram_units[pos[s]] -= sign * ram
        for i, path in placement.y.items():
            units = sign * request.vl(i).bw_units
            for lid in path:
                net.bw_units[lid] -= units

    def audit(self, net: PhysicalNetwork) -> None:
        """Every residual must be what the ledger expects (one memcmp each)."""
        for name, want, have in zip(("cpu", "ram", "bandwidth"),
                                    (self.net.cpu_units, self.net.ram_units, self.net.bw_units),
                                    (net.cpu_units, net.ram_units, net.bw_units)):
            if want != have:
                i = next(i for i, (w, h) in enumerate(zip(want, have)) if w != h)
                where = f"link {i}" if name == "bandwidth" else f"server {net.servers()[i].id}"
                raise SimulationInvariantError(
                    f"{where}: {name} residual {have[i] / SCALE}, expected {want[i] / SCALE}")


def place_request(net: PhysicalNetwork, request: SliceRequest, algorithm: Algorithm,
                  stream: DrawStream, *,
                  max_nodes: int | None = DEFAULT_NODE_BUDGET) -> PlacementOutcome:
    """Place one request with any algorithm, committing to net on acceptance.
    `stream` drives P2C, `max_nodes` bounds ILP; `solver_status` is None for P2C."""
    if algorithm in (Algorithm.P2C_1, Algorithm.P2C_2):
        policy = Policy.UNIFORM if algorithm is Algorithm.P2C_1 else Policy.TIER_PREFERRED
        return place(net, request, policy, stream)
    solver = solve_ilp1 if algorithm is Algorithm.ILP_1 else solve_ilp2
    result = solver(net, request, max_nodes=max_nodes)
    if result.status is SolveStatus.OPTIMAL:
        apply_placement(net, request, result.placement)
        return PlacementOutcome(OutcomeStatus.ACCEPTED, result.placement,
                                result.placement.cost, None, result.status)
    blocking = min(result.deepest_feasible_vnf + 1, request.n_vnfs)
    return PlacementOutcome(OutcomeStatus.REJECTED, None, 0.0, blocking, result.status)


def run(psn: PhysicalNetwork, scenario: Scenario, algorithm: Algorithm | str,
        seed: int | tuple, *,
        catalog: Mapping[SliceClass, ClassSpec] = DEFAULT_CATALOG,
        validate: bool = False, measure_time: bool = False,
        max_nodes: int | None = DEFAULT_NODE_BUDGET,
        series_interval: float | None = None) -> MetricsReport:
    """Simulate one replication and return its metrics.

    The caller's psn is cloned, never mutated (cloning may build its
    structure index). With validate=True a ledger keeps a clone of the
    network written from the held placements alone; the independent checker
    re-verifies every acceptance against the ledger's pre-commit state, and
    after every event every residual must equal the ledger's, in residual
    units, so a rejection that leaves a trace fails at its own event.
    series_interval is None (a hundredth of the horizon) or positive and
    finite, and gives at most MAX_SERIES_SAMPLES samples; the scenario
    expects at most MAX_EXPECTED_ARRIVALS arrivals. Either refusal raises
    ValueError before the first event.
    """
    if isinstance(algorithm, str):
        algorithm = Algorithm.parse(algorithm)
    net = psn.clone()
    if not net.uaps:
        raise ValueError("substrate has no UAPs to anchor requests")

    rates = arrival_rates_for_load(
        net, scenario.mix, scenario.target_load, catalog=catalog,
        mean_holding=scenario.mean_holding,
        include_holding_time=scenario.include_holding_time)
    big_lambda = left_sum(rates.values())
    if big_lambda * scenario.horizon > MAX_EXPECTED_ARRIVALS:
        raise ValueError(f"the load and horizon give {big_lambda * scenario.horizon:.3g} "
                         f"expected arrivals, more than {MAX_EXPECTED_ARRIVALS:,}")

    ss = np.random.SeedSequence(seed)
    rng_arrival, rng_class, rng_uap, rng_hold, rng_place = (
        np.random.default_rng(child) for child in ss.spawn(5))
    gaps = blocks(lambda n: rng_arrival.exponential(1.0 / big_lambda, n))
    uniforms = blocks(rng_class.random)
    uap_picks = blocks(lambda n: rng_uap.integers(len(net.uaps), size=n))
    holdings = blocks(lambda n: rng_hold.exponential(scenario.mean_holding, n))
    place_draws = DrawStream(rng_place)
    pick_class = ClassTable.of(scenario.mix).pick

    if series_interval is None:
        interval = scenario.horizon / 100.0
    elif 0.0 < series_interval < math.inf:
        interval = series_interval
    else:
        raise ValueError(f"series_interval must be positive and finite, got {series_interval}")
    if scenario.horizon / interval > MAX_SERIES_SAMPLES:
        raise ValueError(f"series_interval {interval} gives more than {MAX_SERIES_SAMPLES:,} "
                         f"samples over the horizon {scenario.horizon}")
    acct = _Accounting(net, scenario.warmup, scenario.horizon, interval)

    report = MetricsReport(
        scenario_name=scenario.name, algorithm=algorithm.value, seed=seed,
        target_load=scenario.target_load, horizon=scenario.horizon,
        mean_holding=scenario.mean_holding, warmup=scenario.warmup)
    per_class = {c.value: {"arrivals": 0, "accepted": 0, "rejected": 0}
                 for c in scenario.mix}

    ledger = _Ledger(net) if validate else None
    total_cost = 0.0
    times_ms: list[float] = []

    # one pending arrival, and the held slices as a heap of departure rows
    # (time, request id, request, placement); one due at the arrival's time goes first
    arrival = next(gaps)
    departures: list[tuple[float, int, SliceRequest, Placement]] = []

    while True:
        depart = departures and departures[0][0] <= arrival
        t = departures[0][0] if depart else arrival
        if t > scenario.horizon:
            break
        acct.advance(t)

        if depart:
            _, _, request, placement = heapq.heappop(departures)
            release_placement(net, request, placement)
            acct.commit(request, placement, -1)
            if validate:
                ledger.commit(request, placement, -1)
            report.departures += 1
        else:
            report.arrivals += 1
            cls_ = pick_class(next(uniforms))
            uap = net.uaps[next(uap_picks)]
            holding = next(holdings)
            request = make_request(cls_, uap, request_id=report.arrivals,
                                   arrival_time=t, holding_time=holding,
                                   catalog=catalog)
            row = per_class[cls_.value]
            row["arrivals"] += 1

            t0 = time.perf_counter() if measure_time else 0.0
            outcome = place_request(net, request, algorithm, place_draws,
                                    max_nodes=max_nodes)
            if measure_time:
                times_ms.append((time.perf_counter() - t0) * 1e3)

            placement = outcome.placement
            if placement is not None:
                if validate:
                    verdict = check_placement(ledger.net, request, placement)
                    if not verdict.ok:
                        raise SimulationInvariantError(
                            f"accepted placement violates constraints: "
                            f"{verdict.violations}")
                    report.validated_accepted += 1
                report.accepted += 1
                row["accepted"] += 1
                total_cost += placement.cost
                acct.commit(request, placement, +1)
                if validate:
                    ledger.commit(request, placement, +1)
                heapq.heappush(departures, (t + holding, request.id, request, placement))
            else:
                report.rejected += 1
                row["rejected"] += 1
                if outcome.solver_status is SolveStatus.BUDGET_EXCEEDED:
                    report.rejected_budget += 1
                report.blocking_attribution[outcome.blocking_vnf] = (
                    report.blocking_attribution.get(outcome.blocking_vnf, 0) + 1)
            arrival = t + next(gaps)

        if validate:
            ledger.audit(net)

    acct.finish()

    if report.arrivals:
        report.blocking_ratio = report.rejected / report.arrivals
        report.acceptance_ratio = report.accepted / report.arrivals
    for cls_name, row in per_class.items():
        row["blocking_ratio"] = (row["rejected"] / row["arrivals"]
                                 if row["arrivals"] else 0.0)
    report.per_class = per_class
    report.mean_cost_accepted = total_cost / report.accepted if report.accepted else 0.0
    report.utilization, report.held_time_avg, report.held_bw_total_time_avg = (
        acct.summaries())
    report.series = acct.series
    if measure_time and times_ms:
        arr = np.asarray(times_ms)
        report.placement_time_ms = {
            "count": int(arr.size),
            "mean": float(arr.mean()),
            "p50": float(np.median(arr)),
            "max": float(arr.max()),
            "total": float(arr.sum()),
        }
    elif measure_time:
        report.placement_time_ms = {"count": 0, "mean": 0.0, "p50": 0.0,
                                    "max": 0.0, "total": 0.0}
    return report


@dataclass
class AggregateReport:
    scenario_name: str
    algorithm: str
    n: int
    confidence: float
    metrics: dict[str, dict[str, float]]

    def to_json(self) -> dict:
        return {
            "schema": "metrics-aggregate/1",
            "scenario": self.scenario_name,
            "algorithm": self.algorithm,
            "replications": self.n,
            "confidence": self.confidence,
            "metrics": self.metrics,
        }


def _scalar_metrics(report: MetricsReport) -> dict[str, float]:
    out = {
        "arrivals": float(report.arrivals),
        "accepted": float(report.accepted),
        "rejected": float(report.rejected),
        "rejected_budget": float(report.rejected_budget),
        "blocking_ratio": report.blocking_ratio,
        "acceptance_ratio": report.acceptance_ratio,
        "mean_cost_accepted": report.mean_cost_accepted,
        "held_bw_total_time_avg": report.held_bw_total_time_avg,
    }
    for cls_name, row in report.per_class.items():
        out[f"blocking_ratio[{cls_name}]"] = row["blocking_ratio"]
    n_vnfs = max(report.blocking_attribution, default=0)
    for v in range(1, n_vnfs + 1):
        share = (report.blocking_attribution.get(v, 0) / report.rejected
                 if report.rejected else 0.0)
        out[f"blocking_share[vnf{v}]"] = share
    for g, row in report.utilization.items():
        for res, value in row.items():
            out[f"utilization[{g}.{res}]"] = value
    for g, row in report.held_time_avg.items():
        for res, value in row.items():
            out[f"held_time_avg[{g}.{res}]"] = value
    return out


def aggregate(reports: Sequence[MetricsReport], *,
              confidence: float = 0.95) -> AggregateReport:
    """Mean and normal-approximation confidence half-width per scalar metric.

    All reports must come from the same scenario and algorithm. Metrics
    absent from some replications (a tier nobody used, a VNF index never
    blocked) count as 0 there."""
    if not reports:
        raise ValueError("need at least one report")
    head = reports[0]
    key = (head.scenario_name, head.algorithm, head.target_load, head.horizon,
           head.mean_holding, head.warmup)
    for r in reports[1:]:
        if (r.scenario_name, r.algorithm, r.target_load, r.horizon,
                r.mean_holding, r.warmup) != key:
            raise ValueError("reports mix scenarios or algorithms")
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie in (0, 1)")

    rows = [_scalar_metrics(r) for r in reports]
    names = sorted(set().union(*rows))
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    n = len(rows)
    metrics = {}
    for name in names:
        values = np.array([row.get(name, 0.0) for row in rows])
        mean = float(values.mean())
        if n > 1:
            half = float(z * values.std(ddof=1) / np.sqrt(n))
        else:
            half = 0.0
        metrics[name] = {"mean": mean, "half_width": half}
    return AggregateReport(scenario_name=head.scenario_name,
                           algorithm=head.algorithm, n=n,
                           confidence=confidence, metrics=metrics)
