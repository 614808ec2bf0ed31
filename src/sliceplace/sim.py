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

The time averages are areas under piecewise-constant curves: each tier's
held units times the time until the next event. The event loop only logs
each event's time and each slice's units when it arrives or leaves
(`_Accounting`); every FOLD_EVENTS events, and at the horizon, numpy folds
the log into the integrals, adding the same float terms in the same event
order as a fold at every event would, so the results do not depend on
FOLD_EVENTS.
"""

from __future__ import annotations

import csv
import heapq
import math
import time
from array import array
from dataclasses import dataclass, field
from enum import Enum
from statistics import NormalDist, median
from typing import Mapping, Sequence

import numpy as np

from .exact import DEFAULT_NODE_BUDGET, SolveStatus, solve_ilp1, solve_ilp2
from .nspr import (DEFAULT_CATALOG, DEFAULT_MIX, ClassSpec, ClassTable, SliceClass,
                   SliceRequest, make_request)
from .p2c import DrawStream, PlacementOutcome, Policy, blocks, place
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
# `Scenario` refuses more replications than this. A command keeps every
# replication's report: about 130 KB each with the default series (101
# samples of 10 rows), so `compare`, which keeps four algorithms' reports,
# holds about 0.5 GB at the bound
MAX_REPLICATIONS = 1_000
# events `_Accounting` logs between two folds
FOLD_EVENTS = 256


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
        if not 1 <= self.replications <= MAX_REPLICATIONS:
            raise ValueError(f"replications must lie in 1..{MAX_REPLICATIONS:,}")
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
    CPU units, GB and Gbps.

    The event loop only logs: `advance` appends each event's time, and
    `commit` a placement's slot vector (`units_of`, summed once per held
    placement), its sign and the event it falls in. Every FOLD_EVENTS
    events, and at `finish`, `_fold` rebuilds the units held before each
    logged event with an int64 cumulative sum, writes the series rows due
    at those events, and adds each event's `held / SCALE * dt` to the
    integrals with `np.add.accumulate` along the events: the float terms
    of one addition per slot and event, in event order, so the integrals
    are those of a fold at every event, float for float
    (`tests/oracles.ReferenceAccounting`). Its buffers are allocated once."""

    def __init__(self, net: PhysicalNetwork, warmup: float, horizon: float,
                 series_interval: float) -> None:
        self.warmup = warmup
        self.horizon = horizon
        slot = {key: k for k, key in enumerate(_SLOTS)}
        self.cap = [0.0] * len(_SLOTS)
        # node id -> its group's CPU slot (RAM is the next, bandwidth the
        # one after); link id -> its group's bandwidth slot, -1 for a link
        # outside every group
        dc_slot = {dc_id: slot[(dc.kind.value, "cpu")]
                   for dc_id, dc in net.data_centers.items()}
        self.server_slot = [-1] * len(net.nodes)
        self.link_slot = [-1] * len(net.links)
        nodes, cap = net.nodes, self.cap
        for srv in net.servers():
            k = self.server_slot[srv.id] = dc_slot[srv.dc]
            cap[k] += srv.cpu_capacity
            cap[k + 1] += srv.ram_capacity
        transport, intra = LinkKind.TRANSPORT, LinkKind.INTRA_DC
        for link in net.links:
            if link.kind is transport:
                k = slot[("transport", "bw")]
            elif link.kind is intra:
                k = dc_slot[nodes[link.a].dc or nodes[link.b].dc] + 2
            else:
                continue
            self.link_slot[link.id] = k
            cap[k] += link.bw_capacity
        self.series: list[tuple[float, str, str, float, float]] = []
        self.interval = series_interval
        self.next_sample = 0.0
        # the log since the last fold: each event's time; each commit's
        # row (the events logged up to it, its own included), sign and
        # slot vector
        self.times = array("d")
        self.rows = array("q")
        self.signs = array("q")
        self.units = array("q")
        # the state after the last fold: the units held, the integrals and
        # the time they run to, from the warmup on
        width = len(_SLOTS)
        self.held = np.zeros(width, np.int64)
        self.integral = np.zeros(width)
        self.counted_to = warmup
        # the fold's buffers. The commits' grows only past FOLD_EVENTS + 1
        # commits between two folds, which a run, with one commit per event
        # at most, never logs
        self._steps = np.arange(FOLD_EVENTS + 1)
        self._held = np.empty((FOLD_EVENTS + 1, width), np.int64)
        self._signed = np.empty((FOLD_EVENTS + 1, width), np.int64)
        self._latest = np.empty(FOLD_EVENTS + 1)
        self._dt = np.empty(FOLD_EVENTS)
        self._area = np.empty((FOLD_EVENTS + 1, width))
        self._reach = np.empty(FOLD_EVENTS)

    def units_of(self, request: SliceRequest, placement: Placement) -> array:
        """A placement's units per slot: from the sums `apply_placement`
        recorded on it for this request (`Placement.units`), and from its x
        and y otherwise."""
        vec = [0] * len(_SLOTS)
        server_slot, link_slot = self.server_slot, self.link_slot
        record = placement.units
        if record is not None and record[0] is request:
            for s, (cpu, ram) in record[1].items():
                k = server_slot[s]
                vec[k] += cpu
                vec[k + 1] += ram
            for lid, units in record[2].items():
                k = link_slot[lid]
                if k >= 0:
                    vec[k] += units
        else:
            vnfs, vls = request.vnfs, request.vls
            for v, s in placement.x.items():
                cpu, ram = vnfs[v - 1].units
                k = server_slot[s]
                vec[k] += cpu
                vec[k + 1] += ram
            for i, path in placement.y.items():
                units = vls[i - 1].bw_units
                for lid in path:
                    k = link_slot[lid]
                    if k >= 0:
                        vec[k] += units
        return array("q", vec)

    def advance(self, t: float) -> None:
        """Log an event at time t; the held units before it count up to t."""
        times = self.times
        if len(times) == FOLD_EVENTS:
            self._fold()
        times.append(t)

    def commit(self, units: array, sign: int) -> None:
        """Log a hold (sign 1) or a return (sign -1) of a placement's units
        (`units_of`) at the latest event."""
        self.rows.append(len(self.times))
        self.signs.append(sign)
        self.units.extend(units)

    def _fold(self) -> None:
        n, m = len(self.times), len(self.signs)
        width = len(_SLOTS)
        if m >= len(self._signed):
            self._signed = np.empty((2 * m + 1, width), np.int64)
        # held[e]: the units held before event e, and after the last (e = n)
        signed = self._signed[:m + 1]
        signed[0] = self.held
        np.multiply(np.frombuffer(self.units, np.int64).reshape(m, width),
                    np.frombuffer(self.signs, np.int64)[:, None], out=signed[1:])
        np.cumsum(signed, axis=0, out=signed)
        held = np.take(signed, np.searchsorted(np.frombuffer(self.rows, np.int64),
                                                self._steps[:n + 1], side="right"),
                       axis=0, out=self._held[:n + 1], mode="clip")
        # the event times clipped to the horizon; a sample is due at the
        # first event whose time reaches it
        latest = self._latest[:n + 1]
        np.minimum(np.frombuffer(self.times), self.horizon, out=latest[1:])
        reach = np.maximum.accumulate(latest[1:], out=self._reach[:n])
        reach += 1e-12
        # each event counts from the latest time before it, and not before
        # the warmup, to its own time, if that is later
        latest[0] = self.counted_to
        np.maximum.accumulate(latest, out=latest)
        dt = np.subtract(latest[1:], latest[:n], out=self._dt[:n])
        area = self._area[:n + 1]
        area[0] = self.integral
        np.divide(held[:n], SCALE, out=area[1:])
        area[1:] *= dt[:, None]
        np.add.accumulate(area, axis=0, out=area)
        s = self.next_sample
        while s <= self.horizon:
            e = int(reach.searchsorted(s))
            if e == n:
                break
            self._rows_at(s, held[e].tolist())
            s += self.interval
        self.next_sample = s
        self.held[:] = held[n]
        self.integral[:] = area[n]
        self.counted_to = float(latest[n])
        del self.times[:], self.rows[:], self.signs[:], self.units[:]

    def _rows_at(self, t: float, held: list[int]) -> None:
        for (g, res), capacity, units in zip(_SLOTS, self.cap, held):
            if capacity != 0.0:
                self.series.append((t, g, res, units / SCALE, capacity))

    def finish(self) -> None:
        self.advance(self.horizon)
        self._fold()
        if not self.series or self.series[-1][0] != self.horizon:
            self._rows_at(self.horizon, self.held.tolist())

    def summaries(self) -> tuple[dict, dict, float]:
        duration = self.horizon - self.warmup
        integrals = self.integral.tolist()
        util: dict[str, dict[str, float]] = {}
        avg: dict[str, dict[str, float]] = {}
        total_bw = 0.0
        for (g, res), capacity, integral in zip(_SLOTS, self.cap, integrals):
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
                mean_held = left_sum(integrals[r::len(RESOURCES)]) / duration
                avg.setdefault("total", {})[res] = mean_held
                util.setdefault("total", {})[res] = mean_held / cap_total
        return util, avg, total_bw


class _Ledger:
    """The network a run should see: a clone of the network the run starts
    from, whose residual arrays are written from the held placements
    themselves, on commit and on departure, by its own arithmetic, never
    through `hold`, `give_back` or `write_units`. Between events it holds
    the state before the next placement."""

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
        return PlacementOutcome(result.placement, None, result.status)
    blocking = min(result.deepest_feasible_vnf + 1, request.n_vnfs)
    return PlacementOutcome(None, blocking, result.status)


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
    # (time, request id, request, placement, its slot units); one due at
    # the arrival's time goes first
    arrival = next(gaps)
    departures: list[tuple[float, int, SliceRequest, Placement, array]] = []

    while True:
        depart = departures and departures[0][0] <= arrival
        t = departures[0][0] if depart else arrival
        if t > scenario.horizon:
            break
        acct.advance(t)

        if depart:
            _, _, request, placement, units = heapq.heappop(departures)
            release_placement(net, request, placement)
            acct.commit(units, -1)
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
                units = acct.units_of(request, placement)
                acct.commit(units, 1)
                if validate:
                    ledger.commit(request, placement, +1)
                heapq.heappush(departures,
                               (t + holding, request.id, request, placement, units))
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
            # not np.median, whose NaN check imports numpy.ma
            "p50": median(times_ms),
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
