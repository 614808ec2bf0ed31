"""Discrete-event simulator: calibration, determinism, metrics, aggregation."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sliceplace.sim as sim
from sliceplace.exact import SolveStatus
from sliceplace.nspr import DEFAULT_CATALOG, DEFAULT_MIX, SliceClass, make_request
from sliceplace.p2c import BLOCK, DrawStream, OutcomeStatus, PlacementOutcome, blocks
from sliceplace.placement import Placement, _demand_units, apply_placement
from sliceplace.sim import (
    Algorithm,
    Scenario,
    SimulationInvariantError,
    aggregate,
    arrival_rates_for_load,
    place_request,
    run,
)
from sliceplace.topology import SCALE, PhysicalNetwork, build_reference_psn

from conftest import forbid_events, make_single_dc
from oracles import ReferenceAccounting


@pytest.fixture(scope="module")
def net():
    return build_reference_psn()


def short_scenario(name="urllc", load=0.5, horizon=200.0, warmup=50.0, **kwargs):
    return Scenario.named(name, load, horizon=horizon, warmup=warmup,
                          replications=1, base_seed=42, **kwargs)


class TestArrivalRates:
    def test_urllc_full_load_exact(self, net):
        rates = arrival_rates_for_load(net, {SliceClass.URLLC: 1.0}, 1.0)
        assert rates == {SliceClass.URLLC: pytest.approx(0.84, abs=1e-9)}

    def test_literal_rate_without_holding(self, net):
        rates = arrival_rates_for_load(net, {SliceClass.URLLC: 1.0}, 1.0,
                                       include_holding_time=False)
        assert rates[SliceClass.URLLC] == pytest.approx(84.0, abs=1e-9)

    def test_mix_splits_by_share(self, net):
        rates = arrival_rates_for_load(net, DEFAULT_MIX, 1.0)
        total = sum(rates.values())
        # offered CPU per arrival: 0.67*10*5 + 0.22*25*5 + 0.11*15*5 = 69.25
        assert total == pytest.approx(6300.0 / (69.25 * 100.0), abs=1e-12)
        for cls, share in DEFAULT_MIX.items():
            assert rates[cls] == pytest.approx(share * total, abs=1e-12)

    def test_linearity_in_load(self, net):
        base = arrival_rates_for_load(net, DEFAULT_MIX, 0.4)
        double = arrival_rates_for_load(net, DEFAULT_MIX, 0.8)
        for cls in DEFAULT_MIX:
            assert double[cls] == pytest.approx(2.0 * base[cls], abs=1e-12)

    def test_inverse_in_holding_time(self, net):
        slow = arrival_rates_for_load(net, {SliceClass.URLLC: 1.0}, 1.0, mean_holding=200.0)
        assert slow[SliceClass.URLLC] == pytest.approx(0.42, abs=1e-9)

    @pytest.mark.parametrize("rho", [0.0, -0.5])
    def test_nonpositive_load_rejected(self, net, rho):
        with pytest.raises(ValueError):
            arrival_rates_for_load(net, DEFAULT_MIX, rho)


class TestScenario:
    @pytest.mark.parametrize("alias, name, mix", [
        ("urllc", "URLLC", {SliceClass.URLLC: 1.0}),
        ("bef", "BEF", {SliceClass.BEST_EFFORT: 1.0}),
        ("embb", "eMBB", {SliceClass.EMBB: 1.0}),
        ("mix", "MIX", DEFAULT_MIX),
    ])
    def test_named_aliases(self, alias, name, mix):
        sc = Scenario.named(alias, 0.5)
        assert sc.name == name
        assert dict(sc.mix) == mix

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            Scenario.named("besteffort", 0.5)

    @pytest.mark.parametrize("load", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_load(self, load):
        with pytest.raises(ValueError, match="target_load"):
            Scenario.named("mix", load)

    def test_load_past_the_arrival_bound(self, net, monkeypatch):
        """A load whose expected arrivals over the horizon pass
        MAX_EXPECTED_ARRIVALS is refused before the first event: at 1e17
        the arrival times stop adding up long before the horizon."""
        forbid_events(monkeypatch)
        with pytest.raises(ValueError, match="expected arrivals"):
            run(net, Scenario.named("mix", 1e17, horizon=10.0, warmup=0.0), "p2c-1", 1)

    @pytest.mark.parametrize("replications", [0, sim.MAX_REPLICATIONS + 1, 10**10])
    def test_replications_bounded(self, replications):
        with pytest.raises(ValueError, match="replications"):
            Scenario.named("mix", 0.5, replications=replications)

    def test_replications_at_the_bound(self):
        sc = Scenario.named("mix", 0.5, replications=sim.MAX_REPLICATIONS)
        assert sc.replications == sim.MAX_REPLICATIONS

    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sums to"):
            Scenario("x", {SliceClass.URLLC: 0.4}, 0.5)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            Scenario("x", {SliceClass.URLLC: 1.0}, 0.5, horizon=-1.0)

    @pytest.mark.parametrize("field", ["horizon", "mean_holding"])
    def test_infinite_duration(self, field):
        with pytest.raises(ValueError, match="finite"):
            Scenario("x", {SliceClass.URLLC: 1.0}, 0.5, **{field: float("inf")})

    def test_algorithm_parse(self):
        assert Algorithm.parse("p2c-1") is Algorithm.P2C_1
        assert Algorithm.parse("ILP-2") is Algorithm.ILP_2
        with pytest.raises(ValueError, match="unknown algorithm"):
            Algorithm.parse("greedy")


@pytest.fixture(scope="module")
def report(net):
    return run(net, short_scenario(), "p2c-1", 3)


@pytest.fixture(scope="module")
def reports(net):
    sc = short_scenario()
    return [run(net, sc, "p2c-1", seed) for seed in range(5)]


class TestRunAccounting:
    def test_conservation(self, report):
        assert report.arrivals == report.accepted + report.rejected
        assert report.departures <= report.accepted
        assert report.rejected_budget <= report.rejected

    def test_ratios(self, report):
        assert report.blocking_ratio == pytest.approx(report.rejected / report.arrivals)
        assert report.acceptance_ratio == pytest.approx(report.accepted / report.arrivals)
        assert report.blocking_ratio + report.acceptance_ratio == pytest.approx(1.0)

    def test_per_class_totals(self, report):
        assert sum(c["arrivals"] for c in report.per_class.values()) == report.arrivals
        assert sum(c["accepted"] for c in report.per_class.values()) == report.accepted

    def test_attribution_covers_rejections(self, report):
        assert sum(report.blocking_attribution.values()) == report.rejected
        # keyed by the VNF index the chain died at
        assert all(1 <= vnf <= 5 for vnf in report.blocking_attribution)

    def test_utilization_shape(self, report):
        util = report.utilization
        assert set(util) == {"EDC", "CDC", "CCP", "transport", "total"}
        for tier in ("EDC", "CDC", "CCP", "total"):
            for resource in ("cpu", "ram", "bw"):
                assert 0.0 <= util[tier][resource] <= 1.0
        assert set(util["transport"]) == {"bw"}

    def test_cost_and_holding_metrics(self, report):
        assert report.mean_cost_accepted >= 0.0
        held = report.held_time_avg
        assert set(held) == {"EDC", "CDC", "CCP", "transport", "total"}
        assert held["total"]["cpu"] > 0.0
        assert all(v >= 0.0 for tier in held.values() for v in tier.values())
        assert report.held_bw_total_time_avg >= 0.0

    def test_json_round_trip_shape(self, report):
        doc = report.to_json()
        assert doc["schema"] == "metrics/1"
        assert doc["arrivals"] == report.arrivals
        assert json.dumps(doc)  # serializable


class TestDeterminism:
    def test_same_seed_byte_identical(self, net):
        sc = short_scenario()
        a = json.dumps(run(net, sc, "p2c-2", 11).to_json(), sort_keys=True)
        b = json.dumps(run(net, sc, "p2c-2", 11).to_json(), sort_keys=True)
        assert a == b

    def test_different_seeds_differ(self, net):
        sc = short_scenario()
        a = run(net, sc, "p2c-1", 0).to_json()
        b = run(net, sc, "p2c-1", 1).to_json()
        assert a != b

    def test_tuple_seeds(self, net):
        sc = short_scenario(horizon=100.0, warmup=0.0)
        a = run(net, sc, "p2c-1", (42, 0)).to_json()
        b = run(net, sc, "p2c-1", (42, 1)).to_json()
        assert a != b

    def test_input_network_untouched(self, net):
        snap = net.snapshot()
        run(net, short_scenario(horizon=100.0), "p2c-1", 5)
        assert net.snapshot() == snap


BLOCK_DRAWS = {
    # name: (n draws at once, one draw), as `sim.run` reads its four streams
    "exponential": (lambda rng, n: rng.exponential(0.37, n), lambda rng: rng.exponential(0.37)),
    "integers-1": (lambda rng, n: rng.integers(1, size=n), lambda rng: rng.integers(1)),
    "integers-2": (lambda rng, n: rng.integers(2, size=n), lambda rng: rng.integers(2)),
    "integers-15": (lambda rng, n: rng.integers(15, size=n), lambda rng: rng.integers(15)),
    "random": (lambda rng, n: rng.random(n), lambda rng: rng.random()),
}


class TestBlockDraws:
    """`sim.run` draws arrival gaps, holding times, UAP indices and class
    uniforms in blocks. numpy must give the values one draw at a time
    gives, and leave the generator where those draws leave it; a numpy that
    breaks this fails here by name, not only through the golden digests."""

    @pytest.mark.parametrize("name", list(BLOCK_DRAWS))
    def test_block_equals_scalar_draws(self, name):
        block, one = BLOCK_DRAWS[name]
        a, b = np.random.default_rng(2024), np.random.default_rng(2024)
        n = 2 * BLOCK + 3
        assert block(a, n).tolist() == [one(b) for _ in range(n)]
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("name", list(BLOCK_DRAWS))
    def test_stream_reads_as_scalar_draws(self, name):
        block, one = BLOCK_DRAWS[name]
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        stream = blocks(lambda n: block(a, n))
        values = [next(stream) for _ in range(2 * BLOCK + 3)]
        assert values == [one(b) for _ in values]
        assert all(type(v) in (int, float) for v in values)


class TestValidateMode:
    @pytest.mark.parametrize("algorithm", ["p2c-1", "p2c-2", "ilp-1", "ilp-2"])
    def test_validated_counts_match(self, net, algorithm):
        sc = short_scenario(horizon=100.0, warmup=0.0)
        checked = run(net, sc, algorithm, 7, validate=True)
        plain = run(net, sc, algorithm, 7)
        assert checked.validated_accepted == checked.accepted > 0
        assert plain.validated_accepted == 0
        assert (checked.arrivals, checked.accepted, checked.rejected) == \
               (plain.arrivals, plain.accepted, plain.rejected)


# sha256 of MetricsReport.to_json() without host timings for MIX, rho=1,
# horizon 300, seed 7 on the scale-1 reference substrate. A change that
# alters any placement decision or metric changes these.
GOLDEN_DIGESTS = {
    "p2c-1": "71cf1799ec3585b7302bdb228aa59b7133648ebe268cff92233ed5af3aeb5819",
    "p2c-2": "b9c9759c05d410cb37fd9e8ac8c222790aa0e7458f81cfa0370c572d3c998e00",
    "ilp-1": "8bbe07276d6ca459bb72bca51a7d1ee8c1442caa3c407aeaabeec492c47fcf71",
    "ilp-2": "7452402037795e1c99fe61110b7a5ec008c8571d246614fee36dcb9dfe0c8b9c",
}


# The same for MIX, rho=1, horizon 150, seed 7 on the scale-2 substrate (252
# servers), where each exact path search serves more data centers' servers
# over longer paths.
GOLDEN_DIGESTS_SCALE2 = {
    "ilp-1": "d64e4ae52dec5ecfd71ab12b08a4fd9373abdac7460f6346b506e8ce3422f879",
    "ilp-2": "1b63372aaa610ad015f656b16cff945339860bb79f27f16025378269a83bd06f",
}


# The same for MIX, rho=1, horizon 100, seed 7 on the scale-4 substrate (504
# servers), where latency reach spans many servers per DC.
GOLDEN_DIGESTS_SCALE4 = {
    "p2c-1": "68c80dafd27653b7b07dcbcec2237748bf58f736e260e59af87cad84de3baf2b",
    "p2c-2": "56b34ee0138cb175f1c2f71b17f2e43794f81f7106df719a4ad674ba70ec260f",
}


# The same for MIX, rho=1, horizon 30, seed 7 on the scale-16 substrate (2016
# servers, up to 256 per DC), where eligibility runs over the residual vectors.
GOLDEN_DIGESTS_SCALE16 = {
    "p2c-1": "a8577f152c2a0ad7258d90346695b06366b7ad48a0b660261c15cda6239b31e9",
    "p2c-2": "92075e48929aec3c536a93dfcd51c402672b7b2ebc4fc4664bcef462206eaccb",
}


def results_digest(report) -> str:
    obj = report.to_json()
    obj.pop("placement_time_ms", None)
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class TestGoldenResults:
    @pytest.mark.parametrize("algorithm", sorted(GOLDEN_DIGESTS))
    def test_results_digest_pinned(self, net, algorithm):
        report = run(net, Scenario.named("MIX", 1.0, horizon=300.0), algorithm, 7)
        assert results_digest(report) == GOLDEN_DIGESTS[algorithm]

    @pytest.mark.parametrize("algorithm", sorted(GOLDEN_DIGESTS_SCALE2))
    def test_results_digest_pinned_scale2(self, algorithm):
        report = run(build_reference_psn(2), Scenario.named("MIX", 1.0, horizon=150.0),
                     algorithm, 7)
        assert results_digest(report) == GOLDEN_DIGESTS_SCALE2[algorithm]

    @pytest.mark.parametrize("algorithm", sorted(GOLDEN_DIGESTS_SCALE4))
    def test_results_digest_pinned_scale4(self, algorithm):
        report = run(build_reference_psn(4), Scenario.named("MIX", 1.0, horizon=100.0),
                     algorithm, 7)
        assert results_digest(report) == GOLDEN_DIGESTS_SCALE4[algorithm]

    @pytest.mark.parametrize("algorithm", sorted(GOLDEN_DIGESTS_SCALE16))
    def test_results_digest_pinned_scale16(self, algorithm):
        report = run(build_reference_psn(16), Scenario.named("MIX", 1.0, horizon=30.0),
                     algorithm, 7)
        assert results_digest(report) == GOLDEN_DIGESTS_SCALE16[algorithm]


class TestPlaceRequest:
    @staticmethod
    def held_cpu(work):
        return sum(s.cpu_capacity - work.residual(s.id)[0] for s in work.servers())

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_commits_on_acceptance(self, net, algorithm):
        work = net.clone()
        request = make_request(SliceClass.URLLC, work.uaps[0])
        out = place_request(work, request, algorithm, DrawStream(np.random.default_rng(3)))
        assert out.accepted
        assert self.held_cpu(work) == 5 * 15.0
        if algorithm in (Algorithm.P2C_1, Algorithm.P2C_2):
            assert out.solver_status is None
            assert "solver_status" not in out.to_json(work)
        else:
            assert out.solver_status is SolveStatus.OPTIMAL
            assert out.to_json(work)["solver_status"] == "optimal"
        assert vars(work).keys() == vars(PhysicalNetwork()).keys()

    def test_budget_rejection_leaves_substrate(self, net):
        work = net.clone()
        before = work.snapshot()
        request = make_request(SliceClass.URLLC, work.uaps[0])
        out = place_request(work, request, Algorithm.ILP_1,
                            DrawStream(np.random.default_rng(3)), max_nodes=1)
        assert out.status is OutcomeStatus.REJECTED
        assert out.solver_status is SolveStatus.BUDGET_EXCEEDED
        assert out.blocking_vnf == 2
        assert work.snapshot() == before


class TestEventOrder:
    def test_departure_frees_capacity_before_a_simultaneous_arrival(self, monkeypatch):
        """One server with room for exactly one BEF chain, arrivals every
        1.0 and holding times of 1.0: each slice departs at the time the
        next one arrives. Served departure first, every arrival fits; served
        arrival first, every other one would find the server full."""
        streams = iter([itertools.repeat(1.0),  # arrival gaps
                        itertools.repeat(0.0),  # class uniforms
                        itertools.repeat(0),  # UAP picks
                        itertools.repeat(1.0)])  # holding times
        monkeypatch.setattr(sim, "blocks", lambda draw: next(streams))
        report = run(make_single_dc(servers=1), Scenario.named("BEF", 1.0, horizon=10.0),
                     "p2c-1", 1, validate=True)
        assert (report.arrivals, report.accepted, report.departures) == (10, 10, 9)
        assert report.validated_accepted == 10


class TestValidateAudit:
    def test_rejection_that_leaks_is_caught(self, net, monkeypatch):
        # a placer that holds resources yet reports rejection; the ledger
        # audit must see it without trusting the placer's own writes
        def leaky(psn, request, policy, rng):
            psn.allocate(psn.servers()[0].id, 1.0, 1.0)
            return PlacementOutcome(None, 1)

        monkeypatch.setattr(sim, "place", leaky)
        sc = short_scenario(horizon=50.0, warmup=0.0)
        with pytest.raises(SimulationInvariantError,
                           match=r"server 1: cpu residual 49\.0, expected 50\.0"):
            run(net, sc, "p2c-1", 1, validate=True)

    def test_acceptance_the_checker_refuses_is_caught(self, net, monkeypatch):
        # a placer that commits a whole chain to one CCP server, beyond every
        # class's access bound: the checker refuses it at its own arrival
        def far(psn, request, algorithm, rng, *, max_nodes):
            s = psn.data_centers["ccp0"].servers[0]
            plc = Placement(x={v: s for v in range(1, request.n_vnfs + 1)},
                            y={i: [] for i in range(1, request.n_vnfs)})
            apply_placement(psn, request, plc)
            return PlacementOutcome(plc)

        monkeypatch.setattr(sim, "place_request", far)
        sc = short_scenario("BEF", horizon=50.0, warmup=0.0)
        with pytest.raises(SimulationInvariantError,
                           match=r"accepted placement violates constraints: \[\(9, "):
            run(net, sc, "p2c-1", 1, validate=True)

    def test_residual_written_behind_the_network_is_caught(self, net, monkeypatch):
        # a departure that also takes one CPU unit off the store directly,
        # past release: the ledger never held it
        released = []

        def sneaky(psn, request, placement):
            sim_release(psn, request, placement)
            if not released:
                psn.cpu_units[psn.index().pos[placement.x[1]]] -= 1
            released.append(request.id)

        sim_release = sim.release_placement
        monkeypatch.setattr(sim, "release_placement", sneaky)
        sc = short_scenario(horizon=300.0, warmup=0.0)
        with pytest.raises(SimulationInvariantError, match=r"server \d+: cpu residual "):
            run(net, sc, "p2c-1", 1, validate=True)
        assert len(released) == 1

    def test_uplink_written_behind_the_network_is_caught(self, net, monkeypatch):
        # the same for the bandwidth of a server's one link
        written = []

        def sneaky(psn, request, placement):
            sim_release(psn, request, placement)
            if not written:
                (_, lid), = psn.adj[placement.x[1]]
                psn.bw_units[lid] -= 1
                written.append(lid)

        sim_release = sim.release_placement
        monkeypatch.setattr(sim, "release_placement", sneaky)
        sc = short_scenario(horizon=300.0, warmup=0.0)
        with pytest.raises(SimulationInvariantError) as caught:
            run(net, sc, "p2c-1", 1, validate=True)
        assert str(caught.value).startswith(f"link {written[0]}: bandwidth residual ")

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_fractional_demands_pass_the_audit(self, net, algorithm):
        # 0.3 CPU and 0.1 Gbps have no exact binary form; held in float
        # residuals they drifted from the ledger within a few events
        report = run(net, Scenario.named("BEF", 1.0, horizon=30.0), algorithm, 1,
                     catalog=fractional_catalog(), validate=True)
        assert report.accepted == report.validated_accepted > 0
        assert report.departures > 0

    def test_fractional_demands_are_held_in_whole_units(self, net):
        # the held amounts behind the series and the utilization count
        # residual units; summed as floats, this run's held CPU ended at
        # 188.99999999999918 where the residuals say 189.0
        report = run(net, Scenario.named("BEF", 0.9, horizon=100.0), "p2c-1", 1,
                     catalog=fractional_catalog())
        assert report.departures > 0
        for t, group, res, used, _ in report.series:
            assert round(used * SCALE) / SCALE == used, (t, group, res, used)


def fractional_catalog() -> dict:
    """The default catalog with best effort at 0.3 CPU and 0.1 Gbps."""
    catalog = dict(DEFAULT_CATALOG)
    catalog[SliceClass.BEST_EFFORT] = dataclasses.replace(
        catalog[SliceClass.BEST_EFFORT], cpu_per_vnf=0.3, bw_per_vl=0.1)
    return catalog


def fold_logs():
    """(horizon, warmup share, series interval share, event count, sorted,
    seed) of one accounting log: runs that end before, at and past a fold
    (`sim.FOLD_EVENTS`), with and without a warmup. The seed draws the
    events and their commits."""
    fold = sim.FOLD_EVENTS
    return st.tuples(st.sampled_from([100.0, 37.5]), st.sampled_from([0.0, 0.25]),
                     st.sampled_from([1.0, 0.073, 0.5]),
                     st.sampled_from([0, 1, 2, fold - 1, fold, fold + 1, 2 * fold + 3]),
                     st.booleans(), st.integers(0, 2**32 - 1))


class TestAccountingFold:
    """`sim._Accounting` logs the events and folds them in bulk; it must
    give the integrals, summaries and series of `ReferenceAccounting`,
    which folds at every event, float for float."""

    @staticmethod
    def event_times(rnd, n, horizon, warmup, interval) -> list[float]:
        # the sample times as the accounting steps through them
        samples = [0.0]
        while samples[-1] <= horizon:
            samples.append(samples[-1] + interval)
        times = []
        for _ in range(n):
            kind = rnd.randrange(6)
            if kind == 0:
                t = rnd.choice(samples) + rnd.choice((-1e-12, 0.0, 1e-12))
            elif kind == 1:
                t = rnd.choice((warmup, horizon, horizon + rnd.random()))
            elif kind == 2 and times:
                t = times[-1]
            else:
                t = rnd.uniform(0.0, horizon * 1.05)
            times.append(max(t, 0.0))
        return times

    @staticmethod
    def placement(rnd, net, catalogs):
        """A request of any class of a catalog (best effort fractional in
        one) and a placement of its chain on any servers and links, with
        the units `apply_placement` records on it, for it or for another
        request, or none."""
        cls_ = rnd.choice(list(SliceClass))
        request = make_request(cls_, net.uaps[0], catalog=rnd.choice(catalogs))
        servers = net.servers()
        x = {v: rnd.choice(servers).id for v in range(1, request.n_vnfs + 1)}
        y = {i: rnd.sample(range(len(net.links)), rnd.randrange(5))
             for i in range(1, request.n_vnfs)}
        placement = Placement(x, y)
        record = rnd.randrange(3)
        if record == 1:
            _demand_units(request, placement)
        elif record == 2:
            _demand_units(make_request(cls_, net.uaps[0], catalog=catalogs[0]), placement)
        return request, placement

    @settings(max_examples=100, deadline=None)
    @given(fold_logs())
    def test_matches_the_fold_at_every_event(self, net, log):
        horizon, share, interval, n, in_order, seed = log
        rnd = random.Random(seed)
        warmup = horizon * share
        interval *= horizon
        catalogs = (DEFAULT_CATALOG, fractional_catalog())
        ref = ReferenceAccounting(net, warmup, horizon, interval)
        acct = sim._Accounting(net, warmup, horizon, interval)
        times = self.event_times(rnd, n, horizon, warmup, interval)
        if in_order:
            times.sort()
        held = []

        def commits(k):
            for _ in range(k):
                if held and rnd.random() < 0.4:
                    request, placement, units = held.pop(rnd.randrange(len(held)))
                    ref.commit(request, placement, -1)
                    acct.commit(units, -1)
                else:
                    request, placement = self.placement(rnd, net, catalogs)
                    units = acct.units_of(request, placement)
                    ref.commit(request, placement, 1)
                    acct.commit(units, 1)
                    held.append((request, placement, units))

        commits(rnd.randrange(2))
        for t in times:
            ref.advance(t)
            acct.advance(t)
            commits(rnd.randrange(3))
        ref.finish()
        acct.finish()
        assert acct.held.tolist() == ref.held
        assert acct.integral.tolist() == ref.integral
        assert acct.summaries() == ref.summaries()
        assert acct.series == ref.series

    @pytest.mark.parametrize("scale", [1, 4])
    def test_slot_tables_match_the_reference(self, scale):
        psn = build_reference_psn(scale)
        ref = ReferenceAccounting(psn, 0.0, 1.0, 1.0)
        acct = sim._Accounting(psn, 0.0, 1.0, 1.0)
        assert (acct.cap, acct.server_slot, acct.link_slot) == (
            ref.cap, ref.server_slot, ref.link_slot)

    def test_forbid_events_stops_a_run_before_its_first_fold(self, net, monkeypatch):
        """`conftest.forbid_events` stops a run at its first event through
        the accounting alone, before it folds and writes a series row."""
        folds = []
        monkeypatch.setattr(sim._Accounting, "_fold", lambda acct: folds.append(acct))
        place = sim.place_request
        forbid_events(monkeypatch)
        monkeypatch.setattr(sim, "place_request", place)
        with pytest.raises(AssertionError, match="first event"):
            run(net, short_scenario(), "p2c-1", 3)
        assert folds == []


class TestWarmup:
    def test_warmup_excludes_rampup(self, net):
        cold = run(net, short_scenario(horizon=300.0, warmup=0.0), "p2c-1", 13)
        warm = run(net, short_scenario(horizon=300.0, warmup=100.0), "p2c-1", 13)
        # the empty start drags the whole-run average down
        assert cold.utilization["total"]["cpu"] < warm.utilization["total"]["cpu"]


class TestSeries:
    ROW_KINDS = 10  # EDC/CDC/CCP x cpu/ram/bw, plus transport bw

    def test_explicit_interval(self, net, tmp_path):
        rep = run(net, short_scenario(horizon=200.0), "p2c-1", 3, series_interval=50.0)
        times = sorted({row[0] for row in rep.series})
        assert times == [0.0, 50.0, 100.0, 150.0, 200.0]
        assert len(rep.series) == len(times) * self.ROW_KINDS
        out = tmp_path / "series.csv"
        rep.series_to_csv(str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "time,dc_tier,resource,used,capacity"
        assert len(lines) == 1 + len(rep.series)

    @pytest.mark.parametrize("interval", [0.0, -1.0, float("nan"), float("inf"), 1e-13])
    def test_bad_interval(self, net, monkeypatch, interval):
        """An interval of 0 or less, which would never pass the horizon,
        one that is not finite, and one that gives more than
        MAX_SERIES_SAMPLES samples (1e-13 adds nothing to a sample time
        past 1024) are refused, before the first event."""
        forbid_events(monkeypatch)
        with pytest.raises(ValueError, match="series_interval"):
            run(net, short_scenario(horizon=200.0), "p2c-1", 3, series_interval=interval)

    def test_default_interval_samples_horizon(self, net):
        rep = run(net, short_scenario(horizon=150.0), "p2c-1", 3)
        times = sorted({row[0] for row in rep.series})
        assert len(times) == 101
        assert times[0] == 0.0 and times[-1] == 150.0

    def test_rows_within_capacity(self, net):
        rep = run(net, short_scenario(horizon=100.0, load=1.0), "p2c-1", 3)
        for _, tier, resource, used, cap in rep.series:
            assert 0.0 <= used <= cap + 1e-9


class TestLoadResponse:
    def test_underload_rarely_blocks(self, net):
        sc = short_scenario(load=0.1, horizon=300.0, warmup=0.0)
        for seed in range(5):
            rep = run(net, sc, "p2c-1", seed)
            assert rep.blocking_ratio <= 0.02

    def test_blocking_grows_with_load(self, net):
        def mean_blocking(load):
            sc = short_scenario(load=load, horizon=300.0, warmup=50.0)
            return statistics.fmean(
                run(net, sc, "p2c-1", seed).blocking_ratio for seed in range(12))

        low, high = mean_blocking(0.5), mean_blocking(1.2)
        assert high > low + 0.05


class TestBudgetRejection:
    def test_node_budget_starves_solver(self, net):
        sc = short_scenario(load=0.3, horizon=60.0, warmup=0.0)
        rep = run(net, sc, "ilp-1", 0, max_nodes=1)
        assert rep.accepted == 0
        assert rep.rejected == rep.arrivals
        assert rep.rejected_budget == rep.rejected


class TestMeasureTime:
    def test_timing_summary(self, net):
        sc = short_scenario(horizon=100.0, warmup=0.0)
        timed = run(net, sc, "p2c-1", 0, measure_time=True)
        plain = run(net, sc, "p2c-1", 0)
        stats = timed.placement_time_ms
        assert plain.placement_time_ms is None
        assert stats["count"] == timed.arrivals
        assert 0.0 < stats["p50"] <= stats["max"]
        assert stats["total"] >= stats["mean"] * stats["count"] * 0.99


class TestAggregate:
    def test_normal_interval(self, reports):
        agg = aggregate(reports)
        assert agg.n == 5 and agg.confidence == 0.95
        vals = [r.acceptance_ratio for r in reports]
        z = statistics.NormalDist().inv_cdf(0.975)
        want_hw = z * statistics.stdev(vals) / len(vals) ** 0.5
        got = agg.metrics["acceptance_ratio"]
        assert got["mean"] == pytest.approx(statistics.fmean(vals), abs=1e-12)
        assert got["half_width"] == pytest.approx(want_hw, abs=1e-12)

    def test_custom_confidence_widens(self, reports):
        hw95 = aggregate(reports).metrics["blocking_ratio"]["half_width"]
        hw99 = aggregate(reports, confidence=0.99).metrics["blocking_ratio"]["half_width"]
        assert hw99 > hw95

    def test_mixed_scenarios_rejected(self, net, reports):
        other = run(net, short_scenario(load=0.6), "p2c-1", 9)
        with pytest.raises(ValueError, match="mix"):
            aggregate(reports + [other])

    def test_mixed_algorithms_rejected(self, net, reports):
        other = run(net, short_scenario(), "p2c-2", 9)
        with pytest.raises(ValueError, match="mix"):
            aggregate(reports + [other])

    def test_json_shape(self, reports):
        doc = aggregate(reports).to_json()
        assert doc["replications"] == 5
        assert "blocking_ratio" in doc["metrics"]
