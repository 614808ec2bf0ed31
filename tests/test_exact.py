"""Exact solvers: branch-and-bound ILP-1/ILP-2 against brute force."""

from __future__ import annotations

import dataclasses
import random

import pytest

from sliceplace.exact import SolveStatus, solve_ilp1, solve_ilp2
from sliceplace.nspr import DEFAULT_CATALOG, SliceClass, make_request
from sliceplace.p2c import OutcomeStatus, Policy
from sliceplace.p2c import place as p2c_place
from sliceplace.placement import bandwidth_cost, check_placement
from sliceplace.topology import TopologyParams, build_reference_psn

from conftest import make_pair, make_single_dc
from oracles import InstanceTooLargeError, brute_force

SHORT_CATALOG = {
    cls: dataclasses.replace(spec, vl_budgets_ms=spec.vl_budgets_ms[:2])
    for cls, spec in DEFAULT_CATALOG.items()
}


def short_request(net, cls: SliceClass, uap_index: int = 0, **kwargs):
    """Three-VNF variant of a class, small enough for brute_force."""
    return make_request(cls, net.uaps[uap_index], catalog=SHORT_CATALOG, **kwargs)


def tiny_instance(seed: int):
    """Random partially loaded two-DC network plus a three-VNF request."""
    rng = random.Random(seed)
    net = make_pair(
        edc_servers=rng.randint(1, 3),
        cdc_servers=rng.randint(1, 3),
        cpu=rng.choice([20.0, 30.0, 50.0]),
        ram=rng.choice([200.0, 300.0]),
        edc_bw=rng.choice([1.0, 2.0, 10.0]),
        km=rng.choice([100, 300]),
    )
    for sid in net.server_ids():
        if rng.random() < 0.5:
            srv = net.server(sid)
            net.allocate(sid, rng.uniform(0, srv.cpu_residual * 0.9), rng.uniform(0, srv.ram_residual * 0.9))
    for lid, link in enumerate(net.links):
        if link.bw_residual is not None and rng.random() < 0.3:
            net.allocate_bw(lid, link.bw_residual * rng.uniform(0, 0.9))
    req = short_request(net, rng.choice(list(SliceClass)))
    return net, req


class TestReferenceOptima:
    def test_urllc_ilp1(self, ref):
        res = solve_ilp1(ref, make_request(SliceClass.URLLC, ref.uaps[0]))
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(2.0)
        assert res.placement.x == {1: 73, 2: 73, 3: 73, 4: 74, 5: 74}
        assert check_placement(ref, make_request(SliceClass.URLLC, ref.uaps[0]), res.placement).ok
        assert res.deepest_feasible_vnf == 5

    def test_bef_colocates_for_free(self, ref):
        res = solve_ilp1(ref, make_request(SliceClass.BEST_EFFORT, ref.uaps[0]))
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == 0.0
        assert len(set(res.placement.x.values())) == 1

    def test_embb_needs_two_servers(self, ref):
        req = make_request(SliceClass.EMBB, ref.uaps[0])
        res = solve_ilp1(ref, req)
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(8.0)
        verdict = check_placement(ref, req, res.placement)
        assert verdict.ok

    def test_urllc_ilp2_first_feasible(self, ref):
        req = make_request(SliceClass.URLLC, ref.uaps[0])
        res = solve_ilp2(ref, req)
        assert res.status is SolveStatus.OPTIMAL
        # root on the lowest-id home-EDC server, then lowest-id feasible
        # servers in ascending order: the parent CDC fills before its sibling.
        assert res.placement.x == {1: 73, 2: 18, 3: 18, 4: 18, 5: 19}
        assert res.objective == pytest.approx(5.0)
        assert check_placement(ref, req, res.placement).ok

    @pytest.mark.parametrize("cls", list(SliceClass))
    def test_ilp2_root_takes_lowest_home_edc_id(self, ref, cls):
        res = solve_ilp2(ref, make_request(cls, ref.uaps[0]))
        assert res.status is SolveStatus.OPTIMAL
        assert res.placement.x[1] == 73


class TestObjectives:
    def test_consumption_matches_bandwidth_cost(self, ref):
        req = make_request(SliceClass.URLLC, ref.uaps[0])
        res = solve_ilp1(ref, req)
        assert res.objective == pytest.approx(bandwidth_cost(req, res.placement))
        assert res.placement.cost == pytest.approx(res.objective)


class TestAgreement:
    @pytest.mark.parametrize("seed", range(60))
    def test_brute_and_solvers_agree(self, seed):
        net, req = tiny_instance(seed)
        b = brute_force(net, req)
        o = solve_ilp1(net, req)
        f = solve_ilp2(net, req)
        assert o.status is b.status
        assert f.status is b.status
        if b.status is not SolveStatus.OPTIMAL:
            assert b.placement is None and o.placement is None and f.placement is None
            return
        assert o.objective == pytest.approx(b.objective, abs=1e-9)
        assert f.objective >= o.objective - 1e-9
        for res in (b, o, f):
            assert check_placement(net, req, res.placement).ok
            assert res.placement.cost == pytest.approx(bandwidth_cost(req, res.placement), abs=1e-9)

    def test_colocated_optimum_is_zero(self):
        net = make_single_dc(servers=1, cpu=200.0, ram=1200.0)
        req = short_request(net, SliceClass.EMBB)
        for solver in (brute_force, solve_ilp1, solve_ilp2):
            res = solver(net, req)
            assert res.status is SolveStatus.OPTIMAL
            assert res.objective == 0.0
            assert len(set(res.placement.x.values())) == 1


class TestInfeasibility:
    def test_access_latency_infeasible(self):
        params = TopologyParams(access_latency_ms=0.05)
        net = make_single_dc(servers=2, params=params)
        req = short_request(net, SliceClass.URLLC)
        for solver in (brute_force, solve_ilp1, solve_ilp2):
            res = solver(net, req)
            assert res.status is SolveStatus.INFEASIBLE
            assert res.placement is None
            assert res.objective is None
            assert res.deepest_feasible_vnf == 0

    def test_midchain_attribution(self):
        # CDC out of latency reach, EDC servers too small for three VNFs:
        # the chain survives through VNF 2 and dies at VNF 3.
        net = make_pair(edc_servers=2, cdc_servers=2, cpu=20.0, km=300)
        req = short_request(net, SliceClass.URLLC)
        for solver in (solve_ilp1, solve_ilp2):
            res = solver(net, req)
            assert res.status is SolveStatus.INFEASIBLE
            assert res.deepest_feasible_vnf == 2
        b = brute_force(net, req)
        assert b.status is SolveStatus.INFEASIBLE
        assert b.deepest_feasible_vnf >= 1

    def test_aggregate_capacity_prunes_at_root(self):
        net = make_single_dc(servers=1, cpu=30.0)
        req = short_request(net, SliceClass.URLLC)
        res = solve_ilp1(net, req)
        assert res.status is SolveStatus.INFEASIBLE
        assert res.deepest_feasible_vnf == 0


class TestBudget:
    def test_node_budget_exhaustion(self, ref):
        req = make_request(SliceClass.URLLC, ref.uaps[0])
        res = solve_ilp1(ref, req, max_nodes=1)
        assert res.status is SolveStatus.BUDGET_EXCEEDED
        assert res.placement is None
        assert res.objective is None
        assert res.nodes_explored >= 1
        assert res.deepest_feasible_vnf >= 1

    def test_unbounded_budget_solves(self, ref):
        req = make_request(SliceClass.URLLC, ref.uaps[0])
        res = solve_ilp1(ref, req, max_nodes=None)
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(2.0)


class TestGuards:
    def test_brute_rejects_large_network(self, ref):
        req = make_request(SliceClass.URLLC, ref.uaps[0])
        with pytest.raises(InstanceTooLargeError):
            brute_force(ref, req)

    def test_brute_rejects_long_chain(self):
        net = make_pair(edc_servers=1, cdc_servers=1)
        req = make_request(SliceClass.URLLC, net.uaps[0])  # five VNFs
        with pytest.raises(InstanceTooLargeError):
            brute_force(net, req)

    def test_brute_limits_adjustable(self):
        net = make_pair(edc_servers=1, cdc_servers=1)
        req = make_request(SliceClass.URLLC, net.uaps[0])  # five VNFs
        res = brute_force(net, req, max_vnfs=5)
        exact = solve_ilp1(net, req)
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(exact.objective, abs=1e-9)


class TestHeuristicDominance:
    @pytest.mark.parametrize("policy", list(Policy))
    def test_p2c_never_beats_ilp1(self, ref, policy):
        import numpy as np

        net = ref.clone()
        rng_np = np.random.default_rng(7)
        rng = random.Random(11)
        accepted = 0
        for i in range(40):
            cls = rng.choice(list(SliceClass))
            req = make_request(cls, net.uaps[rng.randrange(len(net.uaps))], request_id=i)
            exact = solve_ilp1(net, req)
            outcome = p2c_place(net, req, policy, rng_np)
            if outcome.status is OutcomeStatus.ACCEPTED:
                accepted += 1
                assert exact.status is SolveStatus.OPTIMAL
                assert outcome.cost >= exact.objective - 1e-9
        assert accepted >= 20
