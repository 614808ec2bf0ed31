"""Placement model: checker, routing, feasibility rules, commit/rollback."""

from __future__ import annotations

import dataclasses
import heapq
import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceplace.nspr import DEFAULT_CATALOG, SliceClass, make_request
from sliceplace.placement import (
    LATENCY_EPS,
    CONSTRAINT_NAMES,
    MalformedPlacementError,
    Placement,
    apply_placement,
    bandwidth_cost,
    check_placement,
    feasible_servers,
    latency_reach,
    lookahead_ok,
    min_cost_path,
    release_placement,
    root_dcs,
)
from sliceplace.topology import (
    DCKind,
    LinkKind,
    NodeKind,
    PhysicalNetwork,
    Server,
    TopologyParams,
    build_reference_psn,
)

from conftest import drain_dc, make_pair, make_single_dc


def link_id(net: PhysicalNetwork, a: int, b: int) -> int:
    link = net.link_between(a, b)
    assert link is not None, f"no link {a}-{b}"
    return link.id


def servers_of(net: PhysicalNetwork, dc_id: str) -> list[int]:
    return sorted(net.data_centers[dc_id].servers)


def uplink(net: PhysicalNetwork, dc_a: str, dc_b: str) -> int:
    return link_id(net, net.data_centers[dc_a].switch,
                   net.data_centers[dc_b].switch)


class TestConstraintCatalog:
    def test_names(self):
        assert CONSTRAINT_NAMES == {
            1: "vnf-assignment",
            2: "server-cpu",
            3: "server-ram",
            4: "link-bandwidth",
            5: "path-endpoints",
            6: "path-continuity",
            7: "path-simplicity",
            8: "vl-latency",
            9: "access-latency",
            10: "e2e-latency",
        }


class TestChecker:
    def test_colocated_chain_ok(self, ref):
        req = make_request(SliceClass.BEST_EFFORT, ref.uaps[0])
        s = servers_of(ref, "edc0")[0]
        plc = Placement(x={v: s for v in range(1, 6)},
                        y={i: [] for i in range(1, 5)}, cost=0.0)
        verdict = check_placement(ref, req, plc)
        assert verdict.ok and verdict.codes() == set()
        assert bandwidth_cost(req, plc) == 0.0

    def test_same_dc_split_ok(self, ref):
        req = make_request(SliceClass.URLLC, ref.uaps[0])
        s_a, s_b = servers_of(ref, "edc0")[:2]
        sw = ref.data_centers["edc0"].switch
        path = [link_id(ref, s_a, sw), link_id(ref, sw, s_b)]
        plc = Placement(x={1: s_a, 2: s_a, 3: s_a, 4: s_b, 5: s_b},
                        y={1: [], 2: [], 3: path, 4: []}, cost=2.0)
        verdict = check_placement(ref, req, plc)
        assert verdict.ok
        assert bandwidth_cost(req, plc) == 2.0

    def test_cross_dc_ok_and_cost(self, ref):
        req = make_request(SliceClass.URLLC, ref.uaps[0])
        root = servers_of(ref, "edc0")[0]
        c_a, c_b = servers_of(ref, "cdc0")[:2]
        sw_e = ref.data_centers["edc0"].switch
        sw_c = ref.data_centers["cdc0"].switch
        up = [link_id(ref, root, sw_e), link_id(ref, sw_e, sw_c),
              link_id(ref, sw_c, c_a)]
        hop = [link_id(ref, c_a, sw_c), link_id(ref, sw_c, c_b)]
        plc = Placement(x={1: root, 2: c_a, 3: c_a, 4: c_b, 5: c_b},
                        y={1: up, 2: [], 3: hop, 4: []}, cost=5.0)
        verdict = check_placement(ref, req, plc)
        assert verdict.ok
        assert bandwidth_cost(req, plc) == 5.0

    def test_cpu_ram_overload(self, ref):
        req = make_request(SliceClass.URLLC, ref.uaps[0])
        s = servers_of(ref, "edc0")[0]
        plc = Placement(x={v: s for v in range(1, 6)},
                        y={i: [] for i in range(1, 5)}, cost=0.0)
        verdict = check_placement(ref, req, plc)
        # 75 cpu and 450 ram against a 50/300 server
        assert verdict.codes() == {2, 3}

    def test_wrong_path_endpoint(self, ref):
        req = make_request(SliceClass.URLLC, ref.uaps[0])
        s_a, s_b, s_c = servers_of(ref, "edc0")[:3]
        sw = ref.data_centers["edc0"].switch
        stray = [link_id(ref, s_a, sw), link_id(ref, sw, s_c)]
        plc = Placement(x={1: s_a, 2: s_a, 3: s_a, 4: s_b, 5: s_b},
                        y={1: [], 2: [], 3: stray, 4: []}, cost=2.0)
        assert check_placement(ref, req, plc).codes() == {5}

    def test_discontinuous_path(self, ref):
        req = make_request(SliceClass.URLLC, ref.uaps[0])
        root = servers_of(ref, "edc0")[0]
        c_a, c_b = servers_of(ref, "cdc0")[:2]
        sw_e = ref.data_centers["edc0"].switch
        sw_c = ref.data_centers["cdc0"].switch
        torn = [link_id(ref, root, sw_e), link_id(ref, sw_c, c_a)]
        plc = Placement(x={1: root, 2: c_a, 3: c_a, 4: c_b, 5: c_b},
                        y={1: torn, 2: [],
                           3: [link_id(ref, c_a, sw_c), link_id(ref, sw_c, c_b)],
                           4: []}, cost=4.0)
        assert check_placement(ref, req, plc).codes() == {6}

    def test_node_revisit(self, ref):
        req = make_request(SliceClass.URLLC, ref.uaps[0])
        s_a, s_b = servers_of(ref, "edc0")[:2]
        sw = ref.data_centers["edc0"].switch
        l_a, l_b = link_id(ref, s_a, sw), link_id(ref, sw, s_b)
        wander = [l_a, l_b, l_b, l_b]
        plc = Placement(x={1: s_a, 2: s_b, 3: s_b, 4: s_b, 5: s_a},
                        y={1: wander, 2: [], 3: [], 4: [l_b, l_a]}, cost=6.0)
        assert check_placement(ref, req, plc).codes() == {7}

    def test_vl_latency_over_budget(self, ref):
        # CDC-to-CDC mesh hop is 1.0 ms against a 0.33 ms budget
        req = make_request(SliceClass.URLLC, ref.uaps[0])
        root = servers_of(ref, "edc0")[0]
        near = servers_of(ref, "cdc0")[0]
        far = servers_of(ref, "cdc1")[0]
        sw_e = ref.data_centers["edc0"].switch
        sw_0 = ref.data_centers["cdc0"].switch
        sw_1 = ref.data_centers["cdc1"].switch
        plc = Placement(
            x={1: root, 2: near, 3: far, 4: far, 5: far},
            y={1: [link_id(ref, root, sw_e), link_id(ref, sw_e, sw_0),
                   link_id(ref, sw_0, near)],
               2: [link_id(ref, near, sw_0), link_id(ref, sw_0, sw_1),
                   link_id(ref, sw_1, far)],
               3: [], 4: []}, cost=6.0)
        assert check_placement(ref, req, plc).codes() == {8}

    def test_access_latency_violated(self, ref):
        req = make_request(SliceClass.URLLC, ref.uaps[0])
        c_a = servers_of(ref, "cdc0")[0]
        root_back = servers_of(ref, "edc0")[0]
        sw_e = ref.data_centers["edc0"].switch
        sw_c = ref.data_centers["cdc0"].switch
        down = [link_id(ref, c_a, sw_c), link_id(ref, sw_c, sw_e),
                link_id(ref, sw_e, root_back)]
        plc = Placement(x={1: c_a, 2: c_a, 3: c_a, 4: root_back, 5: root_back},
                        y={1: [], 2: [], 3: down, 4: []}, cost=3.0)
        assert check_placement(ref, req, plc).codes() == {9}

    def test_cumulative_e2e_violated(self, ref):
        # per-VL budgets hold but the chain's total exceeds a tight e2e bound
        spec = dataclasses.replace(DEFAULT_CATALOG[SliceClass.URLLC],
                                   e2e_budget_ms=0.5)
        req = make_request(SliceClass.URLLC, ref.uaps[0],
                           catalog={SliceClass.URLLC: spec})
        root, s_b = servers_of(ref, "edc0")[:2]
        near = servers_of(ref, "cdc0")[0]
        sw_e = ref.data_centers["edc0"].switch
        sw_c = ref.data_centers["cdc0"].switch
        up = [link_id(ref, root, sw_e), link_id(ref, sw_e, sw_c),
              link_id(ref, sw_c, near)]
        down = [link_id(ref, near, sw_c), link_id(ref, sw_c, sw_e),
                link_id(ref, sw_e, s_b)]
        plc = Placement(x={1: root, 2: near, 3: s_b, 4: s_b, 5: s_b},
                        y={1: up, 2: down, 3: [], 4: []}, cost=6.0)
        assert check_placement(ref, req, plc).codes() == {10}

    def test_bandwidth_overdraw(self):
        net = build_reference_psn()
        req = make_request(SliceClass.URLLC, net.uaps[0])
        root = servers_of(net, "edc0")[0]
        c_a, c_b = servers_of(net, "cdc0")[:2]
        sw_e = net.data_centers["edc0"].switch
        sw_c = net.data_centers["cdc0"].switch
        up = uplink(net, "cdc0", "edc0")
        net.allocate_bw(up, 9.5)
        plc = Placement(
            x={1: root, 2: c_a, 3: c_a, 4: c_b, 5: c_b},
            y={1: [link_id(net, root, sw_e), up, link_id(net, sw_c, c_a)],
               2: [],
               3: [link_id(net, c_a, sw_c), link_id(net, sw_c, c_b)],
               4: []}, cost=5.0)
        assert check_placement(net, req, plc).codes() == {4}

    def test_access_link_cannot_carry_traffic(self, ref):
        req = make_request(SliceClass.URLLC, ref.uaps[0])
        root = servers_of(ref, "edc0")[0]
        near = servers_of(ref, "cdc0")[0]
        acc = ref.adj[ref.uaps[0]][0][1]
        plc = Placement(
            x={1: root, 2: near, 3: near, 4: near, 5: near},
            y={1: [acc, uplink(ref, "cdc0", "edc0"),
                   link_id(ref, near, ref.data_centers["cdc0"].switch)],
               2: [], 3: [], 4: []}, cost=3.0)
        assert 4 in check_placement(ref, req, plc).codes()

    def test_missing_vnf_assignment(self, ref):
        req = make_request(SliceClass.URLLC, ref.uaps[0])
        s_a, s_b = servers_of(ref, "edc0")[:2]
        sw = ref.data_centers["edc0"].switch
        raw = {"x": {1: s_a, 2: s_a, 4: s_b, 5: s_b},
               "y": {1: [], 2: [],
                     3: [link_id(ref, s_a, sw), link_id(ref, sw, s_b)], 4: []}}
        assert check_placement(ref, req, raw).codes() == {1}

    def test_split_vnf_assignment(self, ref):
        req = make_request(SliceClass.URLLC, ref.uaps[0])
        s_a, s_b = servers_of(ref, "edc0")[:2]
        sw = ref.data_centers["edc0"].switch
        raw = {"x": {1: s_a, 2: s_a, 3: [s_a, s_b], 4: s_b, 5: s_b},
               "y": {1: [], 2: [],
                     3: [link_id(ref, s_a, sw), link_id(ref, sw, s_b)], 4: []}}
        assert 1 in check_placement(ref, req, raw).codes()

    def test_unknown_server_is_malformed(self, ref):
        req = make_request(SliceClass.URLLC, ref.uaps[0])
        plc = Placement(x={v: 10 ** 6 for v in range(1, 6)},
                        y={i: [] for i in range(1, 5)}, cost=0.0)
        with pytest.raises(MalformedPlacementError):
            check_placement(ref, req, plc)

    def test_verdict_json(self, ref):
        req = make_request(SliceClass.URLLC, ref.uaps[0])
        s = servers_of(ref, "edc0")[0]
        plc = Placement(x={v: s for v in range(1, 6)},
                        y={i: [] for i in range(1, 5)}, cost=0.0)
        doc = check_placement(ref, req, plc).to_json()
        assert doc["ok"] is False
        codes = {v["constraint"] for v in doc["violations"]}
        assert codes == {2, 3}
        for v in doc["violations"]:
            assert v["name"] == CONSTRAINT_NAMES[v["constraint"]]
            assert isinstance(v["detail"], str) and v["detail"]


class TestPlacementSerialization:
    def test_roundtrip(self, ref):
        s_a, s_b = servers_of(ref, "edc0")[:2]
        sw = ref.data_centers["edc0"].switch
        plc = Placement(x={1: s_a, 2: s_a, 3: s_a, 4: s_b, 5: s_b},
                        y={1: [], 2: [],
                           3: [link_id(ref, s_a, sw), link_id(ref, sw, s_b)],
                           4: []}, cost=2.0)
        doc = plc.to_json(ref)
        # endpoint pairs keep the link's stored orientation
        assert doc["y"]["3"] == [[sw, s_a], [sw, s_b]]
        assert Placement.from_json(ref, doc) == plc
        # survives a JSON text round-trip as well
        assert Placement.from_json(ref, json.loads(json.dumps(doc))) == plc

    def test_from_json_rejects_unknown_link(self, ref):
        s_a, s_b = servers_of(ref, "edc0")[:2]
        doc = {"x": {str(v): s_a for v in range(1, 6)},
               "y": {"1": [], "2": [], "3": [[s_a, s_b]], "4": []},
               "cost": 0.0}
        with pytest.raises(MalformedPlacementError):
            Placement.from_json(ref, doc)

    def test_from_json_rejects_split_assignment(self, ref):
        s_a, s_b = servers_of(ref, "edc0")[:2]
        doc = {"x": {"1": [s_a, s_b], "2": s_a, "3": s_a, "4": s_a, "5": s_a},
               "y": {str(i): [] for i in range(1, 5)}, "cost": 0.0}
        with pytest.raises(MalformedPlacementError):
            Placement.from_json(ref, doc)


class TestMinCostPath:
    def test_same_server_empty(self, ref):
        s = servers_of(ref, "edc0")[0]
        assert min_cost_path(ref, s, s, 1.0, 0.0) == []

    def test_same_dc_two_links(self, ref):
        s_a, s_b = servers_of(ref, "edc0")[:2]
        path = min_cost_path(ref, s_a, s_b, 1.0, 0.33)
        assert path is not None and len(path) == 2
        assert sum(ref.link(l).latency_ms for l in path) == 0.0

    def test_cross_dc_three_links(self, ref):
        s_a = servers_of(ref, "edc0")[0]
        s_c = servers_of(ref, "cdc0")[0]
        path = min_cost_path(ref, s_a, s_c, 1.0, 0.33)
        assert path is not None and len(path) == 3
        assert sum(ref.link(l).latency_ms for l in path) == 0.33

    def test_budget_prunes(self, ref):
        s_a = servers_of(ref, "edc0")[0]
        s_p = servers_of(ref, "ccp0")[0]
        assert min_cost_path(ref, s_a, s_p, 1.0, 0.33) is None
        path = min_cost_path(ref, s_a, s_p, 1.0, 1.35)
        assert path is not None and len(path) == 4
        assert sum(ref.link(l).latency_ms for l in path) == pytest.approx(1.33)

    def test_saturated_link_blocks(self):
        net = make_pair()
        s_e = servers_of(net, "edc0")[0]
        s_c = servers_of(net, "cdc0")[0]
        up = uplink(net, "edc0", "cdc0")
        net.allocate_bw(up, 9.5)
        assert min_cost_path(net, s_e, s_c, 1.0, 1.0) is None
        assert min_cost_path(net, s_e, s_c, 0.5, 1.0) is not None

    def test_never_routes_through_access_links(self, ref):
        s_a = servers_of(ref, "edc0")[0]
        for dc_id in ("cdc0", "ccp0", "edc1"):
            target = servers_of(ref, dc_id)[0]
            path = min_cost_path(ref, s_a, target, 1.0, 5.0)
            assert path is not None
            assert all(ref.link(l).kind != LinkKind.ACCESS for l in path)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_graph_equivalence(self, seed):
        """Feasibility agrees with exhaustive enumeration; results are valid."""
        rnd = random.Random(seed)
        params = TopologyParams()
        net = PhysicalNetwork(params)
        n_dc = rnd.randint(2, 4)
        kinds = [DCKind.EDC, DCKind.CDC, DCKind.CCP]
        for d in range(n_dc):
            kind = rnd.choice(kinds)
            dc = net.add_data_center(f"dc{d}", kind)
            for i in range(rnd.randint(1, 2)):
                sid = net.add_server(f"dc{d}-s{i}", f"dc{d}", 50, 300)
                net.add_link(dc.switch, sid, 0.0, LinkKind.INTRA_DC,
                             rnd.choice([1.0, 5.0, 10.0]))
        switches = [dc.switch for dc in net.data_centers.values()]
        for i in range(len(switches)):
            for j in range(i + 1, len(switches)):
                if rnd.random() < 0.7:
                    km = rnd.choice([50, 100, 200, 300])
                    net.add_link(switches[i], switches[j],
                                 params.link_latency_ms(km),
                                 LinkKind.TRANSPORT,
                                 rnd.choice([0.5, 1.0, 10.0]))
        g = nx.Graph()
        for link in net.links:
            g.add_edge(link.a, link.b, lid=link.id,
                       lat=link.latency_ms, bw=link.bw_residual)
        servers = net.server_ids()
        for _ in range(30):
            src, dst = rnd.sample(servers, 2) if len(servers) > 1 else (servers[0],) * 2
            bw = rnd.choice([0.5, 1.0, 2.0])
            budget = rnd.choice([0.33, 0.67, 1.0, 2.0])
            got = min_cost_path(net, src, dst, bw, budget)
            feasible = []
            if src in g and dst in g:
                for nodes in nx.all_simple_paths(g, src, dst, cutoff=8):
                    edges = list(zip(nodes, nodes[1:]))
                    if all(g[a][b]["bw"] >= bw for a, b in edges) and \
                       sum(g[a][b]["lat"] for a, b in edges) <= budget + LATENCY_EPS:
                        feasible.append(edges)
            if src == dst:
                assert got == []
                continue
            if not feasible:
                assert got is None
            else:
                assert got is not None
                lat = sum(net.link(l).latency_ms for l in got)
                assert lat <= budget + LATENCY_EPS
                assert all(net.link(l).bw_residual >= bw for l in got)
                walk_ok = _is_walk(net, src, dst, got)
                assert walk_ok
                best = min(len(e) for e in feasible)
                # min-hop when the hop-optimal route fits, otherwise a
                # latency-optimal route that can only be longer
                assert len(got) >= best


def _is_walk(net: PhysicalNetwork, src: int, dst: int, links: list[int]) -> bool:
    at = src
    seen = {src}
    for lid in links:
        link = net.link(lid)
        if at not in (link.a, link.b):
            return False
        at = link.other(at)
        if at in seen:
            return False
        seen.add(at)
    return at == dst


class TestLatencyReach:
    def test_reach_tiers(self, ref):
        s = servers_of(ref, "edc0")[0]
        reach = latency_reach(ref, s, 1.0, 0.33)
        servers = {nid for nid in reach if ref.nodes[nid].kind == NodeKind.SERVER}
        assert servers == set(servers_of(ref, "edc0")) | set(servers_of(ref, "cdc0"))
        assert reach[s] == 0.0

    def test_larger_budget_reaches_ccp(self, ref):
        s = servers_of(ref, "edc0")[0]
        reach = latency_reach(ref, s, 1.0, 1.33)
        assert set(servers_of(ref, "ccp0")) <= set(reach)

    def test_bw_filter(self):
        net = make_pair()
        s = servers_of(net, "edc0")[0]
        net.allocate_bw(uplink(net, "edc0", "cdc0"), 9.5)
        reach = latency_reach(net, s, 1.0, 10.0)
        assert not set(servers_of(net, "cdc0")) & set(reach)


class TestFeasibleServers:
    def test_root_restricted_to_home_edc(self, ref):
        for cls in SliceClass:
            req = make_request(cls, ref.uaps[0])
            assert feasible_servers(ref, req, 1, None) == servers_of(ref, "edc0")

    def test_root_respects_other_uaps(self, ref):
        req = make_request(SliceClass.URLLC, ref.uaps[7])
        assert feasible_servers(ref, req, 1, None) == servers_of(ref, "edc7")

    def test_drained_home_means_no_root(self):
        net = build_reference_psn()
        drain_dc(net, "edc0")
        req = make_request(SliceClass.URLLC, net.uaps[0])
        assert feasible_servers(net, req, 1, None) == []

    def test_interior_home_plus_parent(self):
        net = build_reference_psn()
        req = make_request(SliceClass.URLLC, net.uaps[0])
        root = servers_of(net, "edc0")[0]
        net.allocate(root, 15, 90)
        got = feasible_servers(net, req, 2, root, used_e2e_ms=0.02)
        assert set(got) == set(servers_of(net, "edc0")) | set(servers_of(net, "cdc0"))

    def test_interior_from_cdc_sees_children(self):
        net = build_reference_psn()
        req = make_request(SliceClass.URLLC, net.uaps[0])
        anchor = servers_of(net, "cdc0")[0]
        net.allocate(anchor, 15, 90)
        got = set(feasible_servers(net, req, 3, anchor, used_e2e_ms=0.35))
        expect = set(servers_of(net, "cdc0"))
        for edc in ("edc0", "edc1", "edc2"):
            expect |= set(servers_of(net, edc))
        assert got == expect

    def test_exhausted_e2e_confines_to_dc(self):
        net = build_reference_psn()
        req = make_request(SliceClass.URLLC, net.uaps[0])
        anchor = servers_of(net, "cdc0")[0]
        # nothing left of the 1.35 ms end-to-end budget for another hop
        got = set(feasible_servers(net, req, 3, anchor, used_e2e_ms=1.30))
        assert got == set(servers_of(net, "cdc0"))

    def test_tail_vnf_skips_lookahead(self):
        net = make_pair(edc_servers=1, cdc_servers=1)
        req = make_request(SliceClass.URLLC, net.uaps[0])
        root = servers_of(net, "edc0")[0]
        other = servers_of(net, "cdc0")[0]
        # room for exactly one more vnf on the anchor
        net.allocate(root, 35, 210)
        assert root in feasible_servers(net, req, 5, root, used_e2e_ms=0.02)

    def test_interior_lookahead_via_attachment_link(self):
        net = make_pair(edc_servers=1, cdc_servers=1)
        req = make_request(SliceClass.URLLC, net.uaps[0])
        root = servers_of(net, "edc0")[0]
        sw_e = net.data_centers["edc0"].switch
        # fits v2 only; eligible because its attachment link can carry VL(2,3)
        net.allocate(root, 21, 130)
        assert root in feasible_servers(net, req, 2, root, used_e2e_ms=0.02)
        # saturate that link: the anchor can no longer hand off VNF 3
        net.allocate_bw(link_id(net, root, sw_e), 9.5)
        assert root not in feasible_servers(net, req, 2, root, used_e2e_ms=0.02)

    def test_interior_lookahead_by_capacity(self):
        net = make_pair(edc_servers=1, cdc_servers=1)
        req = make_request(SliceClass.URLLC, net.uaps[0])
        root = servers_of(net, "edc0")[0]
        sw_e = net.data_centers["edc0"].switch
        net.allocate(root, 15, 90)
        net.allocate_bw(link_id(net, root, sw_e), 9.5)
        # attachment link saturated but the server can absorb both v2 and v3
        assert root in feasible_servers(net, req, 2, root, used_e2e_ms=0.02)


def plain_reach(net: PhysicalNetwork, src: int, bw: float,
                budget_ms: float) -> dict[int, float]:
    """Reference Dijkstra for latency_reach: every reached node is pushed."""
    dist = {src: 0.0}
    pq = [(0.0, src)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist[u]:
            continue
        for v, lid in net.adj[u]:
            link = net.links[lid]
            if link.bw_residual is None or link.bw_residual < bw:
                continue
            nd = d + link.latency_ms
            if nd <= budget_ms + LATENCY_EPS and nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(pq, (nd, v))
    return dist


def plain_hop_path(net: PhysicalNetwork, src: int, dst: int, bw: float) -> list[int] | None:
    """Reference for min_cost_path's first stage: BFS that expands every
    node, leaves included, in ascending id order."""
    parent = {src: (-1, -1)}
    level = [src]
    while level:
        nxt = []
        for u in sorted(level):
            for v, lid in sorted(net.adj[u]):
                r = net.links[lid].bw_residual
                if v in parent or r is None or r < bw:
                    continue
                parent[v] = (u, lid)
                if v == dst:
                    path = []
                    while v != src:
                        v, lid = parent[v]
                        path.append(lid)
                    return path[::-1]
                nxt.append(v)
        level = nxt
    return None


def scan_feasible_servers(net: PhysicalNetwork, request, v: int, last_s: int | None,
                          used_e2e_ms: float) -> list[int]:
    """Reference eligibility: the rule of `feasible_servers` applied to every
    server of the network in id order."""
    d_v = request.vnf(v)
    ok = lookahead_ok(net, request, v)
    servers = [n for n in net.nodes if isinstance(n, Server)]
    if v == 1:
        ok_dcs = root_dcs(net, request)
        return [s.id for s in servers if s.dc in ok_dcs and ok(s)]
    vl = request.vl(v - 1)
    eff_budget = min(vl.budget_ms, request.e2e_budget_ms - used_e2e_ms)
    reach = plain_reach(net, last_s, vl.bw, eff_budget)
    last_dc = net.nodes[last_s].dc
    out = []
    for srv in servers:
        if srv.id == last_s:
            if ok(srv):
                out.append(srv.id)
            continue
        if reach.get(srv.id, float("inf")) > eff_budget + LATENCY_EPS:
            continue
        if srv.dc == last_dc:
            if ok(srv):
                out.append(srv.id)
        elif srv.fits(d_v.cpu, d_v.ram):
            out.append(srv.id)
    return out


_LATENCIES = [0.0, 0.1, 0.33, 0.5, 1.0]
_BWS = [0.5, 1.0, 2.0, 10.0]


@st.composite
def loaded_substrates(draw):
    """Small substrates of star DCs plus random extra links, so that some
    servers have two or more links; servers and links are partly loaded and
    some links are too thin for any demand."""
    net = PhysicalNetwork(TopologyParams())
    kinds = list(DCKind)
    unlinked = []
    for d in range(draw(st.integers(1, 4))):
        dc = net.add_data_center(f"dc{d}", draw(st.sampled_from(kinds)))
        for i in range(draw(st.integers(1, 3))):
            sid = net.add_server(f"dc{d}-s{i}", f"dc{d}", 50.0, 300.0)
            if draw(st.integers(0, 5)):  # an occasional server has no uplink
                net.add_link(dc.switch, sid, 0.0, LinkKind.INTRA_DC,
                             draw(st.sampled_from(_BWS)))
            else:
                unlinked.append(sid)
    switches = [dc.switch for dc in net.data_centers.values()]
    for sid in unlinked:
        if draw(st.booleans()):  # or one with latency, to any switch
            net.add_link(draw(st.sampled_from(switches)), sid,
                         draw(st.sampled_from(_LATENCIES)), LinkKind.TRANSPORT,
                         draw(st.sampled_from(_BWS)))
    for i, a in enumerate(switches):
        for b in switches[i + 1:]:
            if draw(st.booleans()):
                net.add_link(a, b, draw(st.sampled_from(_LATENCIES)),
                             LinkKind.TRANSPORT, draw(st.sampled_from(_BWS)))
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.lists(st.integers(0, len(net.nodes) - 1),
                             min_size=2, max_size=2, unique=True))
        net.add_link(a, b, draw(st.sampled_from(_LATENCIES)),
                     LinkKind.TRANSPORT, draw(st.sampled_from(_BWS)))
    for u in range(draw(st.integers(1, 2))):
        uap = net.add_node(f"uap{u}", NodeKind.UAP)
        net.add_link(uap, draw(st.sampled_from(switches)),
                     draw(st.sampled_from([0.02, 0.05, 0.1])), LinkKind.ACCESS, None)
        net.uaps.append(uap)
    if draw(st.booleans()):  # load through the residual vectors' write path
        net.vectors()
    for srv in net.servers():
        cpu = draw(st.sampled_from([0.0, 10.0, 20.0, 30.0, 40.0, 50.0]))
        net.allocate(srv.id, cpu, cpu * 6)
    for link in net.links:
        if link.bw_capacity is not None:
            net.allocate_bw(link.id, link.bw_capacity * draw(st.sampled_from([0.0, 0.5, 1.0])))
    return net


class TestReachBoundedEligibility:
    """`feasible_servers` tests only what `latency_reach` reaches and the
    searches skip leaves; results must equal those of the full scans."""

    @settings(max_examples=150, deadline=None)
    @given(loaded_substrates(), st.data())
    def test_matches_all_server_scan(self, net, data):
        request = make_request(data.draw(st.sampled_from(list(SliceClass))),
                               data.draw(st.sampled_from(net.uaps)))
        # unequal VL demands: reaching a server then says nothing about
        # whether its links can carry the next VL
        request = dataclasses.replace(request, vls=tuple(
            dataclasses.replace(vl, bw=data.draw(st.sampled_from([0.5, 1.0, 2.0])))
            for vl in request.vls))
        assert feasible_servers(net, request, 1, None) == \
               scan_feasible_servers(net, request, 1, None, 0.0)
        servers = net.server_ids()
        for v in range(2, request.n_vnfs + 1):
            last_s = data.draw(st.sampled_from(servers))
            # beyond the end-to-end budget the slack turns negative
            used = data.draw(st.sampled_from([0.0, 0.02, 0.7, 1.3,
                                              request.e2e_budget_ms + 0.5]))
            got = feasible_servers(net, request, v, last_s, used_e2e_ms=used)
            assert got == scan_feasible_servers(net, request, v, last_s, used)

    @settings(max_examples=150, deadline=None)
    @given(loaded_substrates(), st.data())
    def test_reach_matches_plain_dijkstra(self, net, data):
        src = data.draw(st.integers(0, len(net.nodes) - 1))
        bw = data.draw(st.sampled_from([0.0] + _BWS))
        budget = data.draw(st.sampled_from([-0.5, 0.0, 0.1, 0.33, 1.0, 5.0]))
        assert latency_reach(net, src, bw, budget) == plain_reach(net, src, bw, budget)

    @settings(max_examples=150, deadline=None)
    @given(loaded_substrates(), st.data())
    def test_hop_path_matches_plain_bfs(self, net, data):
        src, dst = data.draw(st.lists(st.integers(0, len(net.nodes) - 1),
                                      min_size=2, max_size=2, unique=True))
        bw = data.draw(st.sampled_from([0.0] + _BWS))
        # with no latency limit the minimum-hop path always wins
        assert min_cost_path(net, src, dst, bw, float("inf")) == \
               plain_hop_path(net, src, dst, bw)

    def test_servers_without_exactly_one_link(self):
        net = make_pair(edc_servers=3, cdc_servers=2)
        req = make_request(SliceClass.BEST_EFFORT, net.uaps[0])
        e0, e1, e2 = servers_of(net, "edc0")
        c0, _ = servers_of(net, "cdc0")
        sw_e = net.data_centers["edc0"].switch
        loose = net.add_server("edc0-s99", "edc0", 50.0, 300.0)  # no link at all
        far = net.add_server("cdc0-s99", "cdc0", 50.0, 300.0)  # one link, 0.5 ms long
        net.add_link(sw_e, far, 0.5, LinkKind.TRANSPORT, 10.0)
        net.add_link(e1, c0, 0.0, LinkKind.TRANSPORT, 10.0)  # e1 and c0 have two
        net.add_link(e2, net.data_centers["cdc0"].switch, 0.5, LinkKind.TRANSPORT, 1.0)
        net.allocate_bw(link_id(net, e1, sw_e), 9.5)
        net.allocate(e0, 45.0, 10.0)
        assert sorted(net.vectors().multi) == sorted(
            net.vectors().pos[s] for s in (e1, e2, c0))
        assert feasible_servers(net, req, 1, None) == scan_feasible_servers(net, req, 1, None, 0.0)
        e2e = req.e2e_budget_ms
        for v in range(2, req.n_vnfs + 1):
            for last_s in net.server_ids():
                for used in (0.0, 0.02, 1.0, e2e - 0.6, e2e - 0.4):
                    got = feasible_servers(net, req, v, last_s, used_e2e_ms=used)
                    assert got == scan_feasible_servers(net, req, v, last_s, used)
        assert loose in feasible_servers(net, req, 2, loose, used_e2e_ms=0.02)
        assert loose not in feasible_servers(net, req, 2, e0, used_e2e_ms=0.02)

    def test_unreachable_last_s(self):
        net = make_pair()
        req = make_request(SliceClass.URLLC, net.uaps[0])
        anchor = servers_of(net, "edc0")[0]
        sw = net.data_centers["edc0"].switch
        net.allocate_bw(link_id(net, anchor, sw), 10.0)
        assert latency_reach(net, anchor, 1.0, 5.0) == {anchor: 0.0}
        got = feasible_servers(net, req, 2, anchor, used_e2e_ms=0.02)
        assert got == [anchor] == scan_feasible_servers(net, req, 2, anchor, 0.02)


class TestApplyRelease:
    def test_apply_then_release_restores(self, ref):
        net = ref.clone()
        before = net.snapshot()
        req = make_request(SliceClass.URLLC, net.uaps[0])
        root = servers_of(net, "edc0")[0]
        c_a, c_b = servers_of(net, "cdc0")[:2]
        sw_e = net.data_centers["edc0"].switch
        sw_c = net.data_centers["cdc0"].switch
        up = [link_id(net, root, sw_e), link_id(net, sw_e, sw_c),
              link_id(net, sw_c, c_a)]
        hop = [link_id(net, c_a, sw_c), link_id(net, sw_c, c_b)]
        plc = Placement(x={1: root, 2: c_a, 3: c_a, 4: c_b, 5: c_b},
                        y={1: up, 2: [], 3: hop, 4: []}, cost=5.0)
        apply_placement(net, req, plc)
        assert net.server(root).cpu_residual == 35.0
        assert net.server(c_a).cpu_residual == 20.0
        assert net.server(c_b).cpu_residual == 20.0
        assert net.link(up[1]).bw_residual == 9.0
        # VL2 is colocated and VL3 stays inside the CDC: uplink carries one VL
        assert net.link(link_id(net, sw_c, c_a)).bw_residual == 100.0 - 2.0
        release_placement(net, req, plc)
        after = net.snapshot()
        assert before.server_cpu == after.server_cpu
        assert before.server_ram == after.server_ram
        assert before.link_bw == after.link_bw

    def test_apply_is_atomic(self, ref):
        net = ref.clone()
        req = make_request(SliceClass.URLLC, net.uaps[0])
        root, s_b = servers_of(net, "edc0")[:2]
        # s_b cannot take two URLLC vnfs once drained below demand
        net.allocate(s_b, 45, 270)
        before = net.snapshot()
        sw = net.data_centers["edc0"].switch
        path = [link_id(net, root, sw), link_id(net, sw, s_b)]
        plc = Placement(x={1: root, 2: root, 3: root, 4: s_b, 5: s_b},
                        y={1: [], 2: [], 3: path, 4: []}, cost=2.0)
        with pytest.raises(Exception):
            apply_placement(net, req, plc)
        after = net.snapshot()
        assert before.server_cpu == after.server_cpu
        assert before.server_ram == after.server_ram
        assert before.link_bw == after.link_bw
