"""Placement model: checker, routing, feasibility rules, commit/rollback."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import random
from array import array

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceplace import placement
from sliceplace.nspr import (DEFAULT_CATALOG, SliceClass, SliceRequest, VlDemand, VnfDemand,
                             make_request)
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
    lookahead_rule,
    lookahead_units,
    min_cost_path,
    release_placement,
)
from sliceplace.topology import (
    SCALE,
    CapacityError,
    DCKind,
    LinkKind,
    NodeKind,
    PhysicalNetwork,
    ReleaseError,
    Server,
    TopologyParams,
    build_reference_psn,
)

from conftest import drain_dc, make_pair, make_single_dc
from oracles import (LINK_BWS, LINK_LATENCIES, loaded_substrates, lookahead,
                     narrow_to_best_tier, per_vnf_writes, plain_hop_path,
                     plain_min_cost_path, plain_reach, residual_bytes,
                     scan_feasible_servers)


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

    def test_colocated_vnfs_with_a_path(self, ref):
        req = make_request(SliceClass.URLLC, ref.uaps[0])
        s_a, s_b = servers_of(ref, "edc0")[:2]
        sw = ref.data_centers["edc0"].switch
        # VL 1 goes out to s_b and back while VNFs 1 and 2 share s_a
        plc = Placement(x={v: s_a for v in range(1, 6)},
                        y={1: [link_id(ref, s_a, sw), link_id(ref, sw, s_b),
                               link_id(ref, s_b, sw), link_id(ref, sw, s_a)],
                           2: [], 3: [], 4: []})
        verdict = check_placement(ref, req, plc)
        assert (5, "VL 1: colocated VNFs but non-empty path") in verdict.violations

    def test_distinct_servers_with_an_empty_path(self, ref):
        req = make_request(SliceClass.URLLC, ref.uaps[0])
        s_a, s_b = servers_of(ref, "edc0")[:2]
        plc = Placement(x={1: s_a, 2: s_a, 3: s_a, 4: s_b, 5: s_b},
                        y={1: [], 2: [], 3: [], 4: []})
        verdict = check_placement(ref, req, plc)
        assert verdict.violations == [(5, "VL 3: distinct servers but empty path")]

    @pytest.mark.parametrize("x", [{"1": 0, "01": 0}, {"1_0": 0}, {" 1": 0}, {True: 0},
                                   {1: 0, "1": 0}, {1.0: 0}])
    def test_indices_read_once_in_both_forms(self, ref, x):
        """An index must be an integer or its canonical decimal string, and
        name its VNF once, whether in a document or in a Placement: int()
        would read "01" as 1 and "1_0" as 10."""
        req = make_request(SliceClass.URLLC, ref.uaps[0])
        s = servers_of(ref, "edc0")[0]
        x = {k: s for k in x}
        for plc in ({"x": x, "y": {}}, Placement(x=x, y={})):
            with pytest.raises(MalformedPlacementError):
                check_placement(ref, req, plc)
        for y in ({"1": [], "01": []}, {"1_0": []}):
            for plc in ({"x": {}, "y": y}, Placement(x={}, y=y)):
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
        # the checker reads the document back as the placement, also after
        # a JSON text round-trip
        for read in (doc, json.loads(json.dumps(doc))):
            assert placement._coerce_raw(ref, read) == (
                {v: (s,) for v, s in plc.x.items()}, plc.y)

    def test_document_with_unknown_link_is_malformed(self, ref):
        s_a, s_b = servers_of(ref, "edc0")[:2]
        doc = {"x": {str(v): s_a for v in range(1, 6)},
               "y": {"1": [], "2": [], "3": [[s_a, s_b]], "4": []},
               "cost": 0.0}
        with pytest.raises(MalformedPlacementError):
            check_placement(ref, make_request(SliceClass.URLLC, ref.uaps[0]), doc)


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

    def test_latency_fallback_breaks_ties_by_node_id(self):
        """The hop-shortest route is over budget, so the minimum-latency
        search decides between two equal-latency routes, via routers r1 <
        r2. r2's links come first, so a node's neighbours in link order put
        r2 first; the search takes r1's route however they are listed."""
        net = PhysicalNetwork(TopologyParams())
        ends = []
        for d in range(2):
            dc = net.add_data_center(f"dc{d}", DCKind.CDC)
            sid = net.add_server(f"dc{d}-s0", f"dc{d}", 50, 300)
            ends.append((sid, net.add_link(dc.switch, sid, 0.0, LinkKind.INTRA_DC, 10.0)))
        (src, src_up), (dst, dst_up) = ends
        a, b = (net.data_centers[f"dc{d}"].switch for d in range(2))
        net.add_link(a, b, 1.0, LinkKind.TRANSPORT, 10.0)
        r1, r2 = (net.add_node(f"r{k}", NodeKind.ROUTER) for k in (1, 2))
        via = {r: [net.add_link(a, r, 0.1, LinkKind.TRANSPORT, 10.0),
                   net.add_link(r, b, 0.1, LinkKind.TRANSPORT, 10.0)] for r in (r2, r1)}
        assert len(min_cost_path(net, src, dst, 1.0, 5.0)) == 3
        assert min_cost_path(net, src, dst, 1.0, 0.5) == [src_up, *via[r1], dst_up]
        assert min_cost_path(net, dst, src, 1.0, 0.5) == [dst_up, via[r1][1], via[r1][0], src_up]

    def test_hop_search_expands_each_level_in_id_order(self):
        """Routers s < a < b < y < x < t: the second level is found as
        [x, y] (a is expanded before b), and t lies next to both. Expanding
        the level in ascending id order reaches t from y."""
        net = PhysicalNetwork(TopologyParams())
        s, a, b, y, x, t = (net.add_node(f"r{k}", NodeKind.ROUTER) for k in range(6))
        lid = {pair: net.add_link(*pair, 0.0, LinkKind.TRANSPORT, 10.0)
               for pair in ((s, a), (s, b), (a, x), (b, y), (x, t), (y, t))}
        assert min_cost_path(net, s, t, 1.0, 5.0) == [lid[s, b], lid[b, y], lid[y, t]]

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
                       lat=link.latency_ms, bw=net.bw_residual(link.id))
        servers = [s.id for s in net.servers()]
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
                assert all(net.bw_residual(l) >= bw for l in got)
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


class TestSameSwitchPath:
    """`min_cost_path`'s closed form: two servers behind one switch are
    joined by their two uplinks, or by nothing."""

    LAT = 0.33  # every uplink's latency

    def star(self, bws=(10.0, 10.0, 10.0)):
        net = PhysicalNetwork(TopologyParams())
        dc = net.add_data_center("dc0", DCKind.EDC)
        ids, ups = [], []
        for i, bw in enumerate(bws):
            ids.append(net.add_server(f"dc0-s{i}", "dc0", 50.0, 300.0))
            ups.append(net.add_link(dc.switch, ids[-1], self.LAT, LinkKind.TRANSPORT, bw))
        return net, ids, ups

    def test_both_uplinks_within_the_budget(self):
        net, (a, b, _), (up_a, up_b, _) = self.star()
        twice = 0.0 + self.LAT + self.LAT
        assert min_cost_path(net, a, b, 1.0, twice) == [up_a, up_b]
        assert min_cost_path(net, b, a, 1.0, twice) == [up_b, up_a]
        assert min_cost_path(net, a, b, 1.0, twice - 0.01) is None
        assert min_cost_path(net, a, b, 1.0, twice - 2 * LATENCY_EPS) is None

    def test_at_the_budget_the_search_is_not_entered(self, monkeypatch):
        """A path whose latency equals the budget plus LATENCY_EPS fits,
        and the closed form decides it: the search reads the structure
        index, which this network refuses."""
        net, (a, b, _), (up_a, up_b, _) = self.star()
        twice = 0.0 + self.LAT + self.LAT
        budget = twice - LATENCY_EPS
        assert budget + LATENCY_EPS == twice  # the boundary itself

        def refused():
            raise AssertionError("the search ran")
        monkeypatch.setattr(net, "index", refused)
        assert min_cost_path(net, a, b, 1.0, budget) == [up_a, up_b]

    @pytest.mark.parametrize("short", [0, 1])
    def test_either_uplink_short_of_bw(self, short):
        bws = [10.0, 10.0, 10.0]
        bws[short] = 0.5
        net, (a, b, _), _ = self.star(bws)
        assert min_cost_path(net, a, b, 1.0, 5.0) is None
        assert min_cost_path(net, b, a, 1.0, 5.0) is None
        assert min_cost_path(net, a, b, 0.5, 5.0) is not None


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
            assert list(feasible_servers(ref, req, 1, None)) == servers_of(ref, "edc0")

    def test_root_respects_other_uaps(self, ref):
        req = make_request(SliceClass.URLLC, ref.uaps[7])
        assert list(feasible_servers(ref, req, 1, None)) == servers_of(ref, "edc7")

    def test_drained_home_means_no_root(self):
        net = build_reference_psn()
        drain_dc(net, "edc0")
        req = make_request(SliceClass.URLLC, net.uaps[0])
        assert list(feasible_servers(net, req, 1, None)) == []

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


def add_dc_less_server(net: PhysicalNetwork, data) -> None:
    """A server outside any data center, linked to one or two random nodes.
    `validate` rejects such a network and no builder makes one, but the
    index ranks it below every tier."""
    sid = len(net.nodes)
    cpu = data.draw(st.sampled_from([0.0, 20.0, 50.0]))
    net._append(Server(id=sid, label="loose", kind=NodeKind.SERVER,
                       cpu_capacity=50.0, ram_capacity=300.0),
                round(cpu * SCALE), round(6 * cpu * SCALE))
    for nbr in data.draw(st.lists(st.integers(0, sid - 1), min_size=1, max_size=2,
                                  unique=True)):
        net.add_link(nbr, sid, data.draw(st.sampled_from(LINK_LATENCIES)),
                     LinkKind.TRANSPORT, data.draw(st.sampled_from(LINK_BWS)))


@contextlib.contextmanager
def short_slice(width: int):
    """`placement.SHORT_SLICE` set to width: at 0 `_collect` decides every
    slice by numpy compares, above every slice's length by scalar reads."""
    saved, placement.SHORT_SLICE = placement.SHORT_SLICE, width
    try:
        yield
    finally:
        placement.SHORT_SLICE = saved


# both of `_collect`'s paths: the small substrates drawn here would
# otherwise take the scalar one alone
COLLECT_PATHS = (0, 10**9)


class TestEligibleArray:
    """`feasible_servers` returns one array('q') of ids, whichever path of
    `_collect` decided them, with or without `best_tier`, and when empty."""

    @pytest.mark.parametrize("best_tier", [False, True])
    @pytest.mark.parametrize("width", [0, 10**9])  # numpy compares, scalar reads
    def test_an_array_on_either_path(self, ref, width, best_tier):
        req = make_request(SliceClass.BEST_EFFORT, ref.uaps[0])
        root = servers_of(ref, "edc0")[0]
        with short_slice(width):
            for got in (feasible_servers(ref, req, 1, None, best_tier=best_tier),
                        feasible_servers(ref, req, 2, root, used_e2e_ms=0.02,
                                         best_tier=best_tier)):
                assert type(got) is array and got.typecode == "q" and len(got) > 0
                assert all(type(sid) is int for sid in got)
                assert list(got) == sorted(got)

    @pytest.mark.parametrize("best_tier", [False, True])
    def test_an_empty_array(self, best_tier):
        net = build_reference_psn()
        drain_dc(net, "edc0")
        req = make_request(SliceClass.URLLC, net.uaps[0])
        got = feasible_servers(net, req, 1, None, best_tier=best_tier)
        assert type(got) is array and got.typecode == "q" and not got


class TestMixedSlices:
    """One call whose slices straddle SHORT_SLICE decides the short ones by
    scalar reads and the long ones by numpy compares, and its ids come out
    in order: the scalar ids wait in a list that is flushed into the array
    before each long slice's ids and at the end."""

    @pytest.mark.parametrize("width", [5, 11])
    def test_matches_all_server_scan(self, width, monkeypatch):
        net = build_reference_psn()
        rng = random.Random(width)
        for server in net.servers():
            cpu = rng.choice([0.0, 0.0, 20.0, 45.0])
            net.allocate(server.id, cpu, 6 * cpu)
        lengths = []
        collect = placement._collect

        def spy(psn, slices, *args):
            lengths.append({stop - start < width for start, stop, _, _ in slices})
            return collect(psn, slices, *args)
        monkeypatch.setattr(placement, "_collect", spy)
        with short_slice(width):
            for cls in SliceClass:
                for uap in net.uaps[:4]:
                    req = make_request(cls, uap)
                    for best_tier in (False, True):
                        def narrow(ids):
                            return narrow_to_best_tier(net, ids) if best_tier else ids
                        roots = scan_feasible_servers(net, req, 1, None, 0.0)
                        assert list(feasible_servers(net, req, 1, None, best_tier=best_tier)) \
                            == narrow(roots)
                        for last_s in roots[:2]:
                            used = net.access_latency(uap, net.nodes[last_s].dc)
                            got = feasible_servers(net, req, 2, last_s, used_e2e_ms=used,
                                                   best_tier=best_tier)
                            assert list(got) == narrow(
                                scan_feasible_servers(net, req, 2, last_s, used))
        assert {True, False} in lengths  # some call held both kinds


class TestSlices:
    """`placement._slices` on the reference substrate, whose runs (one per
    DC: CCP, then the five CDCs, then the fifteen EDCs) each start at the
    position and link id where the one before stops. A run joins the slice
    before it only where it meets it; results alone cannot show this."""

    @staticmethod
    def runs() -> list:
        return list(build_reference_psn(1).index().runs)

    def test_all_runs_form_one_slice(self):
        runs = self.runs()
        assert placement._slices(runs, list(range(len(runs))), False, ()) == \
               {0: [(0, 126, 0, False)]}

    def test_one_slice_per_tier(self):
        runs = self.runs()
        assert placement._slices(runs, list(range(len(runs))), True, ()) == {
            0: [(0, 16, 0, False)], 1: [(16, 66, 16, False)], 2: [(66, 126, 66, False)]}

    def test_a_skipped_run_splits_the_slice(self):
        runs = self.runs()
        assert runs[2].dc == "cdc1"
        ks = [k for k in range(len(runs)) if k != 2]
        assert placement._slices(runs, ks, False, ()) == \
               {0: [(0, 26, 0, False), (36, 126, 36, False)]}
        assert placement._slices(runs, ks, True, ())[1] == \
               [(16, 26, 16, False), (36, 66, 36, False)]

    def test_a_run_whose_link_ids_jump_starts_a_slice(self):
        runs = self.runs()
        runs[2] = runs[2]._replace(link=runs[2].link + 1)
        assert placement._slices(runs, [1, 2, 3], False, ()) == \
               {0: [(16, 26, 16, False), (26, 36, 27, False), (36, 46, 36, False)]}

    def test_a_look_dc_stands_alone(self):
        runs = self.runs()
        assert runs[9].dc == "edc3"
        assert placement._slices(runs, list(range(len(runs))), False, ("edc3",)) == \
               {0: [(0, 78, 0, False), (78, 82, 78, True), (82, 126, 82, False)]}
        assert placement._slices(runs, list(range(len(runs))), True, ("edc3",))[2] == \
               [(66, 78, 66, False), (78, 82, 78, True), (82, 126, 82, False)]


class TestReachBoundedEligibility:
    """`feasible_servers` tests only what `latency_reach` reaches and the
    searches skip leaves; results must equal those of the full scans."""

    @settings(max_examples=300, deadline=None)
    @given(loaded_substrates(), st.data())
    def test_matches_all_server_scan(self, net, data):
        request = make_request(data.draw(st.sampled_from(list(SliceClass))),
                               data.draw(st.sampled_from(net.uaps)))
        # unequal VL demands: reaching a server then says nothing about
        # whether its links can carry the next VL
        request = dataclasses.replace(request, vls=tuple(
            dataclasses.replace(vl, bw=data.draw(st.sampled_from([0.5, 1.0, 2.0])))
            for vl in request.vls))
        # beyond the end-to-end budget the slack turns negative
        used = [data.draw(st.sampled_from([0.0, 0.02, 0.7, 1.3, request.e2e_budget_ms + 0.5]))
                for _ in range(2, request.n_vnfs + 1)]
        for width in COLLECT_PATHS:
            with short_slice(width):
                assert list(feasible_servers(net, request, 1, None)) == \
                       scan_feasible_servers(net, request, 1, None, 0.0)
                for v, spent in enumerate(used, 2):
                    for last_s in (s.id for s in net.servers()):
                        got = feasible_servers(net, request, v, last_s, used_e2e_ms=spent)
                        assert list(got) == scan_feasible_servers(net, request, v, last_s, spent)

    @settings(max_examples=150, deadline=None)
    @given(loaded_substrates(), st.data())
    def test_best_tier_narrows_the_full_list(self, net, data):
        if data.draw(st.booleans()):
            add_dc_less_server(net, data)
        request = make_request(data.draw(st.sampled_from(list(SliceClass))),
                               data.draw(st.sampled_from(net.uaps)))
        request = dataclasses.replace(request, vls=tuple(
            dataclasses.replace(vl, bw=data.draw(st.sampled_from([0.5, 1.0, 2.0])))
            for vl in request.vls))
        with short_slice(data.draw(st.sampled_from(COLLECT_PATHS))):
            full = scan_feasible_servers(net, request, 1, None, 0.0)
            assert list(feasible_servers(net, request, 1, None, best_tier=True)) == \
                   narrow_to_best_tier(net, full)
            servers = [s.id for s in net.servers()]
            for v in range(2, request.n_vnfs + 1):
                last_s = data.draw(st.sampled_from(servers))
                used = data.draw(st.sampled_from([0.0, 0.02, 0.7, 1.3]))
                full = scan_feasible_servers(net, request, v, last_s, used)
                got = feasible_servers(net, request, v, last_s, used_e2e_ms=used,
                                       best_tier=True)
                assert list(got) == narrow_to_best_tier(net, full)

    @settings(max_examples=150, deadline=None)
    @given(loaded_substrates(), st.data())
    def test_reach_matches_plain_dijkstra(self, net, data):
        src = data.draw(st.integers(0, len(net.nodes) - 1))
        bw = data.draw(st.sampled_from([0.0] + LINK_BWS))
        budget = data.draw(st.sampled_from([-0.5, 0.0, 0.1, 0.33, 1.0, 5.0]))
        assert latency_reach(net, src, bw, budget) == plain_reach(net, src, bw, budget)

    @settings(max_examples=150, deadline=None)
    @given(loaded_substrates(), st.data())
    def test_hop_path_matches_plain_bfs(self, net, data):
        src, dst = data.draw(st.lists(st.integers(0, len(net.nodes) - 1),
                                      min_size=2, max_size=2, unique=True))
        bw = data.draw(st.sampled_from([0.0] + LINK_BWS))
        # with no latency limit the minimum-hop path always wins
        assert min_cost_path(net, src, dst, bw, float("inf")) == \
               plain_hop_path(net, src, dst, bw)

    @settings(max_examples=300, deadline=None)
    @given(loaded_substrates(), st.data())
    def test_min_cost_path_matches_plain_search(self, net, data):
        """Finite budgets: the minimum-hop path while its latency fits,
        else the minimum-latency path if that fits, else None. Every
        destination is also asked with a budget just under its minimum-hop
        path's latency, so that the latency fallback runs wherever that
        path has latency."""
        src = data.draw(st.integers(0, len(net.nodes) - 1))
        bw = data.draw(st.sampled_from([0.0] + LINK_BWS))
        budget = data.draw(st.sampled_from([-0.5, 0.0, 0.1, 0.33, 0.5, 1.0, 1.33, 5.0]))
        for dst in range(len(net.nodes)):
            if dst == src:
                continue
            hop = plain_hop_path(net, src, dst, bw) or []
            under = sum(net.links[lid].latency_ms for lid in hop) - 0.05
            for b in (budget, under):
                assert min_cost_path(net, src, dst, bw, b) == \
                       plain_min_cost_path(net, src, dst, bw, b)

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
        assert sorted(net.index().off_run) == sorted(
            net.index().pos[s] for s in (e1, e2, c0, loose))
        assert list(feasible_servers(net, req, 1, None)) == scan_feasible_servers(net, req, 1, None, 0.0)
        e2e = req.e2e_budget_ms
        for v in range(2, req.n_vnfs + 1):
            for last_s in [s.id for s in net.servers()]:
                for used in (0.0, 0.02, 1.0, e2e - 0.6, e2e - 0.4):
                    got = feasible_servers(net, req, v, last_s, used_e2e_ms=used)
                    assert list(got) == scan_feasible_servers(net, req, v, last_s, used)
        assert loose in feasible_servers(net, req, 2, loose, used_e2e_ms=0.02)
        assert loose not in feasible_servers(net, req, 2, e0, used_e2e_ms=0.02)

    def test_only_the_anchor_dc_applies_the_lookahead(self):
        """A server with room for VNF v but neither for VNF v+1 nor for VL v
        on its link is eligible in another DC than last_s's, not in its own."""
        net = make_pair(edc_servers=2, cdc_servers=1)
        req = make_request(SliceClass.URLLC, net.uaps[0])
        vls = req.vls
        req = dataclasses.replace(req, vls=(dataclasses.replace(vls[0], bw=1.0),
                                            dataclasses.replace(vls[1], bw=2.0)) + vls[2:])
        anchor, twin = servers_of(net, "edc0")
        (far,) = servers_of(net, "cdc0")
        for sid, dc_id in ((twin, "edc0"), (far, "cdc0")):
            net.allocate(sid, 30.0, 180.0)  # room for one 15-CPU VNF, not two
            lid = link_id(net, sid, net.data_centers[dc_id].switch)
            net.allocate_bw(lid, net.bw_residual(lid) - 1.5)  # carries VL 1, not VL 2
        got = feasible_servers(net, req, 2, anchor, used_e2e_ms=0.02)
        assert far in got and twin not in got
        assert list(got) == scan_feasible_servers(net, req, 2, anchor, 0.02)

    def test_unreachable_last_s(self):
        net = make_pair()
        req = make_request(SliceClass.URLLC, net.uaps[0])
        anchor = servers_of(net, "edc0")[0]
        sw = net.data_centers["edc0"].switch
        net.allocate_bw(link_id(net, anchor, sw), 10.0)
        assert latency_reach(net, anchor, 1.0, 5.0) == {anchor: 0.0}
        got = feasible_servers(net, req, 2, anchor, used_e2e_ms=0.02)
        assert list(got) == [anchor] == scan_feasible_servers(net, req, 2, anchor, 0.02)

    def test_a_full_plan_cache_starts_over(self, monkeypatch):
        """At `PLANS_MAX` plans the cache is emptied before the next one is
        kept; the lists stay those of the full scan."""
        monkeypatch.setattr(placement, "PLANS_MAX", 2)
        net = make_pair()
        req = make_request(SliceClass.BEST_EFFORT, net.uaps[0])
        # a spent budget keeps the reach inside last_s's DC: three keys
        calls = [(v, s.id, spent) for v in (2, 3) for s in net.servers()
                 for spent in (0.0, req.e2e_budget_ms - 0.1)]
        for v, last_s, spent in calls:
            got = feasible_servers(net, req, v, last_s, used_e2e_ms=spent)
            assert list(got) == scan_feasible_servers(net, req, v, last_s, spent)
            assert len(net.index().plans) <= 2


def lookahead_at(net: PhysicalNetwork, request, v: int, sid: int) -> bool:
    """The scalar lookahead rule (`lookahead_rule`) at server sid, with its
    residuals and the thresholds of `lookahead_units` for VNF v."""
    p = net.index().pos[sid]
    return lookahead_rule(net, sid, net.cpu_units[p], net.ram_units[p],
                          *lookahead_units(request, v))


class TestLookaheadMask:
    """The lookahead rule of P2C and the exact search, read at one server
    (`lookahead_rule`, through `lookahead_at`) and as the mask
    `feasible_servers` computes with a few compares over run slices, equals
    the oracle's plain rule: servers with several links, with none and
    outside any DC included. The substrates load RAM in proportion to CPU,
    so the requests' RAM is drawn apart from their CPU, and either can
    bind."""

    @staticmethod
    def varied(request, data):
        """request with unequal VL demands, some beyond a thin link's
        residual, and VNF RAM drawn apart from CPU."""
        rams = st.sampled_from([30.0, 60.0, 150.0, 250.0])
        bws = st.sampled_from([0.5, 1.0, 2.0, 10.0])
        return dataclasses.replace(
            request, vnfs=tuple(dataclasses.replace(d, ram=data.draw(rams)) for d in request.vnfs),
            vls=tuple(dataclasses.replace(vl, bw=data.draw(bws)) for vl in request.vls))

    @settings(max_examples=150, deadline=None)
    @given(loaded_substrates(), st.data())
    def test_matches_the_plain_rule(self, net, data):
        if data.draw(st.booleans()):
            add_dc_less_server(net, data)
        request = self.varied(make_request(data.draw(st.sampled_from(list(SliceClass))),
                                           data.draw(st.sampled_from(net.uaps))), data)
        for v in range(1, request.n_vnfs + 1):
            assert [lookahead_at(net, request, v, s.id) for s in net.servers()] == \
                   [lookahead(net, request, v, s.id) for s in net.servers()]

    @settings(max_examples=150, deadline=None)
    @given(loaded_substrates(), st.data())
    def test_one_server_matches_the_mask(self, net, data):
        """Wherever `feasible_servers` applies the rule (the root DCs for
        VNF 1; last_s and the reached servers of its DC later), a server is
        listed exactly when `lookahead_at` passes it."""
        if data.draw(st.booleans()):
            add_dc_less_server(net, data)
        request = self.varied(make_request(data.draw(st.sampled_from(list(SliceClass))),
                                           data.draw(st.sampled_from(net.uaps))), data)
        bound = request.alpha_max_ms + LATENCY_EPS
        servers = list(net.servers())
        lasts = [data.draw(st.sampled_from(servers)) for _ in range(2, request.n_vnfs + 1)]
        for width in COLLECT_PATHS:
            with short_slice(width):
                got = set(feasible_servers(net, request, 1, None))
                ruled = [s.id for s in servers if s.dc is not None
                         and net.access_latency(request.uap, s.dc) <= bound]
                assert [sid in got for sid in ruled] == \
                       [lookahead_at(net, request, 1, sid) for sid in ruled]
                for v, last in enumerate(lasts, 2):
                    vl = request.vl(v - 1)
                    budget = min(vl.budget_ms, request.e2e_budget_ms)
                    reach = plain_reach(net, last.id, vl.bw, budget)
                    got = set(feasible_servers(net, request, v, last.id))
                    ruled = [last.id] + [
                        s.id for s in servers if s.id != last.id and s.dc == last.dc
                        and reach.get(s.id, float("inf")) <= budget + LATENCY_EPS]
                    assert [sid in got for sid in ruled] == \
                           [lookahead_at(net, request, v, sid) for sid in ruled]


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
        assert net.residual(root)[0] == 35.0
        assert net.residual(c_a)[0] == 20.0
        assert net.residual(c_b)[0] == 20.0
        assert net.bw_residual(up[1]) == 9.0
        # VL2 is colocated and VL3 stays inside the CDC: uplink carries one VL
        assert net.bw_residual(link_id(net, sw_c, c_a)) == 100.0 - 2.0
        release_placement(net, req, plc)
        after = net.snapshot()
        assert before.server_cpu == after.server_cpu
        assert before.server_ram == after.server_ram
        assert before.link_bw == after.link_bw

    def test_release_is_atomic(self, ref):
        # VNFs 1-3 could go back to root, VNFs 4 and 5 not to s_b, which holds
        # nothing: the release refuses before it returns anything
        net = ref.clone()
        req = make_request(SliceClass.URLLC, net.uaps[0])
        root, s_b = servers_of(net, "edc0")[:2]
        net.allocate(root, 45, 270)
        before = residual_bytes(net)
        plc = Placement(x={1: root, 2: root, 3: root, 4: s_b, 5: s_b},
                        y={1: [], 2: [], 3: [], 4: []}, cost=0.0)
        with pytest.raises(ReleaseError, match=f"server {s_b}: release exceeds capacity"):
            release_placement(net, req, plc)
        assert residual_bytes(net) == before

    def test_release_in_a_transaction_rolls_back(self, ref):
        net = ref.clone()
        req = make_request(SliceClass.URLLC, net.uaps[0])
        root, s_b = servers_of(net, "edc0")[:2]
        sw = net.data_centers["edc0"].switch
        plc = Placement(x={1: root, 2: root, 3: s_b, 4: s_b, 5: s_b},
                        y={1: [], 2: [link_id(net, root, sw), link_id(net, sw, s_b)],
                           3: [], 4: []}, cost=2.0)
        apply_placement(net, req, plc)
        held = residual_bytes(net)
        mark = net.begin()
        release_placement(net, req, plc)
        assert residual_bytes(net) != held
        net.rollback(mark)
        assert residual_bytes(net) == held
        assert net._undo == []

    @settings(max_examples=150, deadline=None)
    @given(loaded_substrates(), st.data())
    def test_summed_writes_equal_per_vnf_writes(self, net, data):
        """Colocated VNFs and VLs that share links: each summed write leaves
        what one write per VNF and per hop left, refuses what it refused
        and then writes nothing, and apply then release restores the arrays
        byte for byte, also inside a transaction that rolls back. The
        releases read the sums apply recorded, or, on some draws, are given
        another request, whose own demands they must sum."""
        n = data.draw(st.integers(1, 5))

        def draw_request() -> SliceRequest:
            return SliceRequest(
                id=1, cls=SliceClass.URLLC, uap=net.uaps[0], alpha_max_ms=1.0, e2e_budget_ms=5.0,
                vnfs=tuple(VnfDemand(*data.draw(st.sampled_from([(0.3, 0.1), (10.0, 60.0),
                                                                  (15.0, 90.0), (25.0, 150.0)])))
                           for _ in range(n)),
                vls=tuple(VlDemand(data.draw(st.sampled_from([0.1, 0.5, 1.0, 2.0])), 1.0)
                          for _ in range(n - 1)))

        request = draw_request()
        released = request if data.draw(st.booleans()) else draw_request()
        # few servers and links to draw from, so that repeats are common
        servers = [s.id for s in net.servers()][:3]
        links = [l.id for l in net.links if l.bw_capacity is not None][:4]
        plc = Placement(
            x={v: data.draw(st.sampled_from(servers)) for v in range(1, n + 1)},
            y={i: data.draw(st.lists(st.sampled_from(links), max_size=3) if links
                            else st.just([])) for i in range(1, n)})
        start, applied = residual_bytes(net), False
        arrays = lambda: [list(a) for a in (net.cpu_units, net.ram_units, net.bw_units)]
        # apply, release, then release once more: an over-release where the
        # load left no room for it
        for k, (sign, write, req, error) in enumerate((
                (-1, apply_placement, request, CapacityError),
                (1, release_placement, released, ReleaseError),
                (1, release_placement, released, ReleaseError))):
            want, before = per_vnf_writes(net, req, plc, sign), residual_bytes(net)
            if data.draw(st.booleans()):
                mark = net.begin()
                with contextlib.suppress(error):
                    write(net, req, plc)
                net.rollback(mark)
                assert residual_bytes(net) == before
            if want is None:
                with pytest.raises(error):
                    write(net, req, plc)
                assert residual_bytes(net) == before
                continue
            write(net, req, plc)
            assert arrays() == list(want)
            applied = applied or k == 0
            if k == 1 and applied and released is request:
                assert residual_bytes(net) == start
        assert net._undo == [] and net._marks == []

    def test_a_placement_is_summed_once_per_request(self, ref):
        net = ref.clone()
        req = make_request(SliceClass.URLLC, net.uaps[0])
        root, s_b = servers_of(net, "edc0")[:2]
        sw = net.data_centers["edc0"].switch
        path = [link_id(net, root, sw), link_id(net, sw, s_b)]
        plc = Placement(x={1: root, 2: root, 3: s_b, 4: s_b, 5: s_b},
                        y={1: [], 2: path, 3: [], 4: []}, cost=2.0)
        assert plc.units is None
        apply_placement(net, req, plc)
        record = plc.units
        assert record == (req, {root: [2 * 15 * SCALE, 2 * 90 * SCALE],
                                s_b: [3 * 15 * SCALE, 3 * 90 * SCALE]},
                          {lid: SCALE for lid in path})
        release_placement(net, req, plc)
        assert plc.units is record
        # an equal request that is another object is summed afresh
        twin = dataclasses.replace(req)
        apply_placement(net, twin, plc)
        assert plc.units is not record and plc.units[0] is twin
        assert plc.units[1:] == record[1:]
        # so is one with other demands, and the release returns those
        other = make_request(SliceClass.BEST_EFFORT, net.uaps[0])
        want = per_vnf_writes(net, other, plc, 1)
        release_placement(net, other, plc)
        assert [list(a) for a in (net.cpu_units, net.ram_units, net.bw_units)] == list(want)
        assert plc.units[0] is other
        # the record takes no part in equality, repr or JSON
        assert plc == Placement(dict(plc.x), dict(plc.y), plc.cost)
        assert "units" not in repr(plc) and "units" not in plc.to_json(net)

    @pytest.mark.parametrize("x_key, y_key", [(0, 1), (6, 1), (1, 0), (1, 5)])
    @pytest.mark.parametrize("write", [apply_placement, release_placement])
    def test_key_outside_the_chain_raises(self, ref, write, x_key, y_key):
        """A VNF key outside 1..5 or a VL key outside 1..4 raises IndexError,
        0 included, which would otherwise index from the end; nothing is
        written or recorded."""
        net = ref.clone()
        req = make_request(SliceClass.URLLC, net.uaps[0])
        root = servers_of(net, "edc0")[0]
        net.allocate(root, 10, 60)
        plc = Placement(x={1: root, x_key: root}, y={1: [], y_key: []}, cost=0.0)
        before = residual_bytes(net)
        with pytest.raises(IndexError):
            write(net, req, plc)
        assert residual_bytes(net) == before
        assert plc.units is None

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
