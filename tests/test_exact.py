"""Exact solvers: branch-and-bound ILP-1/ILP-2 against brute force."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceplace.exact import SolveStatus, _enumerate_paths, solve_ilp1, solve_ilp2
from sliceplace import exact, placement, sim
from sliceplace.nspr import DEFAULT_CATALOG, ClassSpec, SliceClass, VnfDemand, make_request
from sliceplace.p2c import DrawStream, OutcomeStatus, Policy
from sliceplace.p2c import place as p2c_place
from sliceplace.placement import (LATENCY_EPS, bandwidth_cost, check_placement,
                                  feasible_servers, lookahead_units)
from sliceplace.topology import (SCALE, DCKind, LinkKind, NodeKind, PhysicalNetwork,
                                 TopologyParams, build_reference_psn, left_sum, relay_reach,
                                 to_units)

from conftest import make_pair, make_single_dc
from oracles import (LINK_BWS, InstanceTooLargeError, brute_force, exact_candidates,
                     loaded_substrates, paths_to, plain_dedupe, residual_bytes,
                     scan_feasible_servers, twinned, usable)
from test_placement import link_id

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
    # fractional loads, to the six decimals that residual units hold
    for s in net.servers():
        if rng.random() < 0.5:
            cpu, ram = net.residual(s.id)
            net.allocate(s.id, round(rng.uniform(0, cpu * 0.9), 6),
                         round(rng.uniform(0, ram * 0.9), 6))
    for lid in range(len(net.links)):
        bw = net.bw_residual(lid)
        if bw is not None and rng.random() < 0.3:
            net.allocate_bw(lid, round(bw * rng.uniform(0, 0.9), 6))
    req = short_request(net, rng.choice(list(SliceClass)))
    return net, req


def detour_first_network() -> PhysicalNetwork:
    """Four one-server EDCs a, m, c, z; only a's server is in access reach
    and m's server is too small for a VNF. From a, the search meets c's
    server first over the detour a-m-c, whose thin links (1 Gbps) the next
    virtual link needs to reach z; the direct a-c link comes second. The
    only feasible placement, a -> c -> z, takes the direct path."""
    net = PhysicalNetwork(TopologyParams())
    switch = {}
    for name, cpu in (("a", 15.0), ("m", 5.0), ("c", 15.0), ("z", 15.0)):
        dc = net.add_data_center(name, DCKind.EDC)
        switch[name] = dc.switch
        sid = net.add_server(f"{name}-s0", name, cpu, 300.0)
        net.add_link(dc.switch, sid, 0.0, LinkKind.INTRA_DC, 10.0)
    for a, b, lat, bw in (("a", "m", 0.25, 1.0), ("m", "c", 0.05, 1.0),
                          ("a", "c", 0.1, 10.0), ("m", "z", 0.1, 10.0)):
        net.add_link(switch[a], switch[b], lat, LinkKind.TRANSPORT, bw)
    uap = net.add_node("uap0", NodeKind.UAP)
    net.add_link(uap, switch["a"], 0.02, LinkKind.ACCESS, None)
    net.uaps.append(uap)
    net.validate()
    return net


def two_slot_request(net: PhysicalNetwork, vl_budgets_ms=(0.33, 0.33)):
    """Three 25-CPU, 150-GB VNFs joined by 1 Gbps VLs: an empty 50-CPU,
    300-GB server holds two of them."""
    req = short_request(net, SliceClass.URLLC)
    return dataclasses.replace(
        req, vnfs=tuple(VnfDemand(25.0, 150.0) for _ in req.vnfs),
        vls=tuple(dataclasses.replace(vl, budget_ms=b)
                  for vl, b in zip(req.vls, vl_budgets_ms)))


def one_slot_and_two_slot_network() -> tuple[PhysicalNetwork, int, int]:
    """One star DC with two servers: a, loaded to room for one VNF of
    `two_slot_request`, and b, with room for two. Besides the switch, a
    0.4 ms detour over a router joins them, too slow for VL 1 but within
    VL 2's budget of 0.6 ms."""
    net = make_single_dc(servers=2)
    a, b = sorted(net.data_centers["dc0"].servers)
    net.allocate(a, 25.0, 150.0)
    router = net.add_node("r", NodeKind.ROUTER)
    for sid in (a, b):
        net.add_link(router, sid, 0.2, LinkKind.TRANSPORT, 10.0)
    return net, a, b


def listed_request(net: PhysicalNetwork, bw: float, budget: float | None = None):
    """A best-effort request from the first UAP whose VNFs need 1 CPU and 6
    GB of RAM each and whose VL 1 carries bw, within budget if one is
    given (its class's budget otherwise)."""
    req = make_request(SliceClass.BEST_EFFORT, net.uaps[0])
    vl = dataclasses.replace(req.vls[0], bw=bw)
    if budget is not None:
        vl = dataclasses.replace(vl, budget_ms=budget)
    return dataclasses.replace(req, vnfs=tuple(VnfDemand(1.0, 6.0) for _ in req.vnfs),
                               vls=(vl, *req.vls[1:]))


def listed(net: PhysicalNetwork, src: int, bw: float, budget: float,
           dc_first: bool = False, kept: bool = False
           ) -> dict[int, list[tuple[tuple[int, ...], float]]]:
    """Server -> its (path, latency) pairs on VNF 2's candidate list from
    src within budget, for `listed_request`; with kept, VL 1's own budget
    is budget, so the list reads the path entry the structure index keeps
    for budget as it is while the entry's links carry bw; without, VL 1
    keeps its class's budget, which budget may cut or exceed. A run
    server's entries hold its anchor's links, and its path is those with
    its uplink appended. When src's one link leads to a relay, the
    entries start past that link, and every path but src's own, the empty
    one, has it prepended."""
    return listed_for(net, listed_request(net, bw, budget if kept else None), src, budget,
                      dc_first)


def listed_for(net: PhysicalNetwork, req, src: int, eff: float, dc_first: bool = False
               ) -> dict[int, list[tuple[tuple[int, ...], float]]]:
    """`listed` for the request req, its VNF-2 list from src within eff."""
    lead, candidates = exact._later_candidates(net, req, 2, src, eff, dc_first,
                                               lookahead_units(req, 2))
    if len(net.adj[src]) == 1 and len(net.adj[net.adj[src][0][0]]) > 1:
        assert lead == net.adj[src][0][1]
    else:
        assert lead == -1
    head = (lead,) if lead >= 0 else ()
    return {sid: [((*(head if sid != src else ()), *path, *((up,) if up >= 0 else ())), lat)
                  for _, lat, path in paths]
            for sid, paths, up in candidates}


def path_entries(net: PhysicalNetwork) -> dict[tuple, tuple]:
    """The path entries of the network's structure index."""
    return {k: e for k, e in net.index().plans.items() if k[0] == "paths"}


def assert_kept_lists(net: PhysicalNetwork, bw: float, budget: float) -> None:
    """`assert_lists` for `listed_request` within VL 1's own budget, so that
    every list reads its path entry as it is while the entry's links carry
    bw."""
    assert_lists(net, listed_request(net, bw, budget), lambda last_s: budget)


def assert_lists(net: PhysicalNetwork, req, eff_at) -> None:
    """Every server's VNF-2 lists for req, in both orders, each within
    eff_at(server), are the oracle's (`exact_candidates`), each listed
    server at the paths a search to it alone finds, summed first link to
    last."""
    bw = req.vls[0].bw
    for last_s in (s.id for s in net.servers()):
        eff = eff_at(last_s)
        for dc_first in (True, False):
            by_dst = listed_for(net, req, last_s, eff, dc_first)
            assert list(by_dst) == exact_candidates(net, req, 2, last_s, eff, dc_first)
            for dst, paths in by_dst.items():
                assert [p for p, _ in paths] == \
                       ([()] if dst == last_s else paths_to(net, last_s, dst, bw, eff))
                assert all(lat == summed(net, p) for p, lat in paths)


def summed(net: PhysicalNetwork, path: tuple[int, ...]) -> float:
    """A path's latency, summed first link to last."""
    return left_sum(net.links[lid].latency_ms for lid in path)


def relay_line_network(length: int = 1500) -> PhysicalNetwork:
    """Two 50-CPU servers behind one switch, which heads a line of length
    routers joined by 10 Gbps links of no latency: a path search from a
    server follows the line to its end, deeper than the interpreter's
    default recursion limit of 1,000 frames."""
    net = make_single_dc(servers=2)
    prev = net.data_centers["dc0"].switch
    for i in range(length):
        router = net.add_node(f"r{i:04d}", NodeKind.ROUTER)
        net.add_link(prev, router, 0.0, LinkKind.TRANSPORT, 10.0)
        prev = router
    net.validate()
    return net


def floor_of(net: PhysicalNetwork, req) -> float:
    """The least cost of the request's whole chain that the search bounds
    with (`exact._chain_plan`), in Gbps x hops."""
    return exact._chain_plan(net.index(), req)[-1][1] / SCALE


def zero_floor(solver, net: PhysicalNetwork, req, **kwargs):
    """solver's result with every floor of the chain at zero: the bounds of
    a search that counts no cut it has not made."""
    chain_plan = exact._chain_plan

    def plan(idx, request):
        *head, floor = chain_plan(idx, request)
        return (*head, [0] * len(floor))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_chain_plan", plan)
        return solver(net, req, **kwargs)


def outcome(res) -> tuple:
    """What a solve reports, less the nodes it explored."""
    plc = res.placement
    return (res.status, res.objective, res.deepest_feasible_vnf,
            plc and plc.x, plc and plc.y)


class TestPathSearch:
    """One search from the previous server finds, for every relay node and
    every server on the candidate list built on it, what a search per
    destination finds."""

    @settings(max_examples=150, deadline=None)
    @given(loaded_substrates(), st.data())
    def test_matches_one_search_per_destination(self, net, data):
        nodes = range(len(net.nodes))
        src = data.draw(st.sampled_from(nodes))
        bw = data.draw(st.sampled_from([0.0] + LINK_BWS))
        budget = data.draw(st.sampled_from([-0.5, 0.0, 0.1, 0.33, 1.0, 5.0]))
        found, rest = _enumerate_paths(net, src, budget)
        assert rest == set() and found[src] == [(0, 0.0, ())]
        relays = {u for u in nodes if len(net.adj[u]) > 1}
        assert set(found) <= relays | {src}
        # the search follows every link; its paths over links with bw left
        # are those a search to each relay alone over such links finds
        for u in relays - {src}:
            assert [p for _, _, p in sorted(found.get(u, []))
                    if all(usable(net, lid, bw) for lid in p)] == \
                   paths_to(net, src, u, bw, budget)
        for entries in found.values():
            # each latency is the float the search summed, first link to last
            assert all((hops, lat) == (len(p), summed(net, p)) for hops, lat, p in entries)
        # the servers listed from each server: last_s at the empty path, the
        # others at every path a search to them alone finds
        for last_s, dc_first in itertools.product([s.id for s in net.servers()], (True, False)):
            by_dst = listed(net, last_s, bw, budget, dc_first)
            for dst, paths in by_dst.items():
                assert [p for p, _ in paths] == \
                       ([()] if dst == last_s else paths_to(net, last_s, dst, bw, budget))
                assert all(lat == summed(net, p) for p, lat in paths)

    @settings(max_examples=200, deadline=None)
    @given(loaded_substrates(), st.data())
    def test_reach_is_the_relay_dijkstra(self, net, data):
        """The relays the search reaches, each at its smallest latency
        (`exact._reach`), are `topology.relay_reach`'s over every link, as
        the same floats; and those its paths over links that carry bw
        reach are `relay_reach`'s at bw. Relay links are drawn thin, so
        that the bandwidth test binds, and the limits from -0.5 to 5 ms."""
        for link in net.links:
            left = net.bw_residual(link.id)
            if left and len(net.adj[link.a]) > 1 and len(net.adj[link.b]) > 1:
                thin = data.draw(st.sampled_from([None, 0.0, 0.5, 1.0]))
                if thin is not None and thin < left:
                    net.allocate_bw(link.id, left - thin)
        src = data.draw(st.sampled_from(range(len(net.nodes))))
        bw = data.draw(st.sampled_from([0.0] + LINK_BWS))
        budget = data.draw(st.floats(-0.5, 5.0))
        found, _ = _enumerate_paths(net, src, budget)
        assert exact._reach(found) == relay_reach(net, src, -1, budget + LATENCY_EPS)
        need = to_units(bw)
        carried = {}
        for u, entries in found.items():
            entries = [e for e in entries if all(net.bw_units[lid] >= need for lid in e[2])]
            if entries:
                carried[u] = entries
        assert exact._reach(carried) == relay_reach(net, src, need, budget + LATENCY_EPS)

    def test_every_path_behind_one_switch_and_an_empty_second_value(self):
        """Behind the CDC switch sit leaf servers c0 and c1 and a relay
        server c2, linked to the EDC switch as well; the switch is reached
        over three routes, so each server behind it has several paths, all
        of them kept, and c1, loaded apart from c0, is listed too. The
        search's result is (paths by relay, an empty set): the benchmark's
        path span unpacks two values."""
        net = make_pair(edc_servers=1, cdc_servers=3, km=10)
        (e0,) = net.data_centers["edc0"].servers
        c0, c1, c2 = sorted(net.data_centers["cdc0"].servers)
        sw_e, sw_c = net.data_centers["edc0"].switch, net.data_centers["cdc0"].switch
        router = net.add_node("r", NodeKind.ROUTER)
        net.add_link(sw_e, router, 0.05, LinkKind.TRANSPORT, 10.0)
        net.add_link(router, sw_c, 0.05, LinkKind.TRANSPORT, 10.0)
        net.add_link(sw_e, c2, 0.1, LinkKind.TRANSPORT, 10.0)
        net.allocate(c1, 1.0, 6.0)
        result = _enumerate_paths(net, e0, 1.0)
        assert type(result) is tuple and len(result) == 2
        found, rest = result
        assert type(found) is dict and rest == set()
        assert set(found) == {e0, sw_e, sw_c, router, c2}
        assert len(found[sw_c]) == 3
        by_dst = listed(net, e0, 1.0, 1.0)
        assert set(by_dst) == {e0, c0, c1, c2}
        for dst in (c0, c1, c2):
            assert [p for p, _ in by_dst[dst]] == paths_to(net, e0, dst, 1.0, 1.0)
        assert len(by_dst[c0]) == 3

    def test_relays_through_a_multi_link_server(self):
        net = make_pair(edc_servers=2, cdc_servers=1, km=10)
        e0, e1 = sorted(net.data_centers["edc0"].servers)
        (c0,) = net.data_centers["cdc0"].servers
        sw_e = net.data_centers["edc0"].switch
        sw_c = net.data_centers["cdc0"].switch
        bridge = net.add_link(e1, sw_c, 0.1, LinkKind.TRANSPORT, 10.0)
        # e1 is a relay and the search meets it before the EDC-CDC link, so
        # the CDC switch's first path found relays through it
        relayed = (link_id(net, e0, sw_e), link_id(net, sw_e, e1), bridge,
                   link_id(net, sw_c, c0))
        direct = (link_id(net, e0, sw_e), link_id(net, sw_e, sw_c), link_id(net, sw_c, c0))
        found, _ = _enumerate_paths(net, e0, 1.0)
        assert [p for _, _, p in found[sw_c]] == [relayed[:3], direct[:2]]
        paths = {dst: [p for p, _ in pairs] for dst, pairs in listed(net, e0, 1.0, 1.0).items()}
        assert paths[c0] == [direct, relayed]
        for dst in (e1, c0):
            assert paths[dst] == paths_to(net, e0, dst, 1.0, 1.0)

    def test_leaf_behind_a_multi_link_source(self):
        """The source e0 has two links, to its switch and to w, a server
        whose one link is to e0: w's paths are the source's own entry, its
        link added."""
        net = make_pair(edc_servers=2, cdc_servers=1)
        e0, e1 = sorted(net.data_centers["edc0"].servers)
        (c0,) = net.data_centers["cdc0"].servers
        w = net.add_server("edc0-w", "edc0", 50.0, 300.0)
        net.add_link(e0, w, 0.0, LinkKind.INTRA_DC, 10.0)
        by_dst = listed(net, e0, 1.0, 1.0)
        assert [p for p, _ in by_dst[w]] == [(link_id(net, e0, w),)]
        for dst in (w, e1, c0):
            assert [p for p, _ in by_dst[dst]] == paths_to(net, e0, dst, 1.0, 1.0)

    def test_uplink_latency_bounds_each_path(self):
        """c0 hangs off the CDC switch over a 0.5 ms uplink. The switch is
        reached within 1 ms over the direct 0.03 ms link and over a 0.6 ms
        detour, but only the direct path still fits once the uplink is
        added: c0 has that one path."""
        net = make_pair(edc_servers=1, cdc_servers=0, km=10)
        (e0,) = net.data_centers["edc0"].servers
        sw_e, sw_c = net.data_centers["edc0"].switch, net.data_centers["cdc0"].switch
        c0 = net.add_server("cdc0-s00", "cdc0", 50.0, 300.0)
        up = net.add_link(sw_c, c0, 0.5, LinkKind.TRANSPORT, 10.0)
        router = net.add_node("r", NodeKind.ROUTER)
        net.add_link(sw_e, router, 0.3, LinkKind.TRANSPORT, 10.0)
        net.add_link(router, sw_c, 0.3, LinkKind.TRANSPORT, 10.0)
        found, _ = _enumerate_paths(net, e0, 1.0)
        assert len(found[sw_c]) == 2
        direct = (link_id(net, e0, sw_e), link_id(net, sw_e, sw_c), up)
        assert [p for p, _ in listed(net, e0, 1.0, 1.0)[c0]] == [direct] == \
               paths_to(net, e0, c0, 1.0, 1.0)

    def test_leaf_on_a_thin_link_is_absent(self):
        """e1's one link has less than the demand left: no path reaches it
        and it is not listed, while c0, behind the same kind of link with
        room, is."""
        net = make_pair(edc_servers=2, cdc_servers=1)
        e0, e1 = sorted(net.data_centers["edc0"].servers)
        (c0,) = net.data_centers["cdc0"].servers
        net.allocate_bw(link_id(net, e1, net.data_centers["edc0"].switch), 9.5)
        by_dst = listed(net, e0, 1.0, 1.0)
        assert e1 not in by_dst and c0 in by_dst
        assert paths_to(net, e0, e1, 1.0, 1.0) == []
        assert [p for p, _ in by_dst[c0]] == paths_to(net, e0, c0, 1.0, 1.0)


class TestCandidateList:
    """The exact search's candidate lists, built in one pass, are the lists
    the plain passes build one after another: reach, lookahead, ILP-1's
    grouping and the incident-link twin dedupe. Same servers, same order,
    same representatives."""

    @settings(max_examples=150, deadline=None)
    @given(twinned(loaded_substrates()), st.data())
    def test_matches_the_passes(self, net, data):
        req = make_request(data.draw(st.sampled_from(list(SliceClass))),
                           net.uaps[data.draw(st.integers(0, len(net.uaps) - 1))])
        # the substrates load RAM in proportion to CPU, and a class's VLs
        # carry equal demands: draw the VNFs' RAM apart from their CPU and
        # each VL's bandwidth, so that every part of the lookahead can bind
        rams = st.sampled_from([30.0, 60.0, 150.0, 250.0])
        bws = st.sampled_from([0.5, 1.0, 2.0, 10.0])
        req = dataclasses.replace(
            req, vnfs=tuple(dataclasses.replace(d, ram=data.draw(rams)) for d in req.vnfs),
            vls=tuple(dataclasses.replace(vl, bw=data.draw(bws)) for vl in req.vls))
        assert list(exact._dedupe(net, feasible_servers(net, req, 1, None))) == \
               plain_dedupe(net, scan_feasible_servers(net, req, 1, None, 0.0))
        # from the whole budget down to none: the reach shrinks, and the
        # latency slack may undercut the VL budget
        spent = [0.0, req.alpha_max_ms, req.e2e_budget_ms - req.vls[0].budget_ms / 2,
                 req.e2e_budget_ms]
        used = data.draw(st.lists(st.sampled_from(spent), min_size=2, max_size=2, unique=True))
        for v in range(2, req.n_vnfs + 1):
            vl = req.vl(v - 1)
            for last_s in (s.id for s in net.servers()):
                for used_e2e in used:
                    eff = min(vl.budget_ms, req.e2e_budget_ms - used_e2e)
                    for dc_first in (True, False):
                        assert [sid for sid, _, _ in exact._later_candidates(
                                    net, req, v, last_s, eff, dc_first,
                                    lookahead_units(req, v))[1]] == \
                               exact_candidates(net, req, v, last_s, eff, dc_first)

    def test_last_s_takes_its_class_from_a_lower_id(self):
        """a and b are twins and a has the lower id: ILP-2's list keeps a;
        ILP-1's is empty, since b, which it tries before the list, stands
        for the class."""
        net = make_single_dc(servers=2)
        a, b = sorted(net.data_centers["dc0"].servers)
        req = make_request(SliceClass.BEST_EFFORT, net.uaps[0])
        rule = lookahead_units(req, 2)
        assert [sid for sid, _, _ in exact._later_candidates(net, req, 2, b, 1.0, False, rule)[1]] \
               == [a]
        assert exact._later_candidates(net, req, 2, b, 1.0, True, rule)[1] == []
        assert exact_candidates(net, req, 2, b, 1.0, True) == []


    def test_root_dedupe_is_lazy(self, ref, monkeypatch):
        """A zero-cost placement under the first root ends the search before
        the root dedupe asks for a second key: one of the home EDC's four."""
        keys = []

        def twin_key(psn, sid, cpu, ram):
            keys.append(sid)
            return exact_twin_key(psn, sid, cpu, ram)

        exact_twin_key = exact._twin_key
        monkeypatch.setattr(exact, "_twin_key", twin_key)
        res = solve_ilp1(ref, make_request(SliceClass.BEST_EFFORT, ref.uaps[0]))
        assert (res.status, res.objective) == (SolveStatus.OPTIMAL, 0.0)
        assert keys == [res.placement.x[1]]


class TestPathEntries:
    """A list whose latency bound is its VL's own budget reads its relay
    paths from the entry that the structure index keeps for where its
    search enters the relay graph, while every relay link the entry's
    search followed carries the VL. Whatever the residuals, the lists and
    their paths are the plain searches'."""

    @settings(max_examples=100, deadline=None)
    @given(twinned(loaded_substrates()), st.data())
    def test_a_thinned_link_and_its_return(self, net, data):
        """The lists of every server, then with one relay link or one
        server's link to a relay thinned below the VL's need, then with it
        restored. The entries stay while a list searches past them."""
        bw = data.draw(st.sampled_from(LINK_BWS))
        budget = data.draw(st.sampled_from([0.1, 0.33, 1.0, 5.0]))
        assert_kept_lists(net, bw, budget)
        # every link that carries the VL but one between two leaves
        adj, need = net.adj, to_units(bw)
        thinnable = [link.id for link in net.links if net.bw_units[link.id] >= need
                     and max(len(adj[link.a]), len(adj[link.b])) > 1]
        if not thinnable:
            return
        lid = data.draw(st.sampled_from(thinnable))
        kept = path_entries(net)
        mark = net.begin()
        net.allocate_bw(lid, net.bw_residual(lid) - bw / 2)
        assert net.bw_units[lid] < need
        assert_kept_lists(net, bw, budget)
        assert all(path_entries(net)[k] is e for k, e in kept.items())
        net.rollback(mark)
        assert_kept_lists(net, bw, budget)

    def test_clones_read_their_own_residuals(self):
        """Two clones share one index and its entries. On thin, the link
        between the switches carries less than the VL: from e0 only e0's
        own DC is listed there, and a CDC server is listed on wide."""
        net = make_pair(edc_servers=2, cdc_servers=2, km=10)
        wide, thin = net.clone(), net.clone()
        sw_e, sw_c = net.data_centers["edc0"].switch, net.data_centers["cdc0"].switch
        thin.allocate_bw(link_id(net, sw_e, sw_c), 9.5)
        assert wide.index() is thin.index()
        e0 = min(net.data_centers["edc0"].servers)
        cdc = set(net.data_centers["cdc0"].servers)
        seen = []
        for clone in (thin, wide, thin, wide):
            assert_kept_lists(clone, 1.0, 1.0)
            seen.append(bool(set(listed(clone, e0, 1.0, 1.0, kept=True)) & cdc))
        assert seen == [False, True, False, True]

    def test_structural_change_drops_the_entries(self):
        """A second EDC hangs off the CDC switch. Once the two EDC switches
        are linked as well, a new index holds no entry of the old one, and
        e1 is listed from e0 at the new direct path first."""
        net = make_pair(edc_servers=1, cdc_servers=1, km=10)
        (e0,) = net.data_centers["edc0"].servers
        sw_e, sw_c = net.data_centers["edc0"].switch, net.data_centers["cdc0"].switch
        sw_f = net.add_data_center("edc1", DCKind.EDC).switch
        e1 = net.add_server("edc1-s00", "edc1", 50.0, 300.0)
        up = net.add_link(sw_f, e1, 0.0, LinkKind.INTRA_DC, 10.0)
        via_c = net.add_link(sw_c, sw_f, 0.05, LinkKind.TRANSPORT, 10.0)
        assert_kept_lists(net, 1.0, 1.0)
        first = (link_id(net, e0, sw_e), link_id(net, sw_e, sw_c), via_c, up)
        assert [p for p, _ in listed(net, e0, 1.0, 1.0, kept=True)[e1]] == [first]
        assert path_entries(net)
        direct = net.add_link(sw_e, sw_f, 0.05, LinkKind.TRANSPORT, 10.0)
        assert path_entries(net) == {}
        assert [p for p, _ in listed(net, e0, 1.0, 1.0, kept=True)[e1]] == \
               [(link_id(net, e0, sw_e), direct, up), first]
        assert_kept_lists(net, 1.0, 1.0)

    def test_a_full_plan_cache_starts_over(self, monkeypatch):
        """At `PLANS_MAX` plans the cache is emptied before the next is
        kept, path entries and all; the lists stay the oracle's."""
        monkeypatch.setattr(placement, "PLANS_MAX", 2)
        net = make_pair(edc_servers=3, cdc_servers=2, km=10)
        for bw, budget in itertools.product((1.0, 10.0), (0.05, 1.0)):
            assert_kept_lists(net, bw, budget)
            assert len(net.index().plans) <= 2

    @settings(max_examples=100, deadline=None)
    @given(twinned(loaded_substrates()), st.data())
    def test_a_budget_the_slack_cut(self, net, data):
        """A class whose end-to-end budget leaves VL 1 less than its own
        budget once VNF 1's access latency is spent: every list keeps of
        the entry for VL 1's budget the paths within the cut. The lists
        of every server, then with one relay link or one server's link to
        a relay thinned below the VL's need, then with it restored."""
        bw = data.draw(st.sampled_from(LINK_BWS))
        budget = data.draw(st.sampled_from([0.33, 1.0, 5.0]))
        cut = data.draw(st.sampled_from([0.0, 0.3, 0.7]))
        spec = ClassSpec(cpu_per_vnf=1.0, ram_per_vnf=6.0, bw_per_vl=bw, alpha_max_ms=0.07,
                         vl_budgets_ms=(budget,) * 4, e2e_budget_ms=0.07 + cut * budget)
        req = make_request(SliceClass.BEST_EFFORT,
                           net.uaps[data.draw(st.integers(0, len(net.uaps) - 1))],
                           catalog={**DEFAULT_CATALOG, SliceClass.BEST_EFFORT: spec})

        def eff_at(last_s: int) -> float:
            """What the end-to-end budget leaves VL 1 with VNF 1 on last_s,
            as `_solve` computes it: less than VL 1's own budget."""
            used = net.access_latency(req.uap, net.nodes[last_s].dc)
            eff = min(budget, req.e2e_budget_ms - used)
            assert eff < budget
            return eff

        def assert_cut_lists() -> None:
            assert_lists(net, req, eff_at)
            assert {k[3] for k in path_entries(net)} <= {budget}

        assert_cut_lists()
        adj, need = net.adj, to_units(bw)
        thinnable = [link.id for link in net.links if net.bw_units[link.id] >= need
                     and max(len(adj[link.a]), len(adj[link.b])) > 1]
        if not thinnable:
            return
        lid = data.draw(st.sampled_from(thinnable))
        kept = path_entries(net)
        mark = net.begin()
        net.allocate_bw(lid, net.bw_residual(lid) - bw / 2)
        assert net.bw_units[lid] < need
        assert_cut_lists()
        assert path_entries(net) == kept
        net.rollback(mark)
        assert_cut_lists()


class TestDetour:
    @pytest.mark.parametrize("solver", [solve_ilp1, solve_ilp2])
    def test_second_path_places_the_chain(self, solver):
        """The search meets c's server first over the thin detour a-m-c;
        the only feasible placement takes the direct a-c link, c's second
        path, and both searches find it."""
        net = detour_first_network()
        req = short_request(net, SliceClass.URLLC)
        res = solver(net, req)
        assert res.status is SolveStatus.OPTIMAL
        assert (res.objective, res.placement.x, res.placement.y) == \
               (pytest.approx(7.0), {1: 1, 2: 5, 3: 7}, {1: [0, 6, 2], 2: [2, 5, 7, 3]})
        assert brute_force(net, req).objective == pytest.approx(7.0)


class TestBound:
    """ILP-1 tries colocation on last_s first, then builds the other
    candidates only if a path of the fewest links from last_s to another
    server (one if a neighbour is a server, two otherwise) can still beat
    the best placement."""

    def test_one_link_to_a_server_neighbour(self):
        """a and b are linked directly as well as over their switch, and
        the search roots at a first. a -> a -> b costs VL 2's 1.5 over the
        direct link. The better a -> b -> b, at VL 1's 1.0, is
        found only after that colocated subtree, over the same one link: a
        bound that counted two links (2.0 >= 1.5) would skip it."""
        net = make_single_dc(servers=2)
        a, b = sorted(net.data_centers["dc0"].servers)
        direct = net.add_link(a, b, 0.0, LinkKind.TRANSPORT, 10.0)
        req = two_slot_request(net)
        req = dataclasses.replace(req, vls=(req.vls[0], dataclasses.replace(req.vls[1], bw=1.5)))
        res = solve_ilp1(net, req)
        assert res.status is SolveStatus.OPTIMAL
        assert (res.objective, res.placement.x, res.placement.y) == \
               (1.0, {1: a, 2: b, 3: b}, {1: [direct], 2: []})
        assert brute_force(net, req).objective == pytest.approx(1.0)

    def test_failed_lookahead_skips_the_list(self, monkeypatch):
        """From a, only b can take VNF 2, two links away: 2.0. With the root
        on b and VNF 2 colocated, b is full for VNF 3 and every other
        server is two links away, so neither VNF 3 nor, after it, VNF 2
        builds a candidate list: the one path search runs from a."""
        net, a, b = one_slot_and_two_slot_network()
        req = two_slot_request(net)
        sources = []

        def enumerate_paths(psn, src, *args):
            sources.append(src)
            return _enumerate_paths(psn, src, *args)

        monkeypatch.setattr(exact, "_enumerate_paths", enumerate_paths)
        res = solve_ilp1(net, req)
        assert res.status is SolveStatus.OPTIMAL
        assert (res.objective, res.placement.x) == (2.0, {1: a, 2: b, 3: b})
        assert sources == [a]
        assert brute_force(net, req).objective == pytest.approx(2.0)


class TestRelayLine:
    """The path search keeps its own stack: a line of relays deeper than
    the recursion limit is searched like any other."""

    @pytest.mark.parametrize("solver", [solve_ilp1, solve_ilp2])
    def test_solves_past_the_recursion_limit(self, solver):
        net = relay_line_network()
        req = make_request(SliceClass.URLLC, net.uaps[0])
        res = solver(net, req)
        assert (res.status, res.objective) == (SolveStatus.OPTIMAL, 2.0)
        assert check_placement(net, req, res.placement).ok


def one_unit_chain(net, n: int):
    """A best-effort request of n VNFs of 1 CPU and 1 GB each."""
    spec = ClassSpec(cpu_per_vnf=1.0, ram_per_vnf=1.0, bw_per_vl=1.0, alpha_max_ms=0.07,
                     vl_budgets_ms=(1.0,) * (n - 1))
    return make_request(SliceClass.BEST_EFFORT, net.uaps[0],
                        catalog={**DEFAULT_CATALOG, SliceClass.BEST_EFFORT: spec})


class TestLongChain:
    """The search recurses two frames per VNF, so it refuses a chain longer
    than `exact.MAX_CHAIN_VNFS` before anything is held."""

    @pytest.mark.parametrize("solver", [solve_ilp1, solve_ilp2])
    def test_refused_with_nothing_held(self, solver):
        net = build_reference_psn(1)
        outer = net.begin()  # an enclosing transaction stays as it was
        before = residual_bytes(net), list(net._marks), len(net._undo)
        with pytest.raises(ValueError, match=r"800 VNFs exceeds .* limit of 256 VNFs"):
            solver(net, one_unit_chain(net, 800))
        assert (residual_bytes(net), list(net._marks), len(net._undo)) == before
        net.rollback(outer)
        res = solver(net, make_request(SliceClass.BEST_EFFORT, net.uaps[0]))
        assert res.status is SolveStatus.OPTIMAL

    @pytest.mark.parametrize("solver", [solve_ilp1, solve_ilp2])
    def test_the_longest_chain_is_searched(self, solver):
        """Two servers, each one VNF short of the chain, so no colocated
        tail ends the recursion early: it goes MAX_CHAIN_VNFS levels deep."""
        n = exact.MAX_CHAIN_VNFS
        net = make_single_dc(servers=2, cpu=float(n - 1), ram=float(n - 1))
        req = one_unit_chain(net, n)
        res = solver(net, req)
        assert res.status is SolveStatus.OPTIMAL and res.deepest_feasible_vnf == n
        assert check_placement(net, req, res.placement).ok
        assert net._marks == [] and net._undo == []


class TestFloor:
    """ILP-1 adds to each bound the least cost the rest of the chain must
    still hold (`exact._chain_plan`): what it returns is what it returns
    without them."""

    @settings(max_examples=100, deadline=None)
    @given(twinned(loaded_substrates()), st.data())
    def test_sound_on_loaded_substrates(self, net, data):
        """Five-VNF chains of 10 to 25 CPU, whose VLs carry unequal
        demands: the floors bind where the chain does not fit one server."""
        req = make_request(data.draw(st.sampled_from(list(SliceClass))),
                           net.uaps[data.draw(st.integers(0, len(net.uaps) - 1))])
        cpu = data.draw(st.sampled_from([10.0, 15.0, 20.0, 25.0]))
        bws = st.sampled_from([0.5, 1.0, 2.0])
        req = dataclasses.replace(
            req, vnfs=tuple(dataclasses.replace(d, cpu=cpu, ram=6 * cpu) for d in req.vnfs),
            vls=tuple(dataclasses.replace(vl, bw=data.draw(bws)) for vl in req.vls))
        floored, plain = solve_ilp1(net, req), zero_floor(solve_ilp1, net, req)
        assert outcome(floored) == outcome(plain)
        assert floored.nodes_explored <= plain.nodes_explored
        if floored.objective is not None:
            assert floored.objective >= floor_of(net, req)

    @pytest.mark.parametrize("cls, want", [(SliceClass.EMBB, 8.0), (SliceClass.URLLC, 2.0),
                                           (SliceClass.BEST_EFFORT, 0.0)])
    def test_reference_floors(self, ref, cls, want):
        """On 50-CPU, 300-GB servers two links apart, eMBB's five 25-CPU
        VNFs cut two 2 Gbps VLs, URLLC's five 15-CPU ones one 1 Gbps VL,
        and best effort's fit one server. Each optimum sits at its floor."""
        req = make_request(cls, ref.uaps[0])
        assert floor_of(ref, req) == want
        res = solve_ilp1(ref, req)
        assert res.objective == want
        assert res.nodes_explored <= zero_floor(solve_ilp1, ref, req).nodes_explored

    @pytest.mark.parametrize("bws, cut", [((5.0, 3.0, 2.0, 5.0), 3), ((5.0, 2.0, 3.0, 5.0), 2)])
    def test_unequal_bandwidths_take_the_cheaper_cut(self, ref, bws, cut):
        """URLLC fits three VNFs to a server: one cut, at VL 2 or VL 3,
        whichever carries less, two links long."""
        req = make_request(SliceClass.URLLC, ref.uaps[0])
        req = dataclasses.replace(req, vls=tuple(dataclasses.replace(vl, bw=bw)
                                                 for vl, bw in zip(req.vls, bws)))
        assert floor_of(ref, req) == 4.0
        res = solve_ilp1(ref, req)
        assert res.objective == 4.0
        assert [i for i, path in res.placement.y.items() if path] == [cut]

    def test_one_link_between_servers(self):
        """On the network of `TestBound.test_one_link_to_a_server_neighbour`
        two servers share a link, so a cut costs one link: the chain's
        floor is VL 1's 1.0, the optimum."""
        net = make_single_dc(servers=2)
        a, b = sorted(net.data_centers["dc0"].servers)
        net.add_link(a, b, 0.0, LinkKind.TRANSPORT, 10.0)
        req = two_slot_request(net)
        req = dataclasses.replace(req, vls=(req.vls[0], dataclasses.replace(req.vls[1], bw=1.5)))
        assert min(net.index().near_hops[s.id] for s in net.servers()) == 1
        assert floor_of(net, req) == 1.0
        assert solve_ilp1(net, req).objective == 1.0

    def test_structural_change_drops_the_floors(self):
        """Requests of one class share their floors. A server of twice the
        capacity, added after a solve, holds four eMBB VNFs: the next solve
        reads one cut, not two, and finds the 4.0 a stale floor of 8.0
        would have pruned."""
        net = build_reference_psn(1)
        req = make_request(SliceClass.EMBB, net.uaps[0])
        res = solve_ilp1(net, req)
        assert res.objective == 8.0
        plan = exact._chain_plan(net.index(), req)
        assert exact._chain_plan(net.index(), make_request(SliceClass.EMBB, net.uaps[1])) is plan
        root = res.placement.x[1]
        (switch, uplink), = net.adj[root]
        dc = net.nodes[root].dc
        big = net.add_server("big", dc, 100.0, 600.0)
        net.add_link(switch, big, net.links[uplink].latency_ms, LinkKind.INTRA_DC,
                     net.links[uplink].bw_capacity)
        assert floor_of(net, req) == 4.0
        res = solve_ilp1(net, req)
        assert res.objective == 4.0
        assert outcome(res) == outcome(zero_floor(solve_ilp1, net, req))


class TestPathLimit:
    """ILP-1 enumerates paths only where the bound lets the search go, so
    the path searches it runs are the ones its verdict rests on."""

    def test_ilp1_cap_counts_only_searched_enumerations(self, monkeypatch):
        """With VL 2's budget at 0.6 ms both of a's paths would fit from b
        at VNF 3, but the bound skips that enumeration: the one path search
        runs from a, and the optimum is the same 2.0."""
        net, a, b = one_slot_and_two_slot_network()
        req = two_slot_request(net, vl_budgets_ms=(0.33, 0.6))
        sources = []

        def enumerate_paths(psn, src, *args):
            sources.append(src)
            return _enumerate_paths(psn, src, *args)

        monkeypatch.setattr(exact, "_enumerate_paths", enumerate_paths)
        res = solve_ilp1(net, req)
        assert res.status is SolveStatus.OPTIMAL
        assert (res.objective, res.placement.x) == (2.0, {1: a, 2: b, 3: b})
        assert sources == [a]
        assert brute_force(net, req).objective == pytest.approx(2.0)

    def test_a_saturating_run_searches_once_per_entry(self, monkeypatch):
        """Seed 1, ILP-2 at MIX rho 2 on the scale-1 substrate, 371
        arrivals: relay links run out of bandwidth, yet every list reads a
        path entry, and a path search runs only to fill one. Searching
        afresh for each list whose entry's links no longer all carry its
        VL would make 670."""
        searches = []

        def enumerate_paths(psn, src, *args):
            searches.append(src)
            return _enumerate_paths(psn, src, *args)

        monkeypatch.setattr(exact, "_enumerate_paths", enumerate_paths)
        net = build_reference_psn(1)
        report = sim.run(net, sim.Scenario.named("MIX", 2.0, horizon=200.0), "ilp-2", 1)
        assert (report.arrivals, report.accepted) == (371, 225)
        assert len(searches) == len(path_entries(net)) == 74


# solver -> class -> (objective, x) on the empty scale-1 substrate, from
# the first UAP
REFERENCE_RESULTS = {
    solve_ilp1: {SliceClass.BEST_EFFORT: (0.0, {1: 73, 2: 73, 3: 73, 4: 73, 5: 73}),
                 SliceClass.URLLC: (2.0, {1: 73, 2: 73, 3: 73, 4: 74, 5: 74}),
                 SliceClass.EMBB: (8.0, {1: 73, 2: 73, 3: 74, 4: 74, 5: 75})},
    solve_ilp2: {SliceClass.BEST_EFFORT: (6.0, {1: 73, 2: 18, 3: 1, 4: 1, 5: 1}),
                 SliceClass.URLLC: (5.0, {1: 73, 2: 18, 3: 18, 4: 18, 5: 19}),
                 SliceClass.EMBB: (16.0, {1: 73, 2: 18, 3: 1, 4: 1, 5: 2})},
}


class TestReferenceOptima:
    @pytest.mark.parametrize("solver", [solve_ilp1, solve_ilp2])
    def test_recorded_results(self, ref, solver):
        for cls, (objective, x) in REFERENCE_RESULTS[solver].items():
            req = make_request(cls, ref.uaps[0])
            res = solver(ref, req)
            assert res.status is SolveStatus.OPTIMAL
            assert (res.objective, res.placement.x) == (pytest.approx(objective), x)
            assert res.placement.cost == bandwidth_cost(req, res.placement)
            assert check_placement(ref, req, res.placement).ok

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

    @settings(max_examples=60, deadline=None)
    @given(twinned(loaded_substrates()), st.data())
    def test_cost_is_the_chain_order_sum(self, net, data):
        """Both searches report the float `bandwidth_cost` sums, and that
        float is the chain-order sum from 0.0, exactly: VL demands such as
        0.1 and 0.7 round differently in another order. Every path held,
        a run server's uplink joined to its anchor's links, passes the
        checker."""
        req = make_request(data.draw(st.sampled_from(list(SliceClass))),
                           net.uaps[data.draw(st.integers(0, len(net.uaps) - 1))])
        cpu = data.draw(st.sampled_from([10.0, 15.0, 20.0, 25.0]))
        bws = st.sampled_from([0.1, 0.3, 0.7, 1.1, 2.0])
        req = dataclasses.replace(
            req, vnfs=tuple(dataclasses.replace(d, cpu=cpu, ram=6 * cpu) for d in req.vnfs),
            vls=tuple(dataclasses.replace(vl, bw=data.draw(bws)) for vl in req.vls))
        for solver in (solve_ilp1, solve_ilp2):
            res = solver(net, req)
            plc = res.placement
            if plc is None:
                continue
            in_order = left_sum(len(plc.y.get(i, [])) * req.vl(i).bw
                                for i in range(1, req.n_vnfs))
            assert res.objective == plc.cost == bandwidth_cost(req, plc) == in_order
            assert check_placement(net, req, plc).ok


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

    @settings(max_examples=100, deadline=None)
    @given(loaded_substrates(), st.data())
    def test_agree_on_loaded_substrates(self, net, data):
        """Servers with two links or none, thin links, and VL demands that
        rise or fall along a three-VNF chain. VNFs of 20 or 25 CPU do not
        all fit on one server, so the chain needs a path."""
        req = short_request(net, data.draw(st.sampled_from(list(SliceClass))),
                            data.draw(st.integers(0, len(net.uaps) - 1)))
        bws = data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=2, max_size=2,
                                 unique=True))
        cpu = data.draw(st.sampled_from([15.0, 20.0, 25.0]))
        req = dataclasses.replace(
            req, vnfs=tuple(dataclasses.replace(d, cpu=cpu, ram=6 * cpu) for d in req.vnfs),
            vls=tuple(dataclasses.replace(vl, bw=bw) for vl, bw in zip(req.vls, bws)))
        b = brute_force(net, req, max_servers=12)
        o, f = solve_ilp1(net, req), solve_ilp2(net, req)
        assert o.status is f.status is b.status
        if b.status is SolveStatus.OPTIMAL:
            assert o.objective == pytest.approx(b.objective, abs=1e-9)
            assert f.objective >= o.objective - 1e-9
            assert check_placement(net, req, o.placement).ok
            assert check_placement(net, req, f.placement).ok

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

    def test_every_dc_applies_the_lookahead(self):
        """Unlike P2C, the exact search applies the lookahead outside the
        previous server's DC too: the one server that VL 1 reaches, in the
        CDC, fits VNF 2 but can neither take VNF 3 nor carry VL 2, so VNF 2
        is never committed."""
        net = make_pair(edc_servers=1, cdc_servers=2)
        (root,) = net.data_centers["edc0"].servers
        near, cut_off = net.data_centers["cdc0"].servers
        req = short_request(net, SliceClass.URLLC)
        req = dataclasses.replace(req, vls=(dataclasses.replace(req.vls[0], bw=1.0),
                                            dataclasses.replace(req.vls[1], bw=2.0)))
        net.allocate(root, 35.0, 210.0)  # room for VNF 1 alone
        net.allocate(near, 30.0, 180.0)  # room for one VNF
        net.allocate_bw(link_id(net, near, net.data_centers["cdc0"].switch), 98.5)
        net.allocate_bw(link_id(net, cut_off, net.data_centers["cdc0"].switch), 100.0)
        assert near in feasible_servers(net, req, 2, root, used_e2e_ms=0.02)  # P2C exempts it
        for solver in (solve_ilp1, solve_ilp2):
            res = solver(net, req)
            assert (res.status, res.deepest_feasible_vnf) == (SolveStatus.INFEASIBLE, 1)

    @pytest.mark.parametrize("resource", ["cpu", "ram"])
    def test_chain_at_the_exact_total(self, resource):
        """Two servers hold, between them, exactly the chain's CPU (or RAM):
        two VNFs on a, one on b. One unit less and the search holds VNFs 1
        and 2 on a and finds no server for VNF 3."""
        # short units -> (status, nodes explored, deepest VNF) of ILP-1, ILP-2
        pins = {0: [("optimal", 5, 3), ("optimal", 4, 3)],
                1: [("infeasible", 3, 2), ("infeasible", 3, 2)]}
        for short, want in pins.items():
            net = make_single_dc(servers=2)
            a, b = sorted(net.data_centers["dc0"].servers)
            if resource == "cpu":
                net.allocate(b, 25.0 + short / SCALE, 0.0)
            else:
                net.allocate(b, 0.0, 150.0 + short / SCALE)
            req = two_slot_request(net)
            got = [solver(net, req) for solver in (solve_ilp1, solve_ilp2)]
            assert [(r.status.value, r.nodes_explored, r.deepest_feasible_vnf)
                    for r in got] == want
            for res in got:
                assert res.placement is None or res.placement.x == {1: a, 2: a, 3: b}

    def test_root_prune_sums_past_int64(self):
        """9,300 servers of the largest capacity a count admits hold more
        CPU units than int64 can: nothing the search reads may wrap."""
        net = PhysicalNetwork(TopologyParams())
        net.add_data_center("dc0", DCKind.EDC)
        for i in range(9300):
            net.add_server(f"s{i}", "dc0", 1e9, 1e9)
        uap = net.add_node("uap0", NodeKind.UAP)
        net.add_link(uap, net.data_centers["dc0"].switch, 0.02, LinkKind.ACCESS, None)
        net.uaps.append(uap)
        assert sum(net.index().cpu_cap) >= 2**63
        res = solve_ilp1(net, short_request(net, SliceClass.BEST_EFFORT))
        assert (res.status, res.objective, res.nodes_explored) == (SolveStatus.OPTIMAL, 0.0, 4)

    def test_empty_root_list_ends_before_the_prune(self, monkeypatch):
        """No server of the UAP's one DC has room for VNF 1, though the
        four together hold the chain: the empty VNF-1 list ends both
        searches at the root, and nothing reads the residual views."""
        net = make_single_dc(servers=4)
        for sid in net.data_centers["dc0"].servers:
            net.allocate(sid, 36.0, 0.0)  # 14 CPU left, VNF 1 needs 15
        req = short_request(net, SliceClass.URLLC)
        assert req.vnfs[0].cpu > 14.0 and sum(d.cpu for d in req.vnfs) <= 4 * 14.0
        reads = []
        vectors = PhysicalNetwork.vectors

        def counted(self):
            reads.append(self)
            return vectors(self)

        monkeypatch.setattr(PhysicalNetwork, "vectors", counted)
        for solver in (solve_ilp1, solve_ilp2):
            res = solver(net, req)
            assert (res.status, res.nodes_explored, res.deepest_feasible_vnf) == \
                   (SolveStatus.INFEASIBLE, 1, 0)
        assert reads == []

    def test_every_algorithm_blocks_where_the_chain_stops_fitting(self):
        """One 30-CPU server holds two of URLLC's 15-CPU VNFs, not three,
        though VNF 1 has a candidate: all four algorithms block at VNF 3
        and leave the residuals as they were."""
        for algorithm in sim.Algorithm:
            net = make_single_dc(servers=1, cpu=30.0)
            req = make_request(SliceClass.URLLC, net.uaps[0])
            before = residual_bytes(net)
            out = sim.place_request(net, req, algorithm, DrawStream(np.random.default_rng(1)))
            assert (out.status, out.blocking_vnf) == (OutcomeStatus.REJECTED, 3), algorithm
            assert residual_bytes(net) == before


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
        stream = DrawStream(np.random.default_rng(7))
        rng = random.Random(11)
        accepted = 0
        for i in range(40):
            cls = rng.choice(list(SliceClass))
            req = make_request(cls, net.uaps[rng.randrange(len(net.uaps))], request_id=i)
            exact = solve_ilp1(net, req)
            outcome = p2c_place(net, req, policy, stream)
            if outcome.status is OutcomeStatus.ACCEPTED:
                accepted += 1
                assert exact.status is SolveStatus.OPTIMAL
                assert outcome.cost >= exact.objective - 1e-9
        assert accepted >= 20


def search_records(monkeypatch, scale: int, horizon: float) -> list[tuple]:
    """(status, objective, nodes explored, deepest feasible VNF) of ILP-2
    and then ILP-1 on each request of a seeded ILP-1 run, MIX at rho 1, on
    the state the request met. ILP-1's result drives the run."""
    records = []

    def solve(net, request, **kwargs):
        for solver in (exact.solve_ilp2, exact.solve_ilp1):
            res = solver(net, request, **kwargs)
            records.append((res.status.value, res.objective, res.nodes_explored,
                            res.deepest_feasible_vnf))
        return res

    monkeypatch.setattr(sim, "solve_ilp1", solve)
    sim.run(build_reference_psn(scale), sim.Scenario.named("MIX", 1.0, horizon=horizon),
            "ilp-1", 3)
    return records


# scale -> (horizon, solves, ILP-2 nodes, ILP-1 nodes, sha256 of the
# records' JSON), as the search explored them once ILP-1 bounded with the
# chain's floors. The results digests see only placements; these see the
# search: a twin representative, candidate order or bound that changes
# which branches are explored changes them.
SEARCH_GOLDEN = {
    1: (400.0, 363, 1453, 1678, "eecf8497e2f4020a328a9271240c06a67be9b0115e3b6f108d477caa58068d40"),
    2: (200.0, 363, 1628, 2191, "0a96d382dccf71b44ea79e2982d1f6f4b8984bc89c2c98f873f7b32569310415"),
}


class TestSearchGolden:
    @pytest.mark.parametrize("scale", sorted(SEARCH_GOLDEN))
    def test_node_counts_pinned(self, monkeypatch, scale):
        horizon, *want = SEARCH_GOLDEN[scale]
        records = search_records(monkeypatch, scale, horizon)
        got = [len(records) // 2, sum(r[2] for r in records[::2]),
               sum(r[2] for r in records[1::2]),
               hashlib.sha256(json.dumps(records).encode()).hexdigest()]
        assert got == want


def boundary_cases(monkeypatch) -> list[tuple]:
    """About twenty (substrate, request) pairs of the scale-1 ILP-1 run of
    `search_records`, each on the state the request met: the first six
    whose optimum colocates the whole chain, the six accepted ones that
    explore the most nodes among those whose last two VNFs share a server
    while the chain does not, the first four other accepted ones and the
    first four rejections."""
    met = []

    def solve(net, request, **kwargs):
        met.append((net.clone(), request))
        return solve_ilp1(net, request, **kwargs)

    monkeypatch.setattr(sim, "solve_ilp1", solve)
    sim.run(build_reference_psn(1), sim.Scenario.named("MIX", 1.0, horizon=400.0),
            "ilp-1", 3)
    kinds: dict[str, list[tuple]] = {"whole": [], "tail": [], "other": [], "rejected": []}
    for net, req in met:
        res = solve_ilp1(net, req, max_nodes=None)
        x = res.placement.x if res.placement else None
        kind = ("rejected" if x is None else "whole" if len(set(x.values())) == 1
                else "tail" if x[req.n_vnfs - 1] == x[req.n_vnfs] else "other")
        kinds[kind].append((net, req, res.nodes_explored))
    kinds["tail"].sort(key=lambda case: -case[2])  # stable: ties in request order
    return [case for kind, k in (("whole", 6), ("tail", 6), ("other", 4), ("rejected", 4))
            for case in kinds[kind][:k]]


# (records, sha256 of their JSON) of `TestBudgetBoundary`, recorded once
# ILP-1 bounded with the chain's floors
BOUNDARY_GOLDEN = (173, "dc1afb1e5974ac4366c482b3280686982ded9ca3be3e2614ef3a1498cfa1c5d3")


class TestBudgetBoundary:
    def test_every_budget_pinned(self, monkeypatch):
        """ILP-1 on each boundary case at every node budget from 1 to one
        past the nodes the unbudgeted solve explores: where the budget
        trips, what it reports and the best placement known by then. Each
        placement's cost, and ILP-2's, is the float `bandwidth_cost` sums."""
        records = []
        for net, req, nodes in boundary_cases(monkeypatch):
            plc = solve_ilp2(net, req).placement
            assert plc is None or plc.cost == bandwidth_cost(req, plc)
            for budget in range(1, nodes + 2):
                res = solve_ilp1(net, req, max_nodes=budget)
                plc = res.placement
                assert plc is None or plc.cost == bandwidth_cost(req, plc)
                records.append((req.id, budget, res.status.value, res.objective,
                                res.nodes_explored, res.deepest_feasible_vnf,
                                plc and list(plc.x.items()),
                                plc and [(i, list(p)) for i, p in plc.y.items()]))
        assert (len(records), hashlib.sha256(json.dumps(records).encode()).hexdigest()) == \
               BOUNDARY_GOLDEN

    def test_the_floor_loses_no_optimum(self, monkeypatch):
        """At every budget up to one past the nodes the search without
        floors explores: wherever that search does not trip its budget, the
        floored one reports the same, from no more nodes. Where it trips,
        the floored search, which skips nodes, may already have finished,
        and then reports OPTIMAL, not BUDGET_EXCEEDED: on some budget it
        does."""
        upgraded = 0
        for net, req, _ in boundary_cases(monkeypatch):
            nodes = zero_floor(solve_ilp1, net, req, max_nodes=None).nodes_explored
            for budget in range(1, nodes + 2):
                floored = solve_ilp1(net, req, max_nodes=budget)
                plain = zero_floor(solve_ilp1, net, req, max_nodes=budget)
                if plain.status is SolveStatus.BUDGET_EXCEEDED:
                    upgraded += floored.status is SolveStatus.OPTIMAL
                    continue
                assert outcome(floored) == outcome(plain)
                assert floored.nodes_explored <= plain.nodes_explored
        assert upgraded > 0
