"""Substrate model: construction, capacity accounting, latency, serialization."""

from __future__ import annotations

import copy
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceplace import topology
from sliceplace.nspr import SliceClass, make_request
from sliceplace.placement import Placement, feasible_servers, latency_reach
from sliceplace.topology import (
    SCALE,
    TIER_ORDER,
    CapacityError,
    DCKind,
    LinkKind,
    NodeKind,
    PhysicalNetwork,
    ReleaseError,
    Server,
    StructureIndex,
    TopologyError,
    TopologyParams,
    build_reference_psn,
    left_sum,
    params_from_json,
    to_units,
)

from conftest import forbid_build, heap_pushes, make_pair
from oracles import (LINK_LATENCIES, fits, loaded_substrates, per_vnf_writes,
                     plain_access_latency, residual_bytes)


class TestParams:
    def test_defaults(self):
        p = TopologyParams()
        assert (p.ccp_count, p.cdc_count, p.edc_count) == (1, 5, 15)
        assert (p.servers_per_ccp, p.servers_per_cdc, p.servers_per_edc) == (16, 10, 4)
        assert (p.server_cpu, p.server_ram) == (50.0, 300.0)
        assert (p.ccp_bw_gbps, p.cdc_bw_gbps, p.edc_bw_gbps) == (100.0, 100.0, 10.0)
        assert (p.cdc_edc_km, p.cdc_ccp_km, p.cdc_cdc_km) == (100.0, 300.0, 300.0)
        assert p.access_latency_ms == 0.02

    def test_link_latency_default_propagation(self):
        p = TopologyParams()
        # 100 km of fiber at 3.0e8 m/s, rounded to 2 decimals
        assert p.link_latency_ms(100) == 0.33
        assert p.link_latency_ms(300) == 1.0

    def test_link_latency_slower_propagation(self):
        p = TopologyParams(propagation_mps=2.0e8)
        assert p.link_latency_ms(100) == 0.5
        assert p.link_latency_ms(300) == 1.5

    @pytest.mark.parametrize("field,value", [
        ("scale", 0),
        ("scale", -1),
        ("server_cpu", 0.0),
        ("server_ram", -5.0),
        ("edc_bw_gbps", 0.0),
        ("propagation_mps", 0.0),
        ("cdc_edc_km", -1.0),
    ])
    def test_invalid_params_rejected(self, field, value):
        import dataclasses
        p = dataclasses.replace(TopologyParams(), **{field: value})
        with pytest.raises((ValueError, TopologyError)):
            p.validate()

    @pytest.mark.parametrize("params", [
        TopologyParams(),
        TopologyParams(scale=3, ccp_count=2, cdc_count=3, edc_count=9, servers_per_ccp=1),
        TopologyParams(cdc_count=7, edc_count=7, servers_per_cdc=1, servers_per_edc=2),
    ], ids=["reference", "two_ccps", "cdc_mesh"])
    def test_size_bound_counts_what_is_built(self, monkeypatch, params):
        """`validate` refuses parameters whose substrate would have more
        than MAX_GENERATED links (no fewer than servers), counted exactly:
        a bound at the built count passes, one below it is refused."""
        links = len(build_reference_psn(params.scale, params).links)
        monkeypatch.setattr(topology, "MAX_GENERATED", links)
        params.validate()
        monkeypatch.setattr(topology, "MAX_GENERATED", links - 1)
        with pytest.raises(TopologyError, match=f"and {links} links; at most {links - 1}"):
            params.validate()

    def test_reference_bound(self, monkeypatch):
        """The default parameters build up to scale 793 (99,918 servers,
        99,963 links); scale 794 and 2**70 are refused before anything is
        built."""
        TopologyParams(scale=793).validate()
        forbid_build(monkeypatch)
        for scale in (794, 2**70):
            with pytest.raises(TopologyError, match="at most 100000"):
                build_reference_psn(scale)


class TestReferenceBuild:
    def test_scale1_inventory(self, ref):
        assert len(ref.servers()) == 126
        assert len(ref.uaps) == 15
        assert len(ref.links) == 171
        kinds = {}
        for link in ref.links:
            kinds[link.kind] = kinds.get(link.kind, 0) + 1
        assert kinds[LinkKind.INTRA_DC] == 126
        # 10 mesh + 5 up to the CCP + 15 down to EDCs
        assert kinds[LinkKind.TRANSPORT] == 30
        assert kinds[LinkKind.ACCESS] == 15
        tiers = {DCKind.CCP: 0, DCKind.CDC: 0, DCKind.EDC: 0}
        for dc in ref.data_centers.values():
            tiers[dc.kind] += len(dc.servers)
        assert tiers == {DCKind.CCP: 16, DCKind.CDC: 50, DCKind.EDC: 60}

    def test_scale_multiplies_servers_only(self):
        net2 = build_reference_psn(2)
        assert len(net2.servers()) == 252
        assert len(net2.data_centers) == 21
        # transport skeleton unchanged
        n_transport = sum(1 for l in net2.links if l.kind == LinkKind.TRANSPORT)
        assert n_transport == 30

    def test_scale128_inventory(self):
        net = build_reference_psn(128)
        assert len(net.servers()) == 16128

    def test_total_capacity(self, ref):
        assert ref.total_cpu_capacity() == 6300.0
        assert sum(s.ram_capacity for s in ref.servers()) == 37800.0

    def test_intra_dc_links_zero_latency(self, ref):
        for link in ref.links:
            if link.kind == LinkKind.INTRA_DC:
                assert link.latency_ms == 0.0

    def test_transport_latencies(self, ref):
        by_pair = {}
        for link in ref.links:
            if link.kind != LinkKind.TRANSPORT:
                continue
            ka = ref.dc_of(link.a).kind
            kb = ref.dc_of(link.b).kind
            by_pair.setdefault(frozenset((ka, kb)), set()).add(link.latency_ms)
        assert by_pair[frozenset((DCKind.CDC, DCKind.EDC))] == {0.33}
        assert by_pair[frozenset((DCKind.CDC, DCKind.CCP))] == {1.0}
        assert by_pair[frozenset((DCKind.CDC,))] == {1.0}

    def test_transport_latencies_unrounded(self):
        """`latency_round_decimals: null` leaves each transport latency as
        km / propagation: 100 km at 3.0e8 m/s is 1/3 ms, not 0.33."""
        params = params_from_json({"latency_round_decimals": None})
        assert params.link_latency_ms(100) == 1 / 3
        net = build_reference_psn(1, params)
        by_pair = {}
        for link in net.links:
            if link.kind == LinkKind.TRANSPORT:
                kinds = frozenset((net.dc_of(link.a).kind, net.dc_of(link.b).kind))
                by_pair.setdefault(kinds, set()).add(link.latency_ms)
        assert by_pair == {frozenset((DCKind.CDC, DCKind.EDC)): {1 / 3},
                           frozenset((DCKind.CDC, DCKind.CCP)): {1.0},
                           frozenset((DCKind.CDC,)): {1.0}}

    def test_transport_bw_capped_by_slower_tier(self, ref):
        for link in ref.links:
            if link.kind != LinkKind.TRANSPORT:
                continue
            ka = ref.dc_of(link.a).kind
            kb = ref.dc_of(link.b).kind
            expect = 10.0 if DCKind.EDC in (ka, kb) else 100.0
            assert link.bw_capacity == expect

    def test_access_links_uncapacitated(self, ref):
        for link in ref.links:
            if link.kind == LinkKind.ACCESS:
                assert link.bw_capacity is None
                assert link.latency_ms == 0.02

    def test_access_latency_per_tier(self, ref):
        uap = ref.uaps[0]
        neighbor, _ = ref.adj[uap][0]
        home = ref.dc_of(neighbor)
        assert home.kind == DCKind.EDC
        assert ref.access_latency(uap, home.id) == 0.02
        cdc_vals = {ref.access_latency(uap, dc.id)
                    for dc in ref.data_centers.values() if dc.kind == DCKind.CDC}
        assert min(cdc_vals) == pytest.approx(0.35, abs=1e-12)
        ccp = next(dc for dc in ref.data_centers.values() if dc.kind == DCKind.CCP)
        assert ref.access_latency(uap, ccp.id) == pytest.approx(1.35, abs=1e-12)
        # every other EDC sits across at least two transport hops
        other_edc = {ref.access_latency(uap, dc.id)
                     for dc in ref.data_centers.values()
                     if dc.kind == DCKind.EDC and dc.id != home.id}
        assert min(other_edc) == pytest.approx(0.68, abs=1e-12)

    def test_clone_keeps_latency_cache_apart(self):
        net = make_pair()
        uap = net.uaps[0]
        assert net.access_latency(uap, "cdc0") == pytest.approx(0.35)
        twin = net.clone()
        # a shortcut on the clone must not leak into the original's latencies
        twin.add_link(uap, twin.data_centers["cdc0"].switch, 0.05, LinkKind.ACCESS, None)
        assert twin.access_latency(uap, "cdc0") == pytest.approx(0.05)
        assert net.access_latency(uap, "cdc0") == pytest.approx(0.35)

    def test_uaps_follow_edc_order(self, ref):
        for i, uap in enumerate(ref.uaps):
            neighbor, _ = ref.adj[uap][0]
            edc = ref.dc_of(neighbor)
            assert edc.id == f"edc{i}"

    def test_validate_passes(self, ref):
        ref.validate()

    def test_intra_link_nonzero_latency_rejected(self):
        net = make_pair()
        edc = net.data_centers["edc0"]
        with pytest.raises(TopologyError):
            net.add_link(edc.switch, edc.servers[0], 0.1, LinkKind.INTRA_DC, 10.0)

    def test_second_link_between_two_nodes_rejected(self):
        net = make_pair()
        edc, cdc = net.data_centers["edc0"], net.data_centers["cdc0"]
        adj = [list(entries) for entries in net.adj]
        # either direction, and from the busier end (a switch) or the lone one
        for a, b in ((edc.switch, cdc.switch), (cdc.switch, edc.switch),
                     (edc.switch, edc.servers[0]), (edc.servers[0], edc.switch)):
            with pytest.raises(TopologyError, match="already linked"):
                net.add_link(a, b, 0.0, LinkKind.TRANSPORT, 10.0)
        assert net.adj == adj and len(net.bw_units) == len(net.links)

    def test_scale_zero_rejected(self):
        with pytest.raises((ValueError, TopologyError)):
            build_reference_psn(0)


class TestAccessLatency:
    @settings(max_examples=150, deadline=None)
    @given(loaded_substrates(), st.data())
    def test_is_the_plain_dijkstra(self, net, data):
        """Every UAP's latency to every DC is a plain Dijkstra's over every
        link, as the same float. Some draws add a DC whose switch's one link
        goes to a router its servers hang off (a leaf switch, which the
        relay search does not enter), some a DC with no link (+inf)."""
        if data.draw(st.booleans()):
            lats = st.sampled_from(LINK_LATENCIES)
            router = net.add_node("r", NodeKind.ROUTER)
            net.add_link(router, data.draw(st.sampled_from(range(len(net.nodes) - 1))),
                         data.draw(lats), LinkKind.TRANSPORT, 10.0)
            dc = net.add_data_center("leaf", data.draw(st.sampled_from(list(DCKind))))
            net.add_link(router, dc.switch, data.draw(lats), LinkKind.TRANSPORT, 10.0)
            for i in range(data.draw(st.integers(1, 2))):
                sid = net.add_server(f"leaf-s{i}", "leaf", 50.0, 300.0)
                net.add_link(router, sid, 0.0, LinkKind.INTRA_DC, 10.0)
        if data.draw(st.booleans()):
            net.add_data_center("cut", DCKind.EDC)
        for uap in net.uaps:
            assert {dc_id: net.access_latency(uap, dc_id) for dc_id in net.data_centers} \
                == plain_access_latency(net, uap)

    def test_one_fill_pushes_no_server(self, monkeypatch):
        """A UAP's latencies come from a search over relay nodes alone: on
        the scale-64 reference substrate (8,064 servers) its fill pushes
        switches only."""
        net = build_reference_psn(64)
        net.index()
        pushed = heap_pushes(monkeypatch)
        assert net.access_latency(net.uaps[0], "ccp0") == pytest.approx(1.35, abs=1e-12)
        assert pushed and all(net.nodes[u].kind is NodeKind.SWITCH for u in pushed)

    @pytest.mark.parametrize("node", [-1, "len", "server", "switch"])
    def test_only_a_uap_is_asked(self, psn, node):
        """An id that is not a UAP's is refused, an out-of-range one
        included: -1 would read the last node, a UAP, and cache its
        latencies under -1."""
        node = {"len": len(psn.nodes), "server": psn.servers()[0].id,
                "switch": psn.data_centers["edc0"].switch}.get(node, node)
        with pytest.raises(TopologyError, match="is not a UAP"):
            psn.access_latency(node, "edc14")
        assert node not in psn.index().alpha


def test_left_sum_adds_left_to_right():
    """The 3.11 `sum()`'s float, which 3.12's compensated `sum()` is not."""
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert left_sum([]) == 0.0


class TestCapacityAccounting:
    def test_allocate_release_roundtrip(self):
        net = make_pair()
        sid = net.data_centers["edc0"].servers[0]
        net.allocate(sid, 15, 90)
        assert net.residual(sid) == (35.0, 210.0)
        net.release(sid, 15, 90)
        assert net.residual(sid) == (50.0, 300.0)

    def test_over_allocate_raises_and_leaves_state(self):
        net = make_pair()
        sid = net.data_centers["edc0"].servers[0]
        net.allocate(sid, 40, 100)
        with pytest.raises(CapacityError):
            net.allocate(sid, 20, 10)
        assert net.residual(sid) == (10.0, 200.0)

    def test_partial_fit_rejected_atomically(self):
        # enough cpu, not enough ram: neither dimension may move
        net = make_pair()
        sid = net.data_centers["edc0"].servers[0]
        with pytest.raises(CapacityError):
            net.allocate(sid, 10, 400)
        assert net.residual(sid) == (50.0, 300.0)

    def test_release_above_capacity_raises(self):
        net = make_pair()
        sid = net.data_centers["edc0"].servers[0]
        with pytest.raises(ReleaseError):
            net.release(sid, 1, 0)

    def test_negative_amounts_rejected(self):
        net = make_pair()
        sid = net.data_centers["edc0"].servers[0]
        with pytest.raises(ValueError):
            net.allocate(sid, -1, 0)
        with pytest.raises(ValueError):
            net.release(sid, 0, -1)

    def test_bandwidth_accounting(self):
        net = make_pair()
        link = next(l for l in net.links if l.kind == LinkKind.TRANSPORT)
        net.allocate_bw(link.id, 1)
        assert net.bw_residual(link.id) == 9.0
        with pytest.raises(CapacityError):
            net.allocate_bw(link.id, 9.5)
        net.release_bw(link.id, 1)
        assert net.bw_residual(link.id) == 10.0
        with pytest.raises(ReleaseError):
            net.release_bw(link.id, 0.5)

    def test_write_units_checks_every_slot_before_writing(self):
        net = make_pair()
        sid = net.data_centers["edc0"].servers[0]
        other = net.data_centers["cdc0"].servers[0]
        transport = next(l.id for l in net.links if l.kind == LinkKind.TRANSPORT)
        access = next(l.id for l in net.links if l.kind == LinkKind.ACCESS)
        net.allocate(sid, 15, 90)
        before = residual_bytes(net)
        # the first server and link would fit; a later slot refuses them all
        for sign, servers, links, error in (
                (1, {sid: (1, 1), other: (1, 0)}, {}, ReleaseError),
                (-1, {sid: (1, 1)}, {transport: 1, access: 1}, TopologyError),
                (-1, {sid: (1, 1)}, {transport: 10 * SCALE + 1}, CapacityError),
                (1, {sid: (1, 1), net.data_centers["edc0"].switch: (1, 1)}, {}, TopologyError),
                (1, {sid: (1, 1), len(net.nodes): (1, 1)}, {}, TopologyError),
                (-1, {}, {transport: 1, len(net.links): 1}, TopologyError)):
            with pytest.raises(error):
                net.write_units(sign, servers, links)
            assert residual_bytes(net) == before
        net.write_units(1, {sid: (15 * SCALE, 90 * SCALE)}, {transport: 0})
        assert net.residual(sid) == (50.0, 300.0)

    def test_bw_on_uncapacitated_link_rejected(self):
        net = make_pair()
        access = next(l for l in net.links if l.kind == LinkKind.ACCESS)
        with pytest.raises(TopologyError):
            net.allocate_bw(access.id, 1)

    def test_server_fits(self):
        # a demand fits up to the residual, to the unit
        net = make_pair()
        sid = net.data_centers["edc0"].servers[0]
        with pytest.raises(CapacityError):
            net.allocate(sid, 50 + 1 / SCALE, 300)
        net.allocate(sid, 15, 90)
        with pytest.raises(CapacityError):
            net.allocate(sid, 35, 210 + 1 / SCALE)
        net.allocate(sid, 35, 210)
        assert net.residual(sid) == (0.0, 0.0)

    @pytest.mark.parametrize("amount", [0.1234567, -1.0, float("nan"), float("inf"), 1e10])
    def test_amount_outside_the_unit_rejected(self, amount):
        net = make_pair()
        sid = net.data_centers["edc0"].servers[0]
        lid = next(l.id for l in net.links if l.kind == LinkKind.TRANSPORT)
        for call in (lambda: net.allocate(sid, amount, 1.0),
                     lambda: net.allocate(sid, 1.0, amount),
                     lambda: net.allocate_bw(lid, amount),
                     lambda: net.add_server("s", "edc0", amount, 300.0),
                     lambda: net.add_link(sid, net.data_centers["cdc0"].switch, 0.0,
                                          LinkKind.TRANSPORT, amount)):
            with pytest.raises(TopologyError):
                call()
        assert net.residual(sid) == (50.0, 300.0)
        assert net.bw_residual(lid) == 10.0


# demands in residual units, around the 50-CPU, 300-GB servers and the
# 0.5-10 Gbps links of `loaded_substrates`
_HOLD_UNITS = st.sampled_from([0, 1, 10 * SCALE, 25 * SCALE, 60 * SCALE, 300 * SCALE + 1])
_HOLD_BW = st.sampled_from([0, 1, SCALE // 2, SCALE, 10 * SCALE + 1])


class TestHold:
    """`hold` takes a VNF's units on a server and a VL's on each link of a
    path: all of them or, refusing as `allocate` and `allocate_bw` would,
    none."""

    @settings(max_examples=200, deadline=None)
    @given(loaded_substrates(), st.data())
    def test_refuses_as_allocate_and_allocate_bw(self, net, data):
        sid = data.draw(st.integers(-1, len(net.nodes)))
        cpu, ram = data.draw(_HOLD_UNITS), data.draw(_HOLD_UNITS)
        path = data.draw(st.lists(st.integers(-1, len(net.links)), unique=True, max_size=4))
        bw = data.draw(_HOLD_BW)
        # the float calls, one demand at a time, on a clone
        ref = net.clone()
        try:
            ref.allocate(sid, cpu / SCALE, ram / SCALE)
            for lid in path:
                ref.allocate_bw(lid, bw / SCALE)
        except (TopologyError, CapacityError) as exc:
            want = type(exc)
        else:
            want = None
        # the server verdict is also checked on its own, against the plain rule
        if not (0 <= sid < len(net.nodes) and isinstance(net.nodes[sid], Server)):
            assert want is TopologyError
        elif not fits(net, sid, cpu / SCALE, ram / SCALE):
            assert want is CapacityError
        before = residual_bytes(net)
        if want is None:
            net.hold(sid, cpu, ram, path, bw)
            assert residual_bytes(net) == residual_bytes(ref)
            net.give_back(sid, cpu, ram, path, bw)
        else:
            with pytest.raises((TopologyError, CapacityError)) as info:
                net.hold(sid, cpu, ram, path, bw)
            assert type(info.value) is want
        assert residual_bytes(net) == before

    def test_give_back_returns_what_hold_took(self):
        net = make_pair()
        sid = net.data_centers["edc0"].servers[0]
        path = [lid for _, lid in net.adj[sid]] + [
            next(l.id for l in net.links if l.kind == LinkKind.TRANSPORT)]
        before = residual_bytes(net)
        net.hold(sid, 15 * SCALE, 90 * SCALE, path, SCALE)
        net.hold(sid, 15 * SCALE, 90 * SCALE, path, SCALE)
        assert net.residual(sid) == (20.0, 120.0)
        assert [net.bw_residual(lid) for lid in path] == [8.0, 8.0]
        net.give_back(sid, 15 * SCALE, 90 * SCALE, path, SCALE)
        net.give_back(sid, 15 * SCALE, 90 * SCALE, path, SCALE)
        assert residual_bytes(net) == before
        net.hold(sid, 15 * SCALE, 90 * SCALE, path, SCALE)
        assert net.residual(sid) == (35.0, 210.0)
        # the network keeps no record of the holds beside the arrays
        assert vars(net).keys() == vars(PhysicalNetwork()).keys()

    @settings(max_examples=150, deadline=None)
    @given(loaded_substrates(), st.data())
    def test_nested_holds_roll_back_and_commit_as_per_vnf_writes(self, net, data):
        """A chain's holds, nested as the placers nest them: kept, they
        leave the residuals a plain per-VNF model writes; the newest k
        given back, newest first, those of the chain's first n - k VNFs;
        all given back, the starting bytes."""
        req = make_request(data.draw(st.sampled_from(list(SliceClass))), net.uaps[0])
        servers = [s.id for s in net.servers()]
        accounted = [l.id for l in net.links if l.bw_capacity is not None]
        x = {v: data.draw(st.sampled_from(servers)) for v in range(1, req.n_vnfs + 1)}
        y = {i: data.draw(st.lists(st.sampled_from(accounted), unique=True, max_size=3))
             if accounted else [] for i in range(1, req.n_vnfs)}
        start, at_start = residual_bytes(net), net.clone()
        arrays = lambda: [list(a) for a in (net.cpu_units, net.ram_units, net.bw_units)]

        def writes(n: int):
            """The per-VNF model's residuals with VNFs 1..n held."""
            return per_vnf_writes(at_start, req, Placement(
                {v: x[v] for v in range(1, n + 1)},
                {i: y[i] for i in range(1, n)}, 0.0), -1)

        held = []
        for v, sid in x.items():
            cpu, ram = req.vnfs[v - 1].units
            path, bw = (y[v - 1], req.vls[v - 2].bw_units) if v > 1 else ((), 0)
            try:
                net.hold(sid, cpu, ram, path, bw)
            except CapacityError:
                break
            held.append((sid, cpu, ram, path, bw))
        want = writes(req.n_vnfs)
        assert (len(held) == req.n_vnfs) == (want is not None)
        assert arrays() == list(writes(len(held)))
        for _ in range(data.draw(st.integers(0, len(held)))):
            net.give_back(*held.pop())
            assert arrays() == list(writes(len(held)))
        if not data.draw(st.booleans()):
            while held:
                net.give_back(*held.pop())
            assert residual_bytes(net) == start


class TestSnapshotRestore:
    def test_roundtrip_bit_exact(self):
        net = make_pair()
        snap = net.snapshot()
        sid = net.data_centers["edc0"].servers[0]
        link = next(l for l in net.links if l.kind == LinkKind.TRANSPORT)
        net.allocate(sid, 15, 90)
        net.allocate_bw(link.id, 3)
        net.restore(snap)
        assert net.residual(sid) == (50.0, 300.0)
        assert net.bw_residual(link.id) == 10.0

    def test_foreign_snapshot_rejected(self):
        a = make_pair()
        b = make_pair()
        with pytest.raises(TopologyError):
            b.restore(a.snapshot())

    def test_clone_accepts_snapshot_and_is_independent(self):
        net = make_pair()
        twin = net.clone()
        sid = net.data_centers["edc0"].servers[0]
        twin.allocate(sid, 10, 60)
        assert net.residual(sid) == (50.0, 300.0)
        assert twin.residual(sid) == (40.0, 240.0)
        twin.restore(net.snapshot())
        assert twin.residual(sid) == (50.0, 300.0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(500_000, 12_000_000),
                              st.integers(1_000_000, 70_000_000)), max_size=12),
           st.data())
    def test_restore_after_arbitrary_traffic(self, ops, data):
        net = make_pair()
        servers = sorted(net.data_centers["edc0"].servers
                         + net.data_centers["cdc0"].servers)
        snap = net.snapshot()
        for idx, cpu, ram in ops:
            try:
                net.allocate(servers[idx], cpu / SCALE, ram / SCALE)
            except CapacityError:
                pass
        net.restore(snap)
        for sid in servers:
            assert net.residual(sid) == (50.0, 300.0)


# one step of a random substrate workload: capacity calls on a fixed pool of
# servers and links, with fractional demands, holds of fractional units, and
# the newest hold given back or kept
_TX_OPS = st.one_of(
    st.tuples(st.sampled_from(["allocate", "release"]), st.integers(0, 3),
              st.sampled_from([0.1, 0.3, 0.7, 2.5]), st.sampled_from([0.1, 0.3, 1.7])),
    st.tuples(st.sampled_from(["allocate_bw", "release_bw"]), st.integers(0, 3),
              st.sampled_from([0.1, 0.3, 0.7])),
    st.tuples(st.just("hold"), st.integers(0, 3),
              st.sampled_from([100_000, 300_000, 700_000, 2_500_000]),
              st.sampled_from([100_000, 300_000, 1_700_000]),
              st.lists(st.integers(0, 3), unique=True, max_size=3),
              st.sampled_from([0, 100_000, 300_000, 700_000])),
    st.tuples(st.sampled_from(["give_back", "keep"])),
)


class TestTransactions:
    """A hold and its `give_back` bracket a transaction of one step: the
    placers give back only what they held, newest first."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(_TX_OPS, max_size=40), st.lists(st.booleans(), max_size=40))
    def test_rollback_restores_exactly(self, ops, closes):
        net = make_pair()
        servers = sorted(net.data_centers["edc0"].servers
                         + net.data_centers["cdc0"].servers)
        links = [l.id for l in net.links if l.bw_capacity is not None]
        # (hold arguments, full document before the hold) per open hold,
        # newest last; a write between a hold and its return keeps the
        # document from coming back, so an open hold's entry is cleared
        open_tx: list[tuple[tuple, str | None]] = []

        def close(give_back: bool) -> None:
            args, before = open_tx.pop()
            if give_back:
                net.give_back(*args)
                if before is not None:
                    assert json.dumps(net.to_json()) == before
            else:
                open_tx[:] = [(a, None) for a, _ in open_tx]

        for op in ops:
            name = op[0]
            if name == "hold":
                args = (servers[op[1] % len(servers)], op[2], op[3],
                        list(dict.fromkeys(links[k % len(links)] for k in op[4])), op[5])
                before = json.dumps(net.to_json())
                try:
                    net.hold(*args)
                except CapacityError:
                    assert json.dumps(net.to_json()) == before
                else:
                    open_tx.append((args, before))
            elif name in ("give_back", "keep"):
                if open_tx:
                    close(name == "give_back")
            elif name.startswith("allocate") or not open_tx:
                # a release while a hold is open could return the hold's
                # units, which only its give_back may
                pool = servers if name in ("allocate", "release") else links
                try:
                    getattr(net, name)(pool[op[1] % len(pool)], *op[2:])
                except (CapacityError, ReleaseError):
                    pass
                else:
                    open_tx[:] = [(a, None) for a, _ in open_tx]
        for give_back in closes + [True] * len(open_tx):
            if not open_tx:
                break
            close(give_back)
        net.validate()

    def test_fractional_rollback_is_exact(self):
        net = make_pair()
        sid = net.data_centers["edc0"].servers[0]
        lid = next(l.id for l in net.links if l.kind == LinkKind.TRANSPORT)
        net.allocate(sid, 0.3, 0.1)
        before = json.dumps(net.to_json())
        held = [(sid, to_units(0.1), to_units(0.3), [lid], to_units(0.1)),
                (sid, to_units(0.7), to_units(2.1), [], 0)] * 7
        for args in held:
            net.hold(*args)
        assert net.residual(sid) == (44.1, 283.1)
        for args in reversed(held):
            net.give_back(*args)
        assert json.dumps(net.to_json()) == before


class TestStructureIndex:
    def test_clone_lists_its_own_servers(self):
        net = make_pair()
        twin = net.clone()
        for s in twin.servers():
            twin.allocate(s.id, 10, 60)
        assert [net.residual(s.id) for s in net.servers()] == [(50.0, 300.0)] * 4
        assert [twin.residual(s.id) for s in twin.servers()] == [(40.0, 240.0)] * 4
        # its own containers and residual arrays; the structure index with
        # its caches and the node objects are shared, not rebuilt
        assert twin.data_centers["edc0"].servers is not net.data_centers["edc0"].servers
        assert twin.nodes is not net.nodes and twin.adj[0] is not net.adj[0]
        assert twin.index() is net.index()
        assert all(a is b for a, b in zip(net.nodes, twin.nodes))
        for a, b in zip(net.vectors(), twin.vectors()):
            assert not np.shares_memory(a, b)

    def test_capacity_changes_keep_the_index(self):
        net = make_pair()
        idx = net.index()
        net.allocate(net.servers()[0].id, 10, 60)
        net.allocate_bw(net.links[0].id, 1.0)
        assert net.index() is idx

    def test_add_server_and_link_after_a_search(self):
        net = make_pair()
        sw = net.data_centers["edc0"].switch
        before = set(latency_reach(net, sw, 1.0, 5.0))
        sid = net.add_server("edc0-s99", "edc0", 50.0, 300.0)
        assert sid in [s.id for s in net.servers()]
        assert net.index().tier_rank[sid] == TIER_ORDER.index(DCKind.EDC)
        assert sid in net.data_centers["edc0"].servers
        assert sid not in latency_reach(net, sw, 1.0, 5.0)
        lid = net.add_link(sid, sw, 0.0, LinkKind.INTRA_DC, 10.0)
        assert net.adj[sid] == [(sw, lid)]
        assert net.index().relay_adj[sid] == ((sw, lid),)
        assert set(latency_reach(net, sw, 1.0, 5.0)) == before | {sid}

    def test_structural_changes_drop_the_index(self):
        net = make_pair()
        uap = net.uaps[0]
        request = make_request(SliceClass.BEST_EFFORT, uap)
        twin = net.clone()
        twin_idx = twin.index()
        assert net.access_latency(uap, "cdc0") == pytest.approx(0.35)
        roots = feasible_servers(net, request, 1, None)  # fills the root plan
        last = net.data_centers["edc0"].servers[0]
        later = feasible_servers(net, request, 2, last)  # and a later VNF's
        assert len(net.index().plans) == 2
        dc = net.add_data_center("cdc1", DCKind.CDC)
        # known but not linked yet: unreachable, not a stale cache entry
        assert net.access_latency(uap, "cdc1") == float("inf")
        sid = net.add_server("cdc1-s00", "cdc1", 50.0, 300.0)
        net.add_link(dc.switch, sid, 0.0, LinkKind.INTRA_DC, 100.0)
        assert net.access_latency(uap, "cdc1") == float("inf")
        # within the class's access bound, so its server joins the roots
        net.add_link(net.data_centers["edc0"].switch, dc.switch, 0.03, LinkKind.TRANSPORT, 10.0)
        net.allocate(sid, 10.0, 60.0)
        assert net.access_latency(uap, "cdc1") == pytest.approx(0.05)
        assert list(feasible_servers(net, request, 1, None)) == list(roots) + [sid]
        # reached from last now: a plan kept from before would lack its run
        assert list(feasible_servers(net, request, 2, last)) == list(later) + [sid]
        fresh = PhysicalNetwork.from_json(net.to_json())
        fresh.access_latency(uap, "cdc1")
        feasible_servers(fresh, request, 1, None)
        feasible_servers(fresh, request, 2, last)
        idx, want = net.index(), fresh.index()
        for name in StructureIndex._fields:
            got, exp = getattr(idx, name), getattr(want, name)
            if isinstance(got, np.ndarray):
                assert np.array_equal(got, exp, equal_nan=True), name
            else:
                assert got == exp, name
        # the clone taken before the edits keeps its own index
        assert twin.index() is twin_idx
        assert [s.id for s in twin.servers()] == [s.id for s in idx.servers[:-1]]
        assert twin.access_latency(uap, "cdc0") == pytest.approx(0.35)
        with pytest.raises(TopologyError):
            twin.access_latency(uap, "cdc1")

    def test_add_data_center_and_node_invalidate(self):
        net = make_pair()
        n_nodes = len(net.index().tier_rank)
        dc = net.add_data_center("ccp0", DCKind.CCP)
        assert net.index().tier_rank[dc.switch] == TIER_ORDER.index(DCKind.CCP)
        uap = net.add_node("uap01", NodeKind.UAP)
        assert len(net.index().tier_rank) == n_nodes + 2
        assert net.index().tier_rank[uap] == len(TIER_ORDER)

    def test_adj_stays_ascending(self):
        net = make_pair()
        b = net.data_centers["cdc0"].switch
        # a later link to a lower-id neighbor than b's own servers
        low = net.data_centers["edc0"].servers[0]
        lid = net.add_link(b, low, 1.0, LinkKind.TRANSPORT, 10.0)
        assert (low, lid) in net.adj[b][:-1]  # inserted, not appended
        for entries in net.adj:
            assert entries == sorted(entries)
            assert len({nbr for nbr, _ in entries}) == len(entries)

    def test_reference_runs_one_per_data_center(self):
        for scale in (1, 2):
            net = build_reference_psn(scale)
            idx = net.index()
            assert [run.dc for run in idx.runs] == list(net.data_centers)
            assert [run.anchor for run in idx.runs] == \
                   [dc.switch for dc in net.data_centers.values()]
            assert idx.off_run == ()
            assert_index_matches(net)

    @settings(max_examples=100, deadline=None)
    @given(loaded_substrates())
    def test_runs_of_loaded_substrates(self, net):
        """Interleaved server ids, mixed uplink latencies and servers with
        zero or several links split the runs; each stays maximal."""
        assert_index_matches(net)

    def test_from_json_builds_the_same_index(self, ref):
        loaded = PhysicalNetwork.from_json(ref.to_json())
        idx, got = ref.index(), loaded.index()
        assert [s.id for s in got.servers] == [s.id for s in idx.servers]
        assert got.tier_rank == idx.tier_rank
        assert loaded.data_centers == ref.data_centers
        assert loaded.adj == ref.adj


def assert_index_matches(net: PhysicalNetwork) -> None:
    """Every per-server field of `net.index()` equals what the structure
    says, and the residual views show the residual arrays."""
    idx = net.index()
    servers = net.servers()
    assert idx.id.tolist() == [s.id for s in servers]
    assert [idx.pos[s.id] for s in servers] == list(range(len(servers)))
    assert len(idx.tier_rank) == len(net.nodes)
    for node, rank in zip(net.nodes, idx.tier_rank):
        dc = net.data_centers.get(node.dc)
        assert rank == (TIER_ORDER.index(dc.kind) if dc else len(TIER_ORDER))
    assert_runs_match(net)
    assert idx.near_hops == tuple([min(fewest_links_to_another_server(net, u), 2)
                                   for u in range(len(net.nodes))])
    assert len(net.cpu_units) == len(net.ram_units) == len(servers)
    assert len(net.bw_units) == len(net.links)
    for view, store in zip(net.vectors(), (net.cpu_units, net.ram_units, net.bw_units)):
        assert view.tolist() == store.tolist()


def fewest_links_to_another_server(net: PhysicalNetwork, u: int) -> float:
    """Breadth-first from node u over every link: the hops to the nearest
    server other than u, inf if none is connected."""
    dist, level = {u: 0}, [u]
    while level:
        nxt = []
        for w in level:
            for nbr, _ in net.adj[w]:
                if nbr not in dist:
                    dist[nbr] = dist[w] + 1
                    if isinstance(net.nodes[nbr], Server):
                        return dist[nbr]
                    nxt.append(nbr)
        level = nxt
    return math.inf


def assert_runs_match(net: PhysicalNetwork) -> None:
    """`index().runs`, `anchor_runs` and `off_run` against a derivation from
    scratch: each one-link server lies in exactly one run, each run holds
    what its fields say and is maximal, and the rest is off the runs."""
    idx = net.index()
    servers = net.servers()

    def key(p: int) -> tuple | None:
        """What a run asks of the server at position p, or None off the runs."""
        s = servers[p]
        if len(net.adj[s.id]) != 1:
            return None
        nbr, lid = net.adj[s.id][0]
        dc = net.data_centers.get(s.dc)
        rank = TIER_ORDER.index(dc.kind) if dc else len(TIER_ORDER)
        return lid, (nbr, s.dc, rank, net.links[lid].latency_ms)

    covered = [0] * len(servers)
    for run in idx.runs:
        assert 0 <= run.start < run.stop <= len(servers)
        for p in range(run.start, run.stop):
            covered[p] += 1
            assert key(p) == (run.link + p - run.start, tuple(run[3:]))
        # maximal: neither neighbouring position could extend it
        for p, link in ((run.start - 1, run.link - 1), (run.stop, run.link + run.stop - run.start)):
            if 0 <= p < len(servers):
                assert key(p) != (link, tuple(run[3:]))
    assert [run.start for run in idx.runs] == sorted(run.start for run in idx.runs)
    assert covered == [0 if key(p) is None else 1 for p in range(len(servers))]
    assert idx.off_run == tuple(p for p in range(len(servers)) if key(p) is None)
    anchors: dict[int, list[tuple[float, int]]] = {}
    for k, run in enumerate(idx.runs):
        anchors.setdefault(run.anchor, []).append((run.lat, k))
    assert idx.anchor_runs == {u: tuple(ks) for u, ks in anchors.items()}


# one step of a random workload against the residual store: capacity calls
# with fractional demands drawn in units, holds and their return, copies and
# a new link
_STORE_OPS = st.one_of(
    st.tuples(st.sampled_from(["allocate", "release"]), st.integers(0, 7),
              st.integers(0, 3_000_000), st.integers(0, 9_000_000)),
    st.tuples(st.sampled_from(["allocate_bw", "release_bw"]), st.integers(0, 7),
              st.integers(0, 2_500_000)),
    st.tuples(st.just("hold"), st.integers(0, 7), st.integers(0, 3_000_000),
              st.integers(0, 9_000_000), st.lists(st.integers(0, 7), unique=True, max_size=3),
              st.integers(0, 2_500_000)),
    st.tuples(st.sampled_from(["give_back", "keep", "snapshot", "restore",
                               "clone", "twin_allocate", "add_link"])),
)


class TestResidualArrays:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(_STORE_OPS, max_size=40), st.data())
    def test_residual_arrays_follow_every_write(self, ops, data):
        """Against a plain dict model in units: every capacity call succeeds
        or fails as the model says and moves the units it says, a hold
        given back returns the units it took, a restore (with no hold open)
        brings back the model's saved state, and a clone's writes and the
        parent's never meet."""
        net = make_pair(cpu=5.0, ram=30.0, edc_bw=2.0, cdc_bw=2.0)
        units = {("cpu", p): 5 * SCALE for p in range(4)}
        units.update({("ram", p): 30 * SCALE for p in range(4)})
        units.update({("bw", l.id): 2 * SCALE for l in net.links if l.bw_capacity})
        cap = dict(units)
        held: list[tuple] = []  # the open holds' arguments, newest last
        snaps = [(net.snapshot(), dict(units))]
        twins: list[tuple[PhysicalNetwork, dict]] = []  # (clone, its model)

        def residuals(of: PhysicalNetwork) -> dict:
            got = {("cpu", p): u for p, u in enumerate(of.cpu_units)}
            got.update({("ram", p): u for p, u in enumerate(of.ram_units)})
            got.update({("bw", i): u for i, u in enumerate(of.bw_units) if u >= 0})
            return got

        for op in ops:
            name = op[0]
            servers = [s.id for s in net.servers()]
            links = sorted(i for kind, i in units if kind == "bw")
            if name == "give_back":
                if held:
                    args = held.pop()
                    net.give_back(*args)
                    sid, cpu, ram, path, bw = args
                    p = servers.index(sid)
                    units[("cpu", p)] += cpu
                    units[("ram", p)] += ram
                    for lid in path:
                        units[("bw", lid)] += bw
            elif name == "keep":
                if held:
                    held.pop()
            elif name == "snapshot":
                snaps.append((net.snapshot(), dict(units)))
            elif name == "restore":
                if not held:  # a hold is given back on the state it left
                    snap, saved = data.draw(st.sampled_from(snaps))
                    net.restore(snap)
                    units = dict(saved)
            elif name == "clone":
                twin = net.clone()
                twins.append((twin, dict(units)))
                assert_index_matches(twin)
            elif name == "twin_allocate":
                if twins:
                    twin, model = twins[-1]
                    if model[("cpu", 0)] >= SCALE // 2:
                        twin.allocate(servers[0], 0.5, 0)
                        model[("cpu", 0)] -= SCALE // 2
            elif name == "add_link":
                # a search reads the views; the new link must show after it
                request = make_request(SliceClass.URLLC, net.uaps[0])
                feasible_servers(net, request, 2, servers[0], used_e2e_ms=0.02)
                a, b = data.draw(st.lists(st.sampled_from(servers), min_size=2,
                                          max_size=2, unique=True))
                if net.link_between(a, b) is not None:  # refused, changing nothing
                    with pytest.raises(TopologyError, match="already linked"):
                        net.add_link(a, b, 0.0, LinkKind.TRANSPORT, 1.5)
                else:
                    lid = net.add_link(a, b, 0.0, LinkKind.TRANSPORT, 1.5)
                    units[("bw", lid)] = cap[("bw", lid)] = 1_500_000
                    snaps = [(net.snapshot(), dict(units))]
            elif name == "hold":
                p = op[1] % len(servers)
                path = list(dict.fromkeys(links[k % len(links)] for k in op[4]))
                moves = {("cpu", p): op[2], ("ram", p): op[3]}
                moves.update({("bw", lid): op[5] for lid in path})
                if all(units[k] >= u for k, u in moves.items()):
                    net.hold(servers[p], op[2], op[3], path, op[5])
                    held.append((servers[p], op[2], op[3], path, op[5]))
                    for k, u in moves.items():
                        units[k] -= u
                else:
                    with pytest.raises(CapacityError):
                        net.hold(servers[p], op[2], op[3], path, op[5])
            elif name.startswith("allocate") or not held:
                # a release while a hold is open could return the hold's
                # units, which only its give_back may
                sign = -1 if name.startswith("allocate") else 1
                if name in ("allocate", "release"):
                    p = op[1] % len(servers)
                    moves = {("cpu", p): op[2], ("ram", p): op[3]}
                    call = lambda: getattr(net, name)(servers[p], op[2] / SCALE, op[3] / SCALE)
                else:
                    lid = links[op[1] % len(links)]
                    moves = {("bw", lid): op[2]}
                    call = lambda: getattr(net, name)(lid, op[2] / SCALE)
                after = {k: units[k] + sign * u for k, u in moves.items()}
                if all(0 <= u <= cap[k] for k, u in after.items()):
                    call()
                    units.update(after)
                else:
                    with pytest.raises(CapacityError if sign < 0 else ReleaseError):
                        call()
            assert residuals(net) == units
            assert_index_matches(net)
        for twin, model in twins:
            assert residuals(twin) == model
            assert_index_matches(twin)

    def test_restore_writes_the_residual_arrays(self):
        net = make_pair()
        idx, views = net.index(), net.vectors()
        snap = net.snapshot()
        sid, lid = net.servers()[0].id, net.links[0].id
        net.allocate(sid, 10, 60)
        net.allocate_bw(lid, 1.0)
        net.restore(snap)
        # in place: the index and the views taken before stay valid
        assert net.index() is idx and net.vectors() is views
        assert views[0][0] == 50 * SCALE and views[2][lid] == 10 * SCALE
        assert_index_matches(net)

    def test_built_lazily_and_dropped_by_structure(self):
        assert PhysicalNetwork()._index is None
        net = build_reference_psn(1)
        vec = net.index()
        views = net.vectors()
        assert net.index() is vec
        net.add_node("uap99", NodeKind.UAP)
        assert net._index is None and net._views is None
        # the arrays the old views show are left behind, unchanged
        assert views[0].tolist() == net.cpu_units.tolist()
        assert not np.shares_memory(views[0], net.vectors()[0])
        assert_index_matches(net)

    @pytest.mark.parametrize("copy_of", [copy.deepcopy,
                                         lambda net: pickle.loads(pickle.dumps(net))])
    def test_copies_get_views_of_their_own_arrays(self, copy_of):
        net = make_pair()
        net.vectors()
        twin = copy_of(net)
        sid = twin.servers()[0].id
        twin.allocate(sid, 10, 60)
        assert twin.vectors()[0][0] == 40 * SCALE
        assert net.vectors()[0][0] == 50 * SCALE

    def test_structural_change_between_hold_and_give_back(self):
        # the arrays are carried over to fresh ones and the index rebuilt;
        # a hold made before is given back into them
        net = make_pair()
        sid = net.servers()[0].id
        lid = net.adj[sid][0][1]
        net.vectors()
        net.hold(sid, to_units(0.3), to_units(0.1), [lid], to_units(0.1))
        edc = net.data_centers["edc0"]
        new = net.add_server("edc0-s99", "edc0", 5.0, 30.0)
        new_link = net.add_link(edc.switch, new, 0.0, LinkKind.INTRA_DC, 10.0)
        net.hold(new, to_units(1.0), to_units(1.0), [new_link, lid], to_units(0.5))
        net.add_node("uap99", NodeKind.UAP)  # no index at the returns
        net.give_back(new, to_units(1.0), to_units(1.0), [new_link, lid], to_units(0.5))
        net.give_back(sid, to_units(0.3), to_units(0.1), [lid], to_units(0.1))
        assert net.residual(sid) == (50.0, 300.0)
        assert net.residual(new) == (5.0, 30.0)
        assert net.bw_residual(lid) == net.bw_residual(new_link) == 10.0
        assert_index_matches(net)


class TestSerialization:
    def test_json_roundtrip_identity(self, ref):
        doc = ref.to_json()
        assert doc["schema"] == "topology/1"
        clone = PhysicalNetwork.from_json(doc)
        assert json.dumps(clone.to_json(), sort_keys=True) == \
               json.dumps(doc, sort_keys=True)

    def test_roundtrip_preserves_residuals(self):
        net = make_pair()
        sid = net.data_centers["edc0"].servers[0]
        net.allocate(sid, 15, 90)
        clone = PhysicalNetwork.from_json(net.to_json())
        assert clone.residual(sid) == (35.0, 210.0)

    def test_save_load(self, tmp_path):
        net = make_pair()
        path = tmp_path / "net.json"
        with open(path, "w") as fh:
            json.dump(net.to_json(), fh)
        clone = PhysicalNetwork.load(str(path))
        assert json.dumps(clone.to_json(), sort_keys=True) == \
               json.dumps(net.to_json(), sort_keys=True)

    def test_non_dense_ids_rejected(self):
        net = make_pair()
        doc = net.to_json()
        doc["nodes"][0]["id"] = 99
        with pytest.raises(TopologyError):
            PhysicalNetwork.from_json(doc)

    def test_bad_schema_rejected(self):
        net = make_pair()
        doc = net.to_json()
        doc["schema"] = "topology/999"
        with pytest.raises(TopologyError):
            PhysicalNetwork.from_json(doc)
