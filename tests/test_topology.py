"""Substrate model: construction, capacity accounting, latency, serialization."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceplace.nspr import SliceClass, make_request
from sliceplace.placement import feasible_servers, latency_reach
from sliceplace.topology import (
    TIER_ORDER,
    CapacityError,
    DCKind,
    LinkKind,
    NodeKind,
    PhysicalNetwork,
    ReleaseError,
    TopologyError,
    TopologyParams,
    build_reference_psn,
)

from conftest import make_pair


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


class TestReferenceBuild:
    def test_scale1_inventory(self, ref):
        assert len(ref.server_ids()) == 126
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
        assert len(net2.server_ids()) == 252
        assert len(net2.data_centers) == 21
        # transport skeleton unchanged
        n_transport = sum(1 for l in net2.links if l.kind == LinkKind.TRANSPORT)
        assert n_transport == 30

    def test_scale128_inventory(self):
        net = build_reference_psn(128)
        assert len(net.server_ids()) == 16128

    def test_total_capacity(self, ref):
        assert ref.total_cpu_capacity() == 6300.0
        assert ref.total_ram_capacity() == 37800.0

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

    def test_scale_zero_rejected(self):
        with pytest.raises((ValueError, TopologyError)):
            build_reference_psn(0)


class TestCapacityAccounting:
    def test_allocate_release_roundtrip(self):
        net = make_pair()
        sid = net.data_centers["edc0"].servers[0]
        net.allocate(sid, 15, 90)
        srv = net.server(sid)
        assert (srv.cpu_residual, srv.ram_residual) == (35.0, 210.0)
        net.release(sid, 15, 90)
        assert (srv.cpu_residual, srv.ram_residual) == (50.0, 300.0)

    def test_over_allocate_raises_and_leaves_state(self):
        net = make_pair()
        sid = net.data_centers["edc0"].servers[0]
        net.allocate(sid, 40, 100)
        with pytest.raises(CapacityError):
            net.allocate(sid, 20, 10)
        srv = net.server(sid)
        assert (srv.cpu_residual, srv.ram_residual) == (10.0, 200.0)

    def test_partial_fit_rejected_atomically(self):
        # enough cpu, not enough ram: neither dimension may move
        net = make_pair()
        sid = net.data_centers["edc0"].servers[0]
        with pytest.raises(CapacityError):
            net.allocate(sid, 10, 400)
        srv = net.server(sid)
        assert (srv.cpu_residual, srv.ram_residual) == (50.0, 300.0)

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
        assert link.bw_residual == 9.0
        with pytest.raises(CapacityError):
            net.allocate_bw(link.id, 9.5)
        net.release_bw(link.id, 1)
        assert link.bw_residual == 10.0
        with pytest.raises(ReleaseError):
            net.release_bw(link.id, 0.5)

    def test_bw_on_uncapacitated_link_rejected(self):
        net = make_pair()
        access = next(l for l in net.links if l.kind == LinkKind.ACCESS)
        with pytest.raises(TopologyError):
            net.allocate_bw(access.id, 1)

    def test_server_fits(self):
        net = make_pair()
        sid = net.data_centers["edc0"].servers[0]
        srv = net.server(sid)
        assert srv.fits(50, 300)
        assert not srv.fits(50.0001, 300)
        net.allocate(sid, 15, 90)
        assert srv.fits(35, 210)
        assert not srv.fits(35, 211)


class TestSnapshotRestore:
    def test_roundtrip_bit_exact(self):
        net = make_pair()
        snap = net.snapshot()
        sid = net.data_centers["edc0"].servers[0]
        link = next(l for l in net.links if l.kind == LinkKind.TRANSPORT)
        net.allocate(sid, 15, 90)
        net.allocate_bw(link.id, 3)
        net.restore(snap)
        srv = net.server(sid)
        assert (srv.cpu_residual, srv.ram_residual) == (50.0, 300.0)
        assert link.bw_residual == 10.0

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
        assert net.server(sid).cpu_residual == 50.0
        assert twin.server(sid).cpu_residual == 40.0
        twin.restore(net.snapshot())
        assert twin.server(sid).cpu_residual == 50.0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.floats(0.5, 12.0),
                              st.floats(1.0, 70.0)), max_size=12),
           st.data())
    def test_restore_after_arbitrary_traffic(self, ops, data):
        net = make_pair()
        servers = sorted(net.data_centers["edc0"].servers
                         + net.data_centers["cdc0"].servers)
        snap = net.snapshot()
        for idx, cpu, ram in ops:
            sid = servers[idx]
            srv = net.server(sid)
            if srv.fits(cpu, ram):
                net.allocate(sid, cpu, ram)
        net.restore(snap)
        for sid in servers:
            srv = net.server(sid)
            assert (srv.cpu_residual, srv.ram_residual) == (50.0, 300.0)


# one step of a random substrate workload: capacity calls on a fixed pool of
# servers and links, with fractional demands, and transaction boundaries
_TX_OPS = st.one_of(
    st.tuples(st.sampled_from(["allocate", "release"]), st.integers(0, 3),
              st.sampled_from([0.1, 0.3, 0.7, 2.5]), st.sampled_from([0.1, 0.3, 1.7])),
    st.tuples(st.sampled_from(["allocate_bw", "release_bw"]), st.integers(0, 3),
              st.sampled_from([0.1, 0.3, 0.7])),
    st.tuples(st.sampled_from(["begin", "commit", "rollback"])),
)


class TestTransactions:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(_TX_OPS, max_size=40), st.lists(st.booleans(), max_size=40))
    def test_rollback_restores_exactly(self, ops, closes):
        net = make_pair()
        servers = sorted(net.data_centers["edc0"].servers
                         + net.data_centers["cdc0"].servers)
        links = [l.id for l in net.links if l.bw_capacity is not None]
        # (mark, full document at begin) per open transaction, innermost last
        open_tx: list[tuple[int, str]] = []

        def close(commit: bool) -> None:
            mark, before = open_tx.pop()
            if commit:
                net.commit(mark)
            else:
                net.rollback(mark)
                assert json.dumps(net.to_json()) == before

        for op in ops:
            name = op[0]
            if name == "begin":
                open_tx.append((net.begin(), json.dumps(net.to_json())))
            elif name in ("commit", "rollback"):
                if open_tx:
                    close(name == "commit")
            else:
                pool = servers if name in ("allocate", "release") else links
                try:
                    getattr(net, name)(pool[op[1] % len(pool)], *op[2:])
                except (CapacityError, ReleaseError):
                    pass
            if not open_tx:
                assert net._undo == []
        for commit in closes + [False] * len(open_tx):
            if not open_tx:
                break
            close(commit)
        assert net._undo == []
        net.validate()

    def test_fractional_rollback_is_exact(self):
        net = make_pair()
        sid = net.data_centers["edc0"].servers[0]
        lid = next(l.id for l in net.links if l.kind == LinkKind.TRANSPORT)
        net.allocate(sid, 0.3, 0.1)
        before = json.dumps(net.to_json())
        mark = net.begin()
        for _ in range(7):
            net.allocate(sid, 0.1, 0.3)
            net.allocate_bw(lid, 0.1)
        net.release(sid, 0.7, 2.1)
        net.rollback(mark)
        assert json.dumps(net.to_json()) == before

    def test_marks_close_innermost_first(self):
        net = make_pair()
        outer = net.begin()
        net.allocate(net.data_centers["edc0"].servers[0], 10, 60)
        net.begin()
        with pytest.raises(TopologyError):
            net.commit(outer)
        with pytest.raises(TopologyError):
            make_pair().rollback(0)


class TestStructureIndex:
    def test_clone_lists_its_own_servers(self):
        net = make_pair()
        twin = net.clone()
        for sid in twin.server_ids():
            twin.allocate(sid, 10, 60)
        assert [(s.cpu_residual, s.ram_residual) for s in net.servers()] == \
               [(50.0, 300.0)] * 4
        assert [s.cpu_residual for s in twin.servers()] == [40.0] * 4
        assert all(a is not b for a, b in zip(net.servers(), twin.servers()))
        # the immutable parts are shared, not rebuilt
        assert twin.index().adj_sorted is net.index().adj_sorted
        assert twin.index().tier is net.index().tier
        assert twin.vectors().up_link is net.vectors().up_link
        assert twin.vectors().cpu is not net.vectors().cpu

    def test_capacity_changes_keep_the_index(self):
        net = make_pair()
        idx = net.index()
        net.allocate(net.server_ids()[0], 10, 60)
        net.allocate_bw(net.links[0].id, 1.0)
        assert net.index() is idx

    def test_add_server_and_link_after_a_search(self):
        net = make_pair()
        sw = net.data_centers["edc0"].switch
        before = set(latency_reach(net, sw, 1.0, 5.0))
        sid = net.add_server("edc0-s99", "edc0", 50.0, 300.0)
        assert sid in net.server_ids()
        assert net.index().tier[sid] is DCKind.EDC
        assert sid in net.data_centers["edc0"].servers
        assert sid not in latency_reach(net, sw, 1.0, 5.0)
        lid = net.add_link(sid, sw, 0.0, LinkKind.INTRA_DC, 10.0)
        assert net.index().adj_sorted[sid] == ((sw, lid),)
        assert (sid, lid) in net.index().adj_sorted[sw]
        assert set(latency_reach(net, sw, 1.0, 5.0)) == before | {sid}

    def test_add_data_center_and_node_invalidate(self):
        net = make_pair()
        n_nodes = len(net.index().tier)
        dc = net.add_data_center("ccp0", DCKind.CCP)
        assert net.index().tier[dc.switch] is DCKind.CCP
        uap = net.add_node("uap01", NodeKind.UAP)
        assert len(net.index().tier) == n_nodes + 2
        assert net.index().tier[uap] is None

    def test_sorted_adjacency_keeps_adj_order(self):
        net = make_pair()
        a, b = net.data_centers["edc0"].switch, net.data_centers["cdc0"].switch
        # a second, later link to a lower-id neighbor
        net.add_link(b, a, 1.0, LinkKind.TRANSPORT, 10.0)
        for u, entries in enumerate(net.adj):
            assert net.index().adj_sorted[u] == tuple(sorted(entries))
        assert net.adj[b] != sorted(net.adj[b])

    def test_from_json_builds_the_same_index(self, ref):
        loaded = PhysicalNetwork.from_json(ref.to_json())
        idx, got = ref.index(), loaded.index()
        assert [s.id for s in got.servers] == [s.id for s in idx.servers]
        assert got.tier == idx.tier
        assert loaded.data_centers == ref.data_centers
        assert got.adj_sorted == idx.adj_sorted


def assert_vectors_match(net: PhysicalNetwork) -> None:
    """Every field of `net.vectors()` equals what the attributes and the
    structure say, exactly."""
    vec = net.vectors()
    servers = net.servers()
    assert vec.cpu.tolist() == [s.cpu_residual for s in servers]
    assert vec.ram.tolist() == [s.ram_residual for s in servers]
    bw = vec.bw.tolist()
    assert len(bw) == len(net.links) + 1 and bw[-1] != bw[-1]  # NaN slot
    for link, got in zip(net.links, bw):
        assert got == link.bw_residual if link.bw_residual is not None else got != got
    assert vec.id.tolist() == [s.id for s in servers]
    assert [vec.pos[s.id] for s in servers] == list(range(len(servers)))
    dcs = list(net.data_centers)
    assert vec.dc.tolist() == [dcs.index(s.dc) for s in servers]
    for node, rank in zip(net.nodes, vec.tier_rank):
        tier = net.index().tier[node.id]
        assert rank == (TIER_ORDER.index(tier) if tier else len(TIER_ORDER))
    for p, s in enumerate(servers):
        entries = net.adj[s.id]
        if len(entries) == 1:
            nbr, lid = entries[0]
            want = (lid, nbr, net.links[lid].latency_ms)
        else:
            want = (len(net.links), len(net.nodes), 0.0)
        assert (vec.up_link[p], vec.up_nbr[p], vec.up_lat[p]) == want
        assert (p in vec.multi) == (len(entries) > 1)


_VEC_OPS = _TX_OPS | st.tuples(st.sampled_from(
    ["snapshot", "restore", "clone", "twin_allocate", "add_link"]))


class TestResidualVectors:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(_VEC_OPS, max_size=40), st.data())
    def test_vectors_follow_every_write(self, ops, data):
        net = make_pair()
        assert_vectors_match(net)
        request = make_request(SliceClass.URLLC, net.uaps[0])
        marks: list[int] = []
        snaps = [net.snapshot()]
        twins: list[tuple[PhysicalNetwork, str]] = []  # (clone, its document)
        for op in ops:
            name = op[0]
            servers = net.server_ids()
            links = [l.id for l in net.links if l.bw_capacity is not None]
            if name == "begin":
                marks.append(net.begin())
            elif name in ("commit", "rollback"):
                if marks:
                    getattr(net, name)(marks.pop())
            elif name == "snapshot":
                snaps.append(net.snapshot())
            elif name == "restore":
                net.restore(data.draw(st.sampled_from(snaps)))
            elif name == "clone":
                twin = net.clone()
                assert_vectors_match(twin)
                twins.append((twin, json.dumps(twin.to_json())))
            elif name == "twin_allocate":
                if twins:
                    twin, _ = twins.pop()
                    try:
                        twin.allocate(servers[0], 0.5, 0.5)
                        twin.allocate_bw(links[0], 0.5)
                    except CapacityError:
                        pass
                    assert_vectors_match(twin)
            elif name == "add_link":
                # a search builds the vectors; the new link must show after it
                feasible_servers(net, request, 2, servers[0], used_e2e_ms=0.02)
                a, b = data.draw(st.lists(st.sampled_from(servers), min_size=2,
                                          max_size=2, unique=True))
                net.add_link(a, b, 0.0, LinkKind.TRANSPORT, 10.0)
                snaps = [net.snapshot()]
            else:
                pool = servers if name in ("allocate", "release") else links
                try:
                    getattr(net, name)(pool[op[1] % len(pool)], *op[2:])
                except (CapacityError, ReleaseError):
                    pass
            assert_vectors_match(net)
        while marks:
            net.rollback(marks.pop())
            assert_vectors_match(net)
        # writes to the parent never reach a clone's vectors
        for twin, doc in twins:
            assert json.dumps(twin.to_json()) == doc
            assert twin.vector_drift() is None
            assert_vectors_match(twin)

    def test_restore_writes_the_vectors(self):
        net = make_pair()
        vec = net.vectors()
        snap = net.snapshot()
        sid, lid = net.server_ids()[0], net.links[0].id
        net.allocate(sid, 10, 60)
        net.allocate_bw(lid, 1.0)
        net.restore(snap)
        assert net.vectors() is vec
        assert_vectors_match(net)

    def test_built_lazily_and_dropped_by_structure(self):
        net = build_reference_psn(1)
        assert net._vectors is None
        vec = net.vectors()
        assert net.vectors() is vec
        net.add_node("uap99", NodeKind.UAP)
        assert net._vectors is None
        assert_vectors_match(net)

    def test_drift_names_the_first_difference(self):
        net = make_pair()
        assert net.vector_drift() is None  # not built: nothing to compare
        net.vectors()
        sid = net.server_ids()[1]
        net.server(sid).cpu_residual = 49.0  # behind the network's back
        assert net.vector_drift() == f"server {sid}: cpu vector holds 50.0, residual is 49.0"
        net.server(sid).cpu_residual = 50.0
        net.links[2].bw_residual = 1.0
        assert net.vector_drift().startswith("link 2: bw vector holds")


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
        srv = clone.server(sid)
        assert (srv.cpu_residual, srv.ram_residual) == (35.0, 210.0)

    def test_save_load(self, tmp_path):
        net = make_pair()
        path = tmp_path / "net.json"
        net.save(str(path))
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
