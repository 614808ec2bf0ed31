"""Randomized placement heuristic: candidate policies, commit/rollback, costs."""

from __future__ import annotations

import collections
import copy
import dataclasses
import json
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceplace.nspr import SliceClass, make_request
from sliceplace.p2c import DrawStream, OutcomeStatus, Policy, get_two_candidates, place
from sliceplace.placement import check_placement, feasible_servers, release_placement
from sliceplace.topology import (DCKind, LinkKind, NodeKind, PhysicalNetwork, Server,
                                 TopologyParams, build_reference_psn)

from conftest import drain_dc, make_pair, make_single_dc
from oracles import loaded_substrates, reference_place, reference_release


def snap_tuple(net):
    s = net.snapshot()
    return (s.server_cpu, s.server_ram, s.link_bw)


def make_three_tiers() -> PhysicalNetwork:
    """One DC of each tier with two servers each, switches joined by
    zero-latency links, so that every server reaches every other."""
    net = PhysicalNetwork(TopologyParams())
    switches = []
    for kind in (DCKind.EDC, DCKind.CDC, DCKind.CCP):
        dc = net.add_data_center(f"{kind.value.lower()}0", kind)
        for i in range(2):
            sid = net.add_server(f"{dc.id}-s{i}", dc.id, 50.0, 300.0)
            net.add_link(dc.switch, sid, 0.0, LinkKind.INTRA_DC, 100.0)
        switches.append(dc.switch)
    for i, a in enumerate(switches):
        for b in switches[i + 1:]:
            net.add_link(a, b, 0.0, LinkKind.TRANSPORT, 100.0)
    uap = net.add_node("uap00", NodeKind.UAP)
    net.add_link(uap, switches[0], 0.02, LinkKind.ACCESS, None)
    net.uaps.append(uap)
    net.validate()
    return net


# bounds for `DrawStream.below`: any, and just above 2**31, where about
# half the raw values fall in the rejection zone, and just below 2**32
BOUNDS = st.one_of(st.integers(1, 2**32 - 1), st.integers(2**31 + 1, 2**31 + 2**20),
                   st.integers(2**32 - 2**20, 2**32 - 1), st.integers(1, 8))


class TestDrawStream:
    """P2C's draws come from `DrawStream`, which must give what numpy's
    `Generator.integers(0, n)` gives on the same generator."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**63 - 1), st.lists(BOUNDS, min_size=1, max_size=40),
           st.integers(0, 3))
    def test_below_equals_generator_integers(self, seed, bounds, warmup):
        rng, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(warmup):  # an odd count leaves half a 64-bit word buffered
            rng.integers(0, 7)
            theirs.integers(0, 7)
        stream = DrawStream(rng)
        for n in bounds:
            assert stream.below(n) == theirs.integers(0, n)
        # as many raw values taken as numpy took
        assert stream.raw() == theirs.integers(1 << 32, dtype=np.uint32)

    def test_one_value_draws_nothing(self):
        stream = DrawStream(np.random.default_rng(5))
        assert [stream.below(1) for _ in range(3)] == [0, 0, 0]
        assert stream.raw() == np.random.default_rng(5).integers(1 << 32, dtype=np.uint32)

    def test_rejections_take_more_raw_values(self):
        """Just above 2**31 about half the raw values are redrawn; the draws
        still agree with numpy's, and more raw values than draws went."""
        n, k = 2**31 + 1, 64
        stream = DrawStream(np.random.default_rng(11))
        theirs = np.random.default_rng(11)
        assert [stream.below(n) for _ in range(k)] == [theirs.integers(0, n) for _ in range(k)]
        nxt = stream.raw()
        assert nxt == theirs.integers(1 << 32, dtype=np.uint32)
        raw = np.random.default_rng(11).integers(1 << 32, size=4 * k, dtype=np.uint32)
        assert raw.tolist().index(nxt) > k


class TestGetTwoCandidates:
    def test_singleton_duplicates(self):
        stream = DrawStream(np.random.default_rng(0))
        assert get_two_candidates([77], stream) == (77, 77)
        assert get_two_candidates((77,), stream) == (77, 77)
        assert stream.raw() == np.random.default_rng(0).integers(1 << 32, dtype=np.uint32)

    def test_pair_draw_is_distinct(self):
        stream = DrawStream(np.random.default_rng(1))
        for _ in range(200):
            s1, s2 = get_two_candidates([73, 74, 75, 76], stream)
            assert s1 != s2
            assert {s1, s2} <= {73, 74, 75, 76}

    def test_uniform_marginals(self):
        stream = DrawStream(np.random.default_rng(2024))
        pool = [73, 74, 75, 76, 18, 19]
        hits = collections.Counter()
        n = 30_000
        for _ in range(n):
            s1, s2 = get_two_candidates(pool, stream)
            hits[s1] += 1
            hits[s2] += 1
        for sid in pool:
            assert abs(hits[sid] / (2 * n) - 1 / len(pool)) < 0.01

    def test_deterministic_under_seed(self):
        pool = list(range(73, 77))
        a = [get_two_candidates(pool, DrawStream(np.random.default_rng(7))) for _ in range(1)]
        b = [get_two_candidates(pool, DrawStream(np.random.default_rng(7))) for _ in range(1)]
        assert a == b

    @pytest.mark.parametrize("n", [1, 2, 300])
    def test_an_array_draws_as_the_equal_list(self, n):
        """`feasible_servers` hands the draw an array('q'): the same pairs,
        as Python ints, from as many raw values as the equal list takes."""
        ids = [73 + 5 * i for i in range(n)]
        for seed in range(20):
            from_list = DrawStream(np.random.default_rng(seed))
            from_array = DrawStream(np.random.default_rng(seed))
            for _ in range(5):
                got = get_two_candidates(array("q", ids), from_array)
                assert got == get_two_candidates(ids, from_list)
                assert all(type(sid) is int for sid in got)
            assert from_array.raw() == from_list.raw()

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            get_two_candidates([], DrawStream(np.random.default_rng(0)))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10**6), st.integers(0, 2**63 - 1), st.integers(1, 4),
           st.integers(0, 3))
    def test_draw_equals_generator_choice(self, n, seed, draws, warmup):
        """The draw is numpy's own two-of-n draw, value for value, and takes
        as many raw values as `Generator.choice` does; a single candidate
        draws nothing. The stream reads ahead of the generator, so the raw
        value after each draw is compared, not the generator states. Fails
        if numpy changes its algorithm."""
        rng, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(warmup):  # an odd count leaves half a 64-bit word buffered
            rng.integers(0, 7)
            theirs.integers(0, 7)
        ours = DrawStream(rng)
        for _ in range(draws):
            got = get_two_candidates(range(n), ours)
            if n == 1:
                assert got == (0, 0)
            else:
                assert got == tuple(theirs.choice(n, size=2, replace=False).tolist())
            assert ours.raw() == theirs.integers(1 << 32, dtype=np.uint32)


class TestBestTierPool:
    """P2C-2 draws from `feasible_servers(..., best_tier=True)`: the eligible
    servers of the best tier present, CCP over CDC over EDC."""

    def test_tier_preference_order(self):
        net = make_three_tiers()
        req = make_request(SliceClass.BEST_EFFORT, net.uaps[0])
        edc, cdc, ccp = (net.data_centers[d].servers for d in ("edc0", "cdc0", "ccp0"))
        anchor = edc[0]

        def pool(best_tier=True):
            return feasible_servers(net, req, 2, anchor, used_e2e_ms=0.02,
                                    best_tier=best_tier)

        stream = DrawStream(np.random.default_rng(3))
        assert list(pool(best_tier=False)) == edc + cdc + ccp  # two servers each in EDC, CDC, CCP
        for want, kind in ((ccp, DCKind.CCP), (cdc, DCKind.CDC), (edc, DCKind.EDC)):
            assert list(pool()) == want
            for _ in range(50):
                pair = get_two_candidates(pool(), stream)
                assert {net.dc_of(s).kind for s in pair} == {kind}
            drain_dc(net, f"{kind.value.lower()}0")
        assert list(pool()) == list(pool(best_tier=False)) == []

    def test_singleton_preferred_tier_duplicates(self):
        net = make_three_tiers()
        req = make_request(SliceClass.BEST_EFFORT, net.uaps[0])
        drain_dc(net, "ccp0")
        drain_dc(net, "cdc0")
        last = net.data_centers["cdc0"].servers[-1]
        net.release(last, 50.0, 300.0)
        anchor = net.data_centers["edc0"].servers[0]
        pool = feasible_servers(net, req, 2, anchor, used_e2e_ms=0.02, best_tier=True)
        assert list(pool) == [last]
        assert get_two_candidates(pool, DrawStream(np.random.default_rng(3))) == (last, last)


class TestPlace:
    def test_forced_colocation_costs_nothing(self):
        net = make_single_dc(servers=1)
        req = make_request(SliceClass.BEST_EFFORT, net.uaps[0])
        out = place(net, req, Policy.UNIFORM, DrawStream(np.random.default_rng(0)))
        assert out.status is OutcomeStatus.ACCEPTED
        assert out.cost == 0.0
        sid = net.data_centers["dc0"].servers[0]
        assert out.placement.x == {v: sid for v in range(1, 6)}
        assert all(path == [] for path in out.placement.y.values())
        assert net.residual(sid) == (0.0, 0.0)

    def test_accept_commits_exact_demands(self):
        net = build_reference_psn()
        req = make_request(SliceClass.EMBB, net.uaps[4])
        out = place(net, req, Policy.TIER_PREFERRED, DrawStream(np.random.default_rng(5)))
        assert out.status is OutcomeStatus.ACCEPTED
        used_cpu = sum(50.0 - net.residual(s.id)[0] for s in net.servers())
        used_ram = sum(300.0 - net.residual(s.id)[1] for s in net.servers())
        assert used_cpu == 5 * 25.0
        assert used_ram == 5 * 150.0
        held_bw = sum((l.bw_capacity - net.bw_residual(l.id))
                      for l in net.links if l.bw_capacity is not None)
        assert held_bw == out.cost

    def test_accepted_placement_passes_checker(self):
        rng = np.random.default_rng(99)
        stream = DrawStream(rng)
        for policy in Policy:
            net = build_reference_psn()
            accepted = 0
            for k in range(120):
                cls = [SliceClass.BEST_EFFORT, SliceClass.URLLC,
                       SliceClass.EMBB][k % 3]
                req = make_request(cls, int(rng.choice(net.uaps)), request_id=k)
                pre = net.snapshot()
                out = place(net, req, policy, stream)
                if out.status is OutcomeStatus.REJECTED:
                    continue
                accepted += 1
                post = net.snapshot()
                net.restore(pre)
                verdict = check_placement(net, req, out.placement)
                assert verdict.ok, (policy, k, verdict.violations)
                net.restore(post)
            assert accepted > 60

    def test_reject_restores_state_bit_exact(self):
        net = build_reference_psn()
        drain_dc(net, "edc0")
        req = make_request(SliceClass.URLLC, net.uaps[0])
        before = snap_tuple(net)
        out = place(net, req, Policy.UNIFORM, DrawStream(np.random.default_rng(0)))
        assert out.status is OutcomeStatus.REJECTED
        assert out.blocking_vnf == 1
        assert out.placement is None
        assert snap_tuple(net) == before

    def test_midchain_reject_restores_state(self):
        # one server per DC: the root fits, nothing can take vnf 3 after
        # both servers fill, so the attempt must unwind
        net = make_pair(edc_servers=1, cdc_servers=1, cpu=30.0, ram=180.0)
        req = make_request(SliceClass.URLLC, net.uaps[0])
        before = snap_tuple(net)
        out = place(net, req, Policy.UNIFORM, DrawStream(np.random.default_rng(1)))
        assert out.status is OutcomeStatus.REJECTED
        assert out.blocking_vnf > 1
        assert snap_tuple(net) == before

    def test_blocked_root_when_alpha_unreachable(self):
        # access link alone exceeds the URLLC access budget of 0.03 ms
        from sliceplace.topology import TopologyParams
        net = make_single_dc(servers=4,
                             params=TopologyParams(access_latency_ms=0.05))
        req = make_request(SliceClass.URLLC, net.uaps[0])
        out = place(net, req, Policy.UNIFORM, DrawStream(np.random.default_rng(0)))
        assert out.status is OutcomeStatus.REJECTED
        assert out.blocking_vnf == 1

    def test_determinism_across_runs(self):
        for policy in Policy:
            outs = []
            for _ in range(2):
                net = build_reference_psn()
                rng = np.random.default_rng(31337)
                stream = DrawStream(rng)
                docs = []
                for k in range(40):
                    cls = [SliceClass.BEST_EFFORT, SliceClass.URLLC,
                           SliceClass.EMBB][k % 3]
                    req = make_request(cls, int(rng.choice(net.uaps)),
                                       request_id=k)
                    out = place(net, req, policy, stream)
                    docs.append(out.to_json(net))
                outs.append(json.dumps(docs, sort_keys=True))
            assert outs[0] == outs[1]

    def test_cheaper_candidate_wins(self):
        # candidates for vnf 2 are the anchor's twin (2 intra links) and the
        # CDC server (3 links); the twin must win on cost
        net = make_pair(edc_servers=2, cdc_servers=1)
        req = make_request(SliceClass.URLLC, net.uaps[0])
        out = place(net, req, Policy.UNIFORM, DrawStream(np.random.default_rng(0)))
        assert out.status is OutcomeStatus.ACCEPTED
        # regardless of draw order, no single vl may pay more than 3 links
        per_vl = {i: len(p) for i, p in out.placement.y.items()}
        assert all(v in (0, 2, 3) for v in per_vl.values())
        assert out.cost == sum(per_vl.values())

    def test_outcome_json_shape(self):
        net = build_reference_psn()
        req = make_request(SliceClass.URLLC, net.uaps[2])
        out = place(net, req, Policy.TIER_PREFERRED, DrawStream(np.random.default_rng(11)))
        doc = out.to_json(net)
        assert doc["status"] == "accepted"
        assert doc["cost"] == out.cost
        assert set(doc["placement"]["x"]) == {"1", "2", "3", "4", "5"}
        # single 50-cpu server: vnfs 1-3 colocate (45), nothing can take vnf 4
        rej = make_single_dc(kind=DCKind.CCP, servers=1, bw=100.0)
        req2 = make_request(SliceClass.URLLC, rej.uaps[0])
        out2 = place(rej, req2, Policy.UNIFORM, DrawStream(np.random.default_rng(0)))
        doc2 = out2.to_json(rej)
        assert doc2["status"] == "rejected"
        assert doc2["placement"] is None
        assert doc2["blocking_vnf"] == 4

    def test_policy2_offloads_root_neighborhood(self):
        """Interior VNFs land in the parent CDC while it has room."""
        net = build_reference_psn()
        req = make_request(SliceClass.URLLC, net.uaps[0])
        out = place(net, req, Policy.TIER_PREFERRED, DrawStream(np.random.default_rng(2)))
        assert out.status is OutcomeStatus.ACCEPTED
        tiers = [net.dc_of(out.placement.x[v]).kind for v in range(1, 6)]
        assert tiers[0] is DCKind.EDC
        assert all(t is DCKind.CDC for t in tiers[1:])


def residuals(net: PhysicalNetwork) -> tuple[list, list]:
    return ([net.residual(n.id) for n in net.nodes if isinstance(n, Server)],
            [net.bw_residual(link.id) for link in net.links])


class TestEpisodeOracle:
    """Whole arrival/departure sequences against `oracles.reference_place`:
    a write that the structure index misses, or a rollback that leaves it
    behind, shows only in a later episode."""

    @pytest.mark.parametrize("policy", list(Policy))
    @settings(max_examples=300, deadline=None)
    @given(net=loaded_substrates(), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_episodes_match_the_reference(self, policy, net, seed, data):
        ref = copy.deepcopy(net)
        stream, ref_rng = DrawStream(np.random.default_rng(seed)), np.random.default_rng(seed)
        held = []
        for i in range(data.draw(st.integers(1, 20))):
            if held and data.draw(st.integers(0, 2)) == 0:
                request, placement = held.pop(data.draw(st.integers(0, len(held) - 1)))
                release_placement(net, request, placement)
                reference_release(ref, request, placement)
            else:
                request = make_request(data.draw(st.sampled_from(list(SliceClass))),
                                       data.draw(st.sampled_from(net.uaps)), request_id=i)
                if data.draw(st.booleans()):  # unequal VL demands
                    request = dataclasses.replace(request, vls=tuple(
                        dataclasses.replace(vl, bw=data.draw(st.sampled_from([0.5, 1.0, 2.0])))
                        for vl in request.vls))
                got = place(net, request, policy, stream)
                want = reference_place(ref, request, policy, ref_rng)
                assert (got.status, got.blocking_vnf, got.cost) == \
                       (want.status, want.blocking_vnf, want.cost)
                if got.accepted:
                    assert (got.placement.x, got.placement.y) == \
                           (want.placement.x, want.placement.y)
                    held.append((request, got.placement))
                # one raw value too many or too few taken shows here
                assert stream.raw() == ref_rng.integers(1 << 32, dtype=np.uint32)
            assert residuals(net) == residuals(ref)

    @pytest.mark.parametrize("policy", list(Policy))
    @settings(max_examples=100, deadline=None)
    @given(net=loaded_substrates(), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_rejected_episode_leaves_the_store_bit_identical(self, policy, net, seed, data):
        stream = DrawStream(np.random.default_rng(seed))
        for i in range(data.draw(st.integers(1, 10))):
            request = make_request(data.draw(st.sampled_from(list(SliceClass))),
                                   data.draw(st.sampled_from(net.uaps)), request_id=i)
            before = [bytes(a) for a in (net.cpu_units, net.ram_units, net.bw_units)]
            if not place(net, request, policy, stream).accepted:
                assert [bytes(a) for a in (net.cpu_units, net.ram_units, net.bw_units)] == before
            assert net._undo == []
