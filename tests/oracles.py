"""Test oracles: independent solvers that the tests compare the program with.

`brute_force` is an exhaustive oracle for tiny instances, built on
simple-path enumeration via networkx plus direct constraint tallies. It
shares no search code with `sliceplace.exact`.

`paths_to` is the exact search's former path enumeration, one search per
destination; the single search of `sliceplace.exact._enumerate_paths` must
find what it finds for every relay node, and the candidate lists built on
it (`sliceplace.exact._later_candidates`) for every server they list. A
list holds a run server's path as its anchor's links and its uplink's id,
and a path from a server whose one link leads to a relay without that
link, which the list returns as its lead; the search joins them only when
it branches on the path: the tests join them to compare.

`plain_reach`, `plain_hop_path`, `lookahead`, `scan_feasible_servers` and
`narrow_to_best_tier` are plain one-pass versions of P2C's reach search,
hop search, lookahead rule, eligibility and tier narrowing.
`plain_access_latency` is a plain Dijkstra for the access latencies.
`exact_candidates` builds the exact search's later-VNF list from them, pass
by pass, and `plain_dedupe` drops twin servers by their incident links.
`reference_place` and `reference_release` build whole P2C episodes from
them, writing the residual arrays directly, with no `hold`, no
`give_back` and no numpy view. `loaded_substrates` draws the small random substrates they run
on, and `twinned` makes two servers of one of them twins.

`per_vnf_writes` is a plain units model of `apply_placement` and
`release_placement`: one write per VNF and per hop, as lists.
`residual_bytes` gives the bytes of the three residual arrays.

The oracles read residuals through `PhysicalNetwork.residual` and
`bw_residual`, in CPU units, GB and Gbps, and compare them with demands as
floats.
"""

from __future__ import annotations

import heapq
import itertools

import networkx as nx
import numpy as np
from hypothesis import strategies as st

from sliceplace.exact import SolveResult, SolveStatus
from sliceplace.nspr import SliceRequest
from sliceplace.p2c import PlacementOutcome, Policy
from sliceplace.placement import LATENCY_EPS, Placement, bandwidth_cost
from sliceplace.topology import (TIER_ORDER, DCKind, LinkKind, NodeKind, PhysicalNetwork,
                                 Server, TopologyParams, to_units)


class InstanceTooLargeError(ValueError):
    """Brute-force oracle refused an instance beyond its guard rails."""


def usable(net: PhysicalNetwork, lid: int, bw: float) -> bool:
    """Whether a link has bandwidth accounting and `bw` of it left."""
    r = net.bw_residual(lid)
    return r is not None and r >= bw


def fits(net: PhysicalNetwork, sid: int, cpu: float, ram: float) -> bool:
    """Whether a server has `cpu` and `ram` left."""
    cpu_left, ram_left = net.residual(sid)
    return cpu_left >= cpu and ram_left >= ram


def brute_force(psn: PhysicalNetwork, request: SliceRequest, *,
                max_servers: int = 8, max_vnfs: int = 3) -> SolveResult:
    """Exhaustive oracle: every VNF-to-server assignment crossed with every
    simple-path combination, checked by direct constraint tallies. Guarded to
    tiny instances; raises InstanceTooLargeError beyond the guard."""
    server_ids = sorted(s.id for s in psn.servers())
    n = request.n_vnfs
    if len(server_ids) > max_servers or n > max_vnfs:
        raise InstanceTooLargeError(
            f"{len(server_ids)} servers / {n} VNFs exceed the oracle guard "
            f"({max_servers} / {max_vnfs})")

    graph = nx.Graph()
    for node in psn.nodes:
        graph.add_node(node.id)
    for link in psn.links:
        if psn.bw_residual(link.id) is not None:
            graph.add_edge(link.a, link.b, lid=link.id)

    def simple_paths(a: int, b: int, bw: float, budget: float) -> list[tuple[int, ...]]:
        if a == b:
            return [()]
        out = []
        for node_path in nx.all_simple_paths(graph, a, b):
            lids = []
            lat = 0.0
            ok = True
            for u, w in zip(node_path, node_path[1:]):
                link = psn.links[graph[u][w]["lid"]]
                if psn.bw_residual(link.id) < bw:
                    ok = False
                    break
                lids.append(link.id)
                lat += link.latency_ms
            if ok and lat <= budget + LATENCY_EPS:
                out.append(tuple(lids))
        out.sort(key=lambda p: (len(p), sum(psn.links[l].latency_ms for l in p), p))
        return out

    alpha_by_dc = {dc_id: psn.access_latency(request.uap, dc_id)
                   for dc_id in psn.data_centers}
    path_cache: dict[tuple[int, int, int], list[tuple[int, ...]]] = {}

    best_cost: float | None = None
    best: tuple[dict[int, int], dict[int, list[int]]] | None = None
    nodes = 0
    deepest = 0

    for assign in itertools.product(server_ids, repeat=n):
        nodes += 1
        cpu_need: dict[int, float] = {}
        ram_need: dict[int, float] = {}
        for v, sid in enumerate(assign, start=1):
            cpu_need[sid] = cpu_need.get(sid, 0.0) + request.vnf(v).cpu
            ram_need[sid] = ram_need.get(sid, 0.0) + request.vnf(v).ram
        if any(cpu_need[sid] > psn.residual(sid)[0]
               or ram_need[sid] > psn.residual(sid)[1] for sid in cpu_need):
            continue
        alpha = alpha_by_dc[psn.nodes[assign[0]].dc]
        if alpha > request.alpha_max_ms + LATENCY_EPS:
            continue
        deepest = max(deepest, 1)

        per_vl: list[list[tuple[int, ...]]] = []
        feasible = True
        for i in range(1, n):
            key = (assign[i - 1], assign[i], i)
            if key not in path_cache:
                path_cache[key] = simple_paths(assign[i - 1], assign[i],
                                               request.vl(i).bw, request.vl(i).budget_ms)
            if not path_cache[key]:
                feasible = False
                break
            per_vl.append(path_cache[key])
        if not feasible:
            continue

        for combo in itertools.product(*per_vl):
            bw_need: dict[int, float] = {}
            total_lat = 0.0
            cost = 0.0
            ok = True
            for i, path in enumerate(combo, start=1):
                d_bw = request.vl(i).bw
                for lid in path:
                    bw_need[lid] = bw_need.get(lid, 0.0) + d_bw
                total_lat += sum(psn.links[lid].latency_ms for lid in path)
                cost += len(path) * d_bw
            if any(load > psn.bw_residual(lid) for lid, load in bw_need.items()):
                ok = False
            if ok and alpha + total_lat > request.e2e_budget_ms + LATENCY_EPS:
                ok = False
            if not ok:
                continue
            deepest = n
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best = ({v: s for v, s in enumerate(assign, start=1)},
                        {i: list(p) for i, p in enumerate(combo, start=1)})

    if best is None:
        return SolveResult(SolveStatus.INFEASIBLE, None, nodes, deepest)
    placement = Placement(best[0], best[1], 0.0)
    placement.cost = bandwidth_cost(request, placement)
    return SolveResult(SolveStatus.OPTIMAL, placement, nodes, deepest)


def paths_to(psn: PhysicalNetwork, src: int, dst: int, bw: float,
             budget_ms: float) -> list[tuple[int, ...]]:
    """All simple paths src -> dst over links with residual >= bw and total
    latency within budget, ordered by (hops, latency, link ids)."""
    if src == dst:
        return [()] if budget_ms >= -LATENCY_EPS else []
    found: list[tuple[int, float, tuple[int, ...]]] = []
    visited = {src}
    trail: list[int] = []

    def dfs(u: int, lat: float) -> None:
        for v, lid in psn.adj[u]:
            if v in visited:
                continue
            link = psn.links[lid]
            if not usable(psn, lid, bw):
                continue
            nl = lat + link.latency_ms
            if nl > budget_ms + LATENCY_EPS:
                continue
            if v == dst:
                found.append((len(trail) + 1, nl, tuple(trail) + (lid,)))
                continue
            visited.add(v)
            trail.append(lid)
            dfs(v, nl)
            trail.pop()
            visited.discard(v)

    dfs(src, 0.0)
    found.sort()
    return [p for _, _, p in found]


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
            if not usable(net, lid, bw):
                continue
            nd = d + link.latency_ms
            if nd <= budget_ms + LATENCY_EPS and nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(pq, (nd, v))
    return dist


def plain_access_latency(net: PhysicalNetwork, uap: int) -> dict[str, float]:
    """Reference for `PhysicalNetwork.access_latency`: a plain Dijkstra from
    the UAP over every link, leaves and links without bandwidth accounting
    included; each DC at its switch's distance, +inf where unreached."""
    dist = {uap: 0.0}
    pq = [(0.0, uap)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist[u]:
            continue
        for v, lid in net.adj[u]:
            nd = d + net.links[lid].latency_ms
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(pq, (nd, v))
    return {dc.id: dist.get(dc.switch, float("inf")) for dc in net.data_centers.values()}


def plain_hop_path(net: PhysicalNetwork, src: int, dst: int, bw: float) -> list[int] | None:
    """Reference for min_cost_path's first stage: BFS that expands every
    node, leaves included, in ascending id order."""
    parent = {src: (-1, -1)}
    level = [src]
    while level:
        nxt = []
        for u in sorted(level):
            for v, lid in sorted(net.adj[u]):
                if v in parent or not usable(net, lid, bw):
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


def lookahead(net: PhysicalNetwork, request, v: int, sid: int) -> bool:
    """Reference lookahead for one server: room for VNF v and, before the
    final VNF, room for VNF v+1 too or an incident link that carries VL v."""
    d = request.vnf(v)
    if not fits(net, sid, d.cpu, d.ram):
        return False
    if v == request.n_vnfs:
        return True
    d_next = request.vnf(v + 1)
    return (fits(net, sid, d.cpu + d_next.cpu, d.ram + d_next.ram)
            or any(usable(net, lid, request.vl(v).bw) for _, lid in net.adj[sid]))


def scan_feasible_servers(net: PhysicalNetwork, request, v: int, last_s: int | None,
                          used_e2e_ms: float) -> list[int]:
    """Reference eligibility: the rule of `feasible_servers` applied to every
    server of the network in id order."""
    d_v = request.vnf(v)
    servers = [n for n in net.nodes if isinstance(n, Server)]
    if v == 1:
        bound = request.alpha_max_ms + LATENCY_EPS
        ok_dcs = {dc_id for dc_id in net.data_centers
                  if net.access_latency(request.uap, dc_id) <= bound}
        return [s.id for s in servers if s.dc in ok_dcs and lookahead(net, request, 1, s.id)]
    vl = request.vl(v - 1)
    eff_budget = min(vl.budget_ms, request.e2e_budget_ms - used_e2e_ms)
    reach = plain_reach(net, last_s, vl.bw, eff_budget)
    last_dc = net.nodes[last_s].dc
    out = []
    for srv in servers:
        if srv.id == last_s:
            if lookahead(net, request, v, srv.id):
                out.append(srv.id)
            continue
        if reach.get(srv.id, float("inf")) > eff_budget + LATENCY_EPS:
            continue
        if srv.dc == last_dc:
            if lookahead(net, request, v, srv.id):
                out.append(srv.id)
        elif fits(net, srv.id, d_v.cpu, d_v.ram):
            out.append(srv.id)
    return out


def plain_dedupe(net: PhysicalNetwork, candidates: list[int]) -> list[int]:
    """Reference twin dedupe: keep each server whose (DC, CPU, RAM, incident
    links as (neighbour, residual, latency)) no server before it shares."""
    seen, out = set(), []
    for sid in candidates:
        key = (net.nodes[sid].dc, net.residual(sid),
               tuple(sorted((nbr, net.bw_residual(lid), net.links[lid].latency_ms)
                            for nbr, lid in net.adj[sid])))
        if key not in seen:
            seen.add(key)
            out.append(sid)
    return out


def exact_candidates(net: PhysicalNetwork, request, v: int, last_s: int, budget_ms: float,
                     dc_first: bool) -> list[int]:
    """Reference for the exact search's VNF-v list, v > 1: the servers of
    `plain_reach` from last_s within budget_ms over links that carry VL v-1,
    in id order, that pass `lookahead`; with dc_first, regrouped as ILP-1
    searches (last_s, then the rest of its DC, then the others); then
    `plain_dedupe`. With dc_first, last_s is then dropped, after it has
    hidden its twins: ILP-1 tries it before it builds the list."""
    reach = plain_reach(net, last_s, request.vl(v - 1).bw, budget_ms)
    cands = [sid for sid in sorted(reach)
             if isinstance(net.nodes[sid], Server) and lookahead(net, request, v, sid)]
    if not dc_first:
        return plain_dedupe(net, cands)
    dc = net.nodes[last_s].dc
    cands = ([sid for sid in cands if sid == last_s]
             + [sid for sid in cands if sid != last_s and net.nodes[sid].dc == dc]
             + [sid for sid in cands if net.nodes[sid].dc != dc])
    return [sid for sid in plain_dedupe(net, cands) if sid != last_s]


LINK_LATENCIES = [0.0, 0.1, 0.33, 0.5, 1.0]
LINK_BWS = [0.5, 1.0, 2.0, 10.0]


@st.composite
def loaded_substrates(draw):
    """Small substrates of star DCs plus random extra links, so that some
    servers have two or more links; servers and links are partly loaded and
    some links are too thin for any demand.

    On some draws the servers are created across DCs in a shuffled order,
    so that a switch's servers are not consecutive in id order, and some
    uplinks have latency, so that one switch holds servers of two uplink
    latencies. Those are what split `StructureIndex.runs`.

    On some draws the first three of three or four DCs have their switches
    joined pairwise, a triangle of unloaded 10 Gbps links, and the
    triangle's links and every uplink outside `spare` have one latency, 0.1
    or 0.33 ms: a switch is then reached over one link and over two, and
    from a server behind another switch, within a budget of 0.33 or 1 ms,
    only the one-link path leaves room for a run's uplink latency.

    On some draws one DC, `spare`, keeps room: its uplinks carry any demand
    and stay unloaded, its servers are lightly loaded, and the first UAP sits
    next to it within every class's access bound. More episodes then get
    past VNF 1 to the VNFs where the lookahead and the bandwidth writes act.
    One of its servers may then get a second link, or lose its uplink, so
    that a root DC holds a server with several links or none.

    On some draws the whole substrate is `light`: every server and link is
    lightly loaded and every UAP sits within every class's access bound, so
    that most episodes reach VNF 3 and later.

    A server's RAM is loaded at six times its CPU load, the ratio of every
    default class and of the servers' capacities; on some draws it is drawn
    apart, so that some servers are short of RAM alone and others of CPU
    alone, and a test can tell a CPU check from a RAM check."""
    net = PhysicalNetwork(TopologyParams())
    kinds = list(DCKind)
    unlinked = []
    light = draw(st.booleans())
    spare = draw(st.one_of(st.none(), st.integers(0, 3)))
    tri = draw(st.one_of(st.none(), st.sampled_from([0.1, 0.33])))  # triangle latency
    dcs = [net.add_data_center(f"dc{d}", draw(st.sampled_from(kinds)))
           for d in range(draw(st.integers(1 if tri is None else 3, 4)))]
    homes = [d for d in range(len(dcs)) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        homes = draw(st.permutations(homes))
    lagged = tri is not None or draw(st.booleans())  # some uplinks with latency
    spare_cut = spare is not None and draw(st.booleans())  # spare's first server unlinked
    for i, d in enumerate(homes):
        dc = dcs[d]
        sid = net.add_server(f"dc{d}-s{i}", dc.id, 50.0, 300.0)
        if spare_cut and d == spare and sid == dc.servers[0]:
            unlinked.append(sid)
        elif draw(st.integers(0, 5)):  # an occasional server has no uplink
            if not lagged or d == spare:
                lat = 0.0
            else:
                lat = tri if tri is not None else draw(st.sampled_from(LINK_LATENCIES))
            net.add_link(dc.switch, sid, lat,
                         LinkKind.INTRA_DC if lat == 0 else LinkKind.TRANSPORT,
                         draw(st.sampled_from(LINK_BWS[1:] if d == spare else LINK_BWS)))
        else:
            unlinked.append(sid)
    switches = [dc.switch for dc in net.data_centers.values()]
    triangle: list[int] = []  # its links, which carry any demand and stay unloaded
    for sid in unlinked:
        if draw(st.booleans()):  # or one with latency, to any switch
            net.add_link(draw(st.sampled_from(switches)), sid,
                         draw(st.sampled_from(LINK_LATENCIES)), LinkKind.TRANSPORT,
                         draw(st.sampled_from(LINK_BWS)))
    for i, a in enumerate(switches):
        for j, b in enumerate(switches[i + 1:], i + 1):
            if tri is not None and j < 3:
                triangle.append(net.add_link(a, b, tri, LinkKind.TRANSPORT, 10.0))
            elif draw(st.booleans()):
                net.add_link(a, b, draw(st.sampled_from(LINK_LATENCIES)),
                             LinkKind.TRANSPORT, draw(st.sampled_from(LINK_BWS)))
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.lists(st.integers(0, len(net.nodes) - 1),
                             min_size=2, max_size=2, unique=True))
        if net.link_between(a, b) is None:  # two nodes hold one link at most
            net.add_link(a, b, draw(st.sampled_from(LINK_LATENCIES)),
                         LinkKind.TRANSPORT, draw(st.sampled_from(LINK_BWS)))
    spare_dc = net.data_centers.get(f"dc{spare}")
    if spare_dc is not None and not spare_cut and draw(st.booleans()):
        # a second link for one of its servers, to another node it has none to
        sid = draw(st.sampled_from(spare_dc.servers))
        others = [u for u in range(len(net.nodes)) if u != sid and net.link_between(u, sid) is None]
        if others:
            net.add_link(sid, draw(st.sampled_from(others)), draw(st.sampled_from(LINK_LATENCIES)),
                         LinkKind.TRANSPORT, draw(st.sampled_from(LINK_BWS[1:])))
    for u in range(draw(st.integers(1, 2))):
        uap = net.add_node(f"uap{u}", NodeKind.UAP)
        if u == 0 and spare_dc is not None:
            net.add_link(uap, spare_dc.switch, 0.02, LinkKind.ACCESS, None)
        else:
            net.add_link(uap, draw(st.sampled_from(switches)),
                         draw(st.sampled_from([0.02] if light else [0.02, 0.05, 0.1])),
                         LinkKind.ACCESS, None)
        net.uaps.append(uap)
    if draw(st.booleans()):  # load with views of the residual arrays out
        net.vectors()
    spare_id = spare_dc.id if spare_dc is not None else None
    ram_apart = draw(st.booleans())  # RAM loaded apart from CPU
    for srv in net.servers():
        loads = ([0.0, 10.0] if light or srv.dc == spare_id
                 else [0.0, 10.0, 20.0, 30.0, 40.0, 50.0])
        cpu = draw(st.sampled_from(loads))
        net.allocate(srv.id, cpu, (draw(st.sampled_from(loads)) if ram_apart else cpu) * 6)
    for link in net.links:
        if link.bw_capacity is not None:
            if link.kind is LinkKind.INTRA_DC and net.nodes[link.a].dc == spare_id \
                    or link.id in triangle:
                shares = [0.0]
            else:
                shares = [0.0, 0.5] if light else [0.0, 0.5, 1.0]
            share = draw(st.sampled_from(shares))
            net.allocate_bw(link.id, link.bw_capacity * share)
    return net


@st.composite
def twinned(draw, nets):
    """A substrate of `nets` in which, on most draws, one server of a run
    (`topology.Run`: same DC, anchor and uplink latency) takes the CPU, RAM
    and uplink residuals of another server of that run, so that the two are
    twins (`exact._twin_key`). The residuals go from the one whose uplink
    has the smaller residual to the other, whose uplink capacity holds it;
    servers have equal capacities, as `loaded_substrates` draws them."""
    net = draw(nets)
    idx = net.index()
    runs = [run for run in idx.runs if run.stop - run.start > 1]
    if not runs or not draw(st.integers(0, 3)):
        return net
    run = draw(st.sampled_from(runs))
    p, q = draw(st.lists(st.integers(run.start, run.stop - 1), min_size=2, max_size=2,
                         unique=True))
    shift = run.link - run.start  # the uplink of position p is link shift + p
    if net.bw_units[shift + p] > net.bw_units[shift + q]:
        p, q = q, p
    # q's residuals back to capacity, then down to p's
    sid, up = idx.servers[q].id, shift + q
    net.write_units(1, {sid: (idx.cpu_cap[q] - net.cpu_units[q],
                              idx.ram_cap[q] - net.ram_units[q])},
                    {up: idx.bw_cap[up] - net.bw_units[up]})
    net.write_units(-1, {sid: (idx.cpu_cap[q] - net.cpu_units[p],
                               idx.ram_cap[q] - net.ram_units[p])},
                    {up: idx.bw_cap[up] - net.bw_units[shift + p]})
    return net


def narrow_to_best_tier(net: PhysicalNetwork, candidates: list[int]) -> list[int]:
    """Reference P2C-2 narrowing: one pass over an eligibility list keeping
    the servers of the best tier present, CCP over CDC over EDC, servers
    outside any DC last."""
    best, pool = len(TIER_ORDER) + 1, []
    for s in candidates:
        dc = net.data_centers.get(net.nodes[s].dc)
        r = TIER_ORDER.index(dc.kind) if dc else len(TIER_ORDER)
        if r == best:
            pool.append(s)
        elif r < best:
            best, pool = r, [s]
    return pool


def plain_min_cost_path(net: PhysicalNetwork, src: int, dst: int, bw: float,
                        budget_ms: float) -> list[int] | None:
    """Reference for `min_cost_path` between distinct nodes: the plain
    minimum-hop path if its latency fits the budget, else the minimum-latency
    path of a plain Dijkstra over every node, if that one fits."""
    path = plain_hop_path(net, src, dst, bw)
    if path is None or sum(net.links[lid].latency_ms for lid in path) <= budget_ms + LATENCY_EPS:
        return path
    dist = {src: 0.0}
    parent = {src: (-1, -1)}
    pq = [(0.0, src)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist[u]:
            continue
        for v, lid in net.adj[u]:
            link = net.links[lid]
            if not usable(net, lid, bw):
                continue
            nd = d + link.latency_ms
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                parent[v] = (u, lid)
                heapq.heappush(pq, (nd, v))
    if dist.get(dst, float("inf")) > budget_ms + LATENCY_EPS:
        return None
    path = []
    while dst != src:
        dst, lid = parent[dst]
        path.append(lid)
    return path[::-1]


def reference_place(psn: PhysicalNetwork, request: SliceRequest, policy: Policy,
                    rng: np.random.Generator) -> PlacementOutcome:
    """Reference P2C episode. Per VNF: the all-server scan, narrowed to the
    best tier under TIER_PREFERRED; two candidates by
    `rng.choice(n, 2, replace=False)` (one candidate is taken twice, without
    a draw); the one whose plain path from the previous server is shorter,
    the first on a tie, the previous server itself outright. It writes the
    residual arrays directly and keeps the pre-episode value of each slot in
    a dict, which a rejection writes back."""
    old: dict[tuple[int, int], int] = {}  # (array, slot) -> units before the episode
    stores = (psn.cpu_units, psn.ram_units, psn.bw_units)

    def take(k: int, i: int, amount: float) -> None:
        old.setdefault((k, i), stores[k][i])
        stores[k][i] -= to_units(amount)

    def reject(v: int) -> PlacementOutcome:
        for (k, i), units in old.items():
            stores[k][i] = units
        return PlacementOutcome(None, v)

    x: dict[int, int] = {}
    y: dict[int, list[int]] = {}
    cost = used_e2e = 0.0
    last_s = None
    for v in range(1, request.n_vnfs + 1):
        candidates = scan_feasible_servers(psn, request, v, last_s, used_e2e)
        if policy is Policy.TIER_PREFERRED:
            candidates = narrow_to_best_tier(psn, candidates)
        if not candidates:
            return reject(v)
        if len(candidates) == 1:
            s1 = s2 = candidates[0]
        else:
            i, j = rng.choice(len(candidates), 2, replace=False)
            s1, s2 = candidates[i], candidates[j]
        path: list[int] = []
        if v == 1:
            chosen = s1
        elif last_s in (s1, s2):
            chosen = last_s
        else:
            vl = request.vl(v - 1)
            budget = min(vl.budget_ms, request.e2e_budget_ms - used_e2e)
            p1 = plain_min_cost_path(psn, last_s, s1, vl.bw, budget)
            p2 = plain_min_cost_path(psn, last_s, s2, vl.bw, budget)
            if p1 is None and p2 is None:
                return reject(v)
            if p2 is None or (p1 is not None and len(p1) <= len(p2)):
                chosen, path = s1, p1
            else:
                chosen, path = s2, p2
        d = request.vnf(v)
        p = psn.index().pos[chosen]
        take(0, p, d.cpu)
        take(1, p, d.ram)
        if v == 1:
            used_e2e = psn.access_latency(request.uap, psn.nodes[chosen].dc)
        else:
            vl = request.vl(v - 1)
            for lid in path:
                take(2, lid, vl.bw)
                used_e2e += psn.links[lid].latency_ms
            y[v - 1] = path
            cost += len(path) * vl.bw
        x[v] = chosen
        last_s = chosen
    return PlacementOutcome(Placement(x, y, cost))


def residual_bytes(net: PhysicalNetwork) -> tuple[bytes, bytes, bytes]:
    """The bytes of the CPU, RAM and bandwidth residual arrays."""
    return tuple(a.tobytes() for a in (net.cpu_units, net.ram_units, net.bw_units))


def per_vnf_writes(net: PhysicalNetwork, request: SliceRequest, placement: Placement,
                   sign: int) -> tuple[list[int], list[int], list[int]] | None:
    """The CPU, RAM and bandwidth residuals, as lists, after a placement's
    demands are taken (sign -1) or returned (sign 1) one VNF and one hop at
    a time, in VNF and VL order, each demand converted on its own. None if
    a write on the way leaves [0, capacity]."""
    cpu, ram, bw = (list(a) for a in (net.cpu_units, net.ram_units, net.bw_units))
    for v, s in sorted(placement.x.items()):
        d, srv, p = request.vnf(v), net.nodes[s], net.index().pos[s]
        cpu[p] += sign * to_units(d.cpu)
        ram[p] += sign * to_units(d.ram)
        if not (0 <= cpu[p] <= to_units(srv.cpu_capacity)
                and 0 <= ram[p] <= to_units(srv.ram_capacity)):
            return None
    for i, path in sorted(placement.y.items()):
        for lid in path:
            bw[lid] += sign * to_units(request.vl(i).bw)
            if not 0 <= bw[lid] <= to_units(net.links[lid].bw_capacity):
                return None
    return cpu, ram, bw


def reference_release(psn: PhysicalNetwork, request: SliceRequest,
                      placement: Placement) -> None:
    """Give a placement's demands back by direct writes to the residual arrays."""
    for v, s in sorted(placement.x.items()):
        p = psn.index().pos[s]
        psn.cpu_units[p] += to_units(request.vnf(v).cpu)
        psn.ram_units[p] += to_units(request.vnf(v).ram)
    for i, path in sorted(placement.y.items()):
        for lid in path:
            psn.bw_units[lid] += to_units(request.vl(i).bw)
