"""Test oracles: independent solvers that the tests compare the program with.

`brute_force` is an exhaustive oracle for tiny instances, built on
simple-path enumeration via networkx plus direct constraint tallies. It
shares no search code with `sliceplace.exact`.
"""

from __future__ import annotations

import itertools

import networkx as nx

from sliceplace.exact import SolveResult, SolveStatus
from sliceplace.nspr import SliceRequest
from sliceplace.placement import LATENCY_EPS, Placement, bandwidth_cost
from sliceplace.topology import PhysicalNetwork


class InstanceTooLargeError(ValueError):
    """Brute-force oracle refused an instance beyond its guard rails."""


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
        if link.bw_residual is not None:
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
                if link.bw_residual < bw:
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
        if any(cpu_need[sid] > psn.server(sid).cpu_residual
               or ram_need[sid] > psn.server(sid).ram_residual for sid in cpu_need):
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
            if any(load > psn.links[lid].bw_residual for lid, load in bw_need.items()):
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
        return SolveResult(SolveStatus.INFEASIBLE, None, None, nodes, deepest)
    placement = Placement(best[0], best[1], 0.0)
    placement.cost = bandwidth_cost(request, placement)
    return SolveResult(SolveStatus.OPTIMAL, placement, best_cost, nodes, deepest)

