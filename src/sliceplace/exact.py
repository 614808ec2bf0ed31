"""Exact chain placement: optimal and first-feasible baselines.

Both solvers run a depth-first branch-and-bound over chain-order VNF-to-server
assignments, branching over exhaustively enumerated feasible simple paths per
virtual link. `solve_ilp1` minimizes the bandwidth objective; the feasibility
baseline `solve_ilp2` stops at the first complete placement. Determinism
comes from fixed candidate and path orderings.

Eligibility is the rule of `placement.root_dcs` and `lookahead_ok`, which
P2C's `feasible_servers` applies to all servers at once. Each search frame
holds its VNF and path in a substrate transaction it rolls back.

Searches carry an explored-node budget. A tripped budget (or a truncated path
enumeration) is reported as BUDGET_EXCEEDED, never as a silently suboptimal
OPTIMAL; any best-known placement found by then is still returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .nspr import SliceRequest
from .placement import (LATENCY_EPS, Placement, bandwidth_cost, latency_reach,
                        lookahead_ok, root_dcs)
from .topology import PhysicalNetwork, Server

DEFAULT_NODE_BUDGET = 200_000


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    BUDGET_EXCEEDED = "budget_exceeded"


@dataclass
class SolveResult:
    status: SolveStatus
    placement: Placement | None
    objective: float | None
    nodes_explored: int
    # deepest VNF index that was ever successfully committed (0 = none)
    deepest_feasible_vnf: int


class _BudgetExhausted(Exception):
    pass


class _FoundFeasible(Exception):
    pass


def _enumerate_paths(psn: PhysicalNetwork, src: int, dst: int, bw: float,
                     budget_ms: float, max_paths: int | None) -> tuple[list[tuple[int, ...]], bool]:
    """All simple paths src -> dst over links with residual >= bw and total
    latency within budget, ordered by (hops, latency, link ids). The flag
    reports truncation by max_paths."""
    if src == dst:
        return ([()] if budget_ms >= -LATENCY_EPS else []), False
    found: list[tuple[int, float, tuple[int, ...]]] = []
    truncated = False
    visited = {src}
    trail: list[int] = []
    adj_sorted = psn.index().adj_sorted

    def dfs(u: int, lat: float) -> None:
        nonlocal truncated
        if truncated:
            return
        for v, lid in adj_sorted[u]:
            if v in visited:
                continue
            link = psn.links[lid]
            if link.bw_residual is None or link.bw_residual < bw:
                continue
            nl = lat + link.latency_ms
            if nl > budget_ms + LATENCY_EPS:
                continue
            if v == dst:
                found.append((len(trail) + 1, nl, tuple(trail) + (lid,)))
                if max_paths is not None and len(found) >= max_paths:
                    truncated = True
                    return
                continue
            visited.add(v)
            trail.append(lid)
            dfs(v, nl)
            trail.pop()
            visited.discard(v)
            if truncated:
                return

    dfs(src, 0.0)
    found.sort()
    return [p for _, _, p in found], truncated


def _solve(psn: PhysicalNetwork, request: SliceRequest, *, find_optimal: bool,
           max_nodes: int | None, max_paths_per_vl: int | None) -> SolveResult:
    n = request.n_vnfs
    servers = {s.id: s for s in psn.servers()}
    alpha_by_dc = {dc_id: psn.access_latency(request.uap, dc_id)
                   for dc_id in psn.data_centers}
    ok_dcs = root_dcs(psn, request)

    best_cost: float | None = None
    best_x: dict[int, int] | None = None
    best_y: dict[int, list[int]] | None = None
    nodes = 0
    deepest = 0
    truncated_any = False

    total_cpu = [sum(request.vnf(v).cpu for v in range(u, n + 1)) for u in range(1, n + 2)]
    total_ram = [sum(request.vnf(v).ram for v in range(u, n + 1)) for u in range(1, n + 2)]

    x: dict[int, int] = {}
    y: dict[int, list[int]] = {}

    def twin_key(srv: Server) -> tuple:
        incident = tuple(sorted(
            (nbr, psn.links[lid].bw_residual, psn.links[lid].latency_ms)
            for nbr, lid in psn.adj[srv.id]))
        return (srv.dc, srv.cpu_residual, srv.ram_residual, incident)

    def dedupe(cands: list[int]) -> list[int]:
        # same-signature servers behind the same neighbors are automorphic
        # twins; exploring one of them covers all
        seen: set[tuple] = set()
        out = []
        for sid in cands:
            key = twin_key(servers[sid])
            if key in seen:
                continue
            seen.add(key)
            out.append(sid)
        return out

    def candidates(v: int, last_s: int | None, used_e2e: float) -> list[tuple[int, list[tuple[int, ...]]]]:
        """Eligible (server, feasible paths) pairs for VNF v, search order."""
        nonlocal truncated_any
        if sum(s.cpu_residual for s in servers.values()) < total_cpu[v - 1] or \
           sum(s.ram_residual for s in servers.values()) < total_ram[v - 1]:
            return []
        ok = lookahead_ok(psn, request, v)
        if v == 1:
            cands = [sid for sid, srv in sorted(servers.items())
                     if srv.dc in ok_dcs and ok(srv)]
            return [(sid, [()]) for sid in dedupe(cands)]
        vl = request.vl(v - 1)
        eff = min(vl.budget_ms, request.e2e_budget_ms - used_e2e)
        reach = latency_reach(psn, last_s, vl.bw, eff)
        last_dc = psn.nodes[last_s].dc
        cands = []
        for sid, srv in sorted(servers.items()):
            if sid != last_s and reach.get(sid, float("inf")) > eff + LATENCY_EPS:
                continue
            if not ok(srv):
                continue
            rank = 0 if sid == last_s else (1 if srv.dc == last_dc else 2)
            cands.append((rank, sid))
        if find_optimal:
            cands.sort()
        picked = []
        deduped = dedupe([sid for _, sid in cands])
        keep = set(deduped)
        for _, sid in cands:
            if sid not in keep:
                continue
            if sid == last_s:
                paths: list[tuple[int, ...]] = [()]
            else:
                paths, trunc = _enumerate_paths(psn, last_s, sid, vl.bw, eff,
                                                max_paths_per_vl)
                truncated_any = truncated_any or trunc
            if paths:
                picked.append((sid, paths))
        return picked

    def expand(v: int, last_s: int | None, used_e2e: float, committed: float) -> None:
        nonlocal nodes, deepest, best_cost, best_x, best_y
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise _BudgetExhausted
        if v > n:
            if best_cost is None or committed < best_cost:
                best_cost = committed
                best_x = dict(x)
                best_y = {i: list(p) for i, p in y.items()}
            if not find_optimal or best_cost == 0.0:
                raise _FoundFeasible
            return
        d = request.vnf(v)
        for sid, paths in candidates(v, last_s, used_e2e):
            srv = servers[sid]
            for path in paths:
                cost_p = 0.0 if v == 1 else len(path) * request.vl(v - 1).bw
                if best_cost is not None and committed + cost_p >= best_cost:
                    if v > 1:
                        break  # paths sorted by hops; the rest cost at least this much
                    continue
                mark = psn.begin()
                try:
                    psn.allocate(sid, d.cpu, d.ram)
                    for lid in path:
                        psn.allocate_bw(lid, request.vl(v - 1).bw)
                    x[v] = sid
                    if v > 1:
                        y[v - 1] = list(path)
                    path_lat = sum(psn.links[lid].latency_ms for lid in path)
                    next_e2e = alpha_by_dc[srv.dc] if v == 1 else used_e2e + path_lat
                    deepest = max(deepest, v)
                    expand(v + 1, sid, next_e2e, committed + cost_p)
                finally:
                    y.pop(v - 1, None)
                    x.pop(v, None)
                    psn.rollback(mark)

    status = SolveStatus.OPTIMAL
    try:
        expand(1, None, 0.0, 0.0)
    except _FoundFeasible:
        pass
    except _BudgetExhausted:
        status = SolveStatus.BUDGET_EXCEEDED

    if status is not SolveStatus.BUDGET_EXCEEDED and truncated_any:
        if find_optimal or best_cost is None:
            status = SolveStatus.BUDGET_EXCEEDED

    if best_cost is None:
        if status is SolveStatus.OPTIMAL:
            status = SolveStatus.INFEASIBLE
        return SolveResult(status, None, None, nodes, deepest)

    placement = Placement(best_x, best_y, 0.0)
    placement.cost = bandwidth_cost(request, placement)
    return SolveResult(status, placement, best_cost, nodes, deepest)


def solve_ilp1(psn: PhysicalNetwork, request: SliceRequest, *,
               max_nodes: int | None = DEFAULT_NODE_BUDGET,
               max_paths_per_vl: int | None = None) -> SolveResult:
    """Minimum-bandwidth placement of the whole chain: each virtual link
    costs its demand times its path length. The substrate is left
    untouched; callers apply the returned placement explicitly."""
    return _solve(psn, request, find_optimal=True, max_nodes=max_nodes,
                  max_paths_per_vl=max_paths_per_vl)


def solve_ilp2(psn: PhysicalNetwork, request: SliceRequest, *,
               max_nodes: int | None = DEFAULT_NODE_BUDGET,
               max_paths_per_vl: int | None = None) -> SolveResult:
    """First complete feasible placement in ascending-server-id order,
    realizing the accept-whenever-possible baseline. OPTIMAL here just means
    a feasible placement was found."""
    return _solve(psn, request, find_optimal=False, max_nodes=max_nodes,
                  max_paths_per_vl=max_paths_per_vl)
