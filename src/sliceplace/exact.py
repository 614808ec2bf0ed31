"""Exact chain placement: optimal and first-feasible baselines.

Both solvers run a depth-first branch-and-bound over chain-order VNF-to-server
assignments, branching over exhaustively enumerated feasible simple paths per
virtual link. Each VNF expansion runs one path search from the previous VNF's
server that serves every candidate server at once, relaying through candidates
too. `solve_ilp1` minimizes the bandwidth objective; the feasibility
baseline `solve_ilp2` stops at the first complete placement. Determinism
comes from fixed candidate and path orderings.

Eligibility is P2C's, read from the same masks: VNF-1 candidates are
`placement.feasible_servers`, and a later VNF's are the servers of
`latency_reach` from the previous server that pass `lookahead_mask`, in
every DC (P2C exempts the other DCs from the lookahead). Each search frame
holds its VNF and path in a substrate transaction it rolls back.

Searches carry an explored-node budget. A tripped budget (or a truncated path
enumeration) is reported as BUDGET_EXCEEDED, never as a silently suboptimal
OPTIMAL; any best-known placement found by then is still returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .nspr import SliceRequest
from .placement import (LATENCY_EPS, Placement, bandwidth_cost, feasible_servers,
                        latency_reach, lookahead_mask)
from .topology import PhysicalNetwork, to_units

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


def _enumerate_paths(psn: PhysicalNetwork, src: int, dsts: Iterable[int], bw: float,
                     budget_ms: float, max_paths: int | None
                     ) -> tuple[dict[int, list[tuple[int, ...]]], set[int]]:
    """All simple paths from src to each node of dsts (src excluded) over
    links with residual >= bw and total latency within budget, from one
    search. Each destination's paths are ordered by (hops, latency, link
    ids); destinations without a path are left out. With max_paths a
    destination keeps the first max_paths paths in search order and is
    reported as truncated."""
    open_dsts = set(dsts) - {src}
    found: dict[int, list[tuple[int, float, tuple[int, ...]]]] = {}
    truncated: set[int] = set()
    visited = {src}
    trail: list[int] = []
    adj_sorted = psn.index().adj_sorted
    links, bw_units, need = psn.links, psn.bw_units, to_units(bw)

    def dfs(u: int, lat: float) -> None:
        for v, lid in adj_sorted[u]:
            # a destination may relay to another one; a degree-1 node leads
            # nowhere but back, so one that is no destination is skipped
            leaf = len(adj_sorted[v]) == 1
            if v in visited or (leaf and v not in open_dsts) or bw_units[lid] < need:
                continue
            nl = lat + links[lid].latency_ms
            if nl > budget_ms + LATENCY_EPS:
                continue
            if v in open_dsts:
                paths = found.setdefault(v, [])
                paths.append((len(trail) + 1, nl, tuple(trail) + (lid,)))
                if max_paths is not None and len(paths) >= max_paths:
                    open_dsts.discard(v)
                    truncated.add(v)
                    if not open_dsts:
                        return
            if not leaf:
                visited.add(v)
                trail.append(lid)
                dfs(v, nl)
                trail.pop()
                visited.discard(v)
                if not open_dsts:
                    return

    if open_dsts:
        dfs(src, 0.0)
    return {d: [p for _, _, p in sorted(f)] for d, f in found.items()}, truncated


def _solve(psn: PhysicalNetwork, request: SliceRequest, *, find_optimal: bool,
           max_nodes: int | None, max_paths_per_vl: int | None) -> SolveResult:
    n = request.n_vnfs
    idx = psn.index()
    net_nodes, links, adj_sorted = psn.nodes, psn.links, idx.adj_sorted
    pos, cpu, ram, bw_units = idx.pos, psn.cpu_units, psn.ram_units, psn.bw_units

    best_cost: float | None = None
    best_x: dict[int, int] | None = None
    best_y: dict[int, list[int]] | None = None
    nodes = 0
    deepest = 0
    truncated_any = False

    need_cpu = sum(to_units(request.vnf(v).cpu) for v in range(1, n + 1))
    need_ram = sum(to_units(request.vnf(v).ram) for v in range(1, n + 1))

    x: dict[int, int] = {}
    y: dict[int, list[int]] = {}

    def twin_key(sid: int) -> tuple:
        # neighbours are distinct (`add_link`), so adj_sorted orders by neighbour
        incident = tuple([(nbr, bw_units[lid], links[lid].latency_ms)
                          for nbr, lid in adj_sorted[sid]])
        p = pos[sid]
        return (net_nodes[sid].dc, cpu[p], ram[p], incident)

    def dedupe(cands: list[int]) -> list[int]:
        # same-signature servers behind the same neighbors are automorphic
        # twins; exploring one of them covers all
        seen: set[tuple] = set()
        out = []
        for sid in cands:
            key = twin_key(sid)
            if key in seen:
                continue
            seen.add(key)
            out.append(sid)
        return out

    def candidates(v: int, last_s: int | None, used_e2e: float) -> list[tuple[int, list[tuple[int, ...]]]]:
        """Eligible (server, feasible paths) pairs for VNF v, search order."""
        nonlocal truncated_any
        if v == 1:
            # depth-invariant: deeper, residuals and demands drop by what is held
            if sum(cpu) < need_cpu or sum(ram) < need_ram:
                return []
            return [(sid, [()]) for sid in dedupe(feasible_servers(psn, request, 1, None))]
        vl = request.vl(v - 1)
        eff = min(vl.budget_ms, request.e2e_budget_ms - used_e2e)
        # every entry lies within eff; last_s, at 0, always does
        reach = latency_reach(psn, last_s, vl.bw, eff)
        cands = [sid for sid in idx.id[lookahead_mask(psn, request, v)].tolist()
                 if sid in reach]
        if find_optimal:
            # last_s, then its DC, then the rest; the sort is stable
            last_dc = net_nodes[last_s].dc
            cands.sort(key=lambda sid: 0 if sid == last_s
                       else (1 if net_nodes[sid].dc == last_dc else 2))
        keep = set(dedupe(cands))
        by_dst, truncated = _enumerate_paths(psn, last_s, keep, vl.bw, eff,
                                             max_paths_per_vl)
        truncated_any = truncated_any or bool(truncated)
        if last_s in keep:
            by_dst[last_s] = [()]
        return [(sid, by_dst[sid]) for sid in cands if sid in by_dst]

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
                    next_e2e = (psn.access_latency(request.uap, net_nodes[sid].dc) if v == 1
                                else used_e2e + path_lat)
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
