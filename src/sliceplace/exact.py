"""Exact chain placement: optimal and first-feasible baselines.

Both solvers run a depth-first branch-and-bound over chain-order VNF-to-server
assignments, branching over exhaustively enumerated feasible simple paths per
virtual link. Each VNF expansion runs one path search from the previous VNF's
server that serves every candidate server at once, relaying through candidates
too. `solve_ilp1` minimizes the bandwidth objective; the feasibility
baseline `solve_ilp2` stops at the first complete placement. Determinism
comes from fixed candidate and path orderings.

Eligibility is P2C's, read from the same rules: VNF-1 candidates are
`placement.feasible_servers`, and a later VNF's are the servers of
`latency_reach` from the previous server that pass the lookahead rule of
`lookahead_at`, in every DC (P2C exempts the other DCs from the
lookahead). Of interchangeable twin servers (`_twin_key`) only the first in
search order is searched. A later VNF's list (`_later_candidates`) is
built in one pass over the reach, in id order, that decides each server's
rule from thresholds read once per list (`lookahead_units`), its twin
class and its group in the search order. Each search frame holds its VNF
and path in residual units, through one `PhysicalNetwork.hold`, in a
substrate transaction it rolls back; a solve converts the chain's demands
to units once, and a path's latency is the one its enumeration summed.

Search order: VNF-1 candidates, and ILP-2's later ones, in id order; ILP-1
takes the previous server (colocation, at cost 0) first, then its DC, then
the rest; each server's paths by (hops, latency, link ids). A branch is
pruned once the cost held plus its path's reaches the best found. ILP-1
tests that bound before it builds a list: it tries colocation by the
lookahead rule on the previous server alone (thresholds read once per
solve), and builds the other candidates (the one pass, then the path
search) only if a path of h links could still win, h being the fewest
links from the previous server to another server (1 if a neighbour is a
server, 2 otherwise). Every listed path has at least h links, so what the
bound skips, the list's loop would have pruned.

ILP-1's colocated tail in closed form: when colocation at VNF v may still
win and the previous server has room for VNFs v..n together, the frames'
next leaf puts all of them there with empty paths at the cost held, the
lookahead passing at every level; after it the bound prunes every sibling
up to level v. That leaf is recorded directly, with the n - v + 1 nodes
and the deepest VNF the frames would count, and ends level v (a leaf at
its subtree's lower bound ends the subtree: A. H. Land and A. G. Doig,
"An Automatic Method of Solving Discrete Programming Problems",
Econometrica 28(3), 1960). Where those nodes would trip the budget the
frames run instead, so BUDGET_EXCEEDED is reported as they report it.

Searches carry an explored-node budget. A tripped budget, or a path
enumeration that the search used and `max_paths_per_vl` truncated, is
reported as BUDGET_EXCEEDED, never as a silently suboptimal OPTIMAL; any
best-known placement found by then is still returned. An enumeration the
bound skips could not improve the result, so it never counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .nspr import SliceRequest, VlDemand
from .placement import (LATENCY_EPS, Placement, bandwidth_cost, feasible_servers,
                        latency_reach, lookahead_units)
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
                     ) -> tuple[dict[int, list[tuple[tuple[int, ...], float]]], set[int]]:
    """All simple paths from src to each node of dsts (src excluded) over
    links with residual >= bw and total latency within budget, from one
    search, each as (link ids, latency), the latency summed first link to
    last. Each destination's paths are ordered by (hops, latency, link
    ids); destinations without a path are left out. With max_paths a
    destination keeps the first max_paths paths in search order and is
    reported as truncated."""
    open_dsts = set(dsts) - {src}
    found: dict[int, list[tuple[int, float, tuple[int, ...]]]] = {}
    truncated: set[int] = set()
    visited = {src}
    trail: list[int] = []
    adj, links, bw_units, need = psn.adj, psn.links, psn.bw_units, to_units(bw)

    def dfs(u: int, lat: float) -> None:
        for v, lid in adj[u]:
            # a destination may relay to another one; a degree-1 node leads
            # nowhere but back, so one that is no destination is skipped
            leaf = len(adj[v]) == 1
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
    del dfs  # it refers to itself through its cell: see the note in _solve
    return {d: [(p, lat) for _, lat, p in sorted(f)] for d, f in found.items()}, truncated


def _twin_key(psn: PhysicalNetwork, sid: int, cpu: int, ram: int) -> tuple:
    """The class of server sid, with cpu and ram residual units, among its
    interchangeable twins: servers of one DC with equal residuals behind the
    same neighbours over links of equal residual and latency. Exploring one
    of a class covers them all. A one-link server's key is flat, (DC,
    neighbour, latency, CPU, RAM, link residual); any other's is (DC, CPU,
    RAM, incident links as (neighbour, residual, latency)), ascending by
    neighbour as `add_link` keeps `adj`. The two shapes never compare equal."""
    entries = psn.adj[sid]
    if len(entries) == 1:
        (nbr, lid), = entries
        return (psn.nodes[sid].dc, nbr, psn.links[lid].latency_ms, cpu, ram,
                psn.bw_units[lid])
    links, bw_units = psn.links, psn.bw_units
    return (psn.nodes[sid].dc, cpu, ram,
            tuple([(nbr, bw_units[lid], links[lid].latency_ms) for nbr, lid in entries]))


def _dedupe(psn: PhysicalNetwork, sids: Iterable[int]) -> list[int]:
    """sids without the twins (`_twin_key`) of a server listed before them."""
    pos, cpu, ram = psn.index().pos, psn.cpu_units, psn.ram_units
    kept: dict[tuple, int] = {}
    for sid in sids:
        p = pos[sid]
        kept.setdefault(_twin_key(psn, sid, cpu[p], ram[p]), sid)
    return list(kept.values())


def _later_candidates(psn: PhysicalNetwork, request: SliceRequest, v: int, last_s: int,
                      eff: float, dc_first: bool) -> list[int]:
    """VNF v's candidate servers, for v > 1, in search order, one per twin
    class (`_twin_key`): the servers of `latency_reach` from last_s within
    eff over links that carry VL v-1 that pass `lookahead_at`'s rule. In id
    order; with dc_first (ILP-1), last_s first, then the rest of its DC,
    then the others. A class keeps its first server in that order.

    One pass over the reach in id order decides each server's rule, from
    thresholds read once (`lookahead_units`), and its key. Keys hold the
    DC, so the two groups share none: each dedupes as it fills, and only
    last_s, which heads its DC's group, can take a class from a server of
    lower id."""
    pos, cpu, ram, bw_units = psn.index().pos, psn.cpu_units, psn.ram_units, psn.bw_units
    nodes, adj, links = psn.nodes, psn.adj, psn.links
    cpu_v, ram_v, ahead = lookahead_units(request, v)
    bw_next, cpu_both, ram_both = ahead or (0, 0, 0)
    last_dc = nodes[last_s].dc if dc_first else None
    head = None  # last_s's key once it passes
    near: dict[tuple, int] = {}  # last_s's DC, with dc_first
    far: dict[tuple, int] = {}
    for sid in sorted(latency_reach(psn, last_s, request.vls[v - 2].bw, eff)):
        p = pos[sid]
        if p < 0:
            continue
        c, r = cpu[p], ram[p]
        if c < cpu_v or r < ram_v:
            continue
        entries = adj[sid]
        if ahead is not None and (c < cpu_both or r < ram_both):
            for _, lid in entries:
                if bw_units[lid] >= bw_next:
                    break
            else:
                continue
        # `_twin_key`, inline
        dc = nodes[sid].dc
        if len(entries) == 1:
            (nbr, lid), = entries
            key = (dc, nbr, links[lid].latency_ms, c, r, bw_units[lid])
        else:
            key = (dc, c, r, tuple([(nbr, bw_units[u], links[u].latency_ms)
                                    for nbr, u in entries]))
        if dc_first and dc == last_dc:
            if sid == last_s:
                head = key
            elif key not in near:
                near[key] = sid
        elif key not in far:
            far[key] = sid
    if head is None:
        return [*near.values(), *far.values()]
    near.pop(head, None)
    return [last_s, *near.values(), *far.values()]


def _solve(psn: PhysicalNetwork, request: SliceRequest, *, find_optimal: bool,
           max_nodes: int | None, max_paths_per_vl: int | None) -> SolveResult:
    n = request.n_vnfs
    net_nodes, adj = psn.nodes, psn.adj
    pos, cpu, ram, bw_units = psn.index().pos, psn.cpu_units, psn.ram_units, psn.bw_units

    best_cost: float | None = None
    best_x: dict[int, int] | None = None
    best_y: dict[int, list[int]] | None = None
    nodes = 0
    deepest = 0
    truncated_any = False

    vnfs, vls = request.vnfs, request.vls
    # per VNF v, what its frame holds: CPU, RAM and VL v-1's bandwidth
    # units; and the CPU and RAM units of VNFs v..n together
    need = [(*vnfs[0].units, 0)] + [(*d.units, vl.bw_units) for d, vl in zip(vnfs[1:], vls)]
    tail_cpu, tail_ram = [0] * (n + 2), [0] * (n + 2)
    for v in range(n, 0, -1):
        tail_cpu[v] = tail_cpu[v + 1] + need[v - 1][0]
        tail_ram[v] = tail_ram[v + 1] + need[v - 1][1]
    # VNF v -> its lookahead thresholds, read once per solve by ILP-1's
    # colocation try
    rules: dict[int, tuple] = {}

    x: dict[int, int] = {}
    y: dict[int, tuple[int, ...]] = {}

    def candidates(v: int, last_s: int, used_e2e: float, vl: VlDemand
                   ) -> list[tuple[int, list[tuple[tuple[int, ...], float]]]]:
        """Eligible (server, feasible (path, latency) pairs) for VNF v > 1,
        in search order."""
        nonlocal truncated_any
        eff = min(vl.budget_ms, request.e2e_budget_ms - used_e2e)
        keep = _later_candidates(psn, request, v, last_s, eff, find_optimal)
        by_dst, truncated = _enumerate_paths(psn, last_s, keep, vl.bw, eff,
                                             max_paths_per_vl)
        truncated_any = truncated_any or bool(truncated)
        if last_s in keep:
            by_dst[last_s] = [((), 0.0)]
        return [(sid, by_dst[sid]) for sid in keep if sid in by_dst]

    def branch(v: int, sid: int, path: tuple[int, ...], lat: float, used_e2e: float,
               committed: float) -> None:
        """Hold VNF v on sid and VL v-1 on path, of latency lat, search on,
        roll back."""
        nonlocal deepest
        mark = psn.begin()
        try:
            cpu_v, ram_v, bw_v = need[v - 1]
            psn.hold(sid, cpu_v, ram_v, path, bw_v)
            # a frame overwrites its own keys and a leaf reads keys 1..n of
            # its path only, so nothing is popped on the way back
            x[v] = sid
            if v == 1:
                next_e2e = psn.access_latency(request.uap, net_nodes[sid].dc)
            else:
                y[v - 1] = path
                next_e2e = used_e2e + lat
            if v > deepest:
                deepest = v
            expand(v + 1, sid, next_e2e, committed)
        finally:
            psn.rollback(mark)

    def expand(v: int, last_s: int | None, used_e2e: float, committed: float) -> None:
        nonlocal nodes, best_cost, best_x, best_y, deepest
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
        if v == 1:
            # depth-invariant: deeper, residuals and demands drop by what is
            # held. A root branch holds no cost, and a zero best ends the search
            if sum(cpu) >= tail_cpu[1] and sum(ram) >= tail_ram[1]:
                for sid in _dedupe(psn, feasible_servers(psn, request, 1, None)):
                    branch(1, sid, (), 0.0, 0.0, 0.0)
            return
        vl = vls[v - 2]
        bw = vl.bw
        tried = False
        if find_optimal:
            if best_cost is None or committed < best_cost:
                p = pos[last_s]
                c, r = cpu[p], ram[p]
                if c >= tail_cpu[v] and r >= tail_ram[v] and \
                        (max_nodes is None or nodes + n - v + 1 <= max_nodes):
                    # the colocated tail in closed form (module docstring)
                    nodes += n - v + 1
                    deepest = n
                    for k in range(v, n + 1):
                        x[k] = last_s
                        y[k - 1] = ()
                    best_cost = committed
                    best_x = dict(x)
                    best_y = {i: list(q) for i, q in y.items()}
                    if committed == 0.0:
                        raise _FoundFeasible
                    return
                # ILP-1's list heads with last_s, at cost 0, exactly when
                # last_s passes the lookahead: try it before building the list
                rule = rules.get(v)
                if rule is None:
                    rule = rules[v] = lookahead_units(request, v)
                cpu_v, ram_v, ahead = rule
                look = c >= cpu_v and r >= ram_v
                if look and ahead is not None and (c < ahead[1] or r < ahead[2]):
                    bw_next = ahead[0]
                    for _, lid in adj[last_s]:
                        if bw_units[lid] >= bw_next:
                            break
                    else:
                        look = False
                if look:
                    branch(v, last_s, (), 0.0, used_e2e, committed)
                    tried = True
            if best_cost is not None:
                # every other server is at least h links away, so no path of
                # the list could beat the best
                h = 1 if any(pos[nbr] >= 0 for nbr, _ in adj[last_s]) else 2
                if committed + h * bw >= best_cost:
                    return
        for sid, paths in candidates(v, last_s, used_e2e, vl):
            if tried and sid == last_s:
                continue  # its subtree rolled back, so the rest of the list is as before
            for path, lat in paths:
                cost = committed + len(path) * bw
                if best_cost is not None and cost >= best_cost:
                    break  # paths sorted by hops; the rest cost at least this much
                branch(v, sid, path, lat, used_e2e, cost)

    status = SolveStatus.OPTIMAL
    try:
        expand(1, None, 0.0, 0.0)
    except _FoundFeasible:
        pass
    except _BudgetExhausted:
        status = SolveStatus.BUDGET_EXCEEDED
    finally:
        # expand and branch call each other through their closure cells, a
        # reference cycle that holds the search state until the cyclic
        # collector runs; emptying one cell frees it on return
        del expand

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
