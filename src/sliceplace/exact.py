"""Exact chain placement: optimal and first-feasible baselines.

Both solvers run a depth-first branch-and-bound over chain-order VNF-to-server
assignments, branching over exhaustively enumerated feasible simple paths per
virtual link. Each VNF expansion runs one path search from the previous VNF's
server that serves every candidate server at once, relaying through candidates
too. `solve_ilp1` minimizes the bandwidth objective; the feasibility
baseline `solve_ilp2` stops at the first complete placement. Determinism
comes from fixed candidate and path orderings.

Eligibility is P2C's, read from the same rules: VNF-1 candidates are
`placement.feasible_servers`, and a later VNF's are the servers reached
from the previous server, as `feasible_servers` reaches them, that pass
`placement.lookahead_rule`, in every DC (P2C exempts the other DCs from
the lookahead). Of interchangeable twin servers (`_twin_key`) only the
first in search order is searched. Each search frame holds its VNF and path
in residual units, through one `PhysicalNetwork.hold`, in a substrate
transaction it rolls back; a solve converts the chain's demands to units
once, and a path's latency is the one its enumeration summed.

A later VNF's expansion follows relays and runs (`topology.Run`), never
the graph node by node. Its list (`_later_candidates`) reads reach as
`feasible_servers` does, from one `_reached_runs` from the previous
server: the relays reached and the runs anchored at them. One walk over
those servers in position (= id) order decides each one's reach, rule
(thresholds read once per list, `lookahead_units`), twin class and group
in the search order, with no per-server reach entry and no sort. The
path search (`_enumerate_paths`) recurses over relay nodes alone and
attaches each one-link candidate when the node across its link is
visited. Nor does the root loop over the whole network in Python: its
aggregate-capacity prune sums the residual views in numpy, exact while
the capacities sum within int64 (`StructureIndex.sums_fit`; Python ints
otherwise), and it dedupes the VNF-1 candidates lazily (`_dedupe`), so a
search that ends under its first root computes one twin key.

Search order: VNF-1 candidates, and ILP-2's later ones, in id order; ILP-1
tries the previous server (colocation, at cost 0) before it lists its DC,
then the rest; each server's paths by (hops, latency, link ids). A branch is
pruned once the cost held plus its path's reaches the best found. ILP-1
tests that bound before it builds a list: it tries colocation by the
lookahead rule on the previous server alone (thresholds read once per
solve), and builds the other candidates (the one pass, then the path
search) only if a path of h links could still win. h is the previous
server's `StructureIndex.near_hops`, read from the index, which builds it
with the rest of the structure: 1 if a neighbour is a server, 2 otherwise,
never more than the fewest links to another server. Every listed path has
at least h links, so what the bound skips, the list's loop would have
pruned.

A placement's cost is the search's own: the cost held at its leaf, which
adds len(path) * bw per VL in chain order (a colocated VL adds nothing),
the same float `placement.bandwidth_cost` sums for it.

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

Searches carry an explored-node budget, the one source of BUDGET_EXCEEDED:
a tripped budget is reported as such, never as a silently suboptimal
OPTIMAL, and any best-known placement found by then is still returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .nspr import SliceRequest, VlDemand
from .placement import (LATENCY_EPS, Placement, _reached_runs, feasible_servers,
                        lookahead_rule, lookahead_units)
# unused here: kept for the benchmark, whose reach span and tests look it up in this module
from .placement import latency_reach  # noqa: F401
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
                     budget_ms: float
                     ) -> tuple[dict[int, list[tuple[tuple[int, ...], float]]], set[int]]:
    """All simple paths from src to each node of dsts (src excluded) over
    links with residual >= bw and total latency within budget, from one
    search, each as (link ids, latency), the latency summed first link to
    last. Each destination's paths are ordered by (hops, latency, link
    ids); destinations without a path are left out.

    The search recurses over `relay_adj` alone, since a leaf relays
    nothing. A leaf destination (one link) is attached when the node across
    its link is visited, one path per visit, so a visit costs that node's
    relay degree plus the destinations behind it, whatever the number of
    servers there. A destination may relay to another one."""
    adj = psn.adj
    # destinations split once: leaves by the node across their one link,
    # (leaf destination, its link); and relays, entered over relay_adj
    behind: dict[int, list[tuple[int, int]]] = {}
    relays: set[int] = set()
    for d in set(dsts):
        if d == src:
            continue
        entries = adj[d]
        if len(entries) == 1:
            (u, lid), = entries
            behind.setdefault(u, []).append((d, lid))
        else:
            relays.add(d)
    found: dict[int, list[tuple[int, float, tuple[int, ...]]]] = {}
    visited = {src}
    trail: list[int] = []
    relay_adj, links, bw_units = psn.index().relay_adj, psn.links, psn.bw_units
    need, limit = to_units(bw), budget_ms + LATENCY_EPS

    def dfs(u: int, lat: float, hops: int) -> None:
        """Search on from u, reached over hops links at latency lat."""
        for v, lid in behind.get(u, ()):
            if bw_units[lid] >= need:
                nl = lat + links[lid].latency_ms
                if nl <= limit:
                    found.setdefault(v, []).append((hops + 1, nl, (*trail, lid)))
        for v, lid in relay_adj[u]:
            if v in visited or bw_units[lid] < need:
                continue
            nl = lat + links[lid].latency_ms
            if nl > limit:
                continue
            if v in relays:
                found.setdefault(v, []).append((hops + 1, nl, (*trail, lid)))
            visited.add(v)
            trail.append(lid)
            dfs(v, nl, hops + 1)
            trail.pop()
            visited.discard(v)

    if behind or relays:
        dfs(src, 0.0, 0)
    del dfs  # it refers to itself through its cell: see the note in _solve
    # always empty: the benchmark's path span unpacks (paths, truncated)
    return {d: [(f[0][2], f[0][1])] if len(f) == 1 else [(p, lat) for _, lat, p in sorted(f)]
            for d, f in found.items()}, set()


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


def _dedupe(psn: PhysicalNetwork, sids: Iterable[int]) -> Iterator[int]:
    """sids without the twins (`_twin_key`) of a server listed before them,
    lazily: a server's key is computed when the next one is asked for, so a
    search that ends under its first root computes one."""
    pos, cpu, ram = psn.index().pos, psn.cpu_units, psn.ram_units
    seen: set[tuple] = set()
    for sid in sids:
        p = pos[sid]
        key = _twin_key(psn, sid, cpu[p], ram[p])
        if key not in seen:
            seen.add(key)
            yield sid


def _later_candidates(psn: PhysicalNetwork, request: SliceRequest, v: int, last_s: int,
                      eff: float, dc_first: bool) -> list[int]:
    """VNF v's candidate servers, for v > 1, in search order, one per twin
    class (`_twin_key`): the servers reached from last_s within eff over
    links that carry VL v-1 that pass `lookahead_rule`. In id order; with
    dc_first (ILP-1), last_s's DC, then the others, less last_s's class,
    which `_solve` tries first. A class keeps its first server in order.

    Reach is read as `feasible_servers` reads it, at relay and run grain,
    from the relays and runs of `_reached_runs`, each run server's uplink
    tested against VL v-1; plus the reached servers outside every run and
    last_s itself. One walk over those in position (= id) order decides
    each server's rule, from thresholds read once (`lookahead_units`), and
    its key, which a run server takes from its run. Keys hold the DC, so
    the two groups share none: each dedupes as it fills, and with dc_first
    last_s's class leaves its DC's group at the end."""
    idx = psn.index()
    pos, servers, runs = idx.pos, idx.servers, idx.runs
    cpu, ram, bw_units = psn.cpu_units, psn.ram_units, psn.bw_units
    cpu_v, ram_v, ahead = lookahead_units(request, v)
    bw_next, cpu_both, ram_both = ahead or (0, 0, 0)
    vl = request.vls[v - 2]
    need, limit = vl.bw_units, eff + LATENCY_EPS
    relay, reached = _reached_runs(psn, last_s, vl, limit)
    # (start, stop, run index) of the run positions reached, and
    # (position, position + 1, -1) of each server decided alone: last_s,
    # reached whatever its links, and the relay servers reached
    p_last = pos[last_s]
    segments = [(p_last, p_last + 1, -1)]
    for u in relay:
        p = pos[u]
        if p >= 0 and u != last_s:
            segments.append((p, p + 1, -1))
    for k in reached:
        start, stop = runs[k][:2]
        if start <= p_last < stop:  # last_s's run: last_s is decided alone
            segments += ((start, p_last, k), (p_last + 1, stop, k))
        else:
            segments.append((start, stop, k))
    last_dc = psn.nodes[last_s].dc if dc_first else None
    head = None  # last_s's key once it passes, with dc_first
    near: dict[tuple, int] = {}  # last_s's DC, with dc_first
    far: dict[tuple, int] = {}
    for start, stop, k in sorted(segments):
        if k < 0:
            sid, c, r = servers[start].id, cpu[start], ram[start]
            if not lookahead_rule(psn, sid, c, r, cpu_v, ram_v, ahead):
                continue
            key = _twin_key(psn, sid, c, r)
            if dc_first and key[0] == last_dc:
                if sid == last_s:
                    head = key
                elif key not in near:
                    near[key] = sid
            elif key not in far:
                far[key] = sid
            continue
        first, _, link, anchor, dc, _, lat = runs[k]
        group = near if dc_first and dc == last_dc else far
        shift = link - first  # the uplink of position p is link shift + p
        for p in range(start, stop):
            c, r = cpu[p], ram[p]
            if c < cpu_v or r < ram_v:
                continue
            up = bw_units[shift + p]
            if up < need or ahead is not None and (c < cpu_both or r < ram_both) and up < bw_next:
                continue
            # `_twin_key` of a one-link server
            key = (dc, anchor, lat, c, r, up)
            if key not in group:
                group[key] = servers[p].id
    near.pop(head, None)
    return [*near.values(), *far.values()]


def _solve(psn: PhysicalNetwork, request: SliceRequest, *, find_optimal: bool,
           max_nodes: int | None) -> SolveResult:
    n = request.n_vnfs
    net_nodes, idx = psn.nodes, psn.index()
    pos, near_hops, cpu, ram = idx.pos, idx.near_hops, psn.cpu_units, psn.ram_units

    best_cost: float | None = None
    best_x: dict[int, int] | None = None
    best_y: dict[int, list[int]] | None = None
    nodes = 0
    deepest = 0

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
        eff = min(vl.budget_ms, request.e2e_budget_ms - used_e2e)
        keep = _later_candidates(psn, request, v, last_s, eff, find_optimal)
        by_dst, _ = _enumerate_paths(psn, last_s, keep, vl.bw, eff)
        if last_s in keep:  # ILP-2's list, in id order
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
            if idx.sums_fit:
                cpu_view, ram_view, _ = psn.vectors()
                room = cpu_view.sum() >= tail_cpu[1] and ram_view.sum() >= tail_ram[1]
            else:
                room = sum(cpu) >= tail_cpu[1] and sum(ram) >= tail_ram[1]
            if room:
                for sid in _dedupe(psn, feasible_servers(psn, request, 1, None)):
                    branch(1, sid, (), 0.0, 0.0, 0.0)
            return
        vl = vls[v - 2]
        bw = vl.bw
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
                # colocation at cost 0; the list comes only after this try
                # (else the bound below returns), so it leaves last_s out
                rule = rules.get(v)
                if rule is None:
                    rule = rules[v] = lookahead_units(request, v)
                if lookahead_rule(psn, last_s, c, r, *rule):
                    branch(v, last_s, (), 0.0, used_e2e, committed)
            if best_cost is not None:
                # every other server is at least near_hops links away, so
                # no path of the list could beat the best
                if committed + near_hops[last_s] * bw >= best_cost:
                    return
        for sid, paths in candidates(v, last_s, used_e2e, vl):
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

    if best_cost is None:
        if status is SolveStatus.OPTIMAL:
            status = SolveStatus.INFEASIBLE
        return SolveResult(status, None, None, nodes, deepest)

    # best_cost adds len(path) * bw per VL in chain order, as bandwidth_cost does
    return SolveResult(status, Placement(best_x, best_y, best_cost), best_cost, nodes, deepest)


def solve_ilp1(psn: PhysicalNetwork, request: SliceRequest, *,
               max_nodes: int | None = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Minimum-bandwidth placement of the whole chain: each virtual link
    costs its demand times its path length. The substrate is left
    untouched; callers apply the returned placement explicitly."""
    return _solve(psn, request, find_optimal=True, max_nodes=max_nodes)


def solve_ilp2(psn: PhysicalNetwork, request: SliceRequest, *,
               max_nodes: int | None = DEFAULT_NODE_BUDGET) -> SolveResult:
    """First complete feasible placement in ascending-server-id order,
    realizing the accept-whenever-possible baseline. OPTIMAL here just means
    a feasible placement was found."""
    return _solve(psn, request, find_optimal=False, max_nodes=max_nodes)
