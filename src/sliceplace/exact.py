"""Exact chain placement: optimal and first-feasible baselines.

Both solvers run a depth-first branch-and-bound over chain-order VNF-to-server
assignments, branching over exhaustively enumerated feasible simple paths per
virtual link. Each later VNF's expansion reads one search from the previous
VNF's server, which the structure index keeps: both its candidate list and
every candidate's paths come from it, less the paths over links too thin
for the VL.
`solve_ilp1` minimizes the bandwidth objective; the feasibility baseline
`solve_ilp2` stops at the first complete placement. Determinism comes from
fixed candidate and path orderings.

Eligibility is P2C's, read from the same rules: VNF-1 candidates are
`placement.feasible_servers`, and a later VNF's are the servers reached
from the previous server, as `feasible_servers` reaches them, that pass
`placement.lookahead_rule`, in every DC (P2C exempts the other DCs from
the lookahead). Of interchangeable twin servers (`_twin_key`) only the
first in search order is searched. Each search frame holds its VNF and path
in residual units, through one `PhysicalNetwork.hold`, and gives the same
units back through `give_back` when it returns or raises, so a solve leaves
the residuals as it found them; a path's latency is the one its enumeration
summed.

Per-chain constants (`_chain_plan`): the chain's demands in units, the
units of each tail of the chain, each VNF's lookahead thresholds
(`lookahead_units`) and each tail's floor are built once per chain and
structure, not per solve. They are cached in the structure index's plans
under the identity of the request's demand tuples, which every request of
a class shares, so a structural change drops them.

A later VNF's expansion follows relays and runs (`topology.Run`), never
the graph node by node. Its list (`_later_candidates`) rests on one path
search (`_enumerate_paths`) from where a search from the previous server
enters the relay graph: the server itself, or, when its one link leads to
a relay, that anchor, at the link's latency. The search walks relay nodes
alone, depth first on its own stack, and keeps every path to each relay it
meets. The relays it reaches, each at its smallest latency (`_reach`), are
the distances `feasible_servers` reads from the package's one latency
search (`topology.relay_reach`), and `_reached_runs` keeps the runs
anchored at them by the rule `feasible_servers` applies, and the reached
servers outside every run (`StructureIndex.off_run`) are read as there.
What follows from the search alone, the skeleton (`_skeleton`), is those
servers and runs in position order, each with its paths sorted: a run's
are its anchor's, kept within the budget once the uplink's latency is
added.

The structure index keeps, with its plans, one entry per (entry node,
latency there, budget): the skeleton of the search, which has no
bandwidth filter, and the relay links that search followed. Every list
reads its entry; the search runs only to fill a missing one. A list whose
budget is its VL's own reads the skeleton as it is while each of those
links still carries the VL, a check of a few reads. Otherwise, when a
link is too thin or the latency slack cut the budget, it keeps of each
segment the paths that avoid the thin links and fit the budget, and drops
a segment left with none. A search filtered by bandwidth and bounded by
the cut budget meets exactly those paths: latencies are sums of
non-negative terms, and a run's paths already carry its uplink's latency.
So a run searches once per entry, not once per list. Virtual-network
embedding does the same with substrate paths: it computes them once, as
the topology is static, and checks residual bandwidth when it embeds (M.
Yu, Y. Yi, J. Rexford and M. Chiang, "Rethinking Virtual Network
Embedding: Substrate Support for Path Splitting and Migration", ACM
SIGCOMM CCR 38(2), 2008).

One walk over the skeleton's servers, the previous server put in its
place, in position (= id) order decides each one's rule (the chain's
thresholds, `lookahead_units`), twin class and group in the search order,
with no per-server reach entry and no sort. A listed run server is listed
with its run's paths and its uplink's id. The search prices each path at
one hop more for that uplink, and one more for the previous server's link
when the search entered at its anchor, and builds a path, that link, the
anchor's links and the uplink, only when it branches on it. Most listed
paths are pruned by the bound unbuilt.

Nor does the root loop over the whole network in Python. It reads its
VNF-1 list (`feasible_servers`) and branches on each candidate, deduped
lazily (`_dedupe`), so a search that ends under its first root computes
one twin key. A chain the network cannot hold is searched below the
root, so `deepest_feasible_vnf` is the last VNF the search could hold.

Search order: VNF-1 candidates, and ILP-2's later ones, in id order; ILP-1
tries the previous server (colocation, at cost 0) before it lists its DC,
then the rest; each server's paths by (hops, latency, link ids).

ILP-1's bounds add the floor of the chain's tail: floor[v], the least cost
that VLs v..n-1 must hold whatever the placement (`_chain_plan`), from the
cuts that runs of VNFs too large for the largest server force, each at
least h links long. A branch at VNF v is pruned once the cost held plus
its path's plus floor[v] reaches the best found. ILP-1 tests that bound
before it builds a list: it tries colocation by the lookahead rule on the
previous server alone, only while the cost held plus floor[v] is below the
best, and builds the other candidates (the path search, then the one pass)
only if a path of h links plus floor[v] could still win. h is the previous
server's `StructureIndex.near_hops`, read from the index, which builds it
with the rest of the structure: 1 if a neighbour is a server, 2 otherwise,
never more than the fewest links to another server. Every listed path has
at least h links, so what the bound skips, the list's loop would have
pruned. A zero-cost leaf ends the search. A leaf at floor[1], the whole
chain's floor, could end it as soundly; that was measured and left out
(ROADMAP, "Measured and closed").

Costs are held in bandwidth units (`to_units`), integers, as the floors
are, so the bounds compare exactly: a path of h links costs h * bw units,
and a listed run server's anchor path of h links, (h + 1) * bw. A
placement's cost is the float `placement.bandwidth_cost` sums for it once
the search ends: len(path) * bw per VL in chain order, from 0.0.

ILP-1's colocated tail in closed form: when colocation at VNF v may still
win and the previous server has room for VNFs v..n together, the frames'
next leaf puts all of them there with empty paths at the cost held, the
lookahead passing at every level; after it the bound prunes every sibling
up to level v. That leaf is reached directly: the frames' x and y filled
in, the n - v nodes and the deepest VNF the frames would count added, and
the leaf's own record, which counts its node. It ends level v (a leaf at
its subtree's lower bound ends the subtree, the rule the floors apply to
the chain's forced cuts: A. H. Land and A. G. Doig, "An Automatic Method
of Solving Discrete Programming Problems", Econometrica 28(3), 1960).
Where those nodes would trip the budget the frames run instead, so
BUDGET_EXCEEDED is reported as they report it.

The search recurses two frames per VNF, so a chain longer than
MAX_CHAIN_VNFS raises ValueError before anything is held: the residuals
stay as they were. P2C takes such chains.

Searches carry an explored-node budget, the one source of BUDGET_EXCEEDED:
a tripped budget is reported as such, never as a silently suboptimal
OPTIMAL, and any best-known placement found by then is still returned.
The floors only remove nodes, so a budget that the search without them
would exceed may now suffice: such a solve reports OPTIMAL, with the
placement the search without a budget returns.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterable, Iterator

from .nspr import SliceRequest
from .placement import (LATENCY_EPS, Placement, _keep_plan, _reached_runs, bandwidth_cost,
                        feasible_servers, lookahead_rule, lookahead_units)
# unused here: kept for the benchmark, whose reach span and tests look it up in this module
from .placement import latency_reach  # noqa: F401
from .topology import PhysicalNetwork, StructureIndex

DEFAULT_NODE_BUDGET = 200_000

# The longest chain the search takes. It recurses two frames per VNF
# (`expand`, `branch`): at Python's default recursion limit of 1,000 a
# script's top-level solve of a chain that never fits one server failed
# from 497 VNFs on (CHANGES.md, "P2C reads only what two choices need").
# A longer chain is refused before anything is held, and the caller keeps
# half the stack
MAX_CHAIN_VNFS = 256


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    BUDGET_EXCEEDED = "budget_exceeded"


@dataclass
class SolveResult:
    """What a search returns: its status, the best placement found (None
    when none was), whose cost is the objective, and how far it got."""

    status: SolveStatus
    placement: Placement | None
    nodes_explored: int
    # deepest VNF index the search ever held (0 = none): a block falls at
    # the next VNF, as P2C reports it
    deepest_feasible_vnf: int

    @property
    def objective(self) -> float | None:
        """The placement's bandwidth cost; None when no placement was found."""
        return None if self.placement is None else self.placement.cost


class _BudgetExhausted(Exception):
    pass


class _FoundFeasible(Exception):
    pass


def _enumerate_paths(psn: PhysicalNetwork, src: int, budget_ms: float, start: float = 0.0
                     ) -> tuple[dict[int, list[tuple[int, float, tuple[int, ...]]]], set[int]]:
    """Every simple path from src to each relay node (one with two or more
    links) within budget, over any residual, from one search: relay ->
    [(hops, latency, link ids)] in the order met, the latency summed from
    start, first link to last; src holds (0, start, ()). A leaf relays
    nothing, so the search follows `relay_adj` alone, depth first on an
    explicit stack: a line of relays longer than the interpreter's
    recursion limit is searched like any other.

    Its keys are the relays `topology.relay_reach` reaches with need -1, and
    the smallest latency at each (`_reach`) is the distance that search
    finds there, as the same float: a rounded sum of non-negative latencies
    never decreases as links are added, so the shortest left-to-right sum
    is one number either way. A one-link server's paths are its anchor's,
    its link added (`_later_candidates`): a list's search from a one-link
    server starts at its anchor, at the latency of its link. It fills the
    path entry the index keeps for that start, which every list reads."""
    found = {src: [(0, start, ())]}
    visited = {src}
    trail: list[int] = []
    relay_adj, links = psn.index().relay_adj, psn.links
    limit = budget_ms + LATENCY_EPS
    # one frame per node on the trail: the node, its entries not yet tried
    # and the latency it was reached at. A frame resumes its entries where
    # its child left them, so paths are met in depth-first entry order
    stack = [(src, iter(relay_adj[src]), start)]
    while stack:
        u, entries, lat = stack[-1]
        for v, lid in entries:
            if v in visited:
                continue
            nl = lat + links[lid].latency_ms
            if nl > limit:
                continue
            trail.append(lid)
            found.setdefault(v, []).append((len(trail), nl, tuple(trail)))
            visited.add(v)
            stack.append((v, iter(relay_adj[v]), nl))
            break
        else:
            stack.pop()
            if stack:
                trail.pop()
                visited.discard(u)
    # always empty: the benchmark's path span unpacks (paths, truncated)
    return found, set()


def _reach(found: dict[int, list[tuple[int, float, tuple[int, ...]]]]) -> dict[int, float]:
    """Each relay of an `_enumerate_paths` result at its smallest latency:
    `topology.relay_reach`'s distances."""
    return {u: f[0][1] if len(f) == 1 else min([e[1] for e in f]) for u, f in found.items()}


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


def _skeleton(psn: PhysicalNetwork, found: dict[int, list[tuple[int, float, tuple[int, ...]]]],
              limit: float) -> tuple[tuple[int, int, int, list], ...]:
    """What a candidate list reads from a path search's result found, within
    limit, before any residual: segments (start, stop, run index, paths) in
    position order. A reached server outside every run
    (`StructureIndex.off_run`) is one segment, run index -1, with its own
    paths sorted; a reached run (`_reached_runs`) is one, with its anchor's
    paths, its uplink's latency added to each, kept within limit and
    sorted. Every listed path is sorted by (hops, latency, link ids)."""
    idx = psn.index()
    servers, runs = idx.servers, idx.runs
    relay = _reach(found)
    segments = [(p, p + 1, -1, sorted(found[servers[p].id])) for p in idx.off_run
                if servers[p].id in relay]
    for k in _reached_runs(psn, relay, limit):
        start, stop, _, anchor, _, _, up_lat = runs[k]
        segments.append((start, stop, k, sorted([(hops, lat + up_lat, path)
                                                 for hops, lat, path in found[anchor]
                                                 if lat + up_lat <= limit])))
    segments.sort(key=itemgetter(0))
    return tuple(segments)


# last_s's own entry on its list: the empty path
_STAY = ((0, 0.0, ()),)


def _later_candidates(psn: PhysicalNetwork, request: SliceRequest, v: int, last_s: int,
                      eff: float, dc_first: bool, rule: tuple
                      ) -> tuple[int, list[tuple[int, list[tuple[int, float, tuple[int, ...]]],
                                                 int]]]:
    """(lead, VNF v's candidate servers), for v > 1. The candidates come in
    search order, one per twin class (`_twin_key`), each as (server, paths,
    uplink id), paths its feasible (hops, latency, link ids) entries in that
    order: the servers reached from last_s within eff over links that carry
    VL v-1 that pass `lookahead_rule`. In id order; with dc_first (ILP-1),
    last_s's DC, then the others, less last_s's class, which `_solve` tries
    first. A class keeps its first server in order.

    The paths start where the search from last_s enters the relay graph: at
    last_s, lead -1, or, when last_s's one link leads to a relay, at that
    anchor, lead being the link, with its latency already in every latency
    but the link in neither the hops nor the link ids. lead must carry VL
    v-1 and fit eff, or last_s is listed alone. Every path but last_s's own
    starts with lead: the search prices it one hop more and prepends it
    only when it branches, as it appends a run server's uplink.

    Reach and paths come from one path search (`_enumerate_paths`) from
    that entry point, read as a skeleton (`_skeleton`): the reached servers
    outside every run and the reached runs, in position order, each with
    its paths sorted. The structure index keeps the skeleton in its plans
    under ("paths", entry node, latency there, budget), budget the larger
    of eff and the VL's own, with the relay links the search followed; the
    search, which has no bandwidth filter, runs only to fill a missing
    entry. When each of those links carries VL v-1 and eff is the budget,
    the list reads the skeleton as it is. Otherwise it keeps of each
    segment the paths within eff over no link too thin for VL v-1, in
    order, and drops a segment left with none: what a search bounded by
    eff over links that carry the VL would list. The relay distances are
    `topology.relay_reach`'s (`_reach`), and the runs those
    `feasible_servers` reads (`_reached_runs`).

    One walk over the skeleton's servers, last_s put in its place and
    decided alone, in position (= id) order decides each server's rule,
    from rule, VNF v's thresholds (`lookahead_units`), and its key, which a
    run server takes from its run; a run server's uplink must carry VL v-1.
    Keys hold the DC, so the two groups share none: each dedupes as it
    fills, and with dc_first last_s's class leaves its DC's group at the
    end. A server decided alone has its own paths, last_s the empty one,
    and uplink id -1. A run server shares its run's paths, and its uplink
    id is the server's link. Its path is the anchor's links and then that
    one, hops + 1 links long, and is built only by the search when it
    branches on it."""
    idx = psn.index()
    pos, servers, runs = idx.pos, idx.servers, idx.runs
    cpu, ram, bw_units = psn.cpu_units, psn.ram_units, psn.bw_units
    cpu_v, ram_v, ahead = rule
    bw_next, cpu_both, ram_both = ahead or (0, 0, 0)
    vl = request.vls[v - 2]
    need, limit = vl.bw_units, eff + LATENCY_EPS
    # where the search from last_s enters the relay graph: the relay across
    # its one link, at that link's latency, or last_s itself
    entries = idx.relay_adj[last_s]
    if len(entries) == 1 and len(psn.adj[last_s]) == 1:
        (node, lead), = entries
        lat0 = 0.0 + psn.links[lead].latency_ms
    else:
        node, lat0, lead = last_s, 0.0, -1
    if lead >= 0 and (bw_units[lead] < need or lat0 > limit):
        segments = ()  # nothing is reached past last_s's link
    else:
        budget = max(eff, vl.budget_ms)
        key = ("paths", node, lat0, budget)
        kept = idx.plans.get(key)
        if kept is None:
            found, _ = _enumerate_paths(psn, node, budget, lat0)
            # the links the search followed: each ends a path it met
            kept = _keep_plan(idx, key, (
                tuple({path[-1] for f in found.values() for _, _, path in f if path}),
                _skeleton(psn, found, budget + LATENCY_EPS)))
        followed, segments = kept
        if min(map(bw_units.__getitem__, followed), default=need) < need or eff < budget:
            # the kept paths within eff over no thin link; a segment left
            # with none is not reached
            thin = {lid for lid in followed if bw_units[lid] < need}
            filtered = []
            for start, stop, k, paths in segments:
                left = [e for e in paths if e[1] <= limit and thin.isdisjoint(e[2])]
                if left:
                    filtered.append((start, stop, k, left))
            segments = filtered
    # last_s in its place, decided alone: its own segment, or the run it
    # splits, gives way to it
    p_last = pos[last_s]
    here = ((p_last, p_last + 1, -1, _STAY),)
    i = j = bisect_right(segments, p_last, key=itemgetter(0))
    if i and segments[i - 1][1] > p_last:
        i -= 1
        start, stop, k, paths = segments[i]
        if k >= 0:
            here = ((start, p_last, k, paths), *here, (p_last + 1, stop, k, paths))
    segments = (*segments[:i], *here, *segments[j:])
    last_dc = psn.nodes[last_s].dc if dc_first else None
    head = None  # last_s's key once it passes, with dc_first
    near: dict[tuple, tuple] = {}  # last_s's DC, with dc_first
    far: dict[tuple, tuple] = {}
    for start, stop, k, paths in segments:
        if k < 0:
            sid, c, r = servers[start].id, cpu[start], ram[start]
            if not lookahead_rule(psn, sid, c, r, cpu_v, ram_v, ahead):
                continue
            key = _twin_key(psn, sid, c, r)
            group = far
            if dc_first and key[0] == last_dc:
                if sid == last_s:
                    head = key
                    continue
                group = near
            if key not in group:
                group[key] = (sid, paths, -1)
            continue
        first, _, link, anchor, dc, _, up_lat = runs[k]
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
            key = (dc, anchor, up_lat, c, r, up)
            if key not in group:
                group[key] = (servers[p].id, paths, shift + p)
    near.pop(head, None)
    return lead, [*near.values(), *far.values()]


def _chain_plan(idx: StructureIndex, request: SliceRequest) -> tuple:
    """The search's constants for the request's chain on the structure of
    idx: (vnfs, vls, need, tail_cpu, tail_ram, rules, floor), where, per
    VNF v, need[v - 1] holds VNF v's CPU and RAM units and VL v-1's
    bandwidth units (0 for v = 1), tail_cpu[v] and tail_ram[v] the units of
    VNFs v..n together, rules[v] VNF v's `lookahead_units` and floor[v]
    the least cost, in bandwidth units, that VLs v..n-1 must hold.

    floor[v] is the cheapest set of VLs to cut so that each run of VNFs
    v..n between cuts fits the largest CPU and the largest RAM capacity of
    any server (a lone VNF always counts as fitting); a cut VL costs its
    bandwidth times h, the fewest links between two servers that
    `StructureIndex.near_hops` admits. In a placement, each run of VNFs
    joined by colocated VLs sits on one server, so the VLs given a path are
    such a set of cuts, each path at least h links long: the placement
    holds at least floor[v] on VLs v..n-1.

    Cached in the index's plans under the identity of the request's demand
    tuples, which every request of a class shares (`ClassSpec.chain`), and
    checked with `is`; so a structural change, which builds a new index,
    drops them, as a full cache does."""
    vnfs, vls = request.vnfs, request.vls
    key = ("chain", id(vnfs), id(vls))
    plan = idx.plans.get(key)
    if plan is not None and plan[0] is vnfs and plan[1] is vls:
        return plan
    n = len(vnfs)
    need = [(*vnfs[0].units, 0)] + [(*d.units, vl.bw_units) for d, vl in zip(vnfs[1:], vls)]
    tail_cpu, tail_ram = [0] * (n + 2), [0] * (n + 2)
    for v in range(n, 0, -1):
        tail_cpu[v] = tail_cpu[v + 1] + need[v - 1][0]
        tail_ram[v] = tail_ram[v + 1] + need[v - 1][1]
    rules = [None] + [lookahead_units(request, v) for v in range(1, n + 1)]
    cpu_max, ram_max = max(idx.cpu_cap, default=0), max(idx.ram_cap, default=0)
    hops = min([idx.near_hops[s.id] for s in idx.servers], default=2)
    floor = [0] * (n + 2)
    for v in range(n - 1, 0, -1):
        # the run v..e, then VL e cut and floor[e + 1] beyond it
        least = hops * vls[v - 1].bw_units + floor[v + 1]
        for e in range(v + 1, n + 1):
            if tail_cpu[v] - tail_cpu[e + 1] > cpu_max or tail_ram[v] - tail_ram[e + 1] > ram_max:
                break
            least = min(least, 0 if e == n else hops * vls[e - 1].bw_units + floor[e + 1])
        floor[v] = least
    return _keep_plan(idx, key, (vnfs, vls, need, tail_cpu, tail_ram, rules, floor))


def _solve(psn: PhysicalNetwork, request: SliceRequest, *, find_optimal: bool,
           max_nodes: int | None) -> SolveResult:
    n = request.n_vnfs
    if n > MAX_CHAIN_VNFS:
        raise ValueError(f"a chain of {n} VNFs exceeds the exact search's limit "
                         f"of {MAX_CHAIN_VNFS} VNFs")
    net_nodes, idx = psn.nodes, psn.index()
    pos, near_hops, cpu, ram = idx.pos, idx.near_hops, psn.cpu_units, psn.ram_units
    _, vls, need, tail_cpu, tail_ram, rules, floor = _chain_plan(idx, request)

    # costs are held in bandwidth units, exact, as the floors are
    best_cost: int | None = None
    best_x: dict[int, int] | None = None
    best_y: dict[int, list[int]] | None = None
    nodes = 0
    deepest = 0

    x: dict[int, int] = {}
    y: dict[int, tuple[int, ...]] = {}

    def branch(v: int, sid: int, path: tuple[int, ...], lat: float, used_e2e: float,
               committed: int) -> None:
        """Hold VNF v on sid and VL v-1 on path, of latency lat, search on,
        give the hold back."""
        nonlocal deepest
        cpu_v, ram_v, bw_v = need[v - 1]
        psn.hold(sid, cpu_v, ram_v, path, bw_v)
        try:
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
            psn.give_back(sid, cpu_v, ram_v, path, bw_v)

    def expand(v: int, last_s: int | None, used_e2e: float, committed: int) -> None:
        nonlocal nodes, best_cost, best_x, best_y, deepest
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise _BudgetExhausted
        if v > n:
            if best_cost is None or committed < best_cost:
                best_cost = committed
                best_x = dict(x)
                best_y = {i: list(p) for i, p in y.items()}
            if not find_optimal or best_cost == 0:
                raise _FoundFeasible
            return
        if v == 1:
            for sid in _dedupe(psn, feasible_servers(psn, request, 1, None)):
                branch(1, sid, (), 0.0, 0.0, 0)
            return
        vl = vls[v - 2]
        bw, rest = vl.bw_units, floor[v]
        if find_optimal:
            if best_cost is None or committed + rest < best_cost:
                p = pos[last_s]
                c, r = cpu[p], ram[p]
                if c >= tail_cpu[v] and r >= tail_ram[v] and \
                        (max_nodes is None or nodes + n - v + 1 <= max_nodes):
                    # the colocated tail in closed form (module docstring):
                    # levels v+1..n counted here, the leaf counts itself
                    nodes += n - v
                    deepest = n
                    for k in range(v, n + 1):
                        x[k] = last_s
                        y[k - 1] = ()
                    expand(n + 1, last_s, used_e2e, committed)
                    return
                # colocation at cost 0; the list comes only after this try
                # (else the bound below returns), so it leaves last_s out
                if lookahead_rule(psn, last_s, c, r, *rules[v]):
                    branch(v, last_s, (), 0.0, used_e2e, committed)
            if best_cost is not None:
                # every other server is at least near_hops links away, so
                # no path of the list could beat the best
                if committed + near_hops[last_s] * bw + rest >= best_cost:
                    return
        eff = min(vl.budget_ms, request.e2e_budget_ms - used_e2e)
        lead, candidates = _later_candidates(psn, request, v, last_s, eff, find_optimal,
                                             rules[v])
        for sid, paths, up in candidates:
            # a path leaves last_s over its link first, unless that is -1
            # or the path is last_s's own, and reaches a run server over its
            # uplink up last: each one hop more, and the path is built only
            # when the search branches on it
            first = lead if sid != last_s else -1
            more = (first >= 0) + (up >= 0)
            for hops, lat, path in paths:
                cost = committed + (hops + more) * bw
                if best_cost is not None and cost + rest >= best_cost:
                    break  # paths sorted by hops; the rest cost at least this much
                if first >= 0:
                    path = (first, *path)
                if up >= 0:
                    path = (*path, up)
                branch(v, sid, path, lat, used_e2e, cost)

    status = SolveStatus.OPTIMAL
    try:
        expand(1, None, 0.0, 0)
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
        return SolveResult(status, None, nodes, deepest)

    placement = Placement(best_x, best_y)
    placement.cost = bandwidth_cost(request, placement)
    return SolveResult(status, placement, nodes, deepest)


def solve_ilp1(psn: PhysicalNetwork, request: SliceRequest, *,
               max_nodes: int | None = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Minimum-bandwidth placement of the whole chain: each virtual link
    costs its demand times its path length. The substrate is left
    untouched; callers apply the returned placement explicitly. A chain of
    more than MAX_CHAIN_VNFS VNFs raises ValueError."""
    return _solve(psn, request, find_optimal=True, max_nodes=max_nodes)


def solve_ilp2(psn: PhysicalNetwork, request: SliceRequest, *,
               max_nodes: int | None = DEFAULT_NODE_BUDGET) -> SolveResult:
    """First complete feasible placement in ascending-server-id order,
    realizing the accept-whenever-possible baseline. OPTIMAL here just means
    a feasible placement was found. A chain of more than MAX_CHAIN_VNFS
    VNFs raises ValueError."""
    return _solve(psn, request, find_optimal=False, max_nodes=max_nodes)
