"""Placement representation, constraint checking, and path/eligibility search.

A placement maps chain VNFs to servers (x) and virtual links to substrate
paths (y). The checker re-derives every constraint of the placement model
from raw server/link state, deliberately sharing no code with the search
routines that produce placements:

  1  each VNF sits on exactly one server
  2  per-server CPU within residual capacity
  3  per-server RAM within residual capacity
  4  per-link bandwidth within residual capacity
  5  each VL path starts/ends at its VNFs' servers (empty iff colocated)
  6  each VL path is edge-contiguous
  7  each VL path is simple (no link or node reuse, either direction)
  8  per-VL path latency within the VL budget
  9  access latency of the first VNF's DC within the class bound
  10 access latency plus total path latency within the end-to-end budget

Latency comparisons use a 1e-9 ms epsilon. Capacity arithmetic is exact: it
runs on integer counts of 1/SCALE CPU units, GB or Gbps (`to_units`).
"""

from __future__ import annotations

from array import array
from bisect import insort
from dataclasses import dataclass, field
from typing import Container, Mapping, Sequence

from .nspr import SliceRequest
from .topology import (SCALE, PhysicalNetwork, Run, Server, StructureIndex, left_sum,
                       relay_reach, to_units)

LATENCY_EPS = 1e-9

CONSTRAINT_NAMES = {
    1: "vnf-assignment",
    2: "server-cpu",
    3: "server-ram",
    4: "link-bandwidth",
    5: "path-endpoints",
    6: "path-continuity",
    7: "path-simplicity",
    8: "vl-latency",
    9: "access-latency",
    10: "e2e-latency",
}


class MalformedPlacementError(ValueError):
    """Placement references unknown nodes/links or has an unparseable shape."""


@dataclass
class Placement:
    """x: VNF index (1-based) -> server id; y: VL index (1-based) -> link ids.

    A held placement's x and y do not change: from `apply_placement`, or
    from the commit of the search that found it, to `release_placement`.
    `units` records the demand units `_demand_units` last summed, under the
    request it summed them for, so a placement applied and released with
    one request is summed once; it takes no part in equality, repr or JSON.
    """

    x: dict[int, int]
    y: dict[int, list[int]]
    cost: float = 0.0
    # (request, per-server [CPU, RAM] units, per-link units)
    units: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def to_json(self, psn: PhysicalNetwork) -> dict:
        return {
            "x": {str(v): s for v, s in sorted(self.x.items())},
            "y": {str(i): [[psn.links[lid].a, psn.links[lid].b] for lid in path]
                  for i, path in sorted(self.y.items())},
            "cost": self.cost,
        }


@dataclass
class Verdict:
    """The checker's findings: (constraint number, detail) per violation.
    A placement passes when there are none."""

    violations: list[tuple[int, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> set[int]:
        return {code for code, _ in self.violations}

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"constraint": code, "name": CONSTRAINT_NAMES[code], "detail": msg}
                for code, msg in self.violations
            ],
        }


def _is_id(value: object, count: int) -> bool:
    """Whether value is an id in 0..count-1: an integer, never a boolean."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < count


def _resolve_path(psn: PhysicalNetwork, i: int, raw: Sequence) -> list[int]:
    """Resolve a VL path given as node pairs or link ids into link ids."""
    if not isinstance(raw, (list, tuple)):
        raise MalformedPlacementError(f"VL {i}: path must be a list")
    links = []
    for hop in raw:
        if isinstance(hop, int) and not isinstance(hop, bool):
            if not 0 <= hop < len(psn.links):
                raise MalformedPlacementError(f"VL {i}: unknown link id {hop}")
            links.append(hop)
        else:
            try:
                a, b = hop
            except (TypeError, ValueError):
                raise MalformedPlacementError(
                    f"VL {i}: path entries must be link ids or [a, b] pairs") from None
            for node in (a, b):
                if not _is_id(node, len(psn.nodes)):
                    raise MalformedPlacementError(f"VL {i}: unknown node id {node!r}")
            link = psn.link_between(a, b)
            if link is None:
                raise MalformedPlacementError(f"VL {i}: no link between {a} and {b}")
            links.append(link.id)
    return links


def _index(key: object, what: str) -> int:
    """A VNF or VL index given as an integer or its canonical decimal
    string: "01" or "1_0", which int() would read as 1 and 10, is refused."""
    value = int(key) if isinstance(key, str) and key.isascii() and key.isdigit() else key
    if not isinstance(value, int) or isinstance(value, bool) or str(value) != str(key):
        raise MalformedPlacementError(f"bad {what} index {key!r}")
    return value


def _coerce_raw(psn: PhysicalNetwork, obj: Placement | Mapping
                ) -> tuple[dict[int, tuple[int, ...]], dict[int, list[int]]]:
    """A placement's x as VNF -> servers and y as VL -> link ids, or
    MalformedPlacementError. The one reader of both placement forms."""
    if isinstance(obj, Placement):
        obj = {"x": obj.x, "y": obj.y}
    if not (isinstance(obj, Mapping) and isinstance(obj.get("x"), Mapping)
            and isinstance(obj.get("y", {}), Mapping)):
        raise MalformedPlacementError("placement must be an object whose 'x' "
                                      "and 'y' (if present) are objects")
    x_multi: dict[int, tuple[int, ...]] = {}
    for key, val in obj["x"].items():
        v = _index(key, "VNF")
        if v in x_multi:
            raise MalformedPlacementError(f"VNF {v} is listed twice")
        servers = tuple(val) if isinstance(val, (list, tuple)) else (val,)
        for s in servers:
            if not _is_id(s, len(psn.nodes)):
                raise MalformedPlacementError(f"VNF {v}: unknown node id {s!r}")
            if not isinstance(psn.nodes[s], Server):
                raise MalformedPlacementError(f"VNF {v}: node {s} is not a server")
        x_multi[v] = servers
    y: dict[int, list[int]] = {}
    for key, val in obj.get("y", {}).items():
        i = _index(key, "VL")
        if i in y:
            raise MalformedPlacementError(f"VL {i} is listed twice")
        y[i] = _resolve_path(psn, i, val)
    return x_multi, y


def check_placement(psn: PhysicalNetwork, request: SliceRequest,
                    placement: Placement | Mapping) -> Verdict:
    """Check a placement against all ten constraints of the current substrate
    state (capacities compare against residuals, so check before applying).

    Accepts either a Placement or its raw JSON mapping, read alike; the raw
    form may map a VNF to several servers, which is reported as a
    constraint-1 violation. Structurally impossible inputs (unknown ids,
    indices that are not integers) raise MalformedPlacementError.
    """
    x_multi, y_paths = _coerce_raw(psn, placement)

    n = request.n_vnfs
    for v in x_multi:
        if not 1 <= v <= n:
            raise MalformedPlacementError(f"VNF index {v} outside chain 1..{n}")
    for i in y_paths:
        if not 1 <= i <= n - 1:
            raise MalformedPlacementError(f"VL index {i} outside chain 1..{n - 1}")
    if not _is_id(request.uap, len(psn.nodes)) or psn.nodes[request.uap].kind.value != "uap":
        raise MalformedPlacementError(f"request UAP {request.uap} is not a UAP node")

    violations: list[tuple[int, str]] = []

    assigned: dict[int, int] = {}
    for v in range(1, n + 1):
        servers = x_multi.get(v, ())
        if len(servers) != 1:
            violations.append((1, f"VNF {v} assigned to {len(servers)} servers"))
        else:
            assigned[v] = servers[0]

    cpu_load: dict[int, int] = {}  # in residual units, as bw_load
    ram_load: dict[int, int] = {}
    for v, s in assigned.items():
        d = request.vnf(v)
        cpu_load[s] = cpu_load.get(s, 0) + to_units(d.cpu)
        ram_load[s] = ram_load.get(s, 0) + to_units(d.ram)
    pos = psn.index().pos
    for s, load in sorted(cpu_load.items()):
        cpu, ram = psn.cpu_units[pos[s]], psn.ram_units[pos[s]]
        if load > cpu:
            violations.append((2, f"server {s}: CPU demand {load / SCALE} exceeds free {cpu / SCALE}"))
        if ram_load[s] > ram:
            violations.append((3, f"server {s}: RAM demand {ram_load[s] / SCALE} exceeds free {ram / SCALE}"))

    bw_load: dict[int, int] = {}
    total_path_latency = 0.0
    for i in range(1, n):
        path = y_paths.get(i, [])
        a = assigned.get(i)
        b = assigned.get(i + 1)
        if a is not None and b is not None:
            if a == b:
                if path:
                    violations.append((5, f"VL {i}: colocated VNFs but non-empty path"))
            elif not path:
                violations.append((5, f"VL {i}: distinct servers but empty path"))
            else:
                first = psn.links[path[0]]
                if a not in (first.a, first.b):
                    violations.append((5, f"VL {i}: path does not start at server {a}"))
                else:
                    cur = a
                    seen_nodes = {a}
                    seen_links: set[int] = set()
                    contiguous = True
                    for lid in path:
                        link = psn.links[lid]
                        if cur not in (link.a, link.b):
                            violations.append((6, f"VL {i}: link {lid} does not touch node {cur}"))
                            contiguous = False
                            break
                        nxt = link.other(cur)
                        if lid in seen_links:
                            violations.append((7, f"VL {i}: link {lid} used twice"))
                        if nxt in seen_nodes:
                            violations.append((7, f"VL {i}: node {nxt} revisited"))
                        seen_links.add(lid)
                        seen_nodes.add(nxt)
                        cur = nxt
                    if contiguous and cur != b:
                        violations.append((5, f"VL {i}: path ends at {cur}, not server {b}"))
        d_bw = to_units(request.vl(i).bw)
        for lid in path:
            link = psn.links[lid]
            if link.bw_capacity is None:
                violations.append((4, f"VL {i}: link {lid} carries no bandwidth accounting"))
            else:
                bw_load[lid] = bw_load.get(lid, 0) + d_bw
        latency = left_sum(psn.links[lid].latency_ms for lid in path)
        if latency > request.vl(i).budget_ms + LATENCY_EPS:
            violations.append((8, f"VL {i}: latency {latency} exceeds budget {request.vl(i).budget_ms}"))
        total_path_latency += latency

    for lid, load in sorted(bw_load.items()):
        free = psn.bw_units[lid]
        if load > free:
            violations.append((4, f"link {lid}: bandwidth demand {load / SCALE} exceeds free {free / SCALE}"))

    root = assigned.get(1)
    if root is not None:
        alpha = psn.access_latency(request.uap, psn.nodes[root].dc)
        if alpha > request.alpha_max_ms + LATENCY_EPS:
            violations.append((9, f"access latency {alpha} exceeds bound {request.alpha_max_ms}"))
        if alpha + total_path_latency > request.e2e_budget_ms + LATENCY_EPS:
            violations.append((10, f"end-to-end latency {alpha + total_path_latency} "
                                   f"exceeds budget {request.e2e_budget_ms}"))

    return Verdict(violations)


def bandwidth_cost(request: SliceRequest, placement: Placement) -> float:
    """Held substrate bandwidth: sum over VLs of path length times demand,
    added one at a time in chain order from 0.0, as `topology.left_sum`
    adds and P2C adds its cost. An exact placement's cost is summed here
    alone, once its search ends."""
    y, total = placement.y, 0.0
    for i, vl in enumerate(request.vls, 1):
        total += len(y.get(i, ())) * vl.bw
    return total


def min_cost_path(psn: PhysicalNetwork, src: int, dst: int, bw: float,
                  budget_ms: float) -> list[int] | None:
    """Feasible low-cost path between two nodes, as link ids.

    Only links with tracked residual bandwidth >= bw participate. First takes
    the minimum-hop path (ties broken toward lower node ids); if its latency
    fits the budget it wins, since cost scales with hop count. Otherwise falls
    back to the minimum-latency path, which exists within the budget or not at
    all, so the result is None exactly when no feasible path exists. src ==
    dst yields the empty path.

    Two one-link nodes behind the same anchor (two servers of one star DC)
    are joined in closed form: [src link, dst link] when both links carry
    bw and their latency, summed from 0.0 first link to last, fits the
    budget. That is the one path between them and the BFS's result; every
    other case, these two nodes' misses among them, runs the search.

    The BFS expands relay nodes alone, and the fallback is
    `topology.relay_reach`, which pushes relay nodes alone: a leaf dst is
    reached through the node across its one link, so the paths and their
    latencies are those of the plain BFS and Dijkstra over every node.
    """
    if src == dst:
        return [] if budget_ms >= -LATENCY_EPS else None

    need, bw_units, links, adj = to_units(bw), psn.bw_units, psn.links, psn.adj
    if len(adj[src]) == 1 == len(adj[dst]):
        (anchor, first), = adj[src]
        (other, last), = adj[dst]
        if anchor == other and bw_units[first] >= need and bw_units[last] >= need:
            latency = 0.0 + links[first].latency_ms + links[last].latency_ms
            if latency <= budget_ms + LATENCY_EPS:
                return [first, last]

    # a leaf dst: the search reaches the node across its one link
    target, last_hop = dst, -1
    if len(adj[dst]) == 1:
        target, last_hop = adj[dst][0]
        if bw_units[last_hop] < need:
            return None

    # minimum hops, BFS with ascending-id expansion
    parent: dict[int, tuple[int, int]] = {src: (-1, -1)}
    if target != src:
        relay_adj = psn.index().relay_adj
        level, found = [src], False
        while level and not found:
            nxt_level = []
            for u in sorted(level) if len(level) > 1 else level:
                for v, lid in relay_adj[u]:
                    if v not in parent and bw_units[lid] >= need:
                        parent[v] = (u, lid)
                        if v == target:
                            found = True
                            break
                        nxt_level.append(v)
                if found:
                    break
            level = nxt_level
        if not found:
            return None

    hop_path, node = [], target
    while node != src:
        node, lid = parent[node]
        hop_path.append(lid)
    hop_path.reverse()
    if last_hop >= 0:
        hop_path.append(last_hop)
    # summed first link to last, as the checker sums it
    latency = 0.0
    for lid in hop_path:
        latency += links[lid].latency_ms
    if latency <= budget_ms + LATENCY_EPS:
        return hop_path

    # minimum latency: the relay search, pruned at the budget, then the last
    # hop, whose link already carries bw
    limit, parent = budget_ms + LATENCY_EPS, {}
    dist = relay_reach(psn, src, need, limit, parent)
    if target not in dist or last_hop >= 0 and dist[target] + links[last_hop].latency_ms > limit:
        return None
    path, node = [last_hop] if last_hop >= 0 else [], target
    while node != src:
        node, lid = parent[node]
        path.append(lid)
    path.reverse()
    return path


def _reached_runs(psn: PhysicalNetwork, relay: dict[int, float], limit: float) -> list[int]:
    """The one run-grain reach rule of `feasible_servers` and the exact
    search's candidate lists: given the relay distances reached within
    limit (`topology.relay_reach`'s, or the exact search's, which are
    equal), the indices, ascending, of the runs (`topology.Run`) anchored at
    a reached relay whose uplink latency keeps the sum within limit (`d +
    lat <= limit`, the compare `latency_reach` makes). A run's servers are
    reached only if their uplinks carry the VL too."""
    anchor_runs = psn.index().anchor_runs
    reached = [k for u, d in relay.items() for lat, k in anchor_runs.get(u, ())
               if d + lat <= limit]
    reached.sort()
    return reached


def latency_reach(psn: PhysicalNetwork, src: int, bw: float,
                  budget_ms: float) -> dict[int, float]:
    """Latency-shortest distance from src to every node within budget, over
    links with residual bandwidth >= bw. Nodes beyond the budget are absent.

    `topology.relay_reach` finds the relay nodes; a leaf (a node of degree
    1: a server behind its switch, a UAP) is then recorded through its one
    link from the reached node across it, with one dict write per reached
    leaf. No code of the package calls it; the benchmark's reach span and
    the tests do.
    """
    limit, need = budget_ms + LATENCY_EPS, to_units(bw)
    dist = relay_reach(psn, src, need, limit)
    adj, links, bw_units = psn.adj, psn.links, psn.bw_units
    for u, d in list(dist.items()):
        for v, lid in adj[u]:
            if len(adj[v]) != 1 or bw_units[lid] < need or v in dist:
                continue
            nd = d + links[lid].latency_ms
            if nd <= limit:
                dist[v] = nd
    return dist


def lookahead_units(request: SliceRequest, v: int
                    ) -> tuple[int, int, tuple[int, int, int] | None]:
    """The thresholds of the lookahead rule for VNF v, in residual units:
    VNF v's CPU and RAM and, before the final VNF, (VL v's bandwidth, the
    CPU and RAM of VNFs v and v+1 together); None at the final VNF. Every
    reader of the rule takes them from here. It indexes the demand tuples
    without `request.vnf`'s range check."""
    vnfs = request.vnfs
    cpu_v, ram_v = vnfs[v - 1].units
    if v == len(vnfs):
        return cpu_v, ram_v, None
    cpu_next, ram_next = vnfs[v].units
    return cpu_v, ram_v, (request.vls[v - 1].bw_units, cpu_v + cpu_next, ram_v + ram_next)


def lookahead_rule(psn: PhysicalNetwork, server_id: int, cpu: int, ram: int,
                   cpu_v: int, ram_v: int, ahead: tuple[int, int, int] | None) -> bool:
    """The one body of the scalar lookahead rule: whether server server_id,
    with cpu and ram units left, has room for a VNF of cpu_v and ram_v units
    and, with ahead = (bw, cpu, ram) from `lookahead_units`, room for the
    next VNF too (cpu and ram) or an incident link with bw units left. ahead
    None leaves the room test. Callers pass the residuals they have read."""
    if cpu < cpu_v or ram < ram_v:
        return False
    if ahead is None or cpu >= ahead[1] and ram >= ahead[2]:
        return True
    bw_next, bw_units = ahead[0], psn.bw_units
    for _, lid in psn.adj[server_id]:
        if bw_units[lid] >= bw_next:
            return True
    return False


# Plans (`_store`, and the exact search's chain constants and relay paths)
# the structure index keeps; a full cache is emptied. The number of plans
# grows with the run: a seed-1 MIX rho 1 P2C-1 run at scale 1 met 2,532
# distinct ones in 18,214 arrivals, the benchmark's scale-16 P2C-2 run 203
# in 2,187 (CHANGES.md, "P2C steps read cached slice plans and enter their
# searches at the anchor"); the benchmark's scale-1 ILP-1 run keeps 103, 70
# of them relay-path entries, and a seed-1 ILP-2 run at MIX rho 2, horizon
# 1000, 110, 77 of them (`BENCH_35.json`, `plans`)
PLANS_MAX = 4096


def _keep_plan(idx: StructureIndex, key: tuple, plan: tuple) -> tuple:
    """Cache plan under key in the index's plans, emptying them first when
    they hold PLANS_MAX, and return it: the one rule of the plan cache."""
    plans = idx.plans
    if len(plans) >= PLANS_MAX:
        plans.clear()
    plans[key] = plan
    return plan


def _store(idx: StructureIndex, key: tuple, by_rank: dict[int, list],
           offs: tuple[tuple[int, int], ...]) -> tuple:
    """Cache under key, and return, the plan of the slices by_rank of
    `_slices`: (groups, ranks, offs), groups being (rank, slices, ()) in
    ascending rank, ranks their ranks, and offs (rank, position) of servers
    outside every run that each call decides one at a time."""
    groups = tuple([(r, tuple(by_rank[r]), ()) for r in sorted(by_rank)])
    return _keep_plan(idx, key, (groups, frozenset(by_rank), offs))


def _root_plan(psn: PhysicalNetwork, request: SliceRequest, best_tier: bool) -> tuple:
    """Where the first VNF may go: the plan (`_store`) of the runs of the
    data centers within the class's access bound of the request's UAP,
    with the positions of those data centers' servers outside every run.
    Cached per (UAP, bound, best_tier)."""
    idx = psn.index()
    key = (request.uap, request.alpha_max_ms, best_tier)
    plan = idx.plans.get(key)
    if plan is None:
        bound = request.alpha_max_ms + LATENCY_EPS
        dcs = {dc_id for dc_id in psn.data_centers
               if psn.access_latency(request.uap, dc_id) <= bound}
        offs = tuple([(idx.tier_rank[idx.servers[p].id] if best_tier else 0, p)
                      for p in idx.off_run if idx.servers[p].dc in dcs])
        plan = _store(idx, key, _slices(idx.runs, [k for k, run in enumerate(idx.runs)
                                                   if run.dc in dcs], best_tier, dcs), offs)
    return plan


def _merged(groups: Sequence[tuple], extras: list[tuple[int, int]],
            pin_rank: int | None) -> list[tuple]:
    """groups with each (rank, id) of extras added to its rank's group and,
    unless pin_rank is None, a group of that rank, ascending by rank."""
    by_rank = {r: (slices, []) for r, slices, _ in groups}
    for r, sid in extras:
        by_rank.setdefault(r, ((), []))[1].append(sid)
    if pin_rank is not None:
        by_rank.setdefault(pin_rank, ((), []))
    return [(r, *by_rank[r]) for r in sorted(by_rank)]


# Slices shorter than this are decided by scalar reads (`_collect`). On one
# star DC of n servers, a third of them loaded, a URLLC root list and VNF
# 2's list from one of its servers each took 7.8-8.8 us with numpy at every
# n from 4 to 40. By scalar reads, at n = 4, 16, 24, 32 and 40, the root
# took 3.0, 5.1-5.4, 6.5-6.9, 7.8-8.3 and 9.2-9.8 us and VNF 2 4.7-5.1,
# 7.2-7.9, 8.4-8.5, 9.6-10.6 and 11.0-11.7 us, breaking even between 20 and
# 24. A five-VNF chain asks four later lists per root list, so the later
# lists set the value (CPython 3.11, one x86-64 core, min of 7 batches of
# 2,000 calls; CHANGES.md, "P2C reads only what two choices need")
SHORT_SLICE = 24


def _slices(runs: Sequence[Run], ks: list[int], by_rank: bool,
            look_dcs: Container[str | None]) -> dict[int, list[tuple]]:
    """Runs ks, ascending, merged into slices (start, stop, link, look):
    positions start..stop-1 with uplinks link..link+stop-start-1, look
    telling whether the slice's DCs are in look_dcs. Grouped by tier rank
    with by_rank, else all under 0. A run joins its group's last slice only
    where it meets it: at that slice's next position and next link id, with
    the same look. A slice thus holds no position outside its runs."""
    groups: dict[int, list[tuple]] = {}
    key = slices = None
    for k in ks:
        start, stop, link, _, dc, rank, _ = runs[k]
        look = dc in look_dcs
        if by_rank and rank != key or slices is None:
            key = rank if by_rank else 0
            slices = groups.setdefault(key, [])
        if slices:
            first, last, up, was = slices[-1]
            if start == last and link == up + last - first and was is look:
                slices[-1] = (first, stop, up, look)
                continue
        slices.append((start, stop, link, look))
    return groups


def _collect(psn: PhysicalNetwork, slices: Sequence[Sequence], extras: Sequence[int],
             reach_bw: int | None, cpu: int, ram: int, ahead: tuple[int, int, int] | None,
             pin: tuple[int, int, bool] | None) -> array:
    """Ids, ascending, in one `array('q')`, of `extras` (servers decided
    already) and of the servers of `slices` that have `cpu` and `ram` units
    left and, with `reach_bw`, a link that carries it. In a look slice, with
    ahead = (bw, cpu, ram), a server's link must also carry bw or the server
    have cpu and ram left. pin = (position, id, verdict) decides one server,
    inside the slices or not. A slice of SHORT_SLICE positions or more is
    decided by a few compares over zero-copy slices of the residual views,
    and its ids pass from the masked id slice to the array as bytes, never
    as Python ints; a shorter one by scalar reads of the residual arrays.
    Every position of a slice is a run server's."""
    idx = psn.index()
    servers = idx.servers
    cpu_units, ram_units, bw_units = psn.cpu_units, psn.ram_units, psn.bw_units
    bw_next, cpu_next, ram_next = ahead or (0, 0, 0)
    reach = -1 if reach_bw is None else reach_bw  # every residual is at least -1
    # ids holds the short slices' ids not yet in out: a list takes an int in
    # half the time an array does, and the array takes a list in one call
    out, ids = array("q"), []
    for start, stop, link, look in slices:
        look = look and ahead is not None
        if stop - start < SHORT_SLICE:
            # the pin's position is skipped here and inserted below
            skip, shift = -1 if pin is None else pin[0], link - start
            for p in range(start, stop):
                c, r = cpu_units[p], ram_units[p]
                if c < cpu or r < ram or p == skip:
                    continue
                up = bw_units[shift + p]
                if up < reach or look and (c < cpu_next or r < ram_next) and up < bw_next:
                    continue
                ids.append(servers[p].id)
            continue
        cpu_view, ram_view, bw_view = psn.vectors()
        c, r, up = cpu_view[start:stop], ram_view[start:stop], bw_view[link:link + stop - start]
        ok = c >= cpu
        ok &= r >= ram
        if reach_bw is not None:
            ok &= up >= reach_bw
        if look:
            more = c >= cpu_next
            more &= r >= ram_next
            more |= up >= bw_next
            ok &= more
        if pin is not None and start <= pin[0] < stop:
            ok[pin[0] - start] = pin[2]
            pin = None
        if ids:
            out.fromlist(ids)
            ids = []
        out.frombytes(idx.id[start:stop][ok].tobytes())
    out.fromlist(ids)
    if pin is not None and pin[2]:
        insort(out, pin[1])
    for sid in extras:
        insort(out, sid)
    return out


def feasible_servers(psn: PhysicalNetwork, request: SliceRequest, v: int,
                     last_s: int | None, *, used_e2e_ms: float = 0.0,
                     best_tier: bool = False) -> array:
    """Servers eligible to host VNF v, ascending by id, as one
    `array('q')` of server ids: a C-level sequence whose `len`, indexing
    and iteration give Python ints. P2C reads its length and two entries
    (`p2c.get_two_candidates`), the exact search iterates it for its VNF-1
    roots; `list(...)` gives the plain list.

    For the first VNF: the servers of the data centers within the class's
    access bound of the request's UAP that pass the lookahead rule
    (`lookahead_rule`): room for VNF 1 and either room for VNF 2 too or an
    incident link that can carry VL 1. These are the exact search's VNF-1
    candidates too.

    For later VNFs, eligibility needs a feasible path for VL(v-1, v) from
    last_s within min(VL budget, end-to-end slack). The previous server and
    its DC neighbors additionally pass the lookahead rule; servers in other
    DCs only need room for the VNF.

    `used_e2e_ms` is the latency already committed (access plus placed VLs).
    With `best_tier` only the eligible servers of the best tier present are
    returned, CCP over CDC over EDC over servers outside any DC: the pool
    P2C-2 draws from.

    Cost: O(relay nodes reached + runs reached) in Python plus, per slice,
    O(servers) in C, or O(servers) in Python for a slice shorter than
    SHORT_SLICE. `topology.relay_reach` runs over the relay nodes only
    (switches, routers; no server of the reference substrate), from last_s's
    anchor when last_s has one link. The one-link servers are held as runs
    (`topology.Run`, one per DC on the reference substrate), and a run is
    reached when its anchor is and the latency left there covers its
    uplink's. What follows from the runs reached alone is a plan, cached in
    the structure index: the reached runs merged where they meet into
    slices (`_slices`), grouped by tier with `best_tier`. The first VNF's
    plan holds the runs of the DCs within the access bound, keyed by (UAP,
    bound, `best_tier`); a later VNF's is keyed by (runs reached,
    `best_tier`, the DC that applies the lookahead, if any). A hit costs one
    dict lookup. A few integer compares over zero-copy slices of
    `psn.vectors()`, or scalar reads of a short slice, then decide the
    servers, and a long slice's ids reach the array as bytes, so no
    per-id Python int is made (`_collect`); `best_tier` decides tier by
    tier, best first, and stops at the first tier with an eligible server.
    last_s and the servers without exactly one link (relays when reached)
    are decided one at a time by `lookahead_rule`, from the thresholds read
    once per call, and only when one of them needs a tier the plan lacks
    are the groups built anew. The result equals an all-server scan of the
    rule, ids and order alike.
    """
    vnfs = request.vnfs
    n = len(vnfs)
    if not 1 <= v <= n:
        raise ValueError(f"VNF index {v} outside chain 1..{n}")
    idx = psn.index()
    servers, tier_rank = idx.servers, idx.tier_rank
    cpu_units, ram_units = psn.cpu_units, psn.ram_units
    cpu_v, ram_v, ahead = lookahead_units(request, v)
    reach_bw = pin = pin_rank = new_rank = None

    if v == 1:
        groups, _, offs = _root_plan(psn, request, best_tier)
        extras = [(r, servers[p].id) for r, p in offs
                  if lookahead_rule(psn, servers[p].id, cpu_units[p], ram_units[p],
                                    cpu_v, ram_v, ahead)]
    else:
        if last_s is None:
            raise ValueError("last_s is required for VNFs beyond the first")
        vl = request.vls[v - 2]
        reach_bw = vl.bw_units
        limit = min(vl.budget_ms, request.e2e_budget_ms - used_e2e_ms) + LATENCY_EPS
        relay = relay_reach(psn, last_s, reach_bw, limit)
        reached = _reached_runs(psn, relay, limit)
        # Only last_s's own DC applies the lookahead, and only when VL v
        # needs more than VL v-1. Otherwise it is implied before the final
        # VNF: every reached server but last_s was entered over a link with
        # residual >= bw(VL v-1) >= bw(VL v), its one link or, for a relay
        # server, a relay link; so it has a link that carries VL v.
        look_dcs = (psn.nodes[last_s].dc,) if ahead is not None and ahead[0] > reach_bw else ()
        key = (tuple(reached), best_tier, look_dcs)
        groups, ranks, _ = idx.plans.get(key) or _store(
            idx, key, _slices(idx.runs, reached, best_tier, look_dcs), ())
        extras = []
        for p in idx.off_run:
            sid = servers[p].id
            if sid != last_s and sid in relay and lookahead_rule(
                    psn, sid, cpu_units[p], ram_units[p], cpu_v, ram_v,
                    ahead if servers[p].dc in look_dcs else None):
                extras.append((tier_rank[sid] if best_tier else 0, sid))
        # last_s is always reached, and needs the lookahead wherever it is;
        # at the final VNF that is the room test
        p = idx.pos[last_s]
        if p >= 0:
            pin = (p, last_s, lookahead_rule(psn, last_s, cpu_units[p], ram_units[p],
                                             cpu_v, ram_v, ahead))
            pin_rank = tier_rank[last_s] if best_tier else 0
            if pin[2] and pin_rank not in ranks:
                new_rank = pin_rank
    if extras or new_rank is not None:
        groups = _merged(groups, extras, new_rank)

    for rank, slices, ids in groups:
        out = _collect(psn, slices, ids, reach_bw, cpu_v, ram_v, ahead,
                       pin if rank == pin_rank else None)
        if out or not best_tier:
            return out
    return array("q")


def _demand_units(request: SliceRequest, placement: Placement
                  ) -> tuple[dict[int, list[int]], dict[int, int]]:
    """A placement's demand units, summed per server ([CPU, RAM]) and per
    link, and recorded on it (`Placement.units`): read back while the
    request is the one they were summed for (by identity), summed afresh
    for any other. A VNF or VL key outside the chain raises IndexError."""
    record = placement.units
    if record is not None and record[0] is request:
        return record[1], record[2]
    vnfs, vls = request.vnfs, request.vls
    n_vnfs, n_vls = len(vnfs), len(vls)
    servers: dict[int, list[int]] = {}
    for v, s in placement.x.items():
        if not 1 <= v <= n_vnfs:
            raise IndexError(f"VNF index {v} outside 1..{n_vnfs}")
        cpu, ram = vnfs[v - 1].units
        held = servers.get(s)
        if held is None:
            servers[s] = [cpu, ram]
        else:
            held[0] += cpu
            held[1] += ram
    links: dict[int, int] = {}
    for i, path in placement.y.items():
        if not 1 <= i <= n_vls:
            raise IndexError(f"VL index {i} outside 1..{n_vls}")
        bw = vls[i - 1].bw_units
        for lid in path:
            links[lid] = links.get(lid, 0) + bw
    placement.units = (request, servers, links)
    return servers, links


def apply_placement(psn: PhysicalNetwork, request: SliceRequest,
                    placement: Placement) -> None:
    """Commit a placement's resources, one write per server and per link.
    Atomic: on failure nothing is held. The sums are recorded on the
    placement (`Placement.units`), so its release with the same request
    reads them back; its x and y must not change while it is held."""
    psn.write_units(-1, *_demand_units(request, placement))


def release_placement(psn: PhysicalNetwork, request: SliceRequest,
                      placement: Placement) -> None:
    """Return a placement's resources (exact inverse of apply_placement),
    one write per server and per link. Atomic: on failure nothing is
    returned. Reads the sums recorded under this request, if the
    placement has them (`Placement.units`), and sums and records them
    otherwise: a placement P2C held step by step (`PhysicalNetwork.hold`)
    is summed here, once."""
    psn.write_units(1, *_demand_units(request, placement))
