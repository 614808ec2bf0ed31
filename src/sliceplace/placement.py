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

Latency comparisons use a 1e-9 ms epsilon; capacity arithmetic is exact.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .nspr import SliceRequest
from .topology import PhysicalNetwork, Server

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
    """x: VNF index (1-based) -> server id; y: VL index (1-based) -> link ids."""

    x: dict[int, int]
    y: dict[int, list[int]]
    cost: float = 0.0

    def to_json(self, psn: PhysicalNetwork) -> dict:
        return {
            "x": {str(v): s for v, s in sorted(self.x.items())},
            "y": {str(i): [[psn.links[lid].a, psn.links[lid].b] for lid in path]
                  for i, path in sorted(self.y.items())},
            "cost": self.cost,
        }

    @classmethod
    def from_json(cls, psn: PhysicalNetwork, obj: Mapping) -> "Placement":
        x_multi, y = _coerce_raw(psn, obj)
        x = {}
        for v, servers in x_multi.items():
            if len(servers) != 1:
                raise MalformedPlacementError(
                    f"VNF {v} maps to {len(servers)} servers, expected exactly one")
            x[v] = servers[0]
        return cls(x=x, y=y, cost=float(obj.get("cost", 0.0)))


@dataclass
class Verdict:
    ok: bool
    violations: list[tuple[int, str]] = field(default_factory=list)

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


def _resolve_path(psn: PhysicalNetwork, i: int, raw: Sequence) -> list[int]:
    """Resolve a VL path given as node pairs or link ids into link ids."""
    links = []
    for hop in raw:
        if isinstance(hop, int):
            if not 0 <= hop < len(psn.links):
                raise MalformedPlacementError(f"VL {i}: unknown link id {hop}")
            links.append(hop)
        else:
            try:
                a, b = hop
            except (TypeError, ValueError):
                raise MalformedPlacementError(
                    f"VL {i}: path entries must be link ids or [a, b] pairs") from None
            link = psn.link_between(int(a), int(b))
            if link is None:
                raise MalformedPlacementError(f"VL {i}: no link between {a} and {b}")
            links.append(link.id)
    return links


def _coerce_raw(psn: PhysicalNetwork, obj: Mapping) -> tuple[dict[int, tuple[int, ...]], dict[int, list[int]]]:
    try:
        raw_x = obj["x"]
        raw_y = obj.get("y", {})
    except TypeError:
        raise MalformedPlacementError("placement must be a mapping with 'x' and 'y'") from None
    x_multi: dict[int, tuple[int, ...]] = {}
    for key, val in raw_x.items():
        try:
            v = int(key)
        except (TypeError, ValueError):
            raise MalformedPlacementError(f"bad VNF index {key!r}") from None
        servers = tuple(val) if isinstance(val, (list, tuple)) else (val,)
        for s in servers:
            if not isinstance(s, int) or not 0 <= s < len(psn.nodes):
                raise MalformedPlacementError(f"VNF {v}: unknown node id {s!r}")
            if not isinstance(psn.nodes[s], Server):
                raise MalformedPlacementError(f"VNF {v}: node {s} is not a server")
        x_multi[v] = tuple(int(s) for s in servers)
    y: dict[int, list[int]] = {}
    for key, val in raw_y.items():
        try:
            i = int(key)
        except (TypeError, ValueError):
            raise MalformedPlacementError(f"bad VL index {key!r}") from None
        y[i] = _resolve_path(psn, i, val)
    return x_multi, y


def check_placement(psn: PhysicalNetwork, request: SliceRequest,
                    placement: Placement | Mapping) -> Verdict:
    """Check a placement against all ten constraints of the current substrate
    state (capacities compare against residuals, so check before applying).

    Accepts either a Placement or its raw JSON mapping; the raw form may map a
    VNF to several servers, which is reported as a constraint-1 violation.
    Structurally impossible inputs (unknown ids) raise MalformedPlacementError.
    """
    if isinstance(placement, Placement):
        x_multi = {v: (s,) for v, s in placement.x.items()}
        for v, (s,) in x_multi.items():
            if not 0 <= s < len(psn.nodes) or not isinstance(psn.nodes[s], Server):
                raise MalformedPlacementError(f"VNF {v}: node {s} is not a server")
        y_paths = {i: _resolve_path(psn, i, path) for i, path in placement.y.items()}
    else:
        x_multi, y_paths = _coerce_raw(psn, placement)

    n = request.n_vnfs
    for v in x_multi:
        if not 1 <= v <= n:
            raise MalformedPlacementError(f"VNF index {v} outside chain 1..{n}")
    for i in y_paths:
        if not 1 <= i <= n - 1:
            raise MalformedPlacementError(f"VL index {i} outside chain 1..{n - 1}")
    if psn.nodes[request.uap].kind.value != "uap":
        raise MalformedPlacementError(f"request UAP {request.uap} is not a UAP node")

    violations: list[tuple[int, str]] = []

    assigned: dict[int, int] = {}
    for v in range(1, n + 1):
        servers = x_multi.get(v, ())
        if len(servers) != 1:
            violations.append((1, f"VNF {v} assigned to {len(servers)} servers"))
        else:
            assigned[v] = servers[0]

    cpu_load: dict[int, float] = {}
    ram_load: dict[int, float] = {}
    for v, s in assigned.items():
        d = request.vnf(v)
        cpu_load[s] = cpu_load.get(s, 0.0) + d.cpu
        ram_load[s] = ram_load.get(s, 0.0) + d.ram
    for s, load in sorted(cpu_load.items()):
        srv = psn.server(s)
        if load > srv.cpu_residual:
            violations.append((2, f"server {s}: CPU demand {load} exceeds free {srv.cpu_residual}"))
        if ram_load[s] > srv.ram_residual:
            violations.append((3, f"server {s}: RAM demand {ram_load[s]} exceeds free {srv.ram_residual}"))

    bw_load: dict[int, float] = {}
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
        d_bw = request.vl(i).bw
        for lid in path:
            link = psn.links[lid]
            if link.bw_capacity is None:
                violations.append((4, f"VL {i}: link {lid} carries no bandwidth accounting"))
            else:
                bw_load[lid] = bw_load.get(lid, 0.0) + d_bw
        latency = sum(psn.links[lid].latency_ms for lid in path)
        if latency > request.vl(i).budget_ms + LATENCY_EPS:
            violations.append((8, f"VL {i}: latency {latency} exceeds budget {request.vl(i).budget_ms}"))
        total_path_latency += latency

    for lid, load in sorted(bw_load.items()):
        link = psn.links[lid]
        if load > link.bw_residual:
            violations.append((4, f"link {lid}: bandwidth demand {load} exceeds free {link.bw_residual}"))

    root = assigned.get(1)
    if root is not None:
        alpha = psn.access_latency(request.uap, psn.nodes[root].dc)
        if alpha > request.alpha_max_ms + LATENCY_EPS:
            violations.append((9, f"access latency {alpha} exceeds bound {request.alpha_max_ms}"))
        if alpha + total_path_latency > request.e2e_budget_ms + LATENCY_EPS:
            violations.append((10, f"end-to-end latency {alpha + total_path_latency} "
                                   f"exceeds budget {request.e2e_budget_ms}"))

    return Verdict(ok=not violations, violations=violations)


def bandwidth_cost(request: SliceRequest, placement: Placement) -> float:
    """Held substrate bandwidth: sum over VLs of path length times demand."""
    return sum(len(placement.y.get(i, [])) * request.vl(i).bw
               for i in range(1, request.n_vnfs))


def min_cost_path(psn: PhysicalNetwork, src: int, dst: int, bw: float,
                  budget_ms: float) -> list[int] | None:
    """Feasible low-cost path between two nodes, as link ids.

    Only links with tracked residual bandwidth >= bw participate. First takes
    the minimum-hop path (ties broken toward lower node ids); if its latency
    fits the budget it wins, since cost scales with hop count. Otherwise falls
    back to the minimum-latency path, which exists within the budget or not at
    all, so the result is None exactly when no feasible path exists. src ==
    dst yields the empty path.
    """
    if src == dst:
        return [] if budget_ms >= -LATENCY_EPS else None

    def usable(lid: int) -> bool:
        r = psn.links[lid].bw_residual
        return r is not None and r >= bw

    def unwind(par: dict[int, tuple[int, int]], node: int) -> list[int]:
        path = []
        while node != src:
            node, lid = par[node]
            path.append(lid)
        path.reverse()
        return path

    # a leaf dst is entered only over its one link, so the search needs to
    # reach only the node across it; a leaf relays nothing, so the BFS
    # expands relay entries alone
    target, last_hop = dst, []
    if len(psn.adj[dst]) == 1:
        target, lid = psn.adj[dst][0]
        if not usable(lid):
            return None
        last_hop = [lid]

    # minimum hops, BFS with ascending-id expansion
    parent: dict[int, tuple[int, int]] = {src: (-1, -1)}
    level = [src] if target != src else []
    found = target == src
    relay_adj = psn.index().relay_adj
    while level and not found:
        nxt_level = []
        for u in sorted(level):
            for v, lid in relay_adj[u]:
                if v not in parent and usable(lid):
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

    hop_path = unwind(parent, target) + last_hop
    if sum(psn.links[lid].latency_ms for lid in hop_path) <= budget_ms + LATENCY_EPS:
        return hop_path

    # minimum latency, Dijkstra pruned at the budget
    dist = {src: 0.0}
    par2: dict[int, tuple[int, int]] = {src: (-1, -1)}
    pq: list[tuple[float, int]] = [(0.0, src)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist.get(u, float("inf")):
            continue
        if u == dst:
            return unwind(par2, dst)
        for v, lid in psn.adj[u]:
            if not usable(lid):
                continue
            nd = d + psn.links[lid].latency_ms
            if nd > budget_ms + LATENCY_EPS:
                continue
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                par2[v] = (u, lid)
                heapq.heappush(pq, (nd, v))
    return None


def _relay_reach(psn: PhysicalNetwork, src: int, bw: float,
                 limit: float) -> dict[int, float]:
    """Latency-shortest distance from src to every relay node (one with two
    or more links) within `limit`, over links with residual bandwidth >= bw;
    src is always present, at 0.

    The one Dijkstra behind `latency_reach` and `feasible_servers`. A leaf
    relays nothing, so leaves never enter the heap: the cost is one heap
    operation per reached relay node, whatever the number of servers.
    """
    relay_adj = psn.index().relay_adj
    links = psn.links
    dist = {src: 0.0}
    pq: list[tuple[float, int]] = [(0.0, src)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist[u]:
            continue
        for v, lid in relay_adj[u]:
            link = links[lid]
            r = link.bw_residual
            if r is None or r < bw:
                continue
            nd = d + link.latency_ms
            if nd <= limit and nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(pq, (nd, v))
    return dist


def latency_reach(psn: PhysicalNetwork, src: int, bw: float,
                  budget_ms: float) -> dict[int, float]:
    """Latency-shortest distance from src to every node within budget, over
    links with residual bandwidth >= bw. Nodes beyond the budget are absent.

    `_relay_reach` finds the relay nodes; a leaf (a server behind its
    switch, a UAP) is then recorded through its one link from the reached
    node across it, with one dict write per reached leaf.
    """
    limit = budget_ms + LATENCY_EPS
    dist = _relay_reach(psn, src, bw, limit)
    leaf_adj = psn.index().leaf_adj
    links = psn.links
    for u, d in list(dist.items()):
        for v, lid in leaf_adj[u]:
            link = links[lid]
            r = link.bw_residual
            if r is None or r < bw or v in dist:
                continue
            nd = d + link.latency_ms
            if nd <= limit:
                dist[v] = nd
    return dist


def _has_uplink(psn: PhysicalNetwork, server_id: int, bw: float) -> bool:
    for _, lid in psn.adj[server_id]:
        r = psn.links[lid].bw_residual
        if r is not None and r >= bw:
            return True
    return False


def root_dcs(psn: PhysicalNetwork, request: SliceRequest) -> set[str]:
    """Data centers that may host the first VNF: access latency from the
    request's UAP within the class bound."""
    return {dc_id for dc_id in psn.data_centers
            if psn.access_latency(request.uap, dc_id) <= request.alpha_max_ms + LATENCY_EPS}


def lookahead_ok(psn: PhysicalNetwork, request: SliceRequest,
                 v: int) -> Callable[[Server], bool]:
    """Predicate for hosting VNF v: room for it plus, before the final VNF,
    room for VNF v+1 too or an incident link that can carry VL v."""
    d = request.vnf(v)
    if v == request.n_vnfs:
        return lambda srv: srv.fits(d.cpu, d.ram)
    d_next = request.vnf(v + 1)
    cpu_both, ram_both = d.cpu + d_next.cpu, d.ram + d_next.ram
    bw_next = request.vl(v).bw
    return lambda srv: (srv.fits(cpu_both, ram_both)
                        or (srv.fits(d.cpu, d.ram) and _has_uplink(psn, srv.id, bw_next)))


def _lookahead_mask(psn: PhysicalNetwork, request: SliceRequest, v: int,
                    fits: np.ndarray) -> np.ndarray:
    """`lookahead_ok` for every server at once, by server position; `fits`
    is the mask of servers with room for VNF v."""
    if v == request.n_vnfs:
        return fits
    vec = psn.vectors()
    d, d_next = request.vnf(v), request.vnf(v + 1)
    bw_next = request.vl(v).bw
    uplink = vec.bw[vec.up_link] >= bw_next
    for p in vec.multi:
        uplink[p] = _has_uplink(psn, int(vec.id[p]), bw_next)
    return (((vec.cpu >= d.cpu + d_next.cpu) & (vec.ram >= d.ram + d_next.ram))
            | (fits & uplink))


def _root_mask(psn: PhysicalNetwork, request: SliceRequest) -> np.ndarray:
    """Servers of `root_dcs`, by server position; cached per (UAP, bound)."""
    vec = psn.vectors()
    key = (request.uap, request.alpha_max_ms)
    mask = vec.root_masks.get(key)
    if mask is None:
        mask = np.isin(vec.dc, [vec.dc_index[dc_id] for dc_id in root_dcs(psn, request)])
        mask.flags.writeable = False
        vec.root_masks[key] = mask
    return mask


def feasible_servers(psn: PhysicalNetwork, request: SliceRequest, v: int,
                     last_s: int | None, *, used_e2e_ms: float = 0.0) -> list[int]:
    """Servers eligible to host VNF v, ascending by id.

    For the first VNF: servers in `root_dcs` that pass `lookahead_ok`.

    For later VNFs, eligibility needs a feasible path for VL(v-1, v) from
    last_s within min(VL budget, end-to-end slack). The previous server and
    its DC neighbors additionally pass `lookahead_ok`; servers in other DCs
    only need room for the VNF.

    `used_e2e_ms` is the latency already committed (access plus placed VLs).

    Cost: O(relay nodes) in Python plus O(servers) in C. `_relay_reach`
    runs over the relay nodes only (switches, routers; no server of the
    reference substrate); then a few compares over `psn.vectors()` decide
    every server at once: a server with one link is reached when the node
    across it is, within the budget, and the link carries the VL; one with
    more links is a relay itself. The result equals an all-server scan of
    the rule, list and order alike.
    """
    n = request.n_vnfs
    if not 1 <= v <= n:
        raise ValueError(f"VNF index {v} outside chain 1..{n}")
    vec = psn.vectors()
    d_v = request.vnf(v)
    fits = (vec.cpu >= d_v.cpu) & (vec.ram >= d_v.ram)

    if v == 1:
        return vec.id[_root_mask(psn, request) & _lookahead_mask(psn, request, 1, fits)].tolist()

    if last_s is None:
        raise ValueError("last_s is required for VNFs beyond the first")
    vl = request.vl(v - 1)
    slack = request.e2e_budget_ms - used_e2e_ms
    limit = min(vl.budget_ms, slack) + LATENCY_EPS
    relay = _relay_reach(psn, last_s, vl.bw, limit)
    # by node id plus a last slot for servers without exactly one link; NaN
    # where unreached, so no comparison holds there
    dist = np.full(len(psn.nodes) + 1, np.nan)
    dist[list(relay)] = list(relay.values())
    reached = (dist[vec.up_nbr] + vec.up_lat <= limit) & (vec.bw[vec.up_link] >= vl.bw)
    # a server with several links is a relay itself; last_s is always reached
    for p in vec.multi:
        reached[p] = int(vec.id[p]) in relay
    if vec.pos[last_s] >= 0:
        reached[vec.pos[last_s]] = True
    ok = fits
    if v < n:
        # only last_s's own DC applies the lookahead
        other_dc = vec.dc != vec.dc_index.get(psn.nodes[last_s].dc, -1)
        ok = (fits & other_dc) | (_lookahead_mask(psn, request, v, fits) & ~other_dc)
    return vec.id[reached & ok].tolist()


def apply_placement(psn: PhysicalNetwork, request: SliceRequest,
                    placement: Placement) -> None:
    """Commit a placement's resources. Atomic: on failure nothing is held."""
    mark = psn.begin()
    try:
        for v, s in sorted(placement.x.items()):
            d = request.vnf(v)
            psn.allocate(s, d.cpu, d.ram)
        for i, path in sorted(placement.y.items()):
            bw = request.vl(i).bw
            for lid in path:
                psn.allocate_bw(lid, bw)
    except Exception:
        psn.rollback(mark)
        raise
    psn.commit(mark)


def release_placement(psn: PhysicalNetwork, request: SliceRequest,
                      placement: Placement) -> None:
    """Return a placement's resources (exact inverse of apply_placement)."""
    for v, s in sorted(placement.x.items()):
        d = request.vnf(v)
        psn.release(s, d.cpu, d.ram)
    for i, path in sorted(placement.y.items()):
        bw = request.vl(i).bw
        for lid in path:
            psn.release_bw(lid, bw)
