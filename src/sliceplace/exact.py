"""Exact chain placement: optimal and first-feasible baselines.

Both solvers run a depth-first branch-and-bound over chain-order VNF-to-server
assignments, branching over exhaustively enumerated feasible simple paths per
virtual link. `solve_ilp1` minimizes the bandwidth objective; the feasibility
baseline `solve_ilp2` stops at the first complete placement. Determinism
comes from fixed candidate and path orderings.

Eligibility shares `placement.root_dcs` and `lookahead_ok` with P2C. Each
search frame holds its VNF and path in a substrate transaction it rolls back.

Searches carry an explored-node budget. A tripped budget (or a truncated path
enumeration) is reported as BUDGET_EXCEEDED, never as a silently suboptimal
OPTIMAL; any best-known placement found by then is still returned.

`brute_force` is an independent oracle for tiny instances built on simple-path
enumeration via networkx plus direct constraint tallies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import networkx as nx

from .nspr import SliceRequest
from .placement import (LATENCY_EPS, Placement, bandwidth_cost, latency_reach,
                        lookahead_ok, root_dcs)
from .topology import PhysicalNetwork, Server

DEFAULT_NODE_BUDGET = 200_000


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    BUDGET_EXCEEDED = "budget_exceeded"


class InstanceTooLargeError(ValueError):
    """Brute-force oracle refused an instance beyond its guard rails."""


@dataclass
class SolveResult:
    status: SolveStatus
    placement: Placement | None
    objective: float | None
    nodes_explored: int
    # deepest VNF index that was ever successfully committed (0 = none)
    deepest_feasible_vnf: int

    def to_json(self, psn: PhysicalNetwork) -> dict:
        return {
            "status": self.status.value,
            "placement": None if self.placement is None else self.placement.to_json(psn),
            "objective": self.objective,
            "nodes_explored": self.nodes_explored,
            "deepest_feasible_vnf": self.deepest_feasible_vnf,
        }


class _BudgetExhausted(Exception):
    pass


class _FoundFeasible(Exception):
    pass


def _path_cost(psn: PhysicalNetwork, path: tuple[int, ...], d_bw: float,
               objective: str) -> float:
    if objective == "consumption":
        return len(path) * d_bw
    return sum(psn.links[lid].bw_capacity for lid in path)


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
           objective: str, max_nodes: int | None,
           max_paths_per_vl: int | None) -> SolveResult:
    if objective not in ("consumption", "capacity"):
        raise ValueError(f"unknown objective {objective!r}")
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
        else:
            cands.sort(key=lambda t: t[1])
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
                cost_p = 0.0 if v == 1 else _path_cost(psn, path, request.vl(v - 1).bw, objective)
                if best_cost is not None and committed + cost_p >= best_cost:
                    if objective == "consumption" and v > 1:
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
               objective: str = "consumption",
               max_nodes: int | None = DEFAULT_NODE_BUDGET,
               max_paths_per_vl: int | None = None) -> SolveResult:
    """Minimum-bandwidth placement of the whole chain.

    The default objective charges each virtual link its demand times path
    length; objective="capacity" charges the capacity of every link used
    instead. The substrate is left untouched; callers apply the returned
    placement explicitly.
    """
    return _solve(psn, request, find_optimal=True, objective=objective,
                  max_nodes=max_nodes, max_paths_per_vl=max_paths_per_vl)


def solve_ilp2(psn: PhysicalNetwork, request: SliceRequest, *,
               max_nodes: int | None = DEFAULT_NODE_BUDGET,
               max_paths_per_vl: int | None = None) -> SolveResult:
    """First complete feasible placement in ascending-server-id order,
    realizing the accept-whenever-possible baseline. OPTIMAL here just means
    a feasible placement was found."""
    return _solve(psn, request, find_optimal=False, objective="consumption",
                  max_nodes=max_nodes, max_paths_per_vl=max_paths_per_vl)


def brute_force(psn: PhysicalNetwork, request: SliceRequest, *,
                objective: str = "consumption",
                max_servers: int = 8, max_vnfs: int = 3) -> SolveResult:
    """Exhaustive oracle: every VNF-to-server assignment crossed with every
    simple-path combination, checked by direct constraint tallies. Guarded to
    tiny instances; raises InstanceTooLargeError beyond the guard."""
    if objective not in ("consumption", "capacity"):
        raise ValueError(f"unknown objective {objective!r}")
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
                cost += _path_cost(psn, path, d_bw, objective)
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


def export_lp(psn: PhysicalNetwork, request: SliceRequest, *,
              objective: str = "consumption") -> str:
    """Emit the placement model in CPLEX LP text form for external solvers.

    Arc-flow encoding: x_v_s picks a server per VNF, f_i_a_b routes VL i over
    directed link copies. Root variables exist only for servers whose DC meets
    the access bound. Flow conservation permits isolated cycles, which the
    minimization prunes; feasibility checks of exported models should add
    their own cycle handling if they need path-pure solutions.
    """
    if objective not in ("consumption", "capacity"):
        raise ValueError(f"unknown objective {objective!r}")
    n = request.n_vnfs
    servers = sorted(s.id for s in psn.servers())
    alpha_by_dc = {dc_id: psn.access_latency(request.uap, dc_id)
                   for dc_id in psn.data_centers}
    root_ok = [s for s in servers
               if alpha_by_dc[psn.nodes[s].dc] <= request.alpha_max_ms + LATENCY_EPS]
    tracked = [l for l in psn.links if l.bw_residual is not None]

    def xv(v: int, s: int) -> str:
        return f"x_{v}_{s}"

    def fv(i: int, a: int, b: int) -> str:
        return f"f_{i}_{a}_{b}"

    lines = ["\\ slice chain placement, arc-flow form", "Minimize"]
    terms = []
    for i in range(1, n):
        for l in tracked:
            w = request.vl(i).bw if objective == "consumption" else l.bw_capacity
            terms.append(f"{w:g} {fv(i, l.a, l.b)} + {w:g} {fv(i, l.b, l.a)}")
    lines.append(" obj: " + (" + ".join(terms) if terms else "0 x_dummy"))
    lines.append("Subject To")

    def hosts(v: int) -> list[int]:
        return root_ok if v == 1 else servers

    for v in range(1, n + 1):
        lines.append(f" assign_{v}: " + " + ".join(xv(v, s) for s in hosts(v)) + " = 1")
    for s in servers:
        cpu_terms = [f"{request.vnf(v).cpu:g} {xv(v, s)}" for v in range(1, n + 1) if s in hosts(v)]
        ram_terms = [f"{request.vnf(v).ram:g} {xv(v, s)}" for v in range(1, n + 1) if s in hosts(v)]
        if cpu_terms:
            lines.append(f" cpu_{s}: " + " + ".join(cpu_terms) + f" <= {psn.server(s).cpu_residual:g}")
            lines.append(f" ram_{s}: " + " + ".join(ram_terms) + f" <= {psn.server(s).ram_residual:g}")
    for l in tracked:
        terms = []
        for i in range(1, n):
            d = request.vl(i).bw
            terms.append(f"{d:g} {fv(i, l.a, l.b)} + {d:g} {fv(i, l.b, l.a)}")
        lines.append(f" bw_{l.id}: " + " + ".join(terms) + f" <= {l.bw_residual:g}")
    for i in range(1, n):
        for node in psn.nodes:
            inc = [(l.a, l.b) for l in tracked if node.id in (l.a, l.b)]
            if not inc:
                continue
            outs = " + ".join(fv(i, node.id, (b if a == node.id else a)) for a, b in inc)
            ins = " - ".join(fv(i, (b if a == node.id else a), node.id) for a, b in inc)
            flow = f"{outs} - {ins}"
            if isinstance(psn.nodes[node.id], Server):
                s = node.id
                rhs_terms = []
                if s in hosts(i):
                    rhs_terms.append(f"- {xv(i, s)}")
                if s in hosts(i + 1):
                    rhs_terms.append(f"+ {xv(i + 1, s)}")
                lines.append(f" flow_{i}_{s}: {flow} " + " ".join(rhs_terms) + " = 0")
            else:
                lines.append(f" flow_{i}_{node.id}: {flow} = 0")
        for l in tracked:
            lines.append(f" simple_{i}_{l.id}: {fv(i, l.a, l.b)} + {fv(i, l.b, l.a)} <= 1")
        lat_terms = [f"{l.latency_ms:g} {fv(i, l.a, l.b)} + {l.latency_ms:g} {fv(i, l.b, l.a)}"
                     for l in tracked if l.latency_ms > 0]
        if lat_terms:
            lines.append(f" vl_lat_{i}: " + " + ".join(lat_terms)
                         + f" <= {request.vl(i).budget_ms:g}")
    e2e_terms = [f"{l.latency_ms:g} {fv(i, l.a, l.b)} + {l.latency_ms:g} {fv(i, l.b, l.a)}"
                 for i in range(1, n) for l in tracked if l.latency_ms > 0]
    e2e_terms += [f"{alpha_by_dc[psn.nodes[s].dc]:g} {xv(1, s)}"
                  for s in root_ok if alpha_by_dc[psn.nodes[s].dc] > 0]
    if e2e_terms:
        lines.append(" e2e: " + " + ".join(e2e_terms) + f" <= {request.e2e_budget_ms:g}")

    lines.append("Binaries")
    binaries = [xv(v, s) for v in range(1, n + 1) for s in hosts(v)]
    binaries += [fv(i, l.a, l.b) for i in range(1, n) for l in tracked]
    binaries += [fv(i, l.b, l.a) for i in range(1, n) for l in tracked]
    if not terms:
        binaries.append("x_dummy")
    for chunk in range(0, len(binaries), 8):
        lines.append(" " + " ".join(binaries[chunk:chunk + 8]))
    lines.append("End")
    return "\n".join(lines) + "\n"
