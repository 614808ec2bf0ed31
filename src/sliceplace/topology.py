"""Physical substrate network: typed nodes, capacitated links, data centers.

The substrate is an undirected multigraph-free graph of user access points,
switches, routers and servers. Servers track CPU/RAM residuals, links track
bandwidth residuals plus a fixed latency. Data centers group servers behind a
single switch in three tiers (EDC, CDC, CCP) wired as a star; intra-DC links
have zero latency, transport links derive latency from fiber length.

Units: latency in milliseconds, bandwidth in Gbps, CPU in abstract units,
RAM in GB, distances in km.
"""

from __future__ import annotations

import heapq
import json
import uuid
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping, NamedTuple

import numpy as np


class NodeKind(str, Enum):
    UAP = "uap"
    ROUTER = "router"
    SWITCH = "switch"
    SERVER = "server"


class DCKind(str, Enum):
    EDC = "EDC"
    CDC = "CDC"
    CCP = "CCP"


# Tiers from the center outward; a tier's rank is its position here.
TIER_ORDER = (DCKind.CCP, DCKind.CDC, DCKind.EDC)


class LinkKind(str, Enum):
    ACCESS = "access"
    TRANSPORT = "transport"
    INTRA_DC = "intra_dc"


class TopologyError(ValueError):
    """Structural problem: bad parameters, malformed file, foreign snapshot."""


class CapacityError(ValueError):
    """Allocation exceeds a residual capacity."""


class ReleaseError(ValueError):
    """Release would push a residual above its capacity."""


@dataclass
class Node:
    id: int
    label: str
    kind: NodeKind
    dc: str | None = None


@dataclass
class Server(Node):
    cpu_capacity: float = 0.0
    ram_capacity: float = 0.0
    cpu_residual: float = 0.0
    ram_residual: float = 0.0

    def fits(self, cpu: float, ram: float) -> bool:
        return self.cpu_residual >= cpu and self.ram_residual >= ram


@dataclass
class PhysicalLink:
    id: int
    a: int
    b: int
    latency_ms: float
    kind: LinkKind
    # None means the link carries no bandwidth accounting (access links).
    bw_capacity: float | None = None
    bw_residual: float | None = None

    def other(self, node_id: int) -> int:
        if node_id == self.a:
            return self.b
        if node_id == self.b:
            return self.a
        raise TopologyError(f"node {node_id} is not an endpoint of link {self.id}")


@dataclass
class DataCenter:
    id: str
    kind: DCKind
    switch: int
    servers: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class TopologyParams:
    """Knobs for the reference substrate generator.

    `scale` multiplies per-DC server counts only; the DC/transport skeleton is
    fixed. Latency of a transport link is km / propagation, rounded to
    `latency_round_decimals` (None disables rounding).
    """

    scale: int = 1
    ccp_count: int = 1
    cdc_count: int = 5
    edc_count: int = 15
    servers_per_ccp: int = 16
    servers_per_cdc: int = 10
    servers_per_edc: int = 4
    server_cpu: float = 50.0
    server_ram: float = 300.0
    ccp_bw_gbps: float = 100.0
    cdc_bw_gbps: float = 100.0
    edc_bw_gbps: float = 10.0
    cdc_edc_km: float = 100.0
    cdc_ccp_km: float = 300.0
    cdc_cdc_km: float = 300.0
    propagation_mps: float = 3.0e8
    latency_round_decimals: int | None = 2
    access_latency_ms: float = 0.02

    def validate(self) -> None:
        if self.scale < 1:
            raise TopologyError(f"scale must be >= 1, got {self.scale}")
        for name in ("ccp_count", "cdc_count", "edc_count", "servers_per_ccp",
                     "servers_per_cdc", "servers_per_edc"):
            if getattr(self, name) < 1:
                raise TopologyError(f"{name} must be >= 1")
        for name in ("server_cpu", "server_ram", "ccp_bw_gbps", "cdc_bw_gbps",
                     "edc_bw_gbps", "propagation_mps"):
            if getattr(self, name) <= 0:
                raise TopologyError(f"{name} must be positive")
        for name in ("cdc_edc_km", "cdc_ccp_km", "cdc_cdc_km", "access_latency_ms"):
            if getattr(self, name) < 0:
                raise TopologyError(f"{name} must be non-negative")
        if self.edc_count % self.cdc_count != 0:
            raise TopologyError("edc_count must be a multiple of cdc_count")

    def link_latency_ms(self, km: float) -> float:
        ms = km * 1e3 / self.propagation_mps * 1e3
        if self.latency_round_decimals is not None:
            ms = round(ms, self.latency_round_decimals)
        return ms

    def tier_bw(self, kind: DCKind) -> float:
        return {DCKind.CCP: self.ccp_bw_gbps,
                DCKind.CDC: self.cdc_bw_gbps,
                DCKind.EDC: self.edc_bw_gbps}[kind]


class StructureIndex(NamedTuple):
    """Read-only lookups derived from a network's nodes, data centers and
    links; residuals are not part of it. Node and adjacency entries are in
    id order."""

    servers: tuple[Server, ...]
    # node id -> tier of its data center (None outside any DC)
    tier: tuple[DCKind | None, ...]
    # node id -> its `adj` entries sorted by (neighbor id, link id)
    adj_sorted: tuple[tuple[tuple[int, int], ...], ...]
    # the same without entries whose neighbor has degree 1 (a leaf relays nothing)
    relay_adj: tuple[tuple[tuple[int, int], ...], ...]
    # the entries left out of relay_adj
    leaf_adj: tuple[tuple[tuple[int, int], ...], ...]


class Vectors(NamedTuple):
    """numpy mirrors of every residual plus static per-server fields.

    Servers are indexed by position, their rank in `servers()`. The
    residual arrays belong to one network; the static fields are shared
    with its clones."""

    # residuals: CPU and RAM by server position, bandwidth by link id plus
    # one trailing slot; NaN marks a link without bandwidth accounting and
    # fills the trailing slot, so no comparison holds there
    cpu: np.ndarray
    ram: np.ndarray
    bw: np.ndarray
    # node id -> server position, -1 for other nodes
    pos: tuple[int, ...]
    # node id -> rank of its DC's tier in TIER_ORDER, len(TIER_ORDER) outside any DC
    tier_rank: tuple[int, ...]
    # data center id -> index in `data_centers` order
    dc_index: dict[str, int]
    # by server position: node id, DC index (-1 for none), and for a server
    # with exactly one link that link's id, the neighbor across it and its
    # latency; any other server has the trailing bandwidth slot, the
    # neighbor len(nodes) and latency 0
    id: np.ndarray
    dc: np.ndarray
    up_link: np.ndarray
    up_nbr: np.ndarray
    up_lat: np.ndarray
    # positions of servers with two or more links
    multi: tuple[int, ...]
    # cache for eligibility: (UAP, access bound) -> mask of root-DC servers
    root_masks: dict[tuple[int, float], np.ndarray]


@dataclass(frozen=True)
class CapacitySnapshot:
    """Immutable copy of every residual, bound to one network instance."""

    token: str
    server_cpu: tuple[float, ...]
    server_ram: tuple[float, ...]
    link_bw: tuple[float | None, ...]


class PhysicalNetwork:
    """Substrate graph with residual-capacity bookkeeping.

    Nodes and links get dense integer ids in creation order; deterministic
    tie-breaking elsewhere keys on those ids. Residuals change only through
    allocate/release calls; inside a (nestable) transaction, `mark = begin()`
    then `commit(mark)` or `rollback(mark)`, they log old residuals that a
    rollback writes back exactly. `snapshot`/`restore` copy every residual.

    `index()` returns a `StructureIndex` built once per structure: the
    server list that `servers()` and every full scan read, each node's DC
    tier and sorted adjacency (in full and without leaf neighbors).
    `add_node`, `add_server`, `add_data_center` and `add_link` drop it;
    capacity changes keep it. A clone shares the parent's tiers and sorted
    adjacency (immutable) but lists its own `Server` objects, so residuals
    it allocates never show in the parent's `servers()`.

    A data center's `servers` lists its servers in id order: `add_server`
    appends to it and `validate` (run by `from_json`) checks it.

    `vectors()` returns `Vectors`: numpy float64 copies of every residual
    (CPU and RAM by server position, bandwidth by link id) next to static
    per-server fields, so that eligibility tests every server in a few
    array compares. They are built on first use after a structural change
    (never by the constructor or `build_reference_psn`), and from then on
    written only where residuals change: `_set` (every allocate and
    release), `rollback` and `restore`; `clone` copies them, building them
    on the source first, so that clones never rebuild them. The
    `Server`/`PhysicalLink` residual attributes stay the scalar source that
    the checker and the exact search read, because an attribute read costs
    a fraction of a numpy scalar index and the exact search reads link
    residuals millions of times per run. `vector_drift()` reports where the
    two disagree.
    """

    def __init__(self, params: TopologyParams | None = None) -> None:
        self.params = params
        self.nodes: list[Node] = []
        self.links: list[PhysicalLink] = []
        self.data_centers: dict[str, DataCenter] = {}
        self.uaps: list[int] = []
        # node id -> [(neighbor id, link id)], insertion order
        self.adj: list[list[tuple[int, int]]] = []
        self._token = uuid.uuid4().hex
        self._alpha_cache: dict[int, dict[str, float]] = {}
        # (server or link, attribute, old value); log length at each open begin
        self._undo: list[tuple[Server | PhysicalLink, str, float]] = []
        self._marks: list[int] = []
        self._index: StructureIndex | None = None
        self._vectors: Vectors | None = None

    # -- construction ------------------------------------------------------

    def _append(self, node: Node) -> None:
        self.nodes.append(node)
        self.adj.append([])
        self._index = None
        self._vectors = None

    def add_node(self, label: str, kind: NodeKind, dc: str | None = None) -> int:
        if kind is NodeKind.SERVER:
            raise TopologyError("use add_server for servers")
        node = Node(id=len(self.nodes), label=label, kind=kind, dc=dc)
        self._append(node)
        return node.id

    def add_server(self, label: str, dc: str, cpu: float, ram: float) -> int:
        if cpu < 0 or ram < 0:
            raise TopologyError("server capacities must be non-negative")
        if dc not in self.data_centers:
            raise TopologyError(f"unknown data center {dc!r}")
        node = Server(id=len(self.nodes), label=label, kind=NodeKind.SERVER, dc=dc,
                      cpu_capacity=cpu, ram_capacity=ram,
                      cpu_residual=cpu, ram_residual=ram)
        self._append(node)
        self.data_centers[dc].servers.append(node.id)
        return node.id

    def add_data_center(self, dc_id: str, kind: DCKind, switch_label: str | None = None) -> DataCenter:
        if dc_id in self.data_centers:
            raise TopologyError(f"duplicate data center id {dc_id!r}")
        switch = self.add_node(switch_label or f"{dc_id}-sw", NodeKind.SWITCH, dc=dc_id)
        dc = DataCenter(id=dc_id, kind=kind, switch=switch)
        self.data_centers[dc_id] = dc
        self._index = None
        return dc

    def add_link(self, a: int, b: int, latency_ms: float, kind: LinkKind,
                 bw_capacity: float | None) -> int:
        for n in (a, b):
            if not 0 <= n < len(self.nodes):
                raise TopologyError(f"unknown node id {n}")
        if a == b:
            raise TopologyError("self links are not allowed")
        if not latency_ms >= 0:
            raise TopologyError("latency must be non-negative")
        if kind is LinkKind.INTRA_DC and latency_ms != 0:
            raise TopologyError("intra-DC links must have zero latency")
        if bw_capacity is not None and bw_capacity < 0:
            raise TopologyError("bandwidth capacity must be non-negative")
        link = PhysicalLink(id=len(self.links), a=a, b=b, latency_ms=latency_ms,
                            kind=kind, bw_capacity=bw_capacity, bw_residual=bw_capacity)
        self.links.append(link)
        self.adj[a].append((b, link.id))
        self.adj[b].append((a, link.id))
        self._alpha_cache.clear()
        self._index = None
        self._vectors = None
        return link.id

    # -- lookups -----------------------------------------------------------

    def server(self, node_id: int) -> Server:
        node = self.nodes[node_id]
        if not isinstance(node, Server):
            raise TopologyError(f"node {node_id} is not a server")
        return node

    def link(self, link_id: int) -> PhysicalLink:
        if not 0 <= link_id < len(self.links):
            raise TopologyError(f"unknown link id {link_id}")
        return self.links[link_id]

    def link_between(self, a: int, b: int) -> PhysicalLink | None:
        for nbr, lid in self.adj[a]:
            if nbr == b:
                return self.links[lid]
        return None

    def index(self) -> StructureIndex:
        """The structure index, built on first use after a structural change."""
        if self._index is None:
            servers = tuple([n for n in self.nodes if isinstance(n, Server)])
            kind = {dc_id: dc.kind for dc_id, dc in self.data_centers.items()}
            adj_sorted = tuple(map(tuple, map(sorted, self.adj)))
            relays = [len(entries) > 1 for entries in self.adj]
            self._index = StructureIndex(
                servers=servers,
                tier=tuple([kind.get(n.dc) for n in self.nodes]),
                adj_sorted=adj_sorted,
                # a lone entry to a relay (a server's switch) is reused, not copied
                relay_adj=tuple([
                    entries if len(entries) == 1 and relays[entries[0][0]]
                    else tuple([e for e in entries if relays[e[0]]])
                    for entries in adj_sorted]),
                leaf_adj=tuple([tuple([e for e in entries if not relays[e[0]]])
                                for entries in adj_sorted]))
        return self._index

    def vectors(self) -> Vectors:
        """The residual vectors and static server fields, built on first use
        after a structural change."""
        if self._vectors is None:
            idx = self.index()
            n_nodes, n_links = len(self.nodes), len(self.links)
            pos = [-1] * n_nodes
            up: list[tuple[int, int, float]] = []
            multi = []
            for p, s in enumerate(idx.servers):
                pos[s.id] = p
                entries = self.adj[s.id]
                if len(entries) == 1:
                    nbr, lid = entries[0]
                    up.append((lid, nbr, self.links[lid].latency_ms))
                else:
                    up.append((n_links, n_nodes, 0.0))
                    if entries:
                        multi.append(p)
            rank = {kind: r for r, kind in enumerate(TIER_ORDER)}
            dc_index = {dc_id: i for i, dc_id in enumerate(self.data_centers)}
            up_link, up_nbr, up_lat = zip(*up) if up else ((), (), ())
            self._vectors = Vectors(
                *self._residual_arrays(),
                pos=tuple(pos),
                tier_rank=tuple([rank.get(t, len(TIER_ORDER)) for t in idx.tier]),
                dc_index=dc_index,
                id=np.array([s.id for s in idx.servers], dtype=np.intp),
                dc=np.array([dc_index.get(s.dc, -1) for s in idx.servers], dtype=np.intp),
                up_link=np.array(up_link, dtype=np.intp),
                up_nbr=np.array(up_nbr, dtype=np.intp),
                up_lat=np.array(up_lat, dtype=float),
                multi=tuple(multi),
                root_masks={})
        return self._vectors

    def _residual_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        servers = self.servers()
        return (np.array([s.cpu_residual for s in servers], dtype=float),
                np.array([s.ram_residual for s in servers], dtype=float),
                # None (no accounting) and the trailing slot become NaN
                np.array([l.bw_residual for l in self.links] + [None], dtype=float))

    def vector_drift(self) -> str | None:
        """None when the residual vectors are unbuilt or equal every residual
        attribute exactly; otherwise where they first differ."""
        vec = self._vectors
        if vec is None:
            return None
        for name, have, want in zip(("cpu", "ram", "bw"), (vec.cpu, vec.ram, vec.bw),
                                    self._residual_arrays()):
            same = (have == want) | (np.isnan(have) & np.isnan(want))
            if not same.all():
                i = int(np.argmin(same))
                where = f"link {i}" if name == "bw" else f"server {int(vec.id[i])}"
                return f"{where}: {name} vector holds {have[i]}, residual is {want[i]}"
        return None

    def servers(self) -> tuple[Server, ...]:
        """Every server, ascending by id."""
        return self.index().servers

    def server_ids(self) -> list[int]:
        return [s.id for s in self.servers()]

    def dc_of(self, node_id: int) -> DataCenter | None:
        dc_id = self.nodes[node_id].dc
        return self.data_centers[dc_id] if dc_id is not None else None

    def tier_of_server(self, server_id: int) -> DCKind:
        tier = self.index().tier[server_id]
        if tier is None:
            raise TopologyError(f"server {server_id} belongs to no data center")
        return tier

    def total_cpu_capacity(self) -> float:
        return sum(s.cpu_capacity for s in self.servers())

    def total_ram_capacity(self) -> float:
        return sum(s.ram_capacity for s in self.servers())

    # -- capacity bookkeeping ----------------------------------------------

    def _set(self, obj: Server | PhysicalLink, attr: str, value: float) -> None:
        if self._marks:
            self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)
        if self._vectors is not None:
            self._mirror(obj, attr, value)

    def _mirror(self, obj: Server | PhysicalLink, attr: str, value: float) -> None:
        vec = self._vectors
        if attr == "bw_residual":
            vec.bw[obj.id] = value
        elif attr == "cpu_residual":
            vec.cpu[vec.pos[obj.id]] = value
        else:
            vec.ram[vec.pos[obj.id]] = value

    def allocate(self, server_id: int, cpu: float, ram: float) -> None:
        if cpu < 0 or ram < 0:
            raise ValueError("demands must be non-negative")
        s = self.server(server_id)
        if s.cpu_residual < cpu or s.ram_residual < ram:
            raise CapacityError(
                f"server {server_id}: need {cpu}/{ram}, "
                f"free {s.cpu_residual}/{s.ram_residual}")
        self._set(s, "cpu_residual", s.cpu_residual - cpu)
        self._set(s, "ram_residual", s.ram_residual - ram)

    def release(self, server_id: int, cpu: float, ram: float) -> None:
        if cpu < 0 or ram < 0:
            raise ValueError("demands must be non-negative")
        s = self.server(server_id)
        if s.cpu_residual + cpu > s.cpu_capacity or s.ram_residual + ram > s.ram_capacity:
            raise ReleaseError(f"server {server_id}: release exceeds capacity")
        self._set(s, "cpu_residual", s.cpu_residual + cpu)
        self._set(s, "ram_residual", s.ram_residual + ram)

    def allocate_bw(self, link_id: int, bw: float) -> None:
        if bw < 0:
            raise ValueError("bandwidth demand must be non-negative")
        link = self.link(link_id)
        if link.bw_residual is None:
            raise TopologyError(f"link {link_id} carries no bandwidth accounting")
        if link.bw_residual < bw:
            raise CapacityError(
                f"link {link_id}: need {bw}, free {link.bw_residual}")
        self._set(link, "bw_residual", link.bw_residual - bw)

    def release_bw(self, link_id: int, bw: float) -> None:
        if bw < 0:
            raise ValueError("bandwidth demand must be non-negative")
        link = self.link(link_id)
        if link.bw_residual is None:
            raise TopologyError(f"link {link_id} carries no bandwidth accounting")
        if link.bw_residual + bw > link.bw_capacity:
            raise ReleaseError(f"link {link_id}: release exceeds capacity")
        self._set(link, "bw_residual", link.bw_residual + bw)

    def begin(self) -> int:
        """Open a transaction; returns the mark that closes it."""
        self._marks.append(len(self._undo))
        return self._marks[-1]

    def _close(self, mark: int) -> None:
        if not self._marks or self._marks.pop() != mark:
            raise TopologyError("transactions must close innermost first")

    def commit(self, mark: int) -> None:
        """Keep the changes since `mark`; an enclosing transaction may undo them."""
        self._close(mark)
        if not self._marks:
            self._undo.clear()

    def rollback(self, mark: int) -> None:
        """Write back the residuals logged since `mark`, newest first."""
        self._close(mark)
        mirrored = self._vectors is not None
        while len(self._undo) > mark:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)
            if mirrored:
                self._mirror(obj, attr, old)

    def snapshot(self) -> CapacitySnapshot:
        servers = self.servers()
        return CapacitySnapshot(
            token=self._token,
            server_cpu=tuple(s.cpu_residual for s in servers),
            server_ram=tuple(s.ram_residual for s in servers),
            link_bw=tuple(l.bw_residual for l in self.links),
        )

    def restore(self, snap: CapacitySnapshot) -> None:
        if snap.token != self._token:
            raise TopologyError("snapshot belongs to a different network instance")
        servers = self.servers()
        if len(snap.server_cpu) != len(servers) or len(snap.link_bw) != len(self.links):
            raise TopologyError("snapshot shape does not match network")
        for s, cpu, ram in zip(servers, snap.server_cpu, snap.server_ram):
            s.cpu_residual = cpu
            s.ram_residual = ram
        for link, bw in zip(self.links, snap.link_bw):
            link.bw_residual = bw
        vec = self._vectors
        if vec is not None:
            vec.cpu[:] = snap.server_cpu
            vec.ram[:] = snap.server_ram
            vec.bw[:-1] = snap.link_bw  # None becomes NaN

    def clone(self) -> "PhysicalNetwork":
        """Deep copy sharing the snapshot token, so snapshots stay portable
        between a network and its clones. It starts with a copy of the
        access-latency cache, which only `add_link` invalidates, and shares
        the immutable parts of the structure index and of the vectors; its
        server list holds its own `Server` objects and its residual vectors
        are its own copies."""
        idx = self.index()
        vec = self.vectors()
        other = PhysicalNetwork(self.params)
        other.nodes = [replace(n) for n in self.nodes]
        other.links = [replace(l) for l in self.links]
        other.data_centers = {
            k: DataCenter(id=d.id, kind=d.kind, switch=d.switch, servers=list(d.servers))
            for k, d in self.data_centers.items()}
        other.uaps = list(self.uaps)
        other.adj = [list(entries) for entries in self.adj]
        other._token = self._token
        other._alpha_cache = dict(self._alpha_cache)
        other._index = idx._replace(servers=tuple([other.nodes[s.id] for s in idx.servers]))
        other._vectors = vec._replace(cpu=vec.cpu.copy(), ram=vec.ram.copy(), bw=vec.bw.copy())
        return other

    # -- access latency ----------------------------------------------------

    def access_latency(self, uap_id: int, dc_id: str) -> float:
        """Latency of the shortest path from a UAP to a DC's switch (ms).

        Uses static link latencies only; bandwidth state does not matter for
        access delay. Cached per UAP. Unreachable DCs report +inf.
        """
        if self.nodes[uap_id].kind is not NodeKind.UAP:
            raise TopologyError(f"node {uap_id} is not a UAP")
        if dc_id not in self.data_centers:
            raise TopologyError(f"unknown data center {dc_id!r}")
        cached = self._alpha_cache.get(uap_id)
        if cached is None:
            dist = [float("inf")] * len(self.nodes)
            dist[uap_id] = 0.0
            pq: list[tuple[float, int]] = [(0.0, uap_id)]
            while pq:
                d, u = heapq.heappop(pq)
                if d > dist[u]:
                    continue
                for v, lid in self.adj[u]:
                    nd = d + self.links[lid].latency_ms
                    if nd < dist[v]:
                        dist[v] = nd
                        heapq.heappush(pq, (nd, v))
            cached = {d.id: dist[d.switch] for d in self.data_centers.values()}
            self._alpha_cache[uap_id] = cached
        return cached[dc_id]

    # -- validation and serialization --------------------------------------

    def validate(self) -> None:
        """Raise TopologyError unless residuals lie within capacities, each
        data center's `servers` lists exactly the servers that name it, in
        id order, no two links join the same pair of nodes, every switch
        and UAP entry names a node of that kind, and the graph is connected."""
        dc_servers: dict[str, list[int]] = {dc_id: [] for dc_id in self.data_centers}
        for s in self.servers():
            if not (0 <= s.cpu_residual <= s.cpu_capacity):
                raise TopologyError(f"server {s.id}: cpu residual out of bounds")
            if not (0 <= s.ram_residual <= s.ram_capacity):
                raise TopologyError(f"server {s.id}: ram residual out of bounds")
            if s.dc not in dc_servers:
                raise TopologyError(f"server {s.id} belongs to no data center")
            dc_servers[s.dc].append(s.id)
        pairs: set[tuple[int, int]] = set()
        for link in self.links:
            if (link.bw_capacity is None) != (link.bw_residual is None):
                raise TopologyError(f"link {link.id}: bandwidth residual and capacity "
                                    f"must both be set or both be absent")
            if link.bw_capacity is not None and not (0 <= link.bw_residual <= link.bw_capacity):
                raise TopologyError(f"link {link.id}: bandwidth residual out of bounds")
            pair = (link.a, link.b) if link.a < link.b else (link.b, link.a)
            if pair in pairs:
                raise TopologyError(f"link {link.id}: nodes {pair[0]} and {pair[1]} "
                                    f"are already linked")
            pairs.add(pair)
        for dc in self.data_centers.values():
            if dc.servers != dc_servers[dc.id]:
                raise TopologyError(f"data center {dc.id} must list its "
                                    f"{len(dc_servers[dc.id])} servers once each, in id order")
        members = [(u, NodeKind.UAP, None) for u in self.uaps]  # (id, kind, DC or any)
        members += [(dc.switch, NodeKind.SWITCH, dc.id) for dc in self.data_centers.values()]
        for nid, kind, dc_id in members:
            node = self.nodes[nid] if isinstance(nid, int) and 0 <= nid < len(self.nodes) else None
            if node is None or node.kind is not kind or dc_id not in (None, node.dc):
                raise TopologyError(f"node {nid} is not a {kind.value} of {dc_id or 'the network'}")
        if self.nodes and not self._connected():
            raise TopologyError("network is not connected")

    def _connected(self) -> bool:
        seen = [False] * len(self.nodes)
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v, _ in self.adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == len(self.nodes)

    def to_json(self) -> dict:
        def node_obj(n: Node) -> dict:
            obj = {"id": n.id, "label": n.label, "kind": n.kind.value, "dc": n.dc}
            if isinstance(n, Server):
                obj.update(cpu_capacity=n.cpu_capacity, ram_capacity=n.ram_capacity,
                           cpu_residual=n.cpu_residual, ram_residual=n.ram_residual)
            return obj

        return {
            "schema": "topology/1",
            "params": None if self.params is None else _params_to_json(self.params),
            "nodes": [node_obj(n) for n in self.nodes],
            "links": [{"id": l.id, "a": l.a, "b": l.b, "latency_ms": l.latency_ms,
                       "kind": l.kind.value, "bw_capacity": l.bw_capacity,
                       "bw_residual": l.bw_residual} for l in self.links],
            "data_centers": [{"id": d.id, "kind": d.kind.value, "switch": d.switch,
                              "servers": d.servers}
                             for d in self.data_centers.values()],
            "uaps": self.uaps,
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "PhysicalNetwork":
        try:
            if obj["schema"] != "topology/1":
                raise TopologyError(f"unsupported schema {obj.get('schema')!r}")
            params = None if obj["params"] is None else _params_from_json(obj["params"])
            net = cls(params)
            for dc_obj in obj["data_centers"]:
                net.data_centers[dc_obj["id"]] = DataCenter(
                    id=dc_obj["id"], kind=DCKind(dc_obj["kind"]),
                    switch=dc_obj["switch"], servers=list(dc_obj["servers"]))
            for i, n in enumerate(obj["nodes"]):
                if n["id"] != i:
                    raise TopologyError("node ids must be dense and ordered")
                kind = NodeKind(n["kind"])
                if kind is NodeKind.SERVER:
                    node: Node = Server(
                        id=i, label=n["label"], kind=kind, dc=n["dc"],
                        cpu_capacity=float(n["cpu_capacity"]),
                        ram_capacity=float(n["ram_capacity"]),
                        cpu_residual=float(n["cpu_residual"]),
                        ram_residual=float(n["ram_residual"]))
                else:
                    node = Node(id=i, label=n["label"], kind=kind, dc=n["dc"])
                net._append(node)
            for i, l in enumerate(obj["links"]):
                if l["id"] != i:
                    raise TopologyError("link ids must be dense and ordered")
                cap = l["bw_capacity"]
                lid = net.add_link(l["a"], l["b"], float(l["latency_ms"]), LinkKind(l["kind"]),
                                   None if cap is None else float(cap))
                net.links[lid].bw_residual = (None if l["bw_residual"] is None
                                              else float(l["bw_residual"]))
            net.uaps = list(obj["uaps"])
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, TopologyError):
                raise
            raise TopologyError(f"malformed topology document: {exc}") from exc
        net.validate()
        return net

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "PhysicalNetwork":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _params_to_json(p: TopologyParams) -> dict:
    return {f: getattr(p, f) for f in TopologyParams.__dataclass_fields__}


def _params_from_json(obj: Mapping) -> TopologyParams:
    known = set(TopologyParams.__dataclass_fields__)
    unknown = set(obj) - known
    if unknown:
        raise TopologyError(f"unknown topology parameters: {sorted(unknown)}")
    return TopologyParams(**obj)


def build_reference_psn(scale: int = 1, params: TopologyParams | None = None) -> PhysicalNetwork:
    """Build the three-tier reference substrate.

    One CCP, `cdc_count` CDCs in a full mesh, each CDC parenting an equal share
    of the EDCs and linking up to every CCP. Every DC is a star: servers hang
    off one switch over zero-latency links capped at the DC tier's port rate.
    Transport links run at the slower endpoint tier's port rate. One UAP per
    EDC. Server counts scale linearly with `scale`.
    """
    if params is None:
        params = TopologyParams(scale=scale)
    elif params.scale != scale:
        params = replace(params, scale=scale)
    params.validate()

    net = PhysicalNetwork(params)

    def build_dc(dc_id: str, kind: DCKind, n_servers: int) -> DataCenter:
        dc = net.add_data_center(dc_id, kind)
        bw = params.tier_bw(kind)
        for i in range(n_servers):
            sid = net.add_server(f"{dc_id}-s{i:02d}", dc_id,
                                 params.server_cpu, params.server_ram)
            net.add_link(dc.switch, sid, 0.0, LinkKind.INTRA_DC, bw)
        return dc

    ccps = [build_dc(f"ccp{i}", DCKind.CCP, params.servers_per_ccp * scale)
            for i in range(params.ccp_count)]
    cdcs = [build_dc(f"cdc{i}", DCKind.CDC, params.servers_per_cdc * scale)
            for i in range(params.cdc_count)]
    edcs = [build_dc(f"edc{i}", DCKind.EDC, params.servers_per_edc * scale)
            for i in range(params.edc_count)]

    def transport(dc_a: DataCenter, dc_b: DataCenter, km: float) -> None:
        bw = min(params.tier_bw(dc_a.kind), params.tier_bw(dc_b.kind))
        net.add_link(dc_a.switch, dc_b.switch, params.link_latency_ms(km),
                     LinkKind.TRANSPORT, bw)

    for i, ca in enumerate(cdcs):
        for cb in cdcs[i + 1:]:
            transport(ca, cb, params.cdc_cdc_km)
    for cdc in cdcs:
        for ccp in ccps:
            transport(cdc, ccp, params.cdc_ccp_km)
    per_cdc = params.edc_count // params.cdc_count
    for i, edc in enumerate(edcs):
        transport(cdcs[i // per_cdc], edc, params.cdc_edc_km)

    for i, edc in enumerate(edcs):
        uap = net.add_node(f"uap{i:02d}", NodeKind.UAP)
        net.add_link(uap, edc.switch, params.access_latency_ms, LinkKind.ACCESS, None)
        net.uaps.append(uap)

    net.validate()
    return net
