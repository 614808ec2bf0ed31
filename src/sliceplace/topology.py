"""Physical substrate network: typed nodes, capacitated links, data centers.

The substrate is an undirected multigraph-free graph of user access points,
switches, routers and servers. Servers have CPU/RAM capacities, links a
bandwidth capacity plus a fixed latency. Data centers group servers behind a
single switch in three tiers (EDC, CDC, CCP) wired as a star; intra-DC links
have zero latency, transport links derive latency from fiber length.

Units: latency in milliseconds, bandwidth in Gbps, CPU in abstract units,
RAM in GB, distances in km. The network holds residuals as exact integer
counts of 1/SCALE of these units (`to_units`).
"""

from __future__ import annotations

import functools
import heapq
import json
import sys
import uuid
from array import array
from bisect import insort
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Sequence

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


_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a finite number",
               str: "a string"}


def typed(value, kind: type, where: str, error: type[Exception] = TopologyError, *,
          nullable: bool = False):
    """`value` if it is a JSON value of `kind`, a float for float, else
    error(...): float admits integers that a float can hold and no NaN or
    infinity, int and float exclude booleans, null passes with `nullable`.
    The one reader of a number, id, flag or string in topology, catalog and
    config documents."""
    if value is None and nullable:
        return value
    accepted = (int, float) if kind is float else (kind,)
    if (isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted)
            or (kind is float and not abs(value) <= sys.float_info.max)):
        raise error(f"{where} must be {_TYPE_NAMES[kind]}"
                    + (" or null" if nullable else "") + f", got {value!r}")
    return float(value) if kind is float else value


def load_json(path: str, error: type[Exception] = TopologyError):
    """The JSON document in file `path`; error(...) if it is not JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or not text
            raise error(f"{path}: not valid JSON: {exc}") from exc


def left_sum(values: Iterable[float]) -> float:
    """The sum of values added one at a time, left to right, from 0.0. Every
    float that reaches a report or a decision is summed through here:
    since Python 3.12 `sum()` compensates float rounding (`sum([0.1] * 10)`
    is 1.0 there, 0.9999999999999999 on 3.11), so its result depends on
    the interpreter, and this one's does not."""
    total = 0.0
    for value in values:
        total += value
    return total


# Residual units per CPU unit, GB and Gbps: an amount given to six decimals
# is a whole number of units, and up to _MAX_AMOUNT each count is its own float.
SCALE = 10**6
_MAX_AMOUNT = 10**9


@functools.lru_cache(maxsize=4096)
def to_units(amount: float) -> int:
    """`amount` as a count of residual units. Raises TopologyError unless it
    is finite, in [0, _MAX_AMOUNT] and exactly units / SCALE. Each distinct
    amount is converted once."""
    if not 0 <= amount <= _MAX_AMOUNT or round(amount * SCALE) / SCALE != amount:
        raise TopologyError(f"amount {amount!r} is not a multiple of {1 / SCALE} in [0, {_MAX_AMOUNT}]")
    return round(amount * SCALE)


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


@dataclass
class PhysicalLink:
    id: int
    a: int
    b: int
    latency_ms: float
    kind: LinkKind
    # None means the link carries no bandwidth accounting (access links).
    bw_capacity: float | None = None

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


# The most servers, and the most links, the reference generator builds: the
# default parameters up to scale 793. On a 2-CPU VM a build of scale 512
# (64,512 servers) took 0.55-0.93 s at 85 MB peak RSS, and one of scale 793
# 0.87-0.97 s at 115 MB. A scale of 2**70 would allocate servers until stopped
MAX_GENERATED = 100_000


@dataclass(frozen=True)
class TopologyParams:
    """Knobs for the reference substrate generator.

    `scale` multiplies per-DC server counts only; the DC/transport skeleton is
    fixed. Latency of a transport link is km / propagation, rounded to
    `latency_round_decimals` (None disables rounding). `validate` refuses
    parameters that would build more than MAX_GENERATED servers or links.
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
        for name in ("server_cpu", "server_ram", "ccp_bw_gbps", "cdc_bw_gbps", "edc_bw_gbps"):
            to_units(getattr(self, name))
        for name in ("cdc_edc_km", "cdc_ccp_km", "cdc_cdc_km", "access_latency_ms"):
            if getattr(self, name) < 0:
                raise TopologyError(f"{name} must be non-negative")
        if self.edc_count % self.cdc_count != 0:
            raise TopologyError("edc_count must be a multiple of cdc_count")
        servers = self.scale * (self.ccp_count * self.servers_per_ccp
                                + self.cdc_count * self.servers_per_cdc
                                + self.edc_count * self.servers_per_edc)
        # a link per server, the CDC mesh, CDC-CCP, CDC-EDC and UAP-EDC links:
        # never fewer links than servers
        links = servers + self.cdc_count * (self.cdc_count - 1) // 2 \
            + self.cdc_count * self.ccp_count + 2 * self.edc_count
        if links > MAX_GENERATED:
            raise TopologyError(f"the substrate would have {servers} servers and {links} "
                                f"links; at most {MAX_GENERATED} of each are built")

    def link_latency_ms(self, km: float) -> float:
        ms = km * 1e3 / self.propagation_mps * 1e3
        if self.latency_round_decimals is not None:
            ms = round(ms, self.latency_round_decimals)
        return ms

    def tier_bw(self, kind: DCKind) -> float:
        return {DCKind.CCP: self.ccp_bw_gbps,
                DCKind.CDC: self.cdc_bw_gbps,
                DCKind.EDC: self.edc_bw_gbps}[kind]


# parameter -> JSON type of its value, that of its default: int or float
_PARAM_TYPES = {name: type(f.default)
                for name, f in TopologyParams.__dataclass_fields__.items()}


class Run(NamedTuple):
    """Server positions start..stop-1, each a server with exactly one link:
    links link..link+stop-start-1 in the same order, every one to node
    `anchor` and of latency `lat`, all in data center `dc` (None outside
    any) of tier rank `rank`. The index keeps runs maximal, so the
    reference substrate has one per data center."""

    start: int
    stop: int
    link: int
    anchor: int
    dc: str | None
    rank: int
    lat: float


class StructureIndex(NamedTuple):
    """Everything a network derives from its nodes, data centers and links,
    shared, with its two caches, by the network's clones.

    Node and adjacency entries are in id order. Servers are also indexed by
    position, their rank in `servers` and their slot in the CPU and RAM
    residual arrays."""

    servers: tuple[Server, ...]
    # node id -> its `adj` entries without those whose neighbor has degree 1
    # (a leaf relays nothing)
    relay_adj: tuple[tuple[tuple[int, int], ...], ...]
    # node id -> server position, -1 for other nodes
    pos: tuple[int, ...]
    # node id -> 1 if a neighbour is a server, else 2: the fewest links from
    # it to any other server, or fewer (ILP-1's bound)
    near_hops: tuple[int, ...]
    # node id -> rank of its DC's tier in TIER_ORDER, len(TIER_ORDER) outside any DC
    tier_rank: tuple[int, ...]
    # by server position: node id (int64, the item of `feasible_servers`'
    # array('q')), and CPU and RAM capacity in units
    id: np.ndarray
    cpu_cap: tuple[int, ...]
    ram_cap: tuple[int, ...]
    # by link id: bandwidth capacity in units, -1 without accounting
    bw_cap: tuple[int, ...]
    # the one-link servers as runs, ascending (see `Run`), and for each
    # anchor (a node across some server's one link, a star DC's switch)
    # (uplink latency, index) of its runs, ascending by index
    runs: tuple[Run, ...]
    anchor_runs: dict[int, tuple[tuple[float, int], ...]]
    # positions of the servers outside every run: zero or several links
    off_run: tuple[int, ...]
    # caches filled on use: UAP -> {DC id: access latency}, and the plans
    # of eligibility (`placement._store`), what `feasible_servers` derives
    # from the runs alone: the first VNF's under (UAP, access bound, best
    # tier), a later VNF's under (indices of the runs reached, best tier,
    # the DCs that apply the lookahead); with them the exact search's chain
    # constants (`exact._chain_plan`) under ("chain", ids of the demand
    # tuples) and its relay paths (`exact._later_candidates`) under
    # ("paths", entry node, latency there, budget). The keys' first items,
    # an int, a tuple and a str naming the kind, never meet
    alpha: dict[int, dict[str, float]]
    plans: dict[tuple, tuple]


@dataclass(frozen=True)
class CapacitySnapshot:
    """The bytes of the three residual arrays, bound to one network
    instance: equal snapshots hold equal residuals."""

    token: str
    server_cpu: bytes
    server_ram: bytes
    link_bw: bytes


class PhysicalNetwork:
    """Substrate graph with residual-capacity bookkeeping.

    Nodes and links get dense integer ids in creation order; deterministic
    tie-breaking elsewhere keys on those ids.

    The one residual store is three `array('q')` of units (`to_units`):
    `cpu_units` and `ram_units` by server position, and `bw_units` by link
    id, -1 where a link has no bandwidth accounting. Scalar readers index
    them; `vectors()` gives zero-copy numpy views. Residuals change only
    through two unit-level writes, each of which checks every slot before
    it writes one: `hold`, which takes one VNF's units on a server and one
    VL's on each link of a path (the exact search's frames and P2C's
    per-VNF step hold through it), and `write_units`, which takes or
    returns whole units on the servers and links it is given: a whole
    placement's sums, or the one demand of a float wrapper (`allocate`,
    `allocate_bw`, `release`, `release_bw`). Inside a (nestable)
    transaction, `mark = begin()` then `commit(mark)` or `rollback(mark)`,
    each write logs (array, slot, old units) for a rollback to write back.
    `snapshot`/`restore` copy the arrays whole.

    `index()` returns the one `StructureIndex`, built in one pass on first
    use after a structural change (`_append`, behind `add_node`,
    `add_server` and `add_data_center`, and `add_link`), which drops it and
    the views. An array cannot grow while views of it are out, so it is
    carried over to a fresh one first. A clone shares the index, the node
    and link objects; it copies the containers a structural change writes
    and the residual arrays, so nothing it changes shows in the parent.

    A data center's `servers` lists its servers in id order: `add_server`
    appends to it and `validate` (run by `from_json`) checks it. `add_link`
    refuses a second link between two nodes, so a node's neighbours are
    distinct, and keeps each node's `adj` ascending by neighbour id.
    """

    def __init__(self, params: TopologyParams | None = None) -> None:
        self.params = params
        self.nodes: list[Node] = []
        self.links: list[PhysicalLink] = []
        self.data_centers: dict[str, DataCenter] = {}
        self.uaps: list[int] = []
        # node id -> [(neighbor id, link id)], ascending
        self.adj: list[list[tuple[int, int]]] = []
        self._token = uuid.uuid4().hex
        self.cpu_units = array("q")
        self.ram_units = array("q")
        self.bw_units = array("q")
        self._views: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        # (residual array, slot, old units); log length at each open begin
        self._undo: list[tuple[array, int, int]] = []
        self._marks: list[int] = []
        self._index: StructureIndex | None = None

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_views": None}  # a copied view shows no copy

    # -- construction ------------------------------------------------------

    def _restructure(self) -> None:
        """Drop the index and views; arrays that had views go to fresh copies."""
        self._index = None
        if self._views is not None:
            self._views = None
            fresh = {id(a): array("q", a) for a in self._stores()}
            self._undo = [(fresh[id(a)], i, units) for a, i, units in self._undo]
            self.cpu_units, self.ram_units, self.bw_units = fresh.values()

    def _append(self, node: Node, cpu: int = 0, ram: int = 0) -> None:
        """Add a node; a server's residual units fill its new slots."""
        self._restructure()
        self.nodes.append(node)
        self.adj.append([])
        if isinstance(node, Server):
            self.cpu_units.append(cpu)
            self.ram_units.append(ram)

    def add_node(self, label: str, kind: NodeKind, dc: str | None = None) -> int:
        if kind is NodeKind.SERVER:
            raise TopologyError("use add_server for servers")
        node = Node(id=len(self.nodes), label=label, kind=kind, dc=dc)
        self._append(node)
        return node.id

    def add_server(self, label: str, dc: str, cpu: float, ram: float) -> int:
        cpu_units, ram_units = to_units(cpu), to_units(ram)
        if dc not in self.data_centers:
            raise TopologyError(f"unknown data center {dc!r}")
        node = Server(id=len(self.nodes), label=label, kind=NodeKind.SERVER, dc=dc,
                      cpu_capacity=cpu, ram_capacity=ram)
        self._append(node, cpu_units, ram_units)
        self.data_centers[dc].servers.append(node.id)
        return node.id

    def add_data_center(self, dc_id: str, kind: DCKind, switch_label: str | None = None) -> DataCenter:
        if dc_id in self.data_centers:
            raise TopologyError(f"duplicate data center id {dc_id!r}")
        switch = self.add_node(switch_label or f"{dc_id}-sw", NodeKind.SWITCH, dc=dc_id)
        dc = DataCenter(id=dc_id, kind=kind, switch=switch)
        self.data_centers[dc_id] = dc
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
        near, far = (a, b) if len(self.adj[a]) <= len(self.adj[b]) else (b, a)
        if any(nbr == far for nbr, _ in self.adj[near]):
            raise TopologyError(f"nodes {a} and {b} are already linked")
        units = -1 if bw_capacity is None else to_units(bw_capacity)
        self._restructure()
        link = PhysicalLink(id=len(self.links), a=a, b=b, latency_ms=latency_ms,
                            kind=kind, bw_capacity=bw_capacity)
        self.links.append(link)
        insort(self.adj[a], (b, link.id))
        insort(self.adj[b], (a, link.id))
        self.bw_units.append(units)
        return link.id

    # -- lookups -----------------------------------------------------------

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
        """The structure index, built on first use after a structural change.
        One expression: every residual write and lookahead test reads it;
        `hold`, on every step of every placement, inlines the expression."""
        return self._index or self._build_index()

    def _build_index(self) -> StructureIndex:
        servers = tuple([n for n in self.nodes if isinstance(n, Server)])
        relays = [len(entries) > 1 for entries in self.adj]
        pos = [-1] * len(self.nodes)
        rank = {dc_id: TIER_ORDER.index(dc.kind) for dc_id, dc in self.data_centers.items()}
        tier_rank = tuple([rank.get(n.dc, len(TIER_ORDER)) for n in self.nodes])
        runs: list[list] = []  # [start, stop, link, anchor, dc, rank, lat], grown in place
        off_run = []
        for p, s in enumerate(servers):
            pos[s.id] = p
            entries = self.adj[s.id]
            if len(entries) != 1:
                off_run.append(p)
                continue
            nbr, lid = entries[0]
            lat = self.links[lid].latency_ms
            last = runs[-1] if runs else None
            if (last and last[1] == p and last[2] + p - last[0] == lid
                    and last[3:] == [nbr, s.dc, tier_rank[s.id], lat]):
                last[1] = p + 1
            else:
                runs.append([p, p + 1, lid, nbr, s.dc, tier_rank[s.id], lat])
        anchor_runs: dict[int, list[tuple[float, int]]] = {}
        for k, run in enumerate(runs):
            anchor_runs.setdefault(run[3], []).append((run[6], k))
        cpu_cap = tuple([to_units(s.cpu_capacity) for s in servers])
        ram_cap = tuple([to_units(s.ram_capacity) for s in servers])
        self._index = StructureIndex(
            servers=servers,
            relay_adj=tuple([tuple([e for e in entries if relays[e[0]]])
                             for entries in self.adj]),
            pos=tuple(pos),
            near_hops=tuple([1 if any(pos[nbr] >= 0 for nbr, _ in entries) else 2
                             for entries in self.adj]),
            tier_rank=tier_rank,
            id=np.array([s.id for s in servers], dtype=np.int64),
            cpu_cap=cpu_cap,
            ram_cap=ram_cap,
            bw_cap=tuple([-1 if link.bw_capacity is None else to_units(link.bw_capacity)
                          for link in self.links]),
            runs=tuple([Run(*run) for run in runs]),
            anchor_runs={u: tuple(ks) for u, ks in anchor_runs.items()},
            off_run=tuple(off_run),
            alpha={},
            plans={})
        return self._index

    def vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy int64 views of the residual arrays, until the next structural change."""
        if self._views is None:
            self._views = tuple(np.frombuffer(a, dtype=np.int64) for a in self._stores())
        return self._views

    def _pos(self, server_id: int) -> int:
        p = self.index().pos[server_id]
        if p < 0:
            raise TopologyError(f"node {server_id} is not a server")
        return p

    def residual(self, server_id: int) -> tuple[float, float]:
        """A server's CPU and RAM residuals, in CPU units and GB."""
        p = self._pos(server_id)
        return self.cpu_units[p] / SCALE, self.ram_units[p] / SCALE

    def bw_residual(self, link_id: int) -> float | None:
        """A link's bandwidth residual in Gbps; None without accounting."""
        units = self.bw_units[self.link(link_id).id]
        return None if units < 0 else units / SCALE

    def servers(self) -> tuple[Server, ...]:
        """Every server, ascending by id."""
        return self.index().servers

    def dc_of(self, node_id: int) -> DataCenter | None:
        dc_id = self.nodes[node_id].dc
        return self.data_centers[dc_id] if dc_id is not None else None

    def total_cpu_capacity(self) -> float:
        return left_sum(s.cpu_capacity for s in self.servers())

    # -- capacity bookkeeping ----------------------------------------------

    def hold(self, server_id: int, cpu: int, ram: int, path: Sequence[int], bw: int) -> None:
        """Take whole, non-negative units: a VNF's CPU and RAM on server
        server_id and a VL's bandwidth `bw` on each link of path, whose
        links are distinct (a simple path). Every slot is checked before any
        is written, so a refusal writes nothing: TopologyError for a node
        that is not a server or a link unknown or without bandwidth
        accounting, CapacityError when a slot is short. Inside a
        transaction each write logs its slot's old units as it writes."""
        pos = (self._index or self._build_index()).pos
        p = pos[server_id] if 0 <= server_id < len(pos) else -1
        if p < 0:
            raise TopologyError(f"node {server_id} is not a server")
        cpu_units, ram_units, bw_units = self.cpu_units, self.ram_units, self.bw_units
        free_cpu, free_ram = cpu_units[p], ram_units[p]
        if free_cpu < cpu or free_ram < ram:
            raise CapacityError(f"server {server_id}: need {cpu / SCALE}/{ram / SCALE}, "
                                f"free {free_cpu / SCALE}/{free_ram / SCALE}")
        n_links = len(bw_units)
        for lid in path:
            if not 0 <= lid < n_links:
                raise TopologyError(f"unknown link id {lid}")
            free = bw_units[lid]
            if free < bw:
                if free < 0:
                    raise TopologyError(f"link {lid} carries no bandwidth accounting")
                raise CapacityError(f"link {lid}: need {bw / SCALE}, free {free / SCALE}")
        cpu_units[p] = free_cpu - cpu
        ram_units[p] = free_ram - ram
        if self._marks:
            undo = self._undo
            undo += ((cpu_units, p, free_cpu), (ram_units, p, free_ram))
            for lid in path:
                free = bw_units[lid]
                undo.append((bw_units, lid, free))
                bw_units[lid] = free - bw
        else:
            for lid in path:
                bw_units[lid] -= bw

    def allocate(self, server_id: int, cpu: float, ram: float) -> None:
        """Take one VNF's CPU units and GB on a server (`write_units`)."""
        self.write_units(-1, {server_id: (to_units(cpu), to_units(ram))}, {})

    def release(self, server_id: int, cpu: float, ram: float) -> None:
        self.write_units(1, {server_id: (to_units(cpu), to_units(ram))}, {})

    def allocate_bw(self, link_id: int, bw: float) -> None:
        self.write_units(-1, {}, {link_id: to_units(bw)})

    def release_bw(self, link_id: int, bw: float) -> None:
        self.write_units(1, {}, {link_id: to_units(bw)})

    def write_units(self, sign: int, servers: Mapping[int, tuple[int, int]],
                    links: Mapping[int, int]) -> None:
        """Return (sign 1) or take (sign -1) whole units: each listed
        server's (CPU, RAM) and each listed link's bandwidth, all
        non-negative. Every new residual is checked before any is written,
        so a refusal writes nothing: CapacityError when a take exceeds what
        is free, ReleaseError when a return exceeds capacity, TopologyError
        for a node that is not a server or a link without bandwidth
        accounting. Then each slot is written once; inside a transaction
        each write logs (array, slot, old units)."""
        # the check of `_pos`, inline: every departure of a run writes through here
        cpu_units, ram_units, bw_units = self.cpu_units, self.ram_units, self.bw_units
        idx = self.index()
        pos, cpu_cap, ram_cap, bw_cap = idx.pos, idx.cpu_cap, idx.ram_cap, idx.bw_cap
        n_links = len(self.links)
        writes = []
        for sid, (cpu, ram) in servers.items():
            p = pos[sid] if 0 <= sid < len(pos) else -1
            if p < 0:
                raise TopologyError(f"node {sid} is not a server")
            new_cpu, new_ram = cpu_units[p] + sign * cpu, ram_units[p] + sign * ram
            if sign < 0:
                if new_cpu < 0 or new_ram < 0:
                    raise CapacityError(f"server {sid}: need {cpu / SCALE}/{ram / SCALE}, "
                                        f"free {cpu_units[p] / SCALE}/{ram_units[p] / SCALE}")
            elif new_cpu > cpu_cap[p] or new_ram > ram_cap[p]:
                raise ReleaseError(f"server {sid}: release exceeds capacity")
            writes += ((cpu_units, p, new_cpu), (ram_units, p, new_ram))
        for lid, bw in links.items():
            if not 0 <= lid < n_links:
                raise TopologyError(f"unknown link id {lid}")
            free = bw_units[lid]
            if free < 0:
                raise TopologyError(f"link {lid} carries no bandwidth accounting")
            new = free + sign * bw
            if sign < 0:
                if new < 0:
                    raise CapacityError(f"link {lid}: need {bw / SCALE}, free {free / SCALE}")
            elif new > bw_cap[lid]:
                raise ReleaseError(f"link {lid}: release exceeds capacity")
            writes.append((bw_units, lid, new))
        if self._marks:
            self._undo += [(store, i, store[i]) for store, i, _ in writes]
        for store, i, units in writes:
            store[i] = units

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
        while len(self._undo) > mark:
            store, i, units = self._undo.pop()
            store[i] = units

    def _stores(self) -> tuple[array, array, array]:
        return self.cpu_units, self.ram_units, self.bw_units

    def snapshot(self) -> CapacitySnapshot:
        return CapacitySnapshot(self._token, *(a.tobytes() for a in self._stores()))

    def restore(self, snap: CapacitySnapshot) -> None:
        if snap.token != self._token:
            raise TopologyError("snapshot belongs to a different network instance")
        saved = (snap.server_cpu, snap.server_ram, snap.link_bw)
        if [len(b) for b in saved] != [a.itemsize * len(a) for a in self._stores()]:
            raise TopologyError("snapshot shape does not match network")
        # written in place: views of the arrays stay valid
        for a, b in zip(self._stores(), saved):
            memoryview(a).cast("B")[:] = b

    def clone(self) -> "PhysicalNetwork":
        """Copy sharing the snapshot token, so snapshots stay portable between
        a network and its clones, and the structure index, nodes and links;
        it copies the containers a structural change writes and the residuals."""
        other = PhysicalNetwork(self.params)
        other.nodes = list(self.nodes)
        other.links = list(self.links)
        other.data_centers = {
            k: DataCenter(id=d.id, kind=d.kind, switch=d.switch, servers=list(d.servers))
            for k, d in self.data_centers.items()}
        other.uaps = list(self.uaps)
        other.adj = [list(entries) for entries in self.adj]
        other._token = self._token
        other._index = self.index()
        other.cpu_units, other.ram_units, other.bw_units = (
            array("q", a) for a in self._stores())
        return other

    # -- access latency ----------------------------------------------------

    def access_latency(self, uap_id: int, dc_id: str) -> float:
        """Latency of the shortest path from a UAP to a DC's switch (ms).

        Uses static link latencies only; bandwidth state does not matter for
        access delay. One `relay_reach` from the UAP, over every link, fills
        the UAP's latencies to every DC, cached per UAP in the structure
        index; a switch with one link (a leaf, which the search does not
        enter) takes its anchor's distance plus that link's latency.
        Unreachable DCs report +inf. TopologyError for a node id that is not
        a UAP's and for an unknown DC.
        """
        alpha = self.index().alpha
        cached = alpha.get(uap_id)
        if cached is None:
            nodes, adj = self.nodes, self.adj
            if not 0 <= uap_id < len(nodes) or nodes[uap_id].kind is not NodeKind.UAP:
                raise TopologyError(f"node {uap_id} is not a UAP")
            dist = relay_reach(self, uap_id, -1, float("inf"))
            cached = {}
            for dc in self.data_centers.values():
                at, last = dc.switch, 0.0
                if len(adj[at]) == 1:  # a leaf switch: its anchor's distance
                    (at, lid), = adj[at]
                    last = self.links[lid].latency_ms
                cached[dc.id] = dist[at] + last if at in dist else float("inf")
            alpha[uap_id] = cached
        try:
            return cached[dc_id]
        except KeyError:
            raise TopologyError(f"unknown data center {dc_id!r}") from None

    # -- validation and serialization --------------------------------------

    def validate(self) -> None:
        """Raise TopologyError unless residuals lie within capacities, each
        data center's `servers` lists exactly the servers that name it, in
        id order, every node's DC exists, only access links lack a capacity,
        every intra-DC link has an end in a DC, every switch and UAP entry
        names a node of that kind, no UAP is listed twice, and the graph is
        connected."""
        dc_servers: dict[str, list[int]] = {dc_id: [] for dc_id in self.data_centers}
        idx = self.index()
        for p, s in enumerate(idx.servers):
            if not (0 <= self.cpu_units[p] <= idx.cpu_cap[p]
                    and 0 <= self.ram_units[p] <= idx.ram_cap[p]):
                raise TopologyError(f"server {s.id}: residual out of bounds")
            if s.dc not in dc_servers:
                raise TopologyError(f"server {s.id} belongs to no data center")
            dc_servers[s.dc].append(s.id)
        for node in self.nodes:
            if node.dc is not None and node.dc not in dc_servers:
                raise TopologyError(f"node {node.id} names no data center: {node.dc!r}")
        for link in self.links:
            units, cap = self.bw_units[link.id], idx.bw_cap[link.id]
            if not (units == cap == -1 or 0 <= units <= cap):
                raise TopologyError(f"link {link.id}: bandwidth residual out of bounds "
                                    f"or without a capacity")
            if cap == -1 and link.kind is not LinkKind.ACCESS:
                raise TopologyError(f"link {link.id}: a {link.kind.value} link needs a "
                                    f"bandwidth capacity")
            if link.kind is LinkKind.INTRA_DC and self.nodes[link.a].dc is None \
                    and self.nodes[link.b].dc is None:
                raise TopologyError(f"link {link.id}: an intra_dc link needs an end in a "
                                    f"data center")
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
        if len(set(self.uaps)) != len(self.uaps):
            raise TopologyError("a UAP is listed more than once")
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
        pos = self.index().pos

        def node_obj(n: Node) -> dict:
            obj = {"id": n.id, "label": n.label, "kind": n.kind.value, "dc": n.dc}
            if isinstance(n, Server):
                cpu, ram = self.cpu_units[pos[n.id]], self.ram_units[pos[n.id]]
                obj.update(cpu_capacity=n.cpu_capacity, ram_capacity=n.ram_capacity,
                           cpu_residual=cpu / SCALE, ram_residual=ram / SCALE)
            return obj

        return {
            "schema": "topology/1",
            "params": None if self.params is None else _params_to_json(self.params),
            "nodes": [node_obj(n) for n in self.nodes],
            "links": [{"id": l.id, "a": l.a, "b": l.b, "latency_ms": l.latency_ms,
                       "kind": l.kind.value, "bw_capacity": l.bw_capacity,
                       "bw_residual": self.bw_residual(l.id)} for l in self.links],
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
            params = None if obj["params"] is None else params_from_json(obj["params"])
            net = cls(params)
            for dc_obj in obj["data_centers"]:
                dc_id = typed(dc_obj["id"], str, "data center id")
                if dc_id in net.data_centers:
                    raise TopologyError(f"duplicate data center id {dc_id!r}")
                net.data_centers[dc_id] = DataCenter(
                    id=dc_id, kind=DCKind(dc_obj["kind"]),
                    switch=typed(dc_obj["switch"], int, f"data center {dc_id} switch"),
                    servers=[typed(s, int, f"data center {dc_id} server")
                             for s in dc_obj["servers"]])
            for i, n in enumerate(obj["nodes"]):
                if typed(n["id"], int, "node id") != i:
                    raise TopologyError("node ids must be dense and ordered")
                kind = NodeKind(n["kind"])
                fields = dict(id=i, label=typed(n["label"], str, f"node {i} label"),
                              kind=kind, dc=typed(n["dc"], str, f"node {i} dc", nullable=True))
                if kind is NodeKind.SERVER:
                    cpu, ram, cpu_res, ram_res = (
                        typed(n[key], float, f"node {i} {key}")
                        for key in ("cpu_capacity", "ram_capacity", "cpu_residual", "ram_residual"))
                    # `validate` converts the capacities, building the index
                    net._append(Server(**fields, cpu_capacity=cpu, ram_capacity=ram),
                                to_units(cpu_res), to_units(ram_res))
                else:
                    net._append(Node(**fields))
            for i, l in enumerate(obj["links"]):
                if typed(l["id"], int, "link id") != i:
                    raise TopologyError("link ids must be dense and ordered")
                a, b = (typed(l[end], int, f"link {i} endpoint {end}") for end in "ab")
                cap, residual = (typed(l[key], float, f"link {i} {key}", nullable=True)
                                 for key in ("bw_capacity", "bw_residual"))
                lid = net.add_link(a, b, typed(l["latency_ms"], float, f"link {i} latency_ms"),
                                   LinkKind(l["kind"]), cap)
                net.bw_units[lid] = -1 if residual is None else to_units(residual)
            net.uaps = [typed(u, int, "UAP id") for u in obj["uaps"]]
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, TopologyError):
                raise
            raise TopologyError(f"malformed topology document: {exc}") from exc
        net.validate()
        return net

    @classmethod
    def load(cls, path: str) -> "PhysicalNetwork":
        return cls.from_json(load_json(path))


def relay_reach(net: PhysicalNetwork, src: int, need: int, limit: float,
                parent: dict[int, tuple[int, int]] | None = None) -> dict[int, float]:
    """Latency-shortest distance from src to every relay node (one with two
    or more links) within `limit`, over links with at least `need` residual
    bandwidth units; src is always present, at 0. A `need` of -1 admits
    every link, those without bandwidth accounting too. With `parent`, each
    node reached but src is recorded there as (previous node, link).

    The package's one latency search (E. W. Dijkstra, "A note on two
    problems in connexion with graphs", Numer. Math. 1, 1959). Its callers:
    `placement.feasible_servers`, which reads the one-link servers from the
    runs anchored at the relays reached (`placement._reached_runs`);
    `placement.latency_reach`, which adds the leaves; `min_cost_path`'s
    minimum-latency fallback, which adds a leaf destination's last hop; and
    `PhysicalNetwork.access_latency`, which adds a leaf switch's link. The
    exact search reads the same distances from its path search
    (`exact._enumerate_paths`), which it runs anyway.

    A leaf relays nothing, so leaves never enter the heap: the cost is one
    heap operation per reached relay node, whatever the number of servers.
    A one-link source (a server behind its switch, a UAP) is entered at its
    anchor, the node across its link, with the distance the source's pop
    would push, so the source itself takes no heap operation.
    """
    relay_adj = net.index().relay_adj
    links, bw_units = net.links, net.bw_units
    dist = {src: 0.0}
    if len(net.adj[src]) == 1:
        pq: list[tuple[float, int]] = []
        for v, lid in relay_adj[src]:  # the anchor, unless it is a leaf too
            nd = 0.0 + links[lid].latency_ms
            if bw_units[lid] >= need and nd <= limit:
                dist[v] = nd
                pq.append((nd, v))
                if parent is not None:
                    parent[v] = (src, lid)
    else:
        pq = [(0.0, src)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist[u]:
            continue
        for v, lid in relay_adj[u]:
            if bw_units[lid] < need:
                continue
            nd = d + links[lid].latency_ms
            if nd <= limit and nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(pq, (nd, v))
                if parent is not None:
                    parent[v] = (u, lid)
    return dist


def _params_to_json(p: TopologyParams) -> dict:
    return {f: getattr(p, f) for f in TopologyParams.__dataclass_fields__}


def params_from_json(obj: Mapping) -> TopologyParams:
    """Topology parameters from a JSON object, validated: every key must
    name a parameter and hold a JSON number of its default's type (`typed`;
    `latency_round_decimals` may be null). Raises TopologyError."""
    if not isinstance(obj, Mapping):
        raise TopologyError("topology parameters must be an object")
    unknown = set(obj) - set(_PARAM_TYPES)
    if unknown:
        raise TopologyError(f"unknown topology parameters: {sorted(unknown)}")
    params = TopologyParams(**{
        key: typed(value, _PARAM_TYPES[key], f"topology parameter {key}",
                   nullable=key == "latency_round_decimals")
        for key, value in obj.items()})
    params.validate()
    return params


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
