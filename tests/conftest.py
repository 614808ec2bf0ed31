"""Shared fixtures and small hand-built substrates for the test suite."""

from __future__ import annotations

import heapq

import pytest
from hypothesis import settings

from sliceplace.topology import (
    DCKind,
    LinkKind,
    NodeKind,
    PhysicalNetwork,
    TopologyParams,
    build_reference_psn,
)

# The property tests draw a fixed set of examples, the same on every run, and
# keep no example database, so a pass or a failure repeats. Hypothesis's own
# defaults, which draw afresh, are the profile "fresh":
# `pytest --hypothesis-profile=fresh`, which loads after this module.
settings.register_profile("fresh", parent=settings.get_profile("default"))
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def ref():
    """Scale-1 reference substrate, shared read-only across the session.

    Tests that allocate anything must use `psn` (or clone) instead.
    """
    return build_reference_psn()


@pytest.fixture()
def psn():
    """Fresh scale-1 reference substrate safe to mutate."""
    return build_reference_psn()


def make_pair(
    *,
    edc_servers: int = 2,
    cdc_servers: int = 2,
    cpu: float = 50.0,
    ram: float = 300.0,
    edc_bw: float = 10.0,
    cdc_bw: float = 100.0,
    km: float = 100.0,
    params: TopologyParams | None = None,
) -> PhysicalNetwork:
    """One EDC and one CDC joined by a single transport link, one UAP.

    Mirrors the reference builder's conventions: star DCs, zero-latency
    intra links, transport capped at the slower endpoint tier.
    """
    if params is None:
        params = TopologyParams()
    net = PhysicalNetwork(params)
    edc = net.add_data_center("edc0", DCKind.EDC)
    for i in range(edc_servers):
        sid = net.add_server(f"edc0-s{i:02d}", "edc0", cpu, ram)
        net.add_link(edc.switch, sid, 0.0, LinkKind.INTRA_DC, edc_bw)
    cdc = net.add_data_center("cdc0", DCKind.CDC)
    for i in range(cdc_servers):
        sid = net.add_server(f"cdc0-s{i:02d}", "cdc0", cpu, ram)
        net.add_link(cdc.switch, sid, 0.0, LinkKind.INTRA_DC, cdc_bw)
    net.add_link(edc.switch, cdc.switch, params.link_latency_ms(km),
                 LinkKind.TRANSPORT, min(edc_bw, cdc_bw))
    uap = net.add_node("uap00", NodeKind.UAP)
    net.add_link(uap, edc.switch, params.access_latency_ms, LinkKind.ACCESS, None)
    net.uaps.append(uap)
    net.validate()
    return net


def make_single_dc(
    *,
    kind: DCKind = DCKind.EDC,
    servers: int = 1,
    cpu: float = 50.0,
    ram: float = 300.0,
    bw: float = 10.0,
    params: TopologyParams | None = None,
) -> PhysicalNetwork:
    """A lone star DC with a UAP on its switch."""
    if params is None:
        params = TopologyParams()
    net = PhysicalNetwork(params)
    dc = net.add_data_center("dc0", kind)
    for i in range(servers):
        sid = net.add_server(f"dc0-s{i:02d}", "dc0", cpu, ram)
        net.add_link(dc.switch, sid, 0.0, LinkKind.INTRA_DC, bw)
    uap = net.add_node("uap00", NodeKind.UAP)
    net.add_link(uap, dc.switch, params.access_latency_ms, LinkKind.ACCESS, None)
    net.uaps.append(uap)
    net.validate()
    return net


def edc_server_ids(net: PhysicalNetwork, dc_id: str) -> list[int]:
    return sorted(net.data_centers[dc_id].servers)


def drain_dc(net: PhysicalNetwork, dc_id: str) -> None:
    """Allocate every server in a DC down to zero residual."""
    for sid in net.data_centers[dc_id].servers:
        net.allocate(sid, *net.residual(sid))


def heap_pushes(monkeypatch) -> list[int]:
    """Record, from now to the end of the test, the node of every (distance,
    node) item pushed on a heap: `heapq.heappush` is patched in the heapq
    module, which every latency search looks it up through."""
    pushed: list[int] = []
    push = heapq.heappush

    def counted(heap, item):
        pushed.append(item[1])
        push(heap, item)
    monkeypatch.setattr(heapq, "heappush", counted)
    return pushed


def forbid_events(monkeypatch) -> None:
    """Make `sim.run` raise AssertionError at its first event, from now to
    the end of the test: the first series row (`_Accounting._rows_at`) or
    the first placement (`sim.place_request`). A run that an input would
    keep from ending then fails instead of hanging."""
    from sliceplace import sim

    def started(*args, **kwargs):
        raise AssertionError("the run reached its first event")
    monkeypatch.setattr(sim._Accounting, "_rows_at", started)
    monkeypatch.setattr(sim, "place_request", started)


def forbid_build(monkeypatch) -> None:
    """Make the reference generator raise AssertionError at its first data
    center (`PhysicalNetwork.add_data_center`), from now to the end of the
    test. Parameters that would build without end then fail instead of
    hanging."""
    from sliceplace.topology import PhysicalNetwork

    def started(*args, **kwargs):
        raise AssertionError("the builder added a data center")
    monkeypatch.setattr(PhysicalNetwork, "add_data_center", started)
