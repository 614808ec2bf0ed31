"""Work-count golden: how much work a short seed-1 run of each algorithm
does, counted by wrapping the program's functions from here, with no
counter in the program. A change that keeps every result but does more or
less work than before fails here by name: search nodes, path searches,
candidate lists, holds and their returns, eligibility calls, the heap
pushes of the latency search, the plans the structure index fills and the
path entries it serves."""

from __future__ import annotations

import heapq

import pytest

from sliceplace import exact, p2c, placement
from sliceplace.sim import Scenario, run
from sliceplace.topology import PhysicalNetwork, build_reference_psn

# (nodes_explored, _enumerate_paths calls, _later_candidates calls, hold
# calls, give_back calls, feasible_servers calls, relay_reach heap pushes,
# `_keep_plan` fills of root plans, later-VNF plans, chain plans and path
# entries, and the path entries read where kept), MIX at load 2, horizon
# 300, seed 1, on a fresh scale-1 reference network. The exact search gives
# back every hold it makes; P2C only those of the episodes it rejects. A
# list that reaches past last_s's link fills its path entry or reads it.
# Whether the entry then passes the list's check is not counted: the check
# compares the entry's links with the list's bandwidth and budget, which
# its key does not hold
GOLDEN_WORK = {
    "ilp-1": (1674, 56, 248, 592, 592, 549, 300, 30, 0, 3, 56, 192),
    "ilp-2": (2600, 75, 1731, 2051, 2051, 549, 300, 30, 0, 3, 75, 1656),
    "p2c-1": (0, 0, 0, 1724, 324, 1993, 7814, 30, 194, 0, 0, 0),
    "p2c-2": (0, 0, 0, 1885, 275, 2112, 11894, 30, 144, 0, 0, 0),
}

# a plan's kind, by its key: ("chain", ...) and ("paths", ...) from the
# exact search, (reached runs, ...) for a later VNF, (UAP, ...) for VNF 1
PLAN_KINDS = ("root_plans", "later_plans", "chain_plans", "path_entries")

COUNTERS = ("nodes_explored", "_enumerate_paths", "_later_candidates", "hold",
            "give_back", "feasible_servers", "relay_reach_pushes", *PLAN_KINDS,
            "path_hits")


def plan_kind(key: tuple) -> str:
    head = key[0]
    if head == "chain":
        return "chain_plans"
    if head == "paths":
        return "path_entries"
    return "later_plans" if isinstance(head, tuple) else "root_plans"


class CountedPlans(dict):
    """A structure index's plans that count the path entries read where
    they are kept (`get` finding one)."""

    def __init__(self, counts: dict[str, int]) -> None:
        super().__init__()
        self.counts = counts

    def get(self, key, default=None):
        plan = super().get(key, default)
        if plan is not None and key[0] == "paths":
            self.counts["path_hits"] += 1
        return plan


def count_work(algorithm: str, monkeypatch: pytest.MonkeyPatch) -> dict[str, int]:
    """The counters of one run, keyed as COUNTERS; a function the program
    does not have is left out."""
    counts = dict.fromkeys(COUNTERS, 0)

    def count_calls(owner, name: str, key: str) -> None:
        if not hasattr(owner, name):
            del counts[key]
            return
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    solve = exact._solve

    def solved(*args, **kwargs):
        res = solve(*args, **kwargs)
        counts["nodes_explored"] += res.nodes_explored
        return res

    push = heapq.heappush

    def pushed(heap, item):
        # the latency search pushes (distance, node); the simulator's
        # departure rows are longer
        if len(item) == 2:
            counts["relay_reach_pushes"] += 1
        push(heap, item)

    keep = placement._keep_plan

    def kept(idx, key, plan):
        counts[plan_kind(key)] += 1
        return keep(idx, key, plan)

    monkeypatch.setattr(exact, "_solve", solved)
    # exact imported it by name; placement's own plans look it up there
    for module in (placement, exact):
        monkeypatch.setattr(module, "_keep_plan", kept)
    monkeypatch.setattr(heapq, "heappush", pushed)
    count_calls(exact, "_enumerate_paths", "_enumerate_paths")
    count_calls(exact, "_later_candidates", "_later_candidates")
    count_calls(PhysicalNetwork, "hold", "hold")
    count_calls(PhysicalNetwork, "give_back", "give_back")
    # each placer calls it through the name it imported
    for module in (exact, p2c):
        count_calls(module, "feasible_servers", "feasible_servers")
    net = build_reference_psn(1)
    # the run's clone shares the fresh network's index, and so these plans
    net._index = net.index()._replace(plans=CountedPlans(counts))
    run(net, Scenario.named("MIX", 2.0, horizon=300.0), algorithm, 1)
    return counts


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_WORK))
def test_work_counts_pinned(algorithm, monkeypatch):
    counts = count_work(algorithm, monkeypatch)
    assert tuple(counts[k] for k in COUNTERS) == GOLDEN_WORK[algorithm]
