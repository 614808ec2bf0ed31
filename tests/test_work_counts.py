"""Work-count golden: how much work a short seed-1 run of each algorithm
does, counted by wrapping the program's functions from here, with no
counter in the program. A change that keeps every result but does more or
less work than before fails here by name: search nodes, path searches,
candidate lists, holds and their returns, eligibility calls and the heap
pushes of the latency search."""

from __future__ import annotations

import heapq

import pytest

from sliceplace import exact, p2c
from sliceplace.sim import Scenario, run
from sliceplace.topology import PhysicalNetwork, build_reference_psn

# (nodes_explored, _enumerate_paths calls, _later_candidates calls, hold
# calls, give_back calls, feasible_servers calls, relay_reach heap pushes),
# MIX at load 2, horizon 300, seed 1, on a fresh scale-1 reference network.
# The exact search gives back every hold it makes; P2C only those of the
# episodes it rejects
GOLDEN_WORK = {
    "ilp-1": (1674, 56, 248, 592, 592, 549, 300),
    "ilp-2": (2600, 75, 1731, 2051, 2051, 549, 300),
    "p2c-1": (0, 0, 0, 1724, 324, 1993, 7814),
    "p2c-2": (0, 0, 0, 1885, 275, 2112, 11894),
}

COUNTERS = ("nodes_explored", "_enumerate_paths", "_later_candidates", "hold",
            "give_back", "feasible_servers", "relay_reach_pushes")


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

    monkeypatch.setattr(exact, "_solve", solved)
    monkeypatch.setattr(heapq, "heappush", pushed)
    count_calls(exact, "_enumerate_paths", "_enumerate_paths")
    count_calls(exact, "_later_candidates", "_later_candidates")
    count_calls(PhysicalNetwork, "hold", "hold")
    count_calls(PhysicalNetwork, "give_back", "give_back")
    # each placer calls it through the name it imported
    for module in (exact, p2c):
        count_calls(module, "feasible_servers", "feasible_servers")
    run(build_reference_psn(1), Scenario.named("MIX", 2.0, horizon=300.0), algorithm, 1)
    return counts


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_WORK))
def test_work_counts_pinned(algorithm, monkeypatch):
    counts = count_work(algorithm, monkeypatch)
    assert tuple(counts[k] for k in COUNTERS) == GOLDEN_WORK[algorithm]
