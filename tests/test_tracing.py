"""The benchmark's layer spans on an exact-solver and a P2C-2 run: every
span resolves, the observers read each layer's result, and tracing changes
no result."""

from __future__ import annotations

import os
import sys

from sliceplace import sim
from sliceplace.topology import build_reference_psn

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))

import layers  # noqa: E402
import worker  # noqa: E402
from spans import Tracer, instrument  # noqa: E402


def traced_run(algorithm: str) -> tuple[sim.MetricsReport, dict[str, float]]:
    """A scale-1 MIX run, untraced, then traced under every layer span:
    asserts that every span resolves and that tracing changes no result,
    and returns the untraced report and the layer metrics."""
    psn = build_reference_psn(1)
    scenario = sim.Scenario.named("MIX", 1.0, horizon=60.0)
    plain = sim.run(psn, scenario, algorithm, 5)
    tracer = Tracer()
    with instrument(tracer, layers.SPANS) as absent:
        traced = sim.run(psn, scenario, algorithm, 5)
    assert absent == []
    assert worker.digest(traced) == worker.digest(plain)
    return plain, layers.layer_metrics(tracer.stats)


def test_traced_ilp1_run_resolves_every_span_and_changes_no_result():
    plain, m = traced_run("ilp-1")
    assert m["exact.solve_ilp1.calls"] == plain.arrivals
    assert m["exact._enumerate_paths.calls"] > 0
    assert m["exact._enumerate_paths.paths_per_call"] > 0


def test_traced_p2c2_run_resolves_every_span_and_changes_no_result():
    plain, m = traced_run("p2c-2")
    assert m["p2c.place.calls"] == plain.arrivals
    # the eligibility observer reads a list (`len`, `not result`)
    assert m["placement.feasible_servers.calls"] > 0
    assert m["placement.feasible_servers.candidates_per_call"] > 0
    assert m["p2c.get_two_candidates.calls"] > 0
