"""The benchmark's layer spans on an exact-solver run: every span resolves,
the path-search observer reads the search's result, and tracing changes no
result."""

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


def test_traced_ilp1_run_resolves_every_span_and_changes_no_result():
    psn = build_reference_psn(1)
    scenario = sim.Scenario.named("MIX", 1.0, horizon=60.0)
    plain = sim.run(psn, scenario, "ilp-1", 5)
    tracer = Tracer()
    with instrument(tracer, layers.SPANS) as absent:
        traced = sim.run(psn, scenario, "ilp-1", 5)
    assert absent == []
    assert worker.digest(traced) == worker.digest(plain)
    m = layers.layer_metrics(tracer.stats)
    assert m["exact.solve_ilp1.calls"] == plain.arrivals
    assert m["exact._enumerate_paths.calls"] > 0
    assert m["exact._enumerate_paths.paths_per_call"] > 0
