"""Tests of the benchmark's own machinery: span arithmetic, attaching and
restoring wrappers, the results digest, and BENCHMARK.json agreeing with the
metrics the code emits."""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import sliceplace  # noqa: E402
from sliceplace import sim  # noqa: E402
from sliceplace.topology import PhysicalNetwork, build_reference_psn  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from hostspeed import REFERENCE_KERNEL_S, Probe  # noqa: E402
from spans import Span, Tracer, instrument  # noqa: E402
from workloads import GATED, WORKLOADS  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_on_nested_call_tree():
    clock = FakeClock()
    tracer = Tracer(clock)
    ns = {}

    def a():
        clock.tick(1)
        ns["b"]()
        clock.tick(2)
        ns["b"]()
        clock.tick(1)

    def b():
        clock.tick(1)
        ns["c"]()
        clock.tick(1)

    def c():
        clock.tick(3)

    for name, fn in (("a", a), ("b", b), ("c", c)):
        ns[name] = tracer.wrap(Span(name, "m", name), fn)
    ns["a"]()

    st = tracer.stats
    assert (st["c"].calls, st["c"].busy_s, st["c"].self_s) == (2, 6, 6)
    assert (st["b"].calls, st["b"].busy_s, st["b"].self_s) == (2, 10, 4)
    assert (st["a"].calls, st["a"].busy_s, st["a"].self_s) == (1, 14, 4)


def test_recursion_counts_busy_time_once():
    clock = FakeClock()
    tracer = Tracer(clock)
    ns = {}

    def r(n):
        clock.tick(1)
        if n:
            ns["r"](n - 1)

    ns["r"] = tracer.wrap(Span("r", "m", "r", durations=True), r)
    ns["r"](2)
    st = tracer.stats["r"]
    assert (st.calls, st.busy_s, st.self_s) == (3, 3, 3)
    assert st.durations == [1, 2, 3]


def test_span_records_even_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.tick(2)
        raise ValueError("x")

    wrapped = tracer.wrap(Span("boom", "m", "boom"), boom)
    with pytest.raises(ValueError):
        wrapped()
    assert (tracer.stats["boom"].calls, tracer.stats["boom"].busy_s) == (1, 2)


def _package_bindings() -> dict[tuple[str, str], object]:
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "sliceplace" or name.startswith("sliceplace.")):
            for key, value in vars(mod).items():
                if callable(value):
                    out[(name, key)] = value
    for key, value in vars(PhysicalNetwork).items():
        out[("PhysicalNetwork", key)] = value
    return out


def test_wrappers_attach_everywhere_and_restore_after_an_error():
    before = _package_bindings()
    original = sliceplace.placement.feasible_servers
    with pytest.raises(RuntimeError):
        with instrument(Tracer(), layers.SPANS) as absent:
            assert absent == []
            wrapped = sliceplace.placement.feasible_servers
            assert wrapped is not original
            # every module that looks the function up through its own
            # globals sees the same wrapper
            assert sliceplace.p2c.feasible_servers is wrapped
            assert sliceplace.feasible_servers is wrapped
            assert sliceplace.exact.latency_reach is sliceplace.placement.latency_reach
            assert vars(PhysicalNetwork)["clone"] is not before[("PhysicalNetwork", "clone")]
            raise RuntimeError("leave the block early")
    assert _package_bindings() == before


def test_absent_functions_are_reported_not_fatal():
    spans = (Span("gone.fn", "sliceplace.placement", "no_such_function"),
             Span("gone.mod", "sliceplace.no_such_module", "fn"),
             Span("gone.method", "sliceplace.topology", "PhysicalNetwork.no_such_method"))
    with instrument(Tracer(), spans) as absent:
        pass
    assert absent == ["gone.fn", "gone.mod", "gone.method"]
    metrics = layers.layer_metrics({})
    assert set(metrics) == {name for name, *_ in layers.METRICS}
    assert all(v == 0.0 for v in metrics.values())


@pytest.fixture(scope="module")
def small_run():
    psn = build_reference_psn(1)
    scenario = sim.Scenario.named("MIX", 1.0, horizon=60.0)
    return psn, scenario


def test_tracing_counts_calls_and_changes_no_result(small_run):
    psn, scenario = small_run
    plain = sim.run(psn, scenario, "p2c-2", 5, measure_time=True)
    tracer = Tracer()
    with instrument(tracer, layers.SPANS):
        traced = sim.run(psn, scenario, "p2c-2", 5, measure_time=True)
    assert worker.digest(traced) == worker.digest(plain)
    m = layers.layer_metrics(tracer.stats)
    assert m["p2c.place.calls"] == plain.arrivals
    assert m["sim.events"] == plain.arrivals + plain.departures
    assert m["p2c.place.accept_ratio"] == plain.accepted / plain.arrivals
    assert m["placement.release_placement.calls"] == plain.departures
    assert m["exact.solve_ilp1.calls"] == 0
    assert 0 < m["p2c.place.self_s"] < m["p2c.place.busy_s"] < m["sim.run.busy_s"]


def test_digest_is_stable_and_ignores_host_timings(small_run):
    psn, scenario = small_run
    first = sim.run(psn, scenario, "p2c-1", 3, measure_time=True)
    second = sim.run(psn, scenario, "p2c-1", 3, measure_time=True)
    assert first.placement_time_ms != second.placement_time_ms
    assert worker.digest(first) == worker.digest(second)
    other = sim.run(psn, scenario, "p2c-1", 4, measure_time=True)
    assert worker.digest(other) != worker.digest(first)


def test_host_speed_normalisation_arithmetic():
    probe = Probe()   # never started: samples are set by hand
    k = REFERENCE_KERNEL_S
    probe.samples = [(1.0, 2 * k), (2.0, 2 * k), (3.0, 4 * k), (10.0, k)]
    probe.build = (0.7, 5 * k)
    slowdown, spent = probe.window(0.5, 3.5)
    assert slowdown == pytest.approx(8 / 3) and spent == pytest.approx(13 * k)
    # 4 s at 8/3 times the reference kernel time, minus the probe's share
    assert probe.at_reference(0.5, 4.5) == pytest.approx((4 - 13 * k) * 3 / 8)
    # no sample inside: the nearest one stands in and took no time
    assert probe.window(9.0, 9.5) == (pytest.approx(1.0), 0.0)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: WORKLOADS[name].why for name in GATED}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.units()
    assert spec["paths"] == ["bench"]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
