"""The program's layer boundaries and the per-layer metrics derived from them.

Every span sits on a public call into one module (`sim`, `nspr`, `p2c`,
`placement`, `exact`, `topology`); `cli` and `config` only parse arguments
and read or write JSON around the same calls, so they are not traced.
Capacity primitives take microseconds, so they are counted, not timed.
"""

from __future__ import annotations

import statistics
from typing import Callable

from spans import Span, SpanStats


def _count(key: str, of: Callable[[object], float]):
    def observe(st: SpanStats, result) -> None:
        st.add(key, of(result))
    return observe


def _solve(st: SpanStats, result) -> None:
    st.add("nodes_explored", result.nodes_explored)
    st.add("budget_exceeded", result.status.name == "BUDGET_EXCEEDED")


def _paths(st: SpanStats, result) -> None:
    paths, truncated = result
    st.add("paths", len(paths))
    st.add("truncated", bool(truncated))


def _feasible(st: SpanStats, result) -> None:
    st.add("candidates", len(result))
    st.add("empty", not result)


SPANS = (
    Span("sim.run", "sliceplace.sim", "run",
         observe=_count("events", lambda r: r.arrivals + r.departures)),
    Span("nspr.make_request", "sliceplace.nspr", "make_request"),
    Span("p2c.place", "sliceplace.p2c", "place", durations=True,
         observe=_count("accepted", lambda r: r.accepted)),
    Span("p2c.get_two_candidates", "sliceplace.p2c", "get_two_candidates"),
    Span("placement.feasible_servers", "sliceplace.placement", "feasible_servers",
         observe=_feasible),
    Span("placement.latency_reach", "sliceplace.placement", "latency_reach",
         observe=_count("nodes", len)),
    Span("placement.min_cost_path", "sliceplace.placement", "min_cost_path",
         observe=_count("found", lambda r: r is not None)),
    Span("placement.apply_placement", "sliceplace.placement", "apply_placement"),
    Span("placement.release_placement", "sliceplace.placement", "release_placement"),
    Span("placement.check_placement", "sliceplace.placement", "check_placement",
         observe=_count("violations", lambda r: len(r.violations))),
    Span("exact.solve_ilp1", "sliceplace.exact", "solve_ilp1", durations=True,
         observe=_solve),
    Span("exact._enumerate_paths", "sliceplace.exact", "_enumerate_paths",
         observe=_paths),
    Span("topology.clone", "sliceplace.topology", "PhysicalNetwork.clone"),
    Span("topology.snapshot", "sliceplace.topology", "PhysicalNetwork.snapshot"),
    Span("topology.restore", "sliceplace.topology", "PhysicalNetwork.restore"),
) + tuple(
    Span(f"topology.{m}", "sliceplace.topology", f"PhysicalNetwork.{m}", timed=False)
    for m in ("allocate", "release", "allocate_bw", "release_bw", "access_latency"))

# The checker runs only in the validated pass, which is traced on its own so
# that the audit does not inflate the layer times of the traced run.
CHECK_SPANS = tuple(s for s in SPANS if s.name == "placement.check_placement")

Stats = dict[str, SpanStats]


def _calls(span):
    return lambda st: st[span].calls


def _busy(span):
    return lambda st: st[span].busy_s


def _self(span):
    return lambda st: st[span].self_s


def _total(span, key):
    return lambda st: st[span].counts.get(key, 0)


def _per_call(span, key):
    return lambda st: (st[span].counts.get(key, 0) / st[span].calls
                       if st[span].calls else 0.0)


def _p99_ms(span):
    def get(st: Stats) -> float:
        d = st[span].durations or []
        if len(d) < 2:
            return 1e3 * d[0] if d else 0.0
        return 1e3 * statistics.quantiles(d, n=100)[98]
    return get


# (name, unit, better, value from span stats); "better" of a count that
# describes decisions (accept ratio, nodes explored) is nominal: a pure
# speed-up must leave it unchanged.
METRICS: tuple[tuple[str, str, str, Callable[[Stats], float]], ...] = (
    ("sim.run.busy_s", "s", "lower", _busy("sim.run")),
    ("sim.run.self_s", "s", "lower", _self("sim.run")),
    ("sim.events", "count", "lower", _total("sim.run", "events")),
    ("nspr.make_request.calls", "count", "lower", _calls("nspr.make_request")),
    ("nspr.make_request.busy_s", "s", "lower", _busy("nspr.make_request")),
    ("p2c.place.calls", "count", "lower", _calls("p2c.place")),
    ("p2c.place.busy_s", "s", "lower", _busy("p2c.place")),
    ("p2c.place.self_s", "s", "lower", _self("p2c.place")),
    ("p2c.place.p99_ms", "ms", "lower", _p99_ms("p2c.place")),
    ("p2c.place.accept_ratio", "ratio", "higher", _per_call("p2c.place", "accepted")),
    ("p2c.get_two_candidates.calls", "count", "lower", _calls("p2c.get_two_candidates")),
    ("p2c.get_two_candidates.busy_s", "s", "lower", _busy("p2c.get_two_candidates")),
    ("placement.feasible_servers.calls", "count", "lower",
     _calls("placement.feasible_servers")),
    ("placement.feasible_servers.busy_s", "s", "lower",
     _busy("placement.feasible_servers")),
    ("placement.feasible_servers.self_s", "s", "lower",
     _self("placement.feasible_servers")),
    ("placement.feasible_servers.candidates_per_call", "servers/call", "lower",
     _per_call("placement.feasible_servers", "candidates")),
    ("placement.feasible_servers.empty_ratio", "ratio", "lower",
     _per_call("placement.feasible_servers", "empty")),
    ("placement.latency_reach.calls", "count", "lower", _calls("placement.latency_reach")),
    ("placement.latency_reach.busy_s", "s", "lower", _busy("placement.latency_reach")),
    ("placement.latency_reach.nodes_per_call", "nodes/call", "lower",
     _per_call("placement.latency_reach", "nodes")),
    ("placement.min_cost_path.calls", "count", "lower", _calls("placement.min_cost_path")),
    ("placement.min_cost_path.busy_s", "s", "lower", _busy("placement.min_cost_path")),
    ("placement.min_cost_path.found_ratio", "ratio", "higher",
     _per_call("placement.min_cost_path", "found")),
    ("placement.release_placement.calls", "count", "lower",
     _calls("placement.release_placement")),
    ("placement.release_placement.busy_s", "s", "lower",
     _busy("placement.release_placement")),
    ("placement.apply_placement.calls", "count", "lower",
     _calls("placement.apply_placement")),
    ("placement.apply_placement.busy_s", "s", "lower",
     _busy("placement.apply_placement")),
    ("placement.check_placement.calls", "count", "higher",
     _calls("placement.check_placement")),
    ("placement.check_placement.busy_s", "s", "lower",
     _busy("placement.check_placement")),
    ("placement.check_placement.violations", "count", "lower",
     _total("placement.check_placement", "violations")),
    ("exact.solve_ilp1.calls", "count", "lower", _calls("exact.solve_ilp1")),
    ("exact.solve_ilp1.busy_s", "s", "lower", _busy("exact.solve_ilp1")),
    ("exact.solve_ilp1.self_s", "s", "lower", _self("exact.solve_ilp1")),
    ("exact.solve_ilp1.p99_ms", "ms", "lower", _p99_ms("exact.solve_ilp1")),
    ("exact.nodes_explored", "count", "lower", _total("exact.solve_ilp1", "nodes_explored")),
    ("exact.budget_exceeded", "count", "lower", _total("exact.solve_ilp1", "budget_exceeded")),
    ("exact._enumerate_paths.calls", "count", "lower", _calls("exact._enumerate_paths")),
    ("exact._enumerate_paths.busy_s", "s", "lower", _busy("exact._enumerate_paths")),
    ("exact._enumerate_paths.paths_per_call", "paths/call", "lower",
     _per_call("exact._enumerate_paths", "paths")),
    ("exact._enumerate_paths.truncated", "count", "lower",
     _total("exact._enumerate_paths", "truncated")),
    ("topology.clone.busy_s", "s", "lower", _busy("topology.clone")),
    ("topology.snapshot.calls", "count", "lower", _calls("topology.snapshot")),
    ("topology.snapshot.busy_s", "s", "lower", _busy("topology.snapshot")),
    ("topology.restore.calls", "count", "lower", _calls("topology.restore")),
    ("topology.restore.busy_s", "s", "lower", _busy("topology.restore")),
) + tuple(
    (f"topology.{m}.calls", "count", "lower", _calls(f"topology.{m}"))
    for m in ("allocate", "release", "allocate_bw", "release_bw", "access_latency"))

# computed by the worker from the traced and untraced wall times
OVERHEAD = ("trace.overhead_ratio", "ratio", "lower")


def layer_metrics(stats: Stats) -> dict[str, float]:
    """Every per-layer metric; a span that never ran (or whose function is
    absent) reads as zero calls and zero time."""
    full = {s.name: stats.get(s.name, SpanStats()) for s in SPANS}
    return {name: float(get(full)) for name, _, _, get in METRICS}


def units() -> dict[str, str]:
    out = {name: unit for name, unit, _, _ in METRICS}
    out[OVERHEAD[0]] = OVERHEAD[1]
    return out
