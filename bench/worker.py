"""One benchmark process: set up, measure, check, print one JSON line.

    python3 bench/worker.py setup --scale S
    python3 bench/worker.py run   --workload W --seed N --seconds T [--trace]
    python3 bench/worker.py sweep --scale S --algorithm A --horizon H --seed N

`bench/run.py` starts each worker in a fresh process pinned to one CPU and
records the monotonic time at which it spawned it; the worker reports the
monotonic time at which `import sliceplace` plus `build_reference_psn` had
finished, so set-up time is the difference. Only the standard library and
the benchmark's own modules are imported before that point. The simulator
runs on the main thread; the only other thread is the host-speed probe
(hostspeed.py), which shares the same CPU.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _setup(scale: int):
    import sliceplace
    if not os.path.realpath(sliceplace.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"sliceplace imported from {sliceplace.__file__}, not {SRC}")
    from sliceplace.topology import build_reference_psn
    psn = build_reference_psn(scale)
    return psn, time.monotonic()


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    opts = dict(zip(argv[1::2], argv[2::2]))
    if mode not in ("setup", "run", "sweep"):
        print(__doc__, file=sys.stderr)
        return 2
    from hostspeed import Probe
    from workloads import WORKLOADS
    with Probe() as probe:
        started = time.monotonic()
        if mode == "run":
            wl = WORKLOADS[opts["--workload"]]
            psn, ready = _setup(wl.scale)
            out = measure(psn, wl, int(opts["--seed"]), float(opts["--seconds"]),
                          opts.get("--trace") == "1", probe)
        else:
            psn, ready = _setup(int(opts["--scale"]))
            out = {} if mode == "setup" else sweep_point(
                psn, opts["--algorithm"], float(opts["--horizon"]), int(opts["--seed"]))
    import json
    out["ready"] = ready
    out["setup_slowdown"], out["setup_probe_s"] = probe.window(started, ready)
    print(json.dumps(out))
    return 0


def digest(report) -> str:
    """sha256 of the report without host timings: equal digests mean
    byte-identical simulated results."""
    import hashlib
    import json
    obj = report.to_json()
    obj.pop("placement_time_ms", None)
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def statistics_of(report) -> dict:
    return {"arrivals": report.arrivals, "accepted": report.accepted,
            "rejected": report.rejected, "departures": report.departures,
            "blocking_attribution": {str(k): v for k, v in
                                     sorted(report.blocking_attribution.items())}}


def _timed_run(psn, scenario, wl, seed, **kwargs):
    """One `sim.run`; returns the report and its monotonic start and end,
    which `measure` matches against the host-speed samples."""
    import gc
    from sliceplace import sim
    gc.collect()
    start = time.monotonic()
    report = sim.run(psn, scenario, wl.algorithm, seed, measure_time=True, **kwargs)
    return report, start, time.monotonic()


def _checked_run(psn, scenario, wl, seed, failures: dict, tracer=None):
    """The untimed correctness pass: `validate=True` re-verifies every
    acceptance with the independent checker against the pre-commit state and
    audits resource conservation after every event."""
    from contextlib import nullcontext
    from sliceplace import sim
    from layers import CHECK_SPANS
    from spans import instrument
    try:
        with instrument(tracer, CHECK_SPANS) if tracer else nullcontext():
            report, _, _ = _timed_run(psn, scenario, wl, seed, validate=True)
    except sim.SimulationInvariantError as exc:
        print(f"checker violation: {exc}", file=sys.stderr)
        failures["violations"] += 1
        return None
    if report.validated_accepted != report.accepted:
        print(f"validated {report.validated_accepted} of {report.accepted} "
              f"accepted placements", file=sys.stderr)
        failures["violations"] += 1
    report.validated_accepted = 0   # the only field validation itself sets
    return report


def measure(psn, wl, seed: int, seconds: float, trace: bool, probe) -> dict:
    """Timed repeats of the workload until `seconds` have passed (with
    `trace`, one untraced and one traced run), then the checked run. Every
    run must give the same simulated results. Timings are reported at the
    reference host speed (see hostspeed.py), raw figures alongside."""
    import resource
    import statistics
    from sliceplace import sim
    scenario = sim.Scenario.named(wl.scenario, wl.load, horizon=wl.horizon)
    failures = {"exceptions": 0, "violations": 0, "budget": 0, "mismatch": 0}
    runs = []
    out: dict = {}
    try:
        while True:
            runs.append(_timed_run(psn, scenario, wl, seed))
            if trace or runs[-1][2] - runs[0][1] >= seconds:
                break
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            from layers import SPANS, layer_metrics
            from spans import Tracer, instrument
            tracer = Tracer()
            with instrument(tracer, SPANS) as absent:
                runs.append(_timed_run(psn, scenario, wl, seed))
            check_tracer = Tracer()
            checked = _checked_run(psn, scenario, wl, seed, failures, check_tracer)
        else:
            checked = _checked_run(psn, scenario, wl, seed, failures)
        out["checked_s"] = time.monotonic() - runs[-1][2]
    except Exception:
        import traceback
        traceback.print_exc()
        failures["exceptions"] += 1
        return {"failures": failures, "attempted": runs[0][0].arrivals if runs else 1}

    head = runs[0][0]
    ref_digest, ref_stats = digest(head), statistics_of(head)
    compared = [r for r, _, _ in runs] + ([checked] if checked is not None else [])
    for report in compared:
        if digest(report) != ref_digest or statistics_of(report) != ref_stats:
            print(f"simulated results differ between runs: {statistics_of(report)} "
                  f"vs {ref_stats}", file=sys.stderr)
            failures["mismatch"] += 1
    failures["budget"] = head.rejected_budget

    out.update(failures=failures, attempted=head.arrivals, digest=ref_digest,
               statistics=ref_stats, blocking_ratio=head.blocking_ratio,
               mean_cost_accepted=head.mean_cost_accepted)
    slowdown = [probe.window(start, end)[0] for _, start, end in runs]
    seconds_at_ref = [probe.at_reference(start, end) for _, start, end in runs]
    if trace:
        metrics = layer_metrics(tracer.stats)
        check = layer_metrics(check_tracer.stats)
        for name in metrics:
            if name.startswith("placement.check_placement."):
                metrics[name] = check[name]
        metrics["trace.overhead_ratio"] = seconds_at_ref[1] / seconds_at_ref[0]
        out.update(layers=metrics, absent=absent)
        return out
    out.update(
        slowdown=slowdown, repeats=len(runs), timed_s=runs[-1][2] - runs[0][1],
        raw_requests_per_s=len(runs) * head.arrivals / sum(e - s for _, s, e in runs),
        # total work over total time
        requests_per_s=len(runs) * head.arrivals / sum(seconds_at_ref),
        place_mean_ms=statistics.median(
            r.placement_time_ms["mean"] / f for (r, _, _), f in zip(runs, slowdown)),
        place_p50_ms=statistics.median(
            r.placement_time_ms["p50"] / f for (r, _, _), f in zip(runs, slowdown)))
    return out


def sweep_point(psn, algorithm: str, horizon: float, seed: int) -> dict:
    from sliceplace import sim
    from workloads import SWEEP_LOAD
    scenario = sim.Scenario.named("MIX", SWEEP_LOAD, horizon=horizon)
    t0 = time.perf_counter()
    report = sim.run(psn, scenario, algorithm, seed, measure_time=True)
    wall = time.perf_counter() - t0
    return {"arrivals": report.arrivals, "requests_per_s": report.arrivals / wall,
            "place_p50_ms": report.placement_time_ms["p50"]}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
