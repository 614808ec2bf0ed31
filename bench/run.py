"""sliceplace benchmark.

    python3 bench/run.py                          # every workload, seed 1
    python3 bench/run.py --workload mix-s1-ilp1 --seed 3 --seconds 10 --trace 0
    python3 bench/run.py --workload mix-s1-ilp1 --trace 1   # per-layer metrics
    python3 bench/run.py --sweep                  # ungated scale sweep

Run from the root of a source checkout; the program is imported from its
`src/` directory. Each workload runs in its own fresh process, one after
another, pinned to one CPU. With `--trace 0` the last line of output is a
JSON object with the end-to-end metrics, with `--trace 1` one with the
per-layer metrics. The exit code is 0 when every output checked out, 1 when
a check failed and 2 when the program or an argument is missing. See
bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import units as layer_units  # noqa: E402
from workloads import (SWEEP_ALGORITHMS, SWEEP_HORIZON,  # noqa: E402
                       SWEEP_SCALES, WORKLOADS, Workload)

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
DEADLINE_S = 170.0          # every invocation ends well within 180 s
DEFAULT_SECONDS = 10.0      # run_seconds in BENCHMARK.json
SETUP_PROBES = 3            # plus the workload process itself: 4 samples

# Gated metrics. The median placement time is printed but not gated: it sits
# between the two modes of the per-placement time distribution, each holding
# about half the placements, and jumps between them from seed to seed.
END_TO_END_UNITS = {
    "requests_per_s": "1/s",
    "place_mean_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "blocking_ratio": "ratio",
    "mean_cost_accepted": "Gbps.hop",
}


class WorkerFailed(RuntimeError):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # fixed string hashing removes one source of run-to-run timing spread;
    # numpy must not start threads of its own
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; returns its JSON line and the monotonic
    time at which it was spawned."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], env=_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {' '.join(args)} ran past the deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1]), spawned


def _setup_at_reference(out: dict, spawned: float) -> float:
    """Spawn-to-ready seconds at the reference host speed, without the
    worker's host-speed probe."""
    return (out["ready"] - spawned - out["setup_probe_s"]) / out["setup_slowdown"]


def setup_seconds(scale: int, deadline: float) -> list[float]:
    """Set-up time of fresh processes; the first probe only warms the
    bytecode and file caches and is not kept."""
    samples = []
    for i in range(SETUP_PROBES + 1):
        out, spawned = _spawn(["setup", "--scale", str(scale)], deadline)
        if i:
            samples.append(_setup_at_reference(out, spawned))
    return samples


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """Measure one workload; returns the result object printed last."""
    setups = [] if trace else setup_seconds(wl.scale, deadline)
    out, spawned = _spawn(["run", "--workload", wl.name, "--seed", str(seed),
                           "--seconds", repr(seconds), "--trace", str(int(trace))],
                          deadline)
    failures = out["failures"]
    failed = sum(failures.values())
    attempted = max(1, out["attempted"])

    print(f"workload {wl.name}: {wl.scenario} rho={wl.load} scale={wl.scale} "
          f"{wl.algorithm} horizon={wl.horizon:g} seed={seed}")
    if "statistics" in out:
        print(f"  simulated: {json.dumps(out['statistics'])}")
        print(f"  results digest: sha256:{out['digest']}")
    print(f"  failures: {json.dumps(failures)}")
    print(f"  failed_ratio = {failed / attempted!r} ratio")
    if failed or "statistics" not in out:
        return {"correct": False, "attempted": attempted, "failed": max(1, failed),
                "metrics": {}}

    if trace:
        metrics = out["layers"]
        unit_of = layer_units()
        if out["absent"]:
            print(f"  absent spans (reported as zero): {', '.join(out['absent'])}")
    else:
        setups.append(_setup_at_reference(out, spawned))
        metrics = dict(out, setup_s=statistics.median(setups))
        unit_of = END_TO_END_UNITS
        print(f"  timed repeats: {out['repeats']} in {out['timed_s']:.1f} s, "
              f"checked run: {out['checked_s']:.1f} s, set-up samples: {len(setups)}")
        print(f"  host slowdown against the reference speed: "
              f"{' '.join(f'{f:.2f}' for f in out['slowdown'])}; requests_per_s "
              f"as measured: {out['raw_requests_per_s']:.1f} 1/s")
        print(f"  place_p50_ms = {out['place_p50_ms']!r} ms (not gated)")
    result = {name: {"value": metrics[name], "unit": unit_of[name]}
              for name in unit_of}
    for name, m in result.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    return {"correct": True, "attempted": attempted, "failed": 0, "metrics": result}


def sweep(seed: int, deadline: float) -> None:
    """Ungated diagnostic: P2C throughput and median placement time by scale."""
    print(f"scale sweep: MIX rho=1.0 horizon={SWEEP_HORIZON:g} seed={seed}")
    for scale in SWEEP_SCALES:
        for algorithm in SWEEP_ALGORITHMS:
            out, _ = _spawn(["sweep", "--scale", str(scale), "--algorithm", algorithm,
                             "--horizon", repr(SWEEP_HORIZON), "--seed", str(seed)],
                            deadline)
            print(f"  scale {scale:3d} {algorithm}: arrivals={out['arrivals']} "
                  f"requests_per_s={out['requests_per_s']:.1f} 1/s "
                  f"place_p50_ms={out['place_p50_ms']:.3f} ms", flush=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="sliceplace benchmark")
    ap.add_argument("--workload", default="all",
                    help=f"one of {', '.join(WORKLOADS)}, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="repeat the timed run until this much time is spent")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sweep", action="store_true",
                    help="print the ungated scale sweep instead")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sliceplace", "__init__.py")):
        print(f"bench: no program source under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # the workers inherit the pinning, so a worker's host-speed probe thread
    # shares the simulator's core and never takes the second one
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.sweep:
            sweep(args.seed, time.monotonic() + 3600.0)
            return 0
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        ok = True
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace), deadline)
            ok = ok and result["correct"]
            print(json.dumps(result), flush=True)
    except WorkerFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
