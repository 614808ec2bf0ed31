"""Benchmark workloads: one simulator scenario each.

The simulator draws Poisson arrivals as an open loop in simulated time and
processes them back to back on the host, so host speed is work done per
second at the input size stated here. The benchmark seed is passed to
`sim.run` unchanged; the program receives only the seed and the scenario.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    load: float
    scale: int
    algorithm: str
    horizon: float
    why: str


WORKLOADS = {w.name: w for w in (
    # Mean holding time is 100. Held CPU climbs to its plateau (half the
    # capacity) by t=90, so horizon 150 covers the fill phase and 60 time
    # units of steady occupancy. Throughput spread 13 % between seeds at
    # horizon 120 and 6 % at 240, but the validated run grows faster than
    # the horizon (67 s at 200), so a longer horizon does not fit the time
    # a gated measurement gets.
    Workload("mix-s16-p2c2", "MIX", 1.0, 16, "p2c-2", 150.0,
             "proposed P2C-2 heuristic at 2016 servers: per-server eligibility "
             "scans in placement and p2c dominate"),
    # rho=0.6, not 1.0: at full load half the requests are cheap root
    # rejections and the median placement time flips between the two modes.
    Workload("mix-s1-ilp1", "MIX", 0.6, 1, "ilp-1", 6000.0,
             "exact ILP-1 branch-and-bound at 126 servers: path enumeration "
             "dominates and P2C code is never called"),
    # At twice the capacity held CPU plateaus by t=35; horizon 100 covers the
    # fill phase and 65 time units of steady overload.
    Workload("mix-s16-p2c1-overload", "MIX", 2.0, 16, "p2c-1", 100.0,
             "uniform P2C-1 at twice the capacity: half the arrivals are "
             "rejected mid-chain, so rollback and short eligibility lists dominate"),
)}

# Workloads in BENCHMARK.json. The overload workload runs with the others
# but is not gated: its validated run alone takes about 30 s, and three
# scale-16-sized workloads do not fit the time a full gated measurement gets.
GATED = ("mix-s16-p2c2", "mix-s1-ilp1")

# Ungated scale-sweep diagnostic: P2C per-placement time should stay flat
# across scales once eligibility no longer scans every server.
SWEEP_SCALES = (1, 4, 16, 64)
SWEEP_ALGORITHMS = ("p2c-1", "p2c-2")
SWEEP_LOAD = 1.0
SWEEP_HORIZON = 30.0
