"""Host-speed probe for normalising timings on a noisy host.

On a shared virtual machine the same work can take up to twice as long from
one minute to the next, because neighbours contend for the physical core and
its caches. `Probe` runs a fixed pure-Python kernel (a bounded Dijkstra over
a fixed random graph, the same kind of work as the simulator's path
searches) on a background thread every 50 ms and records how long each
call took in thread CPU time. The kernel never changes with the
program, so the ratio of its mean time during a timed run to
`REFERENCE_KERNEL_S` says how much slower than the reference speed the host
ran then, and timings divided by that ratio read as if taken at the
reference speed.

The probe thread runs inside the worker process, which is pinned to one CPU,
so it samples the core and the caches the simulator runs on, interleaved
with it. It takes about 3 % of that core, which `at_reference` subtracts.
(A probe in a separate process tracked the simulator's speed less well:
`mix-s1-ilp1` throughput still spread 20 % between seeds, against 5 % with
the probe in the worker.) The kernel slows somewhat less than the simulator
under contention, so runs in slow phases still read a little low.
"""

from __future__ import annotations

import heapq
import random
import threading
import time

# Kernel time at the reference host speed: the fast state of the 2-core
# Intel Xeon VM the benchmark was calibrated on.
REFERENCE_KERNEL_S = 1.5e-3

_NODES = 4000
_DEGREE = 4
_POPS = 400
_PERIOD_S = 0.05


def _graph(seed: int = 7) -> list[list[tuple[int, float, float]]]:
    rnd = random.Random(seed)
    return [[(rnd.randrange(_NODES), rnd.random(), rnd.random()) for _ in range(_DEGREE)]
            for _ in range(_NODES)]


def _kernel(adj: list[list[tuple[int, float, float]]], src: int) -> int:
    dist = {src: 0.0}
    pq = [(0.0, src)]
    pops = _POPS
    while pq and pops:
        pops -= 1
        d, u = heapq.heappop(pq)
        if d > dist[u]:
            continue
        for v, lat, bw in adj[u]:
            if bw < 0.2:
                continue
            nd = d + lat
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(pq, (nd, v))
    return len(dist)


class Probe:
    """Samples host speed on a background thread while the block runs."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []   # (monotonic, kernel s)
        # (monotonic, CPU s) of building the graph, which the thread does
        # so that the caller's set-up is not delayed by more than its share
        self.build: tuple[float, float] | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        t0 = time.thread_time()
        adj = _graph()
        self.build = (time.monotonic(), time.thread_time() - t0)
        i = 0
        while not self._stop.wait(_PERIOD_S):
            t0 = time.thread_time()
            _kernel(adj, (i * 7919) % _NODES)
            self.samples.append((time.monotonic(), time.thread_time() - t0))
            i += 1

    def __enter__(self) -> "Probe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def window(self, start: float, end: float) -> tuple[float, float]:
        """(slowdown against the reference speed, probe CPU seconds) over
        the monotonic interval [start, end]."""
        spent = [dt for t, dt in self.samples if start <= t <= end]
        built = (self.build[1] if self.build and start <= self.build[0] <= end
                 else 0.0)
        if not spent:
            # an interval shorter than the sampling period: use the sample
            # nearest to it, which took none of the interval's time
            mid = (start + end) / 2
            nearest = min(self.samples, key=lambda s: abs(s[0] - mid))[1]
            return nearest / REFERENCE_KERNEL_S, built
        return sum(spent) / len(spent) / REFERENCE_KERNEL_S, sum(spent) + built

    def at_reference(self, start: float, end: float) -> float:
        """Seconds the interval would have lasted at the reference speed,
        without the probe's own share of the core."""
        slowdown, spent = self.window(start, end)
        return (end - start - spent) / slowdown
