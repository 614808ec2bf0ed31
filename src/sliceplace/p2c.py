"""Power-of-two-choices chain placement.

Walks the chain head to tail. Per VNF it collects eligible servers (under
TIER_PREFERRED only those of the best tier present), draws two candidates
without replacement from a `DrawStream`, and keeps the one whose
virtual-link path from the previous VNF's server holds less bandwidth (ties
favor the first draw; landing on the previous server itself costs nothing
and wins outright). The episode runs in one substrate transaction: rejection
at any VNF rolls it back to the exact pre-episode state and reports the
blocking VNF index.

It reads only what two choices need: the eligible ids come as one
`array('q')` (`feasible_servers`), of which the draw reads the length and
two entries, and a candidate behind the previous server's switch is joined
by `min_cost_path`'s closed form, without a search.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Sequence

import numpy as np

from .exact import SolveStatus
from .nspr import SliceRequest
from .placement import Placement, feasible_servers, min_cost_path
from .topology import PhysicalNetwork


# values drawn per call of a block-drawn stream
BLOCK = 256


def blocks(draw: Callable[[int], np.ndarray]) -> Iterator:
    """The values of `draw(BLOCK)`, block after block, one at a time as
    Python numbers. numpy's exponential, integer and uniform draws give the
    same values in blocks as one by one."""
    while True:
        yield from draw(BLOCK).tolist()


class DrawStream:
    """P2C's bounded integer draws, value for value those of
    `Generator.integers(0, n)` on the generator it is built from.

    Raw uint32 values come from the generator in blocks, so the generator
    runs up to a block ahead of the values handed out; `raw()` hands out the
    next one. `below(n)` reduces them as numpy does, by D. Lemire's
    method ("Fast Random Integer Generation in an Interval", ACM TOMACS
    29(1), 2019): the high word of u * n, with u redrawn while the low word
    falls below 2**32 % n, a test made only when the low word is below n.
    n == 1 draws nothing."""

    __slots__ = ("raw",)

    def __init__(self, rng: np.random.Generator) -> None:
        self.raw: Callable[[], int] = blocks(
            lambda k: rng.integers(1 << 32, size=k, dtype=np.uint32)).__next__

    def below(self, n: int) -> int:
        """A uniform integer in [0, n), for 1 <= n < 2**32."""
        if n == 1:
            return 0
        m = self.raw() * n
        if m & 0xFFFFFFFF < n:
            floor = (1 << 32) % n
            while m & 0xFFFFFFFF < floor:
                m = self.raw() * n
        return m >> 32


class Policy(Enum):
    """Which eligible servers a P2C draw comes from."""

    # every eligible server
    UNIFORM = 1
    # the eligible servers of the best tier present (CCP over CDC over EDC),
    # narrowed by `feasible_servers(..., best_tier=True)`
    TIER_PREFERRED = 2


class OutcomeStatus(str, Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"


@dataclass
class PlacementOutcome:
    status: OutcomeStatus
    placement: Placement | None
    cost: float
    # VNF index the episode failed at; None when accepted
    blocking_vnf: int | None
    # exact-search verdict; None for the heuristic
    solver_status: SolveStatus | None = None

    @property
    def accepted(self) -> bool:
        return self.status is OutcomeStatus.ACCEPTED

    def to_json(self, psn: PhysicalNetwork) -> dict:
        obj = {
            "status": self.status.value,
            "placement": None if self.placement is None else self.placement.to_json(psn),
            "cost": self.cost,
            "blocking_vnf": self.blocking_vnf,
        }
        if self.solver_status is not None:
            obj["solver_status"] = self.solver_status.value
        return obj


def get_two_candidates(candidates: Sequence[int],
                       stream: DrawStream) -> tuple[int, int]:
    """Draw two distinct candidates from a sequence, reading its length
    and the two entries drawn, as Python ints from the `array('q')` that
    `feasible_servers` returns; a single candidate is returned twice,
    without a draw. A list of the same ids gives the same pair from the
    same raw values.

    The draw is the one `rng.choice(len(candidates), 2, replace=False)`
    makes on the stream's generator, value for value and with as many raw
    values taken: numpy draws two of n by Floyd's algorithm (one index
    below n - 1, then one below n that stands for n - 1 when it repeats the
    first) and then shuffles the pair with one more bounded draw."""
    if not candidates:
        raise ValueError("candidate list is empty")
    n = len(candidates)
    if n == 1:
        return candidates[0], candidates[0]
    below = stream.below
    i = below(n - 1)
    j = below(n)
    if j == i:
        j = n - 1
    if below(2) == 0:
        i, j = j, i
    return candidates[i], candidates[j]


def place(psn: PhysicalNetwork, request: SliceRequest, policy: Policy,
          stream: DrawStream) -> PlacementOutcome:
    """Place one request, committing resources on acceptance.

    On rejection the episode's transaction rolls back, so the substrate is
    bit-identical to the pre-call state.
    """
    best_tier = policy is Policy.TIER_PREFERRED
    vnfs, vls = request.vnfs, request.vls
    x: dict[int, int] = {}
    y: dict[int, list[int]] = {}
    cost = 0.0
    used_e2e = 0.0
    last_s: int | None = None
    mark = psn.begin()
    accepted = False
    try:
        for v in range(1, len(vnfs) + 1):
            candidates = feasible_servers(psn, request, v, last_s, used_e2e_ms=used_e2e,
                                          best_tier=best_tier)
            if not candidates:
                return PlacementOutcome(OutcomeStatus.REJECTED, None, 0.0, v)
            s1, s2 = get_two_candidates(candidates, stream)
            cpu, ram = vnfs[v - 1].units
            if v == 1:
                psn.hold(s1, cpu, ram, (), 0)
                used_e2e = psn.access_latency(request.uap, psn.nodes[s1].dc)
                x[1] = last_s = s1
                continue

            vl = vls[v - 2]
            if last_s in (s1, s2):
                chosen, path = last_s, []
            else:
                eff_budget = min(vl.budget_ms, request.e2e_budget_ms - used_e2e)
                p1 = min_cost_path(psn, last_s, s1, vl.bw, eff_budget)
                p2 = p1 if s2 == s1 else min_cost_path(psn, last_s, s2, vl.bw, eff_budget)
                if p1 is None and p2 is None:
                    return PlacementOutcome(OutcomeStatus.REJECTED, None, 0.0, v)
                if p2 is None or (p1 is not None and len(p1) * vl.bw <= len(p2) * vl.bw):
                    chosen, path = s1, p1
                else:
                    chosen, path = s2, p2
            psn.hold(chosen, cpu, ram, path, vl.bw_units)
            for lid in path:
                used_e2e += psn.links[lid].latency_ms
            y[v - 1] = path
            cost += len(path) * vl.bw
            x[v] = last_s = chosen
        accepted = True
        return PlacementOutcome(OutcomeStatus.ACCEPTED, Placement(x, y, cost), cost, None)
    finally:
        # keep an accepted episode; undo a rejected or failed one
        (psn.commit if accepted else psn.rollback)(mark)
