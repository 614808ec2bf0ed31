"""Power-of-two-choices chain placement.

Walks the chain head to tail. Per VNF it collects eligible servers, draws two
candidates, and keeps the one whose virtual-link path from the previous VNF's
server holds less bandwidth (ties favor the first draw; landing on the
previous server itself costs nothing and wins outright). The episode runs in
one substrate transaction: rejection at any VNF rolls it back to the exact
pre-episode state and reports the blocking VNF index.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .exact import SolveStatus
from .nspr import SliceRequest
from .placement import Placement, feasible_servers, min_cost_path
from .topology import TIER_ORDER, PhysicalNetwork


class Policy(Enum):
    UNIFORM = 1
    # candidate draws come from the best non-empty tier of TIER_ORDER
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


def get_two_candidates(psn: PhysicalNetwork, candidates: Sequence[int],
                       policy: Policy, rng: np.random.Generator) -> tuple[int, int]:
    """Draw two candidate servers (without replacement) from an eligibility
    list. A single candidate is returned twice. TIER_PREFERRED first narrows
    the list, in one pass, to the highest tier present, CCP over CDC over
    EDC (servers outside any DC rank last)."""
    if not candidates:
        raise ValueError("candidate list is empty")
    pool = candidates
    if policy is Policy.TIER_PREFERRED:
        rank = psn.vectors().tier_rank
        best, pool = len(TIER_ORDER) + 1, []
        for s in candidates:
            r = rank[s]
            if r == best:
                pool.append(s)
            elif r < best:
                best, pool = r, [s]
    if len(pool) == 1:
        return pool[0], pool[0]
    i, j = rng.choice(len(pool), size=2, replace=False)
    return pool[int(i)], pool[int(j)]


def place(psn: PhysicalNetwork, request: SliceRequest, policy: Policy,
          rng: np.random.Generator) -> PlacementOutcome:
    """Place one request, committing resources on acceptance.

    On rejection the episode's transaction rolls back, so the substrate is
    bit-identical to the pre-call state.
    """
    x: dict[int, int] = {}
    y: dict[int, list[int]] = {}
    cost = 0.0
    used_e2e = 0.0
    last_s: int | None = None
    mark = psn.begin()
    accepted = False
    try:
        for v in range(1, request.n_vnfs + 1):
            candidates = feasible_servers(psn, request, v, last_s, used_e2e_ms=used_e2e)
            if not candidates:
                return PlacementOutcome(OutcomeStatus.REJECTED, None, 0.0, v)
            s1, s2 = get_two_candidates(psn, candidates, policy, rng)

            path: list[int] = []
            if v == 1:
                chosen = s1
            elif last_s in (s1, s2):
                chosen = last_s
            else:
                vl = request.vl(v - 1)
                eff_budget = min(vl.budget_ms, request.e2e_budget_ms - used_e2e)
                p1 = min_cost_path(psn, last_s, s1, vl.bw, eff_budget)
                p2 = p1 if s2 == s1 else min_cost_path(psn, last_s, s2, vl.bw, eff_budget)
                if p1 is None and p2 is None:
                    return PlacementOutcome(OutcomeStatus.REJECTED, None, 0.0, v)
                if p2 is None or (p1 is not None and len(p1) * vl.bw <= len(p2) * vl.bw):
                    chosen, path = s1, p1
                else:
                    chosen, path = s2, p2

            d = request.vnf(v)
            psn.allocate(chosen, d.cpu, d.ram)
            if v == 1:
                used_e2e = psn.access_latency(request.uap, psn.nodes[chosen].dc)
            else:
                vl = request.vl(v - 1)
                for lid in path:
                    psn.allocate_bw(lid, vl.bw)
                    used_e2e += psn.links[lid].latency_ms
                y[v - 1] = path
                cost += len(path) * vl.bw
            x[v] = chosen
            last_s = chosen
        accepted = True
        return PlacementOutcome(OutcomeStatus.ACCEPTED, Placement(x, y, cost), cost, None)
    finally:
        # keep an accepted episode; undo a rejected or failed one
        (psn.commit if accepted else psn.rollback)(mark)
