"""Slice request model: service classes, demand catalog, request factory.

A slice request is a linear chain of VNFs joined by virtual links. Each class
carries per-VNF CPU/RAM demands, a per-VL bandwidth demand, an access-latency
bound for the first VNF, per-VL latency budgets and an end-to-end budget.
Chain length is the number of VL budgets plus one.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple

from .topology import left_sum, to_units, typed


class SliceClass(str, Enum):
    BEST_EFFORT = "best_effort"
    URLLC = "urllc"
    EMBB = "embb"


@dataclass(frozen=True)
class ClassSpec:
    """Per-class demand and latency profile.

    `e2e_budget_ms` of None means the access bound plus the sum of VL budgets.
    Numbers must be finite, demands whole residual units (`to_units`).
    """

    cpu_per_vnf: float
    ram_per_vnf: float
    bw_per_vl: float
    alpha_max_ms: float
    vl_budgets_ms: tuple[float, ...]
    e2e_budget_ms: float | None = None

    def __post_init__(self) -> None:
        demands = (self.cpu_per_vnf, self.ram_per_vnf, self.bw_per_vl)
        if not all(map(math.isfinite, (*demands, self.alpha_max_ms, *self.vl_budgets_ms,
                                       self.effective_e2e_ms()))):
            raise ValueError("class numbers must be finite")
        if min(map(to_units, demands)) <= 0:
            raise ValueError("demands must be positive")
        if self.alpha_max_ms <= 0:
            raise ValueError("alpha_max_ms must be positive")
        if not self.vl_budgets_ms:
            raise ValueError("need at least one virtual link budget")
        if any(b <= 0 for b in self.vl_budgets_ms):
            raise ValueError("virtual link budgets must be positive")
        if self.e2e_budget_ms is not None and self.e2e_budget_ms < self.alpha_max_ms:
            raise ValueError("e2e budget cannot undercut the access bound")

    @property
    def chain_length(self) -> int:
        return len(self.vl_budgets_ms) + 1

    def effective_e2e_ms(self) -> float:
        if self.e2e_budget_ms is not None:
            return self.e2e_budget_ms
        return self.alpha_max_ms + left_sum(self.vl_budgets_ms)

    @functools.cached_property
    def chain(self) -> tuple[tuple[VnfDemand, ...], tuple[VlDemand, ...], float]:
        """The VNF and VL demand tuples and the effective end-to-end budget
        of this spec's requests, built on first use and shared by all of
        them."""
        vnfs = tuple(VnfDemand(self.cpu_per_vnf, self.ram_per_vnf)
                     for _ in range(self.chain_length))
        vls = tuple(VlDemand(self.bw_per_vl, b) for b in self.vl_budgets_ms)
        return vnfs, vls, self.effective_e2e_ms()


DEFAULT_CATALOG: Mapping[SliceClass, ClassSpec] = {
    SliceClass.BEST_EFFORT: ClassSpec(
        cpu_per_vnf=10.0, ram_per_vnf=60.0, bw_per_vl=1.0,
        alpha_max_ms=0.07, vl_budgets_ms=(0.67, 1.0, 1.33, 1.33)),
    SliceClass.URLLC: ClassSpec(
        cpu_per_vnf=15.0, ram_per_vnf=90.0, bw_per_vl=1.0,
        alpha_max_ms=0.03, vl_budgets_ms=(0.33, 0.33, 0.33, 0.33)),
    SliceClass.EMBB: ClassSpec(
        cpu_per_vnf=25.0, ram_per_vnf=150.0, bw_per_vl=2.0,
        alpha_max_ms=0.07, vl_budgets_ms=(0.33, 1.0, 1.0, 1.0)),
}

# Default traffic mix by request share.
DEFAULT_MIX: Mapping[SliceClass, float] = {
    SliceClass.BEST_EFFORT: 0.67,
    SliceClass.EMBB: 0.22,
    SliceClass.URLLC: 0.11,
}


@dataclass(frozen=True)
class VnfDemand:
    cpu: float
    ram: float

    @functools.cached_property
    def units(self) -> tuple[int, int]:
        """CPU and RAM as residual units (`to_units`), converted on first use."""
        return to_units(self.cpu), to_units(self.ram)


@dataclass(frozen=True)
class VlDemand:
    bw: float
    budget_ms: float

    @functools.cached_property
    def bw_units(self) -> int:
        """Bandwidth as residual units (`to_units`), converted on first use."""
        return to_units(self.bw)


@dataclass(frozen=True)
class SliceRequest:
    """One placement episode: a demand chain anchored at a UAP.

    VNFs are indexed 1..n and VLs 1..n-1; VL i joins VNF i to VNF i+1.
    """

    id: int
    cls: SliceClass
    uap: int
    vnfs: tuple[VnfDemand, ...]
    vls: tuple[VlDemand, ...]
    alpha_max_ms: float
    e2e_budget_ms: float
    arrival_time: float = 0.0
    holding_time: float = 0.0

    def __post_init__(self) -> None:
        if len(self.vnfs) != len(self.vls) + 1:
            raise ValueError("chain must have one more VNF than VLs")

    @property
    def n_vnfs(self) -> int:
        return len(self.vnfs)

    def vnf(self, v: int) -> VnfDemand:
        """Demand of VNF v, 1-indexed."""
        if not 1 <= v <= len(self.vnfs):
            raise IndexError(f"VNF index {v} outside 1..{len(self.vnfs)}")
        return self.vnfs[v - 1]

    def vl(self, i: int) -> VlDemand:
        """Demand of VL i (joins VNF i and i+1), 1-indexed."""
        if not 1 <= i <= len(self.vls):
            raise IndexError(f"VL index {i} outside 1..{len(self.vls)}")
        return self.vls[i - 1]


def make_request(cls: SliceClass, uap: int, *, request_id: int = 0,
                 arrival_time: float = 0.0, holding_time: float = 0.0,
                 catalog: Mapping[SliceClass, ClassSpec] = DEFAULT_CATALOG) -> SliceRequest:
    """A request of class cls at uap, equal to, hash-equal to and printed as
    `SliceRequest(...)` with the same fields. Its chain is the class's
    shared one (`ClassSpec.chain`), which holds one more VNF than VLs by
    construction, so the instance dict is filled directly, without the
    frozen initializer's checks and per-field `object.__setattr__`; it
    stays frozen."""
    spec = catalog[cls]
    vnfs, vls, e2e_budget_ms = spec.chain
    request = object.__new__(SliceRequest)
    # in field order, as the initializer fills it
    d = request.__dict__
    d["id"], d["cls"], d["uap"], d["vnfs"], d["vls"] = request_id, cls, uap, vnfs, vls
    d["alpha_max_ms"], d["e2e_budget_ms"] = spec.alpha_max_ms, e2e_budget_ms
    d["arrival_time"], d["holding_time"] = arrival_time, holding_time
    return request


class ClassTable(NamedTuple):
    """A validated mix as running totals of its shares, summed in enum
    declaration order, so identical seeds give identical draws whatever
    the mix's insertion order. `pick(u)` returns the first class whose
    running total exceeds u, and the last class when none does: the rule
    `acc += p; if u < acc: return c` decides the same, as the totals never
    fall."""

    classes: tuple[SliceClass, ...]
    bounds: tuple[float, ...]

    @classmethod
    def of(cls, mix: Mapping[SliceClass, float]) -> "ClassTable":
        classes = tuple(c for c in SliceClass if c in mix)
        if len(classes) != len(mix):
            raise ValueError("mix contains unknown classes")
        probs = [mix[c] for c in classes]
        if not all(p >= 0 for p in probs):
            raise ValueError("mix probabilities must be non-negative")
        total = left_sum(probs)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mix probabilities sum to {total}, need 1")
        return cls(classes, tuple(itertools.accumulate(probs)))

    def pick(self, u: float) -> SliceClass:
        return self.classes[min(bisect_right(self.bounds, u), len(self.classes) - 1)]


def catalog_from_json(obj: Mapping) -> dict[SliceClass, ClassSpec]:
    """Classes from a JSON object: class name -> an object of the
    `ClassSpec` fields, each a JSON number (`typed`; `vl_budgets_ms` a list
    of them, `e2e_budget_ms` null or absent too), and no other field.
    Raises KeyError, TypeError or ValueError."""
    names = {f.name for f in dataclasses.fields(ClassSpec)}
    catalog = {}
    for key, fields in obj.items():
        if not isinstance(fields, Mapping):
            raise ValueError(f"{key} must be an object, got {fields!r}")
        budgets = fields.get("vl_budgets_ms", [])
        if not isinstance(budgets, list):
            raise ValueError(f"{key} vl_budgets_ms must be a list, got {budgets!r}")
        unknown = set(fields) - names
        if unknown:
            raise ValueError(f"{key}: unknown fields {sorted(unknown)}")
        def number(value, name: str, nullable: bool = False) -> float | None:
            return typed(value, float, f"{key} {name}", ValueError, nullable=nullable)

        catalog[SliceClass(key)] = ClassSpec(
            **{name: number(fields[name], name)
               for name in ("cpu_per_vnf", "ram_per_vnf", "bw_per_vl", "alpha_max_ms")},
            vl_budgets_ms=tuple(number(b, "vl_budgets_ms") for b in fields["vl_budgets_ms"]),
            e2e_budget_ms=number(fields.get("e2e_budget_ms"), "e2e_budget_ms", True))
    return catalog
