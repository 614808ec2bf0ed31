"""Request model: class catalog, chain construction, class sampling."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sliceplace.nspr import (
    DEFAULT_CATALOG,
    DEFAULT_MIX,
    ClassSpec,
    ClassTable,
    SliceClass,
    SliceRequest,
    catalog_from_json,
    make_request,
)


class TestCatalog:
    def test_best_effort(self):
        spec = DEFAULT_CATALOG[SliceClass.BEST_EFFORT]
        assert (spec.cpu_per_vnf, spec.ram_per_vnf, spec.bw_per_vl) == (10, 60, 1)
        assert spec.alpha_max_ms == 0.07
        assert spec.vl_budgets_ms == (0.67, 1.0, 1.33, 1.33)
        assert spec.effective_e2e_ms() == pytest.approx(4.40)

    def test_urllc(self):
        spec = DEFAULT_CATALOG[SliceClass.URLLC]
        assert (spec.cpu_per_vnf, spec.ram_per_vnf, spec.bw_per_vl) == (15, 90, 1)
        assert spec.alpha_max_ms == 0.03
        assert spec.vl_budgets_ms == (0.33, 0.33, 0.33, 0.33)
        assert spec.effective_e2e_ms() == pytest.approx(1.35)

    def test_embb(self):
        spec = DEFAULT_CATALOG[SliceClass.EMBB]
        assert (spec.cpu_per_vnf, spec.ram_per_vnf, spec.bw_per_vl) == (25, 150, 2)
        assert spec.alpha_max_ms == 0.07
        assert spec.vl_budgets_ms == (0.33, 1.0, 1.0, 1.0)
        assert spec.effective_e2e_ms() == pytest.approx(3.40)

    def test_chain_length(self):
        for spec in DEFAULT_CATALOG.values():
            assert spec.chain_length == 5

    def test_default_mix(self):
        assert DEFAULT_MIX[SliceClass.BEST_EFFORT] == 0.67
        assert DEFAULT_MIX[SliceClass.EMBB] == 0.22
        assert DEFAULT_MIX[SliceClass.URLLC] == 0.11
        assert sum(DEFAULT_MIX.values()) == pytest.approx(1.0)

    def test_explicit_e2e_budget_overrides_sum(self):
        spec = dataclasses.replace(DEFAULT_CATALOG[SliceClass.URLLC],
                                   e2e_budget_ms=0.5)
        assert spec.effective_e2e_ms() == 0.5

    @pytest.mark.parametrize("field,value", [
        ("cpu_per_vnf", 0.0),
        ("ram_per_vnf", -1.0),
        ("bw_per_vl", 0.0),
        ("alpha_max_ms", 0.0),
        ("vl_budgets_ms", ()),
        ("vl_budgets_ms", (0.33, -0.1)),
        ("e2e_budget_ms", -2.0),
    ])
    def test_invalid_spec_rejected(self, field, value):
        base = dataclasses.asdict(DEFAULT_CATALOG[SliceClass.URLLC])
        base[field] = value
        with pytest.raises(ValueError):
            ClassSpec(**base)


class TestMakeRequest:
    def test_chain_shape(self):
        req = make_request(SliceClass.EMBB, 7, request_id=42,
                           arrival_time=3.5, holding_time=80.0)
        assert req.n_vnfs == 5
        assert len(req.vnfs) == 5
        assert len(req.vls) == 4
        assert (req.id, req.uap) == (42, 7)
        assert (req.arrival_time, req.holding_time) == (3.5, 80.0)
        assert req.cls is SliceClass.EMBB

    def test_one_indexed_accessors(self):
        req = make_request(SliceClass.BEST_EFFORT, 0)
        assert req.vnf(1).cpu == 10
        assert req.vnf(5).ram == 60
        assert req.vl(1).budget_ms == 0.67
        assert req.vl(4).budget_ms == 1.33
        assert req.vl(2).bw == 1.0
        with pytest.raises((IndexError, KeyError, ValueError)):
            req.vnf(0)
        with pytest.raises((IndexError, KeyError, ValueError)):
            req.vnf(6)
        with pytest.raises((IndexError, KeyError, ValueError)):
            req.vl(5)

    def test_budgets_copied_from_catalog(self):
        req = make_request(SliceClass.URLLC, 2)
        assert req.alpha_max_ms == 0.03
        assert req.e2e_budget_ms == pytest.approx(1.35)
        assert [req.vl(i).budget_ms for i in range(1, 5)] == [0.33] * 4

    def test_custom_catalog(self):
        spec = dataclasses.replace(DEFAULT_CATALOG[SliceClass.URLLC],
                                   vl_budgets_ms=(1.0, 1.0), e2e_budget_ms=9.0)
        req = make_request(SliceClass.URLLC, 0,
                           catalog={SliceClass.URLLC: spec})
        assert req.n_vnfs == 3
        assert req.e2e_budget_ms == 9.0

    CUSTOM = {
        SliceClass.URLLC: ClassSpec(cpu_per_vnf=0.3, ram_per_vnf=0.1, bw_per_vl=0.7,
                                    alpha_max_ms=0.5, vl_budgets_ms=(2.0,)),
        SliceClass.EMBB: ClassSpec(cpu_per_vnf=1.0, ram_per_vnf=2.0, bw_per_vl=3.0,
                                   alpha_max_ms=0.1, vl_budgets_ms=(0.5,) * 7,
                                   e2e_budget_ms=2.0),
    }

    @pytest.mark.parametrize("catalog", [DEFAULT_CATALOG, CUSTOM], ids=["default", "custom"])
    def test_same_request_as_the_initializer(self, catalog):
        """Built without the initializer, a request is equal to, hashes as
        and prints as the one `SliceRequest(...)` builds from the same
        fields, and stays frozen."""
        for cls, spec in catalog.items():
            req = make_request(cls, 3, request_id=17, arrival_time=2.5, holding_time=40.0,
                               catalog=catalog)
            built = SliceRequest(
                id=17, cls=cls, uap=3, vnfs=spec.chain[0], vls=spec.chain[1],
                alpha_max_ms=spec.alpha_max_ms, e2e_budget_ms=spec.effective_e2e_ms(),
                arrival_time=2.5, holding_time=40.0)
            assert req == built and hash(req) == hash(built)
            assert repr(req) == repr(built)
            assert vars(req) == vars(built) and list(vars(req)) == list(vars(built))
            assert dataclasses.replace(req, id=18) == dataclasses.replace(built, id=18)
            for field in dataclasses.fields(SliceRequest):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(req, field.name, getattr(req, field.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                del req.id

    def test_the_initializer_still_validates(self):
        vnfs, vls, e2e = DEFAULT_CATALOG[SliceClass.URLLC].chain
        with pytest.raises(ValueError, match="one more VNF than VLs"):
            SliceRequest(id=0, cls=SliceClass.URLLC, uap=0, vnfs=vnfs[:-1], vls=vls,
                         alpha_max_ms=0.03, e2e_budget_ms=e2e)


def draw(rng: np.random.Generator, mix) -> SliceClass:
    """One class from a mix, drawn as `sim.run` draws it: a `ClassTable`
    picks with one uniform."""
    return ClassTable.of(mix).pick(rng.random())


class TestSampleClass:
    def test_frequencies_match_mix(self):
        rng = np.random.default_rng(404)
        n = 100_000
        counts = {c: 0 for c in SliceClass}
        for _ in range(n):
            counts[draw(rng, DEFAULT_MIX)] += 1
        for cls, share in DEFAULT_MIX.items():
            assert abs(counts[cls] / n - share) < 0.01

    def test_insertion_order_does_not_matter(self):
        mix_a = {SliceClass.BEST_EFFORT: 0.67, SliceClass.EMBB: 0.22,
                 SliceClass.URLLC: 0.11}
        mix_b = {SliceClass.URLLC: 0.11, SliceClass.BEST_EFFORT: 0.67,
                 SliceClass.EMBB: 0.22}
        assert ClassTable.of(mix_a) == ClassTable.of(mix_b)
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        draws_a = [draw(rng_a, mix_a) for _ in range(500)]
        draws_b = [draw(rng_b, mix_b) for _ in range(500)]
        assert draws_a == draws_b

    def test_degenerate_mix(self):
        rng = np.random.default_rng(0)
        mix = {SliceClass.URLLC: 1.0}
        assert all(draw(rng, mix) is SliceClass.URLLC for _ in range(50))

    def test_bad_mix_rejected(self):
        with pytest.raises(ValueError, match="sum to 0.5, need 1"):
            ClassTable.of({SliceClass.URLLC: 0.5})
        with pytest.raises(ValueError, match="must be non-negative"):
            ClassTable.of({SliceClass.URLLC: 1.2, SliceClass.EMBB: -0.2})
        with pytest.raises(ValueError, match="unknown classes"):
            ClassTable.of({SliceClass.URLLC: 0.5, "hologram": 0.5})

    def test_one_uniform_per_draw(self):
        """A draw consumes exactly one uniform of its stream: after 200
        draws the stream is where 200 `random()` calls leave it."""
        mix = {SliceClass.URLLC: 0.3, SliceClass.EMBB: 0.7}
        rng, uniforms = np.random.default_rng(8), np.random.default_rng(8)
        table = ClassTable.of(mix)
        for _ in range(200):
            assert draw(rng, mix) is table.pick(uniforms.random())
        assert rng.bit_generator.state == uniforms.bit_generator.state


def running_sum_pick(mix, u: float) -> SliceClass:
    """The sequential rule the class table replaces."""
    classes = [c for c in SliceClass if c in mix]
    acc = 0.0
    for c in classes:
        acc += mix[c]
        if u < acc:
            return c
    return classes[-1]


def running_sums(mix) -> list[float]:
    acc, out = 0.0, []
    for c in SliceClass:
        if c in mix:
            acc += mix[c]
            out.append(acc)
    return out


@st.composite
def mixes(draw):
    """Valid mixes over a subset of the classes, some shares zero."""
    classes = draw(st.lists(st.sampled_from(list(SliceClass)), min_size=1, unique=True))
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                            min_size=len(classes), max_size=len(classes)))
    if not any(weights):
        weights[-1] = 1.0
    total = sum(weights)
    return {c: w / total for c, w in zip(classes, weights)}


class TestClassTable:
    @given(mix=mixes(), data=st.data())
    def test_picks_as_the_running_sum(self, mix, data):
        edges = running_sums(mix)
        u = data.draw(st.one_of(
            st.floats(0.0, 1.0, exclude_max=True),
            st.sampled_from(edges),  # exactly at a running total
            st.sampled_from([math.nextafter(e, 0.0) for e in edges])))
        assert ClassTable.of(mix).pick(u) is running_sum_pick(mix, u)

    def test_mix_short_of_one(self):
        # within the 1e-9 tolerance, a uniform past the last running total
        # falls to the last class
        mix = {SliceClass.BEST_EFFORT: 0.5, SliceClass.EMBB: 0.25,
               SliceClass.URLLC: 0.25 - 1e-10}
        table = ClassTable.of(mix)
        last = running_sums(mix)[-1]
        assert last < 1.0
        for u in (0.0, 0.25, 0.5, 0.75, math.nextafter(last, 0.0), last,
                  (last + 1.0) / 2, math.nextafter(1.0, 0.0)):
            assert table.pick(u) is running_sum_pick(mix, u)
        assert table.pick(math.nextafter(1.0, 0.0)) is SliceClass.EMBB
        assert table.pick(0.5) is SliceClass.URLLC


# the default catalog as a config file states it
DEFAULT_CATALOG_DOC = {
    "best_effort": {"cpu_per_vnf": 10.0, "ram_per_vnf": 60.0, "bw_per_vl": 1.0,
                    "alpha_max_ms": 0.07, "vl_budgets_ms": [0.67, 1.0, 1.33, 1.33]},
    "urllc": {"cpu_per_vnf": 15.0, "ram_per_vnf": 90.0, "bw_per_vl": 1.0,
              "alpha_max_ms": 0.03, "vl_budgets_ms": [0.33, 0.33, 0.33, 0.33]},
    "embb": {"cpu_per_vnf": 25.0, "ram_per_vnf": 150.0, "bw_per_vl": 2.0,
             "alpha_max_ms": 0.07, "vl_budgets_ms": [0.33, 1.0, 1.0, 1.0]},
}


class TestCatalogSerialization:
    def test_roundtrip(self):
        assert catalog_from_json(DEFAULT_CATALOG_DOC) == DEFAULT_CATALOG

    def test_roundtrip_with_override(self):
        embb = {**DEFAULT_CATALOG_DOC["embb"], "e2e_budget_ms": 2.5}
        doc = {**DEFAULT_CATALOG_DOC, "embb": embb}
        back = catalog_from_json(doc)
        assert back[SliceClass.EMBB] == dataclasses.replace(DEFAULT_CATALOG[SliceClass.EMBB],
                                                            e2e_budget_ms=2.5)
        assert back[SliceClass.EMBB].effective_e2e_ms() == 2.5

    def test_unknown_class_rejected(self):
        doc = {**DEFAULT_CATALOG_DOC, "hologram": DEFAULT_CATALOG_DOC["urllc"]}
        with pytest.raises((ValueError, KeyError)):
            catalog_from_json(doc)

    @pytest.mark.parametrize("field, value", [
        ("cpu_per_vnf", True), ("cpu_per_vnf", "10"), ("alpha_max_ms", "0.03"),
        ("vl_budgets_ms", [0.33, True, 0.33, 0.33]), ("vl_budgets_ms", ["0.33"] * 4),
        ("vl_budgets_ms", "0.33"), ("vl_budgets_ms", 5), ("e2e_budget_ms", False)])
    def test_non_number_rejected(self, field, value):
        """A boolean or a string is no number, read directly as through a
        config: float() would take true as 1.0 and "10" as 10.0."""
        doc = {**DEFAULT_CATALOG_DOC, "urllc": {**DEFAULT_CATALOG_DOC["urllc"], field: value}}
        with pytest.raises(ValueError, match=f"urllc {field}"):
            catalog_from_json(doc)

    @pytest.mark.parametrize("entry", ["abc", ["cpu_per_vnf"], 5, None])
    def test_entry_not_an_object_rejected(self, entry):
        """A class entry must be an object: a string was read as its
        characters, each an unknown field, and a list as its items."""
        with pytest.raises(ValueError, match="urllc must be an object"):
            catalog_from_json({**DEFAULT_CATALOG_DOC, "urllc": entry})
