"""CLI: subcommands, exit codes, config resolution, output files."""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sliceplace.cli import main
from sliceplace.config import ConfigError, RunConfig
from sliceplace.nspr import SliceClass, catalog_from_json
from sliceplace.topology import PhysicalNetwork, TopologyError, TopologyParams, params_from_json

from conftest import forbid_build, forbid_events, make_single_dc
from test_exact import relay_line_network


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the default best-effort entry, as a config file states it
BEF_ONLY_CATALOG = {"best_effort": {
    "cpu_per_vnf": 10.0, "ram_per_vnf": 60.0, "bw_per_vl": 1.0,
    "alpha_max_ms": 0.07, "vl_budgets_ms": [0.67, 1.0, 1.33, 1.33], "e2e_budget_ms": None}}


def bef_only_catalog(**fields) -> dict:
    """BEF_ONLY_CATALOG with some fields of its one entry replaced."""
    return {"best_effort": {**BEF_ONLY_CATALOG["best_effort"], **fields}}


@pytest.fixture()
def topo_file(tmp_path):
    path = tmp_path / "topo.json"
    code = main(["generate", "--scale", "1", "--out", str(path)])
    assert code == 0
    return str(path)


class TestGenerate:
    def test_stdout_inventory(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--scale", "1")
        assert code == 0
        net = PhysicalNetwork.from_json(json.loads(out))
        assert len(list(net.servers())) == 126
        assert len(net.uaps) == 15

    def test_scale_two_to_file(self, tmp_path, capsys):
        path = tmp_path / "t2.json"
        code, out, _ = run_cli(capsys, "generate", "--scale", "2", "--out", str(path))
        assert code == 0
        assert out == ""
        net = PhysicalNetwork.load(str(path))
        assert len(list(net.servers())) == 252

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "generate", "--scale", "1")
        _, second, _ = run_cli(capsys, "generate", "--scale", "1")
        assert first == second

    def test_invalid_scale(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--scale", "0")
        assert code == 2
        assert "error" in err

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestSubstrateBound:
    """Parameters that would build more than `topology.MAX_GENERATED`
    servers or links exit 2 before the generator adds anything, however
    they arrive."""

    @pytest.mark.parametrize("argv", [
        ("generate",),
        ("place", "--class", "urllc"),
        ("simulate", "--algorithm", "p2c-1"),
        ("compare",),
    ], ids=["generate", "place", "simulate", "compare"])
    def test_huge_scale_exits_two(self, capsys, monkeypatch, argv):
        forbid_build(monkeypatch)
        started = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--scale", str(2**70))
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        assert "at most 100000" in err and "Traceback" not in err

    @pytest.mark.parametrize("topology", [
        {"scale": 2**70},
        {"servers_per_edc": 2**70},
        {"cdc_count": 500, "edc_count": 500},
    ], ids=["scale", "servers_per_edc", "cdc_mesh"])
    def test_huge_config_exits_two(self, tmp_path, capsys, monkeypatch, topology):
        forbid_build(monkeypatch)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"topology": topology}))
        for argv in (("generate",), ("simulate", "--algorithm", "p2c-1")):
            started = time.perf_counter()
            code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
            assert time.perf_counter() - started < 1.0
            assert (code, out) == (2, "")
            assert "at most 100000" in err and "Traceback" not in err


class TestPlace:
    def test_accepted_default_algorithm(self, capsys, topo_file):
        code, out, _ = run_cli(capsys, "place", "--topology", topo_file,
                               "--class", "urllc", "--seed", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "accepted"
        assert doc["algorithm"] == "p2c-2"
        assert doc["class"] == "urllc"
        assert isinstance(doc["placement"]["x"], dict)
        assert doc["cost"] >= 0.0

    def test_ilp1_optimal_cost(self, capsys, topo_file):
        code, out, _ = run_cli(capsys, "place", "--topology", topo_file,
                               "--class", "urllc", "--algorithm", "ilp-1")
        assert code == 0
        doc = json.loads(out)
        assert doc["solver_status"] == "optimal"
        assert doc["cost"] == pytest.approx(2.0)

    @pytest.mark.parametrize("algorithm", ["ilp-1", "ilp-2"])
    def test_exact_search_on_a_long_relay_line(self, tmp_path, capsys, algorithm):
        """A line of 1,500 routers behind the switch: the exact search
        places the request as P2C does, with no recursion error."""
        path = tmp_path / "line.json"
        path.write_text(json.dumps(relay_line_network().to_json()))
        code, out, _ = run_cli(capsys, "place", "--topology", str(path),
                               "--class", "urllc", "--algorithm", algorithm)
        assert code == 0
        doc = json.loads(out)
        assert (doc["status"], doc["solver_status"]) == ("accepted", "optimal")

    def test_a_chain_too_long_for_the_exact_search(self, tmp_path, capsys, topo_file):
        """800 VNFs: the exact search refuses the chain with exit 2 and a
        message that names its length and the limit; P2C places it."""
        cfg = tmp_path / "long.json"
        cfg.write_text(json.dumps({"catalog": bef_only_catalog(
            cpu_per_vnf=0.05, ram_per_vnf=0.3, vl_budgets_ms=[1.0] * 799)}))
        for algorithm in ("ilp-1", "ilp-2"):
            code, out, err = run_cli(capsys, "place", "--config", str(cfg), "--topology",
                                     topo_file, "--class", "best_effort",
                                     "--algorithm", algorithm)
            assert (code, out) == (2, "")
            assert "800 VNFs" in err and "limit of 256" in err and "Traceback" not in err
        code, out, _ = run_cli(capsys, "place", "--config", str(cfg), "--topology",
                               topo_file, "--class", "best_effort", "--algorithm", "p2c-1")
        assert code == 0
        assert json.loads(out)["status"] == "accepted"

    def test_rejection_exits_one(self, tmp_path, capsys):
        # access latency beyond every class bound: nothing can host the root
        net = make_single_dc(servers=2, params=TopologyParams(access_latency_ms=0.05))
        path = tmp_path / "far.json"
        path.write_text(json.dumps(net.to_json()))
        code, out, _ = run_cli(capsys, "place", "--topology", str(path),
                               "--class", "urllc")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "rejected"
        assert doc["blocking_vnf"] == 1
        assert doc["placement"] is None

    @pytest.mark.parametrize("breakage", ["endpoint", "residual", "latency", "switch",
                                          "unlisted", "duplicate", "parallel",
                                          "params_scale", "params_cpu", "params_bool",
                                          "residual_units", "params_units", "node_id_bool",
                                          "switch_bool", "endpoint_bool", "capacity_bool",
                                          "latency_string", "duplicate_dc", "duplicate_uap"])
    def test_malformed_topology_exits_two(self, tmp_path, capsys, topo_file, breakage):
        doc = json.loads(open(topo_file).read())
        transport = next(l for l in doc["links"] if l["kind"] == "transport")
        dc = doc["data_centers"][0]
        server = doc["nodes"][dc["servers"][0]]
        # each boolean or string below reads, through a bare cast or an
        # equality test, as a valid number or id of the same document
        if breakage == "node_id_bool":
            doc["nodes"][1]["id"] = True
        elif breakage == "switch_bool":
            assert dc["switch"] == 0
            dc["switch"] = False
        elif breakage == "endpoint_bool":
            link = next(l for l in doc["links"] if l["a"] == 0)
            link["a"] = False
        elif breakage == "capacity_bool":
            server["cpu_capacity"], server["cpu_residual"] = True, 1.0
        elif breakage == "latency_string":
            transport["latency_ms"] = str(transport["latency_ms"])
        elif breakage == "duplicate_dc":
            # read into a dict by id, the copy would replace its original
            doc["data_centers"].append(dict(dc))
        elif breakage == "duplicate_uap":
            # a UAP listed twice would be drawn twice as often as the others
            doc["uaps"].append(doc["uaps"][0])
        elif breakage == "endpoint":
            transport["b"] = len(doc["nodes"]) + 5
        elif breakage == "residual":
            transport["bw_residual"] = None
        elif breakage == "latency":
            # a negative link would let the access-latency search loop forever
            transport["latency_ms"] = -1.0
        elif breakage == "switch":
            dc["switch"] = dc["servers"][0]
        elif breakage == "unlisted":
            dc["servers"].pop()
        elif breakage == "duplicate":
            dc["servers"].append(dc["servers"][0])
        elif breakage == "params_scale":
            doc["params"]["scale"] = 1.5
        elif breakage == "params_cpu":
            doc["params"]["server_cpu"] = -3
        elif breakage == "params_bool":
            doc["params"]["servers_per_edc"] = True
        elif breakage == "residual_units":
            # below the residual unit of 1e-6 Gbps
            transport["bw_residual"] = transport["bw_capacity"] - 1e-7
        elif breakage == "params_units":
            doc["params"]["server_cpu"] = 0.1234567
        else:
            # a second link between the same two switches
            doc["links"].append(dict(transport, id=len(doc["links"])))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "place", "--topology", str(path),
                                 "--class", "urllc")
        assert code == 2
        assert out == ""
        assert "error" in err and "Traceback" not in err

    def test_topology_not_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "topo.json"
        path.write_text("{not json")
        code, out, err = run_cli(capsys, "place", "--topology", str(path), "--class", "urllc")
        assert code == 2
        assert out == ""
        assert "not valid JSON" in err and "Traceback" not in err

    def test_missing_topology_file_exits_three(self, capsys):
        code, out, err = run_cli(capsys, "place", "--topology", "/no/such/topo.json",
                                 "--class", "urllc")
        assert code == 3
        assert out == ""
        assert "error" in err

    def test_outcome_file(self, tmp_path, capsys, topo_file):
        out_path = tmp_path / "outcome.json"
        code, out, _ = run_cli(capsys, "place", "--topology", topo_file,
                               "--class", "best_effort", "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["status"] == "accepted"

    def test_unknown_algorithm(self, capsys, topo_file):
        code, _, err = run_cli(capsys, "place", "--topology", topo_file,
                               "--class", "urllc", "--algorithm", "greedy")
        assert code == 2
        assert "unknown algorithm" in err

    def test_unknown_class(self, capsys, topo_file):
        code, _, err = run_cli(capsys, "place", "--topology", topo_file,
                               "--class", "gaming")
        assert code == 2
        assert "unknown slice class" in err

    def test_class_missing_from_catalog(self, tmp_path, capsys, topo_file):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"catalog": BEF_ONLY_CATALOG}))
        code, out, err = run_cli(capsys, "place", "--config", str(cfg),
                                 "--topology", topo_file, "--class", "urllc")
        assert code == 2
        assert out == ""
        assert "urllc" in err and "Traceback" not in err

    def test_uap_out_of_range(self, capsys, topo_file):
        code, _, err = run_cli(capsys, "place", "--topology", topo_file,
                               "--class", "urllc", "--uap", "99")
        assert code == 2
        assert "outside" in err


class TestCheck:
    @pytest.fixture()
    def outcome_file(self, tmp_path, capsys, topo_file):
        path = tmp_path / "outcome.json"
        code = main(["place", "--topology", topo_file, "--class", "urllc",
                     "--seed", "5", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        return str(path)

    def test_round_trip_ok(self, capsys, topo_file, outcome_file):
        code, out, _ = run_cli(capsys, "check", "--topology", topo_file,
                               "--class", "urllc", "--placement", outcome_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["violations"] == []

    def test_corrupted_root_fails(self, tmp_path, capsys, topo_file, outcome_file):
        doc = json.loads(open(outcome_file).read())
        doc["placement"]["x"]["1"] = 18  # a CDC server: root must sit in the home EDC
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "check", "--topology", topo_file,
                               "--class", "urllc", "--placement", str(bad))
        assert code == 1
        verdict = json.loads(out)
        assert verdict["ok"] is False
        codes = {v["constraint"] for v in verdict["violations"]}
        assert codes and codes <= set(range(1, 11))
        assert 9 in codes

    def test_malformed_placement(self, tmp_path, capsys, topo_file, outcome_file):
        doc = json.loads(open(outcome_file).read())
        doc["placement"]["x"]["1"] = 99999
        bad = tmp_path / "malformed.json"
        # an unknown server, then x or y not an object and a path not a list;
        # a hop from a node past the last, one from a negative node (Python
        # would index from the end, to uap10's access link) and a boolean
        # for a server; a rejected place outcome and a document without x;
        # VNF indices that int() reads as another one's, and JSON that is
        # not a document
        for case in (doc, {"x": 5}, {"x": {"1": 3}, "y": 7}, {"x": {"1": 3}, "y": {"1": 5}},
                     {"x": {"1": 3}, "y": {"1": [[5000, 0]]}},
                     {"x": {"1": 3}, "y": {"1": [[-5, 122]]}},
                     {"x": {"1": True}},
                     {"status": "rejected", "placement": None}, {"y": {}},
                     {"x": {"1": 3, "01": 4}}, {"x": {"1_0": 3}}, [1, 2]):
            bad.write_text(json.dumps(case))
            code, out, err = run_cli(capsys, "check", "--topology", topo_file,
                                     "--class", "urllc", "--placement", str(bad))
            assert code == 2, case
            assert out == ""
            assert "error" in err and "Traceback" not in err

    def test_placement_not_json_exits_two(self, tmp_path, capsys, topo_file):
        bad = tmp_path / "placement.json"
        bad.write_text("x = {1: 3}")
        code, out, err = run_cli(capsys, "check", "--topology", topo_file,
                                 "--class", "urllc", "--placement", str(bad))
        assert code == 2
        assert out == ""
        assert "not valid JSON" in err and "Traceback" not in err

    def test_missing_placement_file(self, capsys, topo_file):
        code, _, err = run_cli(capsys, "check", "--topology", topo_file,
                               "--class", "urllc", "--placement", "/no/such.json")
        assert code == 3
        assert "error" in err


def serial_pool(monkeypatch, cpus: int, affinity: bool = True) -> list[int]:
    """Make `cli.ProcessPoolExecutor` a pool that records its size and maps
    in this process, so no worker starts, on a process that may use cpus
    CPUs: by its affinity, or, with affinity False, by `os.cpu_count` with
    no `os.sched_getaffinity`. Returns the list of recorded sizes."""
    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("sliceplace.cli.ProcessPoolExecutor", SerialPool)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return workers


SIM_ARGS = ["--scenario", "URLLC", "--load", "0.4", "--horizon", "60",
            "--replications", "2", "--seed", "3"]


class TestSimulate:
    def test_metrics_document(self, tmp_path, capsys):
        out_path = tmp_path / "metrics.json"
        code, _, _ = run_cli(capsys, "simulate", "--algorithm", "p2c-1",
                             *SIM_ARGS, "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["aggregate"]["replications"] == 2
        assert len(doc["replications"]) == 2
        assert doc["aggregate"]["algorithm"] == "p2c-1"
        assert [r["seed"] for r in doc["replications"]] == [[3, 0], [3, 1]]
        assert all(r["arrivals"] > 0 for r in doc["replications"])

    def test_rerun_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["simulate", "--algorithm", "p2c-1", *SIM_ARGS,
                         "--out", str(path)]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_parallel_jobs_match_serial(self, tmp_path, capsys):
        serial, parallel = tmp_path / "serial.json", tmp_path / "parallel.json"
        assert main(["simulate", "--algorithm", "p2c-1", *SIM_ARGS,
                     "--jobs", "1", "--out", str(serial)]) == 0
        assert main(["simulate", "--algorithm", "p2c-1", *SIM_ARGS,
                     "--jobs", "2", "--out", str(parallel)]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()

    def test_worker_pool_bounded_by_replications(self, tmp_path, capsys, monkeypatch):
        workers = serial_pool(monkeypatch, cpus=4)
        serial, pooled = tmp_path / "serial.json", tmp_path / "pooled.json"
        assert main(["simulate", "--algorithm", "p2c-1", *SIM_ARGS,
                     "--jobs", "1", "--out", str(serial)]) == 0
        assert workers == []
        assert main(["simulate", "--algorithm", "p2c-1", *SIM_ARGS,
                     "--jobs", "64", "--out", str(pooled)]) == 0
        capsys.readouterr()
        assert workers == [2]  # SIM_ARGS asks for 2 replications
        assert serial.read_bytes() == pooled.read_bytes()

    @pytest.mark.parametrize("affinity", [True, False])
    def test_worker_pool_bounded_by_cpus(self, tmp_path, capsys, monkeypatch, affinity):
        """More jobs and replications than the two CPUs this process may use
        (by its affinity, or the machine's count where that call is missing):
        the pool gets two workers, and the results are the serial ones."""
        workers = serial_pool(monkeypatch, cpus=2, affinity=affinity)
        args = [*SIM_ARGS, "--horizon", "10", "--replications", "3"]
        serial, pooled = tmp_path / "serial.json", tmp_path / "pooled.json"
        assert main(["simulate", "--algorithm", "p2c-1", *args, "--out", str(serial)]) == 0
        assert main(["simulate", "--algorithm", "p2c-1", *args,
                     "--jobs", "5000", "--out", str(pooled)]) == 0
        capsys.readouterr()
        assert workers == [2]
        assert serial.read_bytes() == pooled.read_bytes()

    def test_validate_and_measure_time_flags(self, tmp_path, capsys):
        out_path = tmp_path / "metrics.json"
        assert main(["simulate", "--algorithm", "p2c-1", *SIM_ARGS, "--validate",
                     "--measure-time", "--out", str(out_path)]) == 0
        plain = tmp_path / "plain.json"
        assert main(["simulate", "--algorithm", "p2c-1", *SIM_ARGS, "--out", str(plain)]) == 0
        capsys.readouterr()
        checked = json.loads(out_path.read_text())["replications"]
        for report, unchecked in zip(checked, json.loads(plain.read_text())["replications"]):
            assert report["validated_accepted"] == report["accepted"] > 0
            assert report["placement_time_ms"]["count"] == report["arrivals"]
            assert unchecked["validated_accepted"] == 0 and "placement_time_ms" not in unchecked
            assert report["accepted"] == unchecked["accepted"]

    def test_config_with_an_explicit_mix(self, tmp_path, capsys):
        doc = {"scenario": {"name": "split", "mix": {"urllc": 0.5, "embb": 0.5},
                            "horizon": 40.0, "replications": 1},
               "algorithm": "p2c-1"}
        scenario = RunConfig.from_json(doc).scenario(target_load=0.4)
        assert scenario.name == "split"
        assert scenario.mix == {SliceClass.URLLC: 0.5, SliceClass.EMBB: 0.5}
        cfg = tmp_path / "mix.json"
        cfg.write_text(json.dumps(doc))
        out_path = tmp_path / "metrics.json"
        assert main(["simulate", "--config", str(cfg), "--load", "0.4",
                     "--out", str(out_path)]) == 0
        capsys.readouterr()
        report, = json.loads(out_path.read_text())["replications"]
        assert report["scenario"] == "split"
        assert set(report["per_class"]) == {"urllc", "embb"}
        assert all(c["arrivals"] > 0 for c in report["per_class"].values())

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_two(self, capsys, jobs):
        code, out, err = run_cli(capsys, "simulate", "--algorithm", "p2c-1",
                                 *SIM_ARGS, "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert "--jobs" in err

    @pytest.mark.parametrize("scenario, extra", [
        ({"target_load": 1e17}, {}),
        ({}, {"series_interval": 1e-13}),
    ], ids=["load", "series_interval"])
    def test_run_without_end_exits_two(self, tmp_path, capsys, monkeypatch, scenario, extra):
        """A load or series interval under which `sim.run` would not end is
        refused with exit 2 before the first event."""
        forbid_events(monkeypatch)
        doc = {"scenario": {"name": "URLLC", "target_load": 0.4, "horizon": 10.0, **scenario},
               "algorithm": "p2c-1", **extra}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "error" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_too_many_replications_exit_two(self, capsys, monkeypatch, command):
        """More replications than `sim.MAX_REPLICATIONS` are refused with
        exit 2 before any run starts; the seed list of 10**10 replications
        alone would not fit in memory."""
        forbid_events(monkeypatch)
        code, out, err = run_cli(capsys, command, "--scenario", "BEF", "--load", "0.1",
                                 "--horizon", "1", "--replications", "10000000000",
                                 "--seed", "1")
        assert code == 2
        assert out == ""
        assert "replications" in err and "Traceback" not in err

    def test_too_many_replications_in_a_config_exit_two(self, tmp_path, capsys, monkeypatch):
        forbid_events(monkeypatch)
        doc = {"scenario": {"name": "BEF", "target_load": 0.1, "horizon": 1.0,
                            "replications": 10**10},
               "algorithm": "p2c-1"}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "replications" in err and "Traceback" not in err

    def test_series_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        code, _, _ = run_cli(capsys, "simulate", "--algorithm", "p2c-1",
                             *SIM_ARGS, "--out", str(tmp_path / "m.json"),
                             "--series", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "time,dc_tier,resource,used,capacity"
        assert len(lines) > 1

    @pytest.mark.parametrize("breakage, message", [
        ("ghost_dc_router", "names no data center"),
        ("intra_dc_outside_dcs", "needs an end in a data center"),
        ("uncounted_transport", "needs a bandwidth capacity"),
        ("no_server", "no CPU capacity"),
    ], ids=["ghost_dc_router", "intra_dc_outside_dcs", "uncounted_transport", "no_server"])
    def test_topology_that_cannot_be_simulated_exits_two(self, tmp_path, capsys, topo_file,
                                                         breakage, message):
        """Documents of connected graphs that the simulator's accounting or
        arrival rates cannot read: refused with exit 2, not a traceback."""
        doc = json.loads(open(topo_file).read())
        nodes, links, uap = doc["nodes"], doc["links"], doc["uaps"][0]
        transport = next(l for l in links if l["kind"] == "transport")

        def add(kind: str, dc: str | None, link_kind: str, a: int) -> None:
            nodes.append({"id": len(nodes), "label": "extra", "kind": kind, "dc": dc})
            links.append({"id": len(links), "a": a, "b": len(nodes) - 1, "latency_ms": 0.0,
                          "kind": link_kind, "bw_capacity": 10.0, "bw_residual": 10.0})

        if breakage == "ghost_dc_router":
            add("router", "ghost", "intra_dc", uap)
        elif breakage == "intra_dc_outside_dcs":
            assert nodes[uap]["dc"] is None
            add("router", None, "intra_dc", uap)
        elif breakage == "uncounted_transport":
            transport["bw_capacity"] = transport["bw_residual"] = None
        else:
            doc = {"schema": "topology/1", "params": None,
                   "nodes": [{"id": 0, "label": "sw", "kind": "switch", "dc": "edc0"},
                             {"id": 1, "label": "uap", "kind": "uap", "dc": None}],
                   "links": [{"id": 0, "a": 0, "b": 1, "latency_ms": 0.05, "kind": "access",
                              "bw_capacity": None, "bw_residual": None}],
                   "data_centers": [{"id": "edc0", "kind": "EDC", "switch": 0, "servers": []}],
                   "uaps": [1]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "simulate", "--topology", str(path),
                                 "--algorithm", "p2c-1", *SIM_ARGS)
        assert code == 2
        assert out == ""
        assert message in err and "Traceback" not in err

    def test_unknown_scenario(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--algorithm", "p2c-1",
                               "--scenario", "gaming", "--load", "0.4")
        assert code == 2
        assert "unknown scenario" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--config", "/no/such/config.json",
                               "--algorithm", "p2c-1", *SIM_ARGS)
        assert code == 3
        assert "error" in err

    def test_invalid_config_json(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg),
                               "--algorithm", "p2c-1", *SIM_ARGS)
        assert code == 2
        assert "not valid JSON" in err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "odd.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg),
                               "--algorithm", "p2c-1", *SIM_ARGS)
        assert code == 2
        assert "nonsense" in err

    @pytest.mark.parametrize("section, key, value", [
        ("scenario", "target_load", "abc"),
        ("scenario", "horizon", "10"),
        ("scenario", "horizon", 10**400),
        ("scenario", "replications", 2.5),
        ("scenario", "include_holding_time", "no"),
        ("scenario", "mix", [1, 2]),
        (None, "algorithm", 7),
        ("solver", "max_nodes", -5),
        (None, "catalog", BEF_ONLY_CATALOG),
        (None, "catalog", [1]),
        (None, "jobs", 2.5),
        ("topology", "scale", 1.5),
        ("topology", "scale", True),
        ("topology", "servers_per_edc", 2.5),
        ("topology", "latency_round_decimals", 2.5),
        ("topology", "server_cpu", "50"),
        (None, "catalog", bef_only_catalog(cpu_per_vnf="nan")),
        (None, "catalog", bef_only_catalog(cpu_per_vnf=True)),
        (None, "catalog", bef_only_catalog(vl_budgets_ms=["inf", 1.0, 1.33, 1.33])),
        (None, "catalog", bef_only_catalog(cpu_per_vnf=0.1234567)),
        (None, "catalog", bef_only_catalog(e2e_budget=1.0)),
        (None, "catalog", {"best_effort": "abc"}),
        (None, "catalog", bef_only_catalog(vl_budgets_ms=5)),
    ], ids=["load", "horizon", "horizon_huge_int", "replications", "holding", "mix", "algorithm",
            "max_nodes", "catalog", "catalog_list", "jobs", "scale_float", "scale_bool",
            "servers_float", "round_float", "cpu_string", "catalog_nan_string",
            "catalog_bool", "catalog_inf_string", "catalog_below_the_unit",
            "catalog_unknown_field", "catalog_entry_string", "catalog_budgets_int"])
    def test_malformed_config_value_exits_two(self, tmp_path, capsys, section, key, value):
        doc = {"scenario": {"name": "URLLC", "target_load": 0.4, "horizon": 10.0},
               "algorithm": "ilp-1"}
        (doc.setdefault(section, {}) if section else doc)[key] = value
        if value is not BEF_ONLY_CATALOG:
            # refused when read, before anything runs: a NaN class that got
            # through would leave the simulation without an end. The plain
            # BEF-only catalog lacks the URLLC class, which shows only at run time
            with pytest.raises(ConfigError):
                RunConfig.from_json(doc)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "error" in err and "Traceback" not in err

    def test_config_env_var(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "env.json"
        cfg.write_text(json.dumps({
            "scenario": {"name": "URLLC", "horizon": 50.0, "replications": 1},
            "algorithm": "p2c-1",
        }))
        monkeypatch.setenv("SLICEPLACE_CONFIG", str(cfg))
        out_path = tmp_path / "m.json"
        code, _, _ = run_cli(capsys, "simulate", "--load", "0.4",
                             "--seed", "1", "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert len(doc["replications"]) == 1
        assert doc["replications"][0]["horizon"] == 50.0
        assert doc["aggregate"]["algorithm"] == "p2c-1"


# the documents the parse-level mutants start from: every config section,
# every topology parameter and a catalog entry per class
BASE_PARAMS = {key: getattr(TopologyParams(), key)
               for key in TopologyParams.__dataclass_fields__}
BASE_CATALOG = {
    **BEF_ONLY_CATALOG,
    "urllc": {"cpu_per_vnf": 5.0, "ram_per_vnf": 30.0, "bw_per_vl": 0.5,
              "alpha_max_ms": 0.04, "vl_budgets_ms": [0.33, 0.33], "e2e_budget_ms": 1.0},
    "embb": {"cpu_per_vnf": 20.0, "ram_per_vnf": 120.0, "bw_per_vl": 2.0,
             "alpha_max_ms": 0.1, "vl_budgets_ms": [1.0, 1.0, 1.0]},
}
BASE_CONFIG = {
    "topology": {**BASE_PARAMS, "file": None},
    "scenario": {"name": "MIX", "target_load": 0.4, "horizon": 10.0, "mean_holding": 1.0,
                 "replications": 2, "base_seed": 3, "warmup": 1.0,
                 "include_holding_time": True, "mix": {"urllc": 0.5, "embb": 0.5}},
    "algorithm": "ilp-1", "catalog": BASE_CATALOG, "solver": {"max_nodes": 100},
    "validate": True, "measure_time": False, "jobs": 1, "series_interval": 1.0,
    "output": {"metrics": "m.json", "series": None},
}
# what a mutant puts in place of a value; DELETE removes it
DELETE = object()
REPLACEMENTS = [DELETE, None, True, False, "", "x", "1", [], {}, [1.0], {"x": 1}, 0, -0.0,
                -1, 1, 2.5, 1e-300, 1e308, 2**70, -(2**70), 10**400, float("nan"),
                float("inf"), float("-inf")]


def value_paths(doc, path=()) -> list[tuple]:
    """The path of every value in a JSON document, its root included."""
    paths = [path]
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        paths += value_paths(value, (*path, key))
    return paths


def holds(node, key) -> bool:
    """Whether node is a JSON object or array with key among its keys or
    indices."""
    return isinstance(node, dict) and key in node or \
        isinstance(node, list) and isinstance(key, int) and key < len(node)


def mutants(doc, *, keep_root: bool = False):
    """Copies of doc with one to three values replaced, deleted or given an
    unknown key beside them; keep_root keeps the root an object."""
    paths = value_paths(doc)[1 if keep_root else 0:]
    # one edit in four adds an unknown key, which every parser refuses
    edit = st.tuples(st.sampled_from(paths), st.sampled_from(REPLACEMENTS),
                     st.sampled_from([False, False, False, True]))

    def apply(edits):
        out = copy.deepcopy(doc)
        for path, value, add_key in edits:
            value = 1 if value is DELETE and add_key else value
            if not path:
                out = {} if value is DELETE else copy.deepcopy(value)
                continue
            *head, key = path
            parent = out
            for k in head:
                if not holds(parent, k):
                    break  # an earlier edit took the path away
                parent = parent[k]
            else:
                if add_key and isinstance(parent, dict):
                    parent["unknown_key"] = copy.deepcopy(value)
                elif holds(parent, key):
                    if value is DELETE:
                        del parent[key]
                    else:
                        parent[key] = copy.deepcopy(value)
        return out
    return st.lists(edit, min_size=1, max_size=3).map(apply)


# the patches that forbid building and running are the same for every example
MUTANT_SETTINGS = settings(max_examples=400, deadline=None,
                           suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestParseMutants:
    """Mutated documents read by the three parsers raise only their
    documented errors, and nothing is built or run while they are read."""

    @MUTANT_SETTINGS
    @given(mutants(BASE_CONFIG))
    def test_config(self, monkeypatch, doc):
        forbid_build(monkeypatch)
        forbid_events(monkeypatch)
        try:
            RunConfig.from_json(doc)
        except ConfigError:
            pass

    @MUTANT_SETTINGS
    @given(mutants(BASE_PARAMS))
    def test_topology_parameters(self, monkeypatch, doc):
        forbid_build(monkeypatch)
        try:
            params_from_json(doc)
        except TopologyError:
            pass

    @MUTANT_SETTINGS
    @given(mutants(BASE_CATALOG, keep_root=True))
    def test_catalog(self, monkeypatch, doc):
        forbid_build(monkeypatch)
        try:
            catalog_from_json(doc)
        except (KeyError, TypeError, ValueError):
            pass

    def test_base_documents_parse(self):
        cfg = RunConfig.from_json(BASE_CONFIG)
        assert cfg.topology_params == TopologyParams()
        assert set(cfg.catalog) == set(SliceClass)
        assert params_from_json(BASE_PARAMS) == TopologyParams()


class TestCompare:
    def test_table_and_json(self, tmp_path, capsys):
        out_path = tmp_path / "table.json"
        code, out, _ = run_cli(capsys, "compare", "--scenario", "URLLC",
                               "--load", "0.4", "--horizon", "40",
                               "--replications", "1", "--seed", "2",
                               "--out", str(out_path))
        assert code == 0
        for name in ("p2c-1", "p2c-2", "ilp-1", "ilp-2"):
            assert name in out
        assert "blocking_ratio" in out
        doc = json.loads(out_path.read_text())
        assert set(doc) == {"p2c-1", "p2c-2", "ilp-1", "ilp-2"}

    def test_json_holds_each_replication(self, tmp_path, capsys):
        """Each algorithm's object keeps the aggregate's keys and adds, under
        `reports`, the reports `simulate` writes for the same seeds, in seed
        order, so a paired difference can be read from it."""
        argv = ("--scenario", "URLLC", "--load", "0.4", "--horizon", "40",
                "--replications", "2", "--seed", "2")
        code, _, _ = run_cli(capsys, "compare", *argv, "--out", str(tmp_path / "c.json"))
        assert code == 0
        doc = json.loads((tmp_path / "c.json").read_text())
        for name, obj in doc.items():
            assert set(obj) == {"schema", "scenario", "algorithm", "replications",
                                "confidence", "metrics", "reports"}
            assert obj["replications"] == len(obj["reports"]) == 2
            assert [(r["algorithm"], r["seed"]) for r in obj["reports"]] == \
                [(name, [2, 0]), (name, [2, 1])]
            ratios = [r["blocking_ratio"] for r in obj["reports"]]
            assert obj["metrics"]["blocking_ratio"]["mean"] == pytest.approx(sum(ratios) / 2)
        code, _, _ = run_cli(capsys, "simulate", "--algorithm", "ilp-1", *argv,
                             "--out", str(tmp_path / "s.json"))
        assert code == 0
        simulated = json.loads((tmp_path / "s.json").read_text())
        assert doc["ilp-1"]["reports"] == simulated["replications"]


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "sliceplace.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "generate" in proc.stdout and "simulate" in proc.stdout
