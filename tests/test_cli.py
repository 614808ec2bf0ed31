"""CLI: subcommands, exit codes, config resolution, output files."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from sliceplace.cli import main
from sliceplace.nspr import DEFAULT_CATALOG, SliceClass, catalog_to_json
from sliceplace.topology import PhysicalNetwork, TopologyParams

from conftest import make_single_dc


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BEF_ONLY_CATALOG = catalog_to_json(
    {SliceClass.BEST_EFFORT: DEFAULT_CATALOG[SliceClass.BEST_EFFORT]})


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

    def test_rejection_exits_one(self, tmp_path, capsys):
        # access latency beyond every class bound: nothing can host the root
        net = make_single_dc(servers=2, params=TopologyParams(access_latency_ms=0.05))
        path = tmp_path / "far.json"
        net.save(str(path))
        code, out, _ = run_cli(capsys, "place", "--topology", str(path),
                               "--class", "urllc")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "rejected"
        assert doc["blocking_vnf"] == 1
        assert doc["placement"] is None

    @pytest.mark.parametrize("breakage", ["endpoint", "residual", "latency", "switch",
                                          "unlisted", "duplicate", "parallel"])
    def test_malformed_topology_exits_two(self, tmp_path, capsys, topo_file, breakage):
        doc = json.loads(open(topo_file).read())
        transport = next(l for l in doc["links"] if l["kind"] == "transport")
        dc = doc["data_centers"][0]
        if breakage == "endpoint":
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
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "check", "--topology", topo_file,
                               "--class", "urllc", "--placement", str(bad))
        assert code == 2
        assert "error" in err

    def test_missing_placement_file(self, capsys, topo_file):
        code, _, err = run_cli(capsys, "check", "--topology", topo_file,
                               "--class", "urllc", "--placement", "/no/such.json")
        assert code == 3
        assert "error" in err


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

    def test_series_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        code, _, _ = run_cli(capsys, "simulate", "--algorithm", "p2c-1",
                             *SIM_ARGS, "--out", str(tmp_path / "m.json"),
                             "--series", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "time,dc_tier,resource,used,capacity"
        assert len(lines) > 1

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
        ("scenario", "replications", 2.5),
        ("scenario", "include_holding_time", "no"),
        ("scenario", "mix", [1, 2]),
        (None, "algorithm", 7),
        ("solver", "max_nodes", -5),
        (None, "catalog", BEF_ONLY_CATALOG),
        (None, "catalog", [1]),
        (None, "jobs", 2.5),
    ], ids=["load", "horizon", "replications", "holding", "mix", "algorithm",
            "max_nodes", "catalog", "catalog_list", "jobs"])
    def test_malformed_config_value_exits_two(self, tmp_path, capsys, section, key, value):
        doc = {"scenario": {"name": "URLLC", "target_load": 0.4, "horizon": 10.0},
               "algorithm": "ilp-1"}
        (doc.setdefault(section, {}) if section else doc)[key] = value
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


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "sliceplace.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "generate" in proc.stdout and "simulate" in proc.stdout
