"""Command line surface, exercised in process via main()."""

import contextlib
import copy
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from metroslice import cli, live, orchestrator
from metroslice.cli import main
from metroslice.config import default_scenario_path, load_scenario
from metroslice.dataplane import MAX_DELAY_US
from metroslice.model import MAX_K
from metroslice.optical import SlotOutOfTunability

from oracles import brute_force_place


def _run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


class TestPlan:
    def test_places_default_request(self, capsys):
        rc, out = _run(capsys, "--json", "plan")
        assert rc == 0
        doc = json.loads(out)
        assert doc["placed"] is True
        assert doc["candidate"]["vim_ids"] == ["vim-amen", "vim-mcen"]
        assert doc["candidate"]["cost_us"] == pytest.approx(798.2156768, abs=1e-6)

    def test_k1_blocks(self, capsys):
        rc, out = _run(capsys, "--json", "plan", "--k", "1")
        assert rc == 1
        assert json.loads(out)["block_reason"] == "NoValidSC"

    def test_human_output_mentions_ranking(self, capsys):
        rc, out = _run(capsys, "plan")
        assert rc == 0
        assert "placed: vim-amen, vim-mcen" in out

    def test_access_legs_match_exhaustive_placement(self, tmp_path, capsys):
        path = _scenario_copy(tmp_path, "k: 10\n",
                              "k: 10\ningress: probe-a\negress: probe-b\n",
                              "ns_request.yaml")
        rc, out = _run(capsys, "--scenario", str(path), "--json", "plan")
        assert rc == 0
        sc = load_scenario(path)
        assert (sc.request.ingress, sc.request.egress) == ("probe-a", "probe-b")
        reason, (cost, ids), _ = brute_force_place(
            sc.request, sc.topology, [n.vim for n in sc.topology.vim_nodes()])
        assert reason is None
        got = json.loads(out)["candidate"]
        assert tuple(got["vim_ids"]) == ids
        assert got["cost_us"] == pytest.approx(cost, rel=1e-12)

    def test_no_roadm_needed(self, tmp_path, capsys):
        # Placement reads no optical layer; only deploy needs the circuit.
        path = _scenario_copy(tmp_path, "kind: ROADM", "kind: AggSwitch", "topology.yaml")
        topo = tmp_path / "topology.yaml"
        topo.write_text(topo.read_text().replace("kind: ROADM", "kind: AggSwitch"))
        rc, out = _run(capsys, "--scenario", str(path), "--json", "plan")
        assert rc == 0
        assert json.loads(out)["candidate"]["vim_ids"] == ["vim-amen", "vim-mcen"]
        line = _config_error(capsys, "--scenario", str(path),
                             "--out", str(tmp_path / "out"), "deploy")
        assert "needs at least two ROADMs" in line


class TestDeploy:
    def test_artifacts(self, tmp_path, capsys):
        rc, out = _run(capsys, "--out", str(tmp_path), "--json", "deploy")
        assert rc == 0
        kpi = json.loads((tmp_path / "kpi.json").read_text())
        assert kpi["kpi1_s"] == pytest.approx(132.0)
        assert kpi["kpi2_s"] == pytest.approx(134.0)
        assert kpi["kpi3_s"] == pytest.approx(137.0)
        assert kpi["excl_transponder_s"] == pytest.approx(50.0)
        assert kpi["aggregate_demand_mbps"] == pytest.approx(932000.0)
        assert kpi["commissioning"] == ["pass"]
        assert json.loads(out) == kpi

        with open(tmp_path / "kpi.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["metric", "seconds"]
        assert len(rows) == 1 + 4 + 6  # header, four KPIs, six phases

        events = [json.loads(l) for l in (tmp_path / "events.jsonl").read_text().splitlines()]
        assert events[0]["label"] == "m01_retrieve_ns_descriptors"
        assert events[-1]["label"] in ("commissioning_passed", "ptz_bound_checked")
        assert [e["seq"] for e in events] == list(range(1, len(events) + 1))

        records = [json.loads(l) for l in (tmp_path / "records.jsonl").read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["verdict"] == "pass"
        assert records[0]["circuit_id"] == "circuit-1"

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run(capsys, "--out", str(a), "deploy")[0] == 0
        assert _run(capsys, "--out", str(b), "deploy")[0] == 0
        assert (a / "kpi.json").read_bytes() == (b / "kpi.json").read_bytes()
        assert (a / "events.jsonl").read_bytes() == (b / "events.jsonl").read_bytes()

    def test_blocked_request(self, tmp_path, capsys):
        data = default_scenario_path().parent
        for name in ("scenario.yaml", "topology.yaml", "ns_request.yaml"):
            shutil.copy(data / name, tmp_path / name)
        req = yaml.safe_load((tmp_path / "ns_request.yaml").read_text())
        req["max_rtt_us"] = 100.0
        (tmp_path / "ns_request.yaml").write_text(yaml.safe_dump(req))

        out_dir = tmp_path / "out"
        rc, out = _run(capsys, "--scenario", str(tmp_path / "scenario.yaml"),
                       "--out", str(out_dir), "--json", "deploy")
        assert rc == 1
        assert json.loads(out)["block_reason"] == "RttExceeded"
        events = (out_dir / "events.jsonl").read_text().splitlines()
        assert len(events) == 3
        assert not (out_dir / "kpi.json").exists()


class TestTable1:
    def test_small_run_columns_and_budget(self, tmp_path, capsys):
        rc, out = _run(capsys, "--out", str(tmp_path), "--json",
                       "table1", "--count", "2000", "--trains", "2")
        assert rc == 0
        doc = json.loads(out)
        labels = [r["label"] for r in doc["rows"]]
        assert labels == ["probe-loopback", "agg-switches", "optical-2m",
                          "optical-41km", "optical-80km"]
        for row in doc["rows"]:
            for key in ("length_km", "twoway_propagation_us", "expected_rtt_us",
                        "rtt_us", "delta_us", "jitter_ns", "loss_rate",
                        "throughput_mbps", "ceiling_mbps"):
                assert key in row
            assert row["count"] == 2000 and row["trains"] == 2
        assert doc["budget"] is not None
        assert doc["budget"]["probe_us"] == pytest.approx(0.84, abs=0.02)

        with open(tmp_path / "table1.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert rows[4]["label"] == "optical-80km"
        budget = json.loads((tmp_path / "budget.json").read_text())
        assert budget["budget"]["optical_us"] == pytest.approx(13.1, abs=0.2)


    def test_row_losing_every_packet_prints_na(self, tmp_path, capsys):
        data = default_scenario_path().parent
        for name in ("scenario.yaml", "topology.yaml", "ns_request.yaml"):
            shutil.copy(data / name, tmp_path / name)
        sc = yaml.safe_load((tmp_path / "scenario.yaml").read_text())
        sc["dataplane"] = {"element_overrides": {"sw-mcen": {"loss_prob": 1.0}}}
        (tmp_path / "scenario.yaml").write_text(yaml.safe_dump(sc))

        rc, out = _run(capsys, "--scenario", str(tmp_path / "scenario.yaml"),
                       "--out", str(tmp_path / "out"),
                       "table1", "--count", "1000", "--trains", "1")
        assert rc == 0
        lines = {l.split()[0]: l for l in out.splitlines()}
        assert "n/a" not in lines["probe-loopback"]
        assert "rtt         n/a us  delta     n/a us  jitter   n/a ns" in lines["agg-switches"]
        assert "tput       n/a /" in lines["agg-switches"]


    def test_one_packet_trains(self, tmp_path, capsys):
        # One packet has no throughput; the row reports it as undefined.
        argv = ["--out", str(tmp_path), "table1", "--count", "1", "--trains", "2"]
        rc, out = _run(capsys, "--json", *argv)
        assert rc == 0
        rows = json.loads(out)["rows"]
        assert [r["throughput_mbps"] for r in rows] == [None] * 5
        assert all(r["rtt_us"] is not None for r in rows)
        with open(tmp_path / "table1.csv", newline="") as fh:
            assert [r["throughput_mbps"] for r in csv.DictReader(fh)] == [""] * 5
        rc, out = _run(capsys, *argv)
        assert rc == 0
        lines = out.splitlines()[:5]
        assert all("tput       n/a /" in l for l in lines)


    def test_memory_does_not_grow_with_trains(self, tmp_path):
        # A row folds its trains as they come: 100 times the trains adds
        # no train-sized memory (about 370 B a train when each was kept).
        def traced_peak(trains):
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = main(["--out", str(tmp_path), "table1",
                               "--count", "1", "--trains", str(trains)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rc == 0
            return peak

        traced_peak(4)  # fill the import-time and per-topology caches first
        assert traced_peak(400) - traced_peak(4) < 32 * 2**10


    def test_edited_override_gets_its_own_paths(self, tmp_path, capsys):
        # Path models are shared by value: a run on an edited copy must not
        # reuse the default run's models, nor leave its own to the next.
        data = default_scenario_path().parent
        for name in ("scenario.yaml", "topology.yaml", "ns_request.yaml"):
            shutil.copy(data / name, tmp_path / name)
        sc = yaml.safe_load((tmp_path / "scenario.yaml").read_text())
        sc["dataplane"] = {"element_overrides": {
            "sw-mcen": {"loss_prob": 2.0e-7, "jitter_std_ns": 1.75}}}
        (tmp_path / "scenario.yaml").write_text(yaml.safe_dump(sc))
        golden = Path(__file__).parent / "golden" / "table1.csv"

        runs = [("default", []), ("edited", ["--scenario", str(tmp_path / "scenario.yaml")]),
                ("again", [])]
        for out, argv in runs:
            rc, _ = _run(capsys, *argv, "--out", str(tmp_path / out), "table1")
            assert rc == 0
        table = {out: (tmp_path / out / "table1.csv").read_bytes() for out, _ in runs}
        assert table["default"] == table["again"] == golden.read_bytes()
        assert table["edited"] != table["default"]


class TestDegrade:
    def test_default_ramp(self, tmp_path, capsys):
        rc, out = _run(capsys, "--out", str(tmp_path), "--json", "degrade")
        assert rc == 0
        doc = json.loads(out)
        assert doc["detected"] is True
        assert doc["t_detect_s"] == pytest.approx(13.0)
        assert doc["anticipation_s"] == pytest.approx(64.0, abs=0.1)
        lines = (tmp_path / "degrade.csv").read_text().splitlines()
        assert lines[0] == "t_s,snr_db,prefec_ber"
        assert len(lines) == 1 + 101

    def test_flat_ramp_not_detected(self, tmp_path, capsys):
        rc, out = _run(capsys, "--out", str(tmp_path), "--json",
                       "degrade", "--ramp", "0.0")
        assert rc == 0
        assert json.loads(out)["detected"] is False


class TestRecords:
    def test_filters_deploy_output(self, tmp_path, capsys):
        _run(capsys, "--out", str(tmp_path), "deploy")
        rc, out = _run(capsys, "--out", str(tmp_path), "--json", "records")
        assert rc == 0
        docs = json.loads(out)
        assert len(docs) == 1 and docs[0]["circuit_id"] == "circuit-1"
        rc, out = _run(capsys, "--out", str(tmp_path), "--json",
                       "records", "--circuit", "circuit-ghost")
        assert json.loads(out) == []
        rc, out = _run(capsys, "--out", str(tmp_path), "--json",
                       "records", "--tmax", "0.0")
        assert json.loads(out) == []

    def test_broken_scenario_is_not_loaded(self, tmp_path, capsys):
        _run(capsys, "--out", str(tmp_path), "deploy")
        broken = tmp_path / "broken.yaml"
        broken.write_text("topology: [unclosed\n")
        rc, out = _run(capsys, "--scenario", str(broken), "--json", "records",
                       "--records", str(tmp_path / "records.jsonl"))
        assert rc == 0
        assert [d["circuit_id"] for d in json.loads(out)] == ["circuit-1"]


def _scenario_copy(tmp_path, old, new, name="scenario.yaml"):
    """The packaged scenario files in ``tmp_path``, with ``old`` replaced
    by ``new`` once in the file ``name``. Returns the scenario's path."""
    src = default_scenario_path().parent
    for each in ("scenario.yaml", "topology.yaml", "ns_request.yaml"):
        shutil.copy(src / each, tmp_path / each)
    text = (src / name).read_text()
    assert old in text
    (tmp_path / name).write_text(text.replace(old, new, 1))
    return tmp_path / "scenario.yaml"


class TestSeedOption:
    @pytest.mark.parametrize("argv, files", [
        (["table1", "--count", "1000", "--trains", "2"], ["table1.csv", "budget.json"]),
        (["deploy"], ["records.jsonl", "events.jsonl"]),
    ], ids=["table1", "deploy"])
    def test_same_as_the_scenario_key(self, tmp_path, capsys, argv, files):
        scenario = _scenario_copy(tmp_path, "seed: 0\n", "seed: 7\n")
        _run(capsys, "--seed", "7", "--out", str(tmp_path / "flag"), *argv)
        _run(capsys, "--scenario", str(scenario), "--out", str(tmp_path / "key"), *argv)
        for name in files:
            flag = (tmp_path / "flag" / name).read_bytes()
            assert flag == (tmp_path / "key" / name).read_bytes(), name


def _config_error(capsys, *argv) -> str:
    """The one ``error:`` line of a run that must exit 2 on a bad value."""
    rc = main(list(argv))
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


class TestErrors:
    def test_table1_zero_count(self, capsys):
        line = _config_error(capsys, "table1", "--count", "0")
        assert "count must be in [1, 4294967295]" in line

    def test_table1_count_above_header_field(self, capsys):
        line = _config_error(capsys, "table1", "--count", str(2**32))
        assert "count must be in [1, 4294967295]" in line

    @pytest.mark.parametrize("trains", ["0", "-1"])
    def test_table1_nonpositive_trains(self, capsys, trains):
        line = _config_error(capsys, "table1", "--trains", trains)
        assert "probe.trains_per_row must be >= 1" in line

    @pytest.mark.parametrize("argv", [
        ["plan", "--k", "0"],
        ["measure", "--dst", "127.0.0.1:9", "--payload", "10"],
        ["measure", "--dst", "127.0.0.1:9", "--timeout-ms", "0"],
        ["degrade", "--ramp", "-1"],
        ["degrade", "--duration", "-1"],
    ])
    def test_out_of_range_override(self, tmp_path, capsys, monkeypatch, argv):
        def no_socket(*args, **kwargs):
            raise AssertionError("live_measure reached")

        monkeypatch.setattr(live, "live_measure", no_socket)
        rc = main(["--out", str(tmp_path), *argv])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_out_of_memory(self, capsys, monkeypatch, as_json):
        def exhausted(args, scenario):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_plan", exhausted)
        rc = main(["--json", "plan"] if as_json else ["plan"])
        captured = capsys.readouterr()
        assert rc == 1
        if as_json:
            assert captured.err == ""
            assert json.loads(captured.out) == {"error": "out of memory"}
        else:
            assert captured.out == ""
            assert captured.err == "error: out of memory\n"

    @pytest.mark.parametrize("argv, message", [
        (["--duration", "nan"], "duration_s must be finite"),
        (["--duration", "inf"], "duration_s must be finite"),
        (["--ramp", "nan"], "ramp_db_per_s must be finite"),
        (["--duration", "1e9"], "duration_s / sample_period_s gives over 1000000 samples"),
    ], ids=["duration-nan", "duration-inf", "ramp-nan", "duration-too-long"])
    def test_degrade_non_finite_override(self, tmp_path, capsys, argv, message):
        line = _config_error(capsys, "--out", str(tmp_path), "degrade", *argv)
        assert message in line

    def test_non_finite_scenario_value(self, tmp_path, capsys):
        src = default_scenario_path().parent
        for name in ("topology.yaml", "ns_request.yaml"):
            shutil.copy(src / name, tmp_path / name)
        text = (src / "scenario.yaml").read_text()
        assert "laser_warmup_s: 125.0" in text
        path = tmp_path / "scenario.yaml"
        path.write_text(text.replace("laser_warmup_s: 125.0", "laser_warmup_s: .nan"))
        line = _config_error(capsys, "--scenario", str(path),
                             "--out", str(tmp_path), "deploy")
        assert "timing.laser_warmup_s: expected a finite float, got nan" in line
        assert not (tmp_path / "kpi.json").exists()

    def test_integer_past_float_range(self, tmp_path, capsys):
        path = _scenario_copy(tmp_path, "laser_warmup_s: 125.0",
                              "laser_warmup_s: 1" + "0" * 400)
        line = _config_error(capsys, "--scenario", str(path), "plan")
        assert ("scenario.yaml: timing.laser_warmup_s: expected a finite float, "
                "got an integer past the float range") in line

    def test_slot_floor_past_tunability_is_config_error(self, tmp_path, capsys):
        # No n >= 300 lies in the packaged +-256 tunability: rejected at
        # load, before WF1 allocates anything.
        path = _scenario_copy(tmp_path, "slot_floor_n: 0", "slot_floor_n: 300")
        line = _config_error(capsys, "--scenario", str(path),
                             "--out", str(tmp_path / "out"), "deploy")
        assert "scenario.yaml: optical.slot_floor_n: no n >= 300" in line
        assert not (tmp_path / "out" / "kpi.json").exists()

    def test_disjoint_tunability_is_config_error(self, tmp_path, capsys):
        path = _scenario_copy(tmp_path, "tp_tunability_n: [-256, 256]",
                              "tp_tunability_n: [300, 400]")
        line = _config_error(capsys, "--scenario", str(path),
                             "--out", str(tmp_path / "out"), "deploy")
        assert "scenario.yaml: optical.tp_tunability_n: no n in both" in line

    def test_workflow_error_is_exit_1(self, tmp_path, capsys, monkeypatch):
        # A transponder that fails to tune makes WF1 roll back and raise
        # WorkflowError: one error line, exit 1.
        def untunable(tp, slot, *args, **kwargs):
            raise SlotOutOfTunability(f"{tp.tp_id} cannot tune to n={slot.n}")

        monkeypatch.setattr(orchestrator, "configure_transponder", untunable)
        rc = main(["--out", str(tmp_path / "out"), "deploy"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines == ["error: optical provisioning failed: tp-a cannot tune to n=0"]
        assert not (tmp_path / "out" / "kpi.json").exists()

    @pytest.mark.parametrize("length", ["-1", ".nan", ".inf"])
    def test_bad_calibration_length(self, tmp_path, capsys, length):
        path = _scenario_copy(tmp_path, "length_km: 0.002", f"length_km: {length}")
        line = _config_error(capsys, "--scenario", str(path),
                             "--out", str(tmp_path), "table1")
        # A negative length fails the row's own check, a non-finite one
        # the float check; both name the row and the key.
        assert "calibration_rows[0]" in line and "length_km" in line
        assert not (tmp_path / "table1.csv").exists()

    @pytest.mark.parametrize("command", ["plan", "deploy"])
    @pytest.mark.parametrize("key", ["ingress", "egress"])
    def test_unknown_access_node(self, tmp_path, capsys, key, command):
        path = _scenario_copy(tmp_path, "k: 10\n", f"k: 10\n{key}: ghost\n",
                              "ns_request.yaml")
        line = _config_error(capsys, "--scenario", str(path),
                             "--out", str(tmp_path / "out"), command)
        assert f"ns_request.yaml: {key}: unknown node 'ghost'" in line

    @pytest.mark.parametrize("name, old, new, key", [
        ("scenario.yaml", "length_km: 80.0", "length_km: 1.0e+18",
         "scenario.yaml: calibration_rows[4].length_km"),
        ("topology.yaml", "fixed_latency_us: 0.21}", "fixed_latency_us: 1.0e+300}",
         "topology.yaml: nodes[0].fixed_latency_us"),
        ("topology.yaml", "length_km: 0.0005, kind: Patch}",
         "length_km: 1.0e+18, kind: Patch}", "topology.yaml: links[3].length_km"),
        # 0.6 of the bound passes alone, but the row lists the node twice.
        ("topology.yaml", "fixed_latency_us: 0.21}",
         f"fixed_latency_us: {0.6 * MAX_DELAY_US!r}}}",
         "scenario.yaml: calibration_rows[5].path"),
    ], ids=["calibration-length", "node-latency", "link-length", "row-path"])
    def test_delay_past_tick_lattice(self, tmp_path, capsys, name, old, new, key):
        # Each ended table1 in an OverflowError from the probe's tick counts.
        path = _scenario_copy(tmp_path, old, new, name)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("  - {label: twice, length_km: 1.0, path: [probe-a, probe-a]}\n")
        line = _config_error(capsys, "--scenario", str(path),
                             "--out", str(tmp_path), "table1")
        assert f"{key}: delays sum past" in line
        assert not (tmp_path / "table1.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["reflect", "--bind", "127.0.0.1:70000"],
        ["measure", "--dst", "127.0.0.1:99999"],
    ])
    def test_port_out_of_range(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        errors = [l for l in err.splitlines() if "error:" in l]
        assert len(errors) == 1 and "port in 0-65535" in errors[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_reflect_max_packets_below_one(self, capsys, monkeypatch, value):
        def no_socket(*args, **kwargs):
            raise AssertionError("live_reflect reached")

        monkeypatch.setattr(live, "live_reflect", no_socket)
        with pytest.raises(SystemExit) as exc:
            main(["reflect", "--bind", "127.0.0.1:0", "--max-packets", value])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        errors = [l for l in err.splitlines() if "error:" in l]
        assert len(errors) == 1 and "--max-packets: expected an integer >= 1" in errors[0]

    @pytest.mark.parametrize("command", ["deploy", "table1"])
    def test_negative_seed(self, tmp_path, capsys, command):
        line = _config_error(capsys, "--seed", "-1",
                             "--out", str(tmp_path / "out"), command)
        assert line == "error: command-line override: seed must be >= 0"
        assert not (tmp_path / "out").exists()

    def test_disconnected_probe_endpoints(self, tmp_path, capsys):
        # Without the probe-b patch there is no circuit to commission, so
        # the load refuses the scenario before WF1 allocates anything.
        path = _scenario_copy(tmp_path, "  - {id: pat-b, endpoints: [probe-b, sw-mcen], "
                              "length_km: 0.0005, kind: Patch}\n", "", "topology.yaml")
        line = _config_error(capsys, "--scenario", str(path),
                             "--out", str(tmp_path / "out"), "deploy")
        assert "scenario.yaml: probe_endpoints: no path from probe-a to probe-b" in line
        assert not (tmp_path / "out").exists()

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="Python before 3.10.7 converts integers of any length")
    @pytest.mark.parametrize("name, old, new", [
        ("scenario.yaml", "seed: 0\n", "seed: 1" + "0" * 5000 + "\n"),
        ("topology.yaml", "cpu_idle: 16\n", "cpu_idle: 1" + "0" * 4400 + "\n"),
    ], ids=["scenario-seed", "topology-cpu-idle"])
    def test_integer_too_long_to_read(self, tmp_path, capsys, name, old, new):
        path = _scenario_copy(tmp_path, old, new, name)
        line = _config_error(capsys, "--scenario", str(path), "plan")
        assert line.startswith(f"error: {tmp_path / name}: invalid YAML: ")

    def test_scenario_not_utf8(self, tmp_path, capsys):
        path = _scenario_copy(tmp_path, "seed: 0\n", "seed: 0\n")
        path.write_bytes(path.read_bytes() + b"# \xff\n")
        line = _config_error(capsys, "--scenario", str(path), "plan")
        assert line.startswith(f"error: {path}: invalid YAML: 'utf-8' codec")

    def test_yaml_nested_too_deep(self, tmp_path):
        # libyaml's composer once overflowed the C stack on this file and
        # killed the interpreter, so the run gets a process of its own.
        depth = 100_000
        path = _scenario_copy(tmp_path, "seed: 0\n",
                              "seed: " + "[" * depth + "]" * depth + "\n")
        src = str(Path(live.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys; from metroslice.cli import main; sys.exit(main(sys.argv[1:]))"
        run = subprocess.run([sys.executable, "-c", code, "--scenario", str(path), "plan"],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 2
        assert run.stdout == ""
        text = path.read_text()
        line = text.count("\n", 0, text.index("seed: [")) + 1
        assert run.stderr.splitlines() == [f"error: {path}:{line}: nested deeper than 32"]

    def test_measure_zero_count(self, capsys):
        line = _config_error(capsys, "measure", "--dst", "127.0.0.1:9", "--count", "0")
        assert "count must be in [1, 4294967295]" in line

    @pytest.mark.parametrize("edit, argv, message", [
        (lambda r: r.pop("vlan_id"), [], "missing key vlan_id"),
        (None, [], "invalid JSON"),
        (lambda r: r.update(t_virtual_s="x"), [], "t_virtual_s: expected float, got str"),
        (lambda r: r.update(t_virtual_s="x"), ["--tmin", "0"], "t_virtual_s: expected float"),
        (lambda r: r["stats"].update(count=0, received=0), [], "stats: count 0, received 0"),
        (lambda r: r.update(t_virtual_s=float("nan")), [],
         "t_virtual_s: expected a finite float, got nan"),
        (lambda r: r.update(t_virtul_s=1.0), [], "unknown key t_virtul_s"),
        (lambda r: r.update(stats=[1, 2]), [], "stats: expected dict, got list"),
        (lambda r: r.update(vlan_id=None), [], "vlan_id: expected int, got NoneType"),
        ("[" * 200000 + "]" * 200000, [], "invalid JSON"),
    ], ids=["missing-key", "not-json", "bad-type", "bad-type-tmin", "zero-count",
            "nan", "unknown-key", "nested-as-list", "null-not-optional", "too-deep"])
    def test_malformed_records_file(self, tmp_path, capsys, edit, argv, message):
        # The second line is the bad one; the error names the file and line.
        # ``edit`` changes a good record, or is the bad line itself.
        _run(capsys, "--out", str(tmp_path), "deploy")
        path = tmp_path / "records.jsonl"
        good = path.read_text()
        bad = "{not json"
        if isinstance(edit, str):
            bad = edit
        elif edit is not None:
            rec = json.loads(good)
            edit(rec)
            bad = json.dumps(rec)
        path.write_text(good + bad + "\n")
        line = _config_error(capsys, "records", "--records", str(path), *argv)
        assert line.startswith(f"error: {path}:2: {message}")

    def test_missing_scenario_is_exit_2(self, tmp_path, capsys):
        rc, out = _run(capsys, "--scenario", str(tmp_path / "nope.yaml"),
                       "--json", "plan")
        assert rc == 2
        assert "error" in json.loads(out)

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


# ---------------------------------------------------------------------------
# One leaf of the packaged files mutated: every command ends with exit 0 or
# 1, or with exit 2 and one error line, in bounded memory.

_FILES = ("scenario.yaml", "topology.yaml", "ns_request.yaml")
_VALUES = (0, 1, -1, 1e18, -1e18, 1e-300, 0.5, 10**7, 2**31, 10**400, "x", None,
           [], {}, True)
_COMMANDS = (["plan"], ["deploy"], ["table1", "--trains", "1"], ["degrade"])
#: tracemalloc peak of one command. The packaged files peak near 1 MiB
#: (deploy).
_PEAK_BOUND = 16 * 2**20
_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def _leaves(doc, path=()):
    """Key paths of every scalar in a YAML document."""
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else None)
    if items is None:
        return [path]
    return [leaf for key, value in items for leaf in _leaves(value, path + (key,))]


_PACKAGED = default_scenario_path().parent
_DOCS = {name: yaml.safe_load((_PACKAGED / name).read_text()) for name in _FILES}
_LEAVES = [(name, path) for name in _FILES for path in _leaves(_DOCS[name])]


def _run_mutated(directory, argv):
    """rc, stderr lines and tracemalloc peak of one in-process run."""
    err = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["--scenario", str(directory / "scenario.yaml"),
                       "--out", str(directory / "out"), *argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rc, err.getvalue().splitlines(), peak


class TestKBound:
    """``k`` is bounded (``model.MAX_K``) in the request file and on
    ``plan --k`` alike; past it, both exit 2 with one ``error:`` line
    before any ranking."""

    @pytest.mark.parametrize("k", [MAX_K, MAX_K + 1, 10**8],
                             ids=["bound", "bound+1", "1e8"])
    @pytest.mark.parametrize("where", ["load", "flag"])
    def test_bound(self, tmp_path, k, where):
        at_load = where == "load"
        _scenario_copy(tmp_path, "k: 10\n", f"k: {k if at_load else 10}\n",
                       "ns_request.yaml")
        rc, lines, peak = _run_mutated(tmp_path, ["plan"] if at_load else
                                       ["plan", "--k", str(k)])
        if k <= MAX_K:
            assert (rc, lines) == (0, [])
        else:
            assert rc == 2
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert f"k must be in [1, {MAX_K}]" in lines[0]
        assert peak < _PEAK_BOUND


class TestMutatedInputs:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.sampled_from(_LEAVES), st.sampled_from(_VALUES))
    def test_no_traceback_and_bounded_memory(self, leaf, value):
        name, path = leaf
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            for each in _FILES:
                shutil.copy(_PACKAGED / each, directory / each)
            doc = copy.deepcopy(_DOCS[name])
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            (directory / name).write_text(yaml.dump(doc, Dumper=_Dumper))
            for argv in _COMMANDS:
                rc, lines, peak = _run_mutated(directory, argv)
                assert rc in (0, 1, 2), argv
                if rc == 2:
                    assert len(lines) == 1 and lines[0].startswith("error: "), argv
                assert peak < _PEAK_BOUND, argv
