"""Smoke test of the benchmark itself: tiny workloads and seeded faults.

    python3 -m pytest -q metrobench

Each workload runs at a tiny size and must emit every metric that
BENCHMARK.json names, with its unit. Each checker must reject a seeded
fault, and the workloads must count a fault in the program as failed
operations.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from metroslice import model, optical, planner, probe  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Calibration checks criterion 01 over at least ten trains per row.
MIN_OPS = {"calibration": 50}


def _tiny(name, tmp_path, tracer=None):
    wl = workloads.WORKLOADS[name]
    if tracer is not None:
        tracer.install()
    try:
        inputs = wl.make_inputs(3, tiny=True)
        return wl.run(inputs, 0.0, tmp_path, min_ops=MIN_OPS.get(name, 1))
    finally:
        if tracer is not None:
            tracer.uninstall()


END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


#: Per-layer metrics each workload must move (the layers it isolates).
ISOLATED = {
    "calibration": ["probe.run_s", "probe.run_self_s", "probe.compute_stats_s",
                    "probe.train_peak_mb", "dataplane.transmit_fwd_s",
                    "dataplane.transmit_rev_s", "dataplane.pkts"],
    "slice_churn": ["planner.place_s", "planner.place_calls", "planner.rtt_graph_s",
                    "planner.rank_s", "planner.search_space", "planner.chosen_rank",
                    "optical.configure_transponder_s", "orchestrator.wf1_s",
                    "orchestrator.wf1_self_s", "orchestrator.wf2_s",
                    "mda.measure_circuit_s", "mda.detect_s", "dataplane.evolve_quality_s",
                    "mda.records", "mda.export_s", "mda.load_s", "config.load_scenario_s"],
    "spectrum_churn": ["optical.create_firstfit_s", "optical.create_explicit_s",
                       "optical.delete_s", "optical.create_calls", "optical.create_rejected",
                       "optical.channels_created", "optical.channels_live",
                       "optical.create_growth"],
    "live_loopback": ["live.measure_s", "live.pkts_per_s_64", "live.pkts_per_s_1456",
                      "live.reflected", "probe.encode_pkts_per_s",
                      "probe.decode_pkts_per_s"],
}


def test_spec_matches_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", f"{HERE.name}/run.py"]
    assert SPEC["paths"] == [HERE.name]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_emits_every_metric(name, tmp_path):
    untraced = _tiny(name, tmp_path)
    total = untraced.total()
    assert total.failed == 0, total.problems
    assert total.attempted >= 1
    e2e = run.end_to_end(untraced, setup_s=0.5)
    assert set(e2e) == set(END_TO_END)
    assert all(v > 0 for v in e2e.values()), e2e
    detail = workloads.WORKLOADS[name].detail(untraced.fastest(), total)
    assert all(isinstance(u, str) for _, u in detail.values())

    tracer = Tracer()
    traced = _tiny(name, tmp_path, tracer)
    assert traced.total().failed == 0, traced.total().problems
    assert tracer.spans, "no span recorded"
    assert all(s[3] < i for i, s in enumerate(tracer.spans)), "parent after child"
    wl = workloads.WORKLOADS[name]
    extras = wl.extras(wl.make_inputs(3, tiny=True)) if wl.extras else {}
    layers = run.per_layer(tracer, traced, extras, {}, 1.0, PER_LAYER)
    assert list(layers) == list(PER_LAYER)
    idle = [k for k in ISOLATED[name] if not layers[k] > 0]
    assert not idle, f"layers {name} isolates read 0: {idle}"


def test_untraced_run_installs_no_wrappers(tmp_path):
    before = planner.place
    tracer = Tracer()
    tracer.install()
    assert planner.place is not before
    tracer.uninstall()
    assert planner.place is before
    assert optical.OlsController.create_media_channel.__name__ == "create_media_channel"
    assert not hasattr(optical.OlsController.create_media_channel, "__wrapped__")


def test_cli_result_line_and_missing_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "spectrum_churn",
         "--seed", "5", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END

    # A directory with only the benchmark files: no result, non-zero exit.
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "calibration",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- each checker rejects a seeded fault ---------------------------------------


def _mc(mc_id, n, m, route):
    return optical.MediaChannel(mc_id, "a", "z", optical.FrequencySlot(n, m), route)


def test_disjoint_spectrum_rejects_overlap():
    ok = [_mc("mc-1", 0, 4, ("l1",)), _mc("mc-2", 8, 4, ("l1",)), _mc("mc-3", 0, 4, ("l2",))]
    assert checks.disjoint_spectrum(ok) == []
    bad = ok + [_mc("mc-4", 6, 2, ("l2", "l1"))]
    assert checks.disjoint_spectrum(bad)


def test_vims_restored_rejects_leaked_allocation():
    vim = model.VimStatus("vim-1", 8, 1024, 100, frozenset({"fw"}))
    initial = checks.vim_snapshot([vim])
    assert checks.vims_restored([vim], initial) == []
    vim.allocate(model.VnfDescriptor("v", "fw", 1, 1, 1))
    assert checks.vims_restored([vim], initial)


def test_placed_chain_rejects_reused_vim_and_slow_chain():
    chain = [model.VnfDescriptor(f"v{i}", "fw", 1, 1, 1) for i in range(2)]
    req = model.NsRequest("ns", chain, max_rtt_us=100.0)
    good = planner.PlacementDecision(planner.ServiceChainCandidate(("a", "b"), 50.0), None)
    assert checks.placed_chain(good, req) == []
    reused = planner.PlacementDecision(planner.ServiceChainCandidate(("a", "a"), 0.0), None)
    assert checks.placed_chain(reused, req)
    slow = planner.PlacementDecision(planner.ServiceChainCandidate(("a", "b"), 150.0), None)
    assert checks.placed_chain(slow, req)


def _stats(rtt_mean_us, lost=0, count=1_000_000, prop=783.16):
    return probe.TrainStats(count, count - lost, rtt_mean_us - 1, rtt_mean_us, 1.0,
                            9e4, 0.01, prop)


def test_calibration_row_rejects_wrong_rtt_and_loss():
    args = ("optical-80km",)
    good = [_stats(799.1)] * 10
    assert checks.calibration_row(*args, good, 80.0, 4.899) == []
    assert checks.calibration_row(*args, [_stats(801.0)] * 10, 80.0, 4.899)
    assert checks.calibration_row(*args, [_stats(799.1, lost=10)] * 10, 80.0, 4.899)
    assert checks.calibration_row(*args, good[:3], 80.0, 4.899)


def test_budget_rejects_negative_part():
    assert checks.budget(probe.LatencyBudget(0.8, 1.3, 13.1)) == []
    assert checks.budget(probe.LatencyBudget(0.8, -0.1, 13.1))


def test_records_roundtrip_rejects_changed_record():
    recs = [{"circuit_id": "c", "verdict": "pass"}]
    assert checks.records_roundtrip(recs, [dict(recs[0])]) == []
    assert checks.records_roundtrip(recs, [{"circuit_id": "c", "verdict": "fail"}])
    assert checks.records_roundtrip(recs, [])


def test_live_checks_reject_loss_and_bad_rtt():
    good = probe.TrainStats(10, 10, 50.0, 60.0, 1.0, 1.0, 0.1)
    assert checks.live_train(good, 10) == []
    assert checks.live_train(dataclasses.replace(good, received=9), 10)
    assert checks.live_train(dataclasses.replace(good, rtt_us=0.0), 10)
    assert checks.live_train(dataclasses.replace(good, rtt_mean_us=float("inf")), 10)
    assert checks.reflector_count(10, 10) == []
    assert checks.reflector_count(9, 10)
    assert checks.reflector_count(None, 10)


# -- the workloads count a fault in the program as failed operations ------------


def test_spectrum_churn_counts_overlapping_slots(tmp_path, monkeypatch):
    monkeypatch.setattr(optical.OlsController, "_first_collision",
                        lambda self, route, slot: None)
    t = _tiny("spectrum_churn", tmp_path).total()
    assert t.failed > 0 and any("overlap" in p for p in t.problems)


def test_slice_churn_counts_leaked_allocation(tmp_path, monkeypatch):
    real = workloads._release

    def leaky(vims_by_id, req, candidate):
        real(vims_by_id, req, candidate)
        vims_by_id[candidate.vim_ids[0]].cpu_idle -= 1

    monkeypatch.setattr(workloads, "_release", leaky)
    t = _tiny("slice_churn", tmp_path).total()
    assert t.failed > 0 and any("initial" in p for p in t.problems)


def test_raising_op_counts_as_failed(tmp_path, monkeypatch):
    def no_route(self, a_sip, z_sip, **kwargs):
        raise optical.NoRoute(f"{a_sip} -> {z_sip}")

    monkeypatch.setattr(optical.OlsController, "create_media_channel", no_route)
    t = _tiny("spectrum_churn", tmp_path).total()
    assert t.failed > 0 and any("NoRoute" in p for p in t.problems)
