"""Workflows: WF1 provisioning timeline, KPI derivation, WF2 commissioning."""

import ast
import random
from dataclasses import replace

import pytest

from metroslice import orchestrator
from metroslice.config import build_world
from metroslice.dataplane import path_from_nodes
from metroslice.model import NsRequest, VnfDescriptor
from metroslice.optical import Transponder, TransponderPhase
from metroslice.orchestrator import (
    IncompleteLog,
    TimingConfig,
    WorkflowError,
    WorkflowEvent,
    derive_kpis,
    merge_logs,
    run_wf1,
    run_wf2,
)


def _idle(world):
    return {v.vim_id: (v.cpu_idle, v.mem_idle, v.storage_idle) for v in world.vims}


class TestWf1Defaults:
    def test_kpis(self, scenario, world):
        decision, report, events = run_wf1(scenario.request, world)
        assert decision.placed
        assert report.kpi1_s == pytest.approx(132.0)
        assert report.kpi2_s == pytest.approx(134.0)
        assert report.kpi3_s == pytest.approx(137.0)
        assert report.excl_transponder_s == pytest.approx(50.0)
        assert report.phases == pytest.approx({
            "orchestration_overhead": 3.0,
            "vnf_instantiation": 40.0,
            "packet_config": 2.0,
            "media_channel": 5.0,
            "transponder_config": 2.0,
            "laser_warmup": 125.0,
        })

    def test_timeline_markers(self, scenario, world):
        _, _, events = run_wf1(scenario.request, world)
        t = {e.label: e.t_virtual_s for e in events}
        assert t["m01_retrieve_ns_descriptors"] == 0.0
        assert t["m04_vnf_instantiation_dispatch"] == pytest.approx(3.0)
        assert t["packet_configured"] == pytest.approx(5.0)
        assert t["media_channel_provisioned"] == pytest.approx(10.0)
        assert t["transponders_configured"] == pytest.approx(12.0)
        assert t["vnfs_instantiated"] == pytest.approx(43.0)
        assert t["lasers_ready"] == pytest.approx(137.0)
        assert t["ns_ready"] == pytest.approx(137.0)
        assert [e.seq for e in events] == list(range(1, len(events) + 1))
        assert all(a.t_virtual_s <= b.t_virtual_s for a, b in zip(events, events[1:]))

    def test_provisioned_state(self, scenario, world):
        run_wf1(scenario.request, world)
        active = world.ols.get_active_connections()
        assert len(active) == 1
        assert active[0].slot.n == 0 and active[0].slot.m == 4
        assert active[0].route == ("fib-12",)
        for tp in world.transponders.values():
            assert tp.phase is TransponderPhase.ASSIGNED
            assert tp.och == active[0].slot
            assert tp.traffic_ready(137.0)
            assert not tp.traffic_ready(136.9)

    def test_allocates_the_chosen_vims(self, scenario, world):
        # Placement only decides; WF1 takes vms-core (4/8192/200) from
        # vim-amen and analytics (8/16384/100) from vim-mcen, and no more.
        want = _idle(world)
        want["vim-amen"] = (16 - 4, 32768 - 8192, 500 - 200)
        want["vim-mcen"] = (32 - 8, 65536 - 16384, 1000 - 100)
        cpu_before = sum(v.cpu_idle for v in world.vims)
        run_wf1(scenario.request, world)
        assert _idle(world) == want
        assert cpu_before - sum(v.cpu_idle for v in world.vims) == sum(
            v.cpu_req for v in scenario.request.chain
        )

    def test_serial_transponders(self, scenario, world):
        world.timing = replace(world.timing, parallel_transponders=False)
        _, report, _ = run_wf1(scenario.request, world)
        assert report.kpi3_s == pytest.approx(139.0)
        assert report.phases["transponder_config"] == pytest.approx(4.0)

    def test_event_log_deterministic(self, scenario):
        runs = []
        for _ in range(2):
            w = build_world(scenario)
            _, _, events = run_wf1(scenario.request, w)
            runs.append(events)
        assert runs[0] == runs[1]


class TestWf1Blocked:
    def test_blocked_log_is_three_events(self, scenario, world):
        req = NsRequest(
            ns_id="ns-bad",
            chain=[VnfDescriptor("v", "no-such-tag", 1, 1, 1)],
            max_rtt_us=1000.0,
        )
        decision, report, events = run_wf1(req, world)
        assert not decision.placed
        assert report is None
        assert [e.label for e in events] == [
            "m01_retrieve_ns_descriptors",
            "m02_retrieve_vim_status",
            "m03_placement_blocked",
        ]
        assert world.ols.get_active_connections() == []

    def test_rollback_on_provisioning_error(self, scenario, world):
        # A transponder that cannot tune anywhere the SIPs can: the media
        # channel gets created, then configuration fails and rolls it back.
        world.transponders["tp-a"] = Transponder("tp-a", tunable_n=frozenset({999}))
        with pytest.raises(WorkflowError):
            run_wf1(scenario.request, world)
        assert world.ols.get_active_connections() == []

    def test_failed_deploy_hands_back_transponders(self, scenario, world):
        # tp-a comes up before tp-z fails to tune: the rollback must return
        # tp-a to Blank, or the next deploy fails on it with InvalidPhase.
        tp_z = world.transponders["tp-z"]
        world.transponders["tp-z"] = Transponder("tp-z", tunable_n=frozenset({999}))
        with pytest.raises(WorkflowError):
            run_wf1(scenario.request, world)
        tp_a = world.transponders["tp-a"]
        assert tp_a == Transponder("tp-a", tunable_n=tp_a.tunable_n)
        world.transponders["tp-z"] = tp_z
        decision, report, _ = run_wf1(scenario.request, world)
        assert decision.placed and report is not None

    @pytest.mark.parametrize(
        "failure", ["no_slot", "one_transponder", "tp_a_untunable", "tp_z_untunable"]
    )
    def test_failed_deploy_releases_vims(self, scenario, world, failure):
        # One fault per commit point: after the VIM allocations
        # (one_transponder), at the media channel (no_slot), after it
        # (tp_a_untunable) and after tp-a is up (tp_z_untunable). The deploy
        # must hand back everything it took.
        transponders, floor_n = dict(world.transponders), world.slot_floor_n
        if failure == "no_slot":
            world.slot_floor_n = 10_000
        elif failure == "one_transponder":
            del world.transponders["tp-z"]
        else:
            tp_id = "tp-a" if failure == "tp_a_untunable" else "tp-z"
            world.transponders[tp_id] = Transponder(tp_id, tunable_n=frozenset({999}))
        idle = _idle(world)
        with pytest.raises(WorkflowError):
            run_wf1(scenario.request, world)
        assert _idle(world) == idle
        assert world.ols.get_active_connections() == []
        for tp in world.transponders.values():
            assert tp == Transponder(tp.tp_id, tunable_n=tp.tunable_n)
        # The request still deploys once the fault is gone, on the same
        # transponders the failed deploy handed back.
        world.transponders, world.slot_floor_n = transponders, floor_n
        decision, report, _ = run_wf1(scenario.request, world)
        assert decision.placed and report is not None


class TestKpiProperties:
    def _world_with(self, scenario, timing):
        w = build_world(scenario)
        w.timing = timing
        return w

    def test_ordering_holds_for_random_timings(self, scenario):
        rng = random.Random(4)
        for _ in range(30):
            timing = TimingConfig(
                vnf_instantiation_s=rng.uniform(0, 60),
                media_channel_s=rng.uniform(0, 10),
                tp_config_s=rng.uniform(0, 10),
                laser_warmup_s=rng.uniform(0, 200),
                packet_config_s=rng.uniform(0, 10),
                orchestration_overhead_s=rng.uniform(0, 10),
                parallel_transponders=rng.random() < 0.5,
            )
            w = self._world_with(scenario, timing)
            _, report, _ = run_wf1(scenario.request, w)
            assert 0.0 <= report.kpi1_s <= report.kpi2_s <= report.kpi3_s

    def test_parallelism_law(self, scenario):
        rng = random.Random(5)
        for _ in range(20):
            timing = TimingConfig(
                vnf_instantiation_s=rng.uniform(0, 300),
                media_channel_s=rng.uniform(0, 10),
                tp_config_s=rng.uniform(0, 10),
                laser_warmup_s=rng.uniform(0, 200),
                packet_config_s=rng.uniform(0, 10),
                orchestration_overhead_s=rng.uniform(0, 10),
            )
            w = self._world_with(scenario, timing)
            _, report, _ = run_wf1(scenario.request, w)
            conn = (timing.packet_config_s + timing.media_channel_s
                    + timing.tp_config_s + timing.laser_warmup_s)
            expected = timing.orchestration_overhead_s + max(
                timing.vnf_instantiation_s, conn)
            assert report.kpi3_s == pytest.approx(expected, rel=1e-12)

    def test_zero_branch_collapse(self, scenario):
        w = self._world_with(scenario, TimingConfig(
            vnf_instantiation_s=0.0, media_channel_s=0.0, tp_config_s=0.0,
            laser_warmup_s=0.0, packet_config_s=0.0, orchestration_overhead_s=0.0,
        ))
        _, report, _ = run_wf1(scenario.request, w)
        assert report.kpi1_s == report.kpi2_s == report.kpi3_s == 0.0


class TestDeriveKpis:
    def _log(self, stamps):
        return [
            WorkflowEvent(seq=i + 1, t_virtual_s=t, actor="x", label=label)
            for i, (label, t) in enumerate(stamps)
        ]

    def test_synthetic_log_exact_durations(self):
        events = self._log([
            ("m01_retrieve_ns_descriptors", 0.0),
            ("m04_vnf_instantiation_dispatch", 2.0),
            ("m05_connectivity_request", 2.0),
            ("m06_packet_config_request", 2.0),
            ("packet_configured", 3.0),
            ("m07_get_tapi_context", 3.0),
            ("m09_create_media_channel", 3.0),
            ("media_channel_provisioned", 7.0),
            ("m10_configure_transponders", 7.0),
            ("transponders_configured", 8.0),
            ("lasers_ready", 20.0),
            ("connectivity_ready", 20.0),
            ("vnfs_instantiated", 30.0),
            ("ns_ready", 30.0),
        ])
        report = derive_kpis(events)
        assert report.kpi1_s == pytest.approx(17.0)
        assert report.kpi2_s == pytest.approx(18.0)
        assert report.kpi3_s == pytest.approx(30.0)
        # overhead 2 + vnf 28 + packet 1 + media channel 4
        assert report.excl_transponder_s == pytest.approx(35.0)

    def test_incomplete_log_raises(self, scenario, world):
        _, _, events = run_wf1(scenario.request, world)
        truncated = [e for e in events if e.label != "ns_ready"]
        with pytest.raises(IncompleteLog):
            derive_kpis(truncated)

    def test_empty_log_names_every_marker(self):
        with pytest.raises(IncompleteLog) as exc:
            derive_kpis([])
        named = ast.literal_eval(str(exc.value).removeprefix("missing workflow markers: "))
        assert sorted(named) == sorted([
            "m01_retrieve_ns_descriptors", "m04_vnf_instantiation_dispatch",
            "m05_connectivity_request", "m06_packet_config_request",
            "packet_configured", "m07_get_tapi_context", "m09_create_media_channel",
            "media_channel_provisioned", "m10_configure_transponders",
            "transponders_configured", "lasers_ready", "connectivity_ready",
            "vnfs_instantiated", "ns_ready",
        ])


class TestWf2:
    def _provisioned(self, scenario, world):
        _, report, events = run_wf1(scenario.request, world)
        mc = world.ols.get_active_connections()[0]
        return report, events, mc

    def test_commissioning_passes_on_default_circuit(self, scenario, world):
        report, _, mc = self._provisioned(scenario, world)
        records, events = run_wf2(
            world, [mc.mc_id],
            max_rtt_us=scenario.request.max_rtt_us,
            start_t_s=report.kpi3_s,
        )
        assert len(records) == 1
        rec = records[0]
        assert rec.verdict == "pass"
        assert rec.circuit_id == mc.mc_id
        assert rec.stats.rtt_us == pytest.approx(799.0, abs=0.5)
        assert rec.t_virtual_s >= report.kpi3_s
        labels = [e.label for e in events]
        assert labels[0] == "m11_commissioning_request"
        assert "m12_probe_measurement" in labels
        assert "measurement_recorded" in labels
        assert "commissioning_passed" in labels
        ptz = next(e for e in events if e.label == "ptz_bound_checked")
        assert ptz.detail["ok"] is True
        assert ptz.detail["measured_rtt_ms"] == pytest.approx(0.799, abs=0.001)
        assert world.mda.query_records() == records

    def test_commissioning_fails_on_tight_bound(self, scenario, world):
        _, _, mc = self._provisioned(scenario, world)
        records, events = run_wf2(world, [mc.mc_id], max_rtt_us=700.0)
        assert records[0].verdict == "fail"
        assert any(e.label == "commissioning_failed" for e in events)

    def test_zero_length_circuit_against_fixed_budget(self, scenario, world,
                                                      monkeypatch):
        # All six elements, no fibre: the 15.2 us two-way fixed budget
        # decides the verdict, so 10 us fails and 20 us passes.
        row = next(r for r in scenario.rows if r.label == "optical-80km")
        path = path_from_nodes(scenario.topology, row.path_nodes, 0.0,
                               overrides=world.element_overrides)
        monkeypatch.setattr(orchestrator, "build_circuit_path", lambda w: path)
        fail, _ = run_wf2(world, ["mc-z"], max_rtt_us=10.0)
        assert fail[0].verdict == "fail"
        ok, _ = run_wf2(world, ["mc-z"], max_rtt_us=20.0)
        assert ok[0].verdict == "pass"
        assert ok[0].stats.rtt_us == pytest.approx(15.2, abs=0.1)


class TestMergeLogs:
    def test_renumbers_sequentially(self, scenario, world):
        _, report, wf1_events = run_wf1(scenario.request, world)
        mc = world.ols.get_active_connections()[0]
        _, wf2_events = run_wf2(world, [mc.mc_id],
                                max_rtt_us=scenario.request.max_rtt_us,
                                start_t_s=report.kpi3_s)
        merged = merge_logs(wf1_events, wf2_events)
        assert [e.seq for e in merged] == list(range(1, len(merged) + 1))
        assert len(merged) == len(wf1_events) + len(wf2_events)
        assert [e.label for e in merged] == (
            [e.label for e in wf1_events] + [e.label for e in wf2_events]
        )
