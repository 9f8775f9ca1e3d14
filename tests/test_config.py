"""Scenario loading: schema enforcement, diagnostics, world construction."""

import math
import shutil
import tracemalloc
from dataclasses import replace

import pytest
import yaml

from metroslice.config import (
    ConfigError,
    build_world,
    default_scenario_path,
    load_ns_request,
    load_scenario,
    load_topology,
)
from metroslice.dataplane import MAX_DELAY_US, DegradationScenario
from metroslice.mda import DetectorConfig
from metroslice.model import (
    DEFAULT_PROP_CONST_US_PER_KM,
    DemandProfile,
    Link,
    Node,
    NodeKind,
    Topology,
)
from metroslice.orchestrator import TimingConfig
from metroslice.probe import TrainConfig


def _minimal_topology_doc():
    return {
        "prop_const_us_per_km": 4.899,
        "vims": [
            {
                "vim_id": "vim-a",
                "cpu_idle": 4,
                "mem_idle": 1024,
                "storage_idle": 10,
                "instantiable_vnf_types": ["vms-core"],
            }
        ],
        "nodes": [
            {"id": "amen", "kind": "AMEN", "vim": "vim-a"},
            {"id": "roadm-1", "kind": "ROADM", "fixed_latency_us": 3.275},
        ],
        "links": [
            {"id": "l1", "endpoints": ["amen", "roadm-1"], "length_km": 80},
        ],
        "demand": {
            "entries": [{"channel_count": 10, "per_channel_mbps": 2.0}],
            "ptz_max_rtt_ms": 10.0,
        },
    }


def _write(tmp_path, doc, name="topo.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(doc))
    return p


class TestLoadTopology:
    def test_minimal_document(self, tmp_path):
        topology, demand = load_topology(_write(tmp_path, _minimal_topology_doc()))
        assert [n.node_id for n in topology.nodes] == ["amen", "roadm-1"]
        assert topology.node("amen").vim.vim_id == "vim-a"
        assert topology.links[0].length_km == 80.0  # int coerced to float
        assert demand.ptz_max_rtt_ms == 10.0

    def test_optional_keys_take_dataclass_defaults(self, tmp_path):
        doc = _minimal_topology_doc()
        del doc["prop_const_us_per_km"]
        del doc["demand"]["ptz_max_rtt_ms"]
        del doc["nodes"][1]["fixed_latency_us"]
        topology, demand = load_topology(_write(tmp_path, doc))
        assert topology.prop_const_us_per_km == DEFAULT_PROP_CONST_US_PER_KM
        assert demand.ptz_max_rtt_ms == DemandProfile(entries=[]).ptz_max_rtt_ms
        assert topology.node("roadm-1").fixed_latency_us == 0.0

    def test_vim_types_stay_required(self, tmp_path):
        doc = _minimal_topology_doc()
        del doc["vims"][0]["instantiable_vnf_types"]
        with pytest.raises(ConfigError,
                           match=r"missing key vims\[0\]\.instantiable_vnf_types"):
            load_topology(_write(tmp_path, doc))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="file not found"):
            load_topology(tmp_path / "nope.yaml")

    def test_delay_bound_is_inclusive(self, tmp_path):
        doc = _minimal_topology_doc()
        doc["links"][0]["length_km"] = 0.0
        doc["nodes"][1]["fixed_latency_us"] = MAX_DELAY_US
        topology, _ = load_topology(_write(tmp_path, doc))
        assert topology.node("roadm-1").fixed_latency_us == MAX_DELAY_US
        doc["nodes"][1]["fixed_latency_us"] = math.nextafter(MAX_DELAY_US, math.inf)
        with pytest.raises(ConfigError,
                           match=r"nodes\[1\]\.fixed_latency_us: delays sum past"):
            load_topology(_write(tmp_path, doc))

    def test_top_level_must_be_mapping(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_topology(p)

    def test_missing_key_names_file_and_path(self, tmp_path):
        doc = _minimal_topology_doc()
        del doc["links"]
        p = _write(tmp_path, doc)
        with pytest.raises(ConfigError) as err:
            load_topology(p)
        assert str(p) in str(err.value)
        assert "links" in str(err.value)

    def test_wrong_type_names_key_path(self, tmp_path):
        doc = _minimal_topology_doc()
        doc["nodes"][1]["fixed_latency_us"] = "fast"
        with pytest.raises(ConfigError, match="fixed_latency_us"):
            load_topology(_write(tmp_path, doc))

    def test_unknown_node_kind(self, tmp_path):
        doc = _minimal_topology_doc()
        doc["nodes"][0]["kind"] = "Router"
        with pytest.raises(ConfigError, match="unknown kind"):
            load_topology(_write(tmp_path, doc))

    def test_unknown_vim_reference(self, tmp_path):
        doc = _minimal_topology_doc()
        doc["nodes"][0]["vim"] = "vim-ghost"
        with pytest.raises(ConfigError, match="unknown VIM"):
            load_topology(_write(tmp_path, doc))

    def test_duplicate_vim_id(self, tmp_path):
        doc = _minimal_topology_doc()
        doc["vims"].append(dict(doc["vims"][0]))
        with pytest.raises(ConfigError, match="duplicate"):
            load_topology(_write(tmp_path, doc))

    def test_structural_violations_surface(self, tmp_path):
        doc = _minimal_topology_doc()
        doc["links"][0]["endpoints"] = ["amen", "ghost"]
        with pytest.raises(ConfigError, match="unknown-endpoint"):
            load_topology(_write(tmp_path, doc))

    def test_bad_endpoint_arity(self, tmp_path):
        doc = _minimal_topology_doc()
        doc["links"][0]["endpoints"] = ["amen"]
        with pytest.raises(ConfigError, match="two node ids"):
            load_topology(_write(tmp_path, doc))

    @pytest.mark.parametrize("mutate, key", [
        (lambda doc: doc.update(prop_const=5.0), "prop_const"),
        (lambda doc: doc["nodes"][1].update(vimm="vim-a"), r"nodes\[1\]\.vimm"),
        (lambda doc: doc["links"][0].update(length=80), r"links\[0\]\.length"),
        (lambda doc: doc["vims"][0].update(gpu_idle=1), r"vims\[0\]\.gpu_idle"),
        (lambda doc: doc["demand"]["entries"][0].update(mbps=1.0),
         r"demand\.entries\[0\]\.mbps"),
    ], ids=["top_level", "node", "link", "vim", "demand_entry"])
    def test_unknown_key_names_key_path(self, tmp_path, mutate, key):
        doc = _minimal_topology_doc()
        mutate(doc)
        with pytest.raises(ConfigError, match=f"unknown key {key}$"):
            load_topology(_write(tmp_path, doc))

    @pytest.mark.parametrize("entry", [
        {"channel_count": 10**400, "per_channel_mbps": 2.0},
        {"channel_count": 10**300, "per_channel_mbps": 1.0e10},
    ], ids=["int_past_float", "product_past_float"])
    def test_demand_bandwidth_must_be_finite(self, tmp_path, entry):
        doc = _minimal_topology_doc()
        doc["demand"]["entries"].append(entry)
        with pytest.raises(ConfigError,
                           match=r"topo\.yaml: demand: aggregate bandwidth must be "
                                 r"finite$"):
            load_topology(_write(tmp_path, doc))


class TestLoadNsRequest:
    def test_valid(self, tmp_path):
        doc = {
            "ns_id": "ns-x",
            "max_rtt_us": 500.0,
            "vnfs": [
                {"vnf_id": "v1", "type_tag": "vms-core",
                 "cpu_req": 1, "mem_req": 2, "storage_req": 3},
            ],
        }
        req = load_ns_request(_write(tmp_path, doc, "req.yaml"))
        assert req.ns_id == "ns-x" and req.k == 10 and req.ingress is None
        doc["ingress"], doc["egress"] = None, "amen"
        req = load_ns_request(_write(tmp_path, doc, "req.yaml"))
        assert req.ingress is None and req.egress == "amen"

    def test_domain_validation_wrapped(self, tmp_path):
        doc = {"ns_id": "ns-x", "max_rtt_us": 500.0, "vnfs": [], "k": 10}
        with pytest.raises(ConfigError, match="non-empty"):
            load_ns_request(_write(tmp_path, doc, "req.yaml"))

    def test_repeated_vnf_id(self, tmp_path):
        # Placement keys eligibility by vnf_id, so a repeat would place the
        # first VNF where only the second fits.
        vnf = {"vnf_id": "v1", "type_tag": "vms-core",
               "cpu_req": 1, "mem_req": 2, "storage_req": 3}
        doc = {"ns_id": "ns-x", "max_rtt_us": 500.0,
               "vnfs": [vnf, dict(vnf, type_tag="video-analytics")]}
        p = _write(tmp_path, doc, "ns_request.yaml")
        with pytest.raises(ConfigError) as err:
            load_ns_request(p)
        assert str(err.value) == f"{p}: ns-x: vnf_id 'v1' repeats"

    def test_missing_key_in_list_names_full_path(self, tmp_path):
        doc = {
            "ns_id": "ns-x",
            "max_rtt_us": 500.0,
            "vnfs": [{"vnf_id": "v1", "type_tag": "vms-core",
                      "mem_req": 2, "storage_req": 3}],
        }
        p = _write(tmp_path, doc, "req.yaml")
        with pytest.raises(ConfigError) as err:
            load_ns_request(p)
        assert str(err.value) == f"{p}: missing key vnfs[0].cpu_req"

    def test_unknown_key_names_key_path(self, tmp_path):
        doc = {
            "ns_id": "ns-x",
            "max_rtt_us": 500.0,
            "vnfs": [{"vnf_id": "v1", "type_tag": "vms-core", "cpu_req": 1,
                      "mem_req": 2, "storage_req": 3, "gpu_req": 1}],
        }
        p = _write(tmp_path, doc, "req.yaml")
        with pytest.raises(ConfigError) as err:
            load_ns_request(p)
        assert str(err.value) == f"{p}: unknown key vnfs[0].gpu_req"


def _scenario_sandbox(tmp_path, mutate=None):
    """Copy the packaged scenario files and optionally mutate the document."""
    src = default_scenario_path().parent
    for name in ("scenario.yaml", "topology.yaml", "ns_request.yaml"):
        shutil.copy(src / name, tmp_path / name)
    doc = yaml.safe_load((tmp_path / "scenario.yaml").read_text())
    if mutate is not None:
        mutate(doc)
        (tmp_path / "scenario.yaml").write_text(yaml.safe_dump(doc))
    return tmp_path / "scenario.yaml"


class TestLoadScenario:
    def test_default_scenario(self, scenario):
        assert len(scenario.topology.nodes) == 9
        assert sorted(n.vim.vim_id for n in scenario.topology.vim_nodes()) == [
            "vim-amen", "vim-mcen",
        ]
        assert scenario.request.max_rtt_us == 10000.0
        assert scenario.probe_endpoints == ("probe-a", "probe-b")
        assert scenario.probe_cfg.count == 1_000_000
        assert scenario.trains_per_row == 10
        assert [r.label for r in scenario.rows] == [
            "probe-loopback",
            "agg-switches",
            "optical-2m",
            "optical-41km",
            "optical-80km",
        ]
        assert scenario.sip_tunability == (-256, 256)
        assert scenario.timing.laser_warmup_s == 125.0
        assert scenario.degradation.ramp_start_s == 10.0
        assert scenario.seed == 0

    def test_unknown_bert_type(self, tmp_path):
        def mutate(doc):
            doc["probe"]["bert_type"] = "Checkerboard"

        with pytest.raises(ConfigError, match="Checkerboard"):
            load_scenario(_scenario_sandbox(tmp_path, mutate))

    def test_probe_endpoints_must_exist(self, tmp_path):
        def mutate(doc):
            doc["probe_endpoints"] = ["probe-a", "probe-ghost"]

        with pytest.raises(ConfigError, match="probe_endpoints"):
            load_scenario(_scenario_sandbox(tmp_path, mutate))

    def test_calibration_row_unknown_node(self, tmp_path):
        def mutate(doc):
            doc["calibration_rows"][0]["path"] = ["probe-a", "ghost"]

        with pytest.raises(ConfigError, match="ghost"):
            load_scenario(_scenario_sandbox(tmp_path, mutate))

    def test_tunability_shape(self, tmp_path):
        def mutate(doc):
            doc["optical"]["sip_tunability_n"] = [256, -256]

        with pytest.raises(ConfigError, match="sip_tunability_n"):
            load_scenario(_scenario_sandbox(tmp_path, mutate))

    def test_defaults_fill_optional_sections(self, tmp_path):
        def mutate(doc):
            for key in ("timing", "probe", "optical", "degradation",
                        "calibration_rows"):
                doc.pop(key, None)

        sc = load_scenario(_scenario_sandbox(tmp_path, mutate))
        assert sc.timing.laser_warmup_s == 125.0
        assert sc.probe_cfg.count == 1_000_000
        assert sc.slot_m == 4
        assert sc.detector.baseline_window == 10
        assert sc.rows == []
        # Every omitted key takes its dataclass default, nothing else.
        assert sc.timing == TimingConfig()
        assert sc.probe_cfg == TrainConfig()
        assert sc.degradation == DegradationScenario()
        assert sc.detector == DetectorConfig()

    def test_train_id_is_not_a_key(self, tmp_path):
        def mutate(doc):
            doc["probe"]["train_id"] = 7

        with pytest.raises(ConfigError, match=r"unknown key probe\.train_id"):
            load_scenario(_scenario_sandbox(tmp_path, mutate))

    @pytest.mark.parametrize("mutate, match", [
        (lambda doc: doc["probe"].update(trains_per_row=0),
         r"probe\.trains_per_row must be >= 1"),
        (lambda doc: doc.update(dataplane={
            "element_overrides": {"sw-mcen": {"loss_prob": 2.0}}}),
         r"dataplane\.element_overrides\.sw-mcen: loss_prob"),
        (lambda doc: doc.update(dataplane={
            "element_overrides": {"sw-mcen": {"jitter_std_ns": -5}}}),
         r"dataplane\.element_overrides\.sw-mcen: jitter_std_ns"),
        (lambda doc: doc["optical"].update(slot_m=0),
         r"optical\.slot_m must be >= 1"),
        (lambda doc: doc["optical"].update(sip_tunability_n=["a", "b"]),
         r"optical\.sip_tunability_n\[0\]: expected int, got str"),
        (lambda doc: doc.update(dataplane={
            "element_overrides": {"ghost": {"loss_prob": 0.1}}}),
         r"dataplane\.element_overrides\.ghost: unknown node"),
        (lambda doc: doc["probe"].update(count=True),
         r"probe\.count: expected int, got bool"),
        (lambda doc: doc["timing"].update(laser_warmup_s=float("nan")),
         r"timing\.laser_warmup_s: expected a finite float, got nan"),
        (lambda doc: doc["degradation"].update(duration_s=float("inf")),
         r"degradation\.duration_s: expected a finite float, got inf"),
        (lambda doc: doc["timing"].update(laser_warmup_s=10**400),
         r"timing\.laser_warmup_s: expected a finite float, got an integer past "
         r"the float range$"),
        (lambda doc: doc["degradation"].update(duration_s=1e9),
         r"degradation: duration_s / sample_period_s gives over 1000000 samples$"),
        (lambda doc: doc.update(seeed=5), r"scenario\.yaml: unknown key seeed$"),
        (lambda doc: doc["optical"].update(slot_mm=4),
         r"unknown key optical\.slot_mm$"),
        (lambda doc: doc["calibration_rows"][0].update(lenght_km=1.0),
         r"unknown key calibration_rows\[0\]\.lenght_km$"),
        (lambda doc: doc.update(dataplane={
            "element_overrides": {"sw-mcen": {"loss_prob": 0.1, "los_prob": 0.1}}}),
         r"unknown key dataplane\.element_overrides\.sw-mcen\.los_prob$"),
        (lambda doc: doc.update(dataplane={
            "element_overrides": {"probe-a": {"jitter_std_ns": 1.0e4}}}),
         r"dataplane\.element_overrides\.probe-a\.jitter_std_ns: jitter sums past "
         r"1000 ns in quadrature"),
        # 600 ns passes over the topology, where probe-a counts once; the
        # row lists it three times: 1039 ns.
        (lambda doc: (doc.update(dataplane={
            "element_overrides": {"probe-a": {"jitter_std_ns": 600.0}}}),
                      doc["calibration_rows"].append(
                          {"label": "thrice", "length_km": 1.0,
                           "path": ["probe-a", "probe-a", "probe-a"]})),
         r"calibration_rows\[5\]\.path: jitter sums past 1000 ns"),
        (lambda doc: doc["optical"].update(slot_floor_n=257),
         r"optical\.slot_floor_n: no n >= 257 in both optical\.sip_tunability_n "
         r"and optical\.tp_tunability_n$"),
        (lambda doc: doc["optical"].update(sip_tunability_n=[-10, -1],
                                           tp_tunability_n=[0, 10]),
         r"optical\.tp_tunability_n: no n in both it and optical\.sip_tunability_n$"),
        (lambda doc: doc.update(seed=-1), r"scenario\.yaml: seed must be >= 0$"),
        # build_world would hold each of the 2^31 n in a set.
        (lambda doc: doc["optical"].update(sip_tunability_n=[-256, 2**31]),
         r"scenario\.yaml: optical\.sip_tunability_n: spans more than 4096 grid "
         r"steps$"),
        (lambda doc: doc["optical"].update(tp_tunability_n=[-2049, 2048]),
         r"scenario\.yaml: optical\.tp_tunability_n: spans more than 4096 grid "
         r"steps$"),
        # The media channel's width in GHz would overflow a float.
        (lambda doc: doc["optical"].update(slot_m=10**400),
         r"scenario\.yaml: optical\.slot_m: spans more than 4096 grid steps$"),
        (lambda doc: doc["optical"].update(slot_m=2049),
         r"scenario\.yaml: optical\.slot_m: spans more than 4096 grid steps$"),
        # table1 would write two rows of one label, and the budget would
        # read the 41 km row's statistics as the 2 m row's.
        (lambda doc: doc["calibration_rows"][3].update(label="optical-2m"),
         r"scenario\.yaml: calibration_rows\[3\]\.label: 'optical-2m' repeats$"),
    ], ids=["trains_per_row", "loss_prob", "jitter_std_ns", "slot_m",
            "tunability_items", "override_node", "bool_as_int", "nan",
            "inf", "int_past_float", "series_too_long", "top_level_key",
            "section_key", "row_key", "override_key", "jitter_past_bound", "row_jitter_past_bound",
            "slot_floor_past_tunability", "disjoint_tunability", "negative_seed",
            "sip_tunability_too_wide", "tp_tunability_too_wide", "slot_m_huge",
            "slot_m_too_wide", "repeated_row_label"])
    def test_rejected_at_load(self, tmp_path, mutate, match):
        path = _scenario_sandbox(tmp_path, mutate)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=match):
                load_scenario(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_bounds_are_inclusive(self, tmp_path):
        # The floor may sit on the top of the tunability, 999 ns on one
        # node stays under the jitter bound with the defaults elsewhere,
        # and a tunability range or a slot may span exactly 4096 grid steps.
        def mutate(doc):
            doc["optical"].update(slot_floor_n=256, tp_tunability_n=[-2048, 2048],
                                  slot_m=2048)
            doc.update(dataplane={"element_overrides": {
                "probe-a": {"jitter_std_ns": 999.0}}})

        sc = load_scenario(_scenario_sandbox(tmp_path, mutate))
        assert sc.slot_floor_n == 256
        assert sc.element_overrides["probe-a"].jitter_std_ns == 999.0
        assert sc.tp_tunability == (-2048, 2048)
        assert sc.slot_m == 2048


    def test_no_node_lookup_by_id(self, tmp_path, monkeypatch):
        # A lookup by id scans the node list, so one per node is quadratic
        # in the topology; the loader indexes the nodes once instead.
        path = _scenario_sandbox(tmp_path)
        chain = [f"x{i:04d}" for i in range(2000)]
        nodes = "".join(f"  - {{id: {x}, kind: AggSwitch, fixed_latency_us: 0.315}}\n"
                        for x in chain)
        links = "".join(f"  - {{id: p-{a}, endpoints: [{a}, {b}], length_km: 0.0005, "
                        "kind: Patch}\n" for a, b in zip(chain, ["sw-amen", *chain]))
        topo = tmp_path / "topology.yaml"
        text = topo.read_text()
        assert "\nlinks:\n" in text and "\nvims:\n" in text
        topo.write_text(text.replace("\nlinks:\n", nodes + "\nlinks:\n")
                        .replace("\nvims:\n", links + "\nvims:\n"))
        calls = []
        node = Topology.node
        monkeypatch.setattr(Topology, "node",
                            lambda t, node_id: calls.append(node_id) or node(t, node_id))
        assert len(load_scenario(path).topology.nodes) == 2009
        assert calls == []


class TestBuildWorld:
    def test_wiring(self, scenario):
        world = build_world(scenario)
        sips, view = world.ols.get_context()
        assert [(s.sip_id, s.node_id) for s in sips] == [
            ("sip-a", "roadm-1"), ("sip-z", "roadm-2"),
        ]
        assert sorted(world.transponders) == ["tp-a", "tp-z"]
        assert world.sip_of_tp == {"tp-a": "sip-a", "tp-z": "sip-z"}
        assert sorted(v.vim_id for v in world.vims) == ["vim-amen", "vim-mcen"]
        assert world.probe_endpoints == ("probe-a", "probe-b")
        assert world.seed == scenario.seed

    def test_seed_override(self, scenario):
        assert build_world(replace(scenario, seed=42)).seed == 42

    def test_worlds_are_independent(self, scenario):
        w1 = build_world(scenario)
        w2 = build_world(scenario)
        w1.ols.create_media_channel("sip-a", "sip-z")
        assert w2.ols.get_active_connections() == []
        w1.vims[0].cpu_idle -= 1
        assert w2.vims[0].cpu_idle != w1.vims[0].cpu_idle

    def test_needs_two_roadms(self, scenario):
        t = Topology(
            nodes=[Node("roadm-1", NodeKind.ROADM, 3.275)],
            links=[],
            prop_const_us_per_km=4.899,
        )
        broken = replace(scenario, topology=t)
        with pytest.raises(ConfigError, match="ROADM"):
            build_world(broken)
