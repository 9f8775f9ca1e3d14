"""Scenario and topology file loading.

Each mapping in a file is read into one dataclass by ``records.Reader``,
which walks the dataclass's fields with the decoders ``records`` plans
once per class; ``_KEYS`` names the YAML key wherever it differs from the
field name.

Topology files carry exactly these top-level keys (``?``: optional):

    prop_const_us_per_km?: float
    nodes[]:  {id, kind, fixed_latency_us?, vim?}
    links[]:  {id, endpoints: [a, z], length_km, kind?}
    vims[]:   {vim_id, cpu_idle, mem_idle, storage_idle,
               instantiable_vnf_types[]}
    demand:   {entries[]: {channel_count, per_channel_mbps},
               ptz_max_rtt_ms?}

A scenario file references a topology and a slice request file and adds
timing, probe, optical, dataplane, degradation, and calibration-row
settings (see ``Scenario``). Parse problems, including a key that no
field reads, raise ConfigError with the offending file and key path in
the message.
"""

from __future__ import annotations

import copy
import importlib.resources
import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .dataplane import (
    MAX_DELAY_US,
    MAX_JITTER_STD_NS,
    DegradationScenario,
    ElementParams,
    element_for_node,
)
from .mda import DetectorConfig, MdaController
from .model import (
    DemandProfile,
    Link,
    Node,
    NodeKind,
    NsRequest,
    Topology,
    VimStatus,
    latency_graph,
    sum_left_to_right,
    validate_topology,
)
from .optical import DEFAULT_SLOT_M, OlsController, Sip, Transponder, VirtualClock
from .orchestrator import TimingConfig, World
from .probe import TrainConfig
from .records import ABSENT, ConfigError, Reader


def default_scenario_path() -> Path:
    return Path(
        importlib.resources.files("metroslice.data").joinpath("scenario.yaml")
    )


#: Widest tunability range the loader accepts, in 6.25 GHz grid steps
#: (max - min), and widest slot (2 * slot_m). The C+L band spans about
#: 1 800 steps, and ``build_world`` holds each range as a set of every
#: ``n`` in it.
_MAX_TUNABILITY_STEPS = 4096

#: libyaml's parser when PyYAML was built with it, else the pure-Python one.
_SafeLoader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


#: Deepest nesting of sequences and mappings a file may have; the packaged
#: files reach 4. libyaml's composer recurses on the C stack once per
#: level, and some tens of thousands of levels crash the interpreter.
_MAX_DEPTH = 32


def _check_depth(path: Path, fh) -> None:
    """Refuse a stream nested past ``_MAX_DEPTH``, from its parse events
    alone: the parser keeps its nesting on a heap stack, not the C stack,
    so it survives any depth."""
    depth = 0
    for event in yaml.parse(fh, Loader=_SafeLoader):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > _MAX_DEPTH:
                line = event.start_mark.line + 1
                raise ConfigError(f"{path}:{line}: nested deeper than {_MAX_DEPTH}")
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1


def _load_yaml(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            _check_depth(path, fh)
            fh.seek(0)
            data = yaml.load(fh, Loader=_SafeLoader)
    except FileNotFoundError:
        raise ConfigError(f"{path}: file not found") from None
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError: an integer literal longer than Python converts
        # (sys.get_int_max_str_digits), or bytes that are not UTF-8.
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    except RecursionError:
        # The pure-Python composer recurses once per level too.
        raise ConfigError(f"{path}: nested deeper than {_MAX_DEPTH}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return data


@dataclass(frozen=True)
class CalibrationRow:
    """One measurement row: an element sequence and a patched fibre length."""

    label: str
    length_km: float
    path_nodes: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.length_km < 0:
            raise ValueError(f"length_km must be >= 0, got {self.length_km}")


@dataclass
class Scenario:
    """One loaded scenario file. Each field comes from the YAML key of its
    name, or from the one ``_KEYS`` gives it."""

    topology: Topology
    demand: DemandProfile
    request: NsRequest
    probe_endpoints: tuple[str, str]
    timing: TimingConfig = TimingConfig()
    probe_cfg: TrainConfig = TrainConfig()
    trains_per_row: int = 10
    degradation: DegradationScenario = DegradationScenario()
    detector: DetectorConfig = DetectorConfig()
    rows: list[CalibrationRow] = field(default_factory=list)
    element_overrides: dict[str, ElementParams] = field(default_factory=dict)
    sip_tunability: tuple[int, int] = (-256, 256)
    tp_tunability: tuple[int, int] = (-256, 256)
    slot_floor_n: int = 0
    slot_m: int = DEFAULT_SLOT_M
    abstract_ols: bool = False
    tx_power_dbm: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trains_per_row < 1:
            raise ValueError("probe.trains_per_row must be >= 1")
        if self.slot_m < 1:
            raise ValueError("optical.slot_m must be >= 1")
        # A slot covers [n - m, n + m] on the grid.
        if 2 * self.slot_m > _MAX_TUNABILITY_STEPS:
            raise ValueError(f"optical.slot_m: spans more than "
                             f"{_MAX_TUNABILITY_STEPS} grid steps")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        labels = set()
        for i, row in enumerate(self.rows):
            if row.label in labels:
                raise ValueError(f"calibration_rows[{i}].label: {row.label!r} repeats")
            labels.add(row.label)
        for key, rng in (("sip_tunability_n", self.sip_tunability),
                         ("tp_tunability_n", self.tp_tunability)):
            if len(rng) != 2 or rng[0] > rng[1]:
                raise ValueError(f"optical.{key}: expected [min, max]")
            if rng[1] - rng[0] > _MAX_TUNABILITY_STEPS:
                raise ValueError(f"optical.{key}: spans more than "
                                 f"{_MAX_TUNABILITY_STEPS} grid steps")
        # WF1 tunes both SIPs and both transponders to one n >= the floor.
        top = min(self.sip_tunability[1], self.tp_tunability[1])
        if max(self.sip_tunability[0], self.tp_tunability[0]) > top:
            raise ValueError("optical.tp_tunability_n: no n in both it and "
                             "optical.sip_tunability_n")
        if self.slot_floor_n > top:
            raise ValueError(
                f"optical.slot_floor_n: no n >= {self.slot_floor_n} in both "
                "optical.sip_tunability_n and optical.tp_tunability_n")


#: YAML key of each field whose key is not its name; a dotted key reaches
#: into a section. ``None``: no key sets the field.
_KEYS: dict[tuple[type, str], str | None] = {
    (Node, "node_id"): "id",
    (Link, "link_id"): "id",
    (NsRequest, "chain"): "vnfs",
    (TrainConfig, "train_id"): None,
    (CalibrationRow, "path_nodes"): "path",
    (Scenario, "probe_cfg"): "probe",
    (Scenario, "trains_per_row"): "probe.trains_per_row",
    (Scenario, "detector"): "degradation",
    (Scenario, "rows"): "calibration_rows",
    (Scenario, "element_overrides"): "dataplane.element_overrides",
    (Scenario, "sip_tunability"): "optical.sip_tunability_n",
    (Scenario, "tp_tunability"): "optical.tp_tunability_n",
    (Scenario, "slot_floor_n"): "optical.slot_floor_n",
    (Scenario, "slot_m"): "optical.slot_m",
    (Scenario, "abstract_ols"): "optical.abstract_view",
    (Scenario, "tx_power_dbm"): "optical.tx_power_dbm",
}

_TOO_LONG = (f"delays sum past {MAX_DELAY_US:.4g} us (2^48 clock ticks), "
             "beyond which the simulated probe's float64 tick arithmetic "
             "distorts the jitter")
_TOO_JITTERY = (f"jitter sums past {MAX_JITTER_STD_NS:g} ns in quadrature "
                "(dataplane.MAX_JITTER_STD_NS)")


def load_topology(path: str | Path) -> tuple[Topology, DemandProfile]:
    path = Path(path)
    read = Reader(path, _KEYS)
    data = _load_yaml(path)

    vims: dict[str, VimStatus] = {}
    for i, vim in enumerate(read.get(data, "vims", list[VimStatus], "")):
        if vim.vim_id in vims:
            raise ConfigError(f"{path}: vims[{i}]: duplicate id {vim.vim_id}")
        vims[vim.vim_id] = vim

    nodes = []
    for i, raw in enumerate(read.get(data, "nodes", list[dict], "")):
        where = f"nodes[{i}]."
        vim_id = read.get(raw, "vim", str, where, required=False)
        if vim_id is not ABSENT and vim_id not in vims:
            raise ConfigError(f"{path}: nodes[{i}].vim: unknown VIM {vim_id!r}")
        nodes.append(read.build(Node, raw, where, vim=vims.get(vim_id)))

    topology = read.build(
        Topology, data, "",
        nodes=nodes, links=read.get(data, "links", list[Link], ""),
    )
    demand = read.get(data, "demand", DemandProfile, "")
    read.reject_unread()
    violations = validate_topology(topology)
    if violations:
        summary = "; ".join(f"{v.code}: {v.detail}" for v in violations)
        raise ConfigError(f"{path}: invalid topology: {summary}")
    # A route visits each node and link at most once, so its delay is at
    # most the sum of them all.
    total = 0.0
    delays = [(f"nodes[{i}].fixed_latency_us", n.fixed_latency_us)
              for i, n in enumerate(topology.nodes)]
    delays += [(f"links[{i}].length_km", l.length_km * topology.prop_const_us_per_km)
               for i, l in enumerate(topology.links)]
    for key, delay_us in delays:
        total += delay_us
        if total > MAX_DELAY_US:
            raise ConfigError(f"{path}: {key}: {_TOO_LONG}")
    return topology, demand


def load_ns_request(path: str | Path) -> NsRequest:
    path = Path(path)
    read = Reader(path, _KEYS)
    request = read.build(NsRequest, _load_yaml(path), "")
    read.reject_unread()
    return request


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    read = Reader(path, _KEYS)
    data = _load_yaml(path)

    topology, demand = load_topology(
        path.parent / read.get(data, "topology", str, "")
    )
    request_path = path.parent / read.get(data, "ns_request", str, "")
    request = load_ns_request(request_path)
    scenario = read.build(
        Scenario, data, "", topology=topology, demand=demand, request=request
    )
    read.reject_unread()

    latency = {n.node_id: n.fixed_latency_us for n in topology.nodes}
    known = set(latency)
    for key in ("ingress", "egress"):
        nid = getattr(request, key)
        if nid is not None and nid not in known:
            raise ConfigError(f"{request_path}: {key}: unknown node {nid!r}")
    for i, row in enumerate(scenario.rows):
        for nid in row.path_nodes:
            if nid not in known:
                raise ConfigError(
                    f"{path}: calibration_rows[{i}].path: unknown node {nid!r}"
                )
        # A row may list a node more than once, so it is checked apart.
        fixed = sum_left_to_right([latency[nid] for nid in row.path_nodes])
        if fixed > MAX_DELAY_US:
            raise ConfigError(f"{path}: calibration_rows[{i}].path: {_TOO_LONG}")
        if fixed + row.length_km * topology.prop_const_us_per_km > MAX_DELAY_US:
            raise ConfigError(
                f"{path}: calibration_rows[{i}].length_km: {_TOO_LONG}")
    if len(scenario.probe_endpoints) != 2 or not known.issuperset(
        scenario.probe_endpoints
    ):
        raise ConfigError(
            f"{path}: probe_endpoints: expected two known node ids"
        )
    src, dst = scenario.probe_endpoints
    if dst not in latency_graph(topology).paths_from(src)[0]:
        raise ConfigError(f"{path}: probe_endpoints: no path from {src} to {dst}")
    overrides = scenario.element_overrides
    for nid in overrides:
        if nid not in known:
            raise ConfigError(
                f"{path}: dataplane.element_overrides.{nid}: unknown node"
            )
    # As for delays: a route's jitter is at most the root-sum-square over
    # every node, and a row, which may repeat a node, is checked apart.
    # The defaults go first, so a sum that crosses crosses at an override.
    jitter = {n.node_id: element_for_node(n, overrides).jitter_std_ns
              for n in sorted(topology.nodes, key=lambda n: n.node_id in overrides)}
    squares = 0.0
    for nid, sigma in jitter.items():
        squares += sigma**2
        if math.sqrt(squares) > MAX_JITTER_STD_NS:
            key = (f"dataplane.element_overrides.{nid}.jitter_std_ns"
                   if nid in overrides else "topology")
            raise ConfigError(f"{path}: {key}: {_TOO_JITTERY}")
    for i, row in enumerate(scenario.rows):
        squares = [jitter[nid]**2 for nid in row.path_nodes]
        if math.sqrt(sum_left_to_right(squares)) > MAX_JITTER_STD_NS:
            raise ConfigError(f"{path}: calibration_rows[{i}].path: {_TOO_JITTERY}")
    return scenario


def build_world(scenario: Scenario) -> World:
    """Instantiate the mutable runtime state for one run of ``scenario``,
    seeded with ``scenario.seed``.

    The topology (and with it every VIM resource snapshot) is copied, so
    worlds built from one scenario never share allocation state.
    """
    topology = copy.deepcopy(scenario.topology)
    roadms = sorted(
        n.node_id for n in topology.nodes if n.kind is NodeKind.ROADM
    )
    if len(roadms) < 2:
        raise ConfigError("scenario needs at least two ROADMs for the circuit")
    tun = frozenset(
        range(scenario.sip_tunability[0], scenario.sip_tunability[1] + 1)
    )
    tp_tun = frozenset(
        range(scenario.tp_tunability[0], scenario.tp_tunability[1] + 1)
    )
    # One transponder per slice endpoint, attached to the first and
    # second ROADM in id order.
    sips = [
        Sip(sip_id="sip-a", node_id=roadms[0], port="client-1", tunability=tun),
        Sip(sip_id="sip-z", node_id=roadms[1], port="client-1", tunability=tun),
    ]
    transponders = {
        "tp-a": Transponder(tp_id="tp-a", tunable_n=tp_tun),
        "tp-z": Transponder(tp_id="tp-z", tunable_n=tp_tun),
    }
    sip_of_tp = {"tp-a": "sip-a", "tp-z": "sip-z"}
    ols = OlsController(topology, sips,
                        abstract_view=scenario.abstract_ols)
    return World(
        topology=topology,
        vims=[n.vim for n in topology.vim_nodes()],
        ols=ols,
        transponders=transponders,
        sip_of_tp=sip_of_tp,
        mda=MdaController(VirtualClock()),
        demand=scenario.demand,
        timing=scenario.timing,
        probe_cfg=scenario.probe_cfg,
        element_overrides=scenario.element_overrides,
        probe_endpoints=scenario.probe_endpoints,
        slot_floor_n=scenario.slot_floor_n,
        slot_m=scenario.slot_m,
        tx_power_dbm=scenario.tx_power_dbm,
        seed=scenario.seed,
    )
