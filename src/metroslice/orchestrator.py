"""Slice orchestration workflows over a virtual clock.

WF1 instantiates a network slice: placement, NFVO admission, then the VNF
branch and the connectivity branch (packet configuration, media channel,
transponders) running in parallel. Placement only decides; WF1 makes every
commit itself (the VIM allocations, the media channel, each transponder's
bring-up) and registers its undo, so a failed slice takes nothing (a saga).
WF2 commissions the slice with probe trains and records verdicts in the
MDA. All timing is simulated; KPIs are derived from event timestamps only.

KPI-1: optical connectivity provisioning (media channel to lasers ready).
KPI-2: end-to-end connectivity (packet plus optical).
KPI-3: complete slice setup including VNF instantiation.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import KW_ONLY, dataclass, field, fields, replace
from functools import partial
from operator import itemgetter

from .dataplane import ElementParams, PathModel, path_from_topology
from .mda import MdaController, MeasurementRecord
from .model import (
    DemandProfile,
    NsRequest,
    Topology,
    VimStatus,
    check_ptz_bound,
)
from .optical import (
    OlsController,
    OpticalError,
    Transponder,
    VirtualClock,
    configure_transponder,
    reset_transponder,
)
from .planner import PlacementDecision, place
from .probe import SimulatedProbe, TrainConfig
from .records import Record

log = logging.getLogger(__name__)


class WorkflowError(Exception):
    """Provisioning failed; the transponders, the media channel and the
    VIM allocations were rolled back."""


class IncompleteLog(Exception):
    pass


@dataclass(frozen=True)
class TimingConfig:
    """Virtual durations of the provisioning phases, in seconds."""

    vnf_instantiation_s: float = 40.0
    media_channel_s: float = 5.0
    tp_config_s: float = 2.0
    laser_warmup_s: float = 125.0
    packet_config_s: float = 2.0
    orchestration_overhead_s: float = 3.0
    parallel_transponders: bool = True

    def __post_init__(self) -> None:
        # The bool passes too: False and True are 0 and 1.
        for f in fields(self):
            if not 0 <= getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be finite and >= 0")


@dataclass
class WorkflowEvent(Record):
    """One step of a workflow log. Plain, not frozen: each run builds its
    own and no memo or store keeps one, and a frozen dataclass costs
    several times as much to build."""

    seq: int
    t_virtual_s: float
    actor: str
    label: str
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class KpiReport(Record):
    kpi1_s: float
    kpi2_s: float
    kpi3_s: float
    excl_transponder_s: float
    phases: dict


@dataclass
class World:
    """Everything the orchestrator acts on.

    Every field but ``element_overrides`` is required, and those after it
    are keyword-only. The scenario's defaults live on ``config.Scenario``,
    ``TimingConfig`` and ``TrainConfig``; ``config.build_world`` passes
    them on.
    """

    topology: Topology
    vims: list[VimStatus]
    ols: OlsController
    transponders: dict[str, Transponder]
    sip_of_tp: dict[str, str]
    mda: MdaController
    demand: DemandProfile
    element_overrides: dict[str, ElementParams] = field(default_factory=dict)
    _: KW_ONLY
    timing: TimingConfig
    probe_cfg: TrainConfig
    probe_endpoints: tuple[str, str]
    slot_floor_n: int
    slot_m: int
    tx_power_dbm: float
    seed: int


class _EventLog:
    def __init__(self) -> None:
        self._staged: list[tuple[float, str, str, dict]] = []

    def add(self, t_s: float, actor: str, label: str, **detail) -> None:
        self._staged.append((t_s, actor, label, detail))

    def finish(self) -> list[WorkflowEvent]:
        # Stable by timestamp: simultaneous events keep insertion order, so
        # the interleaving of parallel branches is reproducible.
        ordered = sorted(self._staged, key=itemgetter(0))
        return [WorkflowEvent(seq, *e) for seq, e in enumerate(ordered, start=1)]


def run_wf1(
    req: NsRequest, world: World
) -> tuple[PlacementDecision, KpiReport | None, list[WorkflowEvent]]:
    """Instantiate a slice. Blocked requests return a three-event log and
    no KPI report, and commit nothing. A placed request allocates its VNFs
    on the chosen VIMs, then creates the media channel and configures the
    transponders; each commit registers its undo. A failure runs the undos
    in reverse before it raises, an ``OpticalError`` as ``WorkflowError``."""
    timing = world.timing
    events = _EventLog()
    t0 = 0.0
    events.add(t0, "planner", "m01_retrieve_ns_descriptors", ns_id=req.ns_id)
    events.add(
        t0, "planner", "m02_retrieve_vim_status",
        vims=[v.vim_id for v in world.vims],
    )

    decision = place(req, world.topology, world.vims)
    if not decision.placed:
        events.add(
            t0, "planner", "m03_placement_blocked",
            reason=decision.block_reason.value,
        )
        return decision, None, events.finish()
    events.add(
        t0, "planner", "m03_ns_instantiation_request",
        placement=decision.candidate.to_record(),
    )

    t_admitted = t0 + timing.orchestration_overhead_s
    events.add(
        t_admitted, "nfvo", "m04_vnf_instantiation_dispatch",
        vims=list(decision.candidate.vim_ids),
    )

    # VNF branch: all VNFs instantiate in parallel on their VIMs.
    t_vnfs_done = t_admitted + timing.vnf_instantiation_s
    events.add(
        t_vnfs_done, "vim", "vnfs_instantiated",
        vnfs=[v.vnf_id for v in req.chain],
    )

    # Connectivity branch: packet first, then the optical segment.
    t_conn_start = t_admitted
    events.add(t_conn_start, "parent-controller", "m05_connectivity_request",
               ns_id=req.ns_id)
    events.add(t_conn_start, "packet-controller", "m06_packet_config_request",
               vlan_id=world.probe_cfg.vlan_id)
    t_packet_done = t_conn_start + timing.packet_config_s
    events.add(t_packet_done, "packet-controller", "packet_configured")

    t_optical_start = t_packet_done
    undo = []
    try:
        vims = {v.vim_id: v for v in world.vims}
        for vnf, vim_id in zip(req.chain, decision.candidate.vim_ids):
            vims[vim_id].allocate(vnf)
            undo.append(partial(vims[vim_id].release, vnf))

        sips, view = world.ols.get_context()
        events.add(
            t_optical_start, "parent-controller", "m07_get_tapi_context",
            sips=[s.sip_id for s in sips], nodes=list(view.nodes),
        )
        active = world.ols.get_active_connections()
        events.add(
            t_optical_start, "parent-controller", "m08_get_active_media_channels",
            mc_ids=[c.mc_id for c in active],
        )
        tp_ids = sorted(world.transponders)
        if len(tp_ids) < 2:
            raise WorkflowError("need two transponders for the slice circuit")
        a_tp, z_tp = tp_ids[0], tp_ids[1]
        events.add(
            t_optical_start, "parent-controller", "m09_create_media_channel",
            a_sip=world.sip_of_tp[a_tp], z_sip=world.sip_of_tp[z_tp],
        )
        mc = world.ols.create_media_channel(
            world.sip_of_tp[a_tp],
            world.sip_of_tp[z_tp],
            floor_n=world.slot_floor_n,
            m=world.slot_m,
        )
        undo.append(partial(world.ols.delete_media_channel, mc.mc_id))
        t_mc_done = t_optical_start + timing.media_channel_s
        events.add(
            t_mc_done, "ols-controller", "media_channel_provisioned",
            mc=mc.to_record(),
        )

        events.add(t_mc_done, "parent-controller", "m10_configure_transponders",
                   tp_ids=[a_tp, z_tp])
        t_tp_cursor = t_mc_done
        for tp_id in (a_tp, z_tp):
            clock = VirtualClock(t_tp_cursor)
            tp = configure_transponder(
                world.transponders[tp_id],
                mc.slot,
                world.tx_power_dbm,
                clock,
                config_duration_s=timing.tp_config_s,
                laser_warmup_s=timing.laser_warmup_s,
            )
            undo.append(partial(reset_transponder, tp))
            if not timing.parallel_transponders:
                t_tp_cursor = clock.now_s
        t_tp_done = (
            t_mc_done + timing.tp_config_s
            if timing.parallel_transponders
            else t_tp_cursor
        )
        events.add(t_tp_done, "transponder", "transponders_configured",
                   tp_ids=[a_tp, z_tp])
    except Exception as exc:
        # All or nothing: undo every commit so far, the latest first.
        for step in reversed(undo):
            step()
        if isinstance(exc, OpticalError):
            raise WorkflowError(f"optical provisioning failed: {exc}") from exc
        raise

    t_optical_ready = max(world.transponders[t].ready_at_s for t in (a_tp, z_tp))
    events.add(t_optical_ready, "transponder", "lasers_ready",
               tp_ids=[a_tp, z_tp])
    events.add(t_optical_ready, "parent-controller", "connectivity_ready",
               mc_id=mc.mc_id)

    t_ns_ready = max(t_vnfs_done, t_optical_ready)
    events.add(t_ns_ready, "nfvo", "ns_ready", ns_id=req.ns_id)

    log_events = events.finish()
    report = derive_kpis(log_events)
    return decision, report, log_events


#: Each KPI and phase as (start label, end label): the time from the first
#: event with the start label to the first with the end label. The KPIs
#: are named as ``KpiReport``'s fields; the rest are its phases, in order.
SPANS = {
    "kpi1_s": ("m07_get_tapi_context", "lasers_ready"),
    "kpi2_s": ("m05_connectivity_request", "connectivity_ready"),
    "kpi3_s": ("m01_retrieve_ns_descriptors", "ns_ready"),
    "orchestration_overhead": ("m01_retrieve_ns_descriptors",
                               "m04_vnf_instantiation_dispatch"),
    "vnf_instantiation": ("m04_vnf_instantiation_dispatch", "vnfs_instantiated"),
    "packet_config": ("m06_packet_config_request", "packet_configured"),
    "media_channel": ("m09_create_media_channel", "media_channel_provisioned"),
    "transponder_config": ("m10_configure_transponders", "transponders_configured"),
    "laser_warmup": ("transponders_configured", "lasers_ready"),
}


#: The labels SPANS reads, each once, in the order SPANS first names them.
_MARKERS = tuple(dict.fromkeys(itertools.chain.from_iterable(SPANS.values())))


def derive_kpis(events: list[WorkflowEvent]) -> KpiReport:
    """Compute the KPI report purely from workflow event timestamps."""
    t = {}
    for e in events:
        t.setdefault(e.label, e.t_virtual_s)
    missing = [label for label in _MARKERS if label not in t]
    if missing:
        raise IncompleteLog(f"missing workflow markers: {missing}")

    phases = {name: t[end] - t[start] for name, (start, end) in SPANS.items()}
    kpis = {name: phases.pop(name) for name in ("kpi1_s", "kpi2_s", "kpi3_s")}
    # The transponder-free setup figure is the serial sum of the remaining
    # phases, not a timeline difference: it answers "how long would setup
    # take if transponders were free", independent of branch overlap.
    excl_tp = (
        phases["orchestration_overhead"]
        + phases["vnf_instantiation"]
        + phases["packet_config"]
        + phases["media_channel"]
    )
    return KpiReport(**kpis, excl_transponder_s=excl_tp, phases=phases)


def build_circuit_path(world: World) -> PathModel:
    """Dataplane model of the path WF2 probes: the minimum-latency path
    between the probe endpoints.

    It ignores the placement and the media channel's route. On the
    packaged scenario the two coincide (``roadm-1 –fib-12– roadm-2``).
    """
    src, dst = world.probe_endpoints
    return path_from_topology(
        world.topology, src, dst, overrides=world.element_overrides
    )


def run_wf2(
    world: World,
    circuit_ids: list[str],
    max_rtt_us: float,
    start_t_s: float = 0.0,
) -> tuple[list[MeasurementRecord], list[WorkflowEvent]]:
    """Commission provisioned circuits with probe trains.

    Returns the measurement records plus the commissioning events. The
    slice passes when every circuit passes; the PTZ control-loop bound
    from the demand profile is checked against the measured RTT.
    """
    events = _EventLog()
    world.mda.clock.now_s = max(world.mda.clock.now_s, start_t_s)
    events.add(world.mda.clock.now_s, "nfvo", "m11_commissioning_request",
               circuits=list(circuit_ids))
    records = []
    for i, circuit_id in enumerate(circuit_ids):
        probe = SimulatedProbe(build_circuit_path(world), seed=world.seed + i)
        events.add(world.mda.clock.now_s, "mda", "m12_probe_measurement",
                   circuit_id=circuit_id)
        rec = world.mda.measure_circuit(
            circuit_id,
            max_rtt_us=max_rtt_us,
            probe=probe,
            cfg=world.probe_cfg,
        )
        records.append(rec)
        events.add(
            rec.t_virtual_s, "mda", "measurement_recorded",
            circuit_id=circuit_id, verdict=rec.verdict,
            rtt_us=rec.stats.rtt_us, loss_rate=rec.stats.loss_rate,
        )
    all_pass = all(r.verdict == "pass" for r in records)
    label = "commissioning_passed" if all_pass else "commissioning_failed"
    events.add(world.mda.clock.now_s, "nfvo", label,
               circuits=list(circuit_ids))
    if records and records[0].stats.rtt_us is not None:
        rtt_ms = records[0].stats.rtt_us / 1000.0
        events.add(
            world.mda.clock.now_s, "vms", "ptz_bound_checked",
            measured_rtt_ms=rtt_ms,
            bound_ms=world.demand.ptz_max_rtt_ms,
            ok=check_ptz_bound(rtt_ms, world.demand),
        )
    return records, events.finish()


def merge_logs(*logs: list[WorkflowEvent]) -> list[WorkflowEvent]:
    """Concatenate workflow logs into one consistently numbered sequence."""
    return [
        replace(e, seq=seq)
        for seq, e in enumerate(itertools.chain(*logs), start=1)
    ]
