"""Disaggregated optical layer: OLS controller and transponder agents.

The OLS controller owns the ROADM-level topology, exposes service
interface points (SIPs), and provisions flexgrid media channels with
first-fit spectrum assignment. Transponder agents walk the five-step
logical-channel bring-up and report traffic-ready only after the laser
warm-up completes.
"""

from __future__ import annotations

import bisect
import itertools
import logging
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum

from .model import LinkKind, NodeKind, Topology
from .records import Record

log = logging.getLogger(__name__)

#: Flexgrid anchor frequency, THz.
GRID_CENTER_THZ = 193.1
#: Central-frequency granularity, GHz per unit of n.
GRID_STEP_GHZ = 6.25
#: Slot-width granularity, GHz per unit of m.
WIDTH_STEP_GHZ = 12.5

#: Default slot width: m = 4 gives 50 GHz.
DEFAULT_SLOT_M = 4


class OpticalError(Exception):
    pass


class NoRoute(OpticalError):
    pass


class SpectrumCollision(OpticalError):
    pass


class SlotOutOfTunability(OpticalError):
    pass


class UnknownChannel(OpticalError):
    pass


class InvalidPhase(OpticalError):
    pass


class FrequencyOutOfRange(OpticalError):
    pass


@dataclass(frozen=True)
class FrequencySlot(Record):
    """Flexgrid slot: center = 193.1 THz + n * 6.25 GHz, width = m * 12.5 GHz.

    In units of the 6.25 GHz grid the slot occupies [n - m, n + m]; two
    slots overlap when those intervals share more than an endpoint.
    """

    n: int
    m: int = DEFAULT_SLOT_M

    DERIVED = ("center_thz", "width_ghz")

    def __post_init__(self) -> None:
        if self.m <= 0:
            raise ValueError("m must be > 0")

    @property
    def center_thz(self) -> float:
        return GRID_CENTER_THZ + self.n * GRID_STEP_GHZ / 1000.0

    @property
    def width_ghz(self) -> float:
        return self.m * WIDTH_STEP_GHZ

    @property
    def interval(self) -> tuple[int, int]:
        return (self.n - self.m, self.n + self.m)

    def overlaps(self, other: "FrequencySlot") -> bool:
        return abs(self.n - other.n) < self.m + other.m


@dataclass(frozen=True)
class Sip:
    """Service interface point: a client attachment to the OLS."""

    sip_id: str
    node_id: str
    port: str
    tunability: frozenset[int] = frozenset()


class ChannelState(str, Enum):
    PROVISIONED = "Provisioned"
    DELETED = "Deleted"


@dataclass
class MediaChannel(Record):
    mc_id: str
    a_sip: str
    z_sip: str
    slot: FrequencySlot
    route: tuple[str, ...]
    state: ChannelState = ChannelState.PROVISIONED


@dataclass(frozen=True)
class OlsView:
    """Topology as exported by the OLS controller."""

    nodes: tuple[str, ...]
    links: tuple[str, ...]
    abstract: bool


class OlsController:
    """Spectrum and route authority for the optical line system.

    Routing is minimum hop count over the ROADM subgraph, ties broken on
    the lexicographically smallest link-id sequence, so provisioning is
    reproducible. Spectrum state is derived from the set of provisioned
    channels; deleting a channel frees its slots implicitly.
    """

    def __init__(
        self,
        topology: Topology,
        sips: list[Sip],
        abstract_view: bool = False,
    ):
        self._abstract = abstract_view
        self._sips = {s.sip_id: s for s in sips}
        #: Each SIP's tunability in ascending order, for first-fit.
        self._tuning = {s.sip_id: sorted(s.tunability) for s in sips}
        self._channels: dict[str, MediaChannel] = {}
        self._next_id = itertools.count(1)

        self._nodes = [
            n.node_id for n in topology.nodes if n.kind is NodeKind.ROADM
        ]
        node_set = set(self._nodes)
        self._links: dict[str, tuple[str, str]] = {}
        self._adj: dict[str, list[tuple[str, str]]] = {n: [] for n in self._nodes}
        for l in topology.links:
            a, z = l.endpoints
            if l.kind is LinkKind.FIBER and a in node_set and z in node_set:
                self._links[l.link_id] = (a, z)
                self._adj[a].append((l.link_id, z))
                self._adj[z].append((l.link_id, a))
        for n in self._adj:
            self._adj[n].sort()
        for s in sips:
            if s.node_id not in node_set:
                raise OpticalError(f"SIP {s.sip_id} attached to unknown ROADM")

    # -- TAPI-style surface -------------------------------------------------

    def get_context(self) -> tuple[list[Sip], OlsView]:
        sips = sorted(self._sips.values(), key=lambda s: s.sip_id)
        if self._abstract:
            view = OlsView(nodes=("ols",), links=(), abstract=True)
        else:
            view = OlsView(
                nodes=tuple(sorted(self._nodes)),
                links=tuple(sorted(self._links)),
                abstract=False,
            )
        return sips, view

    def get_active_connections(self) -> list[MediaChannel]:
        return sorted(self._provisioned(), key=lambda c: c.mc_id)

    def create_media_channel(
        self,
        a_sip: str,
        z_sip: str,
        slot: FrequencySlot | None = None,
        floor_n: int = 0,
        m: int = DEFAULT_SLOT_M,
    ) -> MediaChannel:
        """Provision a channel between two SIPs.

        With an explicit slot the request fails on any overlap with a
        provisioned channel sharing a route link, or if either SIP cannot
        tune to it. Without a slot, first-fit picks the smallest n >= floor
        that is collision-free on the route and tunable at both ends.
        """
        sa = self._sip(a_sip)
        sz = self._sip(z_sip)
        route = self._route(sa.node_id, sz.node_id)
        if slot is not None:
            for s in (sa, sz):
                if not _tunes(s.tunability, slot.n):
                    raise SlotOutOfTunability(
                        f"{s.sip_id} cannot tune to n={slot.n}"
                    )
            clash = self._first_collision(route, slot)
            if clash is not None:
                raise SpectrumCollision(
                    f"slot n={slot.n} m={slot.m} collides with {clash} on route"
                )
        else:
            slot = self._first_fit(sa, sz, route, floor_n, m)
        mc = MediaChannel(
            mc_id=f"mc-{next(self._next_id):04d}",
            a_sip=a_sip,
            z_sip=z_sip,
            slot=slot,
            route=route,
        )
        self._channels[mc.mc_id] = mc
        log.info("provisioned %s: n=%d m=%d route=%s",
                 mc.mc_id, slot.n, slot.m, "/".join(route))
        return mc

    def delete_media_channel(self, mc_id: str) -> MediaChannel:
        mc = self._channels.get(mc_id)
        if mc is None or mc.state is not ChannelState.PROVISIONED:
            raise UnknownChannel(mc_id)
        mc.state = ChannelState.DELETED
        return mc

    # -- internals ----------------------------------------------------------

    def _sip(self, sip_id: str) -> Sip:
        try:
            return self._sips[sip_id]
        except KeyError:
            raise OpticalError(f"unknown SIP {sip_id}") from None

    def _route(self, a_node: str, z_node: str) -> tuple[str, ...]:
        """The lexicographically smallest link-id sequence among the
        minimum-hop routes from ``a_node`` to ``z_node``.

        A FIFO breadth-first search over ``_adj``, whose lists are sorted
        by link id, keeping the link and node each node was first reached
        by. Nodes leave the queue in lexicographic order of their routes,
        so a node's first discovery is along its smallest min-hop route.
        """
        pred: dict[str, tuple[str, str] | None] = {a_node: None}
        queue = deque([a_node])
        while queue and z_node not in pred:
            node = queue.popleft()
            for link_id, peer in self._adj[node]:
                if peer not in pred:
                    pred[peer] = (link_id, node)
                    queue.append(peer)
        if z_node not in pred:
            raise NoRoute(f"{a_node} -> {z_node}")
        route = []
        while pred[z_node] is not None:
            link_id, z_node = pred[z_node]
            route.append(link_id)
        return tuple(reversed(route))

    def _provisioned(self) -> Iterator[MediaChannel]:
        return (c for c in self._channels.values()
                if c.state is ChannelState.PROVISIONED)

    def _first_collision(
        self, route: tuple[str, ...], slot: FrequencySlot
    ) -> str | None:
        for link_id in route:
            for c in self._provisioned():
                if link_id in c.route and slot.overlaps(c.slot):
                    return c.mc_id
        return None

    def _first_fit(
        self,
        sa: Sip,
        sz: Sip,
        route: tuple[str, ...],
        floor_n: int,
        m: int,
    ) -> FrequencySlot:
        # With a tunable SIP the answer is in the tunable sets' common n at
        # or above the floor, walked up from the floor in the shorter one.
        # With two untunable SIPs it is the floor or, when n - 1 collides
        # and n does not, the right edge of a channel sharing a route
        # link, so one always exists.
        tunable = [self._tuning[s.sip_id] for s in (sa, sz) if s.tunability]
        if tunable:
            walk = min(tunable, key=len)
            candidates = (n for n in walk[bisect.bisect_left(walk, floor_n):]
                          if _tunes(sa.tunability, n) and _tunes(sz.tunability, n))
        else:
            edges = {floor_n}
            edges.update(
                c.slot.n + c.slot.m + m
                for c in self._provisioned()
                if any(link_id in c.route for link_id in route)
            )
            candidates = sorted(n for n in edges if n >= floor_n)
        for n in candidates:
            slot = FrequencySlot(n=n, m=m)
            if self._first_collision(route, slot) is None:
                return slot
        raise SpectrumCollision(
            f"no free slot of width m={m} at or above n={floor_n}"
        )


def _tunes(tunability: frozenset[int], n: int) -> bool:
    """Whether a SIP or a transponder tunes to ``n``. An empty
    tunability set accepts any n."""
    return not tunability or n in tunability


# ---------------------------------------------------------------------------
# Transponders


class TransponderPhase(str, Enum):
    BLANK = "Blank"
    LINE_CHANNELS_CREATED = "LineChannelsCreated"
    OCH_CONFIGURED = "OchConfigured"
    TRANSCEIVER_CREATED = "TransceiverCreated"
    CLIENT_CHANNEL_CREATED = "ClientChannelCreated"
    ASSIGNED = "Assigned"


#: The five bring-up steps, in order, with the phase each one reaches.
CONFIG_STEPS: tuple[tuple[str, TransponderPhase], ...] = (
    ("create_line_logical_channels", TransponderPhase.LINE_CHANNELS_CREATED),
    ("configure_och_frequency_power", TransponderPhase.OCH_CONFIGURED),
    ("create_transceiver", TransponderPhase.TRANSCEIVER_CREATED),
    ("create_client_logical_channel", TransponderPhase.CLIENT_CHANNEL_CREATED),
    ("assign_client_to_line", TransponderPhase.ASSIGNED),
)


@dataclass(frozen=True)
class StepEvent:
    step: int
    name: str
    phase: TransponderPhase
    t_s: float


@dataclass
class VirtualClock:
    """Simulated wall clock; nothing in the stack sleeps for real."""

    now_s: float = 0.0

    def advance(self, dt_s: float) -> float:
        if dt_s < 0:
            raise ValueError("cannot advance a clock backwards")
        self.now_s += dt_s
        return self.now_s


@dataclass
class Transponder:
    """OpenConfig-style terminal device with a single line port."""

    tp_id: str
    tunable_n: frozenset[int] = frozenset()
    phase: TransponderPhase = TransponderPhase.BLANK
    och: FrequencySlot | None = None
    tx_power_dbm: float | None = None
    logical_channels: dict = field(default_factory=dict)
    step_log: list[StepEvent] = field(default_factory=list)
    ready_at_s: float | None = None

    def traffic_ready(self, t_s: float) -> bool:
        return (
            self.phase is TransponderPhase.ASSIGNED
            and self.ready_at_s is not None
            and t_s >= self.ready_at_s
        )


def configure_transponder(
    tp: Transponder,
    slot: FrequencySlot,
    tx_power_dbm: float,
    clock: VirtualClock,
    config_duration_s: float,
    laser_warmup_s: float,
) -> Transponder:
    """Run the five-step bring-up on a blank transponder.

    The clock advances by config_duration_s (spread evenly over the
    steps); the laser then needs laser_warmup_s before the device is
    traffic-ready, which is reflected in ready_at_s rather than by
    blocking the clock.
    """
    if tp.phase is not TransponderPhase.BLANK:
        raise InvalidPhase(f"{tp.tp_id} is {tp.phase.value}, expected Blank")
    if not _tunes(tp.tunable_n, slot.n):
        raise FrequencyOutOfRange(
            f"{tp.tp_id} cannot tune to n={slot.n} ({slot.center_thz} THz)"
        )

    step_dt = config_duration_s / len(CONFIG_STEPS)
    for i, (name, phase) in enumerate(CONFIG_STEPS, start=1):
        clock.advance(step_dt)
        tp.step_log.append(StepEvent(i, name, phase, clock.now_s))
    # Nothing reads the device between steps, so it takes the state of
    # the last one at once: OTU4 carries ODU4 and is mapped into the OCH
    # carrier, and the client ODU4 is assigned to the line ODU4.
    ln = f"{tp.tp_id}-line"
    tp.phase = phase
    tp.och = slot
    tp.tx_power_dbm = tx_power_dbm
    tp.logical_channels = {
        "line": {
            "otu4": f"{ln}-otu4",
            "odu4": f"{ln}-odu4",
            "och": f"{ln}-och",
            "mapping": [
                [f"{ln}-odu4", f"{ln}-otu4"],
                [f"{ln}-otu4", f"{ln}-och"],
            ],
        },
        "transceiver": f"{tp.tp_id}-xcvr",
        "client": {"odu4": f"{tp.tp_id}-client-odu4"},
        "assignment": [f"{tp.tp_id}-client-odu4", f"{ln}-odu4"],
    }
    tp.ready_at_s = clock.now_s + laser_warmup_s
    return tp


def reset_transponder(tp: Transponder) -> None:
    """Undo ``configure_transponder``: back to Blank, as built. In place,
    because the world and WF1's undo list hold the object."""
    vars(tp).update(vars(Transponder(tp.tp_id, tp.tunable_n)))
