"""Domain model shared by the planner, the controllers, and the simulators.

Covers the transport topology (nodes, links, per-element latency
contributions), VIM resource snapshots, VNF chains with their latency
requisite, and the video-surveillance demand profile used for sizing.

It also holds the package's one rule for memos: every process-wide memo
is a :func:`memo`, and :func:`clear_memos` empties them all.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum

#: Group-velocity delay of standard single-mode fibre, one way.
DEFAULT_PROP_CONST_US_PER_KM = 4.899


class NodeKind(str, Enum):
    AMEN = "AMEN"
    MCEN = "MCEN"
    ROADM = "ROADM"
    AGG_SWITCH = "AggSwitch"
    PROBE_ENDPOINT = "ProbeEndpoint"


class LinkKind(str, Enum):
    FIBER = "Fiber"
    PATCH = "Patch"


#: Only edge and core metro nodes host a VIM.
VIM_CAPABLE_KINDS = frozenset({NodeKind.AMEN, NodeKind.MCEN})


@dataclass
class VnfDescriptor:
    """Resource requirements of a single VNF in a service chain."""

    vnf_id: str
    type_tag: str
    cpu_req: int
    mem_req: int
    storage_req: int

    def __post_init__(self) -> None:
        if self.cpu_req <= 0 or self.mem_req <= 0 or self.storage_req <= 0:
            raise ValueError(f"{self.vnf_id}: resource requirements must be > 0")


@dataclass
class VimStatus:
    """Idle-resource snapshot of one VIM.

    ``instantiable_vnf_types`` lists the VNF type tags this VIM knows how
    to deploy; eligibility requires the tag as well as the resources.
    """

    vim_id: str
    cpu_idle: int
    mem_idle: int
    storage_idle: int
    instantiable_vnf_types: frozenset[str]

    def __post_init__(self) -> None:
        if min(self.cpu_idle, self.mem_idle, self.storage_idle) < 0:
            raise ValueError(f"{self.vim_id}: idle resources must be >= 0")
        self.instantiable_vnf_types = frozenset(self.instantiable_vnf_types)

    def can_host(self, vnf: VnfDescriptor) -> bool:
        return bool(hosts(vnf, (self,)))

    def allocate(self, vnf: VnfDescriptor) -> None:
        if not self.can_host(vnf):
            raise ValueError(f"{self.vim_id} cannot host {vnf.vnf_id}")
        self.cpu_idle -= vnf.cpu_req
        self.mem_idle -= vnf.mem_req
        self.storage_idle -= vnf.storage_req

    def release(self, vnf: VnfDescriptor) -> None:
        """Give back what ``allocate`` took for ``vnf``."""
        self.cpu_idle += vnf.cpu_req
        self.mem_idle += vnf.mem_req
        self.storage_idle += vnf.storage_req


def hosts(vnf: VnfDescriptor, vims: Iterable[VimStatus]) -> list[VimStatus]:
    """The VIMs of ``vims`` that can host ``vnf``, in their order.

    A VIM qualifies when it lists the VNF's type tag and its idle CPU,
    memory and storage each cover the VNF's requirement. The boundary is
    inclusive: a VNF that exactly consumes the idle capacity is still
    placeable.
    """
    tag, cpu, mem, storage = vnf.type_tag, vnf.cpu_req, vnf.mem_req, vnf.storage_req
    return [
        v for v in vims
        if tag in v.instantiable_vnf_types
        and v.cpu_idle >= cpu and v.mem_idle >= mem and v.storage_idle >= storage
    ]


@dataclass
class Node:
    """Topology vertex. ``fixed_latency_us`` is the one-way transit delay
    added by the element itself, independent of fibre length."""

    node_id: str
    kind: NodeKind
    fixed_latency_us: float = 0.0
    vim: VimStatus | None = None


@dataclass
class Link:
    """Undirected fibre or patch cable between two nodes."""

    link_id: str
    endpoints: tuple[str, str]
    length_km: float
    kind: LinkKind = LinkKind.FIBER

    def __post_init__(self) -> None:
        if len(self.endpoints) != 2:
            raise ValueError(f"{self.link_id}: endpoints must be two node ids")
        # A tuple, so that :func:`geometry` can hold it as it is.
        self.endpoints = tuple(self.endpoints)


@dataclass
class Topology:
    nodes: list[Node]
    links: list[Link]
    prop_const_us_per_km: float = DEFAULT_PROP_CONST_US_PER_KM

    def node(self, node_id: str) -> Node:
        for n in self.nodes:
            if n.node_id == node_id:
                return n
        raise KeyError(node_id)

    def vim_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.vim is not None]


def sum_left_to_right(values: Iterable):
    """``values`` added left to right, starting from the integer 0.

    That is the order of the builtin ``sum`` on Python 3.10 and 3.11.
    From 3.12 ``sum`` compensates float rounding (gh-100425), so its total
    can differ in the last bit. The package totals Python numbers here,
    never with ``sum``, so the artifacts do not depend on the interpreter.
    """
    total = 0
    for v in values:
        total += v
    return total


def geometry(t: Topology) -> tuple:
    """Everything a :class:`LatencyGraph` reads from a topology, as a
    hashable value: node ids, their fixed latencies, link endpoints, link
    lengths (each in listed order), and the propagation constant.

    Equal geometries give equal graphs. Numbers are taken as floats, so an
    int and its float build the same graph.
    """
    nodes, links = t.nodes, t.links
    return (
        tuple([n.node_id for n in nodes]),
        tuple([float(n.fixed_latency_us) for n in nodes]),
        tuple([l.endpoints for l in links]),
        tuple([float(l.length_km) for l in links]),
        float(t.prop_const_us_per_km),
    )


class LatencyGraph:
    """One-way latency view of a topology for shortest-path queries.

    Parallel links collapse to the one with the least propagation delay;
    on equal delay the first listed wins. Entering node ``b`` over a link
    costs the link's propagation delay plus ``b``'s fixed latency, so a
    path's cost covers its links, its intermediate nodes and its
    destination, but not its source. Built from a topology's
    :func:`geometry`.

    The graph also holds what the planner derives from its geometry
    alone, and so leaves with it: ``rows``, the round-trip weights between
    terminals, and ``rankings``, whole answers. See
    :mod:`metroslice.planner`.
    """

    def __init__(self, geom: tuple):
        ids, fixed, ends, lengths, prop = geom
        self.fixed = dict(zip(ids, fixed))
        # node -> neighbour -> (latency_us, length_km). Neighbours keep the
        # order their first link was listed in; Dijkstra's tie-breaking
        # depends on it.
        self._adj: dict[str, dict[str, tuple[float, float]]] = {
            nid: {} for nid in self.fixed
        }
        for (a, z), length_km in zip(ends, lengths):
            lat = length_km * prop
            best = self._adj.setdefault(a, {}).get(z)
            if best is not None and lat >= best[0]:
                continue
            self._adj[a][z] = (lat, length_km)
            self._adj.setdefault(z, {})[a] = (lat, length_km)
        self._runs: dict[str, tuple[dict[str, float], dict[str, str]]] = {}
        self.rows: dict[str, dict[str, float]] = {}
        self.rankings: dict[tuple, tuple] = {}

    def length_km(self, a: str, b: str) -> float:
        """Fibre length of the link kept between two adjacent nodes."""
        return self._adj[a][b][1]

    def paths_from(self, source: str) -> tuple[dict[str, float], dict[str, str]]:
        """Dijkstra from ``source``: distance and predecessor of each node
        reached, memoised per source. The dicts are shared between
        callers: read them only.

        Ties go to the first path found: a predecessor changes only on a
        strict improvement, and equal distances settle in the order the
        nodes were reached. Raises ``KeyError`` for an unknown source.
        """
        run = self._runs.get(source)
        if run is not None:
            return run
        dist: dict[str, float] = {}
        pred: dict[str, str] = {}
        seen = {source: 0.0}
        order = itertools.count()
        heap = [(0.0, next(order), source)]
        while heap:
            d, _, v = heapq.heappop(heap)
            if v in dist:
                continue
            dist[v] = d
            for u, (lat, _) in self._adj[v].items():
                alt = d + (lat + self.fixed[u])
                if u not in dist and (u not in seen or alt < seen[u]):
                    seen[u] = alt
                    pred[u] = v
                    heapq.heappush(heap, (alt, next(order), u))
        run = self._runs[source] = (dist, pred)
        return run


#: The package's process-wide memos, in the order they were made.
_MEMOS: list = []


def memo(maxsize: int):
    """``functools.lru_cache(maxsize=maxsize)``, registered so that
    :func:`clear_memos` empties it. Every process-wide memo of the
    package is one; the per-geometry ones hang on a :class:`LatencyGraph`
    and leave with it."""
    def register(f):
        _MEMOS.append(functools.lru_cache(maxsize=maxsize)(f))
        return _MEMOS[-1]
    return register


def clear_memos() -> None:
    """Empty every memo of the package. The latency graphs go, and with
    them the per-geometry memos, so each later call computes afresh."""
    for cached in _MEMOS:
        cached.cache_clear()


#: Distinct geometries whose graphs :func:`latency_graph` keeps.
GRAPH_CACHE_SIZE = 8


_graph_of = memo(GRAPH_CACHE_SIZE)(LatencyGraph)


def latency_graph(t: Topology) -> LatencyGraph:
    """The shared :class:`LatencyGraph` of ``t``'s current geometry.

    Keyed on :func:`geometry`'s value, never on the object, so a topology
    edited in place gets the graph of its new geometry. The last
    ``GRAPH_CACHE_SIZE`` geometries are kept, each with the full Dijkstra
    runs of the sources queried through :meth:`LatencyGraph.paths_from`.
    """
    return _graph_of(geometry(t))


@dataclass(frozen=True)
class TopologyViolation:
    """One structural defect found by :func:`validate_topology`.

    Violations are data, not exceptions: callers decide what is fatal.
    """

    code: str
    detail: str


def validate_topology(t: Topology) -> list[TopologyViolation]:
    """Structural checks every other module relies on.

    An empty result means the topology is safe to hand to the planner,
    the controllers, and the dataplane simulator.
    """
    out: list[TopologyViolation] = []
    seen_nodes: set[str] = set()
    for n in t.nodes:
        if n.node_id in seen_nodes:
            out.append(TopologyViolation("duplicate-node-id", n.node_id))
        seen_nodes.add(n.node_id)
        if n.fixed_latency_us < 0:
            out.append(
                TopologyViolation(
                    "negative-node-latency", f"{n.node_id}: {n.fixed_latency_us}"
                )
            )
        if n.vim is not None and n.kind not in VIM_CAPABLE_KINDS:
            out.append(
                TopologyViolation(
                    "vim-on-transport-node", f"{n.node_id} ({n.kind.value})"
                )
            )
    seen_links: set[str] = set()
    seen_vims: set[str] = set()
    for n in t.nodes:
        if n.vim is not None:
            if n.vim.vim_id in seen_vims:
                out.append(TopologyViolation("duplicate-vim-id", n.vim.vim_id))
            seen_vims.add(n.vim.vim_id)
    for l in t.links:
        if l.link_id in seen_links:
            out.append(TopologyViolation("duplicate-link-id", l.link_id))
        seen_links.add(l.link_id)
        a, z = l.endpoints
        for end in (a, z):
            if end not in seen_nodes:
                out.append(
                    TopologyViolation("unknown-endpoint", f"{l.link_id}: {end}")
                )
        if a == z:
            out.append(TopologyViolation("self-loop", l.link_id))
        if l.length_km < 0:
            out.append(
                TopologyViolation("negative-length", f"{l.link_id}: {l.length_km}")
            )
    if t.prop_const_us_per_km <= 0:
        out.append(
            TopologyViolation("nonpositive-prop-const", str(t.prop_const_us_per_km))
        )
    return out


#: Largest number of ranked chains a request may ask for. The ranking
#: holds about 0.5 kB per chain at eight VNFs: k = 2**15 took 0.38 s and
#: an 18 MB allocation peak over 42 VIMs that each host the whole chain
#: (2-core Xeon, CPython 3.11).
MAX_K = 1 << 15


@dataclass
class NsRequest:
    """Network-slice instantiation request: an ordered VNF chain plus the
    end-to-end RTT requisite the selected service chain must satisfy."""

    ns_id: str
    chain: list[VnfDescriptor]
    max_rtt_us: float
    k: int = 10
    ingress: str | None = None
    egress: str | None = None

    def __post_init__(self) -> None:
        if not self.chain:
            raise ValueError(f"{self.ns_id}: chain must be non-empty")
        # Placement keys each VNF's eligible VIMs by its id.
        seen = set()
        for vnf in self.chain:
            if vnf.vnf_id in seen:
                raise ValueError(f"{self.ns_id}: vnf_id {vnf.vnf_id!r} repeats")
            seen.add(vnf.vnf_id)
        if self.max_rtt_us <= 0:
            raise ValueError(f"{self.ns_id}: max_rtt_us must be > 0")
        if not 1 <= self.k <= MAX_K:
            raise ValueError(f"{self.ns_id}: k must be in [1, {MAX_K}]")


@dataclass(frozen=True)
class DemandEntry:
    channel_count: int
    per_channel_mbps: float


@dataclass
class DemandProfile:
    """Aggregate traffic the surveillance deployment offers the slice."""

    entries: list[DemandEntry]
    ptz_max_rtt_ms: float = 10.0

    def __post_init__(self) -> None:
        for e in self.entries:
            if e.channel_count < 0 or e.per_channel_mbps < 0:
                raise ValueError("demand entries must be non-negative")
        if self.ptz_max_rtt_ms <= 0:
            raise ValueError("ptz_max_rtt_ms must be > 0")
        try:
            total = aggregate_bandwidth_mbps(self)
        except OverflowError:  # an int past the float range
            total = math.inf
        if not math.isfinite(total):
            raise ValueError("aggregate bandwidth must be finite")


def aggregate_bandwidth_mbps(d: DemandProfile) -> float:
    """Total offered load in Mb/s: sum of channel_count * per_channel rate."""
    return float(sum_left_to_right([e.channel_count * e.per_channel_mbps for e in d.entries]))


def check_ptz_bound(measured_rtt_ms: float, d: DemandProfile) -> bool:
    """Pan-tilt-zoom control loop check; the bound itself is inclusive."""
    return measured_rtt_ms <= d.ptz_max_rtt_ms
