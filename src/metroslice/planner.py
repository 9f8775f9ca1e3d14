"""Latency-aware VNF placement.

Builds an RTT-weighted graph over the VIM-bearing nodes, enumerates
service-chain candidates ordered by total RTT cost, and picks the first
candidate that is feasible (at most one VNF of a slice per VIM). A
request is blocked when no VIM is eligible for some VNF, when no
candidate is feasible, or when the cheapest feasible candidate exceeds
the slice's RTT requisite. Placement only decides: it allocates nothing,
and ``orchestrator.run_wf1`` commits the chosen chain.

RTT weights are computed once per topology geometry: they sit in the
``rows`` of the shared :func:`~metroslice.model.latency_graph`, keyed by
node id, and leave with it. So do the rankings, in its ``rankings``,
keyed by everything a ranking reads, oldest dropped first: a recurring
request is answered without a search. A ranking call that does search
keeps nothing else between calls. It reads each (layer, option) row of
leg weights with one gather, and expands chain prefixes lazily: each
entry taken from the heap makes its own next sibling and, unless it is
a complete chain, its cheapest child. The newest of them goes through one
``heapq.heappushpop``, which hands it straight back when it is the heap
minimum. An access leg, from the ingress or to the egress, is read pair
by pair through ``weight_us`` when that node is not a terminal.
"""

from __future__ import annotations

import heapq
import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from operator import add, attrgetter, itemgetter

from .model import LatencyGraph, NsRequest, Topology, VimStatus, hosts, latency_graph
from .records import Record

log = logging.getLogger(__name__)

_INF = math.inf
_vim_id = attrgetter("vim_id")


class BlockReason(str, Enum):
    NO_ELIGIBLE_VIM = "NoEligibleVim"
    NO_VALID_SC = "NoValidSC"
    RTT_EXCEEDED = "RttExceeded"


@dataclass(frozen=True)
class ServiceChainCandidate(Record):
    """One assignment of the chain's VNFs to VIMs, with its RTT cost."""

    vim_ids: tuple[str, ...]
    cost_us: float


@dataclass(frozen=True)
class PlacementDecision(Record):
    candidate: ServiceChainCandidate | None
    block_reason: BlockReason | None
    ranked: tuple[ServiceChainCandidate, ...] = ()

    DERIVED = ("placed",)
    OMITTED = ("ranked",)

    @property
    def placed(self) -> bool:
        return self.candidate is not None


class RttGraph:
    """Symmetric round-trip latency between nodes of interest: the VIM
    nodes of a chain and its ingress and egress. Missing entries mean the
    pair is unreachable.
    """

    def __init__(self, weights: dict[tuple[str, str], float]):
        self._w = weights

    def weight_us(self, u: str, v: str) -> float | None:
        if u == v:
            return 0.0
        return self._w.get((u, v), self._w.get((v, u)))

    def legs(self, us: list[str], vs: list[str]) -> list[tuple[float, ...]]:
        """Per ``u``, its weight to each of ``vs``; ``math.inf`` where
        unreachable."""
        return [
            tuple(_INF if w is None else w for w in (self.weight_us(u, v) for v in vs))
            for u in us
        ]

    def memos(
        self, layers: list[tuple[str, ...]], ingress: str | None, egress: str | None
    ) -> tuple[dict, tuple]:
        """Where a ranking over ``layers`` (each one's nodes) from
        ``ingress`` to ``egress`` keeps its answer, and the head of the
        answer's key. Weights given by value keep nothing: a new dict per
        call."""
        return {}, ()


def _gather(keys: list[str]):
    """``row -> tuple(row[k] for k in keys)``, as one C-level call."""
    if len(keys) == 1:
        (key,) = keys
        return lambda row: (row[key],)
    return itemgetter(*keys)


def _rtt_from(g: LatencyGraph, s: str, t: str) -> float:
    """Round trip between two distinct nodes, from the Dijkstra run of ``s``.

    The path cost includes the destination's own fixed latency; refund it
    to leave links + intermediate nodes. Raises ``KeyError`` when ``t`` is
    not a node.
    """
    fixed = g.fixed[t]
    dist, _ = g.paths_from(s)
    return 2.0 * (dist[t] - fixed) if t in dist else _INF


#: Rankings kept per geometry: the 35 distinct ones of one slice_churn
#: episode on a ring fit more than three times over.
RANKING_CACHE_SIZE = 128

#: The longest ranking kept. ``k`` may reach ``model.MAX_K``, and a
#: ranking that long would hold megabytes; one of 64 chains of three
#: VNFs on 24 VIMs holds about 13 KB, key included.
RANKING_MAX_LEN = 64


class _TopologyRtt(RttGraph):
    """What :func:`build_rtt_graph` returns: weights from the terminals,
    between two of them read from the ``rows`` of the topology's shared
    graph. ``rows[u][v]`` comes from the run of the smaller id of u and
    v."""

    def __init__(self, g: LatencyGraph, terminals: frozenset[str]):
        self._g = g
        self._terminals = terminals

    def weight_us(self, u: str, v: str) -> float | None:
        if u == v:
            return 0.0
        terminals = self._terminals
        if v in terminals and (u not in terminals or v < u):
            u, v = v, u
        elif u not in terminals:
            return None
        w = _rtt_from(self._g, u, v)
        return None if w == _INF else w

    def memos(
        self, layers: list[tuple[str, ...]], ingress: str | None, egress: str | None
    ) -> tuple[dict, tuple]:
        # The legs between layers come from the rows only when every layer
        # node is a terminal. An access leg reads the smaller id's run
        # when its end is a terminal too, and each VIM node's run when it
        # is not; the two can differ in their last bits.
        terminals = self._terminals
        if not all(map(terminals.issuperset, layers)):
            return {}, ()
        return self._g.rankings, (
            ingress, ingress in terminals, egress, egress in terminals)

    def legs(self, us: list[str], vs: list[str]) -> list[tuple[float, ...]]:
        terminals = self._terminals
        if not (terminals.issuperset(us) and terminals.issuperset(vs)):
            return super().legs(us, vs)
        rows = self._g.rows
        get = _gather(vs)
        try:
            return list(map(get, map(rows.__getitem__, us)))
        except KeyError:
            pass
        for u in us:
            row = rows.setdefault(u, {})
            for v in vs:
                if v in row:
                    continue
                if v == u:
                    row[v] = 0.0
                else:
                    # Both directions read the run of the smaller id.
                    w = row[v] = _rtt_from(self._g, *((u, v) if u < v else (v, u)))
                    rows.setdefault(v, {})[u] = w
        return list(map(get, map(rows.__getitem__, us)))


def build_rtt_graph(
    topology: Topology,
    terminals: Iterable[str],
) -> RttGraph:
    """Round-trip latency from the terminal nodes over the transport
    topology.

    One-way latency of a path is the sum of link propagation delays plus
    the fixed latency of every intermediate node; the path's end nodes do
    not charge their own fixed latency. Edge weight is twice the one-way
    minimum, taken from one Dijkstra run:

    - between two terminals, the run of the smaller id;
    - between a terminal and any other node, the terminal's run;
    - between two other nodes there is no weight (``None``).

    The runs, and the weights between terminals, are memoised per
    geometry on the shared :func:`~metroslice.model.latency_graph`,
    so an unchanged topology pays for each once. Raises ``KeyError`` for
    a terminal, or a node read against one, that is not a node of the
    topology.
    """
    g = latency_graph(topology)
    terminals = frozenset(terminals)
    for t in terminals:
        if t not in g.fixed:
            raise KeyError(t)
    return _TopologyRtt(g, terminals)


def filter_vims(
    req: NsRequest, vims: list[VimStatus]
) -> dict[str, list[str]]:
    """Map each VNF id to the VIMs that can host it, ids sorted.

    Eligibility is inclusive on resource boundaries and requires the
    VNF's type tag among the VIM's instantiable types.
    """
    vims = sorted(vims, key=_vim_id)
    return {vnf.vnf_id: [v.vim_id for v in hosts(vnf, vims)] for vnf in req.chain}


#: Relative slack on the stopping test of the ranking search. A prefix's
#: heap key adds the remaining legs in another order than the exact
#: left-to-right cost, so the two may differ by a few ulps.
_KEY_SLACK = 1e-9


def rank_service_chains(
    req: NsRequest,
    graph: RttGraph,
    eligibility: dict[str, list[str]],
    vim_node: dict[str, str],
) -> list[ServiceChainCandidate]:
    """Up to req.k candidates by ascending cost, ties on the vim-id tuple.

    Cost is the sum of RTT weights between consecutive VNFs' VIM nodes,
    plus the access legs from ``req.ingress`` and to ``req.egress`` when
    set, added left to right. Chains with an unreachable leg are left
    out. Feasibility (one VNF per VIM) is deliberately not applied here;
    the placement walk does that.

    Best-first search over the layered chain (Lawler 1972; Eppstein
    1998): a backward pass finds the cheapest completion from each VIM of
    each layer, and a heap of chain prefixes keyed on prefix cost plus
    that bound yields complete chains in (nearly) ascending cost. Leg
    weights are read as one row per (layer, option), shared by a run of
    layers with the same options, ``math.inf`` where unreachable.

    Expansion is lazy. The children of an option are ordered by leg plus
    bound. Each entry the search takes makes at most two new ones: its
    own next sibling in its parent's order and, unless it is a complete
    chain, its cheapest child, found by the bound. The sibling of a
    prefix is pushed. The newest entry goes to ``heapq.heappushpop``,
    which returns it itself when the heap is empty or it sorts below the
    top (vim-id tuples are unique, so never equal), and otherwise the
    top, leaving it in its place; an entry that makes none takes the
    next with a plain pop. So a chain found by walking down costs one
    comparison per layer, not a push and a pop, and every entry taken is
    the one a plain pop would return after pushing every new entry: the
    same order, and with it the same result. The second sibling is one
    masked minimum, and an option's children are sorted only when a
    third is asked for. Heap work so grows with the chains found, not
    with their count times the layer width.

    The cut is set once, when the k-th complete chain is found: the
    costliest of the first k, plus the relative slack ``_KEY_SLACK``. The
    search stops once the heap minimum exceeds it, so ties at the cut are
    all kept. Complete chains leave the heap in ascending cost up to
    rounding, so the cut is never below the k-th cheapest cost found so
    far, and every chain that could rank in the first k is processed. The
    result equals sorting every combination, because weights are
    non-negative and each kept chain's cost is the same left-to-right
    sum.

    The answer depends only on the geometry, each layer's VIM ids and
    their nodes, the ingress and the egress, whether each of the two is
    a terminal of the graph (which decides the run an access leg reads),
    and ``k``. A graph from :func:`build_rtt_graph` keeps it per geometry
    under those (the last ``RANKING_CACHE_SIZE`` answers, none longer
    than ``RANKING_MAX_LEN``), so a recurring request skips the backward
    pass and the heap walk and gets a new list of the same candidates.
    Bounds and child orders are built afresh by each call that searches.
    """
    ingress, egress, k = req.ingress, req.egress, req.k
    opts = [eligibility[vnf.vnf_id] for vnf in req.chain]
    if not all(opts):
        return []
    nodes = [tuple(map(vim_node.__getitem__, layer)) for layer in opts]
    answers, ends = graph.memos(nodes, ingress, egress)
    # The VIM ids name the candidates, and the geometry does not hold them.
    question = (ends, k, tuple(map(tuple, opts)), tuple(nodes))
    answer = answers.get(question)
    if answer is not None:
        return list(answer)
    last = len(opts) - 1

    # legs[i][j][m]: weight from option j of layer i to option m of layer
    # i + 1. A run of equal layers reads one table.
    legs = []
    for i in range(last):
        a, b = nodes[i], nodes[i + 1]
        legs.append(legs[-1] if i and a == b == nodes[i - 1] else graph.legs(a, b))
    # bounds[i][j]: cheapest completion from option j of layer i, egress
    # leg included; bounds[last] is the egress leg alone, or zeros.
    bounds = [
        [0.0] * len(nodes[-1]) if egress is None else graph.legs([egress], nodes[-1])[0]
    ]
    for table in reversed(legs):
        bounds.insert(0, [min(map(add, row, bounds[0])) for row in table])
    # kids[i][j]: the children of option j of layer i, as their leg plus
    # bound each and their order by (leg + bound, index) as far as known.
    kids: list[dict[int, tuple[list[float], list[int]]]] = [{} for _ in range(last)]

    def extend(sums: list[float], order: list[int]) -> None:
        """Order one more child: the second by a masked minimum, the rest
        by one sort."""
        if len(order) == 1:
            rest = sums.copy()
            rest[order[0]] = _INF
            second = min(rest)
            if second < _INF:
                order.append(rest.index(second))
        elif len(order) < len(sums):
            order[:] = sorted(range(len(sums)), key=sums.__getitem__)

    # Entries are (key, vim_ids, layer, option index, exact prefix cost,
    # and the parent's option index and exact prefix cost and this entry's
    # rank among the parent's children); vim_ids are unique, so only the
    # first two are ever compared. Roots have no parent: all start in the
    # heap.
    access = (
        [0.0] * len(nodes[0]) if ingress is None else graph.legs([ingress], nodes[0])[0]
    )
    heap = [
        (w + b, (vim,), 0, j, w, None, 0.0, 0)
        for j, (vim, w, b) in enumerate(zip(opts[0], access, bounds[0]))
        if w + b < _INF
    ]
    heapq.heapify(heap)
    push, pop, pushpop = heapq.heappush, heapq.heappop, heapq.heappushpop

    done: list[tuple[float, tuple[str, ...]]] = []
    limit = _INF
    entry = pop(heap) if heap else None
    while entry is not None:
        key, ids, i, j, prefix, pj, pprefix, r = entry
        if key > limit:
            break
        new = None
        if pj is not None:
            # Its next sibling, in its parent's order; none past the
            # unreachable ones, which sort last.
            sums, order = kids[i - 1][pj]
            r += 1
            if r == len(order):
                extend(sums, order)
            if r < len(order):
                m = order[r]
                step = pprefix + legs[i - 1][pj][m]
                est = step + bounds[i][m]
                if est < _INF:
                    new = (est, ids[:-1] + (opts[i][m],), i, m, step, pj, pprefix, r)
        if i == last:
            cost = prefix if egress is None else prefix + bounds[last][j]
            done.append((cost, ids))
            if len(done) == k:
                limit = max(c for c, _ in done) * (1.0 + _KEY_SLACK)
        else:
            if new is not None:
                push(heap, new)
            got = kids[i].get(j)
            if got is None:
                # The cheapest child is the one the bound came from.
                sums = list(map(add, legs[i][j], bounds[i + 1]))
                got = kids[i][j] = (sums, [sums.index(bounds[i][j])])
            m = got[1][0]
            step = prefix + legs[i][j][m]
            i += 1
            new = (step + bounds[i][m], ids + (opts[i][m],), i, m, step, j, prefix, 0)
        # The newest entry comes straight back when it is the heap minimum.
        if new is not None:
            entry = pushpop(heap, new)
        else:
            entry = pop(heap) if heap else None
    done.sort()
    ranked = [ServiceChainCandidate(ids, c) for c, ids in done[:k]]
    if len(ranked) <= RANKING_MAX_LEN:
        if len(answers) >= RANKING_CACHE_SIZE:
            del answers[next(iter(answers))]
        answers[question] = tuple(ranked)
    return ranked


def place(
    req: NsRequest,
    topology: Topology,
    vims: list[VimStatus],
) -> PlacementDecision:
    """Select a service chain for the request.

    The ``req.k`` cheapest chains are ranked first, and only then walked
    for the first feasible one (at most one VNF per VIM). Feasibility is
    not part of the ranking, so when every one of the k cheapest chains
    reuses a VIM the request is blocked ``NoValidSC``, even if a feasible
    chain ranks just below the cut. On a ring where every VIM hosts both
    VNFs of a two-VNF chain, the V co-located chains cost 0 and fill the
    list, so ``k <= V`` blocks and ``k = V + 1`` places.

    Placement only decides: it reads the VIMs' idle resources and changes
    none of them, placed or blocked.
    """
    eligibility = filter_vims(req, vims)
    empty = [v for v, opts in eligibility.items() if not opts]
    if empty:
        log.info("%s blocked: no eligible VIM for %s", req.ns_id, empty)
        return PlacementDecision(None, BlockReason.NO_ELIGIBLE_VIM)

    # One pass over the nodes; reversed, so the first node listed for a
    # VIM wins. The ranking reads only the eligible VIMs' entries, and the
    # access legs from their nodes' runs.
    vim_node = {n.vim.vim_id: n.node_id for n in reversed(topology.nodes) if n.vim}
    graph = build_rtt_graph(
        topology, {vim_node[v] for v in set().union(*eligibility.values())}
    )

    ranked = tuple(rank_service_chains(req, graph, eligibility, vim_node))
    chosen = next(
        (c for c in ranked if len(set(c.vim_ids)) == len(c.vim_ids)), None
    )
    if chosen is None:
        return PlacementDecision(None, BlockReason.NO_VALID_SC, ranked)
    if chosen.cost_us > req.max_rtt_us:
        log.info(
            "%s blocked: best chain %.1f us exceeds requisite %.1f us",
            req.ns_id, chosen.cost_us, req.max_rtt_us,
        )
        return PlacementDecision(None, BlockReason.RTT_EXCEEDED, ranked)

    log.info("%s placed on %s (%.1f us)", req.ns_id, chosen.vim_ids, chosen.cost_us)
    return PlacementDecision(chosen, None, ranked)
