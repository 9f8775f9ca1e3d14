"""Latency-aware VNF placement.

Builds an RTT-weighted graph over the VIM-bearing nodes, enumerates
service-chain candidates ordered by total RTT cost, and places the first
candidate that is feasible (at most one VNF of a slice per VIM). A
request is blocked when no VIM is eligible for some VNF, when no
candidate is feasible, or when the cheapest feasible candidate exceeds
the slice's RTT requisite.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass
from enum import Enum

from .model import NsRequest, Topology, VimStatus, latency_graph
from .records import Record

log = logging.getLogger(__name__)


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
    """Symmetric round-trip latency between terminals of interest.

    Terminals are the VIM-bearing nodes plus any configured ingress and
    egress. Missing entries mean the pair is unreachable.
    """

    def __init__(self, weights: dict[tuple[str, str], float]):
        self._w = weights

    def weight_us(self, u: str, v: str) -> float | None:
        if u == v:
            return 0.0
        return self._w.get((u, v), self._w.get((v, u)))


def build_rtt_graph(
    topology: Topology,
    terminal_nodes: list[str],
) -> RttGraph:
    """All-pairs round-trip latency over the transport topology.

    One-way latency of a path is the sum of link propagation delays plus
    the fixed latency of every intermediate node; terminal nodes do not
    charge their own fixed latency. Edge weight is twice the one-way
    minimum. The per-terminal Dijkstra runs come from the shared
    :func:`~metroslice.model.latency_graph`, so an unchanged topology pays
    for them once.
    """
    g = latency_graph(topology)
    weights: dict[tuple[str, str], float] = {}
    for i, u in enumerate(terminal_nodes):
        dist, _ = g.paths_from(u)
        for v in terminal_nodes[i + 1:]:
            if v in dist:
                # The path cost includes the destination's own fixed
                # latency; refund it to leave links + intermediate nodes.
                one_way = dist[v] - g.fixed[v]
                weights[(u, v)] = 2.0 * one_way
    return RttGraph(weights)


def filter_vims(
    req: NsRequest, vims: list[VimStatus]
) -> dict[str, list[str]]:
    """Map each VNF id to the VIMs that can host it, ids sorted.

    Eligibility is inclusive on resource boundaries and requires the
    VNF's type tag among the VIM's instantiable types.
    """
    return {
        vnf.vnf_id: sorted(v.vim_id for v in vims if v.can_host(vnf))
        for vnf in req.chain
    }


#: Relative slack on the stopping test of the ranking search. A prefix's
#: heap key adds the remaining legs in another order than the exact
#: left-to-right cost, so the two may differ by a few ulps.
_KEY_SLACK = 1e-9


def rank_service_chains(
    req: NsRequest,
    graph: RttGraph,
    eligibility: dict[str, list[str]],
    vim_node: dict[str, str],
    ingress: str | None = None,
    egress: str | None = None,
) -> list[ServiceChainCandidate]:
    """Up to req.k candidates by ascending cost, ties on the vim-id tuple.

    Cost is the sum of RTT weights between consecutive VNFs' VIM nodes,
    plus the ingress and egress access legs when configured, added left
    to right. Chains with an unreachable leg are left out. Feasibility
    (one VNF per VIM) is deliberately not applied here; the placement
    walk does that.

    Best-first search over the layered chain (Lawler 1972; Eppstein
    1998): a backward pass finds the cheapest completion from each VIM of
    each layer, and a heap of chain prefixes keyed on prefix cost plus
    that bound yields complete chains in (nearly) ascending cost. The
    search stops once the heap minimum exceeds the k-th cheapest complete
    chain by more than rounding, so ties at the cut are all kept. The
    result equals sorting every combination, because weights are
    non-negative and each kept chain's cost is the same left-to-right sum.
    """
    opts = [eligibility[vnf.vnf_id] for vnf in req.chain]
    if any(not layer for layer in opts):
        return []
    nodes = [[vim_node[v] for v in layer] for layer in opts]
    last = len(opts) - 1

    # legs[i][j][m]: weight from option j of layer i to option m of layer
    # i + 1, None when unreachable.
    legs = [
        [[graph.weight_us(a, b) for b in nodes[i + 1]] for a in nodes[i]]
        for i in range(last)
    ]
    exit_w = [
        0.0 if egress is None else graph.weight_us(a, egress) for a in nodes[-1]
    ]
    # bounds[i][j]: cheapest completion from option j of layer i, egress
    # leg included.
    bounds = [[math.inf if w is None else w for w in exit_w]]
    for i in reversed(range(last)):
        after = bounds[0]
        bounds.insert(0, [
            min((w + h for w, h in zip(row, after) if w is not None),
                default=math.inf)
            for row in legs[i]
        ])

    # Entries are (key, vim_ids, option index, exact prefix cost); vim_ids
    # are unique, so the last two never take part in a comparison.
    heap = []
    for j, vim in enumerate(opts[0]):
        prefix = 0.0
        if ingress is not None:
            w = graph.weight_us(ingress, nodes[0][j])
            if w is None:
                continue
            prefix += w
        if bounds[0][j] < math.inf:
            heap.append((prefix + bounds[0][j], (vim,), j, prefix))
    heapq.heapify(heap)

    done: list[tuple[float, tuple[str, ...]]] = []
    kth = []  # max-heap (negated) of the k cheapest complete costs
    limit = math.inf
    while heap:
        key, ids, j, prefix = heapq.heappop(heap)
        if key > limit:
            break
        i = len(ids) - 1
        if i == last:
            cost = prefix if egress is None else prefix + exit_w[j]
            done.append((cost, ids))
            if len(kth) < req.k:
                heapq.heappush(kth, -cost)
            elif cost < -kth[0]:
                heapq.heapreplace(kth, -cost)
            if len(kth) == req.k:
                limit = -kth[0] * (1.0 + _KEY_SLACK)
            continue
        for m, w in enumerate(legs[i][j]):
            if w is None or bounds[i + 1][m] == math.inf:
                continue
            step = prefix + w
            heapq.heappush(
                heap, (step + bounds[i + 1][m], ids + (opts[i + 1][m],), m, step)
            )
    done.sort()
    return [ServiceChainCandidate(vim_ids=ids, cost_us=c) for c, ids in done[: req.k]]


def place(
    req: NsRequest,
    topology: Topology,
    vims: list[VimStatus],
) -> PlacementDecision:
    """Select and commit a service chain for the request.

    The ``req.k`` cheapest chains are ranked first, and only then walked
    for the first feasible one (at most one VNF per VIM). Feasibility is
    not part of the ranking, so when every one of the k cheapest chains
    reuses a VIM the request is blocked ``NoValidSC``, even if a feasible
    chain ranks just below the cut. On a ring where every VIM hosts both
    VNFs of a two-VNF chain, the V co-located chains cost 0 and fill the
    list, so ``k <= V`` blocks and ``k = V + 1`` places.

    On success the chosen VIMs' idle resources are decremented; a blocked
    request leaves every VIM untouched.
    """
    eligibility = filter_vims(req, vims)
    empty = [v for v, opts in eligibility.items() if not opts]
    if empty:
        log.info("%s blocked: no eligible VIM for %s", req.ns_id, empty)
        return PlacementDecision(None, BlockReason.NO_ELIGIBLE_VIM)

    useful_vims = sorted({v for opts in eligibility.values() for v in opts})
    vim_node = {v: topology.node_for_vim(v).node_id for v in useful_vims}
    terminals = sorted(set(vim_node.values()))
    for extra in (req.ingress, req.egress):
        if extra is not None and extra not in terminals:
            terminals.append(extra)
    graph = build_rtt_graph(topology, terminals)

    ranked = tuple(
        rank_service_chains(
            req, graph, eligibility, vim_node, req.ingress, req.egress
        )
    )
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

    by_id = {v.vim_id: v for v in vims}
    for vnf, vim_id in zip(req.chain, chosen.vim_ids):
        by_id[vim_id].allocate(vnf)
    log.info("%s placed on %s (%.1f us)", req.ns_id, chosen.vim_ids, chosen.cost_us)
    return PlacementDecision(chosen, None, ranked)
