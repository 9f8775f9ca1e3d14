"""Independent reference implementations backing the test suite.

Deliberately different algorithms and data layouts than the package:
Floyd-Warshall over a dense matrix instead of per-source Dijkstra,
exhaustive enumeration instead of the best-first ranking and the
placement walk, every packet of a simulated train instead of the edges
and a drawn histogram, a scan of every grid point over occupied
intervals instead of first-fit's candidate set, every simple path
instead of a breadth-first search for the OLS route, one object per SNR
sample instead of the columnar series, a sum per bin in Python floats
instead of the RTT law's shifted array adds. Agreement between the two
is therefore evidence, not tautology.

Randomized placement instances use dyadic lengths and latencies (exact
in binary floating point) so equal costs are bitwise equal and tie
ordering is well defined in both implementations.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from metroslice.dataplane import CLOCK_TICK_NS, transmit_train
from metroslice.mda import SoftFailureReport
from metroslice.model import (
    Link,
    LinkKind,
    Node,
    NodeKind,
    NsRequest,
    Topology,
    VimStatus,
    VnfDescriptor,
)
from metroslice.probe import CHUNK, TrainReduction, compute_stats

INF = float("inf")


def all_pairs_rtt_us(topology):
    """Round-trip latency lookup via Floyd-Warshall.

    Edge cost a->b is link propagation plus the fixed latency of the node
    being entered; the destination's own charge is refunded afterwards,
    leaving links plus intermediate nodes, times two for the round trip.
    """
    ids = [n.node_id for n in topology.nodes]
    idx = {nid: i for i, nid in enumerate(ids)}
    fixed = [n.fixed_latency_us for n in topology.nodes]
    n = len(ids)
    d = [[INF] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0.0
    for l in topology.links:
        a, z = l.endpoints
        ia, iz = idx[a], idx[z]
        lat = l.length_km * topology.prop_const_us_per_km
        d[ia][iz] = min(d[ia][iz], lat + fixed[iz])
        d[iz][ia] = min(d[iz][ia], lat + fixed[ia])
    for k in range(n):
        for i in range(n):
            if d[i][k] == INF:
                continue
            for j in range(n):
                alt = d[i][k] + d[k][j]
                if alt < d[i][j]:
                    d[i][j] = alt

    def rtt(u, v):
        if u == v:
            return 0.0
        cost = d[idx[u]][idx[v]]
        if cost == INF:
            return None
        return 2.0 * (cost - fixed[idx[v]])

    return rtt


def brute_force_place(req, topology, vims):
    """Exhaustive placement. Returns (block_reason, chosen, ranked) where
    chosen and the ranked entries are (cost_us, vim_ids) tuples; reasons
    use the same strings as the planner's BlockReason values."""
    rtt = all_pairs_rtt_us(topology)
    elig = {}
    for vnf in req.chain:
        elig[vnf.vnf_id] = sorted(
            v.vim_id
            for v in vims
            if v.cpu_idle >= vnf.cpu_req
            and v.mem_idle >= vnf.mem_req
            and v.storage_idle >= vnf.storage_req
            and vnf.type_tag in v.instantiable_vnf_types
        )
    if any(not opts for opts in elig.values()):
        return "NoEligibleVim", None, []

    node_of = {}
    for n in topology.nodes:  # the first node listed for a VIM wins
        if n.vim is not None:
            node_of.setdefault(n.vim.vim_id, n.node_id)
    ranked = []
    for combo in itertools.product(*(elig[v.vnf_id] for v in req.chain)):
        nodes = [node_of[v] for v in combo]
        legs = list(zip(nodes, nodes[1:]))
        if req.ingress is not None:
            legs.insert(0, (req.ingress, nodes[0]))
        if req.egress is not None:
            legs.append((nodes[-1], req.egress))
        cost = 0.0
        for a, b in legs:
            w = rtt(a, b)
            if w is None:
                cost = None
                break
            cost += w
        if cost is not None:
            ranked.append((cost, combo))
    ranked.sort()
    ranked = ranked[: req.k]
    chosen = next(
        ((c, ids) for c, ids in ranked if len(set(ids)) == len(ids)), None
    )
    if chosen is None:
        return "NoValidSC", None, ranked
    if chosen[0] > req.max_rtt_us:
        return "RttExceeded", None, ranked
    return None, chosen, ranked


def exhaustive_rank(req, graph, eligibility, vim_node, ingress=None, egress=None):
    """Every chain of the product, costed left to right and sorted.

    Same inputs as ``planner.rank_service_chains``; returns the first
    ``req.k`` (cost_us, vim_ids) pairs. Legs run ingress, chain, egress,
    and a chain with an unreachable leg is dropped.
    """
    ranked = []
    for combo in itertools.product(*(eligibility[v.vnf_id] for v in req.chain)):
        nodes = [vim_node[v] for v in combo]
        if ingress is not None:
            nodes.insert(0, ingress)
        if egress is not None:
            nodes.append(egress)
        cost = 0.0
        for a, b in zip(nodes, nodes[1:]):
            w = graph.weight_us(a, b)
            if w is None:
                break
            cost += w
        else:
            ranked.append((cost, combo))
    ranked.sort()
    return ranked[: req.k]


def random_placement_instance(rng):
    """One random (req, topology, vims) triple on a dyadic latency grid."""
    n_vim = rng.randint(1, 4)
    tags = ["vms-core", "video-analytics"]
    nodes = []
    vims = []
    for i in range(n_vim):
        kind = NodeKind.AMEN if i % 2 == 0 else NodeKind.MCEN
        vim = VimStatus(
            vim_id=f"vim-{i}",
            cpu_idle=rng.randint(0, 10),
            mem_idle=rng.randint(0, 10),
            storage_idle=rng.randint(0, 10),
            instantiable_vnf_types=frozenset(
                t for t in tags if rng.random() < 0.8
            ),
        )
        vims.append(vim)
        nodes.append(Node(f"n{i}", kind, rng.randint(0, 8) / 4.0, vim=vim))
    for j in range(rng.randint(0, 3)):
        kind = rng.choice([NodeKind.ROADM, NodeKind.AGG_SWITCH])
        nodes.append(Node(f"t{j}", kind, rng.randint(0, 16) / 4.0))

    links = []
    lid = 0
    for a, b in itertools.combinations([n.node_id for n in nodes], 2):
        while rng.random() < 0.45:
            links.append(
                Link(f"l{lid}", (a, b), rng.randint(1, 40) / 4.0)
            )
            lid += 1
            if rng.random() < 0.85:
                break
    topology = Topology(nodes=nodes, links=links, prop_const_us_per_km=4.0)

    chain = [
        VnfDescriptor(
            vnf_id=f"vnf-{i}",
            type_tag=rng.choice(tags),
            cpu_req=rng.randint(1, 6),
            mem_req=rng.randint(1, 6),
            storage_req=rng.randint(1, 6),
        )
        for i in range(rng.randint(1, 3))
    ]
    ingress = rng.choice([None, nodes[0].node_id, nodes[-1].node_id])
    egress = rng.choice([None, nodes[-1].node_id])
    req = NsRequest(
        ns_id="ns-rand",
        chain=chain,
        max_rtt_us=float(rng.choice([1, 10, 100, 1000, 10000])),
        k=n_vim ** len(chain),
        ingress=ingress,
        egress=egress,
    )
    return req, topology, vims


def per_packet_train(path, cfg, seed, run=0):
    """One simulated train with every packet sent forward and back.

    Blocks of ``CHUNK`` packets; block ``c`` draws from
    ``SeedSequence(entropy=seed, spawn_key=(run, c))``. For a train of
    at most ``CHUNK`` packets this is exactly ``SimulatedProbe``'s run
    ``run``; for a longer one it has the same law.
    """
    back_path = path.reversed()
    red = TrainReduction()
    for block, start in enumerate(range(0, cfg.count, CHUNK)):
        seq = np.arange(start, min(start + CHUNK, cfg.count), dtype=np.float64)
        tx = np.rint(seq * cfg.wire_slot_ns / CLOCK_TICK_NS) * CLOCK_TICK_NS
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(run, block))
        )
        fwd = transmit_train(path, tx, rng)
        back = transmit_train(back_path, fwd.rx_ns[fwd.delivered], rng)
        got = back.delivered
        red.fold(tx[fwd.delivered][got], back.rx_ns[got], float(tx[0]))
    two_way_prop = 2.0 * path.length_km * path.prop_const_us_per_km
    return compute_stats(cfg, red, two_way_propagation_us=two_way_prop)


def convolve_in_order(pf, pb):
    """The convolution of two leg laws as a list: bin k sums
    ``pf[i] * pb[k - i]`` in Python floats, ``i`` ascending, the order
    ``dataplane.rtt_law`` keeps on every host."""
    out = []
    for k in range(len(pf) + len(pb) - 1):
        total = 0.0
        for i in range(max(0, k - len(pb) + 1), min(len(pf), k + 1)):
            total += pf[i] * pb[k - i]
        out.append(total)
    return out


def first_fit_n(live, route, tunabilities, floor_n, m):
    """Lowest free centre n >= floor_n for a width-``m`` slot, or None.

    ``live`` holds (route, n, m) per provisioned channel. A slot is free
    when its interval [n - m, n + m] shares at most an endpoint with the
    interval of every live channel that has a link on ``route``, and n
    lies in every non-empty set of ``tunabilities``. Every grid point is
    tried from the floor up to the last one that any interval or set
    could still block.
    """
    links = set(route)
    occupied = [(c_n - c_m, c_n + c_m) for c_route, c_n, c_m in live
                if links & set(c_route)]
    sets = [t for t in tunabilities if t]
    top = max([floor_n] + [hi + m for _, hi in occupied] + [max(t) for t in sets])
    for n in range(floor_n, top + 1):
        if all(n in t for t in sets) and all(
            min(hi, n + m) <= max(lo, n - m) for lo, hi in occupied
        ):
            return n
    return None


@dataclass(frozen=True)
class QualitySample:
    """One monitoring sample of the optical channel."""

    t_s: float
    snr_db: float
    prefec_ber: float


def min_hop_route(topology, a, z):
    """Link ids of the OLS route from ROADM ``a`` to ROADM ``z``: among
    every simple path over fibre between ROADMs, the fewest hops, and of
    those the lexicographically smallest link-id sequence. None when no
    path exists."""
    roadms = {n.node_id for n in topology.nodes if n.kind is NodeKind.ROADM}
    fibres = [(l.link_id, *l.endpoints) for l in topology.links
              if l.kind is LinkKind.FIBER and roadms.issuperset(l.endpoints)]
    paths = []

    def walk(node, seen, links):
        if node == z:
            paths.append(tuple(links))
            return
        for link_id, u, v in fibres:
            for here, there in ((u, v), (v, u)):
                if here == node and there not in seen:
                    walk(there, seen | {there}, links + [link_id])

    walk(a, {a}, [])
    if not paths:
        return None
    hops = min(map(len, paths))
    return min(p for p in paths if len(p) == hops)


def per_sample_quality(s):
    """The SNR ramp of a ``DegradationScenario`` as one object per sample,
    the BER's power and ``math.erfc`` per Python float through
    ``np.vectorize``."""
    t = np.arange(0.0, s.duration_s + s.sample_period_s / 2, s.sample_period_s)
    snr = s.snr0_db - s.ramp_db_per_s * np.maximum(0.0, t - s.ramp_start_s)
    erfc = np.vectorize(math.erfc, otypes=[np.float64])
    power = np.vectorize(lambda x: 10.0 ** x, otypes=[np.float64])
    ber = 0.5 * erfc(np.sqrt(power(snr / 10.0) / 2.0))
    return [
        QualitySample(float(ti), float(si), float(bi))
        for ti, si, bi in zip(t, snr, ber)
    ]


def per_sample_detect(series, cfg):
    """Soft-failure detection over a list of ``QualitySample``: baseline
    mean, a run of ``consecutive`` samples strictly below it by
    ``delta_db``, and the FEC crossing interpolated between samples."""
    if len(series) < cfg.baseline_window:
        return SoftFailureReport(detected=False)
    baseline = 0  # summed left to right from 0, as Python 3.10's sum() does
    for q in series[: cfg.baseline_window]:
        baseline += q.snr_db
    baseline /= cfg.baseline_window
    threshold = baseline - cfg.delta_db
    t_detect = None
    run = 0
    for i, q in enumerate(series):
        if q.snr_db < threshold:
            run += 1
            if run == cfg.consecutive:
                t_detect = series[i - cfg.consecutive + 1].t_s
                break
        else:
            run = 0
    if t_detect is None:
        return SoftFailureReport(detected=False)
    t_fec = None
    for prev, cur in zip(series, series[1:]):
        if prev.prefec_ber < cfg.fec_limit_ber <= cur.prefec_ber:
            frac = (cfg.fec_limit_ber - prev.prefec_ber) / (
                cur.prefec_ber - prev.prefec_ber
            )
            t_fec = prev.t_s + frac * (cur.t_s - prev.t_s)
            break
    if t_fec is None and series and series[0].prefec_ber >= cfg.fec_limit_ber:
        t_fec = series[0].t_s
    anticipation = None if t_fec is None else t_fec - t_detect
    return SoftFailureReport(
        detected=True, t_detect_s=t_detect, t_fec_s=t_fec,
        anticipation_s=anticipation,
    )
