"""Domain model: resource bookkeeping, topology validation, demand math."""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metroslice import model
from metroslice.dataplane import NoPath, path_from_topology
from metroslice.model import (
    GRAPH_CACHE_SIZE,
    DemandEntry,
    DemandProfile,
    LatencyGraph,
    Link,
    LinkKind,
    Node,
    NodeKind,
    NsRequest,
    Topology,
    VimStatus,
    VnfDescriptor,
    aggregate_bandwidth_mbps,
    check_ptz_bound,
    geometry,
    latency_graph,
    validate_topology,
)
from metroslice.planner import build_rtt_graph

from oracles import all_pairs_rtt_us


def _vnf(cpu=4, mem=8192, sto=200, tag="vms-core", vnf_id="v"):
    return VnfDescriptor(vnf_id=vnf_id, type_tag=tag, cpu_req=cpu, mem_req=mem, storage_req=sto)


def _vim(cpu=16, mem=32768, sto=500, tags=("vms-core",), vim_id="vim-x"):
    return VimStatus(
        vim_id=vim_id,
        cpu_idle=cpu,
        mem_idle=mem,
        storage_idle=sto,
        instantiable_vnf_types=frozenset(tags),
    )


class TestDescriptors:
    def test_vnf_rejects_nonpositive_resources(self):
        for kw in ({"cpu": 0}, {"mem": -1}, {"sto": 0}):
            with pytest.raises(ValueError):
                _vnf(**kw)

    def test_vim_rejects_negative_idle(self):
        with pytest.raises(ValueError):
            _vim(cpu=-1)

    def test_ns_request_validation(self):
        with pytest.raises(ValueError):
            NsRequest(ns_id="x", chain=[], max_rtt_us=100.0)
        with pytest.raises(ValueError):
            NsRequest(ns_id="x", chain=[_vnf()], max_rtt_us=0.0)
        with pytest.raises(ValueError):
            NsRequest(ns_id="x", chain=[_vnf()], max_rtt_us=100.0, k=0)


class TestCanHost:
    def test_exact_fit_is_hostable(self):
        # Boundary must be inclusive on every axis simultaneously.
        vim = _vim(cpu=4, mem=8192, sto=200)
        assert vim.can_host(_vnf(cpu=4, mem=8192, sto=200))

    @pytest.mark.parametrize("kw", [{"cpu": 5}, {"mem": 8193}, {"sto": 201}])
    def test_one_unit_over_is_not(self, kw):
        vim = _vim(cpu=4, mem=8192, sto=200)
        assert not vim.can_host(_vnf(**kw))

    def test_type_tag_gates_eligibility(self):
        vim = _vim(tags=("video-analytics",))
        assert not vim.can_host(_vnf(tag="vms-core"))
        assert vim.can_host(_vnf(tag="video-analytics"))

    def test_allocate_decrements_and_enforces(self):
        vim = _vim(cpu=8, mem=16384, sto=400)
        vim.allocate(_vnf())
        assert (vim.cpu_idle, vim.mem_idle, vim.storage_idle) == (4, 8192, 200)
        vim.allocate(_vnf())
        assert (vim.cpu_idle, vim.mem_idle, vim.storage_idle) == (0, 0, 0)
        with pytest.raises(ValueError):
            vim.allocate(_vnf())


def _clean_topology():
    nodes = [
        Node("a", NodeKind.AMEN, 0.1, vim=_vim(vim_id="vim-a")),
        Node("r", NodeKind.ROADM, 3.275),
        Node("b", NodeKind.MCEN, 0.1, vim=_vim(vim_id="vim-b")),
    ]
    links = [
        Link("l1", ("a", "r"), 10.0),
        Link("l2", ("r", "b"), 10.0),
    ]
    return Topology(nodes=nodes, links=links)


class TestValidateTopology:
    def test_clean_topology_has_no_violations(self):
        assert validate_topology(_clean_topology()) == []

    def _codes(self, topo):
        return {v.code for v in validate_topology(topo)}

    def test_duplicate_node_id(self):
        t = _clean_topology()
        t.nodes.append(Node("a", NodeKind.AMEN))
        assert "duplicate-node-id" in self._codes(t)

    def test_negative_node_latency(self):
        t = _clean_topology()
        t.nodes[1].fixed_latency_us = -0.5
        assert "negative-node-latency" in self._codes(t)

    def test_vim_on_transport_node(self):
        t = _clean_topology()
        t.nodes[1].vim = _vim(vim_id="vim-r")
        assert "vim-on-transport-node" in self._codes(t)

    def test_duplicate_vim_id(self):
        t = _clean_topology()
        t.nodes[2].vim.vim_id = "vim-a"
        assert "duplicate-vim-id" in self._codes(t)

    def test_duplicate_link_id(self):
        t = _clean_topology()
        t.links.append(Link("l1", ("a", "b"), 1.0))
        assert "duplicate-link-id" in self._codes(t)

    def test_unknown_endpoint(self):
        t = _clean_topology()
        t.links.append(Link("l3", ("a", "ghost"), 1.0))
        assert "unknown-endpoint" in self._codes(t)

    def test_self_loop(self):
        t = _clean_topology()
        t.links.append(Link("l3", ("r", "r"), 1.0))
        assert "self-loop" in self._codes(t)

    def test_negative_length(self):
        t = _clean_topology()
        t.links[0].length_km = -2.0
        assert "negative-length" in self._codes(t)

    def test_nonpositive_prop_const(self):
        t = _clean_topology()
        t.prop_const_us_per_km = 0.0
        assert "nonpositive-prop-const" in self._codes(t)

    def test_violations_accumulate(self):
        t = _clean_topology()
        t.links[0].length_km = -2.0
        t.nodes[1].fixed_latency_us = -1.0
        assert len(validate_topology(t)) == 2


@st.composite
def dyadic_topologies(draw):
    """Small graphs with dyadic lengths and latencies (exact sums, so
    equal costs tie bitwise), parallel links and disconnected parts."""
    n = draw(st.integers(1, 10))
    nodes = [
        Node(f"n{i}", NodeKind.ROADM, draw(st.integers(0, 8)) / 4.0) for i in range(n)
    ]
    links = []
    if n > 1:
        for lid in range(draw(st.integers(0, 25))):
            a, z = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                 unique=True))
            links.append(Link(f"l{lid}", (f"n{a}", f"n{z}"),
                              draw(st.integers(0, 20)) / 4.0))
    return Topology(nodes=nodes, links=links, prop_const_us_per_km=4.0)


class TestLatencyGraph:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(dyadic_topologies())
    def test_distances_match_floyd_warshall(self, t):
        g = LatencyGraph(geometry(t))
        oracle = all_pairs_rtt_us(t)
        for u in t.nodes:
            dist, pred = g.paths_from(u.node_id)
            assert dist[u.node_id] == 0.0 and u.node_id not in pred
            for v in t.nodes:
                if v is u:
                    continue
                want = oracle(u.node_id, v.node_id)
                if want is None:
                    assert v.node_id not in dist
                else:
                    assert 2.0 * (dist[v.node_id] - g.fixed[v.node_id]) == want

    def test_parallel_links_keep_the_shortest(self):
        t = Topology(
            nodes=[Node("a", NodeKind.ROADM), Node("b", NodeKind.ROADM, 1.0)],
            links=[Link("l1", ("a", "b"), 3.0), Link("l2", ("b", "a"), 2.0),
                   Link("l3", ("a", "b"), 2.0)],
            prop_const_us_per_km=4.0,
        )
        g = LatencyGraph(geometry(t))
        assert g.length_km("a", "b") == g.length_km("b", "a") == 2.0
        assert g.paths_from("a")[0] == {"a": 0.0, "b": 9.0}

    def test_unknown_source(self):
        with pytest.raises(KeyError):
            LatencyGraph(geometry(_clean_topology())).paths_from("nowhere")


def _fresh_rtt(t, u, v):
    """RTT weight from a new graph and an uncached Dijkstra run."""
    g = LatencyGraph(geometry(t))
    dist, _ = g.paths_from(u)
    return 2.0 * (dist[v] - g.fixed[v]) if v in dist else None


def _fresh_route(t, src, dst):
    """Node ids and length of the route a Dijkstra run from ``src`` finds
    to ``dst`` on a new graph; None when unreachable."""
    g = LatencyGraph(geometry(t))
    dist, pred = g.paths_from(src)
    if dst not in dist:
        return None
    nodes = [dst]
    while nodes[-1] != src:
        nodes.append(pred[nodes[-1]])
    nodes.reverse()
    return nodes, sum(g.length_km(a, b) for a, b in zip(nodes, nodes[1:]))


def _route(t, src, dst):
    p = path_from_topology(t, src, dst, {})
    return [e.element_id for e in p.elements], p.length_km


class TestLatencyGraphMemo:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(dyadic_topologies())
    def test_memo_equals_a_fresh_graph(self, t):
        ids = [n.node_id for n in t.nodes]
        for _ in range(2):  # first through a cold memo, then a warm one
            rtt = build_rtt_graph(t, ids)
            for u in ids:
                for v in ids:
                    if u != v:
                        assert rtt.weight_us(u, v) == _fresh_rtt(t, u, v)
                    want = _fresh_route(t, u, v)
                    if want is None:
                        with pytest.raises(NoPath):
                            path_from_topology(t, u, v, {})
                    else:
                        assert _route(t, u, v) == want

    def test_equal_geometry_shares_one_graph_and_its_runs(self):
        t = _clean_topology()
        g = latency_graph(t)
        assert latency_graph(copy.deepcopy(t)) is g
        assert g.paths_from("a") is g.paths_from("a")
        # VIM state is not geometry.
        t.nodes[0].vim.cpu_idle = 0
        assert latency_graph(t) is g

    def test_in_place_edits_are_seen(self):
        t = _clean_topology()

        def check():
            got = build_rtt_graph(t, ["a", "b"]).weight_us("a", "b")
            assert got == _fresh_rtt(t, "a", "b")
            assert _route(t, "a", "b") == _fresh_route(t, "a", "b")
            return got

        seen = [check()]
        t.links[0].length_km = 20.0
        seen.append(check())
        t.nodes[1].fixed_latency_us = 5.0
        seen.append(check())
        t.prop_const_us_per_km = 5.0
        seen.append(check())
        assert len(set(seen)) == len(seen)
        assert seen[-1] == 2.0 * ((20.0 * 5.0 + 5.0) + 10.0 * 5.0)
        t.links.append(Link("l3", ("a", "b"), 1.0))
        assert _route(t, "a", "b") == (["a", "b"], 1.0)

    def test_cache_stays_bounded(self):
        model.clear_memos()
        base = _clean_topology()
        graphs = []
        for i in range(GRAPH_CACHE_SIZE + 3):
            t = copy.deepcopy(base)
            t.links[0].length_km = 1.0 + i
            graphs.append(latency_graph(t))
            graphs[-1].paths_from("a")
        info = model._graph_of.cache_info()
        assert info.currsize == GRAPH_CACHE_SIZE
        assert info.misses == GRAPH_CACHE_SIZE + 3
        t = copy.deepcopy(base)
        t.links[0].length_km = 1.0
        assert latency_graph(t) is not graphs[0]  # the oldest was evicted


class TestDemand:
    def test_default_profile_aggregate(self, scenario):
        # 2000*240 + 2000*76 + 150000*2.0, all in Mb/s.
        assert aggregate_bandwidth_mbps(scenario.demand) == pytest.approx(932000.0)

    def test_aggregate_of_empty_profile(self):
        assert aggregate_bandwidth_mbps(DemandProfile(entries=[])) == 0.0

    def test_aggregate_linearity(self):
        rng = random.Random(7)
        for _ in range(50):
            entries = [
                DemandEntry(rng.randrange(0, 5000), rng.uniform(0.0, 300.0))
                for _ in range(rng.randrange(1, 6))
            ]
            expected = sum(e.channel_count * e.per_channel_mbps for e in entries)
            assert aggregate_bandwidth_mbps(DemandProfile(entries=entries)) == pytest.approx(expected)
            doubled = [DemandEntry(2 * e.channel_count, e.per_channel_mbps) for e in entries]
            assert aggregate_bandwidth_mbps(DemandProfile(entries=doubled)) == pytest.approx(2 * expected)

    def test_demand_entry_validation(self):
        with pytest.raises(ValueError):
            DemandProfile(entries=[DemandEntry(-1, 10.0)])
        with pytest.raises(ValueError):
            DemandProfile(entries=[], ptz_max_rtt_ms=0.0)

    def test_ptz_bound(self, scenario):
        d = scenario.demand
        assert d.ptz_max_rtt_ms == 10.0
        assert check_ptz_bound(0.7991, d)
        assert check_ptz_bound(10.0, d)  # bound is inclusive
        assert not check_ptz_bound(10.0001, d)
