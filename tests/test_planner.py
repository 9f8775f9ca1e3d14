"""Latency-aware placement: RTT graph, ranking, and the placement walk."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metroslice.model import (
    Link,
    Node,
    NodeKind,
    NsRequest,
    Topology,
    VimStatus,
    VnfDescriptor,
)
from metroslice.planner import (
    BlockReason,
    RttGraph,
    build_rtt_graph,
    filter_vims,
    place,
    rank_service_chains,
)

from oracles import (
    all_pairs_rtt_us,
    brute_force_place,
    exhaustive_rank,
    random_placement_instance,
)


def _vnf(vnf_id, tag="vms-core", cpu=4, mem=8192, sto=200):
    return VnfDescriptor(vnf_id=vnf_id, type_tag=tag, cpu_req=cpu, mem_req=mem, storage_req=sto)


def _req(chain, max_rtt=10000.0, k=10, ingress=None, egress=None):
    return NsRequest(ns_id="ns-t", chain=chain, max_rtt_us=max_rtt, k=k,
                     ingress=ingress, egress=egress)


class TestRttGraph:
    def test_two_vim_span(self):
        # 80 km of fibre and no intermediate elements: 2 * 80 * 4.899 us.
        t = Topology(
            nodes=[
                Node("a", NodeKind.AMEN, 0.0,
                     vim=VimStatus("va", 1, 1, 1, frozenset())),
                Node("b", NodeKind.MCEN, 0.0,
                     vim=VimStatus("vb", 1, 1, 1, frozenset())),
            ],
            links=[Link("l", ("a", "b"), 80.0)],
        )
        g = build_rtt_graph(t, ["a", "b"])
        assert g.weight_us("a", "b") == pytest.approx(783.84, rel=1e-12)

    def test_default_topology_cross_vim_weight(self, scenario):
        # Fibre 80.0016 km plus two switches and two ROADMs in transit,
        # endpoints exempt from their own fixed latency.
        g = build_rtt_graph(scenario.topology, ["amen", "mcen"])
        expected = 2.0 * (80.0016 * 4.899 + 2 * 0.315 + 2 * 3.275)
        assert g.weight_us("amen", "mcen") == pytest.approx(expected, rel=1e-12)
        assert g.weight_us("amen", "mcen") == pytest.approx(798.2156768, abs=1e-6)

    def test_symmetry_and_self(self, scenario):
        g = build_rtt_graph(scenario.topology, ["amen", "mcen", "probe-a"])
        assert g.weight_us("amen", "amen") == 0.0
        assert g.weight_us("mcen", "amen") == g.weight_us("amen", "mcen")

    def test_unreachable_is_none(self):
        t = Topology(
            nodes=[Node("a", NodeKind.AMEN), Node("b", NodeKind.MCEN)],
            links=[],
        )
        assert build_rtt_graph(t, ["a", "b"]).weight_us("a", "b") is None

    def test_matches_floyd_warshall_oracle(self, scenario):
        terminals = ["amen", "mcen", "probe-a", "probe-b", "roadm-3"]
        g = build_rtt_graph(scenario.topology, terminals)
        oracle = all_pairs_rtt_us(scenario.topology)
        for u in terminals:
            for v in terminals:
                got = g.weight_us(u, v)
                want = oracle(u, v)
                if want is None:
                    assert got is None
                else:
                    assert got == pytest.approx(want, rel=1e-12)


class TestFilterVims:
    def test_inclusive_boundary_and_tag(self):
        vims = [
            VimStatus("v-exact", 4, 8192, 200, frozenset({"vms-core"})),
            VimStatus("v-short", 3, 8192, 200, frozenset({"vms-core"})),
            VimStatus("v-no-tag", 64, 99999, 9999, frozenset({"video-analytics"})),
        ]
        out = filter_vims(_req([_vnf("v1")]), vims)
        assert out == {"v1": ["v-exact"]}

    def test_ids_sorted_per_vnf(self):
        vims = [
            VimStatus("v-b", 8, 9000, 300, frozenset({"vms-core"})),
            VimStatus("v-a", 8, 9000, 300, frozenset({"vms-core"})),
        ]
        out = filter_vims(_req([_vnf("v1"), _vnf("v2")]), vims)
        assert out == {"v1": ["v-a", "v-b"], "v2": ["v-a", "v-b"]}


class TestRanking:
    def test_default_scenario_ranked_order(self, scenario, world):
        req = scenario.request
        ranked = place(req, world.topology, world.vims).ranked
        assert [c.vim_ids for c in ranked] == [
            ("vim-amen", "vim-amen"),
            ("vim-mcen", "vim-mcen"),
            ("vim-amen", "vim-mcen"),
            ("vim-mcen", "vim-amen"),
        ]
        assert ranked[0].cost_us == 0.0
        assert ranked[1].cost_us == 0.0
        assert ranked[2].cost_us == pytest.approx(798.2156768, abs=1e-6)
        assert ranked[3].cost_us == pytest.approx(798.2156768, abs=1e-6)

    def test_k_truncates_to_global_minimum(self, scenario, world):
        req = NsRequest(ns_id="ns-k1", chain=scenario.request.chain,
                        max_rtt_us=scenario.request.max_rtt_us, k=1)
        decision = place(req, world.topology, world.vims)
        # Only the co-located chain survives the cut, and it repeats a VIM.
        assert len(decision.ranked) == 1
        assert decision.ranked[0].vim_ids == ("vim-amen", "vim-amen")
        assert decision.block_reason is BlockReason.NO_VALID_SC

    def test_access_legs_added(self, scenario, world):
        req = NsRequest(
            ns_id="ns-legs", chain=scenario.request.chain,
            max_rtt_us=10000.0, k=16, ingress="probe-a", egress="probe-b",
        )
        decision = place(req, world.topology, world.vims)
        assert decision.placed
        # probe-a to amen: 1 m of patches through one switch, both ways.
        leg = 2.0 * (0.001 * 4.899 + 0.315)
        cross = 2.0 * (80.0016 * 4.899 + 2 * 0.315 + 2 * 3.275)
        assert decision.candidate.vim_ids == ("vim-amen", "vim-mcen")
        assert decision.candidate.cost_us == pytest.approx(cross + 2 * leg, rel=1e-12)

    def test_unreachable_combos_dropped(self):
        vim_a = VimStatus("va", 8, 8, 8, frozenset({"x"}))
        vim_b = VimStatus("vb", 8, 8, 8, frozenset({"x"}))
        t = Topology(
            nodes=[Node("a", NodeKind.AMEN, vim=vim_a),
                   Node("b", NodeKind.MCEN, vim=vim_b)],
            links=[],
        )
        req = _req([_vnf("v1", tag="x", cpu=1, mem=1, sto=1),
                    _vnf("v2", tag="x", cpu=1, mem=1, sto=1)])
        decision = place(req, t, [vim_a, vim_b])
        # Only same-VIM chains are connected, and those repeat a VIM.
        assert decision.block_reason is BlockReason.NO_VALID_SC
        assert all(len(set(c.vim_ids)) == 1 for c in decision.ranked)


@st.composite
def ranking_instances(draw):
    """Up to 12 VIMs on shared or separate nodes, chains of 1-4 VNFs,
    RTT weights on a coarse grid (many equal costs), some pairs
    unreachable, optional ingress and egress, k up to past every chain.

    Quarter steps are dyadic, so sums are exact and ties are real; tenth
    steps round, so sums of the same legs in another order can differ."""
    n_vim = draw(st.integers(1, 12))
    n_node = draw(st.integers(1, n_vim))
    vim_node = {
        f"vim-{i:02d}": f"n{draw(st.integers(0, n_node - 1))}" for i in range(n_vim)
    }
    vim_ids = sorted(vim_node)
    terminals = [f"n{i}" for i in range(n_node)] + ["in", "out"]
    step = draw(st.sampled_from([4.0, 10.0]))
    weights = {}
    for i, u in enumerate(terminals):
        for v in terminals[i + 1:]:
            w = draw(st.one_of(st.none(), st.integers(0, 12)))
            if w is not None:
                weights[(u, v)] = w / step
    length = draw(st.integers(1, 4))
    chain = [_vnf(f"v{i}") for i in range(length)]
    eligibility = {
        vnf.vnf_id: sorted(draw(st.sets(st.sampled_from(vim_ids), min_size=1)))
        for vnf in chain
    }
    combos = 1
    for opts in eligibility.values():
        combos *= len(opts)
    ingress = draw(st.sampled_from([None, "in", "n0"]))
    egress = draw(st.sampled_from([None, "out", f"n{n_node - 1}"]))
    k = draw(st.integers(1, combos + 1))
    req = _req(chain, k=k, ingress=ingress, egress=egress)
    return req, RttGraph(weights), eligibility, vim_node


class TestRankingMatchesExhaustive:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(ranking_instances())
    def test_bitwise_equal_to_sorted_product(self, inst):
        req, graph, eligibility, vim_node = inst
        got = rank_service_chains(req, graph, eligibility, vim_node,
                                  req.ingress, req.egress)
        want = exhaustive_rank(req, graph, eligibility, vim_node,
                               req.ingress, req.egress)
        assert [(c.cost_us.hex(), c.vim_ids) for c in got] == [
            (cost.hex(), ids) for cost, ids in want
        ]

    def test_rounding_near_tie_at_the_cut(self):
        # ("v1", "v0", "v1") costs (0.1 + 0.1) + 1.1 == 1.3 left to right,
        # but its one-VNF prefix is keyed 0.1 + (0.1 + 1.1) > 1.3, above
        # the 8th cost; the stopping test must allow for that rounding.
        legs = {("n0", "n1"): 0.1, ("n0", "n2"): 3.3, ("n0", "n3"): 0.6,
                ("n1", "n2"): 2.2, ("n1", "n3"): 0.2, ("n2", "n3"): 0.6,
                ("n0", "out"): 3.3, ("n1", "out"): 1.1, ("n2", "out"): 3.3,
                ("n3", "out"): 1.1}
        vim_node = {f"v{i}": f"n{i}" for i in range(4)}
        chain = [_vnf(f"f{i}") for i in range(3)]
        eligibility = {vnf.vnf_id: sorted(vim_node) for vnf in chain}
        req = _req(chain, k=8, egress="out")
        graph = RttGraph(legs)
        got = rank_service_chains(req, graph, eligibility, vim_node, None, "out")
        want = exhaustive_rank(req, graph, eligibility, vim_node, None, "out")
        assert [(c.cost_us, c.vim_ids) for c in got] == want
        assert (1.3, ("v1", "v0", "v1")) in want


class TestPlace:
    def test_default_scenario_placement(self, scenario, world):
        decision = place(scenario.request, world.topology, world.vims)
        assert decision.placed
        assert decision.candidate.vim_ids == ("vim-amen", "vim-mcen")
        assert decision.candidate.cost_us == pytest.approx(798.2156768, abs=1e-6)
        by_id = {v.vim_id: v for v in world.vims}
        # vms-core (4/8192/200) on vim-amen, analytics (8/16384/100) on vim-mcen.
        assert by_id["vim-amen"].cpu_idle == 16 - 4
        assert by_id["vim-amen"].mem_idle == 32768 - 8192
        assert by_id["vim-amen"].storage_idle == 500 - 200
        assert by_id["vim-mcen"].cpu_idle == 32 - 8
        assert by_id["vim-mcen"].mem_idle == 65536 - 16384
        assert by_id["vim-mcen"].storage_idle == 1000 - 100

    def test_no_eligible_vim(self, scenario, world):
        req = _req([_vnf("v1", tag="nonexistent-tag")])
        decision = place(req, world.topology, world.vims)
        assert decision.block_reason is BlockReason.NO_ELIGIBLE_VIM
        assert decision.ranked == ()

    def test_rtt_exceeded_leaves_resources_untouched(self, scenario, world):
        before = [(v.cpu_idle, v.mem_idle, v.storage_idle) for v in world.vims]
        req = NsRequest(ns_id="ns-tight", chain=scenario.request.chain,
                        max_rtt_us=100.0, k=10)
        decision = place(req, world.topology, world.vims)
        assert decision.block_reason is BlockReason.RTT_EXCEEDED
        assert [(v.cpu_idle, v.mem_idle, v.storage_idle) for v in world.vims] == before

    def test_resource_conservation(self, scenario, world):
        req = scenario.request
        total_before = sum(v.cpu_idle for v in world.vims)
        place(req, world.topology, world.vims)
        total_after = sum(v.cpu_idle for v in world.vims)
        assert total_before - total_after == sum(v.cpu_req for v in req.chain)

    def test_deterministic(self, scenario):
        from metroslice.config import build_world

        a = place(scenario.request, *(lambda w: (w.topology, w.vims))(build_world(scenario)))
        b = place(scenario.request, *(lambda w: (w.topology, w.vims))(build_world(scenario)))
        assert a.candidate == b.candidate
        assert a.ranked == b.ranked

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(20250819)
        for _ in range(12):
            req, topology, vims = random_placement_instance(rng)
            want_reason, want_chosen, want_ranked = brute_force_place(req, topology, vims)
            decision = place(req, topology, vims)
            if want_reason is not None:
                assert decision.block_reason is not None
                assert decision.block_reason.value == want_reason
            else:
                assert decision.placed
                assert decision.candidate.vim_ids == want_chosen[1]
                assert decision.candidate.cost_us == pytest.approx(want_chosen[0], rel=1e-12)
            got_ranked = [(c.cost_us, c.vim_ids) for c in decision.ranked]
            assert got_ranked == [
                (pytest.approx(c, rel=1e-12), ids) for c, ids in want_ranked
            ]


def _uniform_ring(n_vims, tags):
    """n_vims VIM nodes on a 10 km fibre ring, each hosting every tag."""
    nodes = [
        Node(f"s{i}", NodeKind.AMEN, 0.25,
             vim=VimStatus(f"vim-{i}", 64, 65536, 2000, frozenset(tags)))
        for i in range(n_vims)
    ]
    links = [Link(f"f{i}", (f"s{i}", f"s{(i + 1) % n_vims}"), 10.0)
             for i in range(n_vims)]
    return Topology(nodes=nodes, links=links)


class TestNoValidScAfterTruncation:
    """Feasibility (one VNF per VIM) is checked after the top-k cut: the
    request's ``k`` candidates are ranked first, then walked."""

    def _decide(self, k):
        t = _uniform_ring(10, ("fw", "nat"))
        vims = [n.vim for n in t.nodes]
        req = _req([_vnf("v1", tag="fw"), _vnf("v2", tag="nat")], k=k)
        want = brute_force_place(req, t, vims)
        return place(req, t, vims), want, vims

    def test_k10_blocks_on_the_ten_colocated_chains(self):
        decision, want, vims = self._decide(10)
        assert decision.block_reason is BlockReason.NO_VALID_SC
        assert want[0] == "NoValidSC"
        # Every VIM next to itself costs 0, so the ten cheapest chains
        # are the ten co-located ones, none of them feasible.
        assert [c.vim_ids for c in decision.ranked] == [
            (f"vim-{i}", f"vim-{i}") for i in range(10)
        ]
        assert {c.cost_us for c in decision.ranked} == {0.0}
        assert all(v.cpu_idle == 64 for v in vims)

    def test_k11_places_the_eleventh(self):
        decision, want, _ = self._decide(11)
        assert decision.placed
        assert decision.candidate == decision.ranked[10]
        assert decision.candidate.vim_ids == want[1][1] == ("vim-0", "vim-1")
        assert decision.candidate.cost_us > 0.0
