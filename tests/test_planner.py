"""Latency-aware placement: RTT graph, ranking, and the placement walk."""

import dataclasses
import hashlib
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
    clear_memos,
    latency_graph,
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

    @pytest.mark.parametrize("k", [10, 11])
    def test_default_ranked_list_pinned(self, scenario, world, k):
        # The default request has four chains, so k = 10 and k = 11 both
        # rank all of them; ``--json plan`` omits this list.
        req = dataclasses.replace(scenario.request, k=k)
        ranked = place(req, world.topology, world.vims).ranked
        assert [(c.cost_us.hex(), c.vim_ids) for c in ranked] == [
            ("0x0.0p+0", ("vim-amen", "vim-amen")),
            ("0x0.0p+0", ("vim-mcen", "vim-mcen")),
            ("0x1.8f1b9b4c2140dp+9", ("vim-amen", "vim-mcen")),
            ("0x1.8f1b9b4c2140dp+9", ("vim-mcen", "vim-amen")),
        ]

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
        got = rank_service_chains(req, graph, eligibility, vim_node)
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
        got = rank_service_chains(req, graph, eligibility, vim_node)
        want = exhaustive_rank(req, graph, eligibility, vim_node, None, "out")
        assert [(c.cost_us, c.vim_ids) for c in got] == want
        assert (1.3, ("v1", "v0", "v1")) in want

    @pytest.mark.parametrize("k", [5, 6, 7])
    def test_completions_out_of_cost_order_at_the_cut(self, k):
        # Below prefix ("v0", "v1") both children tie on leg plus bound,
        # 0.1 + 0.6 == 0.0 + 0.7, so the one with the lower index comes
        # first: ("v0", "v1", "v0"), costing (0.1 + 0.1) + 0.6 == 0.8, is
        # the 6th chain found, and ("v0", "v1", "v1"), costing 0.1 + 0.7,
        # one ulp less, is the 7th. At k=6 the 6th chain found is not the
        # 6th cheapest.
        assert 0.1 + 0.6 == 0.0 + 0.7 and (0.1 + 0.1) + 0.6 > 0.1 + 0.7
        legs = {("n0", "n1"): 0.1, ("n0", "out"): 0.6, ("n1", "out"): 0.7}
        vim_node = {"v0": "n0", "v1": "n1"}
        chain = [_vnf(f"f{i}") for i in range(3)]
        eligibility = {vnf.vnf_id: sorted(vim_node) for vnf in chain}
        req = _req(chain, k=k, egress="out")
        graph = RttGraph(legs)
        got = rank_service_chains(req, graph, eligibility, vim_node)
        want = exhaustive_rank(req, graph, eligibility, vim_node, None, "out")
        assert [(c.cost_us.hex(), c.vim_ids) for c in got] == [
            (cost.hex(), ids) for cost, ids in want
        ]
        assert want[4:7] == [(0.1 + 0.7, ("v0", "v0", "v1")),
                             (0.1 + 0.7, ("v0", "v1", "v1")),
                             (0.8, ("v0", "v1", "v0"))][:k - 4]

    @pytest.mark.parametrize("shared_node", [False, True],
                             ids=["one-vim-per-node", "two-vims-on-n0"])
    @pytest.mark.parametrize("k", [10, 12, 13])
    def test_ties_at_the_cut(self, shared_node, k):
        # slice_churn's width: 12 VIMs that each host all four VNFs, on a
        # ring of 12 nodes with leg weights of a quarter per hop. The 12
        # co-located chains cost 0, so k=10 cuts inside that tie. With
        # vim-00 and vim-01 on one node, every chain of those two costs 0
        # too: 14 more chains (26 in all) in the tie.
        vim_node = {f"vim-{i:02d}": f"n{i:02d}" for i in range(12)}
        if shared_node:
            vim_node["vim-01"] = "n00"
        legs = {(f"n{a:02d}", f"n{b:02d}"): min(b - a, 12 - (b - a)) / 4.0
                for a in range(12) for b in range(a + 1, 12)}
        chain = [_vnf(f"f{i}") for i in range(4)]
        eligibility = {vnf.vnf_id: sorted(vim_node) for vnf in chain}
        req = _req(chain, k=k)
        graph = RttGraph(legs)
        got = rank_service_chains(req, graph, eligibility, vim_node)
        want = exhaustive_rank(req, graph, eligibility, vim_node)
        assert [(c.cost_us.hex(), c.vim_ids) for c in got] == [
            (cost.hex(), ids) for cost, ids in want
        ]
        zero = 12 + 14 * shared_node
        assert [c.cost_us for c in got] == [0.0] * min(k, zero) + [
            0.25] * (k - min(k, zero))


def _ranked_as_placed(req, topology, vims):
    """``rank_service_chains`` on the graph :func:`place` builds, and the
    exhaustive sort on that graph's weights, costs as hex."""
    vim_node = {n.vim.vim_id: n.node_id for n in reversed(topology.nodes) if n.vim}
    eligibility = filter_vims(req, vims)
    graph = build_rtt_graph(
        topology, {vim_node[v] for opts in eligibility.values() for v in opts})
    got = rank_service_chains(req, graph, eligibility, vim_node)
    want = exhaustive_rank(req, graph, eligibility, vim_node, req.ingress, req.egress)
    return ([(c.cost_us.hex(), c.vim_ids) for c in got],
            [(cost.hex(), ids) for cost, ids in want])


@st.composite
def memo_instances(draw):
    """A connected topology of 2-7 nodes, most hosting a VIM, with
    fibre lengths that are not dyadic (so runs from either end of a pair
    can differ in their last bits); a chain of 1-4 VNFs whose CPU needs
    decide eligibility; an optional ingress and egress on any node; and
    one VIM whose idle CPU changes after the first two rankings."""
    n = draw(st.integers(2, 7))
    tags = ("a", "b")
    nodes = []
    for i in range(n):
        vim = None
        if draw(st.booleans()) or i == 0:
            vim = VimStatus(f"vim-{i}", draw(st.integers(0, 4)), 10**6, 10**6,
                            frozenset(draw(st.sets(st.sampled_from(tags), min_size=1))))
        nodes.append(Node(f"n{i}", NodeKind.AMEN, draw(st.integers(0, 3)) / 7, vim=vim))
    lengths = st.integers(1, 60).map(lambda x: x / 7)
    links = [Link(f"l{i}", (f"n{draw(st.integers(0, i - 1))}", f"n{i}"), draw(lengths))
             for i in range(1, n)]
    for i in range(draw(st.integers(0, 3))):
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        links.append(Link(f"c{i}", (f"n{a}", f"n{b}"), draw(lengths)))
    chain = [_vnf(f"v{i}", tag=draw(st.sampled_from(tags)), cpu=draw(st.integers(1, 3)),
                  mem=1, sto=1)
             for i in range(draw(st.integers(1, 4)))]
    access = st.one_of(st.none(), st.sampled_from([x.node_id for x in nodes]))
    req = _req(chain, k=draw(st.integers(1, 30)), ingress=draw(access), egress=draw(access))
    vims = [x.vim for x in nodes if x.vim]
    change = (draw(st.integers(0, len(vims) - 1)), draw(st.integers(0, 4)))
    return req, Topology(nodes=nodes, links=links), vims, change


class TestRankingMemo:
    """Rankings through :func:`build_rtt_graph` keep their rows and their
    answers per geometry. Cold, as a kept answer, and after one VIM's
    eligibility changes, each ranking equals the exhaustive sort,
    bitwise."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(memo_instances())
    def test_cold_warm_and_changed_equal_exhaustive(self, inst):
        req, topology, vims, (v, cpu) = inst
        g = latency_graph(topology)
        g.rows.clear()
        g.rankings.clear()
        cold = _ranked_as_placed(req, topology, vims)
        assert cold[0] == cold[1]
        assert _ranked_as_placed(req, topology, vims) == cold  # the kept answer
        vims[v].cpu_idle = cpu
        got, want = _ranked_as_placed(req, topology, vims)
        assert got == want


class TestPlace:
    def test_default_scenario_placement(self, scenario, world):
        decision = place(scenario.request, world.topology, world.vims)
        assert decision.placed
        assert decision.candidate.vim_ids == ("vim-amen", "vim-mcen")
        assert decision.candidate.cost_us == pytest.approx(798.2156768, abs=1e-6)

    def test_no_eligible_vim(self, scenario, world):
        req = _req([_vnf("v1", tag="nonexistent-tag")])
        decision = place(req, world.topology, world.vims)
        assert decision.block_reason is BlockReason.NO_ELIGIBLE_VIM
        assert decision.ranked == ()

    @pytest.mark.parametrize("end", ["ingress", "egress"])
    def test_unknown_access_node(self, scenario, world, end):
        req = dataclasses.replace(scenario.request, **{end: "ghost"})
        with pytest.raises(KeyError, match="ghost"):
            place(req, world.topology, world.vims)

    def test_rtt_exceeded_leaves_resources_untouched(self, scenario, world):
        before = [(v.cpu_idle, v.mem_idle, v.storage_idle) for v in world.vims]
        req = NsRequest(ns_id="ns-tight", chain=scenario.request.chain,
                        max_rtt_us=100.0, k=10)
        decision = place(req, world.topology, world.vims)
        assert decision.block_reason is BlockReason.RTT_EXCEEDED
        assert [(v.cpu_idle, v.mem_idle, v.storage_idle) for v in world.vims] == before

    def test_resource_conservation(self, scenario, world):
        # Placement takes nothing: run_wf1 allocates the chain it picks.
        total_before = sum(v.cpu_idle for v in world.vims)
        assert place(scenario.request, world.topology, world.vims).placed
        assert sum(v.cpu_idle for v in world.vims) == total_before

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_place_is_pure(self, seed):
        req, topology, vims = random_placement_instance(random.Random(seed))
        idle = [(v.cpu_idle, v.mem_idle, v.storage_idle) for v in vims]
        first = place(req, topology, vims)
        second = place(req, topology, vims)
        assert [(v.cpu_idle, v.mem_idle, v.storage_idle) for v in vims] == idle
        assert first == second

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


# ---------------------------------------------------------------------------
# Placements pinned from the ranking as it was before the lazy rewrite.

_HOSTED_ON = {
    "fw": {0, 1, 2, 3}, "nat": {0, 1, 2, 3}, "lb": {0, 1, 2, 3},
    "dpi": {0, 1, 2}, "cache": {0, 2}, "ids": {1, 3},
    "vms-core": {0}, "video-analytics": {2},
}


def _metro_ring(seed):
    """12 ROADMs on a ring plus four chords, one VIM site per ROADM.

    Fibre lengths are drawn from ``seed``; each site hosts the VNF types
    of its shuffled pattern index, as in the benchmark's slice churn.
    Capacities are large enough that placing never changes eligibility.
    """
    rng = random.Random(seed)
    nodes, links = [], []
    pattern = rng.sample(range(12), 12)
    for i in range(12):
        tags = frozenset(t for t, res in _HOSTED_ON.items() if pattern[i] % 4 in res)
        vim = VimStatus(f"vim-{i:02d}", 10**6, 10**9, 10**6, tags)
        kind = NodeKind.MCEN if i % 4 == 0 else NodeKind.AMEN
        nodes.append(Node(f"roadm-{i:02d}", NodeKind.ROADM, 3.275))
        nodes.append(Node(f"site-{i:02d}", kind, 0.0, vim))
        links.append(Link(f"pat-{i:02d}", (f"site-{i:02d}", f"roadm-{i:02d}"), 0.0005))
        j = (i + 1) % 12
        links.append(Link(f"fib-{i:02d}-{j:02d}", (f"roadm-{i:02d}", f"roadm-{j:02d}"),
                          rng.uniform(10.0, 60.0)))
    chords = set()
    while len(chords) < 4:
        a, b = sorted(rng.sample(range(12), 2))
        if (b - a) % 12 not in (1, 11):
            chords.add((a, b))
    for a, b in sorted(chords):
        links.append(Link(f"fib-{a:02d}-{b:02d}", (f"roadm-{a:02d}", f"roadm-{b:02d}"),
                          rng.uniform(40.0, 90.0)))
    return Topology(nodes=nodes, links=links)


def _pinned_chains():
    """36 VNF type chains, 12 each of length 2-4, the all-hosted ones first."""
    rng = random.Random(11)
    chains = []
    for length in (2, 3, 4):
        chains.append(("fw", "nat", "lb", "dpi")[:length])
        while len(chains) % 12:
            c = tuple(rng.sample(sorted(_HOSTED_ON), length))
            if c not in chains:
                chains.append(c)
    return chains


def _decision_text(decision):
    """Block reason, chosen VIMs and every ranked chain, costs as hex."""
    lines = [decision.block_reason.value if decision.block_reason else "placed"]
    if decision.candidate is not None:
        lines.append(" ".join(decision.candidate.vim_ids))
    lines += [f"{c.cost_us.hex()} {' '.join(c.vim_ids)}" for c in decision.ranked]
    return "\n".join(lines)


def _pinned_placements(ring_seed, access):
    """Text of every decision over the pinned chains on one ring, by chain.

    ``access`` puts the ingress and egress on two ROADMs, nodes without
    a VIM; the RTT requisite rotates over 400, 2000 and 10000 us.
    """
    topology = _metro_ring(ring_seed)
    vims = [n.vim for n in topology.vim_nodes()]
    ingress, egress = ("roadm-02", "roadm-09") if access else (None, None)
    out = []
    for c, types in enumerate(_pinned_chains()):
        chain = [_vnf(f"vnf-{j}-{t}", tag=t, cpu=1, mem=1, sto=1)
                 for j, t in enumerate(types)]
        texts = []
        for k in (1, 10, 11, 25):
            req = _req(chain, max_rtt=(400.0, 2000.0, 10000.0)[c % 3], k=k,
                       ingress=ingress, egress=egress)
            texts.append(f"k={k}\n" + _decision_text(place(req, topology, vims)))
        out.append("\n".join(texts))
    return out


#: sha256 (first 16 hex digits) of each chain's decision text, per ring
#: seed and access mode. Recorded with the eager ranking, in which every
#: popped prefix pushed all of its children; the lazy one must match it.
_PINNED = {
    (301, False): [
        "6917ed87e5a070f1", "091531187f6d65b4", "7942594d25d93863", "fec9729b6c8198fe",
        "ae610cb9c8efc7b5", "7a73deeefb7ae47d", "ae610cb9c8efc7b5", "3721de0d149d1e01",
        "2bf4f45b2c0c925f", "6917ed87e5a070f1", "cce47f9f978a3a9a", "26661dd8b02c78d9",
        "c23034c3410ba4f1", "0605806461eeefa7", "ac338d4fba138465", "c88a70f95bfbfea1",
        "4a12120d0f31592d", "c88f0718c1624eef", "71cbbee563092a73", "e989565d0efb18b3",
        "77c351118dd4f991", "9a991e7a66deb751", "30709f567f379fda", "021290af32a18506",
        "ac4959e590d8ae7c", "81ea0e495a427140", "5e5ce55f50e3dd5a", "eb8d347f42e503cd",
        "c44c65ad5e3576ad", "b5c00e6c1f411450", "42123297475ae3da", "270fc207f0afbd4c",
        "b90ea5ed5757d62c", "281223b7222aee5e", "24ce0a680514cad2", "1a35c0955a56fa29",
    ],
    (301, True): [
        "da0925df525eb2ef", "95f7f7afd05017d2", "e7f4b91f10446828", "b89b1b10443ebe54",
        "37b281a0b6ae37c1", "f2b59dea508e4584", "37bde14ad35df7ed", "cf734ec220c1d04a",
        "9ea180e9b66c3bdb", "da0925df525eb2ef", "5be454d72b0deb3d", "8221d211e54f13ef",
        "a8d659a14cd688c5", "e4c16d611d5723a5", "ca04073dd5954693", "da649aeeab22e7fe",
        "e7629cf2a1b1dada", "39cd8d6ab009d9d8", "6f1112b2d237d36c", "90d88b38a2345b46",
        "82f0b6fc6abb0697", "d68dc7e502a296ae", "905cc7bce1967851", "ea88803a61a049af",
        "a2c95a181893a279", "0a03c2a73fd75e9d", "4f01d9ebff16496a", "aa65c3e8e27d8438",
        "b623304d8c7b0e15", "a77106f6946d2419", "27c67c91a5d33511", "c6a694d1f0ff83e8",
        "754423b18420910e", "8d3f7f8dd3479e42", "e7c27422b35b5afd", "ee009845be6d0751",
    ],
    (302, False): [
        "e6bbcd2336a2428e", "4dc5d797b8b295c4", "269163d94f962a72", "d76e3ae731c43dfc",
        "0bdf4c9f02506bb5", "ec4e66e2eafbabfc", "0bdf4c9f02506bb5", "5a2e21aaddfcf28b",
        "f1f0adc44be87082", "e6bbcd2336a2428e", "a86c8f27195c0c83", "0463f6dbcc6df53f",
        "bd1b57c20e468ed2", "8f72c64cc0e1800a", "d42ed3a4ee3105de", "61697967889e4a62",
        "48bb6081f5c41993", "3c56aa297e494ecb", "d486f8cfa2ad2e1c", "b1f1a97ffafb576d",
        "2996331c5a7d2880", "728426a7c3e778c5", "57325bcb8830bdb2", "4d0f296d7a6fcd10",
        "247090980cda6f4b", "24a9782ef3209b14", "f5210d77684175e3", "2c6ba704ce39f1ec",
        "118d214ba216d0ea", "92b2b4c7c34ecf79", "b5bf2b8d6c3be7aa", "8f438936d6e25a06",
        "54df7298379f51c5", "f649a3bd6a0cc73a", "23d743fd92dfb410", "eaa3f503015ecda0",
    ],
    (302, True): [
        "7b28023d905b9248", "b881ec25310fe4f0", "fbf0dba915923b4c", "32e5199abffbffd1",
        "4a689b1e0165e077", "32dcfd2de202e47d", "c27f5c7df2fc68a0", "f1b71932b703027c",
        "a6fb74d970226463", "7b28023d905b9248", "1fe714fff2fea34b", "2e8a38ea7cf145a3",
        "6df5d71c1a632c8e", "a0b41973b1b94c87", "7735726d82a0c62a", "0a50cfc37933ddaa",
        "173eafa586a16464", "f95de02ab5b7b19a", "3800e537356a8995", "2f82bbf4b380ad5a",
        "b409495ad882acb8", "f19e1a4a402c5db2", "e110fcb2cb433896", "96d76fa3e18b24eb",
        "6911134e83cc44de", "00b877252a3e5675", "3711ec043c90ea0f", "af59d9a1b91c6f4f",
        "89aacc60cf8ec8af", "617affa7c1731ea4", "745bb52b4dcd3cd5", "ebe508cb22b2e9cb",
        "071f4e5ed9d292ea", "1afc269ebdca1738", "8c6449719b6311dd", "d5963044d52f084f",
    ],
}


class TestPinnedPlacements:
    @pytest.mark.parametrize("access", [False, True], ids=["no-access", "access"])
    @pytest.mark.parametrize("ring_seed", [301, 302])
    def test_decisions_unchanged(self, ring_seed, access):
        texts = _pinned_placements(ring_seed, access)
        got = [hashlib.sha256(t.encode()).hexdigest()[:16] for t in texts]
        want = _PINNED[ring_seed, access]
        changed = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
        assert not changed, "decisions changed:\n\n" + "\n\n".join(
            f"chain {i} {_pinned_chains()[i]}:\n{texts[i]}" for i in changed[:3])
        assert len(got) == len(want) == 36


#: The ranking of ``TestAccessLegRuns``, costs as hex, recorded from the
#: planner before access legs were read by rule.
_ACCESS_RANKED = [
    ("0x1.5a8fe0767ac32p+10", "vim-05 vim-05"),
    ("0x1.5c33b431785a8p+10", "vim-05 vim-06"),
    ("0x1.5c33b431785a8p+10", "vim-05 vim-07"),
    ("0x1.5c33b431785a8p+10", "vim-06 vim-06"),
    ("0x1.5c33b431785a8p+10", "vim-07 vim-07"),
    ("0x1.5c33b431785a9p+10", "vim-05 vim-08"),
    ("0x1.5c33b431785a9p+10", "vim-05 vim-09"),
    ("0x1.5c33b431785a9p+10", "vim-08 vim-08"),
    ("0x1.5c33b431785a9p+10", "vim-09 vim-09"),
    ("0x1.5dd787ec75f1fp+10", "vim-06 vim-08"),
    ("0x1.5dd787ec75f1fp+10", "vim-07 vim-08"),
    ("0x1.5dd787ec75f20p+10", "vim-06 vim-07"),
    ("0x1.5dd787ec75f20p+10", "vim-06 vim-09"),
    ("0x1.5dd787ec75f20p+10", "vim-07 vim-09"),
    ("0x1.5dd787ec75f20p+10", "vim-08 vim-09"),
    ("0x1.b62d1b335180ep+10", "vim-02 vim-02"),
    ("0x1.b62d1b335180ep+10", "vim-03 vim-03"),
    ("0x1.b62d1b335180ep+10", "vim-05 vim-02"),
    ("0x1.b62d1b335180ep+10", "vim-05 vim-03"),
    ("0x1.b7d0eeee4f184p+10", "vim-02 vim-03"),
    ("0x1.b7d0eeee4f184p+10", "vim-02 vim-09"),
    ("0x1.b7d0eeee4f184p+10", "vim-03 vim-09"),
    ("0x1.bcf6d7ed4236ep+10", "vim-09 vim-08"),
    ("0x1.bfded3fbf5ff3p+10", "vim-04 vim-04"),
    ("0x1.bfded3fbf5ff3p+10", "vim-05 vim-04"),
]


class TestAccessLegRuns:
    """Access legs read the run of a VIM node. The ingress ``site-05``
    hosts an eligible VIM, so its leg to another site reads the smaller
    id's run; the egress ``roadm-09`` hosts none, so its legs read the
    site's run. The fibre lengths are not dyadic: on this ring the two
    runs of ``site-05``-``site-09`` and of ``site-09``-``roadm-09`` differ
    in their last bits, and the pinned costs tell them apart."""

    def test_costs_unchanged(self):
        topology = _metro_ring(301)
        vims = [n.vim for n in topology.vim_nodes()]
        chain = [_vnf("v1", tag="fw", cpu=1, mem=1, sto=1),
                 _vnf("v2", tag="nat", cpu=1, mem=1, sto=1)]
        req = _req(chain, k=25, ingress="site-05", egress="roadm-09")
        ranked = place(req, topology, vims).ranked
        assert [(c.cost_us.hex(), " ".join(c.vim_ids)) for c in ranked] == _ACCESS_RANKED


def _wide_ring(per_site, seed=40):
    """40 VIMs hosting every tag, ``per_site`` of them on each site of a
    ring with chords, plus two sites without a VIM for access legs.
    Lengths are not dyadic, so sums in another order round differently."""
    rng = random.Random(seed)
    n_site = 40 // per_site
    vims = [VimStatus(f"vim-{i:02d}", 64, 65536, 2000, frozenset({"x"}))
            for i in range(40)]
    nodes = [Node(f"s{i:02d}", NodeKind.AMEN, 0.25, vim=vims[i * per_site])
             for i in range(n_site)]
    nodes += [Node("edge-in", NodeKind.AGG_SWITCH, 0.315),
              Node("edge-out", NodeKind.AGG_SWITCH, 0.315)]
    links = [Link(f"f{i}", (f"s{i:02d}", f"s{(i + 1) % n_site:02d}"),
                  rng.uniform(5.0, 40.0)) for i in range(n_site)]
    links += [Link(f"c{i}", tuple(f"s{j:02d}" for j in rng.sample(range(n_site), 2)),
                   rng.uniform(20.0, 80.0)) for i in range(4)]
    links += [Link("a-in", ("edge-in", "s03"), 0.5), Link("a-out", ("edge-out", "s07"), 0.5)]
    vim_node = {v.vim_id: f"s{i // per_site:02d}" for i, v in enumerate(vims)}
    return Topology(nodes=nodes, links=links), vim_node


class TestWideRanking:
    """Every chain of three VNFs over 40 VIMs (64 000 of them), ranked
    against the exhaustive sort, bitwise, on weights from the memoised
    rows. With no access legs, the co-located chains tie at cost 0, 40
    or 160 of them, so the cut falls deep in equal-cost sibling lists."""

    @pytest.mark.parametrize("per_site, access", [
        (1, (None, None)), (2, (None, None)),
        (1, ("edge-in", "edge-out")), (2, ("s05", "s01")),
    ], ids=["40-sites", "20-sites", "40-sites-edge-access", "20-sites-vim-access"])
    def test_bitwise_equal_to_exhaustive(self, per_site, access):
        topology, vim_node = _wide_ring(per_site)
        ingress, egress = access
        terminals = sorted(set(vim_node.values()))
        terminals += [x for x in access if x is not None and x not in terminals]
        graph = build_rtt_graph(topology, terminals)
        chain = [_vnf(f"v{i}", tag="x") for i in range(3)]
        eligibility = {vnf.vnf_id: sorted(vim_node) for vnf in chain}
        want = exhaustive_rank(_req(chain, k=200), graph, eligibility, vim_node,
                               ingress, egress)
        for k in (1, 10, 25, 200):
            req = _req(chain, k=k, ingress=ingress, egress=egress)
            got = rank_service_chains(req, graph, eligibility, vim_node)
            assert [(c.cost_us.hex(), c.vim_ids) for c in got] == [
                (cost.hex(), ids) for cost, ids in want[:k]
            ]
        if ingress is None:
            zero = [ids for cost, ids in want if cost == 0.0]
            assert len(zero) == min(200, 40 * per_site ** 2)


class TestRowMemo:
    """Leg weights are memoised per topology geometry, next to the shared
    latency graph, and leave with it."""

    def _request(self):
        return _req([_vnf("v1", tag="fw", cpu=1), _vnf("v2", tag="nat", cpu=1)], k=40)

    def test_in_place_edit_changes_costs(self):
        t = _uniform_ring(6, ("fw", "nat"))
        vims = [n.vim for n in t.nodes]
        before = place(self._request(), t, vims).ranked
        t.links[0].length_km = 20.0
        after = place(self._request(), t, vims).ranked
        assert before != after
        _, _, want = brute_force_place(self._request(), t, vims)
        assert [(c.cost_us, c.vim_ids) for c in after] == [
            (pytest.approx(c, rel=1e-12), ids) for c, ids in want
        ]

    def test_cold_fill_runs_each_pair_once(self, monkeypatch):
        from metroslice import planner

        calls = []
        rtt_from = planner._rtt_from
        monkeypatch.setattr(planner, "_rtt_from",
                            lambda g, s, t: calls.append((s, t)) or rtt_from(g, s, t))
        t = _uniform_ring(7, ("fw", "nat"))
        t.links[0].length_km = 13.375  # a geometry no other test builds
        vims = [n.vim for n in t.nodes]
        cold = place(self._request(), t, vims).ranked
        # Seven VIMs in both layers: 21 pairs, each from the smaller id's run.
        assert len(calls) == len(set(calls)) == 21
        assert all(s < t for s, t in calls)
        assert place(self._request(), t, vims).ranked == cold
        assert len(calls) == 21

    def test_rows_leave_with_the_graph_cache(self):
        import gc
        import weakref

        from metroslice import model
        from metroslice.model import GRAPH_CACHE_SIZE

        t = _uniform_ring(5, ("fw", "nat"))
        vims = [n.vim for n in t.nodes]
        place(self._request(), t, vims)
        first = weakref.ref(latency_graph(t))
        assert first().rows
        placed = [first]
        for i in range(GRAPH_CACHE_SIZE):
            t.links[0].length_km = 11.0 + i
            place(self._request(), t, vims)
            placed.append(weakref.ref(latency_graph(t)))
        gc.collect()
        assert first() is None
        assert model._graph_of.cache_info().currsize <= GRAPH_CACHE_SIZE
        # Graphs that no placement read hold no rows or rankings,
        # and the graphs placements filled have left with theirs.
        graphs = []
        for i in range(GRAPH_CACHE_SIZE):
            t.links[0].length_km = 31.0 + i
            graphs.append(latency_graph(t))
        gc.collect()
        assert [ref() for ref in placed] == [None] * len(placed)
        assert [(g.rows, g.rankings) for g in graphs] == [({}, {})] * len(graphs)

    def test_layer_nodes_outside_the_terminals_keep_nothing(self):
        # A graph built for s0 alone has no weight between two other
        # nodes, so its legs are not the geometry's: a ranking on it must
        # leave nothing that a ranking on the full graph would read. There,
        # k=18 keeps the 6 co-located chains and the 12 of one hop; an
        # answer left by the first graph would lack some of the latter.
        t = _uniform_ring(6, ("fw",))
        t.links[0].length_km = 9.375  # a geometry no other test builds
        vim_node = {n.vim.vim_id: n.node_id for n in t.nodes}
        chain = [_vnf("v1", tag="fw"), _vnf("v2", tag="fw")]
        eligibility = {vnf.vnf_id: sorted(vim_node) for vnf in chain}
        req = _req(chain, k=18)
        for terminals in (["s0"], sorted(vim_node.values())):
            graph = build_rtt_graph(t, terminals)
            got = rank_service_chains(req, graph, eligibility, vim_node)
            want = exhaustive_rank(req, graph, eligibility, vim_node)
            assert [(c.cost_us, c.vim_ids) for c in got] == want
        assert len(want) == 18


class TestAnswerMemo:
    """Whole rankings are kept per geometry, keyed by each layer's VIM ids
    and nodes, the ingress and the egress, whether each of the two is a
    terminal, and ``k``: at most ``RANKING_CACHE_SIZE`` of them, none
    longer than ``RANKING_MAX_LEN`` candidates."""

    def test_each_topology_names_its_own_vims(self):
        # Renaming the VIMs leaves the geometry, so the shared graph and
        # every weight, as they were; only the ids tell the answers apart.
        topology = _metro_ring(301)
        renamed = dataclasses.replace(topology, nodes=[
            dataclasses.replace(n, vim=dataclasses.replace(
                n.vim, vim_id=n.vim.vim_id.replace("vim-", "dc-")))
            if n.vim else n
            for n in topology.nodes])
        assert latency_graph(renamed) is latency_graph(topology)
        req = _req([_vnf("v1", tag="fw", cpu=1, mem=1, sto=1),
                    _vnf("v2", tag="nat", cpu=1, mem=1, sto=1)], k=10)
        pairs = [(t, [n.vim for n in t.vim_nodes()]) for t in (topology, renamed)]
        for order in (pairs, pairs[::-1]):
            latency_graph(topology).rankings.clear()
            got = {}
            for t, vims in order:
                decision = place(req, t, vims)
                prefix = "vim-" if t is topology else "dc-"
                assert decision.ranked
                assert all(v.startswith(prefix) for c in decision.ranked
                           for v in c.vim_ids)
                got[prefix] = [(c.cost_us, " ".join(c.vim_ids)) for c in decision.ranked]
            assert got["dc-"] == [(c, ids.replace("vim-", "dc-")) for c, ids in got["vim-"]]

    @pytest.mark.parametrize("end", ["ingress", "egress"])
    def test_access_end_eligible_then_not(self, end):
        # On this ring site-05 hosts no vms-core VIM, and the run of
        # site-05 reaches site-09 one ulp away from the run of site-09.
        # Both requests put the vms-core sites (03, 07, 09) next to an
        # access end at site-05. For the fw chain site-05 is an eligible
        # VIM node, so a terminal, and its legs read the smaller id's run;
        # for the cache chain it is not, and they read each VIM node's run.
        topology = _metro_ring(301)
        vims = [n.vim for n in topology.vim_nodes()]
        both = build_rtt_graph(topology, ["site-05", "site-09"])
        alone = build_rtt_graph(topology, ["site-09"])
        assert both.weight_us("site-09", "site-05") != alone.weight_us("site-09", "site-05")
        requests = []
        for first in ("fw", "cache"):
            types = (first, "vms-core") if end == "egress" else ("vms-core", first)
            requests.append(_req([_vnf(f"v{i}", tag=t, cpu=1, mem=1, sto=1)
                                  for i, t in enumerate(types)], k=25, **{end: "site-05"}))
        for order in (requests, requests[::-1]):
            latency_graph(topology).rankings.clear()
            for req in order:
                ranked = place(req, topology, vims).ranked
                got, want = _ranked_as_placed(req, topology, vims)
                assert [(c.cost_us.hex(), c.vim_ids) for c in ranked] == got == want

    @pytest.mark.parametrize("end", ["ingress", "egress"])
    def test_access_leg_run_is_part_of_the_key(self, end):
        # As in test_access_end_eligible_then_not: the run of
        # site-05 reaches site-09 one ulp away from the run of site-09. One
        # layer set on the vms-core sites, with site-05 at one end of the
        # chain, ranked on a graph whose terminals hold site-05 and on one
        # whose terminals do not: two answers to one question but the flag.
        topology = _metro_ring(301)
        vim_node = {n.vim.vim_id: n.node_id for n in topology.vim_nodes()}
        layer = ["vim-03", "vim-07", "vim-09"]
        chain = [_vnf("v1"), _vnf("v2")]
        eligibility = {vnf.vnf_id: layer for vnf in chain}
        req = _req(chain, k=9, **{end: "site-05"})
        sites = [vim_node[v] for v in layer]
        graphs = [build_rtt_graph(topology, sites + ["site-05"]),
                  build_rtt_graph(topology, sites)]
        wants = [exhaustive_rank(req, g, eligibility, vim_node, req.ingress, req.egress)
                 for g in graphs]
        assert wants[0] != wants[1]
        for order in (graphs, graphs[::-1]):
            latency_graph(topology).rankings.clear()
            for graph in order:
                got = rank_service_chains(req, graph, eligibility, vim_node)
                assert [(c.cost_us, c.vim_ids) for c in got] == wants[graphs.index(graph)]

    def test_callers_cannot_edit_a_kept_answer(self):
        t = _uniform_ring(6, ("fw", "nat"))
        t.links[0].length_km = 7.625  # a geometry no other test builds
        vim_node = {n.vim.vim_id: n.node_id for n in t.nodes}
        chain = [_vnf("v1", tag="fw"), _vnf("v2", tag="nat")]
        eligibility = {vnf.vnf_id: sorted(vim_node) for vnf in chain}
        graph = build_rtt_graph(t, sorted(vim_node.values()))
        req = _req(chain, k=12)
        first = rank_service_chains(req, graph, eligibility, vim_node)
        want = list(first)
        first.reverse()
        first.pop()
        second = rank_service_chains(req, graph, eligibility, vim_node)
        assert second == want
        second.clear()
        assert rank_service_chains(req, graph, eligibility, vim_node) == want

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(memo_instances())
    def test_warm_suffixes_without_the_answer(self, inst):
        # A kept answer hides every other memo from a repeated request, so
        # drop the answers before each ranking: cold, with the rows warm,
        # and after one VIM's eligibility changes, the search still equals
        # the exhaustive sort, bitwise.
        req, topology, vims, (v, cpu) = inst
        g = latency_graph(topology)
        g.rows.clear()
        results = []
        for change in (False, False, True):
            if change:
                vims[v].cpu_idle = cpu
            g.rankings.clear()
            got, want = _ranked_as_placed(req, topology, vims)
            assert got == want
            results.append(got)
        assert results[1] == results[0]

    def test_retained_memory_is_bounded(self):
        # 24 VIMs whose idle CPU is 1..24, so a VNF needing c CPUs has the
        # 25 - c VIMs from vim-(c-1) up. At k = RANKING_MAX_LEN, twice
        # RANKING_CACHE_SIZE chains of three such VNFs, each with thousands
        # of complete chains, so the memo fills and every answer holds the
        # longest ranking kept. An answer keeps its key (each layer's ids
        # and nodes, at most 2 * 3 * 24 references) and L candidates (the
        # object, its dict, the id tuple and the cost); with overheads
        # that stays under 2 KB + 300 L bytes; CPython 3.11 holds about
        # 13 KB at L = 64.
        import gc
        import tracemalloc

        from metroslice import planner

        t = _uniform_ring(24, ("fw",))
        t.links[0].length_km = 19.125  # a geometry no other test builds
        vims = [n.vim for n in t.nodes]
        for i, v in enumerate(vims):
            v.cpu_idle = i + 1
        rng = random.Random(6)
        shapes = rng.sample([(a, b, c) for a in range(1, 13) for b in range(1, 13)
                             for c in range(1, 13)], 2 * planner.RANKING_CACHE_SIZE)
        cap = planner.RANKING_MAX_LEN

        def req(cpus, k=cap):
            return _req([_vnf(f"v{i}", tag="fw", cpu=c) for i, c in enumerate(cpus)], k=k)

        place(req((1, 1, 1)), t, vims)  # fills the rows of every pair
        gc.collect()
        memo = latency_graph(t).rankings
        tracemalloc.start()
        try:
            for cpus in shapes:
                assert len(place(req(cpus), t, vims).ranked) == cap
            gc.collect()
            assert len(memo) == planner.RANKING_CACHE_SIZE
            held = tracemalloc.get_traced_memory()[0]
            answers = dict(memo)
            memo.clear()
            del answers
            gc.collect()
            retained = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0 < retained < planner.RANKING_CACHE_SIZE * (2000 + 300 * cap)
        # One candidate more than the cap is not kept; the cap itself is.
        place(req((1, 1, 1), k=cap + 1), t, vims)
        assert len(memo) == 0
        place(req((1, 1, 1)), t, vims)
        assert len(memo) == 1


def _churn(clear, plays=1):
    """Decision texts of a seeded run of place, allocate and release on
    one ring, as in a round of the benchmark's slice churn, played
    ``plays`` times from the same idle VIMs after ``clear_memos()``; with
    ``clear``, the memos are emptied before every placement too. Also
    counts the placements whose eligibility differs from the idle VIMs'.

    Each VIM has 12 idle CPUs and each VNF needs 1 to 8, so eligibility
    changes as VIMs fill and empty. Requests come with no access legs,
    with both on ROADMs, or with both on VIM sites.
    """
    topology = _metro_ring(303)
    vims = [n.vim for n in topology.vim_nodes()]
    by_id = {v.vim_id: v for v in vims}
    rng = random.Random(32)
    chains = _pinned_chains()
    ends = [(None, None), ("roadm-02", "roadm-09"), ("site-05", "site-09")]
    requests = []
    for _ in range(90):
        chain = [_vnf(f"vnf-{j}-{t}", tag=t, cpu=rng.randint(1, 8), mem=1, sto=1)
                 for j, t in enumerate(rng.choice(chains))]
        max_rtt = rng.choice((400.0, 2000.0, 10000.0))
        ingress, egress = rng.choice(ends)
        requests.append(_req(chain, max_rtt=max_rtt, k=10, ingress=ingress, egress=egress))
    picks = [rng.random() for _ in requests]
    idle = [dataclasses.replace(v, cpu_idle=12) for v in vims]
    texts, changed = [], 0
    clear_memos()
    for _ in range(plays):
        for v in vims:
            v.cpu_idle = 12
        live, pending, taken = [], list(requests), iter(picks)
        op = 0
        while pending:
            op += 1
            if live and (len(live) >= 8 or op % 3 == 0):
                req, candidate = live.pop(int(next(taken) * len(live)))
                for vnf, vim_id in zip(req.chain, candidate.vim_ids):
                    by_id[vim_id].release(vnf)
                continue
            req = pending.pop(0)
            changed += filter_vims(req, vims) != filter_vims(req, idle)
            if clear:
                clear_memos()
            decision = place(req, topology, vims)
            texts.append(_decision_text(decision))
            if decision.placed:
                for vnf, vim_id in zip(req.chain, decision.candidate.vim_ids):
                    by_id[vim_id].allocate(vnf)
                live.append((req, decision.candidate))
    return texts, changed


class TestMemosUnderChurn:
    """The memos hold up while VIMs fill and empty: every decision of a
    churn sequence, played twice over kept memos, equals the one made
    right after ``model.clear_memos()``."""

    def test_decisions_equal_cleared_ones(self):
        kept, _ = _churn(clear=False, plays=2)
        cleared, changed = _churn(clear=True)
        assert kept == cleared * 2
        # The sequence exercises what it claims: eligibility that changes,
        # and placed and blocked requests both.
        assert changed >= 30
        reasons = {text.split("\n", 1)[0] for text in cleared}
        assert {"placed", "NoValidSC", "RttExceeded"} <= reasons
