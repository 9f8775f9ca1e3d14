"""Optical layer: flexgrid slots, OLS provisioning, transponder bring-up."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from metroslice.model import Link, LinkKind, Node, NodeKind, Topology
from metroslice.optical import (
    CONFIG_STEPS,
    ChannelState,
    FrequencySlot,
    FrequencyOutOfRange,
    InvalidPhase,
    NoRoute,
    OlsController,
    OpticalError,
    Sip,
    SlotOutOfTunability,
    SpectrumCollision,
    Transponder,
    TransponderPhase,
    UnknownChannel,
    VirtualClock,
    configure_transponder,
)
from oracles import first_fit_n, min_hop_route


class TestFrequencySlot:
    def test_center_frequency(self):
        assert FrequencySlot(0).center_thz == pytest.approx(193.1)
        assert FrequencySlot(8).center_thz == pytest.approx(193.15)
        assert FrequencySlot(-256).center_thz == pytest.approx(191.5)
        assert FrequencySlot(256).center_thz == pytest.approx(194.7)

    def test_width_and_interval(self):
        s = FrequencySlot(8, m=4)
        assert s.width_ghz == 50.0
        assert s.interval == (4, 12)
        assert FrequencySlot(0, m=1).width_ghz == 12.5

    def test_m_must_be_positive(self):
        with pytest.raises(ValueError):
            FrequencySlot(0, m=0)

    def test_adjacent_slots_touch_without_overlap(self):
        a = FrequencySlot(0, m=4)
        assert not a.overlaps(FrequencySlot(8, m=4))
        assert a.overlaps(FrequencySlot(7, m=4))
        assert not a.overlaps(FrequencySlot(-8, m=4))

    def test_overlap_matches_interval_oracle(self):
        # Overlap means the occupied intervals share more than an endpoint.
        rng = random.Random(13)
        for _ in range(2000):
            s1 = FrequencySlot(rng.randint(-50, 50), rng.randint(1, 8))
            s2 = FrequencySlot(rng.randint(-50, 50), rng.randint(1, 8))
            lo = max(s1.interval[0], s2.interval[0])
            hi = min(s1.interval[1], s2.interval[1])
            assert s1.overlaps(s2) == (hi > lo)
            assert s1.overlaps(s2) == s2.overlaps(s1)


def _ring_controller(abstract=False, tunability=frozenset()):
    nodes = [
        Node("r1", NodeKind.ROADM, 3.275),
        Node("r2", NodeKind.ROADM, 3.275),
        Node("r3", NodeKind.ROADM, 3.275),
    ]
    links = [
        Link("f-12", ("r1", "r2"), 80.0),
        Link("f-13", ("r1", "r3"), 60.0),
        Link("f-23", ("r2", "r3"), 60.0),
    ]
    sips = [
        Sip("sip-1", "r1", "p1", tunability),
        Sip("sip-2", "r2", "p1", tunability),
        Sip("sip-3", "r3", "p1", tunability),
    ]
    return OlsController(Topology(nodes=nodes, links=links), sips, abstract_view=abstract)


class TestOlsProvisioning:
    def test_first_fit_packs_adjacent_slots(self, world):
        mcs = [world.ols.create_media_channel("sip-a", "sip-z") for _ in range(3)]
        assert [mc.slot.n for mc in mcs] == [0, 8, 16]
        assert all(mc.slot.m == 4 for mc in mcs)
        assert mcs[0].route == ("fib-12",)

    def test_first_fit_respects_floor(self):
        ols = _ring_controller()
        mc = ols.create_media_channel("sip-1", "sip-2", floor_n=10)
        assert mc.slot.n == 10

    def test_explicit_slot_collision(self, world):
        world.ols.create_media_channel("sip-a", "sip-z")  # takes n=0
        with pytest.raises(SpectrumCollision):
            world.ols.create_media_channel("sip-a", "sip-z", slot=FrequencySlot(4))
        # Touching at the interval edge is allowed.
        mc = world.ols.create_media_channel("sip-a", "sip-z", slot=FrequencySlot(8))
        assert mc.slot.n == 8

    def test_disjoint_routes_share_spectrum(self):
        ols = _ring_controller()
        a = ols.create_media_channel("sip-1", "sip-2", slot=FrequencySlot(0))
        b = ols.create_media_channel("sip-1", "sip-3", slot=FrequencySlot(0))
        assert a.route != b.route
        assert a.slot.n == b.slot.n == 0

    def test_tunability_restricts_explicit_and_first_fit(self, world):
        with pytest.raises(SlotOutOfTunability):
            world.ols.create_media_channel("sip-a", "sip-z", slot=FrequencySlot(300))
        ols = _ring_controller(tunability=frozenset({0}))
        assert ols.create_media_channel("sip-1", "sip-2").slot.n == 0
        with pytest.raises(SpectrumCollision):
            ols.create_media_channel("sip-1", "sip-2")

    def test_untunable_first_fit_has_no_slot_bound(self):
        # 520 channels of m=4 fill n = -4 .. 4156 on f-12; the next
        # untunable first-fit lands right against the last one.
        ols = _ring_controller()
        for k in range(520):
            ols.create_media_channel("sip-1", "sip-2", slot=FrequencySlot(8 * k))
        assert ols.create_media_channel("sip-1", "sip-2").slot.n == 4160

    def test_delete_frees_spectrum(self, world):
        mc = world.ols.create_media_channel("sip-a", "sip-z")
        world.ols.delete_media_channel(mc.mc_id)
        assert world.ols.get_active_connections() == []
        again = world.ols.create_media_channel("sip-a", "sip-z")
        assert again.slot.n == 0

    def test_double_delete_and_unknown(self, world):
        mc = world.ols.create_media_channel("sip-a", "sip-z")
        world.ols.delete_media_channel(mc.mc_id)
        with pytest.raises(UnknownChannel):
            world.ols.delete_media_channel(mc.mc_id)
        with pytest.raises(UnknownChannel):
            world.ols.delete_media_channel("mc-9999")

    def test_unknown_sip(self, world):
        with pytest.raises(OpticalError):
            world.ols.create_media_channel("sip-a", "sip-ghost")

    def test_sip_must_sit_on_roadm(self):
        t = Topology(nodes=[Node("r1", NodeKind.ROADM), Node("sw", NodeKind.AGG_SWITCH)],
                     links=[])
        with pytest.raises(OpticalError):
            OlsController(t, [Sip("s", "sw", "p1")])

    def test_same_node_sips_have_empty_route(self):
        nodes = [Node("r1", NodeKind.ROADM)]
        ols = OlsController(
            Topology(nodes=nodes, links=[]),
            [Sip("a", "r1", "p1"), Sip("b", "r1", "p2")],
        )
        assert ols.create_media_channel("a", "b").route == ()

    def test_no_route(self):
        nodes = [Node("r1", NodeKind.ROADM), Node("r2", NodeKind.ROADM)]
        ols = OlsController(
            Topology(nodes=nodes, links=[]),
            [Sip("a", "r1", "p1"), Sip("b", "r2", "p1")],
        )
        # Every call raises: no answer is kept for an unreachable pair.
        for _ in range(2):
            with pytest.raises(NoRoute):
                ols.create_media_channel("a", "b")

    def test_route_searched_once_per_pair(self, monkeypatch):
        ols = _ring_controller()
        searched = []
        search = OlsController._search

        def counted(self, a_node, z_node):
            searched.append((a_node, z_node))
            return search(self, a_node, z_node)

        monkeypatch.setattr(OlsController, "_search", counted)
        mcs = [ols.create_media_channel("sip-1", "sip-2") for _ in range(2)]
        assert [mc.route for mc in mcs] == [("f-12",), ("f-12",)]
        assert searched == [("r1", "r2")]
        ols.create_media_channel("sip-2", "sip-1")
        assert searched == [("r1", "r2"), ("r2", "r1")]

    def test_route_prefers_lexicographic_link_ids_on_ties(self):
        # Two 2-hop routes between r1 and r2; the one whose link-id
        # sequence sorts first must win, reproducibly.
        nodes = [Node(n, NodeKind.ROADM) for n in ("r1", "r2", "ra", "rb")]
        links = [
            Link("l-a1", ("r1", "ra"), 10.0),
            Link("l-a2", ("ra", "r2"), 10.0),
            Link("l-a0", ("r1", "rb"), 10.0),
            Link("l-b2", ("rb", "r2"), 10.0),
        ]
        ols = OlsController(
            Topology(nodes=nodes, links=links),
            [Sip("a", "r1", "p1"), Sip("b", "r2", "p1")],
        )
        for _ in range(3):
            assert ols._route("r1", "r2") == ("l-a0", "l-b2")

    def test_active_connections_in_creation_order(self):
        # Ids pass four digits here, where "mc-10000" sorts before
        # "mc-9998" as a string.
        ols = _ring_controller()
        ols._next_id = itertools.count(9998)
        mcs = [ols.create_media_channel("sip-1", "sip-2") for _ in range(3)]
        assert [mc.mc_id for mc in mcs] == ["mc-9998", "mc-9999", "mc-10000"]
        assert ols.get_active_connections() == mcs

    def test_context_views(self, scenario, world):
        sips, view = world.ols.get_context()
        assert [s.sip_id for s in sips] == ["sip-a", "sip-z"]
        assert not view.abstract
        assert view.nodes == ("roadm-1", "roadm-2", "roadm-3")
        assert view.links == ("fib-12", "fib-13", "fib-23")
        abstract = OlsController(scenario.topology, list(sips), abstract_view=True)
        _, av = abstract.get_context()
        assert av.nodes == ("ols",) and av.links == () and av.abstract

    def test_context_list_belongs_to_the_caller(self, world):
        sips, _ = world.ols.get_context()
        want = list(sips)
        sips.reverse()
        sips.append(sips[0])
        assert world.ols.get_context()[0] == want

    def test_random_ops_never_violate_spectrum(self):
        # Short randomized soak; the acceptance suite runs the long one.
        rng = random.Random(99)
        ols = _ring_controller()
        live = []
        pairs = [("sip-1", "sip-2"), ("sip-1", "sip-3"), ("sip-2", "sip-3")]
        for _ in range(300):
            if live and rng.random() < 0.4:
                ols.delete_media_channel(live.pop(rng.randrange(len(live))).mc_id)
            else:
                a, z = rng.choice(pairs)
                try:
                    live.append(ols.create_media_channel(
                        a, z, m=rng.choice([2, 4]), floor_n=rng.choice([0, 4])))
                except SpectrumCollision:
                    continue
            active = ols.get_active_connections()
            by_link = {}
            for mc in active:
                for link in mc.route:
                    by_link.setdefault(link, []).append(mc.slot)
            for slots in by_link.values():
                iv = sorted(s.interval for s in slots)
                for (lo1, hi1), (lo2, hi2) in zip(iv, iv[1:]):
                    assert hi1 <= lo2, "overlapping slots on one link"


#: A ring r0..r3 with the chord r0-r2. Each ROADM has an untunable SIP
#: u<i> and a tunable SIP t<i>; the two tunable sets meet at 0, 12, 24,
#: so a tunable first-fit can run out of slots.
MACHINE_TUNABILITY = (frozenset(range(-8, 40, 4)), frozenset(range(-6, 30, 3)))


def _machine_controller():
    nodes = [Node(f"r{i}", NodeKind.ROADM) for i in range(4)]
    links = [Link(f"f-{i}{(i + 1) % 4}", (f"r{i}", f"r{(i + 1) % 4}"), 10.0)
             for i in range(4)]
    links.append(Link("f-02", ("r0", "r2"), 10.0))
    sips = []
    for i in range(4):
        sips.append(Sip(f"u{i}", f"r{i}", "p1"))
        sips.append(Sip(f"t{i}", f"r{i}", "p2", MACHINE_TUNABILITY[i % 2]))
    return OlsController(Topology(nodes=nodes, links=links), sips)


@st.composite
def roadm_graphs(draw):
    """Up to six ROADMs and two switches, with parallel fibres, patch
    links, links to the switches and disconnected parts. Link ids are
    unpadded and drawn out of listed order, so "f10" sorts before "f2"."""
    ids = [f"r{i}" for i in range(draw(st.integers(1, 6)))]
    nodes = [Node(r, NodeKind.ROADM) for r in ids]
    nodes += [Node(f"x{i}", NodeKind.AGG_SWITCH) for i in range(draw(st.integers(0, 2)))]
    ends = st.lists(st.sampled_from([n.node_id for n in nodes]),
                    min_size=2, max_size=2, unique=True)
    count = draw(st.integers(0, 12)) if len(nodes) > 1 else 0
    links = [Link(f"f{lid}", tuple(draw(ends)), 1.0,
                  draw(st.sampled_from([LinkKind.FIBER, LinkKind.FIBER, LinkKind.PATCH])))
             for lid in draw(st.permutations(range(count)))]
    return Topology(nodes=nodes, links=links)


class TestRoute:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(roadm_graphs())
    def test_matches_every_simple_path(self, t):
        ols = OlsController(t, [])
        roadms = [n.node_id for n in t.nodes if n.kind is NodeKind.ROADM]
        for a in roadms:
            for z in roadms:
                want = min_hop_route(t, a, z)
                if want is None:
                    with pytest.raises(NoRoute):
                        ols._route(a, z)
                else:
                    assert ols._route(a, z) == want

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_kept_routes_match_a_fresh_controller(self, data):
        # One controller answers a drawn sequence of pairs, repeats
        # included; each answer is the one a new controller gives.
        t = data.draw(roadm_graphs())
        roadms = st.sampled_from([n.node_id for n in t.nodes if n.kind is NodeKind.ROADM])
        ols = OlsController(t, [])
        for a, z in data.draw(st.lists(st.tuples(roadms, roadms), max_size=24)):
            try:
                want = OlsController(t, [])._route(a, z)
            except NoRoute:
                with pytest.raises(NoRoute):
                    ols._route(a, z)
            else:
                assert ols._route(a, z) == want


class TestFirstFitCases:
    """First-fit against ``oracles.first_fit_n`` on one link, where the
    channels in ``taken`` (m=4, between untunable SIPs) are provisioned
    first."""

    @pytest.mark.parametrize("tun_a, tun_z, floor, taken, want", [
        (range(10, 30), range(10, 30), 0, (), 10),
        (range(10, 30), range(10, 30), 17, (), 17),
        (range(10, 30), range(10, 30), 40, (), None),
        (range(-8, 40, 4), (), 1, (), 4),
        ((), range(-8, 40, 4), 1, (4,), 12),
        (*MACHINE_TUNABILITY, -12, (0, 12), 24),
        (*reversed(MACHINE_TUNABILITY), 1, (12,), 24),
        (*MACHINE_TUNABILITY, -12, (0, 12, 24), None),
        (range(-256, 257), range(0, 100, 7), 5, (7,), 21),
    ], ids=["floor-below", "floor-inside", "floor-above", "one-tunable",
            "one-tunable-blocked", "non-contiguous", "non-contiguous-floor",
            "non-contiguous-full", "walk-shorter"])
    def test_matches_oracle(self, tun_a, tun_z, floor, taken, want):
        nodes = [Node("r1", NodeKind.ROADM), Node("r2", NodeKind.ROADM)]
        tun_a, tun_z = frozenset(tun_a), frozenset(tun_z)
        sips = [Sip("a", "r1", "p1", tun_a), Sip("z", "r2", "p1", tun_z),
                Sip("u1", "r1", "p2"), Sip("u2", "r2", "p2")]
        ols = OlsController(
            Topology(nodes=nodes, links=[Link("f-12", ("r1", "r2"), 10.0)]), sips)
        for n in taken:
            ols.create_media_channel("u1", "u2", slot=FrequencySlot(n))
        live = [(("f-12",), n, 4) for n in taken]
        assert first_fit_n(live, ("f-12",), (tun_a, tun_z), floor, 4) == want
        if want is None:
            with pytest.raises(SpectrumCollision):
                ols.create_media_channel("a", "z", floor_n=floor)
        else:
            assert ols.create_media_channel("a", "z", floor_n=floor).slot.n == want


class TestUntunableFirstFitOnALine:
    """First-fit between two untunable SIPs on the line r1-r2-r3, whose
    route has two links, against ``oracles.first_fit_n``. The route
    carries a live channel on both links at n=0, a live channel on f-12
    alone at n=12, and two deleted channels; m=4 throughout."""

    @pytest.mark.parametrize("floor, want", [(2, 20), (-20, -20)],
                             ids=["floor-in-live-slot", "floor-free"])
    def test_matches_oracle(self, floor, want):
        nodes = [Node(f"r{i}", NodeKind.ROADM) for i in (1, 2, 3)]
        links = [Link("f-12", ("r1", "r2"), 10.0), Link("f-23", ("r2", "r3"), 10.0)]
        ols = OlsController(Topology(nodes=nodes, links=links),
                            [Sip(f"u{i}", f"r{i}", "p1") for i in (1, 2, 3)])
        live = [ols.create_media_channel("u1", "u3", slot=FrequencySlot(0)),
                ols.create_media_channel("u1", "u2", slot=FrequencySlot(12))]
        for a, z, n in (("u1", "u3", 24), ("u2", "u3", -16)):
            ols.delete_media_channel(
                ols.create_media_channel(a, z, slot=FrequencySlot(n)).mc_id)
        route = ("f-12", "f-23")
        assert first_fit_n([(mc.route, mc.slot.n, 4) for mc in live],
                           route, (), floor, 4) == want
        mc = ols.create_media_channel("u1", "u3", floor_n=floor)
        assert (mc.route, mc.slot.n) == (route, want)


class OlsMachine(RuleBasedStateMachine):
    """Create and delete channels against a model of the live set; every
    first-fit must match ``oracles.first_fit_n``."""

    def __init__(self):
        super().__init__()
        self.ols = _machine_controller()
        self.live = {}  # mc_id -> (route, n, m)
        self.dead = ["mc-9999"]

    def _endpoints(self, a, a_tunable, z, z_tunable):
        a_id, z_id = f"{'t' if a_tunable else 'u'}{a}", f"{'t' if z_tunable else 'u'}{z}"
        tunabilities = tuple(MACHINE_TUNABILITY[i % 2] if tunable else frozenset()
                             for i, tunable in ((a, a_tunable), (z, z_tunable)))
        return a_id, z_id, self.ols._route(f"r{a}", f"r{z}"), tunabilities

    def _record(self, mc, route, n, m):
        assert (mc.route, mc.slot, mc.state) == (
            route, FrequencySlot(n, m), ChannelState.PROVISIONED)
        self.live[mc.mc_id] = (route, n, m)

    @rule(a=st.integers(0, 3), z=st.integers(0, 3),
          tunable=st.sampled_from([(True, True), (True, False),
                                   (False, True), (False, False)]),
          m=st.sampled_from([1, 2, 4]), floor=st.integers(-12, 40))
    def first_fit(self, a, z, tunable, m, floor):
        a_id, z_id, route, tunabilities = self._endpoints(a, tunable[0], z, tunable[1])
        n = first_fit_n(self.live.values(), route, tunabilities, floor, m)
        if n is None:
            assert any(tunable)
            with pytest.raises(SpectrumCollision):
                self.ols.create_media_channel(a_id, z_id, floor_n=floor, m=m)
        else:
            mc = self.ols.create_media_channel(a_id, z_id, floor_n=floor, m=m)
            self._record(mc, route, n, m)

    @rule(a=st.integers(0, 3), z=st.integers(0, 3), a_tunable=st.booleans(),
          z_tunable=st.booleans(), n=st.integers(-12, 48),
          m=st.sampled_from([1, 2, 4]))
    def explicit(self, a, z, a_tunable, z_tunable, n, m):
        a_id, z_id, route, tunabilities = self._endpoints(a, a_tunable, z, z_tunable)
        slot = FrequencySlot(n, m)
        if any(t and n not in t for t in tunabilities):
            with pytest.raises(SlotOutOfTunability):
                self.ols.create_media_channel(a_id, z_id, slot=slot)
        elif first_fit_n(self.live.values(), route, (), n, m) != n:
            with pytest.raises(SpectrumCollision):
                self.ols.create_media_channel(a_id, z_id, slot=slot)
        else:
            self._record(self.ols.create_media_channel(a_id, z_id, slot=slot),
                         route, n, m)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def delete_live(self, data):
        mc_id = data.draw(st.sampled_from(sorted(self.live)))
        mc = self.ols.delete_media_channel(mc_id)
        assert mc.mc_id == mc_id and mc.state is ChannelState.DELETED
        del self.live[mc_id]
        self.dead.append(mc_id)

    @rule(data=st.data())
    def delete_dead(self, data):
        with pytest.raises(UnknownChannel):
            self.ols.delete_media_channel(data.draw(st.sampled_from(self.dead)))

    @invariant()
    def active_connections_are_the_live_set(self):
        active = self.ols.get_active_connections()
        assert [mc.mc_id for mc in active] == sorted(self.live)
        assert {mc.mc_id: (mc.route, mc.slot.n, mc.slot.m) for mc in active} == self.live

    @invariant()
    def slots_on_each_link_are_disjoint(self):
        by_link = {}
        for mc in self.ols.get_active_connections():
            for link in mc.route:
                by_link.setdefault(link, []).append(mc.slot.interval)
        for intervals in by_link.values():
            intervals.sort()
            for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
                assert hi <= lo


OlsMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None, derandomize=True
)
TestOlsMachine = OlsMachine.TestCase


class TestTransponder:
    def test_five_step_bring_up(self):
        clock = VirtualClock(10.0)
        tp = configure_transponder(
            Transponder("tp-x"), FrequencySlot(0), tx_power_dbm=-1.5, clock=clock,
            config_duration_s=2.0, laser_warmup_s=125.0,
        )
        assert [e.name for e in tp.step_log] == [name for name, _ in CONFIG_STEPS]
        assert [e.phase for e in tp.step_log] == [ph for _, ph in CONFIG_STEPS]
        # 2 s of config spread over 5 steps, started at t=10.
        assert [e.t_s for e in tp.step_log] == pytest.approx([10.4, 10.8, 11.2, 11.6, 12.0])
        assert clock.now_s == pytest.approx(12.0)
        assert tp.phase is TransponderPhase.ASSIGNED
        assert tp.ready_at_s == pytest.approx(137.0)
        assert not tp.traffic_ready(136.9)
        assert tp.traffic_ready(137.0)
        assert tp.och == FrequencySlot(0)
        assert tp.tx_power_dbm == -1.5

    def test_logical_channel_tree(self):
        tp = configure_transponder(
            Transponder("tp-x"), FrequencySlot(8), 0.0, VirtualClock(), 2.0, 125.0
        )
        line = tp.logical_channels["line"]
        # Client ODU4 into line ODU4, ODU4 into OTU4, OTU4 onto the carrier.
        assert line["mapping"] == [
            ["tp-x-line-odu4", "tp-x-line-otu4"],
            ["tp-x-line-otu4", "tp-x-line-och"],
        ]
        assert tp.logical_channels["transceiver"] == "tp-x-xcvr"
        assert tp.logical_channels["client"] == {"odu4": "tp-x-client-odu4"}
        assert tp.logical_channels["assignment"] == ["tp-x-client-odu4", "tp-x-line-odu4"]

    def test_logical_channels_in_step_order(self):
        # Listed in the order the bring-up steps create them.
        tp = configure_transponder(
            Transponder("tp-x"), FrequencySlot(8), 0.0, VirtualClock(), 2.0, 125.0
        )
        assert list(tp.logical_channels) == ["line", "transceiver", "client", "assignment"]

    def test_zero_warmup_ready_after_config(self):
        clock = VirtualClock()
        tp = configure_transponder(
            Transponder("tp-x"), FrequencySlot(0), 0.0, clock, 2.0, laser_warmup_s=0.0
        )
        assert tp.ready_at_s == pytest.approx(2.0)
        assert tp.traffic_ready(clock.now_s)

    def test_reconfigure_is_invalid(self):
        clock = VirtualClock()
        tp = configure_transponder(Transponder("tp-x"), FrequencySlot(0), 0.0, clock,
                                   2.0, 125.0)
        with pytest.raises(InvalidPhase):
            configure_transponder(tp, FrequencySlot(8), 0.0, clock, 2.0, 125.0)

    def test_frequency_out_of_range_leaves_blank(self):
        clock = VirtualClock(5.0)
        tp = Transponder("tp-x", tunable_n=frozenset({0, 8}))
        with pytest.raises(FrequencyOutOfRange):
            configure_transponder(tp, FrequencySlot(16), 0.0, clock, 2.0, 125.0)
        assert tp.phase is TransponderPhase.BLANK
        assert clock.now_s == 5.0
        assert tp.step_log == []

    def test_clock_rejects_negative_advance(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_step_times_are_the_clocks(self):
        # Bit for bit the times one clock.advance per step gives, from a
        # start and a duration whose sums round.
        clock = VirtualClock(0.1)
        tp = configure_transponder(Transponder("tp-x"), FrequencySlot(0), 0.0, clock,
                                   0.7, 125.3)
        ref = VirtualClock(0.1)
        want = [ref.advance(0.7 / len(CONFIG_STEPS)) for _ in CONFIG_STEPS]
        assert [e.t_s for e in tp.step_log] == want
        assert clock.now_s == ref.now_s
        assert tp.ready_at_s == ref.now_s + 125.3

    def test_negative_config_duration_leaves_blank(self):
        clock = VirtualClock(5.0)
        tp = Transponder("tp-x")
        with pytest.raises(ValueError):
            configure_transponder(tp, FrequencySlot(0), 0.0, clock, -2.0, 125.0)
        assert tp.phase is TransponderPhase.BLANK
        assert clock.now_s == 5.0
        assert tp.step_log == []
