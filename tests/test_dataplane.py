"""Dataplane simulator: delay arithmetic, loss/jitter statistics, BER curve."""

import ast
import copy
import gc
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from metroslice import dataplane
from metroslice.dataplane import (
    CLOCK_TICK_NS,
    DEFAULT_ELEMENT_PARAMS,
    DegradationScenario,
    ElementParams,
    PATH_CACHE_SIZE,
    NoPath,
    PathElement,
    PathModel,
    ber_from_snr_db,
    element_for_node,
    evolve_quality,
    one_way_delay_us,
    path_from_nodes,
    path_from_topology,
    quantize_ns,
    serialization_delay_ns,
    transmit_train,
)
import metroslice
from metroslice.model import Link, Node, NodeKind, Topology
from metroslice.probe import SimulatedProbe, TrainConfig
from oracles import convolve_in_order


def _elem(eid="e", lat=0.0, loss=0.0, jit=0.0):
    return PathElement(element_id=eid, fixed_latency_us=lat, loss_prob=loss, jitter_std_ns=jit)


class TestDelayArithmetic:
    def test_bare_fibre_80km(self):
        p = PathModel(elements=(), length_km=80.0)
        assert one_way_delay_us(p) == pytest.approx(80.0 * 4.899, rel=1e-12)

    def test_empty_path_is_zero(self):
        assert one_way_delay_us(PathModel(elements=(), length_km=0.0)) == 0.0

    def test_fixed_latency_sums_left_to_right(self):
        # Left to right, ten 0.1 us add up to one ulp below 1; the builtin
        # sum of Python 3.12 and later compensates and returns 1.0.
        p = PathModel(elements=tuple(_elem(lat=0.1) for _ in range(10)), length_km=0.0)
        assert one_way_delay_us(p) == 0.9999999999999999

    def test_fixed_latency_sums_with_propagation(self):
        p = PathModel(elements=(_elem(lat=1.5), _elem(lat=2.5)), length_km=10.0)
        assert one_way_delay_us(p) == pytest.approx(4.0 + 48.99, rel=1e-12)

    def test_calibration_path_fixed_budget(self, scenario):
        # probe + switch + 2 ROADMs + switch + probe, one way:
        # 0.21 + 0.315 + 3.275 + 3.275 + 0.315 + 0.21 = 7.6 us.
        row = next(r for r in scenario.rows if r.label == "optical-80km")
        p = path_from_nodes(scenario.topology, row.path_nodes, row.length_km, {})
        fixed = sum(e.fixed_latency_us for e in p.elements)
        assert fixed == pytest.approx(7.6, rel=1e-12)
        assert one_way_delay_us(p) == pytest.approx(7.6 + 80.0 * 4.899, rel=1e-12)

    def test_delay_additivity(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            elems = tuple(_elem(f"e{i}", lat=float(rng.uniform(0, 5))) for i in range(n))
            km = float(rng.uniform(0, 100))
            cut = int(rng.integers(0, n + 1))
            kcut = float(rng.uniform(0, km))
            whole = one_way_delay_us(PathModel(elems, km))
            left = one_way_delay_us(PathModel(elems[:cut], kcut))
            right = one_way_delay_us(PathModel(elems[cut:], km - kcut))
            assert whole == pytest.approx(left + right, rel=1e-12)

    def test_serialization_delay(self):
        # 1498 wire bytes at 100 Gb/s
        assert serialization_delay_ns(1498) == pytest.approx(119.84, rel=1e-12)


class TestValidation:
    def test_loss_prob_range(self):
        _elem(loss=0.0)
        _elem(loss=1.0)  # certain loss is a legal configuration
        with pytest.raises(ValueError):
            _elem(loss=1.0000001)
        with pytest.raises(ValueError):
            _elem(loss=-0.1)

    def test_negative_latency_and_jitter(self):
        with pytest.raises(ValueError):
            _elem(lat=-1.0)
        with pytest.raises(ValueError):
            _elem(jit=-1.0)

    def test_negative_length(self):
        with pytest.raises(ValueError):
            PathModel(elements=(), length_km=-1.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_rejected(self, value):
        # The simulated probe rounds delays to ticks, which has no answer
        # for an infinite or NaN delay.
        for kwargs in ({"lat": value}, {"jit": value}):
            with pytest.raises(ValueError, match="finite"):
                _elem(**kwargs)
        with pytest.raises(ValueError, match="finite"):
            PathModel(elements=(), length_km=value)

    def test_reversed_keeps_length(self):
        p = PathModel((_elem("a"), _elem("b")), length_km=5.0)
        r = p.reversed()
        assert [e.element_id for e in r.elements] == ["b", "a"]
        assert r.length_km == 5.0


class TestLossAndJitterComposition:
    def test_loss_prob_product_rule(self):
        p = PathModel((_elem(loss=0.1), _elem(loss=0.2)), 0.0)
        assert p.loss_prob() == pytest.approx(1.0 - 0.9 * 0.8, rel=1e-12)

    def test_jitter_root_sum_square(self):
        p = PathModel((_elem(jit=3.0), _elem(jit=4.0)), 0.0)
        assert p.jitter_std_ns() == pytest.approx(5.0, rel=1e-12)


class TestTransmitTrain:
    def test_deterministic_path_exact_arrival(self):
        p = PathModel((_elem(lat=2.0),), length_km=1.0)
        tx = np.array([0.0, 1000.0, 2000.0])
        res = transmit_train(p, tx, rng=np.random.default_rng(0))
        assert res.delivered.all()
        expected = quantize_ns(tx + one_way_delay_us(p) * 1000.0)
        np.testing.assert_array_equal(res.rx_ns, expected)

    def test_certain_loss_drops_everything(self):
        p = PathModel((_elem(loss=1.0),), 0.0)
        res = transmit_train(p, np.zeros(1000), rng=np.random.default_rng(1))
        assert not res.delivered.any()

    def test_loss_count_matches_binomial(self):
        # Two lossy elements so the product rule is exercised end to end.
        p = PathModel((_elem("a", loss=1e-4), _elem("b", loss=1e-4)), 0.0)
        n = 1_000_000
        res = transmit_train(p, np.zeros(n), rng=np.random.default_rng(12345))
        lost = n - int(res.delivered.sum())
        # mean ~ 200, std ~ 14.1; +/- 4 sigma
        assert 140 <= lost <= 260

    def test_binomial_loss_keeps_survival_law(self):
        # Loss count ~ Binomial(n, p) and lost positions uniform, as with
        # one uniform draw per packet.
        p = PathModel((_elem(loss=0.01),), 0.0)
        n = 100_000
        sigma = math.sqrt(n * 0.01 * 0.99)
        counts = []
        bins = np.zeros(10)
        for seed in range(20):
            res = transmit_train(p, np.zeros(n), rng=np.random.default_rng(seed))
            lost = np.flatnonzero(~res.delivered)
            assert abs(lost.size - 1000) <= 4 * sigma
            counts.append(lost.size)
            bins += np.bincount(lost * 10 // n, minlength=10)
        assert abs(np.mean(counts) - 1000) <= 4 * sigma / math.sqrt(20)
        # 20 000 losses over ten deciles: 2000 each, std ~42.
        assert np.all(np.abs(bins - 2000) <= 200)

    def test_does_not_modify_its_input(self):
        p = PathModel((_elem(lat=1.0, jit=2.0),), 1.0)
        tx = np.arange(0.0, 1000.0, 10.0)
        transmit_train(p, tx, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(tx, np.arange(0.0, 1000.0, 10.0))

    def test_seed_reproducibility(self):
        p = PathModel((_elem(loss=0.01, jit=2.0),), 3.0)
        tx = np.arange(0.0, 1e6, 100.0)
        a = transmit_train(p, tx, rng=np.random.default_rng(77))
        b = transmit_train(p, tx, rng=np.random.default_rng(77))
        np.testing.assert_array_equal(a.rx_ns, b.rx_ns)
        np.testing.assert_array_equal(a.delivered, b.delivered)
        c = transmit_train(p, tx, rng=np.random.default_rng(78))
        assert not np.array_equal(a.rx_ns, c.rx_ns)

    def test_arrivals_on_capture_clock_lattice(self):
        p = PathModel((_elem(jit=2.5),), 4.0)
        res = transmit_train(p, np.arange(0.0, 1e5, 37.0), rng=np.random.default_rng(5))
        steps = res.rx_ns / CLOCK_TICK_NS
        assert np.all(np.abs(steps - np.rint(steps)) < 1e-6)

    def test_measured_jitter_matches_rss_plus_quantization(self):
        # std of arrivals = rss(element jitter) + tick**2/12 variance.
        p = PathModel((_elem("a", jit=3.0), _elem("b", jit=4.0)), 0.0)
        n = 200_000
        res = transmit_train(p, np.zeros(n), rng=np.random.default_rng(42))
        expected = math.sqrt(25.0 + CLOCK_TICK_NS**2 / 12.0)
        assert float(np.std(res.rx_ns)) == pytest.approx(expected, rel=0.02)


class TestQuantize:
    def test_scalar_and_array(self):
        assert float(quantize_ns(4.6)) == pytest.approx(3.1, rel=1e-12)
        assert float(quantize_ns(4.66)) == pytest.approx(6.2, rel=1e-12)
        out = quantize_ns(np.array([0.0, 3.1, 100.0]))
        np.testing.assert_allclose(out, [0.0, 3.1, 99.2], rtol=1e-12)


class TestBerCurve:
    def test_matches_gaussian_tail_oracle(self):
        # ber(snr) = Q(sqrt(snr_lin)), checked against scipy.stats.norm.
        grid = np.linspace(-10.0, 14.0, 60)
        ours = ber_from_snr_db(grid)
        oracle = norm.sf(np.sqrt(np.power(10.0, grid / 10.0)))
        np.testing.assert_allclose(ours, oracle, rtol=1e-9)

    def test_monotone_decreasing_and_bounded(self):
        grid = np.linspace(-30.0, 30.0, 400)
        b = ber_from_snr_db(grid)
        assert np.all(np.diff(b) < 0)
        assert np.all(b > 0) and np.all(b < 0.5)

    def test_fec_threshold_neighbourhood(self):
        # The 2e-2 pre-FEC limit sits near 6.25 dB on this curve.
        assert 1.99e-2 < float(ber_from_snr_db(6.2509)) < 2.01e-2
        assert float(ber_from_snr_db(6.25)) > 2.0e-2
        assert float(ber_from_snr_db(6.26)) < 2.0e-2

    def test_vanishing_snr_approaches_half(self):
        assert 0.49 < float(ber_from_snr_db(-60.0)) < 0.5


class TestEvolveQuality:
    def test_default_scenario_samples(self, scenario):
        series = evolve_quality(scenario.degradation)
        assert len(series) == 101
        assert len(series.snr_db) == len(series.prefec_ber) == 101
        assert series.t_s[0] == 0.0 and series.t_s[-1] == 100.0
        # Steady hold before the ramp starts at t=10.
        for snr in series.snr_db[:11]:
            assert snr == pytest.approx(23.0)
        i40 = series.t_s.index(40.0)
        assert series.snr_db[i40] == pytest.approx(23.0 - 0.25 * 30.0, rel=1e-12)

    def test_zero_ramp_is_flat(self):
        s = DegradationScenario(ramp_db_per_s=0.0, duration_s=20.0, snr0_db=20.0)
        assert evolve_quality(s).snr_db == [20.0] * 21

    def test_ber_column_consistent(self):
        s = DegradationScenario(ramp_db_per_s=0.5, duration_s=30.0, snr0_db=23.0)
        series = evolve_quality(s)
        for snr, ber in zip(series.snr_db, series.prefec_ber):
            assert ber == float(ber_from_snr_db(snr))

    def test_columns_match_the_array_path(self):
        # A period that is no integer, a ramp that starts between two
        # samples and a duration that is no multiple of the period. Every
        # column is numpy's grid and ramp, and the vectorised BER of it,
        # bit for bit.
        s = DegradationScenario(ramp_db_per_s=0.37, duration_s=31.3, snr0_db=22.9,
                                sample_period_s=0.7, ramp_start_s=4.45)
        t = np.arange(0.0, s.duration_s + s.sample_period_s / 2, s.sample_period_s)
        snr = s.snr0_db - s.ramp_db_per_s * np.maximum(0.0, t - s.ramp_start_s)
        series = evolve_quality(s)
        assert series.t_s == t.tolist()
        assert series.snr_db == snr.tolist()
        assert series.prefec_ber == ber_from_snr_db(snr).tolist()

    def test_validation(self):
        with pytest.raises(ValueError):
            DegradationScenario(ramp_db_per_s=-0.1, duration_s=1.0)
        with pytest.raises(ValueError):
            DegradationScenario(ramp_db_per_s=0.1, duration_s=1.0, sample_period_s=0.0)


#: One leg of a round trip: (jitter std, delay), both in ns; a zero
#: jitter gives a one-bin law.
_legs = st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 40.0)), st.floats(0.0, 1e6))


class TestRttLawSum:
    """``rtt_law``'s p against a sum per bin in Python floats."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(fwd=_legs, back=st.one_of(st.none(), _legs))
    # Equal legs take the law's one-leg shortcut.
    @example(fwd=(3.0, 1000.0), back=None)
    @example(fwd=(0.0, 1234.0), back=(0.0, 99.0))
    @example(fwd=(0.0, 1234.0), back=(40.0, 99.0))
    def test_bit_for_bit_in_order(self, fwd, back):
        back = fwd if back is None else back
        _, p = dataplane._rtt_law_of.__wrapped__(fwd, back)
        pf, pb = (dataplane._leg_delay_pmf(*leg)[1] for leg in (fwd, back))
        want = np.array(convolve_in_order(pf.tolist(), pb.tolist()))
        want /= np.add.reduce(want)
        assert want.tobytes() == p.tobytes()
        # And the law is the one np.convolve gives, up to summation order.
        ref = np.convolve(pf, pb)
        np.testing.assert_allclose(p, ref / ref.sum(), rtol=1e-12, atol=0.0)


def _tie_grid():
    """3 x 4 ROADM grid where every hop costs 1 us of fibre plus 1 us of
    transit, so all monotone routes tie. Links are listed out of order, so
    the order they were given in, not sorting, decides ties."""
    nodes = [Node(f"g{r}{c}", NodeKind.ROADM, 1.0) for r in range(3) for c in range(4)]
    nodes.append(Node("sw", NodeKind.AGG_SWITCH, 0.0))
    links = [Link(f"v{r}{c}", (f"g{r + 1}{c}", f"g{r}{c}"), 0.25)
             for c in reversed(range(4)) for r in range(2)]
    links += [Link(f"h{r}{c}", (f"g{r}{c}", f"g{r}{c + 1}"), 0.25)
              for r in range(3) for c in range(3)]
    links += [
        Link("h00-eq", ("g01", "g00"), 0.25),    # equal parallel: ignored
        Link("h12-short", ("g13", "g12"), 0.0),  # shorter parallel: replaces
        Link("sw-a", ("g00", "sw"), 2.25),       # corner to corner via sw
        Link("sw-b", ("sw", "g23"), 0.0),        # ties with the grid
    ]
    return Topology(nodes=nodes, links=links, prop_const_us_per_km=4.0)


#: Node sequences produced by networkx.dijkstra_path on the same graph
#: (parallel-link minimum, entered node's latency), the reference the
#: stdlib Dijkstra replaced.
TIE_GRID_PATHS = {
    "g00": {
        "g01": "g00 g01",
        "g02": "g00 g01 g02",
        "g03": "g00 g01 g02 g03",
        "g10": "g00 g10",
        "g11": "g00 g10 g11",
        "g12": "g00 g10 g11 g12",
        "g13": "g00 g10 g11 g12 g13",
        "g20": "g00 g10 g20",
        "g21": "g00 g10 g20 g21",
        "g22": "g00 g10 g20 g21 g22",
        "g23": "g00 g10 g11 g12 g13 g23",
        "sw": "g00 sw",
    },
    "g23": {
        "g00": "g23 g13 g12 g02 g01 g00",
        "g01": "g23 g13 g12 g02 g01",
        "g02": "g23 g13 g12 g02",
        "g03": "g23 g13 g03",
        "g10": "g23 g13 g12 g11 g10",
        "g11": "g23 g13 g12 g11",
        "g12": "g23 g13 g12",
        "g13": "g23 g13",
        "g20": "g23 g22 g21 g20",
        "g21": "g23 g22 g21",
        "g22": "g23 g22",
        "sw": "g23 sw",
    },
}

DEFAULT_SCENARIO_PATHS = {
    "probe-a": {
        "probe-b": "probe-a sw-amen roadm-1 roadm-2 sw-mcen probe-b",
        "sw-amen": "probe-a sw-amen",
        "sw-mcen": "probe-a sw-amen roadm-1 roadm-2 sw-mcen",
        "roadm-1": "probe-a sw-amen roadm-1",
        "roadm-2": "probe-a sw-amen roadm-1 roadm-2",
        "roadm-3": "probe-a sw-amen roadm-1 roadm-3",
        "amen": "probe-a sw-amen amen",
        "mcen": "probe-a sw-amen roadm-1 roadm-2 sw-mcen mcen",
    },
    "roadm-3": {
        "probe-a": "roadm-3 roadm-1 sw-amen probe-a",
        "probe-b": "roadm-3 roadm-2 sw-mcen probe-b",
        "sw-amen": "roadm-3 roadm-1 sw-amen",
        "sw-mcen": "roadm-3 roadm-2 sw-mcen",
        "roadm-1": "roadm-3 roadm-1",
        "roadm-2": "roadm-3 roadm-2",
        "amen": "roadm-3 roadm-1 sw-amen amen",
        "mcen": "roadm-3 roadm-2 sw-mcen mcen",
    },
}


class TestPathFromTopology:
    def test_default_route_uses_direct_span(self, scenario):
        # 80 km direct beats 120 km via the third ROADM once the extra
        # ROADM transit latency is counted.
        p = path_from_topology(scenario.topology, "probe-a", "probe-b", {})
        ids = [e.element_id for e in p.elements]
        assert ids == ["probe-a", "sw-amen", "roadm-1", "roadm-2", "sw-mcen", "probe-b"]
        assert p.length_km == pytest.approx(80.0016, rel=1e-12)

    def test_roadm_to_roadm(self, scenario):
        p = path_from_topology(scenario.topology, "roadm-1", "roadm-2", {})
        assert [e.element_id for e in p.elements] == ["roadm-1", "roadm-2"]
        assert p.length_km == pytest.approx(80.0)

    @pytest.mark.parametrize("topology, pinned", [
        ("tie_grid", TIE_GRID_PATHS),
        ("default", DEFAULT_SCENARIO_PATHS),
    ])
    def test_pinned_node_sequences(self, scenario, topology, pinned):
        t = _tie_grid() if topology == "tie_grid" else scenario.topology
        for src, routes in pinned.items():
            for dst, want in routes.items():
                p = path_from_topology(t, src, dst, {})
                assert " ".join(e.element_id for e in p.elements) == want

    def test_tie_grid_lengths_use_the_kept_parallel_link(self):
        t = _tie_grid()
        assert path_from_topology(t, "g00", "g13", {}).length_km == 0.75
        assert path_from_topology(t, "g00", "g23", {}).length_km == 1.0
        assert path_from_topology(t, "g00", "g00", {}).length_km == 0

    def test_disconnected_raises(self):
        t = Topology(
            nodes=[Node("a", NodeKind.ROADM), Node("b", NodeKind.ROADM)],
            links=[],
        )
        with pytest.raises(NoPath):
            path_from_topology(t, "a", "b", {})

    def test_overrides_apply(self, scenario):
        ov = {"probe-a": ElementParams(loss_prob=0.5, jitter_std_ns=0.0)}
        p = path_from_topology(scenario.topology, "probe-a", "probe-b", overrides=ov)
        probe = next(e for e in p.elements if e.element_id == "probe-a")
        assert probe.loss_prob == 0.5

    def test_element_defaults_by_kind(self, scenario):
        t = scenario.topology
        probe = element_for_node(t.node("probe-a"), {})
        assert (probe.loss_prob, probe.jitter_std_ns) == (0.0, 2.0)
        sw = element_for_node(t.node("sw-amen"), {})
        assert (sw.loss_prob, sw.jitter_std_ns) == (2.0e-7, 1.5)
        rd = element_for_node(t.node("roadm-1"), {})
        assert (rd.loss_prob, rd.jitter_std_ns) == (2.0e-7, 2.5)
        assert set(DEFAULT_ELEMENT_PARAMS) >= {NodeKind.PROBE_ENDPOINT, NodeKind.AGG_SWITCH, NodeKind.ROADM}


class TestPathMemo:
    """``path_from_nodes`` shares one model per value of its inputs."""

    ROW = ["probe-a", "sw-amen", "roadm-1", "roadm-2", "sw-mcen", "probe-b"]
    OVERRIDES = {"roadm-1": ElementParams(loss_prob=1e-6, jitter_std_ns=3.0)}

    @staticmethod
    def _by_hand(t, node_ids, length_km, overrides):
        elements = tuple(element_for_node(t.node(n), overrides) for n in node_ids)
        return PathModel(elements, length_km, t.prop_const_us_per_km)

    def test_equal_inputs_share_one_model(self, scenario):
        t = scenario.topology
        p = path_from_nodes(t, self.ROW, 80.0, self.OVERRIDES)
        assert path_from_nodes(t, list(self.ROW), 80.0, dict(self.OVERRIDES)) is p
        assert path_from_nodes(copy.deepcopy(t), self.ROW, 80.0, self.OVERRIDES) is p
        routed = path_from_topology(t, "probe-a", "probe-b", {})
        assert path_from_topology(copy.deepcopy(t), "probe-a", "probe-b", {}) is routed

    @pytest.mark.parametrize("edit", ["kind", "fixed_latency_us", "override",
                                      "length_km", "prop_const_us_per_km"])
    def test_a_changed_value_gets_its_own_model(self, scenario, edit):
        t = copy.deepcopy(scenario.topology)
        overrides, length = dict(self.OVERRIDES), 80.0
        before = path_from_nodes(t, self.ROW, length, overrides)
        if edit == "kind":
            t.node("sw-amen").kind = NodeKind.ROADM
        elif edit == "fixed_latency_us":
            t.node("roadm-2").fixed_latency_us += 1.0
        elif edit == "override":
            overrides["roadm-1"] = ElementParams(loss_prob=1e-6, jitter_std_ns=3.5)
        elif edit == "length_km":
            length = 80.5
        else:
            t.prop_const_us_per_km = 5.0
        after = path_from_nodes(t, self.ROW, length, overrides)
        assert after is not before and after != before
        assert after == self._by_hand(t, self.ROW, length, overrides)

    def test_each_zero_keeps_its_type_and_sign(self, scenario):
        t, row = scenario.topology, ["probe-a", "probe-b"]
        cfg = TrainConfig(count=100)
        models = []
        for length in (0.0, -0.0, 0, 0.0, -0.0):
            p = path_from_nodes(t, row, length, {})
            assert repr(p.length_km) == repr(length)
            prop = SimulatedProbe(p, seed=1).run(cfg).two_way_propagation_us
            assert math.copysign(1.0, prop) == math.copysign(1.0, length)
            models.append(p)
        assert len({id(p) for p in models}) == 3
        assert models[3] is models[0] and models[4] is models[1]

    def test_reverse_is_built_once(self):
        p = PathModel((_elem("a", lat=1.0), _elem("b", lat=2.0)), 3.0)
        assert p.reversed() is p.reversed()
        assert [e.element_id for e in p.reversed().elements] == ["b", "a"]

    def test_model_and_reverse_form_no_cycle(self):
        p = PathModel((_elem("a", lat=1.0), _elem("b", jit=2.0)), 3.0)
        p.traversal, p.reversed().traversal
        alive = weakref.ref(p), weakref.ref(p.reversed())
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del p
            assert [ref() for ref in alive] == [None, None]
        finally:
            if was_enabled:
                gc.enable()

    def test_memo_is_bounded_least_recently_used_first(self, scenario):
        t, row = scenario.topology, ["probe-a", "probe-b"]
        first = path_from_nodes(t, row, 1e6, {})
        second = path_from_nodes(t, row, 1e6 + 1, {})
        for i in range(PATH_CACHE_SIZE + 10):
            path_from_nodes(t, row, 1e6 + 2 + i, {})
            assert path_from_nodes(t, row, 1e6, {}) is first  # kept: used last
            assert dataplane._path_of.cache_info().currsize <= PATH_CACHE_SIZE
        assert dataplane._path_of.cache_info().currsize == PATH_CACHE_SIZE
        rebuilt = path_from_nodes(t, row, 1e6 + 1, {})
        assert rebuilt is not second and rebuilt == second

    @pytest.mark.parametrize("count", [1000, 1_000_000])
    def test_shared_model_trains_as_one_built_by_hand(self, scenario, count):
        t, cfg = scenario.topology, TrainConfig(count=count)
        for row in scenario.rows:
            shared = path_from_nodes(t, row.path_nodes, row.length_km,
                                     scenario.element_overrides)
            SimulatedProbe(shared, seed=3).run(cfg)
            fresh = self._by_hand(t, row.path_nodes, row.length_km,
                                  scenario.element_overrides)
            assert fresh is not shared
            assert (repr(SimulatedProbe(shared, seed=5).run(cfg))
                    == repr(SimulatedProbe(fresh, seed=5).run(cfg)))


def test_runtime_import_needs_no_scipy():
    src = str(Path(metroslice.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, metroslice, metroslice.cli; "
            "sys.exit('scipy' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_import_leaves_live_out():
    # Only ``measure`` and ``reflect`` import the live sender and reflector.
    src = str(Path(metroslice.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, metroslice.cli; sys.exit('metroslice.live' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


#: Calls whose result depends on the kernel the host picks: BLAS products
#: and convolutions sum in an order set by CPU class and thread count, and
#: numpy's SIMD ``power`` differs from libm's in the last bits.
HOST_KERNELS = {"dot", "vdot", "inner", "matmul", "einsum", "convolve", "correlate", "power"}


def test_package_calls_no_builtin_sum():
    # From Python 3.12 the builtin sum compensates float rounding, so its
    # total can differ in the last bit from 3.10's and 3.11's; the package
    # totals with model.sum_left_to_right instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(metroslice.__file__).parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "sum"
    ]
    assert not found, found


def test_package_has_no_host_selected_kernel():
    found = []
    for path in sorted(Path(metroslice.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno}: @")
            elif isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                if name.split(".")[-1] in HOST_KERNELS or "linalg." in name:
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert not found, found
