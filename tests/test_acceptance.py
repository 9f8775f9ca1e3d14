"""Acceptance suite: ten end-to-end criteria over the default scenario.

Each test prints one verdict line (visible even under capture) so the
teed pytest output doubles as the acceptance report. Tolerances are
pinned in the asserts; nothing here is tuned to make a red bar green.
"""

import dataclasses
import random
import socket
import threading
import time

import numpy as np
import pytest

from metroslice.cli import main
from metroslice.config import build_world
from metroslice.dataplane import (
    CLOCK_TICK_NS,
    path_from_nodes,
    evolve_quality,
    transmit_train,
)
from metroslice.live import live_measure, live_reflect
from metroslice.mda import detect_soft_failure
from metroslice.model import Link, Node, NodeKind, Topology
from metroslice.optical import FrequencySlot, OlsController, Sip, SpectrumCollision
from metroslice.orchestrator import TimingConfig, run_wf1
from metroslice.planner import place
from metroslice.probe import (
    ProbePacket,
    SimulatedProbe,
    TrainConfig,
    TrainReduction,
    compute_stats,
    decode_packet,
    latency_budget,
    theoretical_ceiling_mbps,
)
from oracles import brute_force_place, random_placement_instance


def _verdict(capsys, num: int, detail: str) -> None:
    with capsys.disabled():
        print(f"\ncriterion {num:02d} PASS: {detail}")


def _row(scenario, label):
    return next(r for r in scenario.rows if r.label == label)


def _path(scenario, row):
    return path_from_nodes(
        scenario.topology, row.path_nodes, row.length_km,
        overrides=scenario.element_overrides,
    )


# -- 1: calibrated round-trip table ----------------------------------------


def test_criterion_01_rtt_table(scenario, capsys):
    targets = {
        "optical-41km": (420.4, 405.04),
        "optical-80km": (799.1, 783.16),
    }
    cfg = scenario.probe_cfg
    trains = scenario.trains_per_row
    assert cfg.count == 1_000_000 and trains == 10

    summary = []
    for label, (rtt_target_us, prop_target_us) in targets.items():
        row = _row(scenario, label)
        probe = SimulatedProbe(_path(scenario, row), seed=scenario.seed)
        t0 = time.perf_counter()
        runs = [probe.run(cfg) for _ in range(trains)]
        elapsed = time.perf_counter() - t0

        rtt_mean = sum(s.rtt_mean_us for s in runs) / trains
        prop = 2.0 * row.length_km * scenario.topology.prop_const_us_per_km
        loss = sum(s.lost for s in runs) / (trains * cfg.count)

        assert abs(rtt_mean - rtt_target_us) <= 1.0, label
        assert abs(prop - prop_target_us) / prop_target_us <= 0.003, label
        assert 0.0 <= loss <= 3e-6, label
        assert elapsed < 5.0, f"{label}: {elapsed:.2f} s for {trains} trains"
        summary.append(f"{label} rtt {rtt_mean:.3f} us loss {loss:.2e} "
                       f"in {elapsed:.2f} s")
    _verdict(capsys, 1, "; ".join(summary))


# -- 2: calibration latency budget ------------------------------------------


def test_criterion_02_latency_budget(scenario, capsys):
    stats = {}
    for label in ("probe-loopback", "agg-switches", "optical-2m"):
        row = _row(scenario, label)
        probe = SimulatedProbe(_path(scenario, row), seed=scenario.seed)
        stats[label] = probe.run(scenario.probe_cfg)

    budget = latency_budget(
        stats["probe-loopback"], stats["agg-switches"], stats["optical-2m"]
    )
    assert budget.probe_us == pytest.approx(0.84, abs=0.02)
    assert budget.switches_us == pytest.approx(1.26, abs=0.05)
    assert budget.optical_us == pytest.approx(13.1, abs=0.1)
    _verdict(capsys, 2, f"probe {budget.probe_us:.3f} / switches "
                        f"{budget.switches_us:.3f} / optical "
                        f"{budget.optical_us:.3f} us")


# -- 3: throughput ceiling ---------------------------------------------------


def test_criterion_03_throughput_ceiling(scenario, capsys):
    ceiling = theoretical_ceiling_mbps(1456)
    assert ceiling == pytest.approx(97_196.0, abs=1.0)

    row = _row(scenario, "optical-80km")
    probe = SimulatedProbe(_path(scenario, row), seed=scenario.seed)
    stats = probe.run(scenario.probe_cfg)
    tput = stats.throughput_mbps

    assert 97_100.0 <= tput <= 97_200.0
    # Distance from the published 97145..97155 measurement band.
    off_band = max(0.0, 97_145.0 - tput, tput - 97_155.0)
    assert off_band / 97_150.0 <= 0.0006
    n = stats.received
    assert tput == pytest.approx(ceiling * n / (n - 1), rel=1e-4)
    _verdict(capsys, 3, f"ceiling {ceiling:.1f} Mb/s, simulated {tput:.1f} Mb/s")


# -- 4: KPI arithmetic --------------------------------------------------------


def test_criterion_04_kpi_arithmetic(scenario, capsys):
    world = build_world(scenario)
    decision, report, _ = run_wf1(scenario.request, world)
    assert decision.placed and report is not None
    assert report.kpi3_s < 180.0
    timing = world.timing
    assert report.kpi1_s >= timing.laser_warmup_s + timing.tp_config_s
    assert report.kpi1_s == pytest.approx(132.0)

    cold = build_world(scenario)
    cold.timing = dataclasses.replace(timing, laser_warmup_s=0.0)
    _, report0, _ = run_wf1(scenario.request, cold)
    assert report0.excl_transponder_s == pytest.approx(50.0, abs=5.0)
    _verdict(capsys, 4, f"kpi3 {report.kpi3_s:.1f} s, warmup-free setup "
                        f"{report0.excl_transponder_s:.1f} s, kpi1 "
                        f"{report.kpi1_s:.1f} s")


# -- 5: soft-failure detection ------------------------------------------------


def test_criterion_05_soft_failure(scenario, capsys):
    fast_ramp = dataclasses.replace(
        scenario.degradation, ramp_db_per_s=0.25, duration_s=100.0
    )
    slow_ramp = dataclasses.replace(
        scenario.degradation, ramp_db_per_s=0.025, duration_s=800.0
    )
    fast = detect_soft_failure(evolve_quality(fast_ramp), scenario.detector)
    slow = detect_soft_failure(evolve_quality(slow_ramp), scenario.detector)

    assert fast.detected and slow.detected
    assert fast.anticipation_s >= 60.0
    assert slow.anticipation_s >= 60.0
    assert fast.t_detect_s < slow.t_detect_s
    ratio = slow.anticipation_s / fast.anticipation_s
    assert 9.0 <= ratio <= 11.0
    _verdict(capsys, 5, f"anticipation {fast.anticipation_s:.1f} s (0.25 dB/s) "
                        f"vs {slow.anticipation_s:.1f} s (0.025 dB/s), "
                        f"ratio {ratio:.2f}")


# -- 6: placement vs exhaustive search ----------------------------------------


def test_criterion_06_placement_oracle(capsys):
    rng = random.Random(424242)
    placed = blocked = i = 0
    # At least 50 instances, and keep drawing until 10 of them place, so
    # the minimal-cost agreement is exercised and not just the blocks.
    while i < 50 or placed < 10:
        i += 1
        assert i <= 500, "instance generator starves the placed path"
        req, topology, vims = random_placement_instance(rng)
        want_reason, want_chosen, want_ranked = brute_force_place(
            req, topology, vims
        )
        decision = place(req, topology, vims)
        if want_reason is not None:
            blocked += 1
            assert decision.block_reason is not None, f"instance {i}"
            assert decision.block_reason.value == want_reason, f"instance {i}"
        else:
            placed += 1
            assert decision.placed, f"instance {i}"
            assert decision.candidate.vim_ids == want_chosen[1], f"instance {i}"
            assert decision.candidate.cost_us == pytest.approx(
                want_chosen[0], rel=1e-12
            ), f"instance {i}"
        got_ranked = [(c.cost_us, c.vim_ids) for c in decision.ranked]
        assert got_ranked == [
            (pytest.approx(c, rel=1e-12), ids) for c, ids in want_ranked
        ], f"instance {i}"
    _verdict(capsys, 6, f"{i} instances match brute force "
                        f"({placed} placed, {blocked} blocked)")


# -- 7: spectrum safety ---------------------------------------------------------


def _spectrum_ring():
    nodes = [Node(f"r{i}", NodeKind.ROADM, 3.275) for i in range(1, 5)]
    links = [
        Link("f-12", ("r1", "r2"), 40.0),
        Link("f-23", ("r2", "r3"), 40.0),
        Link("f-34", ("r3", "r4"), 40.0),
        Link("f-14", ("r1", "r4"), 40.0),
        Link("f-13", ("r1", "r3"), 60.0),
    ]
    sips = [Sip(f"sip-{i}", f"r{i}", "p1") for i in range(1, 5)]
    return OlsController(Topology(nodes=nodes, links=links), sips)


def _assert_disjoint_spectrum(ols):
    by_link = {}
    for mc in ols.get_active_connections():
        for link in mc.route:
            by_link.setdefault(link, []).append(mc.slot)
    for link, slots in by_link.items():
        iv = sorted(s.interval for s in slots)
        for (lo1, hi1), (lo2, hi2) in zip(iv, iv[1:]):
            assert hi1 <= lo2, f"overlap on {link}: {iv}"


def test_criterion_07_spectrum_safety(capsys):
    rng = random.Random(7041000)
    ols = _spectrum_ring()
    sip_ids = [f"sip-{i}" for i in range(1, 5)]
    live = []
    created = rejected = 0
    for _ in range(1000):
        if live and rng.random() < 0.35:
            ols.delete_media_channel(live.pop(rng.randrange(len(live))).mc_id)
        else:
            a, z = rng.sample(sip_ids, 2)
            # Mix of first-fit and explicit-slot requests.
            kwargs = {"m": rng.choice([2, 4])}
            if rng.random() < 0.3:
                kwargs["slot"] = FrequencySlot(
                    n=rng.randrange(-24, 25), m=kwargs.pop("m")
                )
            else:
                kwargs["floor_n"] = rng.choice([0, 4])
            try:
                live.append(ols.create_media_channel(a, z, **kwargs))
                created += 1
            except SpectrumCollision:
                rejected += 1
        _assert_disjoint_spectrum(ols)
    assert created > 100
    _verdict(capsys, 7, f"1000 ops, {created} created, {rejected} rejected, "
                        f"no overlapping slots")


# -- 8: probe exactness -----------------------------------------------------------


def test_criterion_08_probe_exactness(scenario, capsys):
    # Exact loss rate from one dropped packet in a million.
    n = 1_000_000
    cfg = TrainConfig(count=n)
    received = np.ones(n, dtype=bool)
    received[123_456] = False
    tx = np.arange(n, dtype=np.float64) * 1000.0
    rx = tx + 8000.0
    echoes = TrainReduction()
    echoes.fold(tx[received], rx[received], float(tx.min()))
    stats = compute_stats(cfg, echoes)
    assert stats.loss_rate == 1.0e-6

    # Codec survives 1e5 random packets bit-exactly.
    rng = random.Random(8)
    for _ in range(100_000):
        pkt = ProbePacket(
            train_id=rng.getrandbits(32),
            seq=rng.getrandbits(32),
            count=rng.getrandbits(32),
            vlan_id=rng.getrandbits(12),
            tx_timestamp_ns=rng.getrandbits(64),
            flags=rng.getrandbits(8),
            payload=rng.randbytes(rng.randrange(0, 9)),
        )
        buf = pkt.encode()
        back = decode_packet(buf)
        assert back == pkt
        assert back.encode() == buf

    # Every simulated timestamp sits on the capture-clock lattice.
    row = _row(scenario, "optical-80km")
    path = _path(scenario, row)
    m = 100_000
    lattice = np.rint(
        np.arange(m, dtype=np.float64) * cfg.wire_slot_ns / CLOCK_TICK_NS
    ) * CLOCK_TICK_NS
    out = transmit_train(path, lattice, np.random.default_rng(7))
    ticks = np.concatenate([lattice, out.rx_ns[out.delivered]]) / CLOCK_TICK_NS
    assert np.abs(ticks - np.rint(ticks)).max() < 1e-6
    _verdict(capsys, 8, "loss exactly 1.0e-6, 1e5 codec round-trips, "
                        "timestamps on the 3.1 ns lattice")


# -- 9: live loopback smoke -------------------------------------------------------


def test_criterion_09_live_loopback(capsys):
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
    except OSError:
        pytest.skip("loopback UDP sockets unavailable")
    port = probe.getsockname()[1]
    probe.close()

    ready = threading.Event()
    stop = threading.Event()

    def run():
        live_reflect(("127.0.0.1", port), stop=stop,
                     max_packets=10_000, ready=ready)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(5.0)
    t0 = time.perf_counter()
    try:
        stats = live_measure(
            TrainConfig(count=10_000, ip_payload_bytes=256, timeout_ms=8000),
            dst=("127.0.0.1", port),
        )
    finally:
        stop.set()
        thread.join(5.0)
    elapsed = time.perf_counter() - t0

    assert stats.loss_rate == 0.0
    assert stats.rtt_us is not None and np.isfinite(stats.rtt_us)
    assert stats.rtt_us > 0.0
    assert elapsed < 10.0
    _verdict(capsys, 9, f"10000/10000 echoed, min rtt {stats.rtt_us:.1f} us, "
                        f"{elapsed:.2f} s")


# -- 10: deterministic deploys ------------------------------------------------------


def test_criterion_10_deterministic_deploy(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["--out", str(a), "deploy"]) == 0
    assert main(["--out", str(b), "deploy"]) == 0
    capsys.readouterr()

    for name in ("kpi.json", "events.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    _verdict(capsys, 10, "two deploys byte-identical (kpi.json, events.jsonl)")
