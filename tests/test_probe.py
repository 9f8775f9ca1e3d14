"""Probe trains: BERT patterns, wire codec, statistics, budget decomposition."""

import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from metroslice import dataplane
from metroslice.dataplane import (
    CLOCK_TICK_NS,
    LAW_CACHE_SIZE,
    PathElement,
    PathModel,
    one_way_delay_us,
    path_from_nodes,
    quantized_delay_pmf,
    rtt_law,
    transmit_train,
)
from metroslice.model import sum_left_to_right
from metroslice.probe import (
    CHUNK,
    FRAME_OVERHEAD_BYTES,
    HEADER_LEN,
    MAGIC,
    MAX_TRAIN_COUNT,
    SCALAR_BLOCK,
    BertType,
    LatencyBudget,
    NegativeBudget,
    ProbeError,
    ProbePacket,
    SimulatedProbe,
    TrainConfig,
    TrainReduction,
    TrainStats,
    bert_payload,
    compute_stats,
    decode_packet,
    generate_train,
    latency_budget,
    prbs31_bytes,
    theoretical_ceiling_mbps,
)
from oracles import per_packet_train


def _prbs31_oracle_bits(nbits):
    # Fibonacci LFSR for x^31 + x^28 + 1, register as a bit list seeded
    # with all ones; written independently of the byte-oriented generator.
    reg = [1] * 31
    out = []
    for _ in range(nbits):
        fb = reg[0] ^ reg[3]
        out.append(fb)
        reg = reg[1:] + [fb]
    return out


def _pack_msb_first(bits):
    data = bytearray(len(bits) // 8)
    for i in range(len(data)):
        b = 0
        for j in range(8):
            b = (b << 1) | bits[8 * i + j]
        data[i] = b
    return bytes(data)


class TestBertPatterns:
    def test_prbs31_matches_bit_oracle(self):
        n = 256
        oracle = _pack_msb_first(_prbs31_oracle_bits(8 * n))
        assert prbs31_bytes(n) == oracle

    def test_prbs31_prefix_stability(self):
        assert prbs31_bytes(512)[:64] == prbs31_bytes(64)

    def test_prbs31_roughly_balanced(self):
        data = prbs31_bytes(4096)
        ones = sum(bin(b).count("1") for b in data)
        assert 0.45 < ones / (8 * 4096) < 0.55

    def test_bert_payload_variants(self):
        assert bert_payload(BertType.ZEROS, 16) == bytes(16)
        assert bert_payload(BertType.INCREMENTING, 300) == bytes(i & 0xFF for i in range(300))
        assert bert_payload(BertType.PRBS31, 100) == prbs31_bytes(100)
        assert bert_payload(BertType.PRBS31, 0) == b""


class TestCodec:
    def test_round_trip_fuzz(self):
        rng = random.Random(11)
        for _ in range(200):
            pkt = ProbePacket(
                train_id=rng.randrange(2**32),
                seq=rng.randrange(2**32),
                count=rng.randrange(1, 2**32),
                vlan_id=rng.randrange(4096),
                tx_timestamp_ns=rng.randrange(2**64),
                flags=rng.randrange(256),
                payload=rng.randbytes(rng.randrange(0, 64)),
            )
            assert decode_packet(pkt.encode()) == pkt

    def test_extreme_field_values(self):
        pkt = ProbePacket(
            train_id=2**32 - 1,
            seq=2**32 - 1,
            count=2**32 - 1,
            vlan_id=4095,
            tx_timestamp_ns=2**64 - 1,
            flags=255,
        )
        buf = pkt.encode()
        assert len(buf) == HEADER_LEN
        assert decode_packet(buf) == pkt

    def test_header_layout_is_fixed(self):
        buf = ProbePacket(1, 2, 3, vlan_id=0x64, tx_timestamp_ns=5).encode()
        assert buf[:4] == MAGIC.to_bytes(4, "big")
        assert buf[4] == 1  # version
        assert buf[6:8] == (0x64).to_bytes(2, "big")
        assert buf[20:28] == (5).to_bytes(8, "big")

    def test_rejects_short_bad_magic_bad_version(self):
        good = ProbePacket(1, 0, 1, 0, 0).encode()
        with pytest.raises(ProbeError):
            decode_packet(good[:27])
        with pytest.raises(ProbeError):
            decode_packet(b"\x00" * 28)
        bad_version = bytearray(good)
        bad_version[4] = 9
        with pytest.raises(ProbeError):
            decode_packet(bytes(bad_version))


class TestTrainConfig:
    def test_validation(self):
        TrainConfig(count=1)
        for kw in (
            {"count": 0},
            {"count": 2**32},
            {"ip_payload_bytes": 63},
            {"ip_payload_bytes": 9001},
            {"vlan_id": 4096},
            {"timeout_ms": 0},
        ):
            with pytest.raises(ValueError):
                TrainConfig(**{"count": 10, **kw})

    def test_derived_sizes(self):
        cfg = TrainConfig(count=1, ip_payload_bytes=1456)
        # IP payload minus IP/UDP headers minus probe header.
        assert cfg.bert_payload_len == 1456 - 28 - 28
        # Full frame on the wire: 1456 + 42 bytes at 100 Gb/s.
        assert cfg.wire_slot_ns == pytest.approx((1456 + 42) * 8 / 100.0, rel=1e-12)


class TestGenerateTrain:
    def test_timestamps_and_fields(self):
        cfg = TrainConfig(count=100, ip_payload_bytes=1456, train_id=7, vlan_id=42)
        slot = cfg.wire_slot_ns
        pkts = list(generate_train(cfg))
        assert len(pkts) == 100
        for seq, pkt in enumerate(pkts):
            assert (pkt.train_id, pkt.seq, pkt.count, pkt.vlan_id) == (7, seq, 100, 42)
            expected = round(seq * slot / CLOCK_TICK_NS) * CLOCK_TICK_NS
            assert pkt.tx_timestamp_ns == int(expected)
        payloads = {p.payload for p in pkts}
        assert payloads == {bert_payload(cfg.bert_type, cfg.bert_payload_len)}

    def test_deterministic_byte_stream(self):
        cfg = TrainConfig(count=32, ip_payload_bytes=256)
        a = b"".join(p.encode() for p in generate_train(cfg))
        b = b"".join(p.encode() for p in generate_train(cfg))
        assert a == b


def _echoes(rows):
    """[(seq, tx_ns, rx_ns | None), ...] folded as one block."""
    n = len(rows)
    tx = np.empty(n, dtype=np.float64)
    rx = np.zeros(n, dtype=np.float64)
    got = np.zeros(n, dtype=bool)
    for i, (_, t, r) in enumerate(rows):
        tx[i] = t
        if r is not None:
            rx[i] = r
            got[i] = True
    red = TrainReduction()
    red.fold(tx[got], rx[got], float(tx.min()))
    return red


class TestComputeStats:
    def test_min_mean_jitter(self):
        cfg = TrainConfig(count=3, ip_payload_bytes=1456)
        st = compute_stats(cfg, _echoes([(0, 0.0, 10000.0), (1, 100.0, 11100.0), (2, 200.0, 12200.0)]))
        assert st.rtt_us == pytest.approx(10.0)
        assert st.rtt_mean_us == pytest.approx(11.0)
        assert st.jitter_ns == pytest.approx(np.std([10000.0, 11000.0, 12000.0]))

    def test_order_insensitive(self):
        cfg = TrainConfig(count=50)
        rows = [(s, 100.0 * s, 100.0 * s + 5000.0 + 7.0 * (s % 5)) for s in range(50)]
        base = compute_stats(cfg, _echoes(rows))
        rng = random.Random(2)
        for _ in range(5):
            rng.shuffle(rows)
            st = compute_stats(cfg, _echoes(rows))
            assert st.rtt_us == base.rtt_us
            assert st.rtt_mean_us == pytest.approx(base.rtt_mean_us, rel=1e-12)
            assert st.jitter_ns == pytest.approx(base.jitter_ns, rel=1e-12)
            assert st.throughput_mbps == pytest.approx(base.throughput_mbps, rel=1e-12)

    def test_forced_loss_is_exact(self):
        cfg = TrainConfig(count=1_000_000)
        rows = [(s, float(s), float(s) + 100.0) for s in range(1_000_000)]
        rows[123_456] = (123_456, 123_456.0, None)
        st = compute_stats(cfg, _echoes(rows))
        assert st.received == 999_999
        assert st.loss_rate == 1.0e-6

    def test_fully_lost_train(self):
        cfg = TrainConfig(count=4)
        st = compute_stats(cfg, _echoes([(s, float(s), None) for s in range(4)]))
        assert st.loss_rate == 1.0
        assert st.rtt_us is None and st.jitter_ns is None and st.throughput_mbps is None

    def test_constant_rtt_has_zero_jitter(self):
        cfg = TrainConfig(count=10)
        st = compute_stats(cfg, _echoes([(s, 10.0 * s, 10.0 * s + 777.0) for s in range(10)]))
        assert st.jitter_ns == 0.0

    def test_throughput_hand_check(self):
        # 3 packets of 1456 bytes received over a 200 ns span.
        cfg = TrainConfig(count=3, ip_payload_bytes=1456)
        st = compute_stats(cfg, _echoes([(0, 0.0, 1000.0), (1, 100.0, 1100.0), (2, 200.0, 1200.0)]))
        assert st.throughput_mbps == pytest.approx(8.0 * 1456 * 3 / 200.0 * 1000.0, rel=1e-12)

    def test_single_packet_has_no_throughput(self):
        cfg = TrainConfig(count=1)
        st = compute_stats(cfg, _echoes([(0, 0.0, 500.0)]))
        assert st.throughput_mbps is None
        assert st.rtt_us == pytest.approx(0.5)

    def test_duration_spans_first_tx_to_last_rx(self):
        cfg = TrainConfig(count=2)
        st = compute_stats(cfg, _echoes([(0, 0.0, None), (1, 100.0, 500_000.0)]))
        assert st.duration_s == pytest.approx(5.0e-4)

    def test_record_round_trip(self):
        cfg = TrainConfig(count=2)
        full = compute_stats(cfg, _echoes([(0, 0.0, 100.0), (1, 10.0, 120.0)]), 55.5)
        assert TrainStats.from_record(full.to_record()) == full
        empty = compute_stats(cfg, _echoes([(0, 0.0, None), (1, 10.0, None)]))
        assert TrainStats.from_record(empty.to_record()) == empty


class TestCeiling:
    def test_reference_values(self):
        assert theoretical_ceiling_mbps(1456) == pytest.approx(97196.2617, abs=1e-3)
        assert theoretical_ceiling_mbps(42) == pytest.approx(50000.0, rel=1e-12)

    def test_monotone_in_payload(self):
        vals = [theoretical_ceiling_mbps(n) for n in range(64, 9001, 64)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v < 100_000.0 for v in vals)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            theoretical_ceiling_mbps(0)

    def test_back_to_back_train_exceeds_ceiling_by_n_over_n_minus_1(self):
        # Last-minus-first receive time spans N-1 slots, so a lossless
        # train measures ceiling * N / (N - 1).
        path = PathModel(elements=(), length_km=1.0)
        cfg = TrainConfig(count=1000, ip_payload_bytes=1456)
        st = SimulatedProbe(path, seed=9).run(cfg)
        assert st.received == 1000
        expected = theoretical_ceiling_mbps(1456) * 1000.0 / 999.0
        assert st.throughput_mbps == pytest.approx(expected, rel=1e-4)


class TestLatencyBudget:
    def test_synthetic_recovery(self):
        lb = TrainStats(10, 10, 0.9, 0.90, 0.0, None, None, two_way_propagation_us=0.06)
        sw = TrainStats(10, 10, 2.2, 2.20, 0.0, None, None, two_way_propagation_us=0.10)
        op = TrainStats(10, 10, 20.0, 20.0, 0.0, None, None, two_way_propagation_us=4.80)
        b = latency_budget(lb, sw, op)
        assert b.probe_us == pytest.approx(0.84)
        assert b.switches_us == pytest.approx(1.26)
        assert b.optical_us == pytest.approx(13.1)

    def test_missing_propagation_treated_as_zero(self):
        lb = TrainStats(1, 1, 1.0, 1.0, 0.0, None, None)
        sw = TrainStats(1, 1, 3.0, 3.0, 0.0, None, None)
        op = TrainStats(1, 1, 6.0, 6.0, 0.0, None, None)
        b = latency_budget(lb, sw, op)
        assert (b.probe_us, b.switches_us, b.optical_us) == (1.0, 2.0, 3.0)

    def test_inconsistent_stages_raise(self):
        lb = TrainStats(1, 1, 5.0, 5.0, 0.0, None, None)
        sw = TrainStats(1, 1, 3.0, 3.0, 0.0, None, None)
        op = TrainStats(1, 1, 6.0, 6.0, 0.0, None, None)
        with pytest.raises(NegativeBudget):
            latency_budget(lb, sw, op)

    def test_lost_calibration_train_raises(self):
        dead = TrainStats(10, 0, None, None, None, None, None)
        ok = TrainStats(1, 1, 3.0, 3.0, 0.0, None, None)
        with pytest.raises(NegativeBudget):
            latency_budget(dead, ok, ok)


class TestSimulatedProbe:
    def _quiet_path(self):
        elems = (
            PathElement("p1", fixed_latency_us=0.21),
            PathElement("p2", fixed_latency_us=0.21),
        )
        return PathModel(elems, length_km=2.0)

    def test_noise_free_rtt_equals_twice_one_way(self):
        path = self._quiet_path()
        probe = SimulatedProbe(path, seed=0)
        st = probe.run(TrainConfig(count=100))
        expected = probe.expected_rtt_us()
        assert expected == pytest.approx(2.0 * one_way_delay_us(path), rel=1e-12)
        # Only clock quantization separates the two (one tick per leg).
        assert st.rtt_us == pytest.approx(expected, abs=2 * CLOCK_TICK_NS / 1000.0)
        assert st.jitter_ns <= CLOCK_TICK_NS

    def test_two_way_propagation_attached(self):
        st = SimulatedProbe(self._quiet_path(), seed=1).run(TrainConfig(count=2))
        assert st.two_way_propagation_us == pytest.approx(2 * 2.0 * 4.899, rel=1e-12)

    def test_same_seed_same_stats(self):
        path = PathModel((PathElement("x", loss_prob=0.01, jitter_std_ns=2.0),), 5.0)
        cfg = TrainConfig(count=5000)
        a = SimulatedProbe(path, seed=33).run(cfg)
        b = SimulatedProbe(path, seed=33).run(cfg)
        assert a == b
        c = SimulatedProbe(path, seed=34).run(cfg)
        assert a != c

    def test_repeat_runs_draw_fresh_randomness(self):
        path = PathModel((PathElement("x", jitter_std_ns=3.0),), 1.0)
        probe = SimulatedProbe(path, seed=5)
        cfg = TrainConfig(count=1000)
        first, second = probe.run(cfg), probe.run(cfg)
        assert first.rtt_mean_us != second.rtt_mean_us

    def test_loss_applies_per_direction(self):
        path = PathModel((PathElement("x", loss_prob=0.01),), 0.0)
        st = SimulatedProbe(path, seed=7).run(TrainConfig(count=10_000))
        # Survival probability is (1 - 0.01)**2.
        expected = 1.0 - 0.99**2
        assert st.loss_rate == pytest.approx(expected, rel=0.25)


class TestStreamingKernel:
    """The simulated train runs in blocks of CHUNK packets."""

    LOSSY = PathModel((PathElement("x", fixed_latency_us=1.3, loss_prob=1e-4,
                                   jitter_std_ns=4.0),), 2.0)

    @pytest.mark.parametrize("count", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    def test_chunk_boundaries(self, count):
        cfg = TrainConfig(count=count)
        st = SimulatedProbe(self.LOSSY, seed=21).run(cfg)
        assert 0 <= st.received <= count
        if st.received:
            ticks = st.rtt_us * 1000.0 / CLOCK_TICK_NS
            assert abs(ticks - round(ticks)) < 1e-6
        assert SimulatedProbe(self.LOSSY, seed=21).run(cfg) == st

    @pytest.mark.parametrize("count", [CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    def test_lossless_train_spans_every_block(self, count):
        # First and last receive times merge across blocks: a lossless,
        # jitter-free train measures ceiling * N / (N - 1).
        path = PathModel(elements=(), length_km=1.0)
        cfg = TrainConfig(count=count, ip_payload_bytes=1456)
        st = SimulatedProbe(path, seed=4).run(cfg)
        assert st.received == count
        expected = theoretical_ceiling_mbps(1456) * count / (count - 1)
        assert st.throughput_mbps == pytest.approx(expected, rel=1e-4)
        assert st.jitter_ns <= CLOCK_TICK_NS

    def test_round_trip_survival(self):
        # Each direction loses 1%, so 0.99**2 of the train comes back.
        path = PathModel((PathElement("x", loss_prob=0.01),), 0.0)
        n = 100_000
        st = SimulatedProbe(path, seed=8).run(TrainConfig(count=n))
        p = 0.99**2
        sigma = (n * p * (1 - p)) ** 0.5
        assert abs(st.received - n * p) <= 4 * sigma

    def test_memory_does_not_grow_with_count(self):
        path = PathModel((PathElement("x", loss_prob=1e-6, jitter_std_ns=3.0),), 80.0)

        def peak_mb(count):
            probe = SimulatedProbe(path, seed=2)
            tracemalloc.start()
            try:
                probe.run(TrainConfig(count=count))
                return tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

        small, large = peak_mb(1_000_000), peak_mb(4_000_000)
        assert large <= 16.0
        assert large <= 1.1 * small


_values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=300
)


_T = CLOCK_TICK_NS
_elements = st.builds(
    PathElement,
    element_id=st.just("x"),
    # Half-tick delays (a jitter-free packet's offset is then a tie) and
    # arbitrary ones, zero included.
    fixed_latency_us=st.one_of(
        st.sampled_from([0.0, 2.5 * _T / 1000, 7.5 * _T / 1000, 12.5 * _T / 1000]),
        st.floats(min_value=0.0, max_value=50.0)),
    loss_prob=st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e-3),
                        st.floats(min_value=0.1, max_value=1.0)),
    jitter_std_ns=st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=20.0)),
)
_paths = st.builds(
    PathModel,
    st.lists(_elements, min_size=1, max_size=3).map(tuple),
    length_km=st.sampled_from([0.0, 0.0021, 41.4]),
)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestScalarBlocks:
    """Blocks of at most SCALAR_BLOCK packets run on Python lists."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(path=_paths, start=st.integers(min_value=0, max_value=CHUNK),
           n=st.integers(min_value=0, max_value=2 * SCALAR_BLOCK),
           payload=st.sampled_from([64, 1456]),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    # No delay: the first packet's jitter alone can round to -0.0.
    @example(path=PathModel((PathElement("x", jitter_std_ns=5.0),)), start=0, n=8,
             payload=64, seed=34)
    # A jitter-free offset of 2.5 ticks, a tie that goes to even.
    @example(path=PathModel((PathElement("x", fixed_latency_us=2.5 * _T / 1000),)),
             start=CHUNK, n=SCALAR_BLOCK, payload=1456, seed=2)
    def test_list_transmit_equals_array_bitwise(self, path, start, n, payload, seed):
        slot = TrainConfig(count=1, ip_payload_bytes=payload).wire_slot_ns
        tx = np.rint(np.arange(start, start + n, dtype=np.float64) * slot / _T) * _T
        rng_a, rng_l = np.random.default_rng(seed), np.random.default_rng(seed)
        back = path.reversed()
        fwd_a = transmit_train(path, tx, rng_a)
        fwd_l = transmit_train(path, tx.tolist(), rng_l)
        assert isinstance(fwd_l.rx_ns, list) and isinstance(fwd_l.delivered, list)
        assert _bits(fwd_l.rx_ns) == _bits(fwd_a.rx_ns)
        assert fwd_l.delivered == fwd_a.delivered.tolist()
        # The echo leg starts off the lattice, from the forward arrivals.
        rx = fwd_a.rx_ns[fwd_a.delivered]
        back_a = transmit_train(back, rx, rng_a)
        back_l = transmit_train(back, rx.tolist(), rng_l)
        assert _bits(back_l.rx_ns) == _bits(back_a.rx_ns)
        assert back_l.delivered == back_a.delivered.tolist()
        # Both forms drew the same numbers from the generator.
        assert rng_l.bit_generator.state == rng_a.bit_generator.state

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(path=_paths, count=st.integers(min_value=1, max_value=SCALAR_BLOCK),
           payload=st.sampled_from([64, 1456]),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           run=st.integers(min_value=0, max_value=2))
    def test_short_run_equals_per_packet_oracle(self, path, count, payload, seed, run):
        probe = SimulatedProbe(path, seed=seed)
        cfg = TrainConfig(count=count, ip_payload_bytes=payload)
        for _ in range(run):
            probe.run(cfg)
        assert probe.run(cfg) == per_packet_train(path, cfg, seed, run)


_summands = st.one_of(
    # Any finite magnitude, subnormals and signed zeros included.
    st.floats(allow_nan=False, allow_infinity=False),
    # Comparable magnitudes, whose rounding depends on the order of the adds.
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.lists(_summands, min_size=1, max_size=SCALAR_BLOCK))
@example([-0.0])  # the sum of negative zeros is +0.0, as from a start of 0
@example([0.1, 0.2, 0.3])  # 0.1 + (0.2 + 0.3) would give other bits
@example([1e16, 1.0, 1.0, 1.0, 1.0, 1.0, -1e16])
def test_add_reduce_is_left_to_right(values):
    """The rule ``TrainReduction.fold`` relies on: up to ``SCALAR_BLOCK``
    values, NumPy's ``np.add.reduce`` is the left-to-right Python sum, so
    a block folded as a list and as an array give the same bits."""
    total = sum_left_to_right(values)
    assume(math.isfinite(total))
    assert _bits([np.add.reduce(np.array(values))]) == _bits([total])


def _reduction_bits(red: TrainReduction) -> tuple:
    fields = vars(red)
    return fields.pop("received"), _bits(list(fields.values()))


_stamps = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(min_value=-1e6, max_value=1e6))


class TestTrainReduction:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pairs=st.lists(st.tuples(_stamps, _stamps), min_size=1, max_size=SCALAR_BLOCK),
           prior=st.one_of(st.none(), _values))
    # An RTT of -0.0 (received at -0.0, sent at 0.0) ties one of +0.0,
    # and so do the receive times.
    @example(pairs=[(0.0, -0.0), (0.0, 0.0)], prior=None)
    @example(pairs=[(0.0, 0.0), (0.0, -0.0)], prior=[0.0, 5.0])
    @example(pairs=[(0.0, -0.0)] * SCALAR_BLOCK, prior=[-0.0])
    def test_list_fold_equals_array_fold_bitwise(self, pairs, prior):
        tx, rx = [p[0] for p in pairs], [p[1] for p in pairs]
        red_list, red_array = TrainReduction(), TrainReduction()
        if prior is not None:
            for red in (red_list, red_array):
                red.fold(np.zeros(len(prior)), np.array(prior), 0.0)
        red_list.fold(tx, rx, 1.0)
        red_array.fold(np.array(tx), np.array(rx), 1.0)
        assert _reduction_bits(red_list) == _reduction_bits(red_array)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=20), _values)
    def test_merge_is_the_pairwise_update_in_order(self, first, second):
        # The artifacts' last bits depend on the order of these operations,
        # also when the reduction merged into is empty.
        a, b = TrainReduction(), TrainReduction()
        a.fold(np.zeros(len(first)), np.array(first), 0.0)
        b.fold(np.zeros(len(second)), np.array(second), 0.0)
        na, nb = a.received, b.received
        delta = b.rtt_mean_ns - a.rtt_mean_ns
        mean = a.rtt_mean_ns + delta * nb / (na + nb)
        m2 = a.rtt_m2 + (b.rtt_m2 + delta * delta * na * nb / (na + nb))
        a.merge(b)
        assert _bits([a.rtt_mean_ns, a.rtt_m2]) == _bits([mean, m2])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_values, st.lists(st.integers(min_value=0, max_value=300), max_size=8))
    @example([0.0, -0.0, 1.0], [])  # Python and NumPy break this tie apart
    def test_merged_splits_equal_one_shot(self, values, cuts):
        x = np.array(values)
        bounds = sorted({0, len(x), *(c for c in cuts if c <= len(x))})
        red, red_lists = TrainReduction(), TrainReduction()
        for lo, hi in zip(bounds, bounds[1:]):
            block = TrainReduction()
            block.fold(np.zeros(hi - lo), x[lo:hi], 0.0)
            red.merge(block)
            red_lists.fold([0.0] * (hi - lo), values[lo:hi], 0.0)
        # Blocks given as lists fold to the same bits, signed zeros included.
        assert repr(red_lists) == repr(red)
        scale = float(np.abs(x).max())
        assert red.received == len(x)
        assert red.rtt_min_ns == float(x.min())
        assert red.rtt_mean_ns == pytest.approx(float(np.mean(x)), rel=1e-12,
                                                abs=1e-12 * scale)
        std = (red.rtt_m2 / red.received) ** 0.5
        assert std == pytest.approx(float(np.std(x)), rel=1e-12, abs=1e-12 * scale)

    def test_empty_blocks_leave_it_unchanged(self):
        red = TrainReduction()
        red.fold(np.zeros(3), np.array([5.0, 7.0, 9.0]), 0.0)
        before = TrainReduction(**vars(red))
        red.merge(TrainReduction())
        red.fold(np.zeros(0), np.zeros(0), 100.0)
        assert red == before

    def test_echo_set_matches_numpy(self):
        rng = np.random.default_rng(3)
        n = 200_000
        tx = np.arange(n) * 119.8
        rx = tx + 800_000.0 + rng.normal(0.0, 5.0, n)
        got = rng.random(n) > 0.01
        cfg = TrainConfig(count=n)
        red = TrainReduction()
        red.fold(tx[got], rx[got], float(tx.min()))
        st = compute_stats(cfg, red)
        rtt = rx[got] - tx[got]
        assert st.received == int(got.sum())
        assert st.rtt_us == float(rtt.min()) / 1000.0
        assert st.rtt_mean_us == pytest.approx(float(np.mean(rtt)) / 1000.0, rel=1e-12)
        assert st.jitter_ns == pytest.approx(float(np.std(rtt)), rel=1e-9)
        assert st.duration_s == pytest.approx((rx[got].max() - tx.min()) / 1e9, rel=1e-12)


class TestQuantizedDelayPmf:
    """The law of one traversal's delay in ticks, against transmit_train."""

    N = 1_000_000

    def _offsets(self, path, seed):
        slot = TrainConfig(count=1).wire_slot_ns
        tx = np.rint(np.arange(self.N) * slot / CLOCK_TICK_NS) * CLOCK_TICK_NS
        out = transmit_train(path, tx, np.random.default_rng(seed))
        got = out.delivered
        return np.rint((out.rx_ns[got] - tx[got]) / CLOCK_TICK_NS).astype(np.int64)

    def _check(self, path, seed):
        lo, pmf = quantized_delay_pmf(path)
        assert pmf.min() >= 0.0
        assert pmf.sum() == pytest.approx(1.0, abs=1e-15)
        offsets = self._offsets(path, seed) - lo
        assert offsets.min() >= 0 and offsets.max() < pmf.size
        n = offsets.size
        counts = np.bincount(offsets, minlength=pmf.size)
        sd = np.sqrt(n * pmf * (1.0 - pmf))
        assert np.all(np.abs(counts - n * pmf) <= 4.0 * sd + 1e-9), (counts, n * pmf)

    def test_no_jitter_is_one_bin(self):
        path = PathModel((PathElement("x", fixed_latency_us=1.234),), 0.3)
        lo, pmf = quantized_delay_pmf(path)
        assert lo == round(one_way_delay_us(path) * 1000.0 / CLOCK_TICK_NS)
        assert pmf.tolist() == [1.0]
        self._check(path, seed=1)

    def test_no_jitter_on_a_half_tick_is_one_bin(self):
        # The tie goes to even, for every packet alike.
        path = PathModel((PathElement("x", fixed_latency_us=2.5 * CLOCK_TICK_NS / 1000),))
        lo, pmf = quantized_delay_pmf(path)
        assert (lo, pmf.tolist()) == (2, [1.0])
        self._check(path, seed=4)

    def test_jittered_delay_on_a_half_tick(self):
        path = PathModel((PathElement("x", fixed_latency_us=7.5 * CLOCK_TICK_NS / 1000,
                                      jitter_std_ns=1.2),))
        lo, pmf = quantized_delay_pmf(path)
        # The mean sits on the edge between offsets 7 and 8: symmetric law.
        assert pmf[7 - lo] == pytest.approx(pmf[8 - lo], rel=1e-12)
        assert pmf == pytest.approx(pmf[::-1], rel=1e-9, abs=1e-300)
        self._check(path, seed=2)

    @pytest.mark.parametrize("label", ["probe-loopback", "agg-switches", "optical-2m",
                                       "optical-41km", "optical-80km"])
    def test_packaged_paths(self, scenario, label):
        row = next(r for r in scenario.rows if r.label == label)
        path = path_from_nodes(scenario.topology, row.path_nodes, row.length_km,
                               overrides=scenario.element_overrides)
        self._check(path, seed=3)


class TestLongTrains:
    """Trains above CHUNK packets: edge packets simulated, middle drawn."""

    LOSSY = PathModel((PathElement("a", fixed_latency_us=1.3, loss_prob=0.02,
                                   jitter_std_ns=4.0),
                       PathElement("b", fixed_latency_us=0.7, jitter_std_ns=3.0)), 2.0)
    HEAVY = PathModel((PathElement("a", fixed_latency_us=1.3, loss_prob=0.3,
                                   jitter_std_ns=6.0),), 0.5)

    @pytest.mark.parametrize("path, count, payload", [
        (LOSSY, CHUNK + 1000, 64),
        (HEAVY, CHUNK + 1, 1456),
    ])
    def test_law_matches_per_packet_kernel(self, path, count, payload):
        # Two-sample z-test of each statistic's mean over many trains.
        trains = 80
        cfg = TrainConfig(count=count, ip_payload_bytes=payload)
        probe = SimulatedProbe(path, seed=5)
        fast = [probe.run(cfg) for _ in range(trains)]
        slow = [per_packet_train(path, cfg, seed=6, run=r) for r in range(trains)]
        for name in ("received", "rtt_mean_us", "jitter_ns", "throughput_mbps",
                     "duration_s"):
            x = np.array([getattr(s, name) for s in fast], dtype=np.float64)
            y = np.array([getattr(s, name) for s in slow], dtype=np.float64)
            se = math.sqrt((x.var(ddof=1) + y.var(ddof=1)) / trains)
            assert abs(x.mean() - y.mean()) <= 4.5 * se, name
        # First and last receive times come from the walked edges, so every
        # train's receive span covers nearly its whole send span.
        for s in fast + slow:
            span_ns = 8.0 * payload * s.received / s.throughput_mbps * 1000.0
            assert span_ns > 0.99 * (count - 1) * cfg.wire_slot_ns

    LOSSY2 = PathModel((PathElement("a", fixed_latency_us=0.9, loss_prob=0.05,
                                    jitter_std_ns=3.0),
                        PathElement("b", fixed_latency_us=0.4, jitter_std_ns=2.0)), 1.0)
    PINNED = {
        # (count, payload): the first two runs of SimulatedProbe(LOSSY2, seed=21)
        (1, 1456): [
            TrainStats(1, 1, 12.3969, 12.3969, 0.0, None, 1.23969e-05, 9.798),
            TrainStats(1, 1, 12.3969, 12.3969, 0.0, None, 1.23969e-05, 9.798),
        ],
        (1000, 1456): [
            TrainStats(1000, 903, 12.3845, 12.39801572535991, 5.0517868180723,
                       87863.83046973676, 0.0001321096, 9.798),
            TrainStats(1000, 904, 12.381399999999994, 12.398089933628318,
                       5.200191282647631, 87947.46768096404, 0.0001321251, 9.798),
        ],
        (CHUNK, 64): [
            TrainStats(65536, 59108, 12.375199999999998, 12.397971689111456,
                       5.266107044994124, 54457.362513734326, 0.0005681401, 9.798),
            TrainStats(65536, 59051, 12.375199999999982, 12.398034197558044,
                       5.267636870139066, 54403.93684819299, 0.000568137, 9.798),
        ],
    }

    @pytest.mark.parametrize("count, payload", list(PINNED))
    def test_short_trains_are_pinned(self, count, payload):
        # Trains of at most CHUNK packets are simulated packet by packet in
        # one block, and their values do not change.
        probe = SimulatedProbe(self.LOSSY2, seed=21)
        cfg = TrainConfig(count=count, ip_payload_bytes=payload)
        runs = [probe.run(cfg), probe.run(cfg)]
        assert runs == self.PINNED[count, payload]
        assert runs == [per_packet_train(self.LOSSY2, cfg, 21, r) for r in range(2)]

    @pytest.mark.parametrize("count", [10, CHUNK + 1, MAX_TRAIN_COUNT])
    def test_total_loss(self, count):
        path = PathModel((PathElement("x", loss_prob=1.0, jitter_std_ns=2.0),), 1.0)
        st = SimulatedProbe(path, seed=3).run(TrainConfig(count=count))
        assert (st.received, st.rtt_us, st.throughput_mbps) == (0, None, None)

    def test_longest_train_is_fast_and_small(self):
        path = PathModel((PathElement("x", fixed_latency_us=12.0, jitter_std_ns=5.0),), 80.0)
        cfg = TrainConfig(count=MAX_TRAIN_COUNT)
        t0 = time.perf_counter()
        st = SimulatedProbe(path, seed=4).run(cfg)
        assert time.perf_counter() - t0 < 1.0
        assert st.received == MAX_TRAIN_COUNT
        ticks = st.rtt_us * 1000.0 / CLOCK_TICK_NS
        assert abs(ticks - round(ticks)) < 1e-6
        assert st.rtt_mean_us == pytest.approx(2.0 * one_way_delay_us(path), abs=0.01)
        expected = theoretical_ceiling_mbps(1456) * st.received / (st.received - 1)
        assert st.throughput_mbps == pytest.approx(expected, rel=1e-6)
        tracemalloc.start()
        try:
            SimulatedProbe(path, seed=5).run(cfg)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak_mb < 16.0


class TestRttLawMemo:
    """``dataplane.rtt_law`` keeps one law per distinct pair of legs."""

    CFG = TrainConfig(count=CHUNK + 1000, ip_payload_bytes=64)
    #: Three elements whose latencies sum to other bits in reverse order.
    SKEWED = PathModel(tuple(PathElement(n, fixed_latency_us=d, jitter_std_ns=2.0)
                             for n, d in (("a", 0.1), ("b", 0.2), ("c", 0.3))), 1.0)

    @pytest.fixture
    def leg_builds(self, monkeypatch):
        """Clears the memo and counts the leg laws built from then on."""
        calls = []
        build = dataplane._leg_delay_pmf

        def counted(sigma, delay_ns):
            calls.append((sigma, delay_ns))
            return build(sigma, delay_ns)

        monkeypatch.setattr(dataplane, "_leg_delay_pmf", counted)
        dataplane._rtt_law_of.cache_clear()
        return calls

    def test_equal_paths_build_the_law_once(self, leg_builds):
        lossy = TestLongTrains.LOSSY
        twin = PathModel(lossy.elements, lossy.length_km)
        assert twin is not lossy
        SimulatedProbe(lossy, seed=1).run(self.CFG)
        SimulatedProbe(twin, seed=2).run(self.CFG)
        # The two legs sum the same elements to the same bits: one leg law.
        assert len(leg_builds) == 1
        info = dataplane._rtt_law_of.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_differing_reverse_leg_builds_two_leg_laws(self, leg_builds):
        back = self.SKEWED.reversed()
        assert self.SKEWED.traversal[1:] != back.traversal[1:]
        SimulatedProbe(self.SKEWED, seed=1).run(self.CFG)
        assert leg_builds == [self.SKEWED.traversal[1:], back.traversal[1:]]

    def test_cached_arrays_are_read_only(self):
        rtt_ns, p = rtt_law(self.SKEWED, self.SKEWED.reversed())
        for array in (rtt_ns, p):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def _paths(self, scenario):
        rows = [path_from_nodes(scenario.topology, r.path_nodes, r.length_km,
                                overrides=scenario.element_overrides)
                for r in scenario.rows]
        return [(p, scenario.probe_cfg) for p in rows] + [
            (TestLongTrains.LOSSY, self.CFG), (TestLongTrains.HEAVY, self.CFG)]

    def test_cold_and_warm_probes_agree(self, scenario):
        assert len(scenario.rows) == 5
        for seed, (path, cfg) in enumerate(self._paths(scenario)):
            SimulatedProbe(path, seed=seed + 100).run(cfg)
            warm = repr(SimulatedProbe(path, seed=seed).run(cfg))
            dataplane._rtt_law_of.cache_clear()
            assert repr(SimulatedProbe(path, seed=seed).run(cfg)) == warm

    def test_bounded_and_evicted_law_rebuilds_to_the_same_bits(self):
        dataplane._rtt_law_of.cache_clear()
        paths = [PathModel((PathElement("x", fixed_latency_us=1.0,
                                        jitter_std_ns=1.0 + i),))
                 for i in range(LAW_CACHE_SIZE + 1)]
        first = [a.copy() for a in rtt_law(paths[0], paths[0])]
        for p in paths[1:]:
            rtt_law(p, p)
        info = dataplane._rtt_law_of.cache_info()
        assert (info.currsize, info.misses) == (LAW_CACHE_SIZE, LAW_CACHE_SIZE + 1)
        again = rtt_law(paths[0], paths[0])
        assert dataplane._rtt_law_of.cache_info().misses == LAW_CACHE_SIZE + 2
        for a, b in zip(first, again):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
