"""Packet-train active probe.

Generates deterministic probe trains, encodes them in the on-wire header
format below, computes train statistics (RTT, jitter, throughput, loss),
and decomposes the fixed latency budget from calibration measurements.

Wire header, big-endian, 28 bytes:

    offset  size  field
    0       4     magic 0x4D485052
    4       1     version (1)
    5       1     flags
    6       2     vlan id
    8       4     train id
    12      4     sequence number
    16      4     train packet count
    20      8     tx timestamp, ns

The remainder of the datagram is BERT filler (zeros, incrementing bytes,
or PRBS-31 seeded with 0x7FFFFFFF).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import compress

import numpy as np

from .dataplane import (
    CLOCK_TICK_NS,
    LINE_RATE_GBPS,
    PathModel,
    one_way_delay_us,
    quantize_ns,
    rtt_law,
    serialization_delay_ns,
    transmit_train,
)
from .model import memo
from .records import Record

MAGIC = 0x4D485052
VERSION = 1
HEADER_STRUCT = struct.Struct(">IBBHIIIQ")
HEADER_LEN = HEADER_STRUCT.size  # 28

#: Ethernet header + VLAN tag + FCS + preamble + interframe gap.
FRAME_OVERHEAD_BYTES = 42

#: IPv4 + UDP headers, already inside the IP-layer byte count.
IP_UDP_HEADER_BYTES = 28

MAX_TRAIN_COUNT = 2**32 - 1

#: Packets per block of the simulated train kernel.
CHUNK = 1 << 16

#: Largest block the simulated kernel sends, and ``TrainReduction.fold``
#: sums, as Python lists rather than arrays: the longest that
#: ``np.add.reduce`` sums left to right, as Python does.
SCALAR_BLOCK = 7


class ProbeError(Exception):
    pass


class ProbeTimeout(ProbeError):
    """Train did not complete in time; carries the partial statistics."""

    def __init__(self, message: str, stats: "TrainStats"):
        super().__init__(message)
        self.stats = stats


class NegativeBudget(ProbeError):
    """Calibration measurements are inconsistent (later stage faster)."""


class BertType(str, Enum):
    ZEROS = "Zeros"
    INCREMENTING = "Incrementing"
    PRBS31 = "Prbs31"


@dataclass(frozen=True)
class TrainConfig:
    """Everything needed to emit and account one probe train."""

    count: int = 1_000_000
    ip_payload_bytes: int = 1456
    train_id: int = 1
    vlan_id: int = 100
    bert_type: BertType = BertType.PRBS31
    timeout_ms: int = 10_000

    def __post_init__(self) -> None:
        if not 1 <= self.count <= MAX_TRAIN_COUNT:
            raise ValueError(f"count must be in [1, {MAX_TRAIN_COUNT}]")
        if not 64 <= self.ip_payload_bytes <= 9000:
            raise ValueError("ip_payload_bytes must be in [64, 9000]")
        if not 0 <= self.vlan_id < 4096:
            raise ValueError("vlan_id must be a 12-bit value")
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be > 0")

    @property
    def bert_payload_len(self) -> int:
        return self.ip_payload_bytes - IP_UDP_HEADER_BYTES - HEADER_LEN

    @property
    def wire_slot_ns(self) -> float:
        """Back-to-back packet spacing at line rate, full frame on the wire."""
        return serialization_delay_ns(self.ip_payload_bytes + FRAME_OVERHEAD_BYTES)


# ---------------------------------------------------------------------------
# BERT payloads

#: PRBS-31 polynomial x**31 + x**28 + 1, as (register length, second tap).
PRBS31_TAPS = (31, 28)
PRBS31_SEED = 0x7FFFFFFF


def prbs31_bytes(n: int) -> bytes:
    """First n bytes of the PRBS-31 bit stream, MSB-first packing."""
    state = PRBS31_SEED
    out = bytearray(n)
    hi, lo = PRBS31_TAPS
    for i in range(n):
        byte = 0
        for _ in range(8):
            bit = ((state >> (hi - 1)) ^ (state >> (lo - 1))) & 1
            state = ((state << 1) | bit) & 0x7FFFFFFF
            byte = (byte << 1) | bit
        out[i] = byte
    return bytes(out)


@memo(32)
def bert_payload(bert_type: BertType, n: int) -> bytes:
    if n <= 0:
        return b""
    if bert_type is BertType.ZEROS:
        return bytes(n)
    if bert_type is BertType.INCREMENTING:
        return bytes(i & 0xFF for i in range(n))
    return prbs31_bytes(n)


# ---------------------------------------------------------------------------
# Packets and codec


@dataclass(frozen=True)
class ProbePacket:
    train_id: int
    seq: int
    count: int
    vlan_id: int
    tx_timestamp_ns: int
    flags: int = 0
    payload: bytes = b""

    def encode(self) -> bytes:
        return (
            HEADER_STRUCT.pack(
                MAGIC,
                VERSION,
                self.flags,
                self.vlan_id,
                self.train_id,
                self.seq,
                self.count,
                self.tx_timestamp_ns,
            )
            + self.payload
        )


def decode_packet(buf: bytes) -> ProbePacket:
    if len(buf) < HEADER_LEN:
        raise ProbeError(f"short packet: {len(buf)} bytes")
    magic, version, flags, vlan, train_id, seq, count, tx_ns = HEADER_STRUCT.unpack(
        buf[:HEADER_LEN]
    )
    if magic != MAGIC:
        raise ProbeError(f"bad magic 0x{magic:08X}")
    if version != VERSION:
        raise ProbeError(f"unsupported version {version}")
    return ProbePacket(
        train_id=train_id,
        seq=seq,
        count=count,
        vlan_id=vlan,
        tx_timestamp_ns=tx_ns,
        flags=flags,
        payload=buf[HEADER_LEN:],
    )


def _send_time_ns(i: int, slot_ns: float) -> float:
    """Send time of packet ``i`` of a back-to-back train: its line-rate
    slot, quantized to the capture clock tick."""
    return round(i * slot_ns / CLOCK_TICK_NS) * CLOCK_TICK_NS


def generate_train(cfg: TrainConfig):
    """Yield the train's packets with back-to-back line-rate tx timestamps.

    Timestamps are quantized to the capture clock tick. The payload is the
    same BERT pattern for every packet, so the byte stream is a pure
    function of the config.
    """
    payload = bert_payload(cfg.bert_type, cfg.bert_payload_len)
    slot = cfg.wire_slot_ns
    for seq in range(cfg.count):
        yield ProbePacket(
            train_id=cfg.train_id,
            seq=seq,
            count=cfg.count,
            vlan_id=cfg.vlan_id,
            tx_timestamp_ns=int(_send_time_ns(seq, slot)),
            payload=payload,
        )


# ---------------------------------------------------------------------------
# Train reductions and statistics


@dataclass
class TrainReduction:
    """Mergeable summary of a train's echoes, built block by block.

    Holds the received count, the minimum, mean and sum of squared
    deviations (``m2``) of the RTT, the first and last receive times and
    the earliest send time of any packet, lost ones included. Blocks
    combine with the pairwise update of Chan, Golub and LeVeque (The
    American Statistician 37(3), 1983), so a train of any length reduces
    in memory bounded by its largest block.
    """

    received: int = 0
    rtt_min_ns: float = math.inf
    rtt_mean_ns: float = 0.0
    rtt_m2: float = 0.0
    first_rx_ns: float = math.inf
    last_rx_ns: float = -math.inf
    first_tx_ns: float = math.inf

    def fold(self, tx_ns: np.ndarray | list[float], rx_ns: np.ndarray | list[float],
             sent_from_ns: float) -> None:
        """Add one block: the (tx, rx) pairs it received, and the earliest
        tx of every packet it sent.

        Lists or arrays, with the same bits. A list of at most
        ``SCALAR_BLOCK`` packets sums its RTTs and squared deviations in
        Python floats, left to right from 0; anything longer sums with
        ``np.add.reduce``. Up to 7 elements NumPy's pairwise sum is that
        same left-to-right loop (``test_add_reduce_is_left_to_right`` pins
        it on the installed NumPy); from 8 it keeps 8 partial sums.
        Neither here nor in :meth:`fold_histogram` does a sum go through
        ``np.dot``, whose BLAS kernel picks its summation order by CPU and
        thread count.
        """
        self.first_tx_ns = min(self.first_tx_ns, sent_from_ns)
        n = len(rx_ns)
        if n == 0:
            return
        if isinstance(rx_ns, list) and n <= SCALAR_BLOCK:
            rtt = [rx - tx for rx, tx in zip(rx_ns, tx_ns)]
            total = 0
            for r in rtt:
                total += r
            mean = total / n
            m2 = 0
            for r in rtt:
                dev = r - mean
                m2 += dev * dev
            lo, first, last = min(rtt), min(rx_ns), max(rx_ns)
        else:
            rx_ns = np.asarray(rx_ns)
            rtt = rx_ns - tx_ns
            lo = float(np.minimum.reduce(rtt))
            first = float(np.minimum.reduce(rx_ns))
            last = float(np.maximum.reduce(rx_ns))
            # ndarray.mean's own sum and division, without its Python wrapper.
            mean = float(np.add.reduce(rtt)) / n
            rtt -= mean
            m2 = float(np.add.reduce(np.square(rtt, out=rtt)))
        # Python and NumPy break a tie between -0.0 and 0.0 differently;
        # adding 0.0 makes every zero +0.0, and leaves other values alone.
        self._add(n, mean, m2, lo + 0.0, first + 0.0, last + 0.0)

    def fold_histogram(self, rtt_ns: np.ndarray, counts: np.ndarray, n: int) -> None:
        """Add ``n`` > 0 packets known only by their RTT histogram:
        ``counts[i]`` packets of RTT ``rtt_ns[i]``, the bins ascending and
        the counts summing to ``n``, receive times untracked."""
        got = counts > 0
        rtt, weight = rtt_ns[got], counts[got].astype(np.float64)
        mean = float(np.add.reduce(weight * rtt)) / n
        dev = rtt - mean
        self._add(n, mean, float(np.add.reduce(weight * dev * dev)), float(rtt[0]),
                  math.inf, -math.inf)

    def merge(self, other: "TrainReduction") -> None:
        """Combine ``other`` into this reduction."""
        if other.received:
            self._add(other.received, other.rtt_mean_ns, other.rtt_m2, other.rtt_min_ns,
                      other.first_rx_ns, other.last_rx_ns)
        self.first_tx_ns = min(self.first_tx_ns, other.first_tx_ns)

    def _add(self, nb: int, mean: float, m2: float, rtt_min_ns: float,
             first_rx_ns: float, last_rx_ns: float) -> None:
        """The pairwise update by a block of ``nb`` > 0 packets, given by
        its parts, with no ``TrainReduction`` built for it."""
        na = self.received
        n = na + nb
        delta = mean - self.rtt_mean_ns
        self.rtt_mean_ns += delta * nb / n
        self.rtt_m2 += m2 + delta * delta * na * nb / n
        self.received = n
        self.rtt_min_ns = min(self.rtt_min_ns, rtt_min_ns)
        self.first_rx_ns = min(self.first_rx_ns, first_rx_ns)
        self.last_rx_ns = max(self.last_rx_ns, last_rx_ns)


@dataclass(frozen=True, slots=True)
class TrainStats(Record):
    """Aggregate results of one train.

    ``rtt_us`` is the minimum over the train (robust to jitter);
    ``rtt_mean_us`` is the average, which calibration reports use.
    Throughput is IP-layer: payload bytes over the first-to-last receive
    interval, so it excludes Ethernet overhead by construction.
    """

    count: int
    received: int
    rtt_us: float | None
    rtt_mean_us: float | None
    jitter_ns: float | None
    throughput_mbps: float | None
    duration_s: float | None
    two_way_propagation_us: float | None = None

    DERIVED = ("loss_rate",)

    def __post_init__(self) -> None:
        if not 0 <= self.received <= self.count or self.count < 1:
            raise ValueError(f"count {self.count}, received {self.received}")

    @property
    def lost(self) -> int:
        return self.count - self.received

    @property
    def loss_rate(self) -> float:
        return self.lost / self.count


def compute_stats(
    cfg: TrainConfig,
    red: TrainReduction,
    two_way_propagation_us: float | None = None,
) -> TrainStats:
    """Turn a train's reduction into its statistics.

    Order-insensitive: only the (tx, rx) pairs folded into ``red`` matter.
    A fully lost train yields loss 1.0 with undefined RTT rather than an
    error.
    """
    received = red.received
    if received == 0:
        return TrainStats(cfg.count, 0, None, None, None, None, None,
                          two_way_propagation_us)
    first_rx, last_rx = red.first_rx_ns, red.last_rx_ns
    if received > 1 and last_rx > first_rx:
        thr_mbps = (
            8.0 * cfg.ip_payload_bytes * received / (last_rx - first_rx) * 1000.0
        )
    else:
        thr_mbps = None
    return TrainStats(
        count=cfg.count,
        received=received,
        rtt_us=red.rtt_min_ns / 1000.0,
        rtt_mean_us=red.rtt_mean_ns / 1000.0,
        jitter_ns=math.sqrt(red.rtt_m2 / received),
        throughput_mbps=thr_mbps,
        duration_s=(last_rx - red.first_tx_ns) / 1e9,
        two_way_propagation_us=two_way_propagation_us,
    )


def theoretical_ceiling_mbps(ip_payload_bytes: int) -> float:
    """Best possible IP-layer throughput on a 100 Gb/s interface.

    Every frame pays 42 bytes of Ethernet overhead (header, VLAN tag, FCS,
    preamble, interframe gap), so the ceiling is 100000 * L / (L + 42).
    """
    if ip_payload_bytes <= 0:
        raise ValueError("ip_payload_bytes must be > 0")
    return (LINE_RATE_GBPS * 1000.0 * ip_payload_bytes
            / (ip_payload_bytes + FRAME_OVERHEAD_BYTES))


# ---------------------------------------------------------------------------
# Latency budget decomposition


@dataclass(frozen=True)
class LatencyBudget(Record):
    """Two-way fixed-latency contributions, in microseconds."""

    probe_us: float
    switches_us: float
    optical_us: float


def _fixed_delta_us(stats: TrainStats) -> float:
    if stats.rtt_mean_us is None:
        raise NegativeBudget("calibration train has no received packets")
    prop = stats.two_way_propagation_us or 0.0
    return stats.rtt_mean_us - prop

def latency_budget(
    loopback: TrainStats,
    switches: TrainStats,
    optical: TrainStats,
) -> LatencyBudget:
    """Decompose fixed two-way latency from three calibration setups.

    loopback: probe alone, switches: probe + aggregation switches,
    optical: probe + switches + the full optical path. Each stage's delta
    is its RTT minus the fibre propagation; differences isolate the
    contribution of each element class.
    """
    d_probe = _fixed_delta_us(loopback)
    d_switch = _fixed_delta_us(switches)
    d_optical = _fixed_delta_us(optical)
    budget = LatencyBudget(
        probe_us=d_probe,
        switches_us=d_switch - d_probe,
        optical_us=d_optical - d_switch,
    )
    if min(budget.probe_us, budget.switches_us, budget.optical_us) < 0:
        raise NegativeBudget(
            f"inconsistent calibration deltas: {d_probe}, {d_switch}, {d_optical}"
        )
    return budget


# ---------------------------------------------------------------------------
# Simulated measurement backend


def train_rng(seed: int, run: int) -> np.random.Generator:
    """The generator run ``run`` of a probe seeded ``seed`` draws from:
    the one ``np.random.default_rng`` builds from
    ``SeedSequence(entropy=seed, spawn_key=(run, 0))``, without its
    dispatch on the seed's type."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(run, 0))
    return np.random.Generator(np.random.PCG64(seq))


class SimulatedProbe:
    """Round-trip train measurement over a dataplane path model.

    The train traverses the path forward, is looped by the remote probe,
    and traverses the reverse path; each direction applies loss and jitter
    independently. With zero jitter and zero loss the measured RTT is
    exactly twice the one-way delay, up to clock-tick quantization.

    Run ``r`` draws from ``train_rng(seed, r)``.
    A train of at most ``CHUNK`` packets is simulated packet by packet in
    one block, forward then reverse. A longer train is simulated packet
    by packet only at its edges, which alone set the first and last
    receive times; see ``_long_train``. Its middle draws from the RTT law
    of the two legs, which ``dataplane.rtt_law`` keeps by value, so
    probes on paths of equal jitter and delay build it once between them.

    The reverse leg is ``path.reversed()``, which the model keeps, and
    each leg's loss, jitter and delay are its ``traversal``, computed once
    per model. A probe over a model that ``dataplane.path_from_nodes``
    shared with an earlier probe so pays for neither, and its first train
    costs what its later ones do.
    """

    def __init__(self, path: PathModel, seed: int):
        self.path = path
        self.seed = seed
        self._runs = 0
        self._back_path = path.reversed()

    def run(self, cfg: TrainConfig) -> TrainStats:
        run = self._runs
        self._runs += 1
        rng = train_rng(self.seed, run)
        if cfg.count <= CHUNK:
            red = TrainReduction()
            _simulate_block(self.path, self._back_path, cfg.wire_slot_ns, 0,
                            cfg.count, rng, red)
        else:
            red = self._long_train(cfg, rng)
        two_way_prop = 2.0 * self.path.length_km * self.path.prop_const_us_per_km
        return compute_stats(cfg, red, two_way_propagation_us=two_way_prop)

    def _long_train(self, cfg: TrainConfig, rng: np.random.Generator) -> TrainReduction:
        """Edge packets one by one, the middle from its exact law.

        On the clock lattice a packet's RTT is ``tick * (a + b)``, with
        ``a`` and ``b`` the quantized delays of the two legs: iid, and
        independent of the packet's index and of loss. So the middle of
        the train only needs its survivor count, binomial, and its RTT
        histogram, one multinomial draw (Devroye, *Non-Uniform Random
        Variate Generation*, 1986, ch. XI). The head is simulated in
        blocks walking inwards until no packet left in the middle could
        arrive before the earliest receive time seen; the tail likewise
        for the latest. Blocks start at the packet count that spans the
        RTT support and double up to ``CHUNK``.
        """
        fwd_path, back_path = self.path, self._back_path
        red = TrainReduction()
        surv = (1.0 - fwd_path.traversal[0]) * (1.0 - back_path.traversal[0])
        if surv == 0.0:
            return red
        rtt_ns, p_ab = rtt_law(fwd_path, back_path)
        rtt_lo_ns, rtt_hi_ns = float(rtt_ns[0]), float(rtt_ns[-1])
        slot = cfg.wire_slot_ns
        first_block = min(math.ceil((rtt_hi_ns - rtt_lo_ns) / slot) + 1, CHUNK)
        head, tail = 0, cfg.count
        size = first_block
        while head < tail:
            stop = min(head + size, tail)
            _simulate_block(fwd_path, back_path, slot, head, stop, rng, red)
            head = stop
            if red.first_rx_ns <= _send_time_ns(head, slot) + rtt_lo_ns:
                break
            size = min(2 * size, CHUNK)
        size = first_block
        while head < tail:
            start = max(tail - size, head)
            _simulate_block(fwd_path, back_path, slot, start, tail, rng, red)
            tail = start
            if red.last_rx_ns >= _send_time_ns(tail - 1, slot) + rtt_hi_ns:
                break
            size = min(2 * size, CHUNK)
        if tail > head:
            survivors = int(rng.binomial(tail - head, surv))
            if survivors:
                red.fold_histogram(rtt_ns, rng.multinomial(survivors, p_ab), survivors)
        return red

    def expected_rtt_us(self) -> float:
        return 2.0 * one_way_delay_us(self.path)


def _simulate_block(fwd_path: PathModel, back_path: PathModel, slot_ns: float,
                    start: int, stop: int, rng: np.random.Generator,
                    red: TrainReduction) -> None:
    """Send packets ``start``..``stop - 1`` of a train forward and back,
    packet by packet, and fold their echoes into ``red``.

    A block of at most ``SCALAR_BLOCK`` packets goes as Python lists, a
    longer one as arrays; the two give the same bits. Both legs look
    ``transmit_train`` up in this module on every call, so a wrapper
    installed here sees them.
    """
    as_lists = stop - start <= SCALAR_BLOCK
    if as_lists:
        tx_ns = [_send_time_ns(i, slot_ns) for i in range(start, stop)]
    else:
        tx_ns = quantize_ns(np.arange(start, stop, dtype=np.float64) * slot_ns)
    sent_from = float(tx_ns[0])
    rx_ns = tx_ns
    for path in (fwd_path, back_path):
        leg = transmit_train(path, rx_ns, rng)
        rx_ns, got = leg.rx_ns, leg.delivered
        if as_lists:
            if not all(got):
                tx_ns, rx_ns = list(compress(tx_ns, got)), list(compress(rx_ns, got))
        elif not got.all():
            tx_ns, rx_ns = tx_ns[got], rx_ns[got]
    red.fold(tx_ns, rx_ns, sent_from)
