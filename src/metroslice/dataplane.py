"""Deterministic dataplane simulator.

Models a provisioned circuit as an ordered list of elements, each adding a
fixed one-way latency, an independent per-packet loss probability, and a
gaussian timestamp jitter. On top of that the module provides the SNR ramp
generator and the pre-FEC BER curve used for soft-failure studies.

Delay model, one way:

    delay_us = sum(fixed_latency_us) + length_km * prop_const_us_per_km

Loss per traversal:      1 - prod(1 - loss_prob_i)
Jitter std per traversal: root-sum-square of element jitter_std_ns
Timestamps are quantized to the capture clock tick (322 MHz, 3.1 ns).

Two values are memoised for the life of the process, each in a
:func:`~metroslice.model.memo` that ``model.clear_memos()`` empties:
the path models of :func:`path_from_nodes`, keyed by the exact value of
their inputs, and the RTT laws of :func:`rtt_law`, keyed by each leg's
jitter and delay. Equal inputs so share one object.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .model import (
    DEFAULT_PROP_CONST_US_PER_KM,
    Node,
    NodeKind,
    Topology,
    latency_graph,
    memo,
    sum_left_to_right,
)

#: Hardware timestamping granularity: one tick of the 322 MHz capture clock.
CLOCK_TICK_NS = 3.1

#: Interface line rate used throughout the testbed.
LINE_RATE_GBPS = 100.0

#: Longest one-way delay a path may have, in us: 2**48 capture-clock
#: ticks, about 8.7e11 us. The simulated probe adds a few-ns jitter to
#: the delay in float64 ns and rounds to ticks; the further past this
#: bound, the coarser those sums and the RTTs built from them. A 5 ns
#: element's mean RTT jitter over 20 seeds of 1e5-packet trains moved by
#: +0.06% at 2**48 ticks, +0.2% at 2**49 and -0.6% at 2**50, against
#: the same seeds at 1e6 ticks. From 2**52 ticks the half-tick bin edges
#: of ``quantized_delay_pmf`` are no longer exact either.
MAX_DELAY_US = 2**48 * CLOCK_TICK_NS / 1000.0

#: Largest jitter a path may have, in ns, root-sum-square over its
#: elements. A long simulated train's RTT law spans about 20 sigma / tick
#: bins per leg and convolves the two legs, so its cost grows with the
#: square of sigma: at this bound 6453 bins per leg and about 40 ms per
#: law on a 2-core Xeon, paid once per distinct pair of legs (see
#: ``rtt_law``).
MAX_JITTER_STD_NS = 1000.0


class DataplaneError(Exception):
    pass


class NoPath(DataplaneError):
    """Source and destination are not connected in the topology."""


@dataclass(frozen=True)
class PathElement:
    """One traversed element: its latency, loss and jitter contribution."""

    element_id: str
    fixed_latency_us: float = 0.0
    loss_prob: float = 0.0
    jitter_std_ns: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError(f"{self.element_id}: loss_prob must be in [0, 1]")
        for value in (self.fixed_latency_us, self.jitter_std_ns):
            if not 0 <= value < math.inf:
                raise ValueError(
                    f"{self.element_id}: latency/jitter must be finite and >= 0")


@dataclass(frozen=True)
class PathModel:
    """One-way description of a circuit under test."""

    elements: tuple[PathElement, ...]
    length_km: float = 0.0
    prop_const_us_per_km: float = DEFAULT_PROP_CONST_US_PER_KM

    def __post_init__(self) -> None:
        if not 0 <= self.length_km < math.inf:
            raise ValueError("length_km must be finite and >= 0")
        object.__setattr__(self, "elements", tuple(self.elements))

    def loss_prob(self) -> float:
        surv = 1.0
        for e in self.elements:
            surv *= 1.0 - e.loss_prob
        return 1.0 - surv

    def jitter_std_ns(self) -> float:
        return math.sqrt(sum_left_to_right([e.jitter_std_ns**2 for e in self.elements]))

    @functools.cached_property
    def traversal(self) -> tuple[float, float, float]:
        """``(loss_prob(), jitter_std_ns(), one-way delay in ns)``, computed
        on first use and kept with the model. :func:`path_from_nodes`
        shares a model between the probes over one circuit, so only the
        first train over a new circuit pays for them."""
        return self.loss_prob(), self.jitter_std_ns(), one_way_delay_us(self) * 1000.0

    def reversed(self) -> "PathModel":
        """The same elements walked the other way, built on the first call
        and kept, so ``p.reversed() is p.reversed()``. The reverse keeps
        no reference back: a model and its reverse form no cycle, and are
        freed as soon as their last user drops them."""
        return self._reverse

    @functools.cached_property
    def _reverse(self) -> "PathModel":
        return PathModel(
            tuple(reversed(self.elements)),
            self.length_km,
            self.prop_const_us_per_km,
        )


def one_way_delay_us(p: PathModel) -> float:
    """Deterministic one-way latency of the path, excluding jitter."""
    fixed = sum_left_to_right([e.fixed_latency_us for e in p.elements])
    return fixed + p.length_km * p.prop_const_us_per_km


def serialization_delay_ns(wire_bytes: int) -> float:
    """Time one frame occupies the wire at the line rate."""
    return wire_bytes * 8.0 / LINE_RATE_GBPS


def quantize_ns(t_ns):
    """Snap timestamps (scalar or array) to the nearest capture-clock tick."""
    return np.rint(np.asarray(t_ns, dtype=np.float64) / CLOCK_TICK_NS) * CLOCK_TICK_NS


@dataclass
class TransmitResult:
    """Per-packet outcome of one path traversal.

    Lists when ``transmit_train`` was given a list, arrays otherwise.
    ``rx_ns`` is only meaningful where ``delivered`` is True.
    """

    rx_ns: np.ndarray | list[float]
    delivered: np.ndarray | list[bool]


def transmit_train(
    p: PathModel,
    tx_ns: np.ndarray | list[float],
    rng: np.random.Generator,
) -> TransmitResult:
    """Propagate a train of packets one way across the path.

    Each packet is independently lost with the path's aggregate loss
    probability, drawn as a binomial loss count placed at distinct
    uniform positions (the same law as one uniform draw per packet, at a
    fraction of the cost when loss is rare). Survivors arrive at
    tx + one-way delay + gaussian jitter, quantized to the capture clock
    tick. Jitter is drawn in single precision, which is ample for a
    few-ns value quantized to a 3.1 ns tick and the cheapest normal draw
    NumPy offers. Without jitter, tick k arrives on tick k + rint(D / tick).

    Given a list of send times, the result holds lists: a few packets
    cost less as Python floats than as arrays. Both forms make the same
    generator calls in the same order and the same IEEE operations in
    the same order, so they agree bit for bit.
    """
    as_lists = isinstance(tx_ns, list)
    if not as_lists:
        tx_ns = np.asarray(tx_ns, dtype=np.float64)
    n = len(tx_ns)
    loss, sigma, delay_ns = p.traversal
    lost = int(rng.binomial(n, loss)) if loss > 0 else 0
    dropped = rng.choice(n, size=lost, replace=False) if lost else None
    jitter = None
    if sigma > 0:
        jitter = rng.standard_normal(n, dtype=np.float32)
        jitter *= sigma
    if as_lists:
        return _transmit_list(tx_ns, dropped, jitter, delay_ns)
    delivered = np.ones(n, dtype=bool)
    if dropped is not None:
        delivered[dropped] = False
    if jitter is not None:
        rx_ns = tx_ns + delay_ns
        rx_ns += jitter
        rx_ns /= CLOCK_TICK_NS
        np.rint(rx_ns, out=rx_ns)
    else:
        # tx - k * tick is exactly 0 on the lattice: one rounding of D / tick.
        k = np.rint(tx_ns / CLOCK_TICK_NS)
        mu = delay_ns / CLOCK_TICK_NS
        rx_ns = k + np.rint((tx_ns - k * CLOCK_TICK_NS) / CLOCK_TICK_NS + mu)
    rx_ns *= CLOCK_TICK_NS
    return TransmitResult(rx_ns=rx_ns, delivered=delivered)


def _rint(x: float) -> float:
    """``np.rint`` of a Python float: ties to even, and a zero keeps the
    sign of ``x``. The result is an int unless it is zero."""
    return round(x) or math.copysign(0.0, x)


def _transmit_list(tx_ns: list[float], dropped: np.ndarray | None,
                   jitter: np.ndarray | None, delay_ns: float) -> TransmitResult:
    """``transmit_train``'s arithmetic on Python floats, operation by
    operation as the array form does it."""
    delivered = [True] * len(tx_ns)
    if dropped is not None:
        for i in dropped.tolist():
            delivered[i] = False
    if jitter is not None:
        rx_ns = []
        for tx, j in zip(tx_ns, jitter.tolist()):
            x = (tx + delay_ns + j) / CLOCK_TICK_NS
            # _rint(x), inlined: the call costs a fifth of this loop.
            rx_ns.append((round(x) or math.copysign(0.0, x)) * CLOCK_TICK_NS)
    else:
        mu = delay_ns / CLOCK_TICK_NS
        rx_ns = []
        for tx in tx_ns:
            k = _rint(tx / CLOCK_TICK_NS)
            rx_ns.append((k + _rint((tx - k * CLOCK_TICK_NS) / CLOCK_TICK_NS + mu))
                         * CLOCK_TICK_NS)
    return TransmitResult(rx_ns=rx_ns, delivered=delivered)


#: Half-width, in standard deviations, of the jitter law that
#: ``quantized_delay_pmf`` keeps; the mass beyond it is below 1.6e-23.
PMF_CUT_SIGMAS = 10.0


def quantized_delay_pmf(p: PathModel) -> tuple[int, np.ndarray]:
    """Law of one traversal's delay in ticks, ``rint((D + J) / tick)``.

    D is the path's one-way delay in ns and J its gaussian jitter, so a
    packet that ``transmit_train`` sends on tick k arrives on tick k plus
    this offset, independently of k and of loss (the quantized Gaussian
    of Widrow and Kollár, *Quantization Noise*, 2008). Returns
    ``(lo, pmf)``: ``pmf[i]`` is the probability of offset ``lo + i``.

    The Gaussian is cut at ``PMF_CUT_SIGMAS``. A bin above the mean is a
    difference of survival values and one below it a difference of CDF
    values, so the tail bins keep their relative precision. Without
    jitter the offset is ``rint(D / tick)``, ties to even, as in
    ``transmit_train``.
    """
    _, sigma, delay_ns = p.traversal
    return _leg_delay_pmf(sigma, delay_ns)


def _leg_delay_pmf(sigma: float, delay_ns: float) -> tuple[int, np.ndarray]:
    """``quantized_delay_pmf`` of a leg given by its jitter and delay."""
    mu = delay_ns / CLOCK_TICK_NS
    s = sigma / CLOCK_TICK_NS
    if s == 0:
        return round(mu), np.ones(1)
    lo = round(mu - PMF_CUT_SIGMAS * s)
    hi = round(mu + PMF_CUT_SIGMAS * s)
    # Bin n covers [n - 0.5, n + 0.5). Each edge stores the tail mass on
    # its own side of the mean: survival above it, CDF below it.
    edges = [n - 0.5 for n in range(lo, hi + 2)]
    tail = [0.5 * math.erfc(abs(e - mu) / (s * math.sqrt(2.0))) for e in edges]
    pmf = []
    for a, b, tail_a, tail_b in zip(edges, edges[1:], tail, tail[1:]):
        if a >= mu:
            pmf.append(tail_a - tail_b)
        elif b <= mu:
            pmf.append(tail_b - tail_a)
        else:
            pmf.append(1.0 - tail_a - tail_b)
    return lo, np.array(pmf)


#: Distinct (forward, reverse) pairs of legs whose RTT law
#: :func:`rtt_law` keeps. At ``MAX_JITTER_STD_NS`` a law is two float64
#: arrays of about 13 000 bins, some 200 KB (3.3 MB for a full memo); at
#: the packaged jitters it has 20 to 70 bins.
LAW_CACHE_SIZE = 16


@memo(LAW_CACHE_SIZE)
def _rtt_law_of(fwd: tuple[float, float],
                back: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    lo_f, pmf_f = _leg_delay_pmf(*fwd)
    # The two directions sum the same elements, often to the same bits.
    lo_b, pmf_b = (lo_f, pmf_f) if back == fwd else _leg_delay_pmf(*back)
    # Shifted adds, the forward bins ascending: each bin's sum has the
    # same order on every host, which np.convolve's BLAS kernel lacks.
    p_ab = np.zeros(pmf_f.size + pmf_b.size - 1)
    for i, w in enumerate(pmf_f.tolist()):
        p_ab[i:i + pmf_b.size] += w * pmf_b
    p_ab /= np.add.reduce(p_ab)
    rtt_ns = (lo_f + lo_b + np.arange(p_ab.size)) * CLOCK_TICK_NS
    rtt_ns.flags.writeable = p_ab.flags.writeable = False
    return rtt_ns, p_ab


def rtt_law(fwd: PathModel, back: PathModel) -> tuple[np.ndarray, np.ndarray]:
    """Law of a round trip's RTT on the clock lattice: ``(rtt_ns, p)``,
    with ``p[i]`` the probability of an RTT of ``rtt_ns[i]`` ns, the bins
    ascending.

    The RTT in ticks is the sum of the two legs' independent offsets, so
    its law is the convolution of their ``quantized_delay_pmf``,
    renormalised. It is a pure function of each leg's (jitter, delay),
    and is keyed on those values, never on the paths: the
    ``LAW_CACHE_SIZE`` most recently used pairs of legs are kept, so only
    the first probe of a pair pays for the law. Both arrays are read-only, because
    every caller shares them.
    """
    return _rtt_law_of(fwd.traversal[1:], back.traversal[1:])


# ---------------------------------------------------------------------------
# Channel quality: SNR ramps and the pre-FEC BER curve


@dataclass(frozen=True)
class QualitySeries:
    """Monitoring samples of the optical channel, one list per quantity.

    Sample ``i`` is taken at ``t_s[i]`` and reads ``snr_db[i]`` and
    ``prefec_ber[i]``; the three lists have equal length.
    """

    t_s: list[float]
    snr_db: list[float]
    prefec_ber: list[float]

    def __post_init__(self) -> None:
        if not len(self.t_s) == len(self.snr_db) == len(self.prefec_ber):
            raise ValueError("t_s, snr_db and prefec_ber must have equal length")

    def __len__(self) -> int:
        return len(self.t_s)


@dataclass(frozen=True)
class DegradationScenario:
    """Linear SNR ramp, optionally preceded by a steady hold.

    ``ramp_start_s`` keeps the channel at ``snr0_db`` before the ramp
    begins, which is how a healthy monitored circuit looks before a
    failure starts developing.
    """

    ramp_db_per_s: float = 0.25
    duration_s: float = 100.0
    snr0_db: float = 23.0
    sample_period_s: float = 1.0
    ramp_start_s: float = 0.0

    #: Longest series ``evolve_quality`` may materialise.
    MAX_SAMPLES = 10**6

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.ramp_db_per_s < 0:
            raise ValueError("ramp_db_per_s must be >= 0")
        if self.sample_period_s <= 0:
            raise ValueError("sample_period_s must be > 0")
        if self.duration_s < 0 or self.ramp_start_s < 0:
            raise ValueError("durations must be >= 0")
        if self.duration_s / self.sample_period_s + 0.5 > self.MAX_SAMPLES:
            raise ValueError(
                f"duration_s / sample_period_s gives over {self.MAX_SAMPLES} samples")


def _ber(snr_db: float) -> float:
    return 0.5 * math.erfc(math.sqrt(10.0 ** (snr_db / 10.0) / 2.0))


def ber_from_snr_db(snr_db):
    """Pre-FEC bit error rate of the coherent channel at a given SNR.

    ber = 0.5 * erfc(sqrt(snr_lin / 2)), snr_lin = 10 ** (snr_db / 10).
    Vectorized; output lies in [0, 0.5] and decreases with SNR. The rule
    maps over Python floats, so its power and ``erfc`` are libm's on
    every host, not a SIMD kernel numpy picks by CPU; the series it
    serves are a few thousand samples long, so that costs less than
    importing scipy.
    """
    x = np.asarray(snr_db, dtype=np.float64)
    return np.fromiter(map(_ber, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def evolve_quality(s: DegradationScenario) -> QualitySeries:
    """Sample the SNR ramp at the scenario's monitoring period.

    snr(t) = snr0 for t < ramp_start, then decreases linearly at
    ramp_db_per_s. Samples cover [0, duration_s] inclusive.
    """
    t = np.arange(0.0, s.duration_s + s.sample_period_s / 2, s.sample_period_s)
    snr = s.snr0_db - s.ramp_db_per_s * np.maximum(0.0, t - s.ramp_start_s)
    return QualitySeries(t.tolist(), snr.tolist(), ber_from_snr_db(snr).tolist())


# ---------------------------------------------------------------------------
# Building path models from the topology

@dataclass(frozen=True)
class ElementParams:
    loss_prob: float = 0.0
    jitter_std_ns: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError("loss_prob must be in [0, 1]")
        if self.jitter_std_ns < 0:
            raise ValueError("jitter_std_ns must be >= 0")


#: Per-kind defaults for contributions the topology file does not carry.
DEFAULT_ELEMENT_PARAMS: dict[NodeKind, ElementParams] = {
    NodeKind.PROBE_ENDPOINT: ElementParams(0.0, 2.0),
    NodeKind.AGG_SWITCH: ElementParams(2.0e-7, 1.5),
    NodeKind.ROADM: ElementParams(2.0e-7, 2.5),
    NodeKind.AMEN: ElementParams(),
    NodeKind.MCEN: ElementParams(),
}


def element_for_node(
    node: Node,
    overrides: dict[str, ElementParams],
) -> PathElement:
    """The node as a path element: its override if it has one, or its
    kind's default loss and jitter."""
    p = overrides.get(node.node_id) or DEFAULT_ELEMENT_PARAMS[node.kind]
    return PathElement(
        element_id=node.node_id,
        fixed_latency_us=node.fixed_latency_us,
        loss_prob=p.loss_prob,
        jitter_std_ns=p.jitter_std_ns,
    )


#: Distinct path models :func:`path_from_nodes` keeps, the least
#: recently used evicted first. An entry with its key, its reverse and
#: both legs' ``traversal`` holds 1.9 KB on the benchmark's ring circuits
#: (5.5 elements on average) and 2.5 KB on a six-element calibration row
#: (``tracemalloc``), so a full memo holds at most about 0.65 MB.
#: ``table1`` probes five circuits, and one slice_churn episode of the
#: benchmark about 70 distinct ones.
PATH_CACHE_SIZE = 256


def _exact(x) -> tuple:
    """A number as a key part equal only to numbers of the same type and
    bits, the number itself first. ``1 == 1.0`` and ``0.0 == -0.0``, yet
    each pair builds models whose fields differ: a row of length ``-0.0``
    reports a two-way propagation of ``-0.0``. A zero's ``repr`` tells
    its sign."""
    return (x, type(x)) if x else (x, type(x), repr(x))


@memo(PATH_CACHE_SIZE)
def _path_of(key: tuple) -> PathModel:
    """The model of a :func:`path_from_nodes` key, built from the numbers
    the key holds."""
    (length_km, *_), (prop, *_), *nodes = key
    elements = []
    for node_id, kind, (fixed, *_), p in nodes:
        d = DEFAULT_ELEMENT_PARAMS[kind]
        loss, jitter = (d.loss_prob, d.jitter_std_ns) if p is None else (p[0][0], p[1][0])
        elements.append(PathElement(node_id, fixed, loss, jitter))
    return PathModel(tuple(elements), length_km, prop)


def path_from_nodes(
    t: Topology,
    node_ids: list[str],
    length_km: float,
    overrides: dict[str, ElementParams],
) -> PathModel:
    """Path model over an explicit element sequence and a total fibre length.

    Used by calibration setups where the fibre is patched directly between
    the listed elements rather than routed through the topology.

    Equal inputs return one shared model, with its reverse and
    ``traversal`` computed once for every probe over it. The key is the
    inputs' value, never the topology object: each listed node's id, kind,
    fixed latency and override, the length and the propagation constant,
    so a topology copied or edited in place gets the model of its current
    values. The ``PATH_CACHE_SIZE`` most recently used models are kept.
    """
    by_id = {n.node_id: n for n in t.nodes}
    key = [_exact(length_km), _exact(t.prop_const_us_per_km)]
    for nid in node_ids:
        n, p = by_id[nid], overrides.get(nid)
        key.append((nid, n.kind, _exact(n.fixed_latency_us),
                    p and (_exact(p.loss_prob), _exact(p.jitter_std_ns))))
    return _path_of(tuple(key))


def path_from_topology(
    t: Topology,
    src: str,
    dst: str,
    overrides: dict[str, ElementParams],
) -> PathModel:
    """Minimum-latency path between two nodes, as a dataplane model.

    Traversed nodes (endpoints included) contribute their fixed latency,
    loss and jitter; traversed links contribute propagation length.
    The route is read back through the predecessors of the memoised
    Dijkstra run from ``src``, and its model is the one
    :func:`path_from_nodes` shares for that node list and length.
    """
    g = latency_graph(t)
    dist, pred = g.paths_from(src)
    if dst not in dist:
        raise NoPath(f"{src} -> {dst}")
    nodes = [dst]
    while nodes[-1] != src:
        nodes.append(pred[nodes[-1]])
    nodes.reverse()
    length = sum_left_to_right([g.length_km(a, b) for a, b in zip(nodes, nodes[1:])])
    return path_from_nodes(t, nodes, length, overrides)
