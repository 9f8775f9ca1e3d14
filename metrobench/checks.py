"""Correctness checks on the outputs of the benchmarked program.

Each checker returns a list of problems (empty when the output is
correct) instead of raising, so a workload can count the affected
operations as failed and carry on. The smoke test feeds each checker a
seeded fault to show that it rejects it.
"""

from __future__ import annotations

import math

#: Criterion 01 targets: mean RTT and two-way propagation, microseconds.
CALIBRATION_TARGETS = {
    "optical-41km": (420.4, 405.04),
    "optical-80km": (799.1, 783.16),
}
#: Criterion 01 tolerances.
RTT_TOL_US = 1.0
PROP_REL_TOL = 0.003
MAX_LOSS = 3e-6
#: Criterion 01 measures 10 trains per row; fewer make the loss bound noisy.
MIN_CALIBRATION_TRAINS = 10


def calibration_row(label, runs, length_km, prop_const_us_per_km):
    """Criterion 01 on one row: mean RTT, propagation and loss."""
    if label not in CALIBRATION_TARGETS:
        return []
    if len(runs) < MIN_CALIBRATION_TRAINS:
        return [f"{label}: {len(runs)} trains, need {MIN_CALIBRATION_TRAINS}"]
    rtt_target, prop_target = CALIBRATION_TARGETS[label]
    problems = []
    if any(s.rtt_mean_us is None for s in runs):
        return [f"{label}: a train received no packets"]
    rtt = sum(s.rtt_mean_us for s in runs) / len(runs)
    if abs(rtt - rtt_target) > RTT_TOL_US:
        problems.append(f"{label}: mean rtt {rtt:.3f} us, target {rtt_target}")
    prop = 2.0 * length_km * prop_const_us_per_km
    if abs(prop - prop_target) / prop_target > PROP_REL_TOL:
        problems.append(f"{label}: propagation {prop:.3f} us, target {prop_target}")
    loss = sum(s.lost for s in runs) / sum(s.count for s in runs)
    if not 0.0 <= loss <= MAX_LOSS:
        problems.append(f"{label}: loss {loss:.2e} above {MAX_LOSS:.0e}")
    return problems


def budget(b):
    """The latency budget decomposes into non-negative parts."""
    parts = {"probe": b.probe_us, "switches": b.switches_us, "optical": b.optical_us}
    return [f"budget {k} {v:.3f} us < 0" for k, v in parts.items()
            if not (math.isfinite(v) and v >= 0.0)]


def disjoint_spectrum(connections):
    """No two provisioned channels overlap on a shared link."""
    by_link = {}
    for mc in connections:
        for link in mc.route:
            by_link.setdefault(link, []).append((mc.slot.interval, mc.mc_id))
    problems = []
    for link, slots in by_link.items():
        slots.sort()
        for ((lo1, hi1), a), ((lo2, hi2), b) in zip(slots, slots[1:]):
            if hi1 > lo2:
                problems.append(f"{a} and {b} overlap on {link}")
    return problems


def placed_chain(decision, req):
    """A placed chain uses distinct VIMs and meets the RTT requisite."""
    cand = decision.candidate
    problems = []
    if len(cand.vim_ids) != len(req.chain):
        problems.append(f"{req.ns_id}: {len(cand.vim_ids)} VIMs for "
                        f"{len(req.chain)} VNFs")
    if len(set(cand.vim_ids)) != len(cand.vim_ids):
        problems.append(f"{req.ns_id}: VIM reused in {cand.vim_ids}")
    if not cand.cost_us <= req.max_rtt_us:
        problems.append(f"{req.ns_id}: cost {cand.cost_us:.1f} us above "
                        f"{req.max_rtt_us:.1f} us")
    return problems


def vim_snapshot(vims):
    return {v.vim_id: (v.cpu_idle, v.mem_idle, v.storage_idle) for v in vims}


def vims_restored(vims, initial):
    """Every VIM's idle resources are back to their initial values."""
    now = vim_snapshot(vims)
    return [f"{vim_id}: idle {now.get(vim_id)} != initial {want}"
            for vim_id, want in initial.items() if now.get(vim_id) != want]


def no_active_connections(ols):
    active = ols.get_active_connections()
    return [f"{len(active)} media channels left after teardown"] if active else []


def records_roundtrip(before, after):
    """Two record lists (as dicts) are equal, element by element."""
    if len(before) != len(after):
        return [f"{len(after)} records loaded, {len(before)} exported"]
    return [f"record {i} changed in round trip"
            for i, (a, b) in enumerate(zip(before, after)) if a != b][:5]


def live_train(stats, count):
    """A loopback train is fully echoed with finite, positive RTTs."""
    problems = []
    if stats.received != count:
        problems.append(f"{stats.received}/{count} echoed")
    for name in ("rtt_us", "rtt_mean_us"):
        v = getattr(stats, name)
        if v is None or not math.isfinite(v) or v <= 0.0:
            problems.append(f"{name} = {v}")
    return problems


def reflector_count(printed, sent):
    """The count the reflector prints equals the number of packets sent."""
    if printed != sent:
        return [f"reflector echoed {printed}, sender sent {sent}"]
    return []
