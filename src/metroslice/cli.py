"""Command line front end.

Subcommands cover the whole slice lifecycle against a scenario file:

    plan      rank service chain candidates and show the placement
    deploy    run instantiation plus commissioning, write KPI artifacts
    table1    simulate the incremental calibration rows, derive the budget
    degrade   play the SNR ramp through the soft-failure detector
    records   filter stored measurement records
    measure   probe a live UDP reflector
    reflect   run the UDP reflector

All simulation commands are deterministic for a given scenario and seed;
artifact files are written with sorted keys so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
from pathlib import Path

from . import __version__
from .config import (
    ConfigError,
    Scenario,
    build_world,
    default_scenario_path,
    load_scenario,
)
from .dataplane import evolve_quality, path_from_nodes
from .mda import MdaController, detect_soft_failure
from .model import aggregate_bandwidth_mbps
from .orchestrator import WorkflowError, merge_logs, run_wf1, run_wf2
from .planner import place
from .probe import (
    NegativeBudget,
    ProbeError,
    ProbeTimeout,
    SimulatedProbe,
    latency_budget,
    theoretical_ceiling_mbps,
)
from .records import write_json, write_jsonl

log = logging.getLogger(__name__)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _override(obj, **changes):
    """``obj`` with the options that were given (not None) replaced.

    The dataclass checks the values itself; a rejected one becomes a
    ConfigError, which ``main`` prints as an ``error:`` line.
    """
    changes = {k: v for k, v in changes.items() if v is not None}
    try:
        return dataclasses.replace(obj, **changes) if changes else obj
    except ValueError as exc:
        raise ConfigError(f"command-line override: {exc}") from exc


def _num(x: float | None, spec: str) -> str:
    """``format(x, spec)``, or ``n/a`` at the same width when the value is
    undefined (a train that lost every packet, or one packet's throughput)."""
    if x is None:
        return format("n/a", ">" + spec.split(".")[0])
    return format(x, spec)


def _write_csv(path: Path, header, rows) -> None:
    """One CSV artifact: the header row, then the rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# ---------------------------------------------------------------------------
# plan


def cmd_plan(args, scenario: Scenario) -> int:
    req = _override(scenario.request, k=args.k)
    # Placement reads no optical layer and allocates nothing, so it runs on
    # the scenario's own topology, and the scenario needs no ROADM.
    topology = scenario.topology
    decision = place(req, topology, [n.vim for n in topology.vim_nodes()])

    if args.json:
        write_json(decision.to_record())
        return 0 if decision.placed else 1

    print(f"request {req.ns_id}: {len(req.chain)} VNFs, "
          f"max RTT {req.max_rtt_us:g} us, k={req.k}")
    print(f"{'rank':>4}  {'cost_us':>12}  chain")
    for i, cand in enumerate(decision.ranked, start=1):
        print(f"{i:>4}  {cand.cost_us:>12.3f}  {', '.join(cand.vim_ids)}")
    if decision.placed:
        cand = decision.candidate
        print(f"placed: {', '.join(cand.vim_ids)} (cost {cand.cost_us:.3f} us)")
        return 0
    print(f"blocked: {decision.block_reason.value}")
    return 1


# ---------------------------------------------------------------------------
# deploy


def cmd_deploy(args, scenario: Scenario) -> int:
    world = build_world(scenario)
    out = _out_dir(args)

    decision, report, ev1 = run_wf1(scenario.request, world)
    if not decision.placed:
        write_jsonl(out / "events.jsonl", ev1)
        if args.json:
            write_json(decision.to_record())
        else:
            print(f"placement blocked: {decision.block_reason.value}")
        return 1

    records, ev2 = run_wf2(
        world,
        circuit_ids=[args.circuit],
        max_rtt_us=scenario.request.max_rtt_us,
        start_t_s=report.kpi3_s,
    )
    events = merge_logs(ev1, ev2)

    kpi = report.to_record()
    kpi["placement"] = decision.candidate.to_record()
    kpi["aggregate_demand_mbps"] = aggregate_bandwidth_mbps(world.demand)
    kpi["commissioning"] = [r.verdict for r in records]
    write_json(kpi, out / "kpi.json")
    _write_csv(out / "kpi.csv", ["metric", "seconds"], [
        ["kpi1_optical_setup", report.kpi1_s],
        ["kpi2_connectivity_setup", report.kpi2_s],
        ["kpi3_slice_setup", report.kpi3_s],
        ["setup_excl_transponder", report.excl_transponder_s],
        *([f"phase_{name}", dt] for name, dt in sorted(report.phases.items())),
    ])
    write_jsonl(out / "events.jsonl", events)
    write_jsonl(out / "records.jsonl", records)

    if args.json:
        write_json(kpi)
        return 0
    print(f"placed: {', '.join(decision.candidate.vim_ids)}")
    print(f"KPI-1 optical setup       {report.kpi1_s:8.1f} s")
    print(f"KPI-2 connectivity setup  {report.kpi2_s:8.1f} s")
    print(f"KPI-3 slice setup         {report.kpi3_s:8.1f} s")
    print(f"setup excl. transponders  {report.excl_transponder_s:8.1f} s")
    for rec in records:
        print(f"circuit {rec.circuit_id}: {rec.verdict} "
              f"(rtt {_num(rec.stats.rtt_us, '.3f')} us, "
              f"loss {rec.stats.loss_rate:.2e})")
    print(f"artifacts in {out}/")
    return 0


# ---------------------------------------------------------------------------
# table1


def cmd_table1(args, scenario: Scenario) -> int:
    cfg = _override(scenario.probe_cfg, count=args.count)
    trains = _override(scenario, trains_per_row=args.trains).trains_per_row
    out = _out_dir(args)

    rows_out = []
    first_stats = {}
    for idx, row in enumerate(scenario.rows):
        path = path_from_nodes(
            scenario.topology, row.path_nodes, row.length_km,
            overrides=scenario.element_overrides,
        )
        probe = SimulatedProbe(path, seed=scenario.seed + idx)
        first = first_stats[row.label] = probe.run(cfg)
        # Fold the trains as they come, summed left to right in train order,
        # so a row holds one train whatever ``trains`` is. Each mean is
        # over the trains that define it: RTT, jitter, throughput.
        totals, defined, lost = [0.0, 0.0, 0.0], [0, 0, 0], 0
        for t in range(trains):
            s = probe.run(cfg) if t else first
            lost += s.lost
            for i, x in enumerate((s.rtt_mean_us, s.jitter_ns, s.throughput_mbps)):
                if x is not None:
                    totals[i] += x
                    defined[i] += 1
        rtt, jitter, tput = (total / n if n else None for total, n in zip(totals, defined))
        prop = first.two_way_propagation_us
        rows_out.append({
            "label": row.label,
            "length_km": row.length_km,
            "trains": trains,
            "count": cfg.count,
            "twoway_propagation_us": prop,
            "expected_rtt_us": probe.expected_rtt_us(),
            "rtt_us": rtt,
            "delta_us": None if rtt is None else rtt - prop,
            "jitter_ns": jitter,
            "loss_rate": lost / (trains * cfg.count),
            "throughput_mbps": tput,
            "ceiling_mbps": theoretical_ceiling_mbps(cfg.ip_payload_bytes),
        })

    budget = None
    budget_rows = ("probe-loopback", "agg-switches", "optical-2m")
    if all(r in first_stats for r in budget_rows):
        try:
            budget = latency_budget(
                *(first_stats[r] for r in budget_rows)
            ).to_record()
        except NegativeBudget as exc:
            log.warning("budget decomposition failed: %s", exc)

    _write_csv(out / "table1.csv", list(rows_out[0]) if rows_out else [],
               map(dict.values, rows_out))
    calibration = {"rows": rows_out, "budget": budget}
    write_json(calibration, out / "budget.json")

    if args.json:
        write_json(calibration)
        return 0
    for r in rows_out:
        print(f"{r['label']:>16}  len {r['length_km']:9.4f} km  "
              f"prop {r['twoway_propagation_us']:11.3f} us  "
              f"rtt {_num(r['rtt_us'], '11.3f')} us  "
              f"delta {_num(r['delta_us'], '7.3f')} us  "
              f"jitter {_num(r['jitter_ns'], '5.2f')} ns  "
              f"loss {r['loss_rate']:.2e}  "
              f"tput {_num(r['throughput_mbps'], '9.2f')} "
              f"/ {r['ceiling_mbps']:9.2f} Mb/s")
    if budget:
        print(f"fixed budget: probe {budget['probe_us']:.3f} us, "
              f"switches {budget['switches_us']:.3f} us, "
              f"optical {budget['optical_us']:.3f} us")
    print(f"artifacts in {out}/")
    return 0


# ---------------------------------------------------------------------------
# degrade


def cmd_degrade(args, scenario: Scenario) -> int:
    sc = _override(scenario.degradation, ramp_db_per_s=args.ramp,
                   duration_s=args.duration)
    samples = evolve_quality(sc)
    report = detect_soft_failure(samples, scenario.detector)
    out = _out_dir(args)

    _write_csv(out / "degrade.csv", ["t_s", "snr_db", "prefec_ber"],
               zip(samples.t_s, samples.snr_db, samples.prefec_ber))
    write_json(report.to_record(), out / "degrade.json")

    if args.json:
        write_json(report.to_record())
        return 0
    if not report.detected:
        print("no degradation detected")
        return 0
    print(f"degradation detected at t={report.t_detect_s:g} s")
    if report.t_fec_s is not None:
        print(f"FEC limit crossed at t={report.t_fec_s:.3f} s "
              f"(anticipation {report.anticipation_s:.3f} s)")
    else:
        print("FEC limit not reached within the scenario")
    print(f"artifacts in {out}/")
    return 0


# ---------------------------------------------------------------------------
# records


def cmd_records(args, scenario: Scenario | None) -> int:
    path = Path(args.records) if args.records else Path(args.out) / "records.jsonl"
    mda = MdaController.load_jsonl(path)
    found = mda.query_records(
        circuit_id=args.circuit, t_min_s=args.tmin, t_max_s=args.tmax
    )
    if args.json:
        write_json([r.to_record() for r in found])
        return 0
    for r in found:
        print(f"t={r.t_virtual_s:10.3f}s  {r.circuit_id:>12}  vlan {r.vlan_id}  "
              f"{r.verdict:>4}  rtt {_num(r.stats.rtt_us, '.3f')} us  "
              f"loss {r.stats.loss_rate:.2e}")
    print(f"{len(found)} record(s)")
    return 0


# ---------------------------------------------------------------------------
# live probe


def _host_port(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT with a port in 0-65535, got {text!r}")
    return host, int(port)


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return n


def cmd_measure(args, scenario: Scenario) -> int:
    from .live import live_measure

    cfg = _override(scenario.probe_cfg, count=args.count,
                    ip_payload_bytes=args.payload, timeout_ms=args.timeout_ms)
    try:
        stats = live_measure(cfg, args.dst, bind=args.bind)
    except ProbeTimeout as exc:
        if args.json:
            write_json({"error": str(exc), "partial": exc.stats.to_record()})
        else:
            print(f"timeout: {exc}", file=sys.stderr)
        return 1
    if args.json:
        write_json(stats.to_record())
        return 0
    print(f"{stats.received}/{stats.count} echoed, "
          f"rtt min {_num(stats.rtt_us, '.3f')} us / "
          f"mean {_num(stats.rtt_mean_us, '.3f')} us, "
          f"jitter {_num(stats.jitter_ns, '.1f')} ns, "
          f"throughput {_num(stats.throughput_mbps, '.2f')} Mb/s")
    return 0


def cmd_reflect(args, scenario: Scenario | None) -> int:
    from .live import live_reflect

    try:
        count = live_reflect(args.bind, max_packets=args.max_packets)
    except KeyboardInterrupt:
        return 0
    print(f"echoed {count} packets")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metroslice",
        description="Latency-aware metro slice provisioning and measurement.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--scenario", default=None, metavar="FILE",
                        help="scenario YAML (default: packaged scenario)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario RNG seed (>= 0)")
    parser.add_argument("--out", default="out", metavar="DIR",
                        help="artifact output directory (default: out)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output on stdout")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug logging")
    parser.set_defaults(uses_scenario=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="rank service chains and place the slice")
    p.add_argument("--k", type=int, default=None,
                   help="override the candidate list length")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("deploy", help="instantiate and commission the slice")
    p.add_argument("--circuit", default="circuit-1",
                   help="circuit id for commissioning records")
    p.set_defaults(func=cmd_deploy)

    p = sub.add_parser("table1", help="simulate the calibration measurements")
    p.add_argument("--count", type=int, default=None,
                   help="packets per train (default: scenario)")
    p.add_argument("--trains", type=int, default=None,
                   help="trains per row (default: scenario)")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("degrade", help="run the soft-failure scenario")
    p.add_argument("--ramp", type=float, default=None,
                   help="SNR ramp in dB/s (default: scenario)")
    p.add_argument("--duration", type=float, default=None,
                   help="scenario length in seconds (default: scenario)")
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("records", help="filter stored measurement records")
    p.add_argument("--records", default=None, metavar="FILE",
                   help="records file (default: OUT/records.jsonl)")
    p.add_argument("--circuit", default=None)
    p.add_argument("--tmin", type=float, default=None)
    p.add_argument("--tmax", type=float, default=None)
    p.set_defaults(func=cmd_records, uses_scenario=False)

    p = sub.add_parser("measure", help="probe a live UDP reflector")
    p.add_argument("--dst", type=_host_port, required=True, metavar="HOST:PORT")
    p.add_argument("--bind", type=_host_port, default=("0.0.0.0", 0),
                   metavar="HOST:PORT")
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--payload", type=int, default=None,
                   help="IP payload bytes")
    p.add_argument("--timeout-ms", type=int, default=None)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("reflect", help="run the UDP reflector")
    p.add_argument("--bind", type=_host_port, default=("0.0.0.0", 9000),
                   metavar="HOST:PORT")
    p.add_argument("--max-packets", type=_positive_int, default=None,
                   help="exit after echoing this many packets (>= 1)")
    p.set_defaults(func=cmd_reflect, uses_scenario=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        scenario = None
        if args.uses_scenario:
            scenario = load_scenario(args.scenario or default_scenario_path())
            scenario = _override(scenario, seed=args.seed)
        return args.func(args, scenario)
    except (ConfigError, ProbeError, OSError) as exc:
        _error(args, exc)
        return 2
    except WorkflowError as exc:
        # Provisioning failed and was rolled back: a refusal, like a
        # blocked placement, not a bad input.
        _error(args, exc)
        return 1
    except MemoryError:
        # The input was valid, but this host cannot hold its run.
        _error(args, "out of memory")
        return 1


def _error(args, message: Exception | str) -> None:
    if args.json:
        print(json.dumps({"error": str(message)}, sort_keys=True))
    else:
        print(f"error: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
