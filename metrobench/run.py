"""Benchmark for metroslice: four closed-loop workloads, one command.

One workload, as the result line of a single run:

    python3 metrobench/run.py --workload NAME --seed N --seconds S --trace 0|1

All four workloads, untraced then traced, with a readable summary of the
end-to-end metrics under their per-workload names and the per-layer
metrics of the traced runs:

    python3 metrobench/run.py --all [--seed N] [--seconds S]

Run from the root of a source checkout; the program is imported from its
``src`` directory, nothing needs installing. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json, measured with no wrappers installed. With ``--trace 1``
the run measures the workload untraced, then again with spans around
the program's public entry points (see tracing.py), and reports the
per-layer metrics plus the tracing overhead. A failed correctness check
makes ``correct`` false and the exit code 1.

End-to-end metrics mean the same thing on every workload, measured on
that workload's principal operation (see workloads.py for why each
workload exists, why timings come from the fastest episodes and how
they are scaled to a nominal host speed):

    workload        op (op_s_p50/p90)   work_per_s         accept_ratio
    calibration     SimulatedProbe.run  simulated packets  packets echoed
    slice_churn     deploy              deploys+teardowns  deploys placed
    spectrum_churn  first-fit create    OLS operations     creates granted
    live_loopback   live_measure train  echoed packets     packets echoed

``ok_ratio`` is 1 minus the share of operations that raised, timed out
or failed a correctness check; ``block_ratio`` (slice_churn) is
1 - accept_ratio.

``setup_s`` is the median, over several fresh interpreters, of the time
from process start through ``import metroslice`` and input generation to
the point where the first operation would start. ``setup_s`` and the
timings of every workload but live_loopback are scaled to a nominal host
speed measured in the same run (see workloads.py); per-layer times are
raw.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".metrobench_out"
SETUP_REPEATS = 7
IMPORT_REPEATS = 3



def _spec_units(key: str) -> dict:
    """Metric names and units, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


def _require_program() -> None:
    """Import metroslice from this checkout's sources, or exit non-zero."""
    if not (SRC / "metroslice" / "__init__.py").is_file():
        print(f"error: no metroslice sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import metroslice

    if Path(metroslice.__file__).resolve().parent != SRC / "metroslice":
        print(f"error: imported {metroslice.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(workload: str, seed: int, repeats: int = SETUP_REPEATS) -> float:
    """Median time from a fresh interpreter to inputs ready, scaled to
    nominal host speed like every other timing (see workloads.py)."""
    from workloads import host_scale, reference_s

    refs = [reference_s()]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.communicate(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}")
        times.append(dt)
        refs.append(reference_s())
    return statistics.median(times) * host_scale(refs)


def measure_imports(repeats: int = IMPORT_REPEATS) -> dict:
    """Cumulative import times from ``python -X importtime``, medians."""
    wanted = {"metroslice": "metroslice.import_s",
              "metroslice.dataplane": "dataplane.import_s",
              "metroslice.planner": "planner.import_s"}
    samples = {v: [] for v in wanted.values()}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import metroslice"],
                              cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=60, check=True)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2] in wanted:
                samples[wanted[parts[2]]].append(int(parts[1]) / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}


def _metrics(values: dict, units: dict) -> dict:
    return {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run, setup_s: float) -> dict:
    """Timings from the run's fastest episodes, counts from all of them."""
    from workloads import quantile

    best, total = run.fastest(), run.total()
    return {
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "ok_ratio": (total.attempted - total.failed) / total.attempted,
        "work_per_s": best.work / best.busy_s,
        "op_s_p50": quantile(best.op_s, 0.5),
        "op_s_p90": quantile(best.op_s, 0.9),
        "accept_ratio": total.accepted / total.offered,
    }


def overhead_ratio(traced, untraced) -> float:
    """Time per unit of work, traced over untraced (fastest episodes,
    each scaled to nominal host speed)."""
    a, b = traced.fastest(), untraced.fastest()
    return (a.busy_s / a.work) / (b.busy_s / b.work)


def per_layer(tr, run, extras: dict, imports: dict, overhead: float,
              names) -> dict:
    """Every per-layer metric in ``names``; 0 for a layer the run left idle."""
    c = tr.counters
    places = c["planner.place_calls"]
    fwd, rev = tr.transmit_split_s()
    creates = tr.count("optical.create_firstfit") + tr.count("optical.create_explicit")
    values = {
        "probe.run_s": tr.busy_s("probe.run"),
        "probe.run_self_s": tr.self_s("probe.run"),
        "probe.compute_stats_s": tr.busy_s("probe.compute_stats"),
        "dataplane.transmit_fwd_s": fwd,
        "dataplane.transmit_rev_s": rev,
        "dataplane.pkts": c["dataplane.pkts"],
        "planner.place_s": tr.busy_s("planner.place"),
        "planner.place_calls": places,
        "planner.rtt_graph_s": tr.busy_s("planner.build_rtt_graph"),
        "planner.rank_s": tr.busy_s("planner.rank_service_chains"),
        "planner.search_space": c["search_space"] / c["filter_calls"] if c["filter_calls"] else 0,
        "planner.chosen_rank": c["chosen_rank"] / c["placed"] if c["placed"] else 0,
        "planner.blocked.NoValidSC": c["planner.blocked.NoValidSC"],
        "planner.blocked.RttExceeded": c["planner.blocked.RttExceeded"],
        "planner.blocked.NoEligibleVim": c["planner.blocked.NoEligibleVim"],
        "optical.create_firstfit_s": tr.busy_s("optical.create_firstfit"),
        "optical.create_explicit_s": tr.busy_s("optical.create_explicit"),
        "optical.delete_s": tr.busy_s("optical.delete"),
        "optical.create_calls": creates,
        "optical.create_rejected": (tr.count("optical.create_firstfit", error=True)
                                    + tr.count("optical.create_explicit", error=True)),
        "optical.channels_created": c["optical.channels_created"],
        "optical.channels_live": c["optical.channels_live"],
        "optical.configure_transponder_s": tr.busy_s("optical.configure_transponder"),
        "orchestrator.wf1_s": tr.busy_s("orchestrator.run_wf1"),
        "orchestrator.wf1_self_s": tr.self_s("orchestrator.run_wf1"),
        "orchestrator.wf2_s": tr.busy_s("orchestrator.run_wf2"),
        "mda.measure_circuit_s": tr.busy_s("mda.measure_circuit"),
        "mda.detect_s": tr.busy_s("mda.detect_soft_failure"),
        "dataplane.evolve_quality_s": tr.busy_s("dataplane.evolve_quality"),
        "mda.records": c["mda.records"],
        "mda.export_s": tr.busy_s("mda.export_jsonl"),
        "mda.load_s": tr.busy_s("mda.load_jsonl"),
        "live.measure_s": tr.busy_s("live.live_measure"),
        "config.load_scenario_s": tr.busy_s("config.load_scenario"),
        "trace.overhead_ratio": overhead,
    }
    for name in names:
        values.setdefault(name, run.extra.get(name, extras.get(name, imports.get(name, 0.0))))
    return {name: values[name] for name in names}


def run_one(args) -> int:
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    units = _spec_units("per_layer" if args.trace else "end_to_end")
    if not args.trace:
        setup_s = measure_setup(args.workload, args.seed)
    inputs = wl.make_inputs(args.seed)
    untraced = wl.run(inputs, args.seconds, OUT)
    runs = [untraced]
    if not args.trace:
        values = end_to_end(untraced, setup_s)
        total = untraced.total()
        detail = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (values["peak_rss_mb"], "MB"),
            "fail_ratio": (total.failed / total.attempted, "ratio"),
            **wl.detail(untraced.fastest(), total),
        }
        print("detail " + json.dumps({k: {"value": v, "unit": u}
                                      for k, (v, u) in detail.items()}))
    else:
        tracer = Tracer()
        tracer.install()
        try:
            traced = wl.run(wl.make_inputs(args.seed), args.seconds, OUT)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
        runs.append(traced)
        extras = wl.extras(inputs) if wl.extras else {}
        values = per_layer(tracer, traced, extras, measure_imports(),
                           overhead_ratio(traced, untraced), units)

    totals = [r.total() for r in runs]
    attempted = sum(t.attempted for t in totals)
    failed = sum(t.failed for t in totals)
    for t in totals:
        for problem in t.problems:
            print(f"problem: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": _metrics(values, units)}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        print(f"== {name} (seed {args.seed}, {args.seconds:g} s)")
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"  trace {trace}: no result, exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            ok &= proc.returncode == 0 and result["correct"]
            for line in lines:
                if line.startswith("problem: "):
                    print(f"  {line}")
            print(f"  trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            shown = result["metrics"]
            if trace == 0:
                shown = next(json.loads(line.removeprefix("detail ")) for line in lines
                             if line.startswith("detail "))
            for key, m in shown.items():
                print(f"    {key:34s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    # Exit through ``finally`` blocks on SIGTERM, so child processes stop.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.all:
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_probe:
        WORKLOADS[args.workload].make_inputs(args.seed)
        print("ready", flush=True)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
