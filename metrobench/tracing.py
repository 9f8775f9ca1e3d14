"""Spans around metroslice's public entry points, for the traced run.

The tracer wraps functions and methods from the benchmark's side: it
replaces each entry point in every loaded ``metroslice`` module that
refers to it (``from .planner import place`` makes a second reference),
records a span per call and restores the originals on ``uninstall``.
Spans are kept in memory as ``[name, start_ns, end_ns, parent, error]``
and written out once, at the end of the run. Untraced runs never create
a tracer, so they run the program unwrapped.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import defaultdict

from metroslice import dataplane, live, mda, optical, orchestrator, planner, probe


def _create_kind(args, kwargs):
    slot = kwargs.get("slot", args[3] if len(args) > 3 else None)
    return "optical.create_explicit" if slot is not None else "optical.create_firstfit"


class Tracer:
    """Records spans and counters around the wrapped entry points."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._live_channels = weakref.WeakKeyDictionary()  # controller -> live

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack
        namer = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [namer(args, kwargs) if namer else name,
                    time.perf_counter_ns(), 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _patch_function(self, module, attr, name, after=None):
        original = getattr(module, attr)
        traced = self._wrap(name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "metroslice" or mod_name.startswith("metroslice."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, traced)

    def _patch_method(self, cls, attr, name, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            traced = classmethod(self._wrap(name, raw.__func__, after))
        else:
            traced = self._wrap(name, raw, after)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, traced)

    # -- counters fed from results -------------------------------------------

    def _on_filter(self, args, kwargs, eligibility):
        space = 1
        for opts in eligibility.values():
            space *= len(opts)
        self.counters["filter_calls"] += 1
        self.counters["search_space"] += space

    def _on_place(self, args, kwargs, decision):
        self.counters["planner.place_calls"] += 1
        if decision.placed:
            self.counters["placed"] += 1
            self.counters["chosen_rank"] += decision.ranked.index(decision.candidate) + 1
        else:
            self.counters[f"planner.blocked.{decision.block_reason.value}"] += 1

    def _on_create(self, args, kwargs, mc):
        live = self._live_channels[args[0]] = self._live_channels.get(args[0], 0) + 1
        self.counters["optical.channels_created"] += 1
        peak = self.counters["optical.channels_live"]
        self.counters["optical.channels_live"] = max(peak, live)

    def _on_delete(self, args, kwargs, mc):
        self._live_channels[args[0]] -= 1

    def _on_transmit(self, args, kwargs, result):
        self.counters["dataplane.pkts"] += len(result.delivered)

    def _on_export(self, args, kwargs, count):
        self.counters["mda.records"] += count

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        import metroslice.config as config

        f = self._patch_function
        m = self._patch_method
        f(config, "load_scenario", "config.load_scenario")
        f(config, "build_world", "config.build_world")
        f(planner, "place", "planner.place", self._on_place)
        f(planner, "filter_vims", "planner.filter_vims", self._on_filter)
        f(planner, "build_rtt_graph", "planner.build_rtt_graph")
        f(planner, "rank_service_chains", "planner.rank_service_chains")
        m(optical.OlsController, "create_media_channel", _create_kind, self._on_create)
        m(optical.OlsController, "delete_media_channel", "optical.delete", self._on_delete)
        f(optical, "configure_transponder", "optical.configure_transponder")
        f(orchestrator, "run_wf1", "orchestrator.run_wf1")
        f(orchestrator, "run_wf2", "orchestrator.run_wf2")
        f(orchestrator, "build_circuit_path", "orchestrator.build_circuit_path")
        m(probe.SimulatedProbe, "run", "probe.run")
        f(probe, "compute_stats", "probe.compute_stats")
        f(probe, "latency_budget", "probe.latency_budget")
        f(dataplane, "transmit_train", "dataplane.transmit_train", self._on_transmit)
        f(dataplane, "path_from_nodes", "dataplane.path_from_nodes")
        f(dataplane, "path_from_topology", "dataplane.path_from_topology")
        f(dataplane, "evolve_quality", "dataplane.evolve_quality")
        m(mda.MdaController, "measure_circuit", "mda.measure_circuit")
        m(mda.MdaController, "export_jsonl", "mda.export_jsonl", self._on_export)
        m(mda.MdaController, "load_jsonl", "mda.load_jsonl")
        f(mda, "detect_soft_failure", "mda.detect_soft_failure")
        f(live, "live_measure", "live.live_measure")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- reading spans ----------------------------------------------------------

    def busy_s(self, name) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name) / 1e9

    def self_s(self, name) -> float:
        child_ns = defaultdict(int)
        for s in self.spans:
            if s[3] >= 0:
                child_ns[s[3]] += s[2] - s[1]
        return sum(s[2] - s[1] - child_ns[i] for i, s in enumerate(self.spans)
                   if s[0] == name) / 1e9

    def count(self, name, error=None) -> int:
        return sum(1 for s in self.spans if s[0] == name
                   and (error is None or (s[4] is not None) == error))

    def transmit_split_s(self) -> tuple[float, float]:
        """Forward and reverse transmit time: first and second child of a run."""
        order = defaultdict(int)
        out = [0, 0]
        for s in self.spans:
            if s[0] == "dataplane.transmit_train" and s[3] >= 0:
                k = order[s[3]]
                order[s[3]] += 1
                out[min(k, 1)] += s[2] - s[1]
        return out[0] / 1e9, out[1] / 1e9

    def write(self, path) -> None:
        """Spans as Chrome trace-event JSON (complete events, microseconds)."""
        events = [
            {"name": s[0], "ph": "X", "pid": 1, "tid": 1, "ts": s[1] / 1e3,
             "dur": (s[2] - s[1]) / 1e3,
             "args": {"id": i, "parent": s[3], "error": s[4]}}
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "counters": dict(self.counters)}, fh)
