"""Spans around the program's public functions, and the per-layer metrics
derived from them.

The tracer replaces each public function in the namespaces that call it with
a wrapper that records a span (name, parent, start, end, counters) in memory.
Spans nest per thread, so stand-alone solves fanned out over worker threads
keep their own parent chain. Nothing inside the program is changed: the
program's own timing and results are those of the untraced functions.
"""
from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from pathlib import Path
from unittest import mock

import numpy as np

from asmarket import cli, lp, pricing
from asmarket.pricing import DISPATCH_TOL

import workloads


@dataclass
class Span:
    name: str
    pass_id: int
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self.active = True
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(name, self.pass_id, stack[-1] if stack else None,
                        threading.get_ident(), time.perf_counter())
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.counts = count(result, *args, **kwargs)
            return result

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(span)}) + "\n")


# ---------------------------------------------------------------------------
# Counters read from the wrapped calls' arguments and results


def _solve_counts(result, *args, **kwargs):
    stats = result[2]
    return {"nodes": stats.nodes, "lp_iterations": stats.lp_iterations, "cuts": stats.cuts}


def _standalone_counts(result, scenario, block_i, *args, **kwargs):
    # the same profile rule standalone_markets applies before its solves
    dispatch = block_i[1]
    profiles = []
    for unit in scenario.all_units:
        if unit.loss_eligible:
            prof = np.maximum(dispatch.dispatch_of(unit.id), 0.0)
            prof[prof <= DISPATCH_TOL] = 0.0
            if prof.any():
                profiles.append(prof.tobytes())
    return {"units": len(profiles), "distinct": len(set(profiles))}


def _allocation_counts(result, standalone, *args, **kwargs):
    players = [sum(1 for _, w in standalone.per_hour(t) if w > 0.0) for t in range(standalone.horizon)]
    return {"games": sum(1 for n in players if n), "players_max": max(players, default=0)}


def _write_counts(result, path, *args, **kwargs):
    return {"bytes": Path(path).stat().st_size}


def instrument(tracer: Tracer) -> ExitStack:
    """Patch every traced entry point; closing the stack restores them."""
    targets = [
        ("scenario.load", None, [cli, workloads], "load_scenario"),
        ("ucmodel.build", lambda m, *a, **k: {"vars": m.n_vars}, [cli, pricing, workloads], "build_uc"),
        ("solve.mip", _solve_counts, [cli], "solve_mip"),
        ("solve.relaxed", _solve_counts, [cli, pricing, workloads], "solve_relaxed"),
        ("lp.solve", lambda out, *a, **k: {"iterations": out.iterations}, [lp], "solve_lp"),
        ("pricing.prices", None, [cli, workloads], "as_prices_from_duals"),
        ("pricing.audit", None, [cli, workloads], "duality_audit"),
        ("pricing.standalone", _standalone_counts, [cli], "standalone_markets"),
        ("allocation.allocate", _allocation_counts, [cli], "allocate_hourly"),
    ]
    targets += [("tables.write", _write_counts, [cli], name)
                for name in dir(cli) if name.startswith("write_")]
    stack = ExitStack()
    for span_name, count, modules, attr in targets:
        for module in modules:
            original = getattr(module, attr)
            stack.enter_context(mock.patch.object(module, attr, tracer.wrap(span_name, original, count)))
    return stack


# ---------------------------------------------------------------------------
# Per-layer metrics of one pass

METRICS = {
    # name: (unit, span, what)  what: 's' total time, 'n' span count,
    # 'self' time not covered by child spans, or a counter name (summed,
    # or the maximum for 'vars' and 'players_max')
    "scenario.load_s": ("s", "scenario.load", "s"),
    "ucmodel.build_s": ("s", "ucmodel.build", "s"),
    "ucmodel.builds": ("count", "ucmodel.build", "n"),
    "ucmodel.vars": ("count", "ucmodel.build", "vars"),
    "solve.mip_s": ("s", "solve.mip", "s"),
    "solve.mip_nodes": ("count", "solve.mip", "nodes"),
    "solve.mip_lp_iterations": ("count", "solve.mip", "lp_iterations"),
    "solve.mip_cuts": ("count", "solve.mip", "cuts"),
    "solve.relaxed_s": ("s", "solve.relaxed", "s"),
    "solve.relaxed_calls": ("count", "solve.relaxed", "n"),
    "solve.relaxed_lp_iterations": ("count", "solve.relaxed", "lp_iterations"),
    "solve.relaxed_cuts": ("count", "solve.relaxed", "cuts"),
    "solve.self_s": ("s", "solve.", "self"),
    "lp.solve_s": ("s", "lp.solve", "s"),
    "lp.calls": ("count", "lp.solve", "n"),
    "lp.iterations": ("count", "lp.solve", "iterations"),
    "pricing.prices_s": ("s", "pricing.prices", "s"),
    "pricing.audit_s": ("s", "pricing.audit", "s"),
    "pricing.standalone_s": ("s", "pricing.standalone", "s"),
    "pricing.standalone_units": ("count", "pricing.standalone", "units"),
    "pricing.distinct_profiles": ("count", "pricing.standalone", "distinct"),
    "allocation.allocate_s": ("s", "allocation.allocate", "s"),
    "allocation.games": ("count", "allocation.allocate", "games"),
    "allocation.players_max": ("count", "allocation.allocate", "players_max"),
    "tables.write_s": ("s", "tables.write", "s"),
    "tables.bytes": ("count", "tables.write", "bytes"),
}
_MAXED = {"vars", "players_max"}


def pass_metrics(spans: list[Span], pass_id: int) -> dict[str, float]:
    """Per-layer metrics of one pass. ``spans`` is the tracer's whole list,
    since parents are positions in it."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    out = {}
    for name, (_, prefix, what) in METRICS.items():
        chosen = [(i, s) for i, s in enumerate(spans) if s.pass_id == pass_id
                  and (s.name.startswith(prefix) if what == "self" else s.name == prefix)]
        if what == "s":
            out[name] = sum(s.duration for _, s in chosen)
        elif what == "n":
            out[name] = len(chosen)
        elif what == "self":
            out[name] = sum(s.duration - child_time.get(i, 0.0) for i, s in chosen)
        elif what in _MAXED:
            out[name] = max((s.counts[what] for _, s in chosen), default=0)
        else:
            out[name] = sum(s.counts[what] for _, s in chosen)
    return out
