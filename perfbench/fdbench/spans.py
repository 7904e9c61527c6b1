"""Span tracing from outside the program, for the traced run.

``Tracer.install`` replaces public entry points of ``fdwpc`` with wrappers on
their module attributes or classes. Calls from inside the package look these
names up at call time, so the wrappers see them too; no file of the package
changes. Each wrapper records a span (name, start, end, parent, operation);
spans stay in memory until the run writes them out. A span's self time is its
duration minus the durations of its direct children, which never overlap in a
single thread.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

import numpy as np

from fdwpc import cli, fading, hd, sim, solver, specfun, units

# (owner, attribute, span name). Owners are modules or classes; the solver's
# own bindings of the Lambert W functions are wrapped because that is the name
# it calls them by.
ENTRY_POINTS = (
    (cli, "main", "cli.main"),
    (solver, "solve", "solver.solve"),
    (solver, "waterfill_case1", "solver.waterfill_case1"),
    (solver, "capacity_case1", "solver.capacity_case1"),
    (solver, "recover_multipliers", "solver.recover_multipliers"),
    (solver, "closed_form_x2_errors", "solver.closed_form_x2_errors"),
    (solver, "x0_of_h", "solver.x0_of_h"),
    (solver, "lambert_w0", "specfun.lambert_w0"),
    (solver, "lambert_w0_of_log", "specfun.lambert_w0_of_log"),
    (specfun, "lambert_w0", "specfun.lambert_w0"),
    (specfun, "lambert_w0_of_log", "specfun.lambert_w0_of_log"),
    (specfun, "exp_e1", "specfun.exp_e1"),
    (hd, "solve_hd", "hd.solve_hd"),
    (hd, "hd_rate_at_fraction", "hd.hd_rate_at_fraction"),
    (sim, "simulate", "sim.simulate"),
    (sim.SimTrace, "to_csv", "sim.to_csv"),
    (fading, "rayleigh", "fading.rayleigh"),
    (fading.FadingDistribution, "sample_indices", "fading.sample_indices"),
    (units.LinkParams, "__init__", "units.LinkParams"),
)


def _solve_counts(tracer: "Tracer", args, kwargs, res) -> None:
    tracer.count("solver.case2", res.case == "Case2")


def _simulate_counts(tracer: "Tracer", args, kwargs, trace) -> None:
    params, fad, alloc, cfg = args
    wanted = alloc.p_ehu[trace.fading_state] > 0.0
    tracer.count("sim.slots", cfg.n_slots)
    tracer.count("sim.wanted", int(wanted.sum()))
    tracer.count("sim.transmitted", int(trace.transmitted.sum()))


# Counts taken from a call's result at the boundary where the work happens.
COUNTERS = {"solver.solve": _solve_counts, "sim.simulate": _simulate_counts}


class Tracer:
    """In-memory span recorder with a parent stack (one thread only)."""

    def __init__(self) -> None:
        # Span rows: [id, parent, op, name, start_ns, end_ns].
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def _open(self, name: str) -> list:
        stack = self._stack
        row = [len(self.spans), stack[-1] if stack else -1, self.op_id, name, time.perf_counter_ns(), 0]
        self.spans.append(row)
        stack.append(row[0])
        return row

    def _close(self, row: list) -> None:
        row[5] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(row)
            if counter is not None:
                counter(self, args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        for owner, attr, name in ENTRY_POINTS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around the benchmark's own code."""
        row = self._open(name)
        try:
            yield
        finally:
            self._close(row)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "parent", "op", "name", "start_ns", "end_ns"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def self_times(spans: list[list]) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self time in ms)."""
    if not spans:
        return {}
    arr = np.array([[r[0], r[1], r[4], r[5]] for r in spans], dtype=np.int64)
    ids, parents, dur = arr[:, 0], arr[:, 1], arr[:, 3] - arr[:, 2]
    first = int(ids[0])
    child = np.zeros(len(spans), dtype=np.int64)
    has_parent = parents >= first
    np.add.at(child, parents[has_parent] - first, dur[has_parent])
    self_ns = dur - child
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for r, s in zip(spans, self_ns):
        agg = out[r[3]]
        agg[0] += 1
        agg[1] += s / 1e6
    return {k: (v[0], v[1]) for k, v in out.items()}
