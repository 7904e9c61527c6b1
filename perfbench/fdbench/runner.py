"""Closed-loop runner: passes over a workload's operations, metrics from them.

One client, one thread: each operation starts when the previous one returns.
Passes repeat while the next one is expected to end within the measuring
time, and at least one pass always completes, so every run covers the same
inputs. In the untraced run the speed probe runs before every operation and
after the last one; each operation's time is scaled by the probes around it
(see ``probe`` and ``scaled``), and its cost is the median over passes.
"""

from __future__ import annotations

import contextlib
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import probe, spans, workloads

# End-to-end metrics (untraced run) and their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "points_per_s": "points/s",
    "op_ms_p50": "ms",
    "op_ms_p75": "ms",
}

# Per-layer metrics (traced run): name -> unit. Values are per pass.
PER_LAYER_UNITS = {
    "solver.solve.calls": "count",
    "solver.solve.self_ms": "ms",
    "solver.case2_frac": "ratio",
    "solver.waterfill_case1.self_ms": "ms",
    "solver.capacity_case1.self_ms": "ms",
    "solver.recover_multipliers.self_ms": "ms",
    "solver.closed_form_x2_errors.self_ms": "ms",
    "solver.x0_of_h.calls": "count",
    "hd.solve_hd.self_ms": "ms",
    "hd.hd_rate_at_fraction.calls": "count",
    "sim.simulate.self_ms": "ms",
    "sim.to_csv.self_ms": "ms",
    "sim.slots": "count",
    "sim.transmit_frac": "ratio",
    "cli.main.calls": "count",
    "cli.main.self_ms": "ms",
    "cli.rows": "count",
    "fading.rayleigh.self_ms": "ms",
    "fading.sample_indices.self_ms": "ms",
    "specfun.calls": "count",
    "specfun.self_ms": "ms",
    "units.LinkParams.calls": "count",
    "trace.overhead_frac": "ratio",
}

# Share of the traced run's time spent on untraced passes, the base of
# trace.overhead_frac.
UNTRACED_SHARE = 1.0 / 3.0


@dataclass
class Pass:
    wall_s: float = 0.0
    # Time of each operation's call into the program, in order.
    op_ms: list[float] = field(default_factory=list)
    # Untraced passes: probe seconds before each operation and after the last.
    probe_s: list[float] = field(default_factory=list)
    points: int = 0
    failed: int = 0
    # Traced passes only: span name -> (calls, self ms), and counters.
    layers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict
    passes: int
    samples: dict
    errors: list[str]
    # Unscaled wall-clock figures of the untraced run, for the record.
    raw: dict = field(default_factory=dict)
    # Traced runs: all layers of the median pass, for inspection and tests.
    layers: dict = field(default_factory=dict)


def run_pass(wl: workloads.Workload, tracer: spans.Tracer | None, errors: list[str], probed: bool) -> Pass:
    ps = Pass()
    first_span = len(tracer.spans) if tracer else 0
    counts_before = dict(tracer.counts) if tracer else {}
    t_pass = time.perf_counter()
    for op in wl.ops:
        out, exc = None, None
        if probed:
            ps.probe_s.append(probe.speed_probe())
        if tracer:
            tracer.op_id += 1
        with tracer.span("op") if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as e:  # an operation that raises is a failed one
                exc = e
            t1 = time.perf_counter()
        ps.op_ms.append((t1 - t0) * 1e3)
        if exc is not None:
            outcome = workloads.Outcome(0, [f"raised {type(exc).__name__}: {exc}"])
        else:
            outcome = op.check(out)
        ps.points += outcome.points
        if outcome.errors:
            ps.failed += 1
            errors.extend(f"{wl.name}/{op.name}: {e}" for e in outcome.errors)
        if tracer:
            for k, v in outcome.counts.items():
                tracer.count(k, v)
    if probed:
        ps.probe_s.append(probe.speed_probe())
    ps.wall_s = time.perf_counter() - t_pass
    if tracer:
        ps.layers = spans.self_times(tracer.spans[first_span:])
        ps.counts = {k: v - counts_before.get(k, 0.0) for k, v in tracer.counts.items()}
    return ps


# Probes on each side of a call that set its speed: their median shrugs off
# a probe caught in a burst of contention while staying local to the call.
PROBE_WINDOW = 3


def scaled(times, probes_s) -> np.ndarray:
    """Times at the reference speed.

    ``probes_s[i]`` ran just before ``times[i]`` and ``probes_s[i + 1]`` just
    after it; each time is divided by the median of the probes within
    ``PROBE_WINDOW`` places of it.
    """
    p = np.asarray(probes_s)
    speed = [
        np.median(p[max(i + 1 - PROBE_WINDOW, 0) : i + 1 + PROBE_WINDOW])
        for i in range(len(times))
    ]
    return np.asarray(times) / np.asarray(speed) * probe.REFERENCE_S


def measure_setup(cmd: list[str], cwd: Path, n: int) -> tuple[float, float]:
    """Median scaled and raw seconds of ``n`` runs of ``cmd``, each probed."""
    raw, probes = [], [probe.speed_probe()]
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
        raw.append(time.perf_counter() - t0)
        probes.append(probe.speed_probe())
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: set-up run exited with {proc.returncode}")
    return float(np.median(scaled(raw, probes))), float(np.median(raw))


def run_until(wl, deadline: float, tracer, errors, probed: bool = False) -> list[Pass]:
    passes = [run_pass(wl, tracer, errors, probed)]
    while time.perf_counter() + min(ps.wall_s for ps in passes) <= deadline:
        passes.append(run_pass(wl, tracer, errors, probed))
    return passes


def _layer_metrics(ps: Pass) -> dict[str, float]:
    def calls(name):
        return float(ps.layers.get(name, (0, 0.0))[0])

    def self_ms(name):
        return float(ps.layers.get(name, (0, 0.0))[1])

    def ratio(a, b):
        return a / b if b else 0.0

    specfun_names = [k for k in ps.layers if k.startswith("specfun.")]
    out = {}
    for name in PER_LAYER_UNITS:
        if name.endswith(".calls") and name != "specfun.calls":
            out[name] = calls(name[: -len(".calls")])
        elif name.endswith(".self_ms") and name != "specfun.self_ms":
            out[name] = self_ms(name[: -len(".self_ms")])
    c = ps.counts
    out["solver.case2_frac"] = ratio(c.get("solver.case2", 0.0), calls("solver.solve"))
    out["sim.slots"] = c.get("sim.slots", 0.0)
    out["sim.transmit_frac"] = ratio(c.get("sim.transmitted", 0.0), c.get("sim.wanted", 0.0))
    out["cli.rows"] = c.get("cli.rows", 0.0)
    out["specfun.calls"] = sum(calls(k) for k in specfun_names)
    out["specfun.self_ms"] = sum(self_ms(k) for k in specfun_names)
    return out


def run(wl: workloads.Workload, seconds: float, trace: bool, spans_path: Path | None = None) -> RunResult:
    errors: list[str] = []
    start = time.perf_counter()
    if not trace:
        passes = run_until(wl, start + seconds, None, errors, probed=True)
        op_ms = np.median([scaled(ps.op_ms, ps.probe_s) for ps in passes], axis=0)
        metrics = {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "points_per_s": passes[0].points / float(op_ms.sum()) * 1e3,
            "op_ms_p50": float(np.percentile(op_ms, 50)),
            "op_ms_p75": float(np.percentile(op_ms, 75)),
        }
        # The percentiles are over the operations of a pass; each
        # operation's time is the median of `repeats` passes.
        samples = {"ops": len(op_ms), "repeats": len(passes)}
        raw_ms = np.median([ps.op_ms for ps in passes], axis=0)
        raw = {
            "op_ms_p50": float(np.percentile(raw_ms, 50)),
            "op_ms_p75": float(np.percentile(raw_ms, 75)),
            "points_per_s": passes[0].points / float(raw_ms.sum()) * 1e3,
            "probe_ms_median": float(np.median([p for ps in passes for p in ps.probe_s])) * 1e3,
        }
        traced = []
    else:
        untraced = run_until(wl, start + seconds * UNTRACED_SHARE, None, errors, probed=True)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_until(wl, start + seconds, tracer, errors, probed=True)
        finally:
            tracer.uninstall()
        if spans_path is not None:
            tracer.write(spans_path)
        passes = untraced + traced
        per_pass = [_layer_metrics(ps) for ps in traced]
        metrics = {name: float(np.median([m[name] for m in per_pass])) for name in per_pass[0]}
        metrics["trace.overhead_frac"] = float(
            np.median([scaled(ps.op_ms, ps.probe_s).sum() for ps in traced])
            / np.median([scaled(ps.op_ms, ps.probe_s).sum() for ps in untraced])
            - 1.0
        )
        samples = {"untraced_passes": len(untraced), "traced_passes": len(traced)}
        raw = {}
    attempted = sum(len(ps.op_ms) for ps in passes)
    failed = sum(ps.failed for ps in passes)
    result = RunResult(attempted, failed, metrics, len(passes), samples, errors, raw)
    if traced:
        mid = traced[len(traced) // 2]
        result.layers = {k: {"calls": v[0], "self_ms": v[1]} for k, v in sorted(mid.layers.items())}
    return result


def result_line(res: RunResult, units: dict[str, str]) -> dict:
    return {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": res.metrics[k], "unit": u} for k, u in units.items()},
    }


def report_errors(errors: list[str], limit: int = 20) -> None:
    for e in errors[:limit]:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    if len(errors) > limit:
        print(f"perfbench: ... {len(errors) - limit} more", file=sys.stderr)
