"""Tests of the benchmark itself: its checks fail on corrupted outputs, the
traced run sees calls made inside the package, and the runner prints every
metric with its unit. Everything runs at the tiny sizes."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from fdwpc import fading, sim, solver, units  # noqa: E402
from fdbench import checks, runner, spans, workloads  # noqa: E402


def _sim_link(n_slots=600):
    params = units.LinkParams(
        eta=0.8, p_proc=units.dbm_to_watt(-75.0), p_et=1.0, sigma2_sq=1e-14, alpha2=1e-10
    )
    fad = fading.rayleigh(workloads.OMEGA_D10, workloads.SIM_STATES)
    res = solver.solve(params, fad)
    cfg = sim.SimConfig(k=20, n_slots=n_slots, seed=3)
    return params, fad, res, cfg, sim.simulate(params, fad, res.allocation, cfg)


def test_cli_check_catches_perturbed_field():
    ref = workloads.cli_reference_path("capacity-sweep", tiny=True).read_text()
    assert checks.check_cli(0, ref, ref) == []
    lines = ref.splitlines()
    fields = lines[1].split(",")
    fields[1] = f"{float(fields[1]) * (1 + 1e-9):.12e}"
    perturbed = "\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n"
    assert checks.check_cli(0, perturbed, ref)
    retagged = ref.replace("Case2", "Case1", 1)
    assert checks.check_cli(0, retagged, ref)
    assert checks.check_cli(0, "\n".join(lines[:-1]) + "\n", ref)
    assert checks.check_cli(3, ref, ref)


def test_solve_check_catches_perturbed_capacity():
    spec = workloads.draw_links(7, (1, 1), workloads.SOLVE_STATES_TINY)[0]
    params, fad = workloads.link_inputs(spec)
    res = solver.solve(params, fad)
    assert checks.check_solve(params, fad, res) == []
    bumped = dataclasses.replace(res, capacity=res.capacity * (1 + 1e-10))
    assert checks.check_solve(params, fad, bumped)
    assert checks.check_solve(params, fad, res, {"case": res.case, "capacity": bumped.capacity})
    leaky = dataclasses.replace(res, residuals={**res.residuals, "c2_residual_rel": 1e-6})
    assert checks.check_solve(params, fad, leaky)


def test_simulate_check_catches_negative_battery_and_drift():
    params, fad, res, cfg, trace = _sim_link()
    assert checks.check_simulate(params, fad, res, trace, cfg) == []
    battery = trace.battery_j.copy()
    battery[len(battery) // 2] = -1e-30
    negative = dataclasses.replace(trace, battery_j=battery)
    assert any("negative battery" in e for e in checks.check_simulate(params, fad, res, negative, cfg))
    drift = dataclasses.replace(trace, energy_out_total=trace.energy_out_total * (1 + 1e-6))
    assert any("energy drift" in e for e in checks.check_simulate(params, fad, res, drift, cfg))
    # A slot that transmits without the energy to do so breaks the replay.
    sent = trace.transmitted.copy()
    sent[0] = True
    eager = dataclasses.replace(trace, transmitted=sent)
    assert any("scheduling law" in e for e in checks.check_simulate(params, fad, res, eager, cfg))


def test_inputs_follow_the_seed():
    grid, states = workloads.SOLVE_GRID, workloads.SOLVE_STATES
    assert workloads.draw_links(5, grid, states) == workloads.draw_links(5, grid, states)
    assert workloads.draw_links(5, grid, states) != workloads.draw_links(6, grid, states)
    links = workloads.draw_links(5, grid, states)
    assert len(links) == 80
    assert sum(spec.pp_share == 0.0 for spec in links) == 40
    assert all(states[0] <= spec.n_states <= states[1] for spec in links)
    assert all(60.0 <= spec.suppression_db <= 110.0 for spec in links)


def test_self_time_subtracts_children():
    rows = [
        [0, -1, 0, "op", 0, 10_000_000],
        [1, 0, 0, "solver.solve", 1_000_000, 9_000_000],
        [2, 1, 0, "solver.waterfill_case1", 2_000_000, 3_000_000],
        [3, 1, 0, "solver.waterfill_case1", 4_000_000, 6_000_000],
    ]
    agg = spans.self_times(rows)
    assert agg["op"] == (1, 2.0)
    assert agg["solver.solve"] == (1, 5.0)
    assert agg["solver.waterfill_case1"] == (2, 3.0)


def test_traced_run_sees_calls_inside_the_package(tmp_path):
    original = solver.solve
    wl = workloads.build("cli_sweeps", 0, tmp_path / "scratch", tiny=True)
    res = runner.run(wl, 0.0, trace=True, spans_path=tmp_path / "spans.json")
    assert solver.solve is original
    assert res.failed == 0
    layers = res.layers
    solves = layers["solver.solve"]["calls"]
    assert solves == 7 and res.metrics["solver.solve.calls"] == solves
    assert layers["solver.waterfill_case1"]["calls"] == solves
    assert layers["solver.recover_multipliers"]["calls"] == solves
    assert layers["units.LinkParams"]["calls"] == solves
    assert layers["hd.solve_hd"]["calls"] == 4
    assert res.metrics["hd.hd_rate_at_fraction.calls"] > 4
    assert res.metrics["cli.rows"] == 7 and res.metrics["cli.main.calls"] == 3
    recorded = json.loads((tmp_path / "spans.json").read_text())["spans"]
    ids = {row[0] for row in recorded}
    assert all(row[1] == -1 or row[1] in ids for row in recorded)
    assert all(row[4] <= row[5] for row in recorded)


def test_traced_simulate_counts_slots(tmp_path):
    wl = workloads.build("simulate", 0, tmp_path / "scratch", tiny=True)
    res = runner.run(wl, 0.0, trace=True)
    assert res.failed == 0
    assert res.metrics["sim.slots"] == 3 * workloads.SIM_SLOTS_TINY
    assert 0.0 < res.metrics["sim.transmit_frac"] <= 1.0
    assert res.layers["fading.sample_indices"]["calls"] == 3
    assert res.layers["sim.to_csv"]["calls"] == 3


def _results(stdout: str) -> dict:
    out, name = {}, None
    for line in stdout.splitlines():
        if line.startswith("# workload "):
            name = line.split()[-1]
        elif line.startswith('{"correct"'):
            out[name] = json.loads(line)
    return out


@pytest.mark.parametrize(
    "trace, units_by_name",
    [(0, runner.END_TO_END_UNITS), (1, runner.PER_LAYER_UNITS)],
)
def test_one_command_prints_every_metric(trace, units_by_name):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "0",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    results = _results(proc.stdout)
    assert sorted(results) == sorted(workloads.MAKE)
    for name, res in results.items():
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, name
        assert {k: v["unit"] for k, v in res["metrics"].items()} == units_by_name
        assert all(np.isfinite(v["value"]) for v in res["metrics"].values())


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == runner.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == runner.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.MAKE)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_sweeps", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
