"""Battery dynamics and the slotted Monte Carlo achievability run."""

import numpy as np
import pytest

from fdwpc import fading
from fdwpc.sim import SimConfig, simulate
from fdwpc.solver import PowerAllocation, solve
from fdwpc.units import LinkParams


def sim_params(**kw):
    base = dict(
        eta=0.8, p_proc=0.05, p_et=1.0, sigma2_sq=0.1, g1_mean=0.3, alpha1=0.4, alpha2=0.05
    )
    base.update(kw)
    return LinkParams(**base)


def test_harvest_per_use_statistical_mean():
    # Per use the user harvests eta*(h*x2 + g1*x1)^2 with g1 ~ N(g1_mean,
    # alpha1) and x1 ~ N(0, p_ehu) while transmitting, and eta*h^2*x2^2
    # while asleep.
    params = sim_params()
    f = fading.deterministic(1.0)
    res = solve(params, f)
    tr = simulate(params, f, res.allocation, SimConfig(k=200, n_slots=5000, seed=5))
    h, x2, p_ehu = f.h[0], res.allocation.x2[0], res.allocation.p_ehu[0]
    share = float(np.mean(tr.transmitted))
    recycled = (params.g1_mean**2 + params.alpha1) * p_ehu * share
    expected = params.eta * (h**2 * x2**2 + recycled)
    assert 0.2 < share < 1.0 and recycled > 0.3 * h**2 * x2**2
    assert tr.mean_harvest_w == pytest.approx(expected, rel=0.01)


def test_cold_start_single_slot():
    params = sim_params()
    f = fading.deterministic(1.0)
    res = solve(params, f)
    tr = simulate(params, f, res.allocation, SimConfig(k=50, n_slots=1, seed=0))
    assert tr.empirical_rate == 0.0
    assert tr.outage_fraction == 1.0
    assert not tr.transmitted[0]


def test_infeasible_processing_cost_never_transmits():
    params = sim_params(p_proc=5.0)
    f = fading.deterministic(1.0)
    res = solve(params, f)
    assert res.capacity == 0.0
    tr = simulate(params, f, res.allocation, SimConfig(k=50, n_slots=200, seed=1))
    assert tr.empirical_rate == 0.0
    assert not np.any(tr.transmitted)


def test_energy_conservation_and_nonnegativity():
    params = sim_params()
    f = fading.rayleigh(1.0, 8)
    res = solve(params, f)
    tr = simulate(params, f, res.allocation, SimConfig(k=100, n_slots=3000, seed=3))
    drift = abs(tr.energy_in_total - tr.energy_out_total - tr.battery_final)
    assert drift <= 1e-9 * tr.energy_in_total
    assert np.all(tr.battery_j >= 0.0)


def test_reproducible_given_seed():
    params = sim_params()
    f = fading.rayleigh(1.0, 8)
    res = solve(params, f)
    cfg = SimConfig(k=50, n_slots=500, seed=11)
    a = simulate(params, f, res.allocation, cfg)
    b = simulate(params, f, res.allocation, cfg)
    assert np.array_equal(a.battery_j, b.battery_j)
    assert a.empirical_rate == b.empirical_rate


def test_two_seeds_agree_at_long_runs():
    params = sim_params()
    f = fading.deterministic(1.0)
    res = solve(params, f)
    runs = [
        simulate(params, f, res.allocation, SimConfig(k=200, n_slots=20000, seed=s))
        for s in (0, 1)
    ]
    a, b = (r.empirical_rate for r in runs)
    assert abs(a - b) / max(a, b) < 0.03


def test_rayleigh_long_run_convergence():
    # Under fading the solved allocation concentrates harvesting on one
    # state, so battery income arrives in bursts and the zero-drift battery
    # visits empty more often than with a flat harvest; the empirical rate
    # still tracks the analytic capacity. Bounds here are the measured
    # behavior for this seed set with margin.
    params = LinkParams(eta=0.8, p_proc=0.0, p_et=1.0, sigma2_sq=1e-14, alpha2=1e-10)
    f = fading.rayleigh(9.880961210318490e-08, 16)
    res = solve(params, f)
    for seed in (0, 1):
        tr = simulate(params, f, res.allocation, SimConfig(k=200, n_slots=20000, seed=seed))
        assert abs(tr.empirical_rate - res.capacity) / res.capacity < 0.04
        assert tr.outage_fraction < 0.04
        assert np.all(tr.battery_j >= 0.0)


def test_harvested_covers_consumed():
    params = sim_params()
    f = fading.rayleigh(1.0, 8)
    res = solve(params, f)
    tr = simulate(params, f, res.allocation, SimConfig(k=100, n_slots=5000, seed=9))
    # The balance is tight at the optimum; outage slots only save energy.
    assert tr.mean_harvest_w >= tr.mean_consumed_w - 1e-12


def test_mid_slot_depletion_respects_battery():
    # A tiny slot gate with large symbol variance forces the min clause.
    params = sim_params(p_proc=0.0, alpha1=0.0, g1_mean=0.0)
    f = fading.deterministic(1.0)
    alloc = PowerAllocation(np.array([1.0]), np.array([5.0]))
    tr = simulate(params, f, alloc, SimConfig(k=3, n_slots=400, seed=7))
    assert np.all(tr.battery_j >= 0.0)
    drift = abs(tr.energy_in_total - tr.energy_out_total - tr.battery_final)
    assert drift <= 1e-9 * max(tr.energy_in_total, 1e-300)


def test_trace_csv(tmp_path):
    params = sim_params()
    f = fading.rayleigh(1.0, 4)
    res = solve(params, f)
    tr = simulate(params, f, res.allocation, SimConfig(k=20, n_slots=50, seed=2))
    out = tmp_path / "trace.csv"
    tr.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "slot,h,transmitted,slot_rate_bits,battery_j"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] in {"0", "1"}


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(k=0, n_slots=10)
    with pytest.raises(ValueError):
        SimConfig(k=10, n_slots=0)
