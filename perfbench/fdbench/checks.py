"""Output checks. Each returns the list of failed checks; empty means correct.

The checks recompute what they can in the benchmark's own code rather than
trusting the program's diagnostics: the capacity is re-evaluated from the
allocation, and the simulator's trace is replayed against the battery law.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-12
RESIDUAL_TOL = 1e-9
# Standard errors allowed between the rate of the drawn fading states and the
# capacity: a correct sampler fails this on fewer than one seed in a million.
RATE_SIGMAS = 5.0


def rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol * max(abs(a), abs(b))


def csv_data_rows(text: str) -> int:
    return max(len(text.splitlines()) - 1, 0)


def _parse_field(s: str):
    try:
        return float(s)
    except ValueError:
        return s


def check_cli(code: int, text: str, reference: str) -> list[str]:
    """Exit code 0, same header, row count and tags; numbers to 1e-12."""
    if code != 0:
        return [f"exit code {code}"]
    got = text.splitlines()
    want = reference.splitlines()
    if not got or got[0] != want[0]:
        return [f"header {got[:1]} != {want[:1]}"]
    if len(got) != len(want):
        return [f"{len(got) - 1} rows, want {len(want) - 1}"]
    errors = []
    for row, (g_line, w_line) in enumerate(zip(got[1:], want[1:]), start=1):
        g_fields, w_fields = g_line.split(","), w_line.split(",")
        if len(g_fields) != len(w_fields):
            errors.append(f"row {row}: {len(g_fields)} fields, want {len(w_fields)}")
            continue
        for col, (g, w) in enumerate(zip(g_fields, w_fields)):
            gv, wv = _parse_field(g), _parse_field(w)
            if isinstance(wv, float) and isinstance(gv, float):
                ok = rel_close(gv, wv)
            else:
                ok = g == w
            if not ok:
                errors.append(f"row {row} col {col}: {g} != reference {w}")
    return errors


def state_rates(params, fad, alloc) -> np.ndarray:
    """Per-state (1/2) log2(1 + h^2 p_ehu / (sigma2^2 + alpha2 x2^2)), bits/use."""
    s = params.sigma2_sq + params.alpha2 * alloc.x2**2
    rates = np.zeros(fad.n_states)
    act = alloc.p_ehu > 0.0
    rates[act] = 0.5 * np.log2(1.0 + fad.h[act] ** 2 * alloc.p_ehu[act] / s[act])
    return rates


def check_solve(params, fad, res, reference=None) -> list[str]:
    """Balance, budget, case choice and an independent capacity re-evaluation.

    ``reference`` is ``{"case": ..., "capacity": ...}`` recorded for the link.
    """
    errors = []
    r = res.residuals
    if not abs(r["c2_residual_rel"]) <= RESIDUAL_TOL:
        errors.append(f"c2_residual_rel {r['c2_residual_rel']:.3e}")
    if not r["c1_slack"] >= -RESIDUAL_TOL * params.p_et:
        errors.append(f"c1_slack {r['c1_slack']:.3e} below -1e-9 p_et")
    if not res.capacity >= r["case1_capacity"]:
        errors.append(f"capacity {res.capacity!r} < case1_capacity {r['case1_capacity']!r}")
    recomputed = float(fad.p @ state_rates(params, fad, res.allocation))
    if not rel_close(res.capacity, recomputed):
        errors.append(f"capacity {res.capacity!r} != re-evaluated {recomputed!r}")
    if reference is not None:
        if res.case != reference["case"]:
            errors.append(f"case {res.case} != reference {reference['case']}")
        if not rel_close(res.capacity, reference["capacity"]):
            errors.append(f"capacity {res.capacity!r} != reference {reference['capacity']!r}")
    return errors


def check_simulate(params, fad, res, trace, cfg) -> list[str]:
    """Energy conservation, battery sign, and a replay of the trace.

    The replay checks the scheduling law slot by slot (transmit exactly when
    the allocation wants to and the battery at slot start covers the slot's
    demand), the harvest of every sleeping slot, and recounts the empirical
    rate and outage. The rate of the drawn states, outages aside, must lie
    within ``RATE_SIGMAS`` standard errors of the analytic capacity.
    """
    errors = []
    e_in, e_out, final = trace.energy_in_total, trace.energy_out_total, trace.battery_final
    if not abs(e_in - e_out - final) <= RESIDUAL_TOL * e_in:
        errors.append(f"energy drift {abs(e_in - e_out - final):.3e} J of {e_in:.3e} J in")
    battery = trace.battery_j
    if battery.size != cfg.n_slots:
        return errors + [f"{battery.size} trace slots, want {cfg.n_slots}"]
    if not np.all(battery >= 0.0):
        errors.append(f"negative battery, min {float(np.min(battery)):.3e} J")

    alloc = res.allocation
    states = trace.fading_state
    if not np.array_equal(trace.h, fad.h[states]):
        errors.append("trace gains do not match the drawn states")
    start = np.concatenate(([0.0], battery[:-1]))
    p_ehu = alloc.p_ehu[states]
    wanted = p_ehu > 0.0
    demand = cfg.k * (params.p_proc + p_ehu)
    bad = np.flatnonzero(trace.transmitted != (wanted & (start >= demand)))
    if bad.size:
        errors.append(f"{bad.size} slots break the scheduling law, first {int(bad[0])}")
    hx2 = fad.h[states] * alloc.x2[states]
    sleep = ~trace.transmitted
    harvest = cfg.k * params.eta * hx2[sleep] * hx2[sleep]
    sleep_err = np.abs(battery[sleep] - start[sleep] - harvest)
    if np.any(sleep_err > REL_TOL * np.maximum(battery[sleep], harvest) + 1e-300):
        errors.append("sleeping-slot harvest does not match the battery trace")

    rates = state_rates(params, fad, alloc)
    empirical = float(rates[states[trace.transmitted]].sum()) / cfg.n_slots
    if not rel_close(trace.empirical_rate, empirical):
        errors.append(f"empirical rate {trace.empirical_rate!r} != recount {empirical!r}")
    outage = int((wanted & sleep).sum()) / cfg.n_slots
    if trace.outage_fraction != outage:
        errors.append(f"outage {trace.outage_fraction!r} != recount {outage!r}")
    sampled = float(rates[states].sum()) / cfg.n_slots
    std_err = math.sqrt(float(fad.p @ (rates - res.capacity) ** 2) / cfg.n_slots)
    if not abs(sampled - res.capacity) <= RATE_SIGMAS * std_err:
        errors.append(
            f"sampled rate {sampled:.6e} more than {RATE_SIGMAS:g} standard errors "
            f"({std_err:.3e}) from capacity {res.capacity:.6e}"
        )
    return errors
