"""Capacity solver: both regimes, closed forms, duals, and the oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdwpc import fading
from fdwpc.solver import (
    MultiplierSet,
    NonConvergenceError,
    _project_to_budget,
    brute_force_oracle,
    capacity_case1,
    capacity_no_fading,
    closed_form_x2_errors,
    rayleigh_capacity_closed_form,
    recover_multipliers,
    solve,
    solve_case2,
    waterfill_case1,
    x0_of_h,
)
from fdwpc.units import LinkParams

HALF_LOG2_5 = 1.1609640474436812  # (1/2) log2(5)


def simple_params(**kw):
    base = dict(eta=0.8, p_proc=0.0, p_et=1.0, sigma2_sq=0.1, alpha2=0.0)
    base.update(kw)
    return LinkParams(**base)


def case1_reference(params, h, p):
    """Independent constant-amplitude reference: plain scalar bisection on the
    water level, written without the package's solver machinery."""
    h = np.asarray(h, float)
    p = np.asarray(p, float)
    s = params.sigma2_sq + params.p_et * params.alpha2
    budget = (params.eta * params.p_et * float(h**2 @ p) - params.p_proc) / (
        1.0 - params.rho
    )
    if budget <= 0.0:
        return np.zeros_like(h), 0.0
    noise = s / h**2
    lo, hi = 0.0, float(np.max(noise)) + budget / float(np.min(p))
    for _ in range(200):
        w = 0.5 * (lo + hi)
        if float(np.maximum(w - noise, 0.0) @ p) < budget:
            lo = w
        else:
            hi = w
    pe = np.maximum(0.5 * (lo + hi) - noise, 0.0)
    cap = float((0.5 * np.log2(1.0 + h**2 * pe / s)) @ p)
    return pe, cap


# ---------------------------------------------------------------------------
# Constant-amplitude regime
# ---------------------------------------------------------------------------


def test_case1_single_state_balance():
    params = simple_params(alpha2=0.1)
    lam2, alloc = waterfill_case1(params, fading.deterministic(1.0))
    assert alloc.p_ehu[0] == pytest.approx(0.8, rel=1e-9)
    assert alloc.x2[0] == pytest.approx(1.0, rel=1e-12)


def test_case1_recycling_scales_budget():
    params = simple_params(alpha2=0.1, alpha1=0.625)  # rho = 0.5
    lam2, alloc = waterfill_case1(params, fading.deterministic(1.0))
    assert alloc.p_ehu[0] == pytest.approx(1.6, rel=1e-9)


def test_case1_two_state_against_reference():
    h = np.array([0.5, 1.5])
    p = np.array([0.5, 0.5])
    params = simple_params(sigma2_sq=0.4)
    f = fading.custom(h, p)
    lam2, alloc = waterfill_case1(params, f)
    pe_ref, cap_ref = case1_reference(params, h, p)
    assert np.allclose(alloc.p_ehu, pe_ref, rtol=1e-8, atol=1e-12)
    assert capacity_case1(params, f, alloc) == pytest.approx(cap_ref, rel=1e-9)
    # Bracketed by the independent searcher as well.
    orc = brute_force_oracle(params, f)
    assert orc.capacity_low >= cap_ref - 1e-4
    full = solve(params, f)
    assert full.capacity >= orc.capacity_low - 1e-4
    assert orc.capacity_low <= full.capacity + 1e-4


def test_case1_clamps_weak_state():
    # Noise floor far above the water level on the weak state.
    f = fading.custom([0.01, 1.5], [0.5, 0.5])
    params = simple_params(sigma2_sq=0.4)
    lam2, alloc = waterfill_case1(params, f)
    assert alloc.p_ehu[0] == 0.0
    assert alloc.p_ehu[1] > 0.0


def test_case1_balance_residual_tiny():
    params = simple_params(sigma2_sq=0.05, alpha2=0.02, p_proc=0.1, alpha1=0.3)
    f = fading.rayleigh(1.0, 257)
    lam2, alloc = waterfill_case1(params, f)
    harvest = params.eta * params.p_et * f.mean_square
    consumed = (1.0 - params.rho) * float(alloc.p_ehu @ f.p) + params.p_proc
    assert abs(consumed - harvest) / harvest <= 1e-9


def test_capacity_case1_values():
    params = simple_params(alpha2=0.1)
    f = fading.deterministic(1.0)
    lam2, alloc = waterfill_case1(params, f)
    assert capacity_case1(params, f, alloc) == pytest.approx(HALF_LOG2_5, rel=1e-9)


def test_zero_capacity_when_processing_cost_dominates():
    params = simple_params(p_proc=2.0)
    f = fading.deterministic(1.0)
    lam2, alloc = waterfill_case1(params, f)
    assert math.isinf(lam2)
    assert np.all(alloc.p_ehu == 0.0)
    r = solve(params, f)
    assert r.case == "Zero" and r.capacity == 0.0
    assert np.all(r.allocation.p_ehu == 0.0)


def test_zero_capacity_at_exact_boundary():
    # p_proc == eta * p_et * E[h^2] leaves nothing for transmission.
    params = simple_params(p_proc=0.8)
    assert solve(params, fading.deterministic(1.0)).capacity == 0.0


def test_dead_channel_is_zero():
    params = simple_params()
    r = solve(params, fading.deterministic(0.0))
    assert r.case == "Zero" and r.capacity == 0.0


def test_capacity_zero_iff_no_codeword_power():
    zero = solve(simple_params(p_proc=2.0), fading.deterministic(1.0))
    assert zero.capacity == 0.0 and not np.any(zero.allocation.p_ehu > 0.0)
    live = solve(simple_params(sigma2_sq=0.2, alpha2=0.05), fading.rayleigh(1.0, 7))
    assert live.capacity > 0.0 and np.any(live.allocation.p_ehu > 0.0)


# ---------------------------------------------------------------------------
# Adaptive-amplitude regime
# ---------------------------------------------------------------------------


def test_case2_matches_case1_on_single_state():
    params = simple_params(alpha2=0.1)
    f = fading.deterministic(1.0)
    mult, alloc = solve_case2(params, f)
    lam2, alloc1 = waterfill_case1(params, f)
    c2 = capacity_case1(params, f, alloc)  # same noise: x2 = sqrt(p_et)
    assert alloc.x2[0] == pytest.approx(alloc1.x2[0], rel=1e-6)
    assert c2 == pytest.approx(capacity_case1(params, f, alloc1), rel=1e-8)


def test_case2_five_state_against_oracle():
    f = fading.rayleigh(1.0, 5)
    params = simple_params(sigma2_sq=0.2, alpha2=0.05, p_proc=0.05, alpha1=0.2)
    r = solve(params, f)
    orc = brute_force_oracle(params, f)
    assert abs(r.capacity - orc.capacity_low) <= 1e-3


def test_case2_silences_dead_and_weak_states():
    f = fading.custom([1e-6, 0.9, 1.0, 1.1], [0.25, 0.25, 0.25, 0.25])
    params = simple_params(sigma2_sq=0.1, alpha2=0.05)
    mult, alloc = solve_case2(params, f)
    assert alloc.x2[0] <= 1e-6 * np.max(alloc.x2)
    assert alloc.p_ehu[0] == 0.0


def test_solve_orders_cases_correctly():
    # Under fading the adaptive transmitter is at least as good as the
    # constant one; on a single state they tie and Case1 wins the tie.
    paramsS = simple_params(alpha2=0.1)
    r1 = solve(paramsS, fading.deterministic(1.0))
    assert r1.case == "Case1"
    f = fading.rayleigh(1.0, 12)
    r2 = solve(paramsS, f)
    assert r2.residuals["case2_capacity"] >= r2.residuals["case1_capacity"] - 1e-9


def test_solve_permutation_invariance():
    h = [0.4, 1.2, 0.8, 1.6]
    p = [0.1, 0.4, 0.3, 0.2]
    params = simple_params(sigma2_sq=0.2, alpha2=0.03)
    ra = solve(params, fading.custom(h, p))
    order = [2, 0, 3, 1]
    rb = solve(params, fading.custom([h[i] for i in order], [p[i] for i in order]))
    assert ra.capacity == pytest.approx(rb.capacity, rel=1e-9)


def test_solve_scale_neutrality():
    f = fading.rayleigh(1.0, 9)
    base = dict(eta=0.8, p_proc=0.02, p_et=1.0, sigma2_sq=0.1, alpha1=0.3, alpha2=0.05)
    r0 = solve(LinkParams(**base), f)
    for kappa in (1e-3, 1e3):
        scaled = dict(base)
        for key in ("p_proc", "p_et", "sigma2_sq"):
            scaled[key] = base[key] * kappa
        rk = solve(LinkParams(**scaled), f)
        assert rk.capacity == pytest.approx(r0.capacity, rel=1e-8)


def test_energy_balance_tight_when_transmitting():
    params = simple_params(sigma2_sq=0.2, alpha2=0.05, p_proc=0.05)
    for f in (fading.deterministic(1.0), fading.rayleigh(1.0, 7)):
        r = solve(params, f)
        assert r.capacity > 0.0
        assert abs(r.residuals["c2_residual_rel"]) <= 1e-8


def test_water_filling_stationarity_residual():
    params = simple_params(sigma2_sq=0.2, alpha2=0.05, p_proc=0.05, alpha1=0.2)
    r = solve(params, fading.rayleigh(1.0, 9))
    stat = r.residuals["stationarity_rel"]
    active = ~np.isnan(stat)
    assert np.any(active)
    assert np.nanmax(stat) <= 1e-7


def test_complementary_slackness():
    params = simple_params(sigma2_sq=0.2, alpha2=0.05)
    f = fading.rayleigh(1.0, 7)
    r = solve(params, f)
    if r.multipliers.lambda1 > 1e-9:
        q = r.allocation.x2**2
        assert float(q @ f.p) == pytest.approx(params.p_et, rel=1e-6)
    assert abs(r.residuals["c2_residual_rel"]) <= 1e-8


# ---------------------------------------------------------------------------
# Budget projection of the adaptive-amplitude ascent
# ---------------------------------------------------------------------------


def projection_reference(y, p, cap):
    """Independent projection onto {q >= 0, p.q <= cap}: bisection on tau in
    q = (y - tau*p)^+, keeping the feasible end of the bracket."""
    q = np.maximum(y, 0.0)
    if float(p @ q) <= cap:
        return q
    lo, hi = 0.0, float(np.max(q / p))
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if float(p @ np.maximum(y - mid * p, 0.0)) > cap:
            lo = mid
        else:
            hi = mid
    return np.maximum(y - hi * p, 0.0)


@st.composite
def projection_inputs(draw, y_mag, p_min):
    n = draw(st.integers(1, 40))
    y = np.array(draw(st.lists(st.floats(-y_mag, y_mag), min_size=n, max_size=n)))
    p = np.array(draw(st.lists(st.floats(p_min, 1.0), min_size=n, max_size=n)))
    cap = draw(st.floats(1e-3, 10.0))
    return y, p / p.sum(), cap


@settings(max_examples=300, deadline=None)
@given(projection_inputs(y_mag=1e12, p_min=1e-6))
def test_projection_is_feasible(args):
    y, p, cap = args
    q = _project_to_budget(y, p, cap)
    assert np.all(q >= 0.0)
    assert float(p @ q) <= cap


@settings(max_examples=200, deadline=None)
@given(projection_inputs(y_mag=10.0, p_min=1e-2))
def test_projection_kkt_form(args):
    # One tau >= 0 gives q = (y - tau*p)^+, and tau > 0 only on a tight budget.
    y, p, cap = args
    q = _project_to_budget(y, p, cap)
    act = q > 0.0
    if not np.any(act):
        tau = 0.0
    else:
        taus = (y[act] - q[act]) / p[act]
        tau = float(np.mean(taus))
        assert np.ptp(taus) <= 1e-9 * max(1.0, abs(tau))
        assert tau >= -1e-9
    assert np.all(y[~act] <= tau * p[~act] + 1e-9)
    if tau > 1e-9:
        assert float(p @ q) == pytest.approx(cap, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(projection_inputs(y_mag=10.0, p_min=1e-2))
def test_projection_noop_when_within_budget(args):
    y, p, cap = args
    y = y * min(1.0, 0.5 * cap / max(float(p @ np.maximum(y, 0.0)), 1e-300))
    q = _project_to_budget(y, p, cap)
    assert np.array_equal(q, np.maximum(y, 0.0))


@settings(max_examples=200, deadline=None)
@given(projection_inputs(y_mag=10.0, p_min=1e-2))
def test_projection_matches_reference_bisection(args):
    y, p, cap = args
    q = _project_to_budget(y, p, cap)
    ref = projection_reference(y, p, cap)
    assert np.max(np.abs(q - ref)) <= 1e-12 * max(1.0, float(np.max(ref)))


def test_projection_feasible_on_concentrated_iterates():
    # One active state whose breakpoint y/p is ~1e11 while the projected q/p
    # is ~1e4: y - tau*p cancels about 7 digits and the closed-form tau alone
    # overshoots the budget on many of these instances.
    p = np.array([0.99, 0.01])
    for k in range(1, 200):
        y = np.array([0.0, 1e11 * p[1] * (1.0 + k / 997.0)])
        q = _project_to_budget(y, p, 1.0)
        assert float(p @ q) <= 1.0
        assert q[0] == 0.0
        assert q[1] == pytest.approx(1.0 / p[1], rel=1e-8)


# ---------------------------------------------------------------------------
# Lambert-W closed form for the adapted amplitude
# ---------------------------------------------------------------------------


def test_x0_dead_state_is_zero():
    mult = MultiplierSet(lambda1=1.0, lambda2=2.0, mu1=0.1)
    assert x0_of_h(mult, 0.0, simple_params(alpha2=0.1)) == 0.0


def test_x0_clamp_returns_zero():
    # A large normalization multiplier drives the Lambert argument to zero
    # from above and the bracket negative.
    params = simple_params(alpha2=0.1)
    mult = MultiplierSet(lambda1=50.0, lambda2=1.0, mu1=200.0)
    assert x0_of_h(mult, 1.0, params) == 0.0


def test_x0_rejects_bad_inputs():
    params = simple_params(alpha2=0.1)
    with pytest.raises(ValueError):
        x0_of_h(MultiplierSet(1.0, 0.0, 0.0), 1.0, params)
    with pytest.raises(ValueError):
        x0_of_h(MultiplierSet(1.0, 1.0, 0.0), 1.0, simple_params(alpha2=0.0))
    # Negative prefactor with a large magnitude puts the argument below -1/e.
    with pytest.raises(ValueError):
        x0_of_h(MultiplierSet(0.0, 1.0, -30.0), 1.0, params)


def test_closed_form_reproduces_primal_amplitudes():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(12):
        n = int(rng.integers(2, 7))
        h = np.sort(rng.uniform(0.3, 1.8, n))
        p = rng.uniform(0.3, 1.0, n)
        p /= p.sum()
        params = LinkParams(
            eta=0.8,
            p_proc=float(rng.uniform(0.0, 0.1)),
            p_et=1.0,
            sigma2_sq=float(rng.uniform(0.05, 0.3)),
            alpha1=float(rng.uniform(0.0, 0.4)),
            alpha2=float(rng.uniform(0.01, 0.3)),
        )
        f = fading.custom(h, p)
        mult, alloc = solve_case2(params, f)
        errs = closed_form_x2_errors(params, f, alloc)
        if errs.size:
            checked += 1
            assert np.max(errs) <= 1e-6
    assert checked >= 6  # the consistency check must not be vacuous


def test_recovered_lambda1_consistent_across_states():
    params = simple_params(sigma2_sq=0.2, alpha2=0.1, p_proc=0.02, alpha1=0.2)
    f = fading.custom([0.7, 0.9, 1.1, 1.3], [0.25, 0.25, 0.25, 0.25])
    mult, alloc = solve_case2(params, f)
    _, diag = recover_multipliers(params, f, alloc)
    if not math.isnan(diag["lambda1_spread_rel"]):
        assert diag["lambda1_spread_rel"] <= 1e-3


# ---------------------------------------------------------------------------
# Unfaded link and Rayleigh closed form
# ---------------------------------------------------------------------------


def test_no_fading_values():
    params = simple_params(alpha2=0.1)
    assert capacity_no_fading(params, 1.0) == pytest.approx(HALF_LOG2_5, rel=1e-12)
    # Clamp boundary: processing cost exactly eats the harvest.
    params_b = simple_params(p_proc=0.8, alpha2=0.1)
    assert capacity_no_fading(params_b, 1.0) == 0.0
    assert capacity_no_fading(params_b, 0.0) == 0.0
    with pytest.raises(ValueError):
        capacity_no_fading(params, -1.0)


def test_no_fading_matches_solver():
    params = simple_params(sigma2_sq=0.07, alpha2=0.04, p_proc=0.1, alpha1=0.5)
    for h in (0.6, 1.0, 1.7):
        r = solve(params, fading.deterministic(h))
        assert r.capacity == pytest.approx(capacity_no_fading(params, h), rel=1e-8)


def test_no_fading_recycling_pole_direction():
    caps = [
        capacity_no_fading(simple_params(alpha2=0.1, alpha1=a), 1.0)
        for a in (0.0, 0.6, 1.2, 1.2499)
    ]
    assert all(b > a for a, b in zip(caps, caps[1:]))


def test_rayleigh_closed_form_matches_discretization():
    params = LinkParams(eta=0.8, p_proc=0.0, p_et=1.0, sigma2_sq=1e-3, alpha2=0.0)
    omega = 1.0
    lam2, cap = rayleigh_capacity_closed_form(params, omega)
    f = fading.rayleigh(omega, 4000)
    _, alloc = waterfill_case1(params, f)
    cap_disc = capacity_case1(params, f, alloc)
    assert cap == pytest.approx(cap_disc, rel=1e-4)


def test_rayleigh_closed_form_monotone_in_omega():
    params = LinkParams(eta=0.8, p_proc=1e-4, p_et=1.0, sigma2_sq=1e-3, alpha2=1e-6)
    caps = [rayleigh_capacity_closed_form(params, om)[1] for om in (0.5, 1.0, 2.0)]
    assert caps[0] < caps[1] < caps[2]


def test_rayleigh_closed_form_infeasible():
    params = LinkParams(eta=0.8, p_proc=1.0, p_et=1.0, sigma2_sq=1e-3)
    with pytest.raises(ValueError):
        rayleigh_capacity_closed_form(params, 0.5)


def test_rayleigh_closed_form_noiseless_limit():
    # With no receiver noise and no residual interference the log-capacity
    # diverges; the balance multiplier stays finite.
    params = LinkParams(eta=0.8, p_proc=0.0, p_et=1.0, sigma2_sq=0.0, alpha2=0.0)
    lam2, cap = rayleigh_capacity_closed_form(params, 1.0)
    assert math.isinf(cap)
    assert lam2 == pytest.approx(1.0 / (params.eta * params.p_et), rel=1e-12)


def test_receiver_noise_at_user_is_documentation_only():
    # sigma1_sq is carried for reporting; no capacity or energy path reads it.
    f = fading.rayleigh(1.0, 16)
    a = solve(simple_params(sigma2_sq=0.1, alpha2=0.05), f)
    b = solve(simple_params(sigma2_sq=0.1, alpha2=0.05, sigma1_sq=123.0), f)
    assert a.capacity == b.capacity


def test_constant_amplitude_condition_reported():
    params = simple_params(sigma2_sq=0.2, alpha2=0.05)
    r = solve(params, fading.rayleigh(1.0, 8))
    assert math.isfinite(r.residuals["case1_condition_lhs"])
    assert math.isfinite(r.residuals["case1_condition_rhs"])


# ---------------------------------------------------------------------------
# Brute-force oracle self-checks
# ---------------------------------------------------------------------------


def test_oracle_reproduces_no_fading():
    params = simple_params(alpha2=0.1)
    orc = brute_force_oracle(params, fading.deterministic(1.0))
    assert orc.capacity_low == pytest.approx(HALF_LOG2_5, rel=1e-6)
    assert orc.capacity_high >= orc.capacity_low


def test_oracle_rejects_large_instances():
    with pytest.raises(ValueError):
        brute_force_oracle(simple_params(), fading.rayleigh(1.0, 9))


def test_oracle_zero_when_infeasible():
    orc = brute_force_oracle(simple_params(p_proc=5.0), fading.deterministic(1.0))
    assert orc.capacity_low == 0.0


def test_nonconvergence_error_shape():
    err = NonConvergenceError("stalled", allocation=None, residuals={"a": 1.0})
    assert err.residuals["a"] == 1.0


def test_solve_accepts_warm_start():
    import fdwpc

    params = simple_params(sigma2_sq=0.2, alpha2=0.05)
    f = fading.rayleigh(1.0, 8)
    cold = fdwpc.solve(params, f)
    warm = fdwpc.solve(params, f, init_x2=cold.allocation.x2)
    assert warm.capacity == pytest.approx(cold.capacity, rel=1e-9)
