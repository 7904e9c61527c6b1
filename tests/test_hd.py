"""Half-duplex time-switching benchmark."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from fdwpc import fading
from fdwpc.hd import hd_rate_at_fraction, solve_hd
from fdwpc.solver import solve
from fdwpc.units import LinkParams, PathLossParams, dbm_to_watt, omega_from_path_loss


def hd_params(**kw):
    base = dict(eta=0.8, p_proc=0.01, p_et=1.0, sigma2_sq=0.05)
    base.update(kw)
    return LinkParams(**base)


def test_zero_transmit_power_gives_zero_rate():
    params = LinkParams(eta=0.8, p_proc=0.01, p_et=0.0, sigma2_sq=0.05)
    res = solve_hd(params, fading.rayleigh(1.0, 32))
    assert res.rate == 0.0
    assert res.t_star == 0.0


def test_boundary_fractions_give_zero():
    params = hd_params()
    f = fading.rayleigh(1.0, 32)
    assert hd_rate_at_fraction(params, f, 0.0) == 0.0
    assert hd_rate_at_fraction(params, f, 1.0) == 0.0
    res = solve_hd(params, f)
    assert res.rate > 0.0
    assert 0.0 < res.t_star < 1.0


def test_self_interference_does_not_matter():
    f = fading.rayleigh(1.0, 64)
    base = solve_hd(hd_params(), f)
    for kw in (dict(alpha1=0.9), dict(alpha2=0.3), dict(g1_mean=0.8)):
        perturbed = solve_hd(hd_params(**kw), f)
        assert perturbed.rate == pytest.approx(base.rate, rel=1e-12)
        assert perturbed.t_star == pytest.approx(base.t_star, abs=1e-9)


def test_golden_section_beats_coarse_grid():
    params = hd_params()
    f = fading.rayleigh(1.0, 64)
    res = solve_hd(params, f)
    grid = np.linspace(0.0, 1.0, 1001)
    best_grid = max(hd_rate_at_fraction(params, f, float(t)) for t in grid)
    assert best_grid <= res.rate + 1e-6


def reference_rate(params, h, p, v):
    """Benchmark rate at harvest fraction 1 - v, water-filled here by
    enumerating the active set of the ascending noise floors."""
    harvest = params.eta * params.p_et * float(p @ h**2)
    budget = (1.0 - v) * harvest / v - params.p_proc
    if budget <= 0.0:
        return 0.0
    order = np.argsort(-h)
    floor, q = params.sigma2_sq / h[order] ** 2, p[order]
    for k in range(1, floor.size + 1):
        level = (budget + q[:k] @ floor[:k]) / q[:k].sum()
        if k == floor.size or level <= floor[k]:
            return v * float(q[:k] @ np.log2(level / floor[:k]))


@pytest.mark.parametrize("with_cost", [False, True], ids=["no_cost", "cost"])
def test_rate_is_the_maximum_over_the_fraction(with_cost):
    # Bounded Brent on ln(1 - tau) from the best point of a coarse scan.
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        h, p = rng.uniform(0.05, 2.0, n), rng.dirichlet(np.ones(n))
        params = hd_params(p_et=10 ** rng.uniform(-2, 1), sigma2_sq=10 ** rng.uniform(-3, 0))
        share = float(rng.uniform(0.0, 3.0)) if with_cost else 0.0
        harvest = params.eta * params.p_et * float(p @ h**2)
        params = dataclasses.replace(params, p_proc=share * harvest)

        def loss(u):
            return -reference_rate(params, h, p, math.exp(u))

        grid = np.linspace(math.log(1e-12), 0.0, 400)
        j = int(np.argmin([loss(u) for u in grid]))
        res = minimize_scalar(
            loss, bounds=(grid[max(j - 1, 0)], grid[min(j + 1, grid.size - 1)]),
            method="bounded", options={"xatol": 1e-12},
        )
        rate = solve_hd(params, fading.custom(h, p)).rate
        assert rate >= -res.fun * (1.0 - 1e-13)


def test_rate_is_the_maximum_at_the_cli_defaults():
    # p_proc = -10 dBm, 0 dBm ET, 2000 states at 10 m: the optimum sits at
    # 1 - tau = 6.3e-7, finer than a 1e-6 search over tau can resolve.
    omega = omega_from_path_loss(PathLossParams(2.4e9, 10.0, 3.0))
    f = fading.rayleigh(omega, 2000)
    params = LinkParams(eta=0.8, p_proc=1e-4, p_et=dbm_to_watt(0.0), sigma2_sq=1e-14)
    rate = solve_hd(params, f).rate
    scan = [hd_rate_at_fraction(params, f, 1.0 - v) for v in np.logspace(-9, 0, 4001)]
    assert rate >= max(scan) * (1.0 - 1e-13)
    assert rate > 1.04 * 4.327394655866e-06  # the 1e-6 golden-section rate


def mp_optimal_rate(params, f):
    """The benchmark's optimal rate at 50 digits: golden section on ln b of
    harvest*F(b)/(harvest + p_proc + b), F water-filling the codeword budget b
    over the active prefix of the ascending floors (the rate is unimodal in b,
    module docstring)."""
    with mpmath.workdps(50):
        floors = sorted(
            (mpmath.mpf(params.sigma2_sq) / mpmath.mpf(h) ** 2, mpmath.mpf(p))
            for h, p in zip(f.h, f.p) if h > 0.0
        )
        harvest = params.eta * mpmath.mpf(params.p_et) * mpmath.fsum(
            mpmath.mpf(h) ** 2 * p for h, p in zip(f.h, f.p)
        )

        def rate(ln_b):
            b, weight, spent = mpmath.exp(ln_b), 0, 0
            for k, (n, p) in enumerate(floors):
                weight, spent = weight + p, spent + p * n
                level = (b + spent) / weight
                if k + 1 == len(floors) or level <= floors[k + 1][0]:
                    break
            fill = mpmath.fsum(p * mpmath.log(level / n, 2) for n, p in floors[: k + 1])
            return harvest * fill / (harvest + params.p_proc + b)

        lo = mpmath.log(harvest + params.p_proc) - 60
        hi = lo + 120
        g = (mpmath.sqrt(5) - 1) / 2
        for _ in range(200):
            x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
            if rate(x1) < rate(x2):
                lo = x1
            else:
                hi = x2
        return float(rate((lo + hi) / 2))


@pytest.mark.parametrize("cost", [1e15, 1e16])
def test_rate_survives_a_harvesting_fraction_that_rounds_to_one(cost):
    # At these processing costs (times the mean harvest) 1 - tau is about
    # 1e-16, which tau itself cannot carry: the rate came out 5% low at 1e15
    # and 0 at 1e16.
    f = fading.rayleigh(1.0, 64)
    params = LinkParams(eta=0.8, p_proc=0.0, p_et=1.0, sigma2_sq=1e-3)
    params = dataclasses.replace(params, p_proc=cost * params.eta * params.p_et * f.mean_square)
    assert solve_hd(params, f).rate == pytest.approx(mp_optimal_rate(params, f), rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "f",
    [fading.deterministic(1.0), fading.rayleigh(1.0, 16), fading.custom([0.0, 1.0], [0.5, 0.5])],
    ids=["unfaded", "rayleigh", "dead_state"],
)
def test_noiseless_link_is_worth_inf(f):
    # Warnings are errors in this suite, so this also checks that none is raised.
    res = solve_hd(hd_params(sigma2_sq=0.0), f)
    assert res.rate == math.inf
    assert 0.0 < res.t_star < 1.0


def test_inner_energy_balance_tight():
    params = hd_params(p_proc=0.05)
    f = fading.rayleigh(1.0, 64)
    res = solve_hd(params, f)
    tau = res.t_star
    harvested = tau * params.eta * params.p_et * f.mean_square
    consumed = (1.0 - tau) * (params.p_proc + float(res.p_ehu_of_h @ f.p))
    assert consumed == pytest.approx(harvested, rel=1e-8)


def test_fd_hd_ratio_nondecreasing_in_suppression():
    # More suppression can only help the full-duplex side; the benchmark
    # ignores it entirely.
    f = fading.rayleigh(1.0, 64)
    ratios = []
    for supp_db in (10.0, 20.0, 30.0, 40.0):
        params = hd_params(alpha2=10 ** (-supp_db / 10.0))
        cap = solve(params, f).capacity
        bench = solve_hd(params, f)
        ratios.append(cap / bench.rate)
    assert all(b >= a - 1e-7 for a, b in zip(ratios, ratios[1:]))


@pytest.mark.xfail(
    strict=True,
    reason="the benchmark rates states with log2, full duplex with (1/2) log2",
)
def test_full_duplex_at_least_half_duplex_on_ideal_link():
    # No residual interference and no processing cost: full duplex harvests
    # and transmits all the time, so time-switching cannot beat it.
    f = fading.deterministic(1.0)
    for sigma2_sq in (0.1, 1e-6):
        params = LinkParams(eta=0.8, p_proc=0.0, p_et=1.0, sigma2_sq=sigma2_sq, alpha2=0.0)
        assert solve(params, f).capacity >= solve_hd(params, f).rate
