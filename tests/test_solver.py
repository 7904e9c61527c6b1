"""Capacity solver: both regimes, closed forms, duals, and agreement with the
independent reference of ``test_acceptance`` (``reference_capacity``, which
calls nothing in ``fdwpc.solver``)."""

import copy
import dataclasses
import gc
import math
import pickle
import re
import time
import weakref
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fdwpc import fading, solver
from fdwpc.hd import solve_hd
from fdwpc.solver import (
    _C_BITS,
    CapacityResult,
    MultiplierSet,
    PowerAllocation,
    _Floor,
    _allocation_residuals,
    _best_flash,
    _fill,
    _noise_floor,
    _rates,
    _water_level,
    capacity_case1,
    capacity_no_fading,
    closed_form_x2_errors,
    rayleigh_capacity_closed_form,
    recover_multipliers,
    solve,
    waterfill_case1,
    x0_of_h,
)
from fdwpc.units import LinkParams
from test_acceptance import codeword_waterfill, reference_capacity, water_level_reference

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
    lam2, alloc, _ = waterfill_case1(params, fading.deterministic(1.0))
    assert alloc.p_ehu[0] == pytest.approx(0.8, rel=1e-9)
    assert alloc.x2[0] == pytest.approx(1.0, rel=1e-12)


def test_case1_recycling_scales_budget():
    params = simple_params(alpha2=0.1, alpha1=0.625)  # rho = 0.5
    lam2, alloc, _ = waterfill_case1(params, fading.deterministic(1.0))
    assert alloc.p_ehu[0] == pytest.approx(1.6, rel=1e-9)


def test_case1_two_state_against_reference():
    h = np.array([0.5, 1.5])
    p = np.array([0.5, 0.5])
    params = simple_params(sigma2_sq=0.4)
    f = fading.custom(h, p)
    lam2, alloc, _ = waterfill_case1(params, f)
    pe_ref, cap_ref = case1_reference(params, h, p)
    assert np.allclose(alloc.p_ehu, pe_ref, rtol=1e-8, atol=1e-12)
    assert capacity_case1(params, f, alloc) == pytest.approx(cap_ref, rel=1e-9)
    # Bracketed by the independent reference as well.
    ref = reference_capacity(params, f)
    assert ref >= cap_ref * (1.0 - 1e-9)
    full = solve(params, f)
    assert abs(full.capacity - ref) <= 1e-9 * full.capacity


def test_case1_clamps_weak_state():
    # Noise floor far above the water level on the weak state.
    f = fading.custom([0.01, 1.5], [0.5, 0.5])
    params = simple_params(sigma2_sq=0.4)
    lam2, alloc, _ = waterfill_case1(params, f)
    assert alloc.p_ehu[0] == 0.0
    assert alloc.p_ehu[1] > 0.0


def test_case1_balance_residual_tiny():
    params = simple_params(sigma2_sq=0.05, alpha2=0.02, p_proc=0.1, alpha1=0.3)
    f = fading.rayleigh(1.0, 257)
    lam2, alloc, _ = waterfill_case1(params, f)
    harvest = params.eta * params.p_et * f.mean_square
    consumed = (1.0 - params.rho) * float(alloc.p_ehu @ f.p) + params.p_proc
    assert abs(consumed - harvest) / harvest <= 1e-9


def test_capacity_case1_values():
    params = simple_params(alpha2=0.1)
    f = fading.deterministic(1.0)
    lam2, alloc, value = waterfill_case1(params, f)
    assert capacity_case1(params, f, alloc) == pytest.approx(HALF_LOG2_5, rel=1e-9)
    assert value == pytest.approx(HALF_LOG2_5, rel=1e-9)
    assert reference_capacity(params, f) == pytest.approx(HALF_LOG2_5, rel=1e-12)


def test_zero_capacity_when_processing_cost_dominates():
    params = simple_params(p_proc=2.0)
    f = fading.deterministic(1.0)
    lam2, alloc, value = waterfill_case1(params, f)
    assert math.isinf(lam2) and value == 0.0
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


@pytest.mark.parametrize("h", [0.0, 1.0], ids=["dead", "unfunded"])
def test_zero_result_reports_the_slack_of_its_allocation(h):
    params = simple_params(p_proc=2.0, p_et=1.5)
    f = fading.deterministic(h)
    r = solve(params, f)
    assert r.case == "Zero"
    ref = _allocation_residuals(params, f, r.allocation, r.multipliers)
    assert r.residuals["c1_slack"] == ref["c1_slack"] == params.p_et


def test_capacity_zero_iff_no_codeword_power():
    zero = solve(simple_params(p_proc=2.0), fading.deterministic(1.0))
    assert zero.capacity == 0.0 and not np.any(zero.allocation.p_ehu > 0.0)
    live = solve(simple_params(sigma2_sq=0.2, alpha2=0.05), fading.rayleigh(1.0, 7))
    assert live.capacity > 0.0 and np.any(live.allocation.p_ehu > 0.0)


def flash_only_link(n_states):
    """Rayleigh link whose processing cost is 1.05 times the mean harvest:
    Case 1 is unfunded, but the top state's flash harvest is about ln(2n)
    times the mean."""
    f = fading.rayleigh(1.0, n_states)
    return simple_params(sigma2_sq=0.1, alpha2=0.05, p_proc=1.05 * 0.8 * f.mean_square), f


def test_flash_funds_a_link_whose_mean_harvest_cannot():
    params, f = flash_only_link(16)
    _, alloc, value = _best_flash(params, f)
    r = solve(params, f)
    assert r.residuals["case1_capacity"] == 0.0
    assert r.case == "Case2"
    assert value == pytest.approx(1.7817, abs=1e-4)
    assert abs(r.capacity - value) <= 1e-12
    assert np.array_equal(r.allocation.p_ehu, alloc.p_ehu)


def test_oracle_agrees_where_only_a_flash_is_funded():
    params, f = flash_only_link(8)
    r = solve(params, f)
    ref = reference_capacity(params, f)
    assert r.case == "Case2" and r.capacity > 0.0
    assert abs(r.capacity - ref) <= 1e-9 * r.capacity


@pytest.mark.parametrize("cost", [0.99, 1.0 - 1e-9, 1.0, 1.01])
def test_zero_exactly_when_the_top_flash_is_unfunded(cost):
    # Just below the top harvest the flash is worth less than solve's tie
    # tolerance, and still wins over the unfunded Case 1.
    params, f = flash_only_link(16)
    top_harvest = params.eta * params.p_et * float(np.max(f.h**2))
    params = dataclasses.replace(params, p_proc=cost * top_harvest)
    r = solve(params, f)
    if top_harvest <= params.p_proc:
        assert r.case == "Zero" and r.capacity == 0.0
    else:
        assert r.case == "Case2"
        assert r.capacity == r.residuals["case2_capacity"] > 0.0


# ---------------------------------------------------------------------------
# Adaptive-amplitude regime
# ---------------------------------------------------------------------------


def test_case2_matches_case1_on_single_state():
    params = simple_params(alpha2=0.1)
    f = fading.deterministic(1.0)
    alloc = _best_flash(params, f)[1]
    lam2, alloc1, _ = waterfill_case1(params, f)
    c2 = capacity_case1(params, f, alloc)  # same noise: x2 = sqrt(p_et)
    assert alloc.x2[0] == pytest.approx(alloc1.x2[0], rel=1e-6)
    assert c2 == pytest.approx(capacity_case1(params, f, alloc1), rel=1e-8)


def test_case2_five_state_against_oracle():
    f = fading.rayleigh(1.0, 5)
    params = simple_params(sigma2_sq=0.2, alpha2=0.05, p_proc=0.05, alpha1=0.2)
    r = solve(params, f)
    assert abs(r.capacity - reference_capacity(params, f)) <= 1e-9 * r.capacity


def test_case2_silences_dead_and_weak_states():
    f = fading.custom([1e-6, 0.9, 1.0, 1.1], [0.25, 0.25, 0.25, 0.25])
    params = simple_params(sigma2_sq=0.1, alpha2=0.05)
    alloc = _best_flash(params, f)[1]
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


def test_residual_keys_match_the_docs():
    # One key set on every case, the one the CapacityResult docstring and the
    # README list.
    doc_keys = re.findall(r"^\s*\* ``(\w+)``", CapacityResult.__doc__, re.M)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"`result\.residuals` holds (.*?);", readme, re.S).group(1)
    readme_keys = re.findall(r"`(\w+)`", listed)
    assert len(doc_keys) == len(set(doc_keys)) >= 5
    assert set(readme_keys) == set(doc_keys)
    keys = {}
    for params, f in (
        (simple_params(alpha2=0.1), fading.deterministic(1.0)),
        (simple_params(alpha2=0.1), fading.rayleigh(1.0, 12)),
        # Above the top state's flash harvest, 0.8 * ln 24 = 2.54.
        (simple_params(p_proc=3.0), fading.rayleigh(1.0, 12)),
    ):
        r = solve(params, f)
        keys[r.case] = set(r.residuals)
    assert set(keys) == {"Case1", "Case2", "Zero"}
    for case_keys in keys.values():
        assert case_keys == set(doc_keys)


def test_complementary_slackness():
    params = simple_params(sigma2_sq=0.2, alpha2=0.05)
    f = fading.rayleigh(1.0, 7)
    r = solve(params, f)
    if r.multipliers.lambda1 > 1e-9:
        q = r.allocation.x2**2
        assert float(q @ f.p) == pytest.approx(params.p_et, rel=1e-6)
    assert abs(r.residuals["c2_residual_rel"]) <= 1e-8



@pytest.mark.parametrize("f", [fading.deterministic(1.0), fading.rayleigh(1.0, 16)])
def test_noiseless_link_returns_at_once(f):
    # No receiver noise and no residual interference: both regimes are worth
    # inf and the tie goes to the constant amplitude.
    params = simple_params(sigma2_sq=0.0, alpha2=0.0)
    t0 = time.perf_counter()
    r = solve(params, f)
    assert time.perf_counter() - t0 < 1.0
    assert r.case == "Case1"
    assert math.isinf(r.capacity)


def test_quantities_past_the_float_range_raise_before_they_are_used():
    # Each used to leak a RuntimeWarning (errors here) and then fail on the
    # allocation or rate a noisy state as noiseless: a flash power p_et/p_k =
    # 64 p_et, a floor sigma2_sq/h^2 that underflows to 0 at h^2 = 1e6 (every
    # floor of the unfaded link, one of the two-state link's), and a floor
    # that the codeword power divides past the float range. An SNR names the
    # one further out: 8e299 W over 1e-14 W names p_et, the subnormal floors
    # sigma2_sq.
    for p_et, alpha2, f in [
        (1e307, 1e-10, fading.rayleigh(1e-7, 64)),
        (1e300, 0.0, fading.deterministic(1.0)),
    ]:
        params = LinkParams(eta=0.8, p_proc=0.0, p_et=p_et, sigma2_sq=1e-14, alpha2=alpha2)
        with pytest.raises(solver.FloatRangeError) as exc:
            solve(params, f)
        assert exc.value.field == "p_et"
    strong = fading.custom([1000.0, 0.5], [0.5, 0.5])
    for sigma2_sq, alpha2, f in [
        (1e-320, 0.0, fading.deterministic(1000.0)),
        (1e-320, 1e-10, strong),
        (1e-310, 1e-10, strong),
    ]:
        params = LinkParams(eta=0.8, p_proc=0.0, p_et=1.0, sigma2_sq=sigma2_sq, alpha2=alpha2)
        with pytest.raises(solver.FloatRangeError) as exc:
            solve(params, f)
        assert exc.value.field == "sigma2_sq"
    # A dead state's flash, whose q overflows, is never funded: its budget
    # forms as inf * 0 in the one array pass, with no warning and no error.
    params = LinkParams(eta=0.8, p_proc=1e10, p_et=1e9, sigma2_sq=1e-14)
    assert solve(params, fading.custom([0.0, 1.0], [1e-300, 1.0])).case == "Zero"


def test_an_overflowing_flash_that_is_not_funded_is_skipped():
    # q = p_et/p_k overflows on the weak state, so its budget forms as inf,
    # but eta*p_et*h^2 = 2e8 W cannot cover p_proc = 1e10 W on either state.
    params = LinkParams(eta=0.8, p_proc=1e10, p_et=1e9, sigma2_sq=1e-14)
    assert solve(params, fading.custom([0.5, 1.0], [1e-300, 1.0])).case == "Zero"


def test_floors_past_the_float_range_score_zero():
    # At 1e307 W and 40 dB of suppression every Case-1 floor
    # (sigma2_sq + p_et*alpha2)/h^2 and every flash floor overflows to inf:
    # Case 1 scores 0 as on a dead link, each flash fills the other states,
    # and a one-state link, with no other state, is Zero. No RuntimeWarning
    # (errors here).
    params = LinkParams(eta=0.8, p_proc=1e-4, p_et=1e307, sigma2_sq=1e-14, alpha2=1e-4)
    f = fading.rayleigh(1e-7, 16)
    lam2, alloc, value = waterfill_case1(params, f)
    assert (lam2, value) == (math.inf, 0.0) and not alloc.p_ehu.any()
    r = solve(params, f)
    assert r.case == "Case2" and r.residuals["case1_capacity"] == 0.0
    flash = np.flatnonzero(r.allocation.x2)
    assert flash.size == 1 and r.allocation.p_ehu[flash] == 0.0
    assert solve(params, fading.deterministic(1e-3)).case == "Zero"


def _built_residuals(params, f):
    """What ``solve`` reads as residuals, built eagerly from the public parts."""
    r = solve(params, f)
    want = _allocation_residuals(params, f, r.allocation, r.multipliers)
    want["case1_capacity"] = waterfill_case1(params, f)[2]
    want["case2_capacity"] = _best_flash(params, f)[2]
    return r, want


def _mapping_bytes(m):
    return [(k, np.asarray(v, dtype=float).tobytes()) for k, v in m.items()]


RESIDUAL_LINKS = [
    (simple_params(alpha2=0.1), fading.deterministic(1.0)),
    (simple_params(alpha2=0.1), fading.rayleigh(1.0, 16)),
    (simple_params(p_proc=10.0), fading.rayleigh(1.0, 64)),
]


def test_residuals_are_built_on_first_read_and_kept(monkeypatch):
    calls = []

    def spy(*args, _original=solver._allocation_residuals):
        calls.append(args)
        return _original(*args)

    monkeypatch.setattr(solver, "_allocation_residuals", spy)
    for params, f in RESIDUAL_LINKS:
        calls.clear()
        r = solve(params, f)
        assert calls == []
        assert r.residuals["c1_slack"] == r.residuals["c1_slack"]
        assert len(calls) == 1
        list(r.residuals), dict(r.residuals.items()), repr(r), len(r.residuals)
        pickle.dumps(r), copy.deepcopy(r)
        assert len(calls) == 1
        # The inputs are let go once the dict is built.
        assert r.residuals._inputs is None


@pytest.mark.parametrize("link", RESIDUAL_LINKS, ids=["case1", "case2", "zero"])
def test_residuals_are_the_builders_dict_byte_for_byte(link):
    r, want = _built_residuals(*link)
    assert _mapping_bytes(r.residuals) == _mapping_bytes(want)


def test_residuals_read_as_the_dict_they_build():
    r, want = _built_residuals(*RESIDUAL_LINKS[1])
    res = r.residuals
    assert res["case2_capacity"] == want["case2_capacity"] == r.capacity
    with pytest.raises(KeyError):
        res["missing"]
    assert "c1_slack" in res and "missing" not in res
    assert list(res) == list(res.keys()) == list(want) and len(res) == len(want)
    assert [k for k, _ in res.items()] == list(want)
    spread = {**res}
    assert type(spread) is dict and _mapping_bytes(spread) == _mapping_bytes(want)
    # The values are the mapping's own objects, so == never compares arrays.
    assert res == spread and spread == res
    assert res != {**spread, "c1_slack": -1.0} and res != {}
    with pytest.raises(TypeError):
        res["c1_slack"] = 0.0
    assert repr(r) == repr(dataclasses.replace(r, residuals=spread))
    leaky = dataclasses.replace(r, residuals={**res, "c2_residual_rel": 1e-6})
    assert leaky.residuals["c2_residual_rel"] == 1e-6
    assert res["c2_residual_rel"] == want["c2_residual_rel"]
    # A copy, taken before the first read or after, is a dict with its own
    # arrays and the same bytes.
    for fresh in (True, False):
        src = solve(*RESIDUAL_LINKS[1]) if fresh else r
        for twin in (copy.deepcopy(src), pickle.loads(pickle.dumps(src))):
            assert type(twin.residuals) is dict
            assert _mapping_bytes(twin.residuals) == _mapping_bytes(want)
            assert twin.residuals["stationarity_rel"] is not src.residuals["stationarity_rel"]
            assert _solve_bytes_of(twin) == _solve_bytes_of(src)


def _parent_recover_multipliers(params, f, alloc, lambda2, capacity):
    """The multiplier recovery as it was written over the gathered active
    states; ``recover_multipliers`` must give its bytes."""
    p, h2_all = f.p, f.h2
    one_m_rho = 1.0 - params.rho
    act = alloc.p_ehu > 0.0
    pe, h2 = alloc.p_ehu[act], h2_all[act]
    s = params.sigma2_sq + params.alpha2 * alloc.x2[act] ** 2
    if not pe.size:
        return MultiplierSet(0.0, lambda2, 0.0)
    (overlap,) = ((alloc.x2[act] > 0.0) & (h2 > 0.0)).nonzero()
    if overlap.size:
        loss = 0.0
        if params.alpha2 > 0.0:
            loss = params.alpha2 * pe[overlap] * (lambda2 * one_m_rho) / s[overlap]
        lam1 = float((lambda2 * params.eta * h2[overlap] - loss).sum()) / overlap.size
    else:
        h2_tx = h2_all[alloc.x2 > 0.0]
        lam1 = lambda2 * params.eta * float(h2_tx[-1]) if h2_tx.size else 0.0
    lam1 = max(lam1, 0.0)
    q = alloc.x2**2
    mu1 = (
        capacity
        - lam1 * float(q @ p)
        - lambda2 * (one_m_rho * float(pe @ p[act]) - params.eta * float((h2_all * q) @ p))
    )
    return MultiplierSet(lam1, lambda2, mu1)


def test_recover_multipliers_matches_the_gathered_formula_byte_for_byte():
    rng = np.random.default_rng(28)
    kinds = dict.fromkeys(["flash", "case1", "alpha2=0", "none active", "dead x2"], 0)
    for _ in range(120):
        params, f = _random_link(rng)
        n = f.n_states
        free = dataclasses.replace(params, alpha2=0.0)
        lam2 = float(10.0 ** rng.uniform(-3.0, 3.0))
        cap = float(rng.uniform(0.0, 5.0))
        x2 = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.5)
        pe = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.5)
        dead = np.flatnonzero(f.h2 == 0.0)
        if dead.size:
            x2[dead[0]] = pe[dead[0]] = 1.0
            kinds["dead x2"] += 1
        cases = [
            (params, _best_flash(params, f)[:2]),
            (params, waterfill_case1(params, f)[:2]),
            (free, _best_flash(free, f)[:2]),
            (free, waterfill_case1(free, f)[:2]),
            (params, (lam2, PowerAllocation(x2, pe))),
            (free, (lam2, PowerAllocation(x2, pe))),
            (params, (math.inf, PowerAllocation(x2, np.zeros(n)))),
        ]
        for link, (lam2_k, alloc) in cases:
            want = _parent_recover_multipliers(link, f, alloc, lam2_k, cap)
            got = recover_multipliers(link, f, alloc, lam2_k, cap)
            assert np.array(dataclasses.astuple(got)).tobytes() == np.array(
                dataclasses.astuple(want)
            ).tobytes()
            act = alloc.p_ehu > 0.0
            overlap = act & (alloc.x2 > 0.0) & (f.h2 > 0.0)
            kinds["none active"] += not act.any()
            kinds["alpha2=0"] += link.alpha2 == 0.0 and overlap.any()
            kinds["flash"] += np.count_nonzero(alloc.x2) == 1 and overlap.any()
            kinds["case1"] += act.any() and np.array_equal(overlap, act)
    assert min(kinds.values()) >= 10, kinds

@st.composite
def flash_links(draw):
    """1-40 states with zero and tied gains, a processing cost below the
    constant-amplitude harvest, and self-interference over 1e-14..1."""
    n = draw(st.integers(1, 40))
    pool = draw(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=n))
    h = np.array(draw(st.lists(st.sampled_from([0.0] + pool), min_size=n, max_size=n)))
    assume(np.any(h > 0.0))
    p = np.array(draw(st.lists(st.floats(1e-2, 1.0), min_size=n, max_size=n)))
    f = fading.custom(h, p / p.sum())
    params = LinkParams(
        eta=0.8,
        p_proc=draw(st.floats(0.0, 0.9)) * 0.8 * f.mean_square,
        p_et=1.0,
        sigma2_sq=10.0 ** draw(st.floats(-3.0, 0.0)),
        alpha1=draw(st.floats(0.0, 0.5)),
        alpha2=10.0 ** draw(st.floats(-14.0, 0.0)),
    )
    return params, f


def _edge_link(h, p):
    return LinkParams(eta=0.8, p_proc=0.0, p_et=1.0, sigma2_sq=1.0, alpha2=1.0), fading.custom(h, p)


# At cost 1 a flash is funded by one ulp of its rounded harvest and worth
# about 1e-17 bits: in the first link (p_et/p)*(p*h^2) rounds above h^2; in
# the second, the funded flash's SI-free bound rounds to 0.
_ONE_ULP_FLASH = _edge_link(
    [0.0] * 7 + [0.8450181135839563],
    [0.21660320471973005] * 3
    + [0.1830336314485058, 0.05415080117993251, 0.0021660320471973003]
    + [0.0025383188053093365, 0.10830160235986502],
)
_TIED_ULP_FLASH = _edge_link(
    [0.0] * 25 + [0.6302898483685093] * 3,
    [0.007089679242128297] * 24
    + [0.3050059410752684, 0.007089679242128297, 0.4468552854502412]
    + [0.07089679242128298],
)

# Without self-interference a flash floor equals the state's own floor and
# ties with the other states of its gain: the flash stays in its place among
# them, as a stable sort of the floor would keep it.
_TIED_FREE_P = np.array(
    [0.442, 0.211, 0.332, 0.808, 0.323, 0.158, 0.702, 0.454, 0.801, 0.243, 0.327]
)
_TIED_FREE_FLASH = (
    dataclasses.replace(_ONE_ULP_FLASH[0], sigma2_sq=0.1, alpha2=0.0),
    fading.custom([0.5] * 4 + [1.3] * 7, _TIED_FREE_P / _TIED_FREE_P.sum()),
)


# A Rayleigh link at SNR 1e-10 where self-interference lifts each flash's
# floor, so that the best flash is not on the strongest state. Rated as
# log(w/noise), that flash lost 1.2e-8 of its value.
_LOW_SNR_LINK = (
    LinkParams(eta=0.8, p_proc=0.0, p_et=1.0, sigma2_sq=8e9, alpha2=8e8),
    fading.rayleigh(1.0, 16),
)


@settings(max_examples=300, deadline=None)
@given(flash_links(), st.floats(0.0, 1.2))
@example(link=_ONE_ULP_FLASH, cost=1.0)
@example(link=_TIED_ULP_FLASH, cost=1.0)
@example(link=_TIED_FREE_FLASH, cost=0.0)
@example(link=_LOW_SNR_LINK, cost=0.0)
def test_pruned_flash_matches_full_enumeration(link, cost):
    # The processing cost runs from 0 past the strongest state's flash
    # harvest, through the links where a flash is funded and Case 1 is not.
    params, f = link
    p, h2 = f.p, f.h**2
    top_harvest = params.eta * params.p_et * float(np.max(h2))
    params = dataclasses.replace(params, p_proc=cost * top_harvest)
    flashes = np.diag(np.where(h2 > 0.0, params.p_et / p, 0.0))
    values, p_ehu = codeword_waterfill(params, p, h2, flashes)
    best = float(np.max(values))
    r = solve(params, f)
    tol = 1e-12 * best
    assert abs(r.residuals["case2_capacity"] - best) <= tol
    assert (r.case == "Zero") == bool(np.all(values == 0.0))
    # The winner is one of the enumerated flashes, with its row's allocation
    # bit for bit.
    _, alloc, value = _best_flash(params, f)
    assert value == r.residuals["case2_capacity"]
    if value > 0.0:
        (k,) = np.flatnonzero(alloc.x2)
        assert abs(values[k] - value) <= tol
        assert np.array_equal(alloc.x2, np.sqrt(flashes[k]))
        assert np.array_equal(alloc.p_ehu, p_ehu[k])
    # Every flash worth anything is funded, and its SI-free bound holds. The
    # harvest is rounded as the enumeration's rows round it.
    harvest = params.eta * (flashes * (p * h2)).sum(axis=-1)
    budget = (harvest - params.p_proc) / (1.0 - params.rho)
    funded = budget > 0.0
    assert np.all(values[~funded] == 0.0)
    desc = np.argsort(-h2, kind="stable")
    free = _noise_floor(h2[desc], params.sigma2_sq)
    for k in np.flatnonzero(funded):
        assert _fill(_C_BITS, _Floor(free, p[desc]), budget[k])[2] >= values[k] - tol


@settings(max_examples=300, deadline=None)
@given(flash_links())
@example(link=(simple_params(sigma2_sq=0.0, alpha2=0.0), fading.rayleigh(1.0, 16)))
@example(link=(simple_params(), fading.deterministic(0.0)))
@example(link=(simple_params(p_proc=3.0), fading.rayleigh(1.0, 12)))
def test_solve_reports_what_the_public_functions_compute(link):
    # solve takes each number from the step that computed it; recomputed by
    # the public functions, every one comes out the same. The examples are a
    # noiseless link (both regimes worth inf), a dead channel and a link above
    # the top state's flash harvest (both Zero).
    params, f = link
    r = solve(params, f)
    lam2_c1, alloc_c1, value_c1 = waterfill_case1(params, f)
    lam2_c2, alloc_c2, value_c2 = _best_flash(params, f)
    rerated = capacity_case1(params, f, alloc_c1)
    assert r.residuals["case1_capacity"] == value_c1
    if math.isfinite(rerated) and rerated > 0.0:
        assert abs(value_c1 - rerated) <= 1e-15 * rerated
    else:
        assert value_c1 == rerated
    assert r.residuals["case2_capacity"] == value_c2
    if r.case == "Zero":
        assert value_c1 == value_c2 == 0.0
        want, want_lam2 = solver._zero_allocation(f.n_states), math.inf
    elif r.case == "Case1":
        want, want_lam2 = alloc_c1, lam2_c1
    else:
        want, want_lam2 = alloc_c2, lam2_c2
    assert np.array_equal(r.allocation.x2, want.x2)
    assert np.array_equal(r.allocation.p_ehu, want.p_ehu)
    # lambda2 is the winning fill's, bit for bit.
    mult = recover_multipliers(params, f, r.allocation, want_lam2, r.capacity)
    assert dataclasses.astuple(r.multipliers) == dataclasses.astuple(mult)
    ref = _allocation_residuals(params, f, r.allocation, mult)
    assert r.residuals["c1_slack"] == ref["c1_slack"]
    assert np.array_equal(r.residuals["stationarity_rel"], ref["stationarity_rel"], equal_nan=True)
    # The zero allocation harvests nothing, so its balance residual is
    # reported as 0 rather than divided by a zero harvest.
    want_c2 = 0.0 if r.case == "Zero" else ref["c2_residual_rel"]
    assert r.residuals["c2_residual_rel"] == want_c2


def _random_link(rng):
    """1-299 states, some dead, at a noise power of 1e-14..1."""
    n = int(rng.integers(1, 300))
    h = rng.rayleigh(1.0, n) * (rng.random(n) > 0.1)
    h[rng.integers(n)] = rng.uniform(0.5, 2.0)
    p = rng.uniform(0.1, 1.0, n)
    f = fading.custom(h, p / p.sum())
    params = LinkParams(
        eta=0.8,
        p_proc=float(rng.uniform(0.0, 1.2)) * 0.8 * f.mean_square,
        p_et=1.0,
        sigma2_sq=10.0 ** rng.uniform(-14.0, 0.0),
        alpha1=float(rng.uniform(0.0, 0.5)),
        alpha2=10.0 ** rng.uniform(-14.0, 0.0),
    )
    return params, f


def _assert_stationary_at_the_winning_level(params, f):
    r = solve(params, f)
    lam2 = {
        "Zero": math.inf,
        "Case1": waterfill_case1(params, f)[0],
        "Case2": _best_flash(params, f)[0],
    }[r.case]
    assert r.multipliers.lambda2 == lam2
    stat = r.residuals["stationarity_rel"]
    act = r.allocation.p_ehu > 0.0
    assert np.array_equal(np.isnan(stat), ~act)
    if not act.any():
        return
    assert np.max(stat[act]) <= 1e-12
    # The check can fail: a lambda2 off by 1e-6 shows on every active state.
    off = dataclasses.replace(r.multipliers, lambda2=lam2 * (1.0 + 1e-6))
    stat_off = _allocation_residuals(params, f, r.allocation, off)["stationarity_rel"]
    assert np.all(stat_off[act] >= 5e-7)


@settings(max_examples=200, deadline=None)
@given(flash_links())
@example(link=_LOW_SNR_LINK)
@example(link=(simple_params(sigma2_sq=0.0, alpha2=0.0), fading.rayleigh(1.0, 16)))
def test_stationarity_is_measured_against_the_winning_level(link):
    # lambda2 is the winning fill's own, bit for bit, so each state with
    # codeword power sits on its level to rounding.
    _assert_stationary_at_the_winning_level(*link)


def test_stationarity_at_the_winning_level_on_random_links():
    rng = np.random.default_rng(2024)
    for _ in range(150):
        _assert_stationary_at_the_winning_level(*_random_link(rng))


@pytest.mark.parametrize(
    "params, f, case, fills, flash_budgets, hd_fills",
    [
        (simple_params(alpha2=0.1), fading.deterministic(1.0), "Case1", 2, 1, 2),
        (simple_params(alpha2=0.1), fading.rayleigh(1.0, 16), "Case2", 2, 2, 3),
        # 10 W is above the top state's flash harvest, 0.8 * ln 8192 = 7.2 W.
        (simple_params(p_proc=10.0), fading.rayleigh(1.0, 4096), "Zero", 0, 2, 3),
    ],
    ids=["case1", "case2", "unfunded"],
)
def test_solve_fills_once_per_scored_quantity(
    monkeypatch, params, f, case, fills, flash_budgets, hd_fills
):
    # Case 1 is filled once and never re-rated; the top flash is scored and
    # the next flash's closed-form bound prunes the rest. Flash budgets are
    # formed one state at a time from the top and, below the first unfunded
    # state, in one pass over the rest, so an unfunded link loops over no
    # state. Every fill goes through the one kernel, and a cold solve of at
    # most ``_PREFIX`` states scans one set of prefix sums per fill.
    calls = {"_fill": 0, "capacity_case1": 0, "_flash": 0, "_level_sums": 0}
    for name in calls:
        def spy(*args, _name=name, _original=getattr(solver, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(solver, name, spy)
    solver._gain_floor.cache_clear()
    assert solve(params, f).case == case
    assert calls == {"_fill": fills, "capacity_case1": 0, "_flash": flash_budgets, "_level_sums": fills}
    # solve_hd ranks two candidate budgets and scores the winner (one
    # candidate on a one-state link). It reads the floor that solve left, and
    # a second call forms no prefix sums at all.
    misses = solver._gain_floor.cache_info().misses
    hd_calls = []
    for _ in range(2):
        calls.update(dict.fromkeys(calls, 0))
        solve_hd(params, f)
        hd_calls.append((calls["_fill"], calls["_level_sums"]))
    assert solver._gain_floor.cache_info().misses == misses
    assert hd_calls[0][0] == hd_calls[1][0] == hd_fills
    assert hd_calls[1][1] == 0


@pytest.mark.parametrize("n, pruned", [(16, True), (4, False)], ids=["prunes", "falls-back"])
def test_the_closed_form_bound_prunes_or_falls_back_to_the_fill(monkeypatch, n, pruned):
    # The top flash wins; the second flash's closed-form bound decides at 16
    # states, and at 4 the interference-free floor is filled to decide.
    original, outcomes, fills = solver._tangent_bound, [], []

    def tangent_spy(tangent, budget):
        bound = original(tangent, budget)
        outcomes.append(bound < tangent[0])
        return bound

    def fill_spy(c, floor, budget, _fill=solver._fill):
        fills.append(floor.live is not None)  # a gain-ordered floor
        return _fill(c, floor, budget)

    monkeypatch.setattr(solver, "_tangent_bound", tangent_spy)
    monkeypatch.setattr(solver, "_fill", fill_spy)
    params, f = simple_params(alpha2=0.1), fading.rayleigh(1.0, n)
    _, alloc, _ = _best_flash(params, f)
    assert np.flatnonzero(alloc.x2).tolist() == [n - 1]
    assert outcomes == [pruned]
    # The top flash's floor, then the free floor where the bound is filled.
    assert fills == ([False] if pruned else [False, True])


def test_the_closed_form_bound_leaves_room_for_rounding():
    # A budget one ulp below the best flash's own, with state k below its
    # level's reach (t = L_k/n_k = 1/2, so phi = 0): the tangent alone falls
    # a rounding below V_k = 1, and only the margin keeps it from pruning.
    tangent = (1.0, 1.0, 1.0, 0.5, 2.0, 1.0, 16)
    assert solver._tangent_bound(tangent, math.nextafter(1.0, 0.0)) > 1.0


@st.composite
def bound_links(draw):
    """``flash_links`` with a processing cost up to above the
    constant-amplitude harvest and, on some, no self-interference."""
    params, f = draw(flash_links())
    return dataclasses.replace(
        params,
        p_proc=draw(st.floats(0.0, 1.2)) * 0.8 * f.mean_square,
        alpha2=draw(st.sampled_from([0.0, params.alpha2])),
    ), f


@settings(max_examples=300, deadline=None)
@given(bound_links())
@example(link=_ONE_ULP_FLASH)
@example(link=(simple_params(alpha2=0.1), fading.custom([1.0, 1.0, 0.0, 0.5], [0.25] * 4)))
def test_the_closed_form_bound_is_above_the_interference_free_fill(link):
    # From every flash that was best when a bound was asked for, the closed
    # form bounds the fill of the free floor at every funded flash's budget,
    # not only the next one's.
    params, f = link
    free = solver._gain_floor(f, params.sigma2_sq)
    budgets = [b for _, q, b in solver._funded_flashes(params, f.p, f.h2) if q < math.inf]
    original, tangents = solver._tangent_bound, []

    def spy(tangent, budget):
        tangents.append(tangent)
        return math.inf  # the fill decides, so every flash up to it is scored

    solver._tangent_bound = spy
    try:
        _best_flash(params, f)
    finally:
        solver._tangent_bound = original
    for tangent in tangents:
        for budget in budgets:
            assert original(tangent, budget) >= _fill(_C_BITS, free, budget)[2]


def _prefix_floors(rng):
    """Floors longer than ``_PREFIX`` and a budget each: Rayleigh floors at
    budgets whose level falls inside the prefix or past it, long tied runs at
    the level, subnormal heights and dead states in the prefix."""
    k = solver._PREFIX
    for _ in range(120):
        n = int(rng.integers(k + 1, 3000))
        noise = np.sort(1.0 / rng.rayleigh(1.0, n) ** 2)
        yield noise, rng.uniform(0.1, 1.0, n), float(noise[0]) * 10.0 ** rng.uniform(-3.0, 4.0)
    for _ in range(60):
        # A run of equal floors v from inside the prefix, some past its end;
        # the budget puts the exact level at v, so the candidates along the
        # run tie with it to rounding.
        n, start = int(rng.integers(k + 1, 1500)), int(rng.integers(1, k))
        stop = int(rng.integers(start + 1, n + 1))
        v = rng.uniform(1.5, 3.0)
        noise = np.concatenate((np.sort(rng.uniform(1.0, v, start)), np.full(stop - start, v)))
        noise = np.concatenate((noise, np.sort(rng.uniform(v, 2 * v, n - stop))))
        w = rng.uniform(0.1, 1.0, n)
        yield noise, w, float(w[:start] @ (v - noise[:start]))
    for _ in range(60):
        n = int(rng.integers(k + 1, 1500))
        noise = 1e-310 * (1.0 + np.sort(rng.random(n)) * 10.0 ** rng.uniform(-3.0, 3.0))
        w = rng.uniform(0.1, 1.0, n) * 10.0 ** rng.uniform(-2.0, 0.0)
        yield noise, w, 1e-310 * 10.0 ** rng.uniform(-4.0, 3.0)
    for _ in range(30):
        n = int(rng.integers(k + 1, 1000))
        noise = np.sort(1.0 / rng.rayleigh(1.0, n) ** 2)
        noise[int(rng.integers(2, k)) :] = np.inf
        yield noise, rng.uniform(0.1, 1.0, n), float(noise[0]) * 10.0 ** rng.uniform(-2.0, 3.0)


def test_the_prefix_level_is_the_full_scans_to_the_bit():
    # A fill that keeps the prefix's minimum returns what the full scan
    # gives, bit for bit: the level, every power and the value.
    kept = count = 0
    for noise, w, budget in _prefix_floors(np.random.default_rng(29)):
        fresh, full = _Floor(noise, w), _Floor(noise, w)
        full.scan()
        level, power, value = _fill(_C_BITS, fresh, budget)
        want = float(_water_level(noise - noise[0], w, budget))
        assert fresh.level(budget)[0] == want
        assert level == float(noise[0] + want)
        want_level, want_power, want_value = _fill(_C_BITS, full, budget)
        assert level == want_level and value == want_value
        assert power.tobytes() == want_power.tobytes()
        kept, count = kept + (fresh._scan is None), count + 1
    # Both ways are taken: the prefix's minimum kept, and the full scan.
    assert 0 < kept < count


def test_the_prefix_margin_covers_products_that_underflow():
    # Heights in units of the smallest subnormal u: state 0 at 0, then 1001u
    # on every later state. The budget of 1000u puts the exact level at 1000u
    # and the prefix's candidates rise to 1001u, both above it. Past the
    # prefix, a weight of 0.0014985 times 1001u rounds to 1u, a third low, so
    # the computed candidates fall to 999u: only the margin's absolute term
    # (tiny / W) sends the fill to the full scan, whose bits it must return.
    u, k = 5e-324, solver._PREFIX
    height = np.full(k + 1000, 1001.0 * u)
    height[0] = 0.0
    w = np.concatenate(([1.0] * k, [0.0014985] * 1000))
    noise, budget = 2000.0 * u + height, 1000.0 * u
    want = float(_water_level(noise - noise[0], w, budget))
    assert want == 999.0 * u
    fresh, full = _Floor(noise, w), _Floor(noise, w)
    assert fresh.level(budget)[0] == want and fresh._scan is not None
    full.scan()
    level, power, value = _fill(_C_BITS, fresh, budget)
    want_level, want_power, want_value = _fill(_C_BITS, full, budget)
    assert level == want_level and value == want_value
    assert power.tobytes() == want_power.tobytes()


def test_only_a_gain_ordered_floor_scans_its_prefix_first(monkeypatch):
    # A cold solve of 600 states: Case 1's level lies in the first
    # ``_PREFIX`` states, so its floor sums only those; the winning flash,
    # whose level lies past them, builds its full sums at once and throws no
    # prefix away.
    sizes, original = [], solver._level_sums

    def spy(noise, weights):
        sizes.append(noise.size)
        return original(noise, weights)

    monkeypatch.setattr(solver, "_level_sums", spy)
    solver._gain_floor.cache_clear()
    params = LinkParams(eta=0.8, p_proc=0.0, p_et=1e-3, sigma2_sq=1e-14, alpha2=1e-8)
    assert solve(params, fading.rayleigh(1e-6, 600)).case == "Case2"
    assert sizes == [solver._PREFIX, 600]


def _solve_bytes(params, f):
    """Every output of ``solve`` on one link, as bytes."""
    return _solve_bytes_of(solve(params, f))


def _solve_bytes_of(r):
    """Every field of a ``CapacityResult``, as bytes."""
    arrays = [r.allocation.x2, r.allocation.p_ehu]
    arrays += [np.asarray(v, dtype=float) for _, v in sorted(r.residuals.items())]
    scalars = np.array([r.capacity, *dataclasses.astuple(r.multipliers)])
    return r.case.encode() + b"".join(a.tobytes() for a in arrays) + scalars.tobytes()


def _hd_bytes(params, f):
    """Every output of ``solve_hd`` on one link, as bytes."""
    b = solve_hd(params, f)
    return np.array([b.t_star, b.lam, b.rate]).tobytes() + b.p_ehu_of_h.tobytes()


def test_shared_floor_gives_the_same_bytes_cold_warm_and_interleaved():
    links = [
        (simple_params(sigma2_sq=s, alpha2=1e-3), f)
        for f in (fading.rayleigh(1.0, 64), fading.custom([0.0, 0.3, 0.3, 2.0], [0.1, 0.2, 0.3, 0.4]))
        for s in (1e-3, 2.5e-2)
    ]
    cold = []
    for link in links:
        solver._gain_floor.cache_clear()
        solve_out = _solve_bytes(*link)
        solver._gain_floor.cache_clear()
        cold.append((solve_out, _hd_bytes(*link)))
    # Each link warm (its floors are the last two built), then the four in
    # alternation, so that calls find other links' floors in the cache.
    for i, link in enumerate(links):
        for _ in range(2):
            assert (_solve_bytes(*link), _hd_bytes(*link)) == cold[i]
    for i in (0, 3, 1, 2, 0, 2, 3, 1):
        assert _hd_bytes(*links[i]) == cold[i][1]
        assert _solve_bytes(*links[(i + 1) % 4]) == cold[(i + 1) % 4][0]


@pytest.mark.parametrize(
    "alpha2, f",
    [
        (0.0, fading.rayleigh(1.0, 16)),
        (0.1, fading.rayleigh(1.0, 16)),
        (1e-3, fading.custom([0.0, 0.3, 0.3, 2.0], [0.1, 0.2, 0.3, 0.4])),
    ],
)
def test_negative_zero_noise_solves_as_zero(alpha2, f):
    # A -0.0 floor rated log1p(P/-0.0) = NaN: every flash lost to Case 1 and
    # the half-duplex rate was NaN.
    links = [(simple_params(sigma2_sq=s, alpha2=alpha2), f) for s in (-0.0, 0.0)]
    assert _solve_bytes(*links[0]) == _solve_bytes(*links[1])
    assert _hd_bytes(*links[0]) == _hd_bytes(*links[1])


def test_equal_distributions_do_not_share_a_floor():
    f, g = fading.rayleigh(1.0, 16), fading.rayleigh(1.0, 16)
    solver._gain_floor.cache_clear()
    floor = solver._gain_floor(f, 0.1)
    assert solver._gain_floor(f, 0.1) is floor
    other = solver._gain_floor(g, 0.1)
    assert other is not floor
    # The cache holds two floors; a third evicts the one read least recently.
    assert solver._gain_floor(f, 0.1) is floor and solver._gain_floor(g, 0.1) is other
    assert solver._gain_floor(f, 0.2) is not floor
    assert solver._gain_floor(f, 0.1) is not floor
    # LinkParams stores a noise power of -0.0 as 0.0, so it floors at +0.0
    # and finds the floor of 0.0.
    floor = solver._gain_floor(f, simple_params(sigma2_sq=-0.0).sigma2_sq)
    assert not np.signbit(floor.noise).any()
    assert solver._gain_floor(f, 0.0) is floor
    assert solver._gain_floor.cache_info().misses == 5


def _distributions_kept(alpha2):
    """Solve four distributions in turn; report which are still alive."""
    refs = []
    for n in (16, 32, 64, 128):
        f = fading.rayleigh(1.0, n)
        solve(simple_params(alpha2=alpha2), f)
        solve_hd(simple_params(alpha2=alpha2), f)
        refs.append(weakref.ref(f))
        del f
    gc.collect()
    return [r() is not None for r in refs]


def test_shared_floor_keeps_at_most_one_distribution_alive():
    # With p_et*alpha2 > 0 a solve reads two floors of its distribution, the
    # interference-free and the Case-1 one, so the cache's keys hold only the
    # last distribution.
    assert _distributions_kept(1e-3)[:-1] == [False] * 3


def test_floor_cache_keeps_at_most_two_distributions_alive_without_interference():
    # With alpha2 = 0 both floors are sigma2_sq/h^2, one entry per
    # distribution, so the previous distribution's may still be held.
    assert _distributions_kept(0.0)[:-2] == [False] * 2


def test_cached_floors_are_read_only():
    # A solve shares its floors with later solves: a write into any array of
    # one raises instead of corrupting them.
    params, f = simple_params(alpha2=1e-3), fading.rayleigh(1.0, 16)
    solve(params, f)
    solve_hd(params, f)
    for s in (params.sigma2_sq, params.sigma2_sq + params.p_et * params.alpha2):
        floor = solver._gain_floor(f, s)
        height, sums = floor.scan()
        for a in (floor.noise, floor.weights, height, *sums, *floor.live_sums()):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
    assert solver._gain_floor.cache_info().currsize == 2


# ---------------------------------------------------------------------------
# Metamorphic properties
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(flash_links(), st.data())
def test_solve_permutation_invariance(link, data):
    params, f = link
    order = np.array(data.draw(st.permutations(range(f.n_states))))
    rb = solve(params, fading.custom(f.h[order], f.p[order]))
    assert solve(params, f).capacity == pytest.approx(rb.capacity, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(flash_links())
def test_solve_scale_neutrality(link):
    params, f = link
    r0 = solve(params, f)
    for kappa in (1e-3, 1e3):
        scaled = dataclasses.replace(
            params,
            p_proc=params.p_proc * kappa,
            p_et=params.p_et * kappa,
            sigma2_sq=params.sigma2_sq * kappa,
        )
        assert solve(scaled, f).capacity == pytest.approx(r0.capacity, rel=1e-8)


# One live state at SNR 2.7e-6 among dead ones. Splitting a dead state
# renormalizes p, which moves the level by an ulp; level - noise turned that
# into 8e-11 of the Case-1 capacity.
_LOW_SNR_SPLIT = _edge_link([0.0] * 8 + [0.05078125], np.array([2, 2, 2, 2, 1, 1, 1, 1, 2]) / 14)


@settings(max_examples=100, deadline=None)
@given(flash_links(), st.integers(0, 39))
@example(link=_LOW_SNR_SPLIT, which=0)
def test_case1_split_state_invariance(link, which):
    # Two equal-gain halves of one state are the same channel as the state.
    # The halves change the water level's rounding, which a level taken as a
    # height above the lowest floor keeps to a few ulps at any SNR.
    params, f = link
    halves = np.ones(f.n_states, dtype=int)
    halves[which % f.n_states] = 2
    split = fading.custom(np.repeat(f.h, halves), np.repeat(f.p / halves, halves))
    c1 = solve(params, f).residuals["case1_capacity"]
    assert abs(solve(params, split).residuals["case1_capacity"] - c1) <= 1e-12 * c1


# ---------------------------------------------------------------------------
# Inner water-filling of the codeword power at a given transmit power
# ---------------------------------------------------------------------------


def _starve(params, f, row, scale):
    """``row`` scaled to harvest ``scale`` (at most 0.999) times the processing
    cost, or zero if the harvest as the energy-balance test computes it is
    above 0.999 of the cost. Near the smallest subnormals the scaled row rounds
    to a harvest of a whole ulp or more, which only a zero row stays below."""
    harvest = params.eta * float(row @ (f.p * f.h**2))
    if harvest > 0.0:
        row = row * (scale * params.p_proc / harvest)
    harvest = params.eta * float(f.p @ (f.h**2 * row))
    if Fraction(harvest) > Fraction(999, 1000) * Fraction(params.p_proc):
        return np.zeros_like(row)
    return row


@st.composite
def q_batches(draw):
    """A ``flash_links`` link and 1-6 transmit-power rows with zero entries.
    Rows flagged in ``starved`` harvest at most 0.999 of the processing cost
    (all zero when p_proc = 0)."""
    params, f = draw(flash_links())
    n = f.n_states
    rows = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 5.0))
    q = np.array(draw(st.lists(entry, min_size=rows * n, max_size=rows * n)))
    q = q.reshape(rows, n)
    starved = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    for r in np.flatnonzero(starved):
        q[r] = _starve(params, f, q[r], draw(st.floats(0.0, 0.999)))
    return params, f, q, starved


def _subnormal_cost_draw():
    """A q_batches draw at p_proc = 5e-324. Scaled to 0.999 of the cost, its
    starved row harvests 1e-323 > p_proc in the energy-balance test's
    arithmetic, so the generator returns it as a zero row."""
    h = np.array([0.0] * 25 + [2.0] * 4)
    f = fading.custom(h, np.full(29, 1.0 / 29.0))
    params = LinkParams(eta=0.8, p_proc=5e-324, p_et=1.0, sigma2_sq=1.0, alpha2=1.0)
    row = np.where(np.arange(29) >= 27, 1.0, 0.0)
    return params, f, _starve(params, f, row, 0.999)[None, :], np.array([True])


@settings(max_examples=100, deadline=None)
@given(q_batches())
def test_codeword_waterfill_batch_matches_rows(args):
    params, f, q, _ = args
    p, h2 = f.p, f.h**2
    values, p_ehu = codeword_waterfill(params, p, h2, q)
    assert values.shape == q.shape[:1] and p_ehu.shape == q.shape
    for r in range(q.shape[0]):
        v_r, pe_r = codeword_waterfill(params, p, h2, q[r])
        assert v_r == values[r]
        assert np.array_equal(pe_r, p_ehu[r])
    # Any leading shape, not only a 2-D batch.
    v3, pe3 = codeword_waterfill(params, p, h2, q[:, None, :])
    assert np.array_equal(v3[:, 0], values) and np.array_equal(pe3[:, 0], p_ehu)


@settings(max_examples=100, deadline=None)
@given(q_batches())
def test_codeword_waterfill_unfunded_rows_are_zero(args):
    params, f, q, starved = args
    values, p_ehu = codeword_waterfill(params, f.p, f.h**2, q)
    assert np.all(values[starved] == 0.0)
    assert np.all(p_ehu[starved] == 0.0)


@settings(max_examples=100, deadline=None)
@given(q_batches())
@example(_subnormal_cost_draw())
def test_codeword_waterfill_closes_energy_balance(args):
    # sum p (w - noise) cancels digits when the budget is orders below the
    # water level, so the tolerance is relative to the larger of the two.
    params, f, q, _ = args
    p, h2 = f.p, f.h**2
    one_m_rho = 1.0 - params.rho
    _, p_ehu = codeword_waterfill(params, p, h2, q)
    for r in range(q.shape[0]):
        harvest = params.eta * float(p @ (h2 * q[r]))
        if harvest <= params.p_proc:
            assert np.all(p_ehu[r] == 0.0)
            continue
        consumed = one_m_rho * float(p @ p_ehu[r]) + params.p_proc
        act = p_ehu[r] > 0.0
        assert np.any(act)
        with np.errstate(divide="ignore"):
            noise = (params.sigma2_sq + params.alpha2 * q[r]) / h2
        level = one_m_rho * float(p[act] @ (p_ehu[r, act] + noise[act]))
        assert abs(harvest - consumed) <= 1e-12 * max(harvest, level)


@settings(max_examples=300, deadline=None)
@given(flash_links())
def test_case1_shortcut_matches_codeword_waterfill(link):
    # waterfill_case1 reads the noise floor reversed instead of sorting it;
    # at q = p_et in every state it must give the shared law's answer.
    params, f = link
    p, h2 = f.p, f.h**2
    _, alloc, _ = waterfill_case1(params, f)
    value, p_ehu = codeword_waterfill(params, p, h2, np.full(f.n_states, params.p_et))
    cap = capacity_case1(params, f, alloc)
    assert abs(cap - value) <= 1e-12 * max(1.0, value)
    s = params.sigma2_sq + params.p_et * params.alpha2
    act = p_ehu > 0.0
    level = float(np.max(p_ehu[act] + s / h2[act]))
    assert np.all(np.abs(alloc.p_ehu - p_ehu) <= 1e-12 * level)


# ---------------------------------------------------------------------------
# Water-level kernel and the state order its callers rely on
# ---------------------------------------------------------------------------


def sorted_water_level(noise, weights, budget):
    """Water level of unsorted noise (inf on dead states) by argsort, prefix
    sums and the first candidate below the next noise level."""
    order = np.argsort(noise)
    ns, ws = noise[order], weights[order]
    live = np.isfinite(ns)
    ns, ws = ns[live], ws[live]
    cand = (budget + np.cumsum(ws * ns)) / np.cumsum(ws)
    nxt = np.append(ns[1:], np.inf)
    return float(cand[np.argmax(cand <= nxt)])


@st.composite
def water_rows(draw, min_live):
    """A batch of sorted noise rows whose tails are dead (inf)."""
    rows = draw(st.integers(1, 6))
    n = draw(st.integers(1, 30))
    vals = draw(st.lists(st.floats(1e-3, 1e3), min_size=rows * n, max_size=rows * n))
    noise = np.sort(np.array(vals).reshape(rows, n), axis=1)
    n_live = np.array(draw(st.lists(st.integers(min_live, n), min_size=rows, max_size=rows)))
    noise[np.arange(n) >= n_live[:, None]] = np.inf
    wts = draw(st.lists(st.floats(1e-2, 1.0), min_size=rows * n, max_size=rows * n))
    budget = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=rows, max_size=rows)))
    return noise, np.array(wts).reshape(rows, n), budget


@settings(max_examples=200, deadline=None)
@given(water_rows(min_live=0))
def test_water_level_batch_matches_rows(args):
    noise, wts, budget = args
    w = _water_level(noise, wts, budget)
    assert w.shape == budget.shape
    for r in range(budget.size):
        assert w[r] == _water_level(noise[r], wts[r], budget[r])


@settings(max_examples=200, deadline=None)
@given(water_rows(min_live=1))
def test_water_level_spends_budget(args):
    # sum w_i (w - n_i) cancels digits when the budget is orders below the
    # terms, so the tolerance is relative to the larger of the two.
    noise, wts, budget = args
    w = _water_level(noise, wts, budget)
    for r in range(budget.size):
        act = noise[r] < w[r]
        spent = float(wts[r, act] @ (w[r] - noise[r, act]))
        scale = max(budget[r], w[r] * float(wts[r, act].sum()))
        assert abs(spent - budget[r]) <= 1e-12 * scale


@settings(max_examples=200, deadline=None)
@given(water_rows(min_live=1))
def test_water_level_matches_reference_bisection(args):
    noise, wts, budget = args
    w = _water_level(noise, wts, budget)
    for r in range(budget.size):
        ref = water_level_reference(noise[r], wts[r], budget[r])
        assert w[r] == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_water_level_dead_rows_are_infinite():
    noise = np.array([[np.inf, np.inf, np.inf], [0.5, 2.0, np.inf], [np.inf] * 3])
    w = _water_level(noise, np.full((3, 3), 1.0 / 3.0), np.array([1.0, 1.0, 0.0]))
    assert math.isinf(w[0]) and math.isinf(w[2])
    assert w[1] == pytest.approx(2.75)
    assert math.isinf(_water_level(np.full(4, np.inf), np.full(4, 0.25), 1.0))


@st.composite
def tied_water_rows(draw):
    """A batch of sorted noise rows drawn from a few levels, so that floors
    tie, with dead (inf) floors; some rows are dead throughout."""
    rows = draw(st.integers(1, 6))
    n = draw(st.integers(1, 30))
    levels = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4)) + [math.inf]
    vals = draw(st.lists(st.sampled_from(levels), min_size=rows * n, max_size=rows * n))
    noise = np.sort(np.array(vals).reshape(rows, n), axis=1)
    wts = draw(st.lists(st.floats(1e-2, 1.0), min_size=rows * n, max_size=rows * n))
    budget = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=rows, max_size=rows)))
    return noise, np.array(wts).reshape(rows, n), budget


@settings(max_examples=200, deadline=None)
@given(tied_water_rows())
def test_water_level_is_the_smallest_prefix_candidate(args):
    noise, wts, budget = args
    w = _water_level(noise, wts, budget)
    for r in range(budget.size):
        cands = []
        for m in range(1, noise.shape[1] + 1):
            # Left-to-right sums, as the kernel's cumulative sums add.
            num = budget[r] + sum(float(x) * float(y) for x, y in zip(wts[r, :m], noise[r, :m]))
            cands.append(num / sum(float(x) for x in wts[r, :m]))
        assert w[r] == min(cands)
        ref = water_level_reference(noise[r], wts[r], budget[r])
        if math.isinf(ref):
            assert math.isinf(w[r])
        else:
            assert w[r] == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_unsorted_input_with_ties_and_a_dead_state():
    # Case 1 and the half-duplex benchmark read the noise floor reversed,
    # relying on FadingDistribution storing gains ascending.
    h = np.array([1.2, 0.0, 0.5, 1.2, 0.8, 0.5, 0.3])
    p = np.array([0.1, 0.15, 0.2, 0.25, 0.1, 0.1, 0.1])
    f = fading.custom(h, p)
    back = np.argsort(h, kind="stable")
    with np.errstate(divide="ignore"):
        inv_h2 = np.where(h > 0.0, 1.0 / h**2, np.inf)

    params = simple_params(sigma2_sq=0.6, alpha2=0.05)
    _, alloc, _ = waterfill_case1(params, f)
    noise = (params.sigma2_sq + params.p_et * params.alpha2) * inv_h2
    budget = params.eta * params.p_et * float(h**2 @ p)
    w = sorted_water_level(noise, p, budget)
    ref = np.maximum(w - noise, 0.0)[back]
    assert np.count_nonzero(ref) not in (0, h.size - 1)
    assert np.allclose(alloc.p_ehu, ref, rtol=1e-12, atol=0.0)

    hd_params = simple_params(sigma2_sq=0.6, p_proc=0.05)
    res = solve_hd(hd_params, f)
    t = res.t_star
    noise = hd_params.sigma2_sq * inv_h2
    budget = t * hd_params.eta * hd_params.p_et * float(h**2 @ p) / (1.0 - t) - hd_params.p_proc
    w = sorted_water_level(noise, p, budget)
    act = noise < w
    rate = (1.0 - t) * float(p[act] @ np.log2(w / noise[act]))
    assert np.allclose(res.p_ehu_of_h, np.maximum(w - noise, 0.0)[back], rtol=1e-12, atol=0.0)
    assert res.rate == pytest.approx(rate, rel=1e-12)
    assert res.lam == pytest.approx(1.0 / w, rel=1e-12)


def test_rates_edges():
    # Warnings are errors in this suite, so each edge must also be silent.
    power = np.array([0.0, 2.0, 0.0, 2.0, 2.0, 2e-20])
    noise = np.array([1.0, np.inf, 0.0, 0.0, 0.25, 1.0])
    rates = _rates(_C_BITS, power, noise)
    # No power, a dead state, no power on a noiseless state and a noiseless
    # live state; then a plain state, and one at SNR 2e-20, where 1 + SNR
    # rounds to 1.
    assert np.array_equal(rates[:4], [0.0, 0.0, 0.0, math.inf])
    want = [0.5 * math.log2(9.0), 1e-20 / math.log(2.0)]
    assert rates[4:] == pytest.approx(want, rel=1e-15, abs=0.0)
    assert np.array_equal(_rates(1.0, np.zeros(6), noise), np.zeros(6))


@pytest.mark.parametrize(
    "x2, p_ehu",
    [
        ([1.0, -1e-300], [0.0, 1.0]),
        ([1.0, 0.0], [-0.5, 1.0]),
        ([math.nan, 1.0], [0.5, 1.0]),
        ([1.0, 0.0], [0.5, math.inf]),
        ([1.0, 0.0], [1.0]),
        ([[1.0]], [[1.0]]),
        (1.0, 1.0),
    ],
    ids=["negative_x2", "negative_p_ehu", "nan_x2", "inf_p_ehu", "lengths", "two_d", "scalar"],
)
def test_power_allocation_rejects(x2, p_ehu):
    with pytest.raises(ValueError):
        PowerAllocation(np.array(x2), np.array(p_ehu))


def test_power_allocation_is_frozen():
    alloc = PowerAllocation([1.0, 0.0], np.array([0.0, 2.0]))
    assert alloc.x2.dtype == float and alloc.p_ehu.tolist() == [0.0, 2.0]
    with pytest.raises(ValueError):
        alloc.p_ehu[0] = 1.0


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
        lam2, alloc, _ = _best_flash(params, f)
        errs = closed_form_x2_errors(params, f, alloc, lam2)
        if errs.size:
            checked += 1
            assert np.max(errs) <= 1e-6
    assert checked >= 6  # the consistency check must not be vacuous


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
    for h in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            capacity_no_fading(params, h)


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


def mp_fill_bits(floors, budget):
    """(1/2) log2-rate of ``budget`` water-filled over ``floors``, a list of
    (noise floor, probability) pairs in mpmath, at the working precision."""
    floors = sorted(floors)
    weight = spent = 0
    for k, (n, p) in enumerate(floors):
        weight, spent = weight + p, spent + p * n
        level = (budget + spent) / weight
        if k + 1 == len(floors) or level <= floors[k + 1][0]:
            break
    return mpmath.fsum(p * mpmath.log(level / n) for n, p in floors[: k + 1]) / mpmath.log(4)


def mp_capacities(params, f):
    """Case-1 capacity and best flash value at 50 digits on a link without
    residual interference or processing cost, where every regime spends its
    harvest over the floor sigma2_sq/h^2."""
    with mpmath.workdps(50):
        h2 = [mpmath.mpf(h) ** 2 for h in f.h]
        p = [mpmath.mpf(x) for x in f.p]
        floors = [(params.sigma2_sq / g, x) for g, x in zip(h2, p)]
        scale = params.eta * mpmath.mpf(params.p_et) / (1 - mpmath.mpf(params.rho))
        case1 = mp_fill_bits(floors, scale * mpmath.fsum(g * x for g, x in zip(h2, p)))
        return float(case1), float(max(mp_fill_bits(floors, scale * g) for g in h2))


def mp_rayleigh_capacity(params, omega):
    """``rayleigh_capacity_closed_form``'s capacity at 50 digits on a link
    without residual interference, processing cost or recycling: bisection on
    ln x for the continuous balance exp(-x)/x - E1(x) = eta p_et omega^2 /
    sigma2_sq, then E1(x)/(2 ln 2)."""
    with mpmath.workdps(50):
        r = params.eta * mpmath.mpf(params.p_et) * omega**2 / params.sigma2_sq
        lo, hi = mpmath.mpf(-800), mpmath.mpf(10)
        for _ in range(300):
            x = mpmath.exp((lo + hi) / 2)
            if mpmath.exp(-x) / x - mpmath.e1(x) > r:
                lo = (lo + hi) / 2
            else:
                hi = (lo + hi) / 2
        return float(mpmath.e1(mpmath.exp(lo)) / mpmath.log(4))


@pytest.mark.parametrize("snr", [1e-4, 1e-7, 1e-9, 1e-11, 1e-13])
def test_low_snr_capacities_match_mpmath(snr):
    # The Case-1 harvest is snr times the noise. 1 + SNR and level - noise
    # lost 8e-4 of the unfaded capacity at SNR 1e-13.
    params = simple_params(sigma2_sq=0.8 / snr)
    unfaded = fading.deterministic(1.0)
    ref, _ = mp_capacities(params, unfaded)
    assert solve(params, unfaded).capacity == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert capacity_no_fading(params, 1.0) == pytest.approx(ref, rel=1e-12, abs=0.0)
    # Faded, the flash on the strongest state wins, and Case 1 is scored too.
    f = fading.rayleigh(1.0, 16)
    case1, flash = mp_capacities(params, f)
    r = solve(params, f)
    assert r.case == "Case2"
    assert r.residuals["case1_capacity"] == pytest.approx(case1, rel=1e-12, abs=0.0)
    assert r.capacity == pytest.approx(flash, rel=1e-12, abs=0.0)
    cf = rayleigh_capacity_closed_form(params, 1.0)[1]
    assert cf == pytest.approx(mp_rayleigh_capacity(params, 1.0), rel=1e-12, abs=0.0)


def test_rayleigh_closed_form_matches_discretization():
    params = LinkParams(eta=0.8, p_proc=0.0, p_et=1.0, sigma2_sq=1e-3, alpha2=0.0)
    omega = 1.0
    lam2, cap = rayleigh_capacity_closed_form(params, omega)
    f = fading.rayleigh(omega, 4000)
    _, alloc, _ = waterfill_case1(params, f)
    cap_disc = capacity_case1(params, f, alloc)
    assert cap == pytest.approx(cap_disc, rel=1e-4)


def test_rayleigh_closed_form_closes_the_continuous_balance():
    # The returned lambda2 solves the docstring's balance, evaluated with
    # mpmath's E1 at 40 digits, on links whose x = lt*s/omega spans 1e-21..40.
    rng = np.random.default_rng(3)
    worst = 0.0
    with mpmath.workdps(40):
        for _ in range(200):
            eta = rng.uniform(0.1, 1.0)
            p_et = 10.0 ** rng.uniform(-4.0, 2.0)
            omega = 10.0 ** rng.uniform(-8.0, 1.0)
            params = LinkParams(
                eta=eta,
                p_et=p_et,
                sigma2_sq=10.0 ** rng.uniform(-20.0, 0.0),
                alpha2=10.0 ** rng.uniform(-14.0, 0.0),
                alpha1=rng.uniform(0.0, 0.9),
                p_proc=rng.uniform(0.0, 0.95) * eta * p_et * omega,
            )
            lam2, _ = rayleigh_capacity_closed_form(params, omega)
            one_m_rho = 1 - mpmath.mpf(params.rho)
            s = mpmath.mpf(params.sigma2_sq) + mpmath.mpf(p_et) * params.alpha2
            lt = mpmath.mpf(lam2) * one_m_rho
            x = lt * s / omega
            mean_power = mpmath.exp(-x) / lt - (s / omega) * mpmath.e1(x)
            target = mpmath.mpf(eta) * p_et * omega - params.p_proc
            worst = max(worst, float(abs(one_m_rho * mean_power - target) / target))
    assert worst <= 1e-12


def test_rayleigh_closed_form_monotone_in_omega():
    params = LinkParams(eta=0.8, p_proc=1e-4, p_et=1.0, sigma2_sq=1e-3, alpha2=1e-6)
    caps = [rayleigh_capacity_closed_form(params, om)[1] for om in (0.5, 1.0, 2.0)]
    assert caps[0] < caps[1] < caps[2]


def test_rayleigh_closed_form_infeasible():
    params = LinkParams(eta=0.8, p_proc=1.0, p_et=1.0, sigma2_sq=1e-3)
    with pytest.raises(ValueError):
        rayleigh_capacity_closed_form(params, 0.5)
    for omega in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            rayleigh_capacity_closed_form(simple_params(), omega)


def test_rayleigh_closed_form_noiseless_limit():
    # With no receiver noise and no residual interference the log-capacity
    # diverges; the balance multiplier stays finite.
    params = LinkParams(eta=0.8, p_proc=0.0, p_et=1.0, sigma2_sq=0.0, alpha2=0.0)
    lam2, cap = rayleigh_capacity_closed_form(params, 1.0)
    assert math.isinf(cap)
    assert lam2 == pytest.approx(1.0 / (params.eta * params.p_et), rel=1e-12)
