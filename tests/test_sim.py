"""Battery dynamics and the slotted Monte Carlo achievability run."""

import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import ks_2samp

from fdwpc import fading, sim
from fdwpc.sim import SimConfig, simulate
from fdwpc.solver import _C_BITS, PowerAllocation, _noise_floor, _rates, solve
from fdwpc.units import LinkParams, dbm_to_watt


def sim_params(**kw):
    base = dict(
        eta=0.8, p_proc=0.05, p_et=1.0, sigma2_sq=0.1, g1_mean=0.3, alpha1=0.4, alpha2=0.05
    )
    base.update(kw)
    return LinkParams(**base)


def every_row_reference(params, f, alloc, cfg):
    """The slot loop without the skip rule: the same draws in the same order,
    then every wanted slot's net and floor from its per-use path
    (``_slot_sums``) and ``_close_slot`` on every transmitting slot.

    With alpha1 > 0 a path is the slot's drawn symbols and gains, and the
    slot's e_sum and d_sum come from the row sums of those draws. With
    alpha1 == 0 a path is built from the slot's (S1, R) and the generator
    keyed by the slot. Either way the slot closes with the closed-form sums."""
    rng = np.random.Generator(np.random.SFC64([cfg.seed, 0x5107]))
    k = cfg.k
    states = f.sample_indices(cfg.seed, cfg.n_slots)
    hx2 = f.h * alloc.x2
    x1_sd = np.sqrt(alloc.p_ehu)
    gate = k * (params.p_proc + alloc.p_ehu)
    sleep_in = k * params.eta * hx2 * hx2
    wanted = alloc.p_ehu[states] > 0.0
    ws = states[wanted]
    if params.alpha1 > 0.0:
        z = rng.standard_normal((ws.size, 2, k))
        x1 = x1_sd[ws, None] * z[:, 0]
        gain = params.g1_mean + math.sqrt(params.alpha1) * z[:, 1]
        amp = hx2[ws, None] + gain * x1
        _, _, net, floor = sim._slot_sums(params.eta * amp * amp, x1 * x1 + params.p_proc)
        # The sums of every row at once; simulate reduces a group at a time.
        sums = np.empty((3, ws.size))
        scale = sim._product_sums(z, params.g1_mean, math.sqrt(params.alpha1), sums)
        e_sum, d_sum = sim._recycled_sums(
            *sums, k, hx2[ws], x1_sd[ws], scale, params.eta, params.p_proc
        )
        rows = list(zip(*(a.tolist() for a in (e_sum, d_sum, net, floor))))
    else:
        s1, r = sim._draw_sums(rng, ws.size, k)
        e_sum, d_sum = sim._closed_sums(
            s1, r, k, hx2[ws], x1_sd[ws], params.g1_mean, params.eta, params.p_proc
        )
        rows = []
        for j, slot in enumerate(np.flatnonzero(wanted).tolist()):
            v = np.random.Generator(np.random.SFC64([cfg.seed, 0x5107, slot])).standard_normal(k)
            x1 = x1_sd[ws[j]] * sim._conditional_path(float(s1[j]), float(r[j]), v)
            amp = hx2[ws[j]] + params.g1_mean * x1
            _, _, net, floor = sim._slot_sums(
                (params.eta * amp * amp)[None], (x1 * x1 + params.p_proc)[None]
            )
            rows.append((float(e_sum[j]), float(d_sum[j]), float(net[0]), float(floor[0])))
    rows = iter(rows)
    level = e_in_total = e_out_total = 0.0
    depleted = 0
    transmitted = np.zeros(cfg.n_slots, dtype=bool)
    battery = np.zeros(cfg.n_slots)
    for i, (s_i, w_i) in enumerate(zip(states.tolist(), wanted.tolist())):
        if w_i:
            row = next(rows)
        if w_i and level >= gate[s_i]:
            level, e_out, dry = sim._close_slot(level, *row)
            e_in_total += row[0]
            e_out_total += e_out
            depleted += dry
            transmitted[i] = True
        else:
            level += sleep_in[s_i]
            e_in_total += sleep_in[s_i]
        battery[i] = level
    return dict(
        battery_j=battery,
        transmitted=transmitted,
        energy_in_total=e_in_total,
        energy_out_total=e_out_total,
        battery_final=level,
        depleted_slots=depleted,
    )


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


def test_recycling_slot_net_change_first_two_moments():
    # A transmitting slot that cannot run dry changes the battery by the sum
    # of k i.i.d. Y - p_proc, Y = eta (c + sx (g + sg w) z)^2 - sx^2 z^2 with
    # c = h x2, sx^2 = p_ehu, sg^2 = alpha1 and z, w standard normal. Half the
    # sustainable codeword power fills the battery, so past the warm-up every
    # slot starts far above any slot's demand; which slots qualify depends on
    # earlier slots only. Gains taken from the slot's own symbols, shifted by
    # one use, keep every per-use mean but correlate neighbouring uses, so
    # only the variance of the sum sees them.
    params = sim_params()
    f = fading.deterministic(1.0)
    solved = solve(params, f).allocation
    alloc = PowerAllocation(solved.x2, 0.5 * solved.p_ehu)
    k = 50
    tr = simulate(params, f, alloc, SimConfig(k=k, n_slots=4000, seed=21))
    c, sx2 = float(f.h[0] * alloc.x2[0]), float(alloc.p_ehu[0])
    g, sg2, eta = params.g1_mean, params.alpha1, params.eta
    start = np.concatenate(([0.0], tr.battery_j[:-1]))
    net = (tr.battery_j - start)[tr.transmitted & (start >= 10.0 * k * (params.p_proc + sx2))]
    assert tr.depleted_slots == 0 and net.size > 3000
    # Moments of the gain G = g + sg w and of A = c + G x1, x1 = sx z.
    g2 = g * g + sg2
    g4 = g**4 + 6.0 * g * g * sg2 + 3.0 * sg2 * sg2
    a2 = c * c + g2 * sx2
    a4 = c**4 + 6.0 * c * c * g2 * sx2 + 3.0 * g4 * sx2 * sx2
    a2x2 = c * c * sx2 + 3.0 * g2 * sx2 * sx2
    mean_y = eta * a2 - sx2
    var_y = eta * eta * (a4 - a2 * a2) + 2.0 * sx2 * sx2 - 2.0 * eta * (a2x2 - a2 * sx2)
    n = net.size
    dev = net - net.mean()
    var = float(dev @ dev) / (n - 1)
    # The standard error of the sample variance, from the sample's fourth
    # central moment.
    var_se = math.sqrt(max(float(np.mean(dev**4)) - var * var, 0.0) / n)
    assert abs(net.mean() - k * (mean_y - params.p_proc)) <= 5.0 * math.sqrt(k * var_y / n)
    assert abs(var - k * var_y) <= 5.0 * var_se


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
    assert tr.warmup_slots == 200


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


def depletion_link():
    # A tiny slot gate with large symbol variance forces the min clause.
    params = sim_params(p_proc=0.0, alpha1=0.0, g1_mean=0.0)
    f = fading.deterministic(1.0)
    alloc = PowerAllocation(np.array([1.0]), np.array([5.0]))
    return params, f, alloc, SimConfig(k=3, n_slots=400, seed=7)


def solved_link(**kw):
    params = sim_params(**kw)
    f = fading.rayleigh(1.0, 8)
    return params, f, solve(params, f).allocation, SimConfig(k=100, n_slots=3000, seed=0)


def test_mid_slot_depletion_respects_battery():
    tr = simulate(*depletion_link())
    assert np.all(tr.battery_j >= 0.0)
    drift = abs(tr.energy_in_total - tr.energy_out_total - tr.battery_final)
    assert drift <= 1e-9 * max(tr.energy_in_total, 1e-300)
    assert tr.depleted_slots > 0
    assert tr.transmitted.any()
    assert tr.warmup_slots == int(np.flatnonzero(tr.transmitted)[0])


def test_battery_extremes():
    params, f, alloc, cfg = depletion_link()
    tr = simulate(params, f, alloc, cfg)
    assert tr.battery_min_j == tr.battery_j.min()
    assert tr.battery_max_j == tr.battery_j.max()
    # Each use ends at or above its own harvest, even in a slot that ran dry;
    # a transmitting slot starts at or above its gate k * p_ehu.
    assert tr.depleted_slots > 0
    assert tr.battery_min_j >= params.eta * (1 - 1e-12)
    assert tr.battery_max_j >= cfg.k * alloc.p_ehu[0]


def single_use_link():
    # k = 1: no squared deviation (R = 0); a quarter of the slots sent run dry.
    params, f, alloc, cfg = depletion_link()
    return params, f, alloc, dataclasses.replace(cfg, k=1)


def recycling_depletion_link():
    # The depletion link with a random recycle gain: its slots close from
    # drawn symbols, and 35 of its 400 run the exact path.
    params, f, alloc, cfg = depletion_link()
    return dataclasses.replace(params, alpha1=0.4), f, alloc, cfg


def recycling_silent_link():
    # The recycling depletion link with a silent state: about half its slots
    # sleep, so a slot's wanted rank in its run is not its position, and 29
    # of its 400 run the exact path.
    params, _, _, cfg = recycling_depletion_link()
    f = fading.custom([0.5, 1.0], [0.5, 0.5])
    return params, f, PowerAllocation(np.array([1.0, 1.0]), np.array([0.0, 5.0])), cfg


def clustered_outage_link():
    # The simulate benchmark's fixed-gain link at 2000 slots: 296 outage slots
    # in a few long clusters near an empty battery, where the loop leaves its
    # cumsum for the per-slot body and comes back.
    params = LinkParams(
        eta=0.8, p_proc=dbm_to_watt(-70.0), p_et=1.0, sigma2_sq=1e-14,
        g1_mean=0.5, alpha1=0.0, alpha2=1e-10,
    )
    f = fading.rayleigh(9.880961210318490e-08, 16)
    return params, f, solve(params, f).allocation, SimConfig(k=200, n_slots=2000, seed=840501605)


@pytest.mark.parametrize(
    "link",
    [
        solved_link,
        lambda: solved_link(alpha1=0.0, g1_mean=0.0),
        lambda: solved_link(alpha1=0.0, g1_mean=0.5),
        # A mean gain above the gain's deviation sets the sums' scale.
        lambda: solved_link(alpha1=0.1, g1_mean=0.8),
        depletion_link,
        single_use_link,
        recycling_depletion_link,
        recycling_silent_link,
        clustered_outage_link,
    ],
    ids=[
        "recycling", "no-recycling", "fixed-gain", "recycling-mean-gain", "depletion", "single-use",
        "recycling-depletion", "recycling-silent", "clustered-outages",
    ],
)
def test_skip_rule_matches_every_row_loop_bit_for_bit(link):
    params, f, alloc, cfg = link()
    tr = simulate(params, f, alloc, cfg)
    ref = every_row_reference(params, f, alloc, cfg)
    assert tr.transmitted.any() and not tr.transmitted.all()
    if link in (recycling_depletion_link, recycling_silent_link):
        # The recycling path's exact closes run, and some of them run dry.
        assert tr.exact_path_slots >= 20 and tr.depleted_slots >= 10
    if link is clustered_outage_link:
        assert tr.outage_fraction * cfg.n_slots >= 100
    for name, value in ref.items():
        assert np.array_equal(getattr(tr, name), value), name


@pytest.mark.parametrize("chunk", [16, 48, 100])
def test_redraws_match_the_every_row_loop_when_a_run_splits_a_block(monkeypatch, chunk):
    # A run of ``chunk`` slots holds fewer wanted slots than a group, so it
    # cuts its group short, and a slot that could run dry redraws that cut
    # group from the generator state kept at its start.
    monkeypatch.setattr(sim, "_SUMS_CHUNK", chunk)
    for link in (recycling_depletion_link, recycling_silent_link):
        params, f, alloc, cfg = link()
        assert chunk < sim._GROUP_FLOATS // (2 * cfg.k) and cfg.n_slots > chunk
        tr = simulate(params, f, alloc, cfg)
        assert tr.exact_path_slots >= 20
        for name, value in every_row_reference(params, f, alloc, cfg).items():
            assert np.array_equal(getattr(tr, name), value), name


def test_exact_slot_path_runs_only_where_the_battery_could_run_dry(monkeypatch):
    # Guards the saved pass: the per-use prefix sums run on a handful of
    # slots, not on every slot drawn, whether the slot's symbols were drawn
    # (recycling) or are built from its two sums only when needed.
    shapes, closes = [], []
    slot_sums, close_slot = sim._slot_sums, sim._close_slot

    def spy_sums(e_in, demand):
        shapes.append(e_in.shape)
        return slot_sums(e_in, demand)

    def spy_close(level, e_sum, d_sum, net, floor):
        closes.append((level, e_sum, d_sum))
        return close_slot(level, e_sum, d_sum, net, floor)

    monkeypatch.setattr(sim, "_slot_sums", spy_sums)
    monkeypatch.setattr(sim, "_close_slot", spy_close)
    f = fading.rayleigh(9.880961210318490e-08, 16)
    cfg = SimConfig(k=200, n_slots=2000, seed=0)
    for alpha1, g1_mean in ((0.5, 0.0), (0.0, 0.5)):
        params = LinkParams(
            eta=0.8, p_proc=1e-11, p_et=1.0, sigma2_sq=1e-14,
            g1_mean=g1_mean, alpha1=alpha1, alpha2=1e-10,
        )
        shapes.clear()
        closes.clear()
        tr = simulate(params, f, solve(params, f).allocation, cfg)
        n_sent = int(tr.transmitted.sum())
        assert n_sent > 0.5 * cfg.n_slots
        assert shapes == [(1, cfg.k)] * len(closes)
        assert tr.exact_path_slots == len(closes) < 0.01 * n_sent
        for level, e_sum, d_sum in closes:
            safe = sim._dry_free_level(np.array([e_sum]), np.array([d_sum]), cfg.k)[0]
            assert not level >= safe


# Nonnegative energies over many decades, zeros included.
_wide = st.one_of(st.just(0.0), st.floats(1e-30, 1e30))


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 1000).flatmap(
        lambda k: st.tuples(
            hnp.arrays(np.float64, (1, k), elements=_wide),
            hnp.arrays(np.float64, (1, k), elements=_wide),
        )
    )
)
# No harvest: the sequential prefix sums of the demand round above its
# pairwise row sum, so a zero margin would skip a slot that runs dry.
@example(rows=(np.zeros((1, 8)), np.array([[1.0] + [3 * 2.0**-54] * 7])))
def test_skip_rule_never_skips_a_slot_that_runs_dry(rows):
    e_in, demand = rows
    e_sum, d_sum, _, floor = sim._slot_sums(e_in, demand)
    safe = sim._dry_free_level(e_sum, d_sum, e_in.shape[1])
    for level in (safe[0], np.nextafter(safe[0], np.inf)):
        if level >= safe[0]:
            assert floor[0] <= level


# Powers, gains and amplitudes over many decades, subnormals included.
_decades = st.one_of(st.just(0.0), st.floats(1e-150, 1e50))


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(1, 1000),
    seed=st.integers(0, 2**32 - 1),
    s1=st.floats(-1e6, 1e6),
    r=st.floats(0.0, 1e8),
    p=st.floats(1e-250, 1e100),
    g=_decades,
    hx2=_decades,
    p_proc=st.floats(0.0, 1e100),
)
# The mean alone would cancel the channel signal: hx2 + g sqrt(p) s1 / k = 0.
@example(k=2, seed=0, s1=-2.0, r=1e-6, p=1.0, g=1.0, hx2=1.0, p_proc=0.0)
# Underflow: s1^2 / k and r / sum(u^2) are subnormal, so a relative margin
# alone would skip these slots.
@example(k=2, seed=0, s1=1.3018599728112058e-157, r=0.0, p=0.25, g=0.0, hx2=0.0, p_proc=0.0)
@example(k=100, seed=100, s1=0.0, r=2.225073858507e-311, p=10.0, g=0.0, hx2=0.0, p_proc=0.0)
def test_skip_rule_never_skips_a_conditional_path_that_runs_dry(
    k, seed, s1, r, p, g, hx2, p_proc
):
    # A no-recycling slot is scored from its closed-form sums, but one that
    # could run dry closes on a path built from (S1, R): the rounded floor
    # of that path must not exceed the level the closed-form sums clear.
    r = r if k > 1 else 0.0
    sd = math.sqrt(p)
    z = sim._conditional_path(s1, r, np.random.default_rng(seed).standard_normal(k))
    e_in, demand = sim._use_energies(sd * z[None], g, hx2, 0.8, p_proc)
    floor = sim._slot_sums(e_in, demand)[3][0]
    e_sum, d_sum = sim._closed_sums(np.array([s1]), np.array([r]), k, hx2, sd, g, 0.8, p_proc)
    assert floor <= sim._dry_free_level(e_sum, d_sum, k)[0]


# Gains, powers and amplitudes over many decades, zero and subnormals included.
_subnormal_decades = st.one_of(
    st.just(0.0), st.floats(5e-324, 2.2e-308), st.floats(1e-150, 1e50)
)


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(1, 1000),
    seed=st.integers(0, 2**32 - 1),
    p=st.one_of(st.floats(5e-324, 2.2e-308), st.floats(1e-250, 1e100)),
    g=st.one_of(_subnormal_decades, _subnormal_decades.map(lambda x: -x)),
    alpha1=_subnormal_decades,
    hx2=_subnormal_decades,
    p_proc=st.one_of(st.just(0.0), st.floats(5e-324, 1e100)),
)
# One use's amplitude cancels: hx2 + gain x1 = 0 in the per-use form.
@example(k=1, seed=4, p=2.0, g=1.0, alpha1=0.25, hx2=0.8412471436639372, p_proc=0.0)
# The mean alone cancels the channel signal: k hx2 + S = 0.
@example(k=2, seed=4, p=1.0, g=1.0, alpha1=0.25, hx2=0.7131454944862108, p_proc=0.0)
# Underflow: every gain times symbol and every symbol power is subnormal.
@example(k=100, seed=0, p=5e-324, g=0.0, alpha1=5e-324, hx2=0.0, p_proc=0.0)
@example(k=1000, seed=1, p=5e-324, g=5e-324, alpha1=5e-324, hx2=5e-324, p_proc=5e-324)
def test_skip_rule_never_skips_a_recycling_slot_that_runs_dry(
    k, seed, p, g, alpha1, hx2, p_proc
):
    # A recycling slot is scored from the row sums of its draws, but one that
    # could run dry closes on its per-use path: the rounded floor of that path
    # must not exceed the level the closed-form sums clear, and the two forms
    # of each sum agree to the rounding of a k-term sum. A harvest's error is
    # relative to its terms before they cancel, sum eta (|h x2| + |gain x1|)^2.
    eta, g_sd, sd = 0.8, math.sqrt(alpha1), math.sqrt(p)
    z = np.random.default_rng(seed).standard_normal((1, 2, k))
    x1 = sd * z[:, 0]
    gain = g + g_sd * z[:, 1]
    e_in, demand = sim._use_energies(x1, gain, hx2, eta, p_proc)
    e_use, d_use, _, floor = (float(a[0]) for a in sim._slot_sums(e_in, demand))
    sums = np.empty((3, 1))
    scale = sim._product_sums(z, g, g_sd, sums)
    e_sum, d_sum = sim._recycled_sums(*sums, k, hx2, sd, scale, eta, p_proc)
    assert floor <= sim._dry_free_level(e_sum, d_sum, k)[0]
    assert e_sum[0] >= 0.0 and d_sum[0] >= k * p_proc
    fi = np.finfo(np.float64)
    tol = 4 * (k + 2) * fi.eps
    terms = float((eta * (hx2 + np.abs(gain * x1)) ** 2).sum())
    assert abs(e_sum[0] - e_use) <= tol * (terms + fi.tiny)
    assert abs(d_sum[0] - d_use) <= tol * (d_use + fi.tiny)


@pytest.mark.parametrize("k", [1, 2, 3, 200])
def test_conditional_path_reproduces_its_sums(k):
    rng = np.random.default_rng(k)
    for s1, r in zip(*sim._draw_sums(rng, 5, k)):
        z = sim._conditional_path(float(s1), float(r), rng.standard_normal(k))
        dev = float(((z - z.mean()) ** 2).sum())
        assert z.shape == (k,)
        assert abs(z.sum() - s1) <= 1e-12 * abs(s1)
        if k == 1:
            assert r == 0.0 and dev == 0.0
        else:
            assert abs(dev - r) <= 1e-12 * r


@pytest.mark.parametrize("g", [0.0, 0.5])
@pytest.mark.parametrize("k", [3, 200])
def test_closed_form_sums_match_per_use_draws(k, g):
    # The two-number law against k brute-force symbols per slot.
    n, hx2, sd, eta, p_proc = 3000, 0.7, 1.3, 0.8, 0.05
    s1, r = sim._draw_sums(np.random.default_rng(1), n, k)
    e_sum, d_sum = sim._closed_sums(s1, r, k, hx2, sd, g, eta, p_proc)
    x1 = sd * np.random.default_rng(2).standard_normal((n, k))
    e_ref = (eta * (hx2 + g * x1) ** 2).sum(axis=1)
    d_ref = (x1**2 + p_proc).sum(axis=1)
    assert ks_2samp(d_sum, d_ref).pvalue > 1e-3
    if g == 0.0:
        # Only the transmitter's signal is harvested: k * eta * hx2^2, rounded.
        np.testing.assert_allclose(e_sum, e_ref, rtol=1e-14)
    else:
        assert ks_2samp(e_sum, e_ref).pvalue > 1e-3
    assert np.all(e_sum >= 0.0) and np.all(d_sum >= k * p_proc)


def test_harvest_per_use_statistical_mean_without_gain_variance():
    # With alpha1 = 0 the recycled harvest per transmitting use is
    # eta * g1_mean^2 * p_ehu on top of the signal's eta * h^2 * x2^2.
    params = sim_params(alpha1=0.0, g1_mean=0.5)
    f = fading.deterministic(1.0)
    res = solve(params, f)
    tr = simulate(params, f, res.allocation, SimConfig(k=200, n_slots=5000, seed=5))
    h, x2, p_ehu = f.h[0], res.allocation.x2[0], res.allocation.p_ehu[0]
    share = float(np.mean(tr.transmitted))
    recycled = params.g1_mean**2 * p_ehu * share
    expected = params.eta * (h**2 * x2**2 + recycled)
    # Recycling is about a fifth of the harvest, far above the 1% bound.
    assert 0.2 < share < 1.0 and recycled > 0.1 * h**2 * x2**2
    assert tr.mean_harvest_w == pytest.approx(expected, rel=0.01)


_energy = st.floats(0.0, 10.0, allow_subnormal=False)


@settings(max_examples=300, deadline=None)
@given(
    level=st.one_of(st.just(0.0), _energy),
    uses=st.lists(st.tuples(_energy, _energy), min_size=1, max_size=40),
)
def test_closed_form_slot_matches_per_use_loop(level, uses):
    # Demands drawn on the same scale as the harvest and the start level
    # make most slots run dry part-way.
    e_in = np.array([[e for e, _ in uses]])
    demand = np.array([[d for _, d in uses]])
    sums = [float(a[0]) for a in sim._slot_sums(e_in, demand)]
    end, e_out, _ = sim._close_slot(level, *sums)
    ref_level, ref_out = level, 0.0
    for e, d in uses:
        draw = min(ref_level, d)
        ref_level += e - draw
        ref_out += draw
    # The one-step law cancels sums of the slot's whole harvest and demand.
    scale = level + e_in.sum() + demand.sum()
    assert end >= 0.0
    assert abs(end - ref_level) <= 1e-12 * scale
    assert abs(e_out - ref_out) <= 1e-12 * scale


def recycling_block_link():
    params = sim_params()
    f = fading.rayleigh(1.0, 8)
    return params, f, solve(params, f).allocation, SimConfig(k=20, n_slots=300, seed=4)


@pytest.mark.parametrize(
    "link",
    [recycling_block_link, depletion_link, recycling_depletion_link, recycling_silent_link],
    ids=["recycling", "no-recycling", "recycling-depletion", "recycling-silent"],
)
def test_block_size_does_not_change_the_run(monkeypatch, link):
    # The depletion links run the exact path on 24 to 35 of 400 slots, so
    # chunk edges fall next to slots closed from their per-use path, and the
    # loop hands slots between its cumsum and its per-slot body after 1, 3 or
    # the default number of slots decided in a row. A group holds 1, 7 or the
    # default number of wanted slots, so groups split chunks and chunks cut
    # groups short.
    params, f, alloc, cfg = link()
    runs = []
    for group in (1, 7, sim._GROUP_FLOATS // (2 * cfg.k)):
        for chunk, decided in ((1, 1), (7, 3), (sim._SUMS_CHUNK, sim._DECIDED_RUN)):
            monkeypatch.setattr(sim, "_GROUP_FLOATS", 2 * cfg.k * group)
            monkeypatch.setattr(sim, "_SUMS_CHUNK", chunk)
            monkeypatch.setattr(sim, "_DECIDED_RUN", decided)
            runs.append(simulate(params, f, alloc, cfg))
    first = runs[0]
    assert first.transmitted.any() and not first.transmitted.all()
    if link is not recycling_block_link:
        assert first.exact_path_slots >= 20
    for tr in runs[1:]:
        assert np.array_equal(tr.battery_j, first.battery_j)
        assert np.array_equal(tr.transmitted, first.transmitted)
        assert tr.energy_in_total == first.energy_in_total
        assert tr.energy_out_total == first.energy_out_total
        assert tr.depleted_slots == first.depleted_slots
        assert tr.exact_path_slots == first.exact_path_slots
        assert tr.battery_final == first.battery_final
        assert tr.outage_fraction == first.outage_fraction


def test_recycling_run_peak_memory_stays_under_4_mib():
    # One group of wanted slots is drawn at a time, and a replay redraws into
    # the same buffer: at k = 40000 a group is one slot, whose draws are
    # 640 KiB.
    params = sim_params()
    f = fading.rayleigh(1.0, 8)
    alloc = solve(params, f).allocation
    cfg = SimConfig(k=40_000, n_slots=40, seed=0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tr = simulate(params, f, alloc, cfg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert tr.transmitted.any()
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize(
    "link",
    [recycling_block_link, depletion_link, recycling_depletion_link],
    ids=["recycling", "no-recycling", "recycling-depletion"],
)
def test_trace_columns_derive_from_the_states(link):
    params, f, alloc, cfg = link()
    tr = simulate(params, f, alloc, cfg)
    states = f.sample_indices(cfg.seed, cfg.n_slots)
    noise = _noise_floor(f.h2, params.sigma2_sq + params.alpha2 * alloc.x2**2)
    rates = _rates(_C_BITS, alloc.p_ehu, noise)
    assert tr.transmitted.any() and not tr.transmitted.all()
    assert tr.state_h is f.h
    assert np.array_equal(tr.fading_state, states)
    assert np.array_equal(tr.h, f.h[tr.fading_state])
    assert np.array_equal(tr.slot_rate_bits, np.where(tr.transmitted, rates[states], 0.0))


def test_trace_csv_with_a_dead_and_a_silent_state():
    # The allocation gives no codeword power to the dead state (h = 0) nor
    # to the weak one (h = 0.1), so their rows never transmit.
    params = sim_params(alpha1=0.0)
    f = fading.custom([0.0, 0.1, 1.0, 2.0], [0.25, 0.25, 0.25, 0.25])
    alloc = solve(params, f).allocation
    assert alloc.p_ehu.tolist()[:2] == [0.0, 0.0] and np.all(alloc.p_ehu[2:] > 0.0)
    tr = simulate(params, f, alloc, SimConfig(k=20, n_slots=2000, seed=3))
    assert np.array_equal(np.unique(tr.fading_state), np.arange(4))
    assert np.array_equal(np.unique(tr.fading_state[tr.transmitted]), [2, 3])
    buf = io.StringIO()
    tr.write_csv(buf)
    assert_same_lines(buf.getvalue(), row_by_row_csv(tr))


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


def test_trace_csv_format_is_pinned(tmp_path):
    params = sim_params()
    f = fading.rayleigh(1.0, 4)
    res = solve(params, f)
    tr = simulate(params, f, res.allocation, SimConfig(k=20, n_slots=10, seed=2))
    # More rows than one write chunk over 64 states whose gains and rates mix
    # signed zeros, denormals, huge values, infinities and NaN with ordinary
    # ones, and a run of one state across a chunk edge.
    rng = np.random.default_rng(0)
    special = np.array(
        [0.0, -0.0, 5e-324, 2.2e-310, 1.7976931348623157e308, 1e300, np.inf, -np.inf, np.nan]
    )
    n_states, n = 64, 2500

    def column(size):
        return np.where(
            rng.random(size) < 0.3, rng.choice(special, size), rng.lognormal(0.0, 30.0, size)
        )

    states = rng.integers(0, n_states, n)
    states[900:1200] = states[899]
    tr = dataclasses.replace(
        tr,
        fading_state=states,
        state_h=column(n_states),
        transmitted=rng.random(n) < 0.5,
        state_rate_bits=column(n_states),
        battery_j=column(n),
    )
    out = tmp_path / "trace.csv"
    tr.to_csv(out)
    assert_same_lines(out.read_bytes().decode("utf-8"), row_by_row_csv(tr))


def test_trace_csv_of_a_real_run_is_pinned():
    # A real trace repeats each state's gain and rate, so most rows reuse a
    # row format; three chunks, the last one short.
    tr = simulate(*solved_link())
    assert tr.transmitted.any() and not tr.transmitted.all()
    buf = io.StringIO()
    tr.write_csv(buf)
    assert_same_lines(buf.getvalue(), row_by_row_csv(tr))


def test_trace_csv_chunk_size_does_not_change_the_bytes(monkeypatch, tmp_path):
    # 10050 rows cross the slot widths 1 -> 2 -> 3 -> 4 -> 5, where the
    # writer ends a chunk early, and the chunk edges fall elsewhere too; the
    # battery column holds values the kernel leaves to Python, 9999 -> 10000
    # among them. Both sinks, the file's bytes and the text stream's, are the
    # row-by-row text.
    params, f, alloc, cfg = solved_link()
    tr = simulate(params, f, alloc, dataclasses.replace(cfg, n_slots=10_050))
    battery = tr.battery_j.copy()
    special = [0.0, -0.0, 5e-324, 1e-100, 9.9999999999995e-96, 2.5e-5, 1e100, 1e300, np.inf,
               -np.inf, np.nan, -1.5]
    battery[3 : 3 * len(special) + 3 : 3] = special
    battery[1000:1010] = special[:10]
    battery[9994:10006] = special
    tr = dataclasses.replace(tr, battery_j=battery)
    expected = row_by_row_csv(tr)
    out = tmp_path / "trace.csv"
    for chunk in (1, 7, sim._CSV_CHUNK, 5000):
        monkeypatch.setattr(sim, "_CSV_CHUNK", chunk)
        tr.to_csv(out)
        assert_same_lines(out.read_bytes().decode("ascii"), expected)
        buf = io.StringIO()
        tr.write_csv(buf)
        assert_same_lines(buf.getvalue(), expected)


def test_trace_csv_peak_memory_stays_under_460_kib(tmp_path):
    # The writer holds one chunk's rows and kernel temporaries at a time: a
    # 20000-row trace at 16 states (5-digit slots) must not cost more.
    params = sim_params(alpha1=0.0)
    f = fading.rayleigh(1.0, 16)
    tr = simulate(params, f, solve(params, f).allocation, SimConfig(k=20, n_slots=20_000))
    out = tmp_path / "trace.csv"
    tr.to_csv(out)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tr.to_csv(out)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 460 * 1024, peak


@pytest.mark.parametrize("k", range(1, 13))
def test_slot_digits_across_a_power_of_ten(k):
    for lo, hi in ((10**k - 1, 10**k + 1), (max(0, 10**k - 1500), 10**k + 1500), (0, 12)):
        assert sim._slot_digits(lo, hi).tolist() == [str(i).encode() for i in range(lo, hi)]


def assert_e12_exact(x):
    """Assert the kernel's text is ``'%.12e' % v`` wherever it takes its fast
    path and ``_format_e12`` is everywhere; return the fast share."""
    x = np.asarray(x, dtype=np.float64)
    text, fast = sim._e12_fast(x)
    want = ["%.12e" % v for v in x.tolist()]
    bad = [
        (v, t, w)
        for v, t, w, ok in zip(x.tolist(), text.tolist(), want, fast.tolist())
        if ok and t.decode() != w
    ]
    assert not bad, bad[:5]
    full = [t.decode() for t in sim._format_e12(x).tolist()]
    assert full == want
    return float(fast.mean())


def test_e12_kernel_on_random_bit_patterns():
    # Every class of float64: subnormals, NaN, infinities, -0.0, negatives.
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2**64, 50_000, dtype=np.uint64, endpoint=False)
    extra = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0]
    x = np.concatenate([bits.view(np.float64), extra])
    assert_e12_exact(x)
    # Their magnitudes with a 2-digit decimal exponent mostly take the fast
    # path.
    two_digit = np.isfinite(x) & (np.abs(np.frexp(x)[1]) < 320)
    assert assert_e12_exact(np.abs(x[two_digit])) > 0.9


def test_e12_kernel_at_constructed_ties():
    rng = np.random.default_rng(12)
    mant = rng.integers(10**12, 10**13, 4000)
    exps = rng.integers(-112, 100, 4000)
    x = [float(f"{m}5e{k}") for m, k in zip(mant.tolist(), exps.tolist())]
    # Ties of 13-digit mantissas at the ends of the range, and the value a
    # tie test read after the carry printed as 1.000000000000e-95.
    x += [float(f"{m}5e{k}") for m in (10**12, 10**13 - 1) for k in range(-112, 100)]
    x += [9.9999999999995e-96, 9.9999999999995e-5, 1.0000000000005]
    assert_e12_exact(x)
    # 0.003 of the last digit from a tie lies past the kernel's error bound
    # (2.3e-3) and inside its fallback band (twice that); 0.009 lies past
    # the band with room for both roundings of the value, so the fast path
    # must print it.
    near = [float(f"{m}{d}e{k - 2}") for m, k in zip(mant.tolist(), exps.tolist())
            for d in ("497", "503")]
    assert_e12_exact(near)
    two_digit = exps <= 80
    past = [float(f"{m}{d}e{k - 2}")
            for m, k in zip(mant[two_digit].tolist(), exps[two_digit].tolist())
            for d in ("491", "509")]
    assert assert_e12_exact(past) == 1.0


def test_e12_kernel_next_to_powers_of_ten():
    x = []
    for e in range(-99, 100):
        p = float(f"1e{e}")
        x += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
        x += [p * (1.0 + s * k * 1.1e-16) for k in range(1, 40) for s in (1, -1)]
    # log10 rounds to e just below 10**e; without the exponent fix about
    # half of these would fall back.
    assert assert_e12_exact(x) > 0.95


def test_e12_kernel_takes_its_fast_path():
    # Under 5% of arbitrary positive values fall back: a kernel whose fast
    # path never fires would pass the exactness tests.
    rng = np.random.default_rng(13)
    x = rng.lognormal(0.0, 40.0, 50_000)
    x = x[(x > 1e-99) & (x < 1e99)]
    assert assert_e12_exact(x) > 0.95
    assert assert_e12_exact(np.zeros(3)) == 1.0


def assert_same_lines(text, expected):
    # Equal line lists are equal texts; a list reports its first differing
    # line at once, where a diff of two whole texts can take minutes.
    assert text.splitlines(keepends=True) == expected.splitlines(keepends=True)


def row_by_row_csv(tr):
    """The trace CSV formatted one field at a time."""
    return "slot,h,transmitted,slot_rate_bits,battery_j\n" + "".join(
        f"{i},{tr.h[i]:.12e},{int(tr.transmitted[i])},"
        f"{tr.slot_rate_bits[i]:.12e},{tr.battery_j[i]:.12e}\n"
        for i in range(tr.battery_j.size)
    )


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(k=0, n_slots=10)
    with pytest.raises(ValueError):
        SimConfig(k=10, n_slots=0)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        SimConfig(seed=-1)


@pytest.mark.parametrize("h", [[1.0], np.linspace(0.5, 2.0, 32)], ids=["too_long", "too_short"])
def test_simulate_rejects_an_allocation_of_another_length(h):
    params = sim_params()
    alloc = solve(params, fading.rayleigh(1.0, 16)).allocation
    f = fading.custom(h, np.full(len(h), 1.0 / len(h)))
    with pytest.raises(ValueError, match="16 states"):
        simulate(params, f, alloc, SimConfig(k=10, n_slots=100))
