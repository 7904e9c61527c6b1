"""Ergodic capacity of the full-duplex wirelessly powered link.

The harvesting user funds a Gaussian codeword from energy it harvests off the
energy transmitter's signal (plus recycled self-interference), subject to a
long-run energy balance and to the transmitter's average power budget. Two
transmitter regimes are solved and compared:

* Case 1: the energy transmitter sends the constant amplitude sqrt(p_et) in
  every fading state, and the harvesting user water-fills its codeword power
  across fading states over the residual-interference noise floor.
* Case 2: the transmitter adapts its amplitude per fading state. The problem
  is solved primal-first: the codeword powers are eliminated by exact inner
  water-filling and the per-state transmit powers ascend the reduced objective
  by projected gradient with backtracking, from several structured starts.
  The Lambert-W closed form for the adapted amplitude is then evaluated as a
  post-hoc consistency check against the converged primal solution.

``brute_force_oracle`` searches gridded per-state amplitudes (exhaustive seed
for tiny instances, cyclic coordinate descent otherwise, two grid refinements
around the incumbent) with the same exact inner water-filling, providing an
independent answer for small instances.

Capacities are in bits per channel use throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fading import FadingDistribution
from .specfun import lambert_w0, lambert_w0_of_log
from .units import LinkParams

__all__ = [
    "PowerAllocation",
    "MultiplierSet",
    "CapacityResult",
    "OracleResult",
    "NonConvergenceError",
    "waterfill_case1",
    "capacity_case1",
    "x0_of_h",
    "solve_case2",
    "solve",
    "capacity_no_fading",
    "rayleigh_capacity_closed_form",
    "brute_force_oracle",
    "recover_multipliers",
    "closed_form_x2_errors",
]

_LN2 = math.log(2.0)
# 1/(2 ln 2): converts (1/2) log2 rates to a natural-log slope.
_C_BITS = 0.5 / _LN2


class NonConvergenceError(RuntimeError):
    """Adaptive-amplitude solver ran out of iterations.

    Carries the best primal iterate found and its residuals so callers can
    inspect how far from stationarity the search stopped.
    """

    def __init__(self, message: str, allocation=None, residuals=None):
        super().__init__(message)
        self.allocation = allocation
        self.residuals = residuals


@dataclass(frozen=True)
class PowerAllocation:
    """Per-fading-state transmit decision.

    ``x2`` is the energy transmitter's symbol amplitude and ``p_ehu`` the
    harvesting user's Gaussian codeword variance (watts), both aligned with
    the fading distribution's state order.
    """

    x2: np.ndarray
    p_ehu: np.ndarray

    def __post_init__(self) -> None:
        x2 = np.asarray(self.x2, dtype=float)
        pe = np.asarray(self.p_ehu, dtype=float)
        if x2.shape != pe.shape or x2.ndim != 1:
            raise ValueError("x2 and p_ehu must be equal-length 1-D arrays")
        if np.any(x2 < 0.0) or np.any(pe < 0.0):
            raise ValueError("amplitudes and powers must be >= 0")
        x2 = np.ascontiguousarray(x2)
        pe = np.ascontiguousarray(pe)
        x2.setflags(write=False)
        pe.setflags(write=False)
        object.__setattr__(self, "x2", x2)
        object.__setattr__(self, "p_ehu", pe)


@dataclass(frozen=True)
class MultiplierSet:
    """Dual variables of the capacity problem.

    ``lambda1`` prices the transmitter's average power budget, ``lambda2``
    the energy balance (in the convention where the water level equals
    ``1/(lambda2*(1-rho))``), and ``mu1`` the normalization of the
    transmitter's input distribution. The nonnegativity clamp on the codeword
    power is handled implicitly and never materialized.
    """

    lambda1: float
    lambda2: float
    mu1: float


@dataclass(frozen=True)
class CapacityResult:
    """Solved capacity with allocation, multipliers and diagnostics.

    ``residuals`` keys:

    * ``c1_slack`` -- unused transmit-power budget, watts (>= 0 up to tol).
    * ``c2_residual_rel`` -- relative energy-balance residual (0 when tight).
    * ``stationarity_rel`` -- per-state relative water-filling stationarity
      residual (NaN on states with no codeword power).
    * ``balance_residual_rel`` -- constant-amplitude energy balance residual.
    * ``case1_capacity`` / ``case2_capacity`` -- both objectives, bits/use.
    * ``case1_condition_lhs`` / ``case1_condition_rhs`` -- both sides of the
      constant-amplitude optimality condition under the recovered
      multipliers (diagnostic only; see module notes).
    * ``closed_form_x2_max_rel_err`` -- worst relative mismatch between the
      Lambert-W closed form and the primal adapted amplitudes (NaN when the
      check has no applicable state).
    * ``lambda1_spread_rel`` -- cross-state spread of the recovered budget
      multiplier (a stationarity quality indicator).
    """

    case: str
    capacity: float
    allocation: PowerAllocation
    multipliers: MultiplierSet
    residuals: dict = field(default_factory=dict)


@dataclass(frozen=True)
class OracleResult:
    """Best objective found by the brute-force search, with a bracket.

    ``capacity_low`` is the exactly-evaluated objective of the best allocation
    found (a true lower bound). ``capacity_high`` adds a heuristic resolution
    allowance estimated from the final refinement's improvement.
    """

    capacity_low: float
    capacity_high: float
    allocation: PowerAllocation


def _zero_allocation(n: int) -> PowerAllocation:
    return PowerAllocation(np.zeros(n), np.zeros(n))


def _zero_result(fading: FadingDistribution) -> CapacityResult:
    n = fading.n_states
    return CapacityResult(
        case="Zero",
        capacity=0.0,
        allocation=_zero_allocation(n),
        multipliers=MultiplierSet(0.0, math.inf, 0.0),
        residuals={
            "c1_slack": 0.0,
            "c2_residual_rel": 0.0,
            "stationarity_rel": np.full(n, np.nan),
            "balance_residual_rel": np.nan,
            "case1_capacity": 0.0,
            "case2_capacity": 0.0,
            "case1_condition_lhs": np.nan,
            "case1_condition_rhs": np.nan,
            "closed_form_x2_max_rel_err": np.nan,
            "lambda1_spread_rel": np.nan,
        },
    )


def _rate_bits(h2: np.ndarray, p_ehu: np.ndarray, s) -> np.ndarray:
    """Per-state rate (1/2) log2(1 + h^2 P / s), safe at P = 0 and s = 0."""
    s_arr = np.broadcast_to(np.asarray(s, dtype=float), h2.shape)
    out = np.zeros_like(h2, dtype=float)
    act = p_ehu > 0.0
    if np.any(act):
        with np.errstate(divide="ignore"):
            snr = h2[act] * p_ehu[act] / s_arr[act]
        out[act] = 0.5 * np.log2(1.0 + snr)
    return out


def _noise_floor(h2: np.ndarray, s) -> np.ndarray:
    """Water-filling noise floor s/h^2, infinite on dead states."""
    s_arr = np.broadcast_to(np.asarray(s, dtype=float), h2.shape)
    out = np.full(h2.shape, np.inf)
    live = h2 > 0.0
    out[live] = s_arr[live] / h2[live]
    return out


def _water_level(noise: np.ndarray, weights: np.ndarray, budget: float) -> float:
    """Exact water level: sum weights*[w - noise]^+ = budget.

    Dead states carry infinite noise and never activate. Returns inf when no
    state is usable.
    """
    order = np.argsort(noise)
    ns = noise[order]
    ws = weights[order]
    if not np.isfinite(ns[0]):
        return math.inf
    finite = np.isfinite(ns)
    ns = ns[finite]
    ws = ws[finite]
    cw = np.cumsum(ws)
    cwn = np.cumsum(ws * ns)
    w_cand = (budget + cwn) / cw
    nxt = np.append(ns[1:], np.inf)
    m = int(np.argmax(w_cand <= nxt))
    return float(w_cand[m])


# ---------------------------------------------------------------------------
# Case 1: constant transmit amplitude sqrt(p_et)
# ---------------------------------------------------------------------------


def waterfill_case1(
    params: LinkParams, fading: FadingDistribution
) -> tuple[float, PowerAllocation]:
    """Water-fill the harvesting user's power under a constant ET amplitude.

    Returns ``(lambda2, allocation)`` where the codeword power per state is
    ``[1/(lambda2*(1-rho)) - (sigma2_sq + p_et*alpha2)/h^2]^+`` and the water
    level ``1/(lambda2*(1-rho))`` spends the harvested budget exactly.

    If the average harvested power cannot cover the processing cost, the zero
    allocation is returned with ``lambda2 = inf``.
    """
    harvest = params.eta * params.p_et * fading.mean_square
    if harvest <= params.p_proc:
        return math.inf, _zero_allocation(fading.n_states)
    one_m_rho = 1.0 - params.rho
    s = params.sigma2_sq + params.p_et * params.alpha2
    noise = _noise_floor(fading.h**2, s)
    w = _water_level(noise, fading.p, (harvest - params.p_proc) / one_m_rho)
    p_ehu = np.maximum(w - noise, 0.0)
    x2 = np.full(fading.n_states, math.sqrt(params.p_et))
    return 1.0 / (w * one_m_rho), PowerAllocation(x2, p_ehu)


def capacity_case1(
    params: LinkParams, fading: FadingDistribution, alloc: PowerAllocation
) -> float:
    """Ergodic rate of a constant-amplitude allocation, bits per channel use."""
    s = params.sigma2_sq + params.p_et * params.alpha2
    rates = _rate_bits(fading.h**2, alloc.p_ehu, s)
    return float(rates @ fading.p)


# ---------------------------------------------------------------------------
# Case 2: fading-adapted transmit amplitude
# ---------------------------------------------------------------------------


def _reduced_value(params: LinkParams, fading: FadingDistribution, q: np.ndarray):
    """Objective after exact inner water-filling, plus its gradient in q.

    ``q`` holds per-state transmit powers x2^2. Returns
    ``(value_bits, grad, p_ehu, water_level)``. The codeword power spends the
    harvested budget exactly, so the energy balance is tight by construction.
    """
    p = fading.p
    h2 = fading.h**2
    one_m_rho = 1.0 - params.rho
    harvest = params.eta * float((p * h2) @ q)
    budget = (harvest - params.p_proc) / one_m_rho
    n = q.size
    if budget <= 0.0:
        # Sterile point: climb toward more harvested power.
        return 0.0, p * (params.eta * h2), np.zeros(n), 0.0
    s = params.sigma2_sq + params.alpha2 * q
    noise = _noise_floor(h2, s)
    w = _water_level(noise, p, budget)
    if not math.isfinite(w):
        return 0.0, p * (params.eta * h2), np.zeros(n), 0.0
    p_ehu = np.maximum(w - noise, 0.0)
    act = p_ehu > 0.0
    value = _C_BITS * float((p[act] * np.log(w / noise[act])).sum())
    # d(value)/dq: direct residual-interference loss plus the marginal value
    # of harvested energy through the water level.
    with np.errstate(invalid="ignore"):
        loss = np.where(
            act, params.alpha2 * p_ehu / (np.maximum(s, 1e-300) * w), 0.0
        )
    grad = _C_BITS * p * (params.eta * h2 / (w * one_m_rho) - loss)
    return value, grad, p_ehu, w


def _project_to_budget(y: np.ndarray, p: np.ndarray, cap: float) -> np.ndarray:
    """Euclidean projection onto {q >= 0, sum(p*q) <= cap}.

    Exact breakpoint search (Duchi et al., ICML 2008; Kiwiel, JOTA 2008): the
    projection is q = (y - tau*p)^+, and tau is fixed by the active set, which
    is a prefix of the breakpoints y/p sorted in descending order.
    """
    q = np.maximum(y, 0.0)
    total = float(p @ q)
    if total <= cap:
        return q
    pos = y > 0.0
    yp, pp = y[pos], p[pos]
    breaks = yp / pp
    order = np.argsort(breaks)[::-1]
    ys, ps = yp[order], pp[order]
    taus = (np.cumsum(ps * ys) - cap) / np.cumsum(ps * ps)
    k = max(int(np.count_nonzero(breaks[order] > taus)), 1)
    q = np.maximum(y - taus[k - 1] * p, 0.0)
    # y - tau*p cancels most of its digits on concentrated iterates (y/p far
    # above q/p), so the closed-form tau can land over budget; the ascent
    # must only ever see feasible points.
    total = float(p @ q)
    while total > cap:
        q *= np.nextafter(cap / total, 0.0)
        total = float(p @ q)
    return q


def _case2_starts(params: LinkParams, fading: FadingDistribution, init_x2):
    p = fading.p
    h2 = fading.h**2
    p_et = params.p_et
    live = h2 > 0.0
    n = h2.size
    starts = []
    # Constant full-budget amplitude (the Case-1 transmitter).
    q = np.where(live, p_et, 0.0)
    scale = float(p @ q)
    starts.append(q * (p_et / scale) if scale > p_et else q)
    # Power proportional to the squared gain.
    ms = float((p * h2).sum())
    if ms > 0.0:
        starts.append(np.where(live, p_et * h2 / ms, 0.0))
    # Full-budget concentration candidates. The best state to blast trades
    # its harvest h^2 against the rate value surrendered by polluting it
    # (which scales with the state's probability), so neither the strongest
    # nor the rarest state is right in general: score every single-state
    # concentration when that is cheap, otherwise try the strongest gains
    # (on quantile grids the probabilities are uniform and gain dominates).
    if n <= 128:
        conc = np.zeros((n, n))
        conc[np.arange(n), np.arange(n)] = np.where(live, p_et / p, 0.0)
        vals = _batch_value(params, p, h2, conc)
        vals[~live] = -np.inf
        picks = np.argsort(vals)[::-1][: min(4, n)]
    else:
        picks = np.argsort(h2)[::-1][:4]
    for i in picks:
        if h2[i] <= 0.0:
            continue
        q = np.zeros_like(h2)
        q[i] = p_et / p[i]
        starts.append(q)
    if init_x2 is not None:
        q = np.asarray(init_x2, dtype=float) ** 2
        starts.append(_project_to_budget(np.where(live, q, 0.0), p, p_et))
    return starts


def _case2_ascent(
    params: LinkParams,
    fading: FadingDistribution,
    q0: np.ndarray,
    max_iter: int,
    tol_obj: float,
):
    """Projected-gradient ascent on the reduced objective from one start."""
    p = fading.p
    live = fading.h > 0.0
    p_et = params.p_et
    q = _project_to_budget(np.where(live, q0, 0.0), p, p_et)
    value, grad, p_ehu, w = _reduced_value(params, fading, q)
    gmax = float(np.max(np.abs(grad)))
    qscale = p_et / float(np.min(p[live])) if np.any(live) else p_et
    t = 0.25 * qscale / gmax if gmax > 0.0 else 1.0
    stall = 0
    iters = 0
    converged = False
    while iters < max_iter:
        iters += 1
        gmax = float(np.max(np.abs(grad)))
        if gmax == 0.0:
            converged = True
            break
        accepted = False
        for _ in range(80):
            q_new = _project_to_budget(q + t * grad, p, p_et)
            q_new[~live] = 0.0
            v_new, g_new, pe_new, w_new = _reduced_value(params, fading, q_new)
            if v_new >= value:
                accepted = True
                break
            t *= 0.4
        if not accepted:
            converged = True
            break
        gain = v_new - value
        q, value, grad, p_ehu, w = q_new, v_new, g_new, pe_new, w_new
        t *= 1.6
        if gain <= tol_obj * max(1.0, abs(value)):
            stall += 1
            if stall >= 12:
                converged = True
                break
        else:
            stall = 0
    return q, value, p_ehu, w, converged, iters


def _solve_case2_full(
    params: LinkParams,
    fading: FadingDistribution,
    *,
    max_iter: int = 100_000,
    tol_obj: float = 1e-10,
    init_x2=None,
):
    """Run the adaptive-amplitude solver; returns the best converged iterate."""
    harvest_c1 = params.eta * params.p_et * fading.mean_square
    if harvest_c1 <= params.p_proc:
        zero = _zero_allocation(fading.n_states)
        return zero, 0.0, 0.0, True
    best = None
    any_converged = False
    for q0 in _case2_starts(params, fading, init_x2):
        q, value, p_ehu, w, converged, _ = _case2_ascent(
            params, fading, q0, max_iter, tol_obj
        )
        any_converged = any_converged or converged
        if best is None or value > best[1]:
            best = (q, value, p_ehu, w, converged)
    q, value, p_ehu, w, conv_best = best
    alloc = PowerAllocation(np.sqrt(q), p_ehu)
    if not any_converged:
        raise NonConvergenceError(
            f"adaptive-amplitude search did not converge within {max_iter} "
            "iterations from any start",
            allocation=alloc,
            residuals=_allocation_residuals(params, fading, alloc),
        )
    return alloc, value, w, conv_best


def solve_case2(
    params: LinkParams, fading: FadingDistribution
) -> tuple[MultiplierSet, PowerAllocation]:
    """Solve the fading-adapted transmitter regime.

    Returns the recovered multipliers and the primal allocation. Infeasible
    energy budgets yield the zero allocation (with ``lambda2 = inf``).
    """
    alloc, value, w, _ = _solve_case2_full(params, fading)
    if value <= 0.0:
        return MultiplierSet(0.0, math.inf, 0.0), alloc
    mult, _ = recover_multipliers(params, fading, alloc)
    return mult, alloc


# ---------------------------------------------------------------------------
# Multiplier recovery and the Lambert-W closed-form check
# ---------------------------------------------------------------------------


def _allocation_water_level(
    params: LinkParams, fading: FadingDistribution, alloc: PowerAllocation
) -> float:
    s = params.sigma2_sq + params.alpha2 * alloc.x2**2
    h2 = fading.h**2
    act = alloc.p_ehu > 0.0
    if not np.any(act):
        return math.inf
    levels = alloc.p_ehu[act] + s[act] / h2[act]
    return float(np.median(levels))


def recover_multipliers(
    params: LinkParams, fading: FadingDistribution, alloc: PowerAllocation
) -> tuple[MultiplierSet, dict]:
    """Recover (lambda1, lambda2, mu1) from a converged primal allocation.

    lambda2 comes from the water level, lambda1 from the per-state transmit
    power stationarity averaged over states that carry both transmit and
    codeword power, and mu1 from the distribution-normalization condition
    summed over states. The cross-state spread of lambda1 is returned as a
    convergence diagnostic.
    """
    p = fading.p
    h2 = fading.h**2
    one_m_rho = 1.0 - params.rho
    w = _allocation_water_level(params, fading, alloc)
    if not math.isfinite(w) or w <= 0.0:
        return MultiplierSet(0.0, math.inf, 0.0), {"lambda1_spread_rel": np.nan}
    lam2 = 1.0 / (w * one_m_rho)
    s = params.sigma2_sq + params.alpha2 * alloc.x2**2
    overlap = (alloc.p_ehu > 0.0) & (alloc.x2 > 0.0) & (h2 > 0.0)
    if np.any(overlap):
        lam1_states = (
            lam2 * params.eta * h2[overlap]
            - params.alpha2 * alloc.p_ehu[overlap] / (s[overlap] * w)
        )
        lam1 = float(np.mean(lam1_states))
        denom = max(abs(lam1), 1e-300)
        spread = float(np.ptp(lam1_states)) / denom
    else:
        # Pure harvest states pin lambda1 through the linear stationarity of
        # the transmit power instead.
        harvest_only = (alloc.x2 > 0.0) & (h2 > 0.0)
        if np.any(harvest_only):
            lam1 = float(np.max(lam2 * params.eta * h2[harvest_only]))
        else:
            lam1 = 0.0
        spread = np.nan
    lam1 = max(lam1, 0.0)
    q = alloc.x2**2
    cap_bits = float(_rate_bits(h2, alloc.p_ehu, s) @ p)
    mu1 = (
        cap_bits
        - lam1 * float((q * p).sum())
        - lam2
        * (
            one_m_rho * float((alloc.p_ehu * p).sum())
            - params.eta * float((h2 * q * p).sum())
        )
    )
    return MultiplierSet(lam1, lam2, mu1), {"lambda1_spread_rel": spread}


def x0_of_h(mult: MultiplierSet, h: float, params: LinkParams) -> float:
    """Fading-adapted transmit amplitude from the Lambert-W closed form.

    Evaluates, for one fading gain and a full multiplier set, the
    transcendental stationarity solution for the transmitter's amplitude:
    the positive root picked by the principal-branch Lambert W, clamped to
    zero when the bracket goes nonpositive. At consistent multiplier sets the
    Lambert argument is nonnegative, where the principal branch carries the
    unique root.

    Raises ValueError when alpha2 = 0 (the form divides by it), when
    lambda2 <= 0, or when the Lambert argument falls below -1/e, which
    signals an invalid multiplier set.
    """
    if params.alpha2 <= 0.0:
        raise ValueError("x0_of_h requires alpha2 > 0")
    lam1, lam2, mu1 = mult.lambda1, mult.lambda2, mult.mu1
    if not (lam2 > 0.0) or not math.isfinite(lam2):
        raise ValueError("x0_of_h requires finite lambda2 > 0")
    one_m_rho = 1.0 - params.rho
    h2 = h * h
    d1 = lam1 - lam2 * params.eta * h2
    denom = d1 * h2 - lam2 * one_m_rho * params.alpha2
    if h2 == 0.0 or denom == 0.0:
        return 0.0
    # Lambert argument pref * exp(-expo): the product is moderate at valid
    # multiplier sets even when the factors are not, so evaluate through logs.
    expo = 2.0 * _LN2 * (1.0 - d1 * params.sigma2_sq / params.alpha2 + mu1)
    pref = 2.0 * _LN2 * (d1 * h2 / (lam2 * one_m_rho * params.alpha2) - 1.0)
    if pref == 0.0:
        wz = 0.0
    elif pref > 0.0:
        wz = lambert_w0_of_log(math.log(pref) - expo)
    else:
        ln_abs = math.log(-pref) - expo
        if ln_abs > 0.0:
            # |z| > 1 is far below the branch point -1/e.
            raise ValueError("x0_of_h: Lambert argument below -1/e")
        wz = lambert_w0(-math.exp(ln_abs))
    bracket = h2 * wz / (2.0 * _LN2 * denom) - params.sigma2_sq / params.alpha2
    if bracket <= 0.0:
        return 0.0
    return math.sqrt(bracket)


def closed_form_x2_errors(
    params: LinkParams, fading: FadingDistribution, alloc: PowerAllocation
) -> np.ndarray:
    """Relative mismatch of the Lambert-W closed form against a primal solution.

    For every state carrying both transmit and codeword power, builds the
    multiplier set anchored at the allocation's water level -- the budget
    multiplier placed in the regime where the Lambert argument is nonnegative
    and the root unique, the normalization multiplier from the per-state
    stationarity level -- and compares ``x0_of_h`` with the primal amplitude.

    Returns an empty array when no state qualifies (e.g. alpha2 = 0, or the
    optimum never overlaps transmit and codeword power on a state).
    """
    if params.alpha2 <= 0.0:
        return np.array([])
    h2 = fading.h**2
    one_m_rho = 1.0 - params.rho
    s = params.sigma2_sq + params.alpha2 * alloc.x2**2
    active = (alloc.p_ehu > 0.0) & (alloc.x2 > 0.0) & (h2 > 0.0)
    if not np.any(active):
        return np.array([])
    w = _allocation_water_level(params, fading, alloc)
    lam2 = 1.0 / (w * one_m_rho)
    thresholds = (
        lam2 * params.eta * h2[active]
        + lam2 * one_m_rho * params.alpha2 / h2[active]
    )
    lam1 = 1.25 * float(np.max(thresholds))
    errors = []
    for i in np.flatnonzero(active):
        q_i = alloc.x2[i] ** 2
        rate_i = 0.5 * math.log2(1.0 + h2[i] * alloc.p_ehu[i] / s[i])
        mu1_i = (
            rate_i
            - lam1 * q_i
            - lam2 * (one_m_rho * alloc.p_ehu[i] - params.eta * h2[i] * q_i)
        )
        x0 = x0_of_h(MultiplierSet(lam1, lam2, mu1_i), float(fading.h[i]), params)
        errors.append(abs(x0 - alloc.x2[i]) / alloc.x2[i])
    return np.asarray(errors)


# ---------------------------------------------------------------------------
# Full solve: compare both regimes
# ---------------------------------------------------------------------------


def _allocation_residuals(
    params: LinkParams, fading: FadingDistribution, alloc: PowerAllocation
) -> dict:
    p = fading.p
    h2 = fading.h**2
    one_m_rho = 1.0 - params.rho
    q = alloc.x2**2
    spent = float((q * p).sum())
    harvest = params.eta * float((h2 * q * p).sum())
    consumed = one_m_rho * float((alloc.p_ehu * p).sum()) + params.p_proc
    c2_rel = (harvest - consumed) / max(abs(harvest), 1e-300)
    s = params.sigma2_sq + params.alpha2 * q
    w = _allocation_water_level(params, fading, alloc)
    stat = np.full(fading.n_states, np.nan)
    if math.isfinite(w):
        lam2_1mr = 1.0 / w
        act = alloc.p_ehu > 0.0
        lhs = h2[act] / (s[act] + h2[act] * alloc.p_ehu[act])
        stat[act] = np.abs(lhs - lam2_1mr) / lam2_1mr
    return {
        "c1_slack": params.p_et - spent,
        "c2_residual_rel": c2_rel,
        "stationarity_rel": stat,
    }


def solve(
    params: LinkParams,
    fading: FadingDistribution,
    *,
    init_x2=None,
) -> CapacityResult:
    """Capacity of the link: solve both transmitter regimes, keep the better.

    Ties within numerical tolerance go to the constant-amplitude regime (the
    simpler transmitter). When the average harvested power cannot cover the
    processing cost, the result is the zero allocation with zero capacity.
    Raises NonConvergenceError if the adaptive regime's search stalls without
    converging from every start.
    """
    harvest = params.eta * params.p_et * fading.mean_square
    if harvest <= params.p_proc:
        return _zero_result(fading)
    lam2_c1, alloc_c1 = waterfill_case1(params, fading)
    cap_c1 = capacity_case1(params, fading, alloc_c1)
    balance_rel = _case1_balance_residual(params, fading, alloc_c1)
    alloc_c2, cap_c2, _, _ = _solve_case2_full(params, fading, init_x2=init_x2)

    tie_tol = 1e-7 * max(1.0, cap_c1)
    if cap_c2 > cap_c1 + tie_tol:
        case = "Case2"
        alloc = alloc_c2
        capacity = cap_c2
    else:
        case = "Case1"
        alloc = alloc_c1
        capacity = cap_c1

    mult, mdiag = recover_multipliers(params, fading, alloc)
    res = _allocation_residuals(params, fading, alloc)
    res["balance_residual_rel"] = balance_rel
    res["case1_capacity"] = cap_c1
    res["case2_capacity"] = cap_c2
    res["lambda1_spread_rel"] = mdiag.get("lambda1_spread_rel", np.nan)

    # Constant-amplitude optimality condition, reported as a diagnostic under
    # the recovered multipliers (its free multipliers make it unusable as a
    # standalone case test).
    p = fading.p
    h2 = fading.h**2
    one_m_rho = 1.0 - params.rho
    lhs = cap_c1
    rhs = (
        mult.lambda1 * params.p_et
        + mult.mu1
        + mult.lambda2
        * (
            one_m_rho * float((alloc_c1.p_ehu * p).sum())
            - params.eta * params.p_et * float((h2 * p).sum())
        )
    )
    res["case1_condition_lhs"] = lhs
    res["case1_condition_rhs"] = rhs

    if case == "Case2":
        errs = closed_form_x2_errors(params, fading, alloc)
        res["closed_form_x2_max_rel_err"] = (
            float(np.max(errs)) if errs.size else np.nan
        )
    else:
        res["closed_form_x2_max_rel_err"] = np.nan
    return CapacityResult(case, capacity, alloc, mult, res)


def _case1_balance_residual(
    params: LinkParams, fading: FadingDistribution, alloc: PowerAllocation
) -> float:
    harvest = params.eta * params.p_et * fading.mean_square
    if harvest <= params.p_proc:
        return np.nan
    consumed = (1.0 - params.rho) * float(
        (alloc.p_ehu * fading.p).sum()
    ) + params.p_proc
    return abs(consumed - harvest) / harvest


# ---------------------------------------------------------------------------
# Closed forms: no fading, Rayleigh fading
# ---------------------------------------------------------------------------


def capacity_no_fading(params: LinkParams, h: float) -> float:
    """Capacity of the unfaded link at gain h, bits per channel use.

    The codeword power is the full harvested budget
    ``[(eta*p_et*h^2 - p_proc)/(1-rho)]^+``; at h = 1 and zero processing
    cost this is the classical recycling-boosted budget ``eta*p_et/(1-rho)``.
    """
    if h < 0.0:
        raise ValueError(f"gain must be >= 0, got {h}")
    h2 = h * h
    p_ehu = max((params.eta * params.p_et * h2 - params.p_proc), 0.0) / (
        1.0 - params.rho
    )
    if p_ehu == 0.0 or h2 == 0.0:
        return 0.0
    s = params.sigma2_sq + params.p_et * params.alpha2
    if s == 0.0:
        return math.inf
    return 0.5 * math.log2(1.0 + h2 * p_ehu / s)


def rayleigh_capacity_closed_form(
    params: LinkParams, omega: float
) -> tuple[float, float]:
    """Constant-amplitude capacity under continuous Rayleigh fading.

    With ``s = sigma2_sq + p_et*alpha2``, ``lt = lambda2*(1-rho)`` and
    ``E[H^2] = omega`` (squared gain exponential with mean omega), lambda2
    solves the continuous energy balance

        (1-rho) * [exp(-lt*s/omega)/lt - (s/omega)*E1(lt*s/omega)] + p_proc
            = eta * p_et * omega

    and the capacity is ``E1(lt*s/omega) / (2 ln 2)``. Returns
    ``(lambda2, capacity_bits)``.

    Raises ValueError when the harvested power cannot cover the processing
    cost.
    """
    from .specfun import exp_e1

    if omega <= 0.0:
        raise ValueError(f"omega must be > 0, got {omega}")
    target = params.eta * params.p_et * omega - params.p_proc
    if target <= 0.0:
        raise ValueError(
            "infeasible: average harvested power does not cover the "
            "processing cost"
        )
    one_m_rho = 1.0 - params.rho
    s = params.sigma2_sq + params.p_et * params.alpha2
    if s == 0.0:
        lt = one_m_rho / target
        return lt / one_m_rho, math.inf

    def mean_power(lt: float) -> float:
        x = lt * s / omega
        if x > 700.0:
            return 0.0
        return math.exp(-x) / lt - (s / omega) * exp_e1(x)

    def surplus(lt: float) -> float:
        return one_m_rho * mean_power(lt) - target

    lo = 1e-280
    hi = 1.0
    for _ in range(4000):
        if surplus(hi) < 0.0:
            break
        hi *= 4.0
    while surplus(lo) <= 0.0 and lo > 1e-320:
        lo *= 1e-6
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if surplus(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    lt = 0.5 * (lo + hi)
    capacity = exp_e1(lt * s / omega) / (2.0 * _LN2)
    return lt / one_m_rho, capacity


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def _batch_value(
    params: LinkParams,
    p: np.ndarray,
    h2: np.ndarray,
    q_batch: np.ndarray,
) -> np.ndarray:
    """Objective for a batch of transmit-power vectors (rows), exactly."""
    one_m_rho = 1.0 - params.rho
    harvest = params.eta * (q_batch * (p * h2)).sum(axis=1)
    budget = (harvest - params.p_proc) / one_m_rho
    s = params.sigma2_sq + params.alpha2 * q_batch
    big = 1e290
    noise = np.where(h2 > 0.0, s / np.maximum(h2, 1e-300), big)
    noise = np.minimum(noise, big)
    order = np.argsort(noise, axis=1)
    ns = np.take_along_axis(noise, order, axis=1)
    ws = np.take_along_axis(np.broadcast_to(p, noise.shape), order, axis=1)
    cw = np.cumsum(ws, axis=1)
    cwn = np.cumsum(ws * ns, axis=1)
    w_cand = (np.maximum(budget, 0.0)[:, None] + cwn) / cw
    nxt = np.concatenate([ns[:, 1:], np.full((ns.shape[0], 1), np.inf)], axis=1)
    m = np.argmax(w_cand <= nxt, axis=1)
    w = np.take_along_axis(w_cand, m[:, None], axis=1)[:, 0]
    ratio = np.maximum(w[:, None] / noise, 1.0)
    out = _C_BITS * (p * np.log(ratio)).sum(axis=1)
    out[budget <= 0.0] = 0.0
    return out


def brute_force_oracle(
    params: LinkParams,
    fading: FadingDistribution,
    *,
    n_grid: int = 25,
    refinements: int = 2,
    max_sweeps: int = 60,
) -> OracleResult:
    """Independent grid search over per-state transmit amplitudes.

    Coordinate descent over an amplitude grid per state (with an exhaustive
    product-grid seed for up to three states), exact inner water-filling for
    the codeword powers, and two grid refinements around the incumbent. Only
    meant for small instances; refuses more than 8 states.
    """
    n = fading.n_states
    if n > 8:
        raise ValueError(f"oracle is limited to 8 states, got {n}")
    p = fading.p
    h2 = fading.h**2
    p_et = params.p_et
    if params.eta * p_et * fading.mean_square <= params.p_proc:
        return OracleResult(0.0, 0.0, _zero_allocation(n))

    def value_of(q: np.ndarray) -> float:
        return float(_batch_value(params, p, h2, q[None, :])[0])

    def coordinate_descent(q: np.ndarray, spans: np.ndarray) -> tuple:
        q = q.copy()
        best = value_of(q)
        for _ in range(max_sweeps):
            improved = False
            for i in range(n):
                if h2[i] <= 0.0:
                    continue
                cap_i = (p_et - float(np.delete(p, i) @ np.delete(q, i))) / p[i]
                if cap_i <= 0.0:
                    continue
                lo = max(0.0, q[i] - spans[i])
                hi = min(cap_i, q[i] + spans[i])
                amp = np.linspace(math.sqrt(lo), math.sqrt(hi), n_grid)
                cand = np.tile(q, (n_grid, 1))
                cand[:, i] = amp**2
                vals = _batch_value(params, p, h2, cand)
                k = int(np.argmax(vals))
                if vals[k] > best + 1e-15:
                    best = float(vals[k])
                    q = cand[k]
                    improved = True
            if not improved:
                break
        return q, best

    cap_full = p_et / float(np.min(p))
    starts = [
        np.where(h2 > 0.0, p_et, 0.0),
        np.zeros(n),
    ]
    ms = float((p * h2).sum())
    starts.append(np.where(h2 > 0.0, p_et * h2 / ms, 0.0))
    # Full-budget concentration on every live state: coordinate moves cannot
    # migrate the whole budget between states once one of them holds it all.
    for i in range(n):
        if h2[i] <= 0.0:
            continue
        q = np.zeros(n)
        q[i] = p_et / p[i]
        starts.append(q)
    if n <= 3:
        # Exhaustive product grid as an extra seed.
        axes = []
        for i in range(n):
            hi = p_et / p[i]
            axes.append(np.linspace(0.0, math.sqrt(hi), 9) ** 2)
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        ok = mesh @ p <= p_et * (1.0 + 1e-12)
        mesh = mesh[ok]
        vals = _batch_value(params, p, h2, mesh)
        starts.append(mesh[int(np.argmax(vals))])

    best_q = None
    best_v = -math.inf
    spans0 = np.full(n, cap_full)
    for q0 in starts:
        q0 = np.minimum(q0, cap_full)
        if float(p @ q0) > p_et:
            q0 = q0 * (p_et / float(p @ q0))
        q_cd, v_cd = coordinate_descent(q0, spans0)
        if v_cd > best_v:
            best_v, best_q = v_cd, q_cd

    last_gain = 0.0
    spans = spans0 / (n_grid - 1)
    for _ in range(refinements):
        spans = spans * 4.0 / (n_grid - 1)
        q_cd, v_cd = coordinate_descent(best_q, spans)
        last_gain = max(v_cd - best_v, 0.0)
        if v_cd > best_v:
            best_v, best_q = v_cd, q_cd

    # Recover the allocation at the incumbent.
    one_m_rho = 1.0 - params.rho
    harvest = params.eta * float((p * h2) @ best_q)
    budget = (harvest - params.p_proc) / one_m_rho
    s = params.sigma2_sq + params.alpha2 * best_q
    noise = _noise_floor(h2, s)
    w = _water_level(noise, p, budget) if budget > 0.0 else math.inf
    p_ehu = np.maximum(w - noise, 0.0) if math.isfinite(w) else np.zeros(n)
    alloc = PowerAllocation(np.sqrt(best_q), p_ehu)
    hi_bracket = best_v + 2.0 * last_gain + 1e-9
    return OracleResult(best_v, hi_bracket, alloc)
