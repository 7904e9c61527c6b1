"""Ergodic capacity of the full-duplex wirelessly powered link.

The harvesting user funds a Gaussian codeword from energy it harvests off the
energy transmitter's signal (plus recycled self-interference), subject to a
long-run energy balance and to the transmitter's average power budget. Two
transmitter regimes are solved and compared:

* Case 1: the energy transmitter sends the constant amplitude sqrt(p_et) in
  every fading state, and the harvesting user water-fills its codeword power
  across fading states over the residual-interference noise floor.
* Case 2: the transmitter adapts its amplitude per fading state, and the
  optimum is a single-state flash: all ET power on one state k, with
  q_k = x2_k^2 = p_et/p_k and zero elsewhere. Optimizing the codeword power
  out of the per-state Lagrangian leaves a function convex in q (second
  derivative alpha2^2/(2 ln2 s^2) > 0 while the state carries codeword
  power, linear after that), so no optimum has an interior q. Flash k funds
  the budget B_k = (eta*p_et*h_k^2 - p_proc)/(1-rho); its value is bounded
  above by water-filling B_k over the self-interference-free noise floor
  sigma2_sq/h^2 with the same ``_water_level`` kernel. B_k and so the bound
  fall with the gain, so the funded candidates (B_k > 0) are scored exactly
  (inner water-filling) strongest first, and the search stops at the first
  bound that cannot beat the best positive value found. The Lambert-W closed form
  ``x0_of_h`` gives the per-state stationary point of that Lagrangian, which
  is a minimum in q, so ``solve`` does not evaluate it.

A regime that funds no codeword scores 0, and ``solve`` reports the zero
allocation (case "Zero") only when both regimes score 0. The processing cost
is charged in every fading state, so that happens exactly when even the
strongest state's flash harvest eta*p_et*max h^2 cannot cover p_proc.

Every transmit-power vector q is scored by one exact inner water-filling of
the codeword power, ``_codeword_waterfill``. ``brute_force_oracle`` searches
gridded per-state amplitudes with it (exhaustive seed for tiny instances,
cyclic coordinate descent otherwise, two grid refinements around the
incumbent). It shares that scoring with ``solve``, so it checks the search
over q, not the inner water-filling.

Capacities are in bits per channel use throughout.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .fading import FadingDistribution
# perfbench's traced run wraps lambert_w0, lambert_w0_of_log, x0_of_h,
# closed_form_x2_errors, recover_multipliers and capacity_case1 through this
# module's bindings, so each stays bound here even where solve never calls it.
from .specfun import lambert_w0, lambert_w0_of_log
from .units import LinkParams

__all__ = [
    "PowerAllocation",
    "MultiplierSet",
    "CapacityResult",
    "OracleResult",
    "waterfill_case1",
    "capacity_case1",
    "x0_of_h",
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

# Brute-force oracle: amplitude grid points per coordinate move, grid
# refinements around the incumbent, and coordinate sweeps per descent.
_ORACLE_GRID = 25
_ORACLE_REFINEMENTS = 2
_ORACLE_SWEEPS = 60


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

    ``residuals`` keys, the same on every case:

    * ``c1_slack`` -- unused transmit-power budget, watts (>= 0 up to tol).
    * ``c2_residual_rel`` -- relative energy-balance residual (0 when tight).
    * ``stationarity_rel`` -- per-state relative water-filling stationarity
      residual (NaN on states with no codeword power).
    * ``case1_capacity`` -- the constant-amplitude objective, bits/use.
    * ``case2_capacity`` -- the best flash's objective, bits/use.

    perfbench's ``check_solve`` reads ``c1_slack``, ``c2_residual_rel`` and
    ``case1_capacity``.
    """

    case: str
    capacity: float
    allocation: PowerAllocation
    multipliers: MultiplierSet
    residuals: dict = field(default_factory=dict)


@dataclass(frozen=True)
class OracleResult:
    """Best objective found by the brute-force search.

    ``capacity_low`` is the exactly-evaluated objective of the best allocation
    found (a true lower bound).
    """

    capacity_low: float
    allocation: PowerAllocation


def _zero_allocation(n: int) -> PowerAllocation:
    return PowerAllocation(np.zeros(n), np.zeros(n))


def _zero_result(params: LinkParams, fading: FadingDistribution) -> CapacityResult:
    n = fading.n_states
    return CapacityResult(
        case="Zero",
        capacity=0.0,
        allocation=_zero_allocation(n),
        multipliers=MultiplierSet(0.0, math.inf, 0.0),
        residuals={
            "c1_slack": params.p_et,  # the zero allocation spends nothing
            "c2_residual_rel": 0.0,
            "stationarity_rel": np.full(n, np.nan),
            "case1_capacity": 0.0,
            "case2_capacity": 0.0,
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
    """Water-filling noise floor s/h^2, infinite on dead states.

    ``s`` broadcasts against ``h2``: one scalar, one value per state, or a
    batch of rows.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(h2 > 0.0, s / h2, np.inf)


def _water_level(noise: np.ndarray, weights: np.ndarray, budget) -> np.ndarray:
    """Exact water level w solving sum weights*[w - noise]^+ = budget.

    Batched over leading axes: ``noise`` must be sorted ascending along the
    last axis, with dead states carrying inf so that they sort last;
    ``weights`` (positive) is aligned with it and ``budget`` has the leading
    shape. A row whose first noise entry is inf has no usable state and
    gets inf.
    """
    cw = np.cumsum(weights, axis=-1)
    cwn = np.cumsum(weights * noise, axis=-1)
    w_cand = (np.expand_dims(budget, -1) + cwn) / cw
    nxt = np.concatenate((noise[..., 1:], np.full_like(noise[..., :1], np.inf)), axis=-1)
    m = np.argmax(w_cand <= nxt, axis=-1)
    return np.take_along_axis(w_cand, m[..., None], axis=-1)[..., 0]


def _codeword_waterfill(
    params: LinkParams, p: np.ndarray, h2: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Objective after exact inner water-filling of the codeword power.

    ``q`` holds per-state transmit powers x2^2 along its last axis and may be
    batched over leading axes. The codeword power spends the budget
    (eta*sum p h^2 q - p_proc)/(1-rho) over the noise floor
    (sigma2_sq + alpha2*q)/h^2 exactly, so the energy balance is tight by
    construction. Returns ``(value_bits, p_ehu)``: the value has the leading
    shape of ``q`` and the codeword power its full shape. A row whose budget
    is <= 0 gets value 0 and zero codeword power. A noiseless active state
    (sigma2_sq = 0, q = 0) is worth inf.
    """
    harvest = params.eta * (q * (p * h2)).sum(axis=-1)
    budget = (harvest - params.p_proc) / (1.0 - params.rho)
    noise = _noise_floor(h2, params.sigma2_sq + params.alpha2 * q)
    order = np.argsort(noise, axis=-1)
    level = _water_level(np.take_along_axis(noise, order, axis=-1), p[order], budget)
    w = np.expand_dims(level, -1)
    funded = budget > 0.0
    # Unfunded rows are masked: their level may sit below the lowest floor,
    # and on dead rows (every floor inf) it is inf - inf.
    with np.errstate(divide="ignore", invalid="ignore"):
        p_ehu = np.where(funded[..., None], np.maximum(w - noise, 0.0), 0.0)
        value = _C_BITS * (p * np.log(np.maximum(w / noise, 1.0))).sum(axis=-1)
    return np.where(funded, value, 0.0), p_ehu


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

    If the budget is <= 0 (the average harvest eta*p_et*E[h^2] cannot cover
    the processing cost), the zero allocation is returned with
    ``lambda2 = inf``.
    """
    one_m_rho = 1.0 - params.rho
    budget = (params.eta * params.p_et * fading.mean_square - params.p_proc) / one_m_rho
    if budget <= 0.0:
        return math.inf, _zero_allocation(fading.n_states)
    s = params.sigma2_sq + params.p_et * params.alpha2
    noise = _noise_floor(fading.h**2, s)
    # Gains are stored ascending, so this noise floor is sorted descending and
    # reversing it replaces the argsort of _codeword_waterfill, which made
    # solve 10-12% slower at 2000 and 8192 states on a 2-CPU host.
    w = float(_water_level(noise[::-1], fading.p[::-1], budget))
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


def _si_free_value(noise: np.ndarray, p: np.ndarray, budget: float) -> float:
    """Upper bound on a flash's value: ``budget`` water-filled over the
    self-interference-free floor ``noise`` (ascending, aligned with ``p``).
    A noiseless link is worth inf."""
    w = _water_level(noise, p, budget)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _C_BITS * float((p * np.log(np.maximum(w / noise, 1.0))).sum())


def _best_flash(
    params: LinkParams, fading: FadingDistribution
) -> tuple[PowerAllocation, float]:
    """Best single-state flash: all ET power on one state, q_k = p_et/p_k.

    Returns ``(allocation, value_bits)``, the zero allocation and 0 when no
    flash is funded. Funded candidates are scored exactly in descending-gain
    order until the next one's bound cannot beat a positive best value (see
    the module docstring).
    """
    n = fading.n_states
    p = fading.p
    h2 = fading.h**2
    # Gains are stored ascending, so this floor is ascending as _water_level
    # needs it.
    free = _noise_floor(h2[::-1], params.sigma2_sq)
    p_desc = p[::-1]
    q_flash = params.p_et / p
    # Rounded as _codeword_waterfill rounds a one-state row, so a flash is
    # skipped here exactly when its scoring would fund nothing.
    budget = (params.eta * (q_flash * (p * h2)) - params.p_proc) / (1.0 - params.rho)
    best, best_value = _zero_allocation(n), 0.0
    for k in np.flatnonzero(budget > 0.0)[::-1]:
        # Only a scored flash prunes: a funded flash whose bound rounds to 0
        # is still scored, so no bound decides that the link is Zero.
        if best_value > 0.0 and _si_free_value(free, p_desc, budget[k]) <= best_value:
            break
        q = np.zeros(n)
        q[k] = q_flash[k]
        value, p_ehu = _codeword_waterfill(params, p, h2, q)
        if value > best_value:
            best, best_value = PowerAllocation(np.sqrt(q), p_ehu), float(value)
    return best, best_value


# ---------------------------------------------------------------------------
# Multiplier recovery and the Lambert-W closed form
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
) -> MultiplierSet:
    """Recover (lambda1, lambda2, mu1) from an optimal primal allocation.

    lambda2 comes from the water level, lambda1 from the per-state transmit
    power stationarity averaged over states that carry both transmit and
    codeword power, and mu1 from the distribution-normalization condition
    summed over states.
    """
    p = fading.p
    h2 = fading.h**2
    one_m_rho = 1.0 - params.rho
    w = _allocation_water_level(params, fading, alloc)
    if not math.isfinite(w) or w <= 0.0:
        return MultiplierSet(0.0, math.inf, 0.0)
    lam2 = 1.0 / (w * one_m_rho)
    s = params.sigma2_sq + params.alpha2 * alloc.x2**2
    overlap = (alloc.p_ehu > 0.0) & (alloc.x2 > 0.0) & (h2 > 0.0)
    if np.any(overlap):
        loss = 0.0
        if params.alpha2 > 0.0:
            # s >= alpha2*x2^2 > 0 on these states.
            loss = params.alpha2 * alloc.p_ehu[overlap] / (s[overlap] * w)
        lam1 = float(np.mean(lam2 * params.eta * h2[overlap] - loss))
    else:
        # Pure harvest states pin lambda1 through the linear stationarity of
        # the transmit power instead.
        harvest_only = (alloc.x2 > 0.0) & (h2 > 0.0)
        if np.any(harvest_only):
            lam1 = float(np.max(lam2 * params.eta * h2[harvest_only]))
        else:
            lam1 = 0.0
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
    return MultiplierSet(lam1, lam2, mu1)


def x0_of_h(mult: MultiplierSet, h: float, params: LinkParams) -> float:
    """Per-state stationary amplitude from the Lambert-W closed form.

    Evaluates, for one fading gain and a full multiplier set, the
    transcendental stationarity solution for the transmitter's amplitude:
    the positive root picked by the principal-branch Lambert W, clamped to
    zero when the bracket goes nonpositive. At consistent multiplier sets the
    Lambert argument is nonnegative, where the principal branch carries the
    unique root. In this model the per-state Lagrangian is convex in q (see
    the module docstring), so this stationary point is a minimum in q, not
    the optimal amplitude; the optimum is a flash.

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
    Because ``mu1`` is fitted per state, the check cannot flag a wrong
    allocation; ``solve`` does not call it.

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
    params: LinkParams,
    fading: FadingDistribution,
    alloc: PowerAllocation,
    mult: MultiplierSet,
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
    # With no active state lambda2 is inf and the mask is empty.
    lam2_1mr = mult.lambda2 * one_m_rho
    stat = np.full(fading.n_states, np.nan)
    act = alloc.p_ehu > 0.0
    lhs = h2[act] / (s[act] + h2[act] * alloc.p_ehu[act])
    stat[act] = np.abs(lhs - lam2_1mr) / lam2_1mr
    return {
        "c1_slack": params.p_et - spent,
        "c2_residual_rel": c2_rel,
        "stationarity_rel": stat,
    }


def solve(params: LinkParams, fading: FadingDistribution) -> CapacityResult:
    """Capacity of the link: solve both transmitter regimes, keep the better.

    Case 1 water-fills under the constant amplitude; Case 2 is the best
    single-state flash. A regime that funds no codeword scores 0; when both
    score 0 (eta*p_et*max h^2 <= p_proc, a dead channel included) the result
    is the zero allocation with case "Zero". Ties within numerical tolerance
    go to the constant-amplitude regime (the simpler transmitter) when it
    scores above 0.
    """
    _, alloc_c1 = waterfill_case1(params, fading)
    cap_c1 = capacity_case1(params, fading, alloc_c1)
    alloc_c2, cap_c2 = _best_flash(params, fading)
    if cap_c1 == 0.0 and cap_c2 == 0.0:
        return _zero_result(params, fading)

    tie_tol = 1e-7 * max(1.0, cap_c1)
    if cap_c1 == 0.0 or cap_c2 > cap_c1 + tie_tol:
        case = "Case2"
        alloc = alloc_c2
        capacity = cap_c2
    else:
        case = "Case1"
        alloc = alloc_c1
        capacity = cap_c1

    # The multipliers are part of the result, recovered once from the winner.
    mult = recover_multipliers(params, fading, alloc)
    res = _allocation_residuals(params, fading, alloc, mult)
    res["case1_capacity"] = cap_c1
    res["case2_capacity"] = cap_c2
    return CapacityResult(case, capacity, alloc, mult, res)


# ---------------------------------------------------------------------------
# Closed forms: no fading, Rayleigh fading
# ---------------------------------------------------------------------------


def capacity_no_fading(params: LinkParams, h: float) -> float:
    """Capacity of the unfaded link at gain h, bits per channel use.

    The codeword power is the full harvested budget
    ``[(eta*p_et*h^2 - p_proc)/(1-rho)]^+``; at h = 1 and zero processing
    cost this is the classical recycling-boosted budget ``eta*p_et/(1-rho)``.
    Raises ValueError unless h is finite and >= 0.
    """
    if h < 0.0 or not math.isfinite(h):
        raise ValueError(f"gain must be finite and >= 0, got {h}")
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

    Raises ValueError unless omega is finite and > 0, and when the harvested
    power cannot cover the processing cost.
    """
    from .specfun import exp_e1

    if omega <= 0.0 or not math.isfinite(omega):
        raise ValueError(f"omega must be finite and > 0, got {omega}")
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

    # With x = lt*s/omega the balance reads g(x) = exp(-x)/x - E1(x) = r, and
    # g falls from inf to 0: bisect log x between the smallest normal double
    # and 800, past which g underflows; 64 halvings resolve x to 1e-16.
    r = target * omega / (one_m_rho * s)
    lo, hi = math.log(sys.float_info.min), math.log(800.0)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        x = math.exp(mid)
        if math.exp(-x) / x - exp_e1(x) > r:
            lo = mid
        else:
            hi = mid
    x = math.exp(0.5 * (lo + hi))
    return x * omega / (s * one_m_rho), exp_e1(x) / (2.0 * _LN2)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def brute_force_oracle(params: LinkParams, fading: FadingDistribution) -> OracleResult:
    """Grid search over per-state transmit amplitudes.

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

    def value_of(q: np.ndarray) -> float:
        return float(_codeword_waterfill(params, p, h2, q)[0])

    def coordinate_descent(q: np.ndarray, spans: np.ndarray) -> tuple:
        q = q.copy()
        best = value_of(q)
        for _ in range(_ORACLE_SWEEPS):
            improved = False
            for i in range(n):
                if h2[i] <= 0.0:
                    continue
                cap_i = (p_et - float(np.delete(p, i) @ np.delete(q, i))) / p[i]
                if cap_i <= 0.0:
                    continue
                lo = max(0.0, q[i] - spans[i])
                hi = min(cap_i, q[i] + spans[i])
                amp = np.linspace(math.sqrt(lo), math.sqrt(hi), _ORACLE_GRID)
                cand = np.tile(q, (_ORACLE_GRID, 1))
                cand[:, i] = amp**2
                vals, _ = _codeword_waterfill(params, p, h2, cand)
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
    if ms > 0.0:
        starts.append(p_et * h2 / ms)
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
        vals, _ = _codeword_waterfill(params, p, h2, mesh)
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

    spans = spans0 / (_ORACLE_GRID - 1)
    for _ in range(_ORACLE_REFINEMENTS):
        spans = spans * 4.0 / (_ORACLE_GRID - 1)
        q_cd, v_cd = coordinate_descent(best_q, spans)
        if v_cd > best_v:
            best_v, best_q = v_cd, q_cd

    _, p_ehu = _codeword_waterfill(params, p, h2, best_q)
    return OracleResult(best_v, PowerAllocation(np.sqrt(best_q), p_ehu))
