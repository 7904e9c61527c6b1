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
  sigma2_sq/h^2, which is ascending in storage order reversed. Flash k is
  scored exactly on that same floor with state k's entry moved up to its
  flash floor (sigma2_sq + alpha2*q_k)/h_k^2, one ``searchsorted`` instead of
  a sort. B_k and so the bound fall with the gain, so the funded candidates
  (B_k > 0) are scored strongest first, and the search stops at the first
  bound that cannot beat the best positive value found. The Lambert-W closed
  form ``x0_of_h`` gives the per-state stationary point of that Lagrangian,
  which is a minimum in q, so ``solve`` does not evaluate it.

A regime that funds no codeword scores 0, and ``solve`` reports the zero
allocation (case "Zero") only when both regimes score 0. The processing cost
is charged in every fading state, so that happens exactly when even the
strongest state's flash harvest eta*p_et*max h^2 cannot cover p_proc.

Both regimes, the flash bound and the half-duplex benchmark share one
water-level law, ``_water_level``, over a floor sorted ascending.

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
    "waterfill_case1",
    "capacity_case1",
    "x0_of_h",
    "solve",
    "capacity_no_fading",
    "rayleigh_capacity_closed_form",
    "recover_multipliers",
    "closed_form_x2_errors",
]

_LN2 = math.log(2.0)
# 1/(2 ln 2): converts (1/2) log2 rates to a natural-log slope.
_C_BITS = 0.5 / _LN2


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
        if x2.min(initial=0.0) < 0.0 or pe.min(initial=0.0) < 0.0:
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
    """Per-state rate (1/2) log2(1 + h^2 P / s), bits per channel use.

    ``s`` is one scalar or one value per state. A state with h^2 P = 0 rates
    0, a dead state included whatever its s; s = 0 with h^2 P > 0 rates inf.
    """
    out = np.zeros(h2.shape)
    hp = h2 * p_ehu
    act = np.flatnonzero(hp > 0.0)
    if np.ndim(s):
        s = s[act]
    with np.errstate(divide="ignore"):
        out[act] = 0.5 * np.log2(1.0 + hp[act] / s)
    return out


def _noise_floor(h2: np.ndarray, s) -> np.ndarray:
    """Water-filling noise floor s/h^2, infinite on dead states.

    ``s`` broadcasts against ``h2``: one scalar, one value per state, or a
    batch of rows.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(h2 > 0.0, s / h2, np.inf)


def _water_level(noise: np.ndarray, weights: np.ndarray, budget) -> np.ndarray:
    """Exact water level L solving sum weights*[L - noise]^+ = budget.

    L is the smallest prefix candidate (budget + sum_{i<=m} w_i n_i) /
    sum_{i<=m} w_i. Every candidate is >= L, because
    sum_{i<=m} w_i (L - n_i) <= sum_i w_i [L - n_i]^+ = budget, and on a floor
    sorted ascending the active states are a prefix, whose candidate is L.

    Batched over leading axes: ``noise`` must be sorted ascending along the
    last axis, with dead states carrying inf so that they sort last;
    ``weights`` (positive) is aligned with it and ``budget`` has the leading
    shape. A row whose first noise entry is inf has no usable state and
    gets inf.
    """
    cand = np.asarray(budget)[..., None] + (weights * noise).cumsum(axis=-1)
    return (cand / weights.cumsum(axis=-1)).min(axis=-1)


def _sorted_fill(noise: np.ndarray, p: np.ndarray, budget: float) -> tuple[float, float]:
    """Water level and value, bits per use, of ``budget`` water-filled over the
    ascending floor ``noise`` (aligned with ``p``). A noiseless floor is worth
    inf."""
    w = float(_water_level(noise, p, budget))
    m = np.searchsorted(noise, w)  # the states below the level, a prefix
    with np.errstate(divide="ignore"):
        return w, _C_BITS * float(p[:m] @ np.log(w / noise[:m]))


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
    # reversing it replaces an argsort, which made solve 10-12% slower at 2000
    # and 8192 states on a 2-CPU host.
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


def _best_flash(
    params: LinkParams, fading: FadingDistribution
) -> tuple[PowerAllocation, float]:
    """Best single-state flash: all ET power on one state, q_k = p_et/p_k.

    Returns ``(allocation, value_bits)``, the zero allocation and 0 when no
    flash is funded. Funded candidates are scored exactly in descending-gain
    order until the next one's bound cannot beat a positive best value (see
    the module docstring).
    """
    p = fading.p
    h2 = fading.h**2
    n = p.size
    # Gains are stored ascending, so this floor is ascending as _water_level
    # needs it; state k sits at place n-1-k.
    free = _noise_floor(h2[::-1], params.sigma2_sq)
    p_desc = p[::-1]
    q_flash = params.p_et / p
    budget = (params.eta * (q_flash * (p * h2)) - params.p_proc) / (1.0 - params.rho)
    best, best_value = None, 0.0
    for k in np.flatnonzero(budget > 0.0)[::-1]:
        # Only a scored flash prunes: a funded flash whose bound rounds to 0
        # is still scored, so no bound decides that the link is Zero.
        if best_value > 0.0 and _sorted_fill(free, p_desc, budget[k])[1] <= best_value:
            break
        # Move state k's entry up to its flash floor, ahead of equal entries
        # (it stays put when the interference rounds away).
        floor_k = (params.sigma2_sq + params.alpha2 * q_flash[k]) / h2[k]
        r = n - 1 - k
        j = max(int(np.searchsorted(free, floor_k)), r + 1)
        noise = np.concatenate((free[:r], free[r + 1 : j], (floor_k,), free[j:]))
        weights = np.concatenate((p_desc[:r], p_desc[r + 1 : j], (p[k],), p_desc[j:]))
        w, value = _sorted_fill(noise, weights, budget[k])
        if value > best_value:
            best, best_value = (k, w, floor_k), value
    if best is None:
        return _zero_allocation(n), 0.0
    k, w, floor_k = best
    x2 = np.zeros(n)
    x2[k] = math.sqrt(q_flash[k])
    p_ehu = np.maximum(w - free[::-1], 0.0)
    p_ehu[k] = max(w - floor_k, 0.0)
    return PowerAllocation(x2, p_ehu), best_value


# ---------------------------------------------------------------------------
# Multiplier recovery and the Lambert-W closed form
# ---------------------------------------------------------------------------


def _active_states(
    params: LinkParams, fading: FadingDistribution, alloc: PowerAllocation
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The states that carry codeword power, and there p_ehu, h^2 and the
    floor numerator sigma2_sq + alpha2*x2^2."""
    act = np.flatnonzero(alloc.p_ehu > 0.0)
    s = params.sigma2_sq + params.alpha2 * alloc.x2[act] ** 2
    return act, alloc.p_ehu[act], fading.h[act] ** 2, s


def _median(x: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-D array.

    A full sort: the levels it is given agree to a few ulps, and on so few
    distinct values ``np.partition`` took 8 times as long at 8192 states.
    """
    x = np.sort(x)
    k = x.size // 2
    return float(x[k] if x.size % 2 else (x[k - 1] + x[k]) / 2.0)


def _allocation_water_level(pe: np.ndarray, h2: np.ndarray, s: np.ndarray) -> float:
    """Median water level p_ehu + s/h^2 over the active states, inf if none."""
    return _median(pe + s / h2) if pe.size else math.inf


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
    one_m_rho = 1.0 - params.rho
    act, pe, h2, s = _active_states(params, fading, alloc)
    w = _allocation_water_level(pe, h2, s)
    if not math.isfinite(w) or w <= 0.0:
        return MultiplierSet(0.0, math.inf, 0.0)
    lam2 = 1.0 / (w * one_m_rho)
    overlap = np.flatnonzero((alloc.x2[act] > 0.0) & (h2 > 0.0))
    if overlap.size:
        loss = 0.0
        if params.alpha2 > 0.0:
            # s >= alpha2*x2^2 > 0 on these states.
            loss = params.alpha2 * pe[overlap] / (s[overlap] * w)
        lam1 = float((lam2 * params.eta * h2[overlap] - loss).sum()) / overlap.size
    else:
        # Pure harvest states pin lambda1 through the linear stationarity of
        # the transmit power instead; gains are stored ascending.
        h_tx = fading.h[alloc.x2 > 0.0]
        lam1 = lam2 * params.eta * float(h_tx[-1] ** 2) if h_tx.size else 0.0
    lam1 = max(lam1, 0.0)
    q = alloc.x2**2
    with np.errstate(divide="ignore"):
        cap_bits = 0.5 * float(np.log2(1.0 + h2 * pe / s) @ p[act])
    mu1 = (
        cap_bits
        - lam1 * float(q @ p)
        - lam2 * (one_m_rho * float(pe @ p[act]) - params.eta * float((fading.h**2 * q) @ p))
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
    w = _allocation_water_level(*_active_states(params, fading, alloc)[1:])
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
    one_m_rho = 1.0 - params.rho
    q = alloc.x2**2
    spent = float(q @ p)
    harvest = params.eta * float((fading.h**2 * q) @ p)
    act, pe, h2, s = _active_states(params, fading, alloc)
    consumed = one_m_rho * float(pe @ p[act]) + params.p_proc
    c2_rel = (harvest - consumed) / max(abs(harvest), 1e-300)
    # With no active state lambda2 is inf and nothing is indexed.
    lam2_1mr = mult.lambda2 * one_m_rho
    stat = np.full(fading.n_states, np.nan)
    stat[act] = np.abs(h2 / (s + h2 * pe) - lam2_1mr) / lam2_1mr
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
