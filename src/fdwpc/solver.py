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
  above by ``_fill`` of B_k over the self-interference-free noise floor
  sigma2_sq/h^2, which is ascending in storage order reversed. Flash k is
  scored by ``_fill`` on that same floor with state k's entry moved up to its
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

Every codeword allocation (both regimes, the flash bound and the half-duplex
benchmark) is water-filled by one kernel, ``_fill``, and every rate is
c*log1p(P/n) by ``_rates``, with the convention c that the caller passes.
``_fill`` takes the water level as a height above the lowest floor, so that a
capacity keeps its relative digits at any SNR, and returns the level, the
powers of the states below it (a prefix of the floor) and their value.
``_rates`` gives 0 where P = 0 and inf where n = 0 < P; where every floor is
positive there is nothing to mask, and it rates without ``np.errstate``.

The squared gains are the distribution's ``h2``. ``_fill_by_gain`` fills
every state in gain order and returns the powers in storage order, for Case 1
and the half-duplex benchmark; a scored flash fills the states in the order of
its index map, which scatters the winner's powers back. ``solve`` takes the
Case-1 value from its fill and forms a flash budget B_k only for a flash that
is scored or bounded. Every case, Zero with the zero allocation included,
leaves ``solve`` by one path: the multipliers recovered from the winning
allocation, then its residuals.

Capacities are in bits per channel use throughout.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .fading import FadingDistribution
# perfbench's traced run wraps waterfill_case1, recover_multipliers,
# capacity_case1, closed_form_x2_errors, x0_of_h, lambert_w0 and
# lambert_w0_of_log through this module's bindings. solve calls the first two
# through them, once each; the others stay bound here though solve calls none.
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
        # NaN fails too: it compares False with everything.
        lo, hi = np.minimum.reduce, np.maximum.reduce
        if not (
            lo(x2, initial=0.0) >= 0.0 and lo(pe, initial=0.0) >= 0.0
            and hi(x2, initial=0.0) < math.inf and hi(pe, initial=0.0) < math.inf
        ):
            raise ValueError("amplitudes and powers must be finite and >= 0")
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
    * ``case1_capacity`` -- the constant-amplitude objective, bits/use, as
      the Case-1 fill rated it (``capacity_case1`` of the Case-1 allocation
      agrees to 1e-15 relative).
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


def _noise_floor(h2: np.ndarray, s) -> np.ndarray:
    """Water-filling noise floor s/h^2, infinite on dead states.

    ``s`` broadcasts against ``h2``: one scalar, one value per state, or a
    batch of rows.
    """
    out = np.full(np.broadcast(s, h2).shape, np.inf)
    return np.divide(s, h2, out=out, where=h2 > 0.0)


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
    return np.minimum.reduce(cand / weights.cumsum(axis=-1), axis=-1)


def _rates(c: float, power: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """The one rate law: c*log1p(P/n) per state with codeword power P over the
    floor n (``_noise_floor``), 0 where P = 0 and inf where n = 0 < P. ``c``
    is the caller's convention, ``_C_BITS`` for (1/2) log2; log1p keeps the
    digits of a low-SNR state, which 1 + SNR rounds away."""
    if np.minimum.reduce(noise, initial=math.inf) > 0.0:  # nothing to mask
        return c * np.log1p(power / noise)
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = c * np.log1p(power / noise)
    rates[power == 0.0] = 0.0  # 0/0 on a noiseless state
    return rates


def _fill(c: float, noise: np.ndarray, weights: np.ndarray, budget: float) -> tuple:
    """Water-fill ``budget`` over the ascending floor ``noise`` (aligned with
    ``weights``, inf on dead states, one state live at least). Returns the
    level, the powers of the states below it (a prefix: every later state
    gets 0) and their value ``_rates(c, ...) @ weights``.

    Each power is H - (n - n0), the level a height H above the lowest floor
    n0: at low SNR, level - noise would cancel most of the digits."""
    base = noise[0]
    height = noise - base
    top = float(_water_level(height, weights, budget))
    m = height.searchsorted(top)  # the states below the level
    power = top - height[:m]
    return base + top, power, float(_rates(c, power, noise[:m]) @ weights[:m])


def _fill_by_gain(c: float, fading: FadingDistribution, s: float, budget: float) -> tuple:
    """``_fill`` of ``budget`` over the floor s/h^2 of every state, strongest
    first. Returns the level, the powers ``p_ehu`` in storage order and their
    value.

    Gains are stored ascending, so the floor of the reversed gains ascends;
    this replaces an argsort, which made solve 10-12% slower at 2000 and 8192
    states on a 2-CPU host."""
    w, power, value = _fill(c, _noise_floor(fading.h2[::-1], s), fading.p[::-1], budget)
    p_ehu = np.zeros(fading.n_states)
    p_ehu[p_ehu.size - power.size :] = power[::-1]
    return w, p_ehu, value


# ---------------------------------------------------------------------------
# Case 1: constant transmit amplitude sqrt(p_et)
# ---------------------------------------------------------------------------


def waterfill_case1(
    params: LinkParams, fading: FadingDistribution
) -> tuple[float, PowerAllocation, float]:
    """Water-fill the harvesting user's power under a constant ET amplitude.

    Returns ``(lambda2, allocation, value_bits)`` where the codeword power per
    state is ``[1/(lambda2*(1-rho)) - (sigma2_sq + p_et*alpha2)/h^2]^+``, the
    water level ``1/(lambda2*(1-rho))`` spends the harvested budget exactly,
    and ``value_bits`` is the allocation's ergodic rate as the fill rated it
    (``capacity_case1`` re-rates an allocation in storage order, to 1e-15).

    If the budget is <= 0 (the average harvest eta*p_et*E[h^2] cannot cover
    the processing cost), the zero allocation is returned with
    ``lambda2 = inf`` and value 0.
    """
    n = fading.n_states
    one_m_rho = 1.0 - params.rho
    budget = (params.eta * params.p_et * fading.mean_square - params.p_proc) / one_m_rho
    if budget <= 0.0:
        return math.inf, _zero_allocation(n), 0.0
    s = params.sigma2_sq + params.p_et * params.alpha2
    w, p_ehu, value = _fill_by_gain(_C_BITS, fading, s, budget)
    x2 = np.full(n, math.sqrt(params.p_et))
    return 1.0 / (w * one_m_rho), PowerAllocation(x2, p_ehu), value


def capacity_case1(
    params: LinkParams, fading: FadingDistribution, alloc: PowerAllocation
) -> float:
    """Ergodic rate of a constant-amplitude allocation, bits per channel use."""
    noise = _noise_floor(fading.h2, params.sigma2_sq + params.p_et * params.alpha2)
    return float(_rates(_C_BITS, alloc.p_ehu, noise) @ fading.p)


# ---------------------------------------------------------------------------
# Case 2: fading-adapted transmit amplitude
# ---------------------------------------------------------------------------


def _flash(params: LinkParams, p, h2) -> tuple:
    """Flash q = p_et/p and its codeword budget
    B = (eta*q*p*h^2 - p_proc)/(1-rho), for one state or for arrays of them
    (the same float operations either way)."""
    q = params.p_et / p
    return q, (params.eta * (q * (p * h2)) - params.p_proc) / (1.0 - params.rho)


def _funded_flashes(params: LinkParams, p: np.ndarray, h2: np.ndarray):
    """Yield ``(k, q_k, B_k)`` for every flash with B_k > 0, strongest state
    first. B_k grows with the gain up to rounding, so states are taken one at
    a time from the top and, below the first unfunded one, all at once: a
    link with no funded flash forms its budgets in one array pass."""
    for k in range(p.size - 1, -1, -1):
        q, budget = _flash(params, p[k], h2[k])
        if not budget > 0.0:
            q, budget = _flash(params, p[:k], h2[:k])
            for j in np.flatnonzero(budget > 0.0)[::-1]:
                yield j, q[j], budget[j]
            return
        yield k, q, budget


def _best_flash(
    params: LinkParams, fading: FadingDistribution
) -> tuple[PowerAllocation, float]:
    """Best single-state flash: all ET power on one state, q_k = p_et/p_k.

    Returns ``(allocation, value_bits)``, the zero allocation and 0 when no
    flash is funded. Funded candidates are scored exactly in descending-gain
    order until the next one's bound cannot beat a positive best value (see
    the module docstring).
    """
    p, h2 = fading.p, fading.h2
    n = p.size
    floor = _noise_floor(h2, params.sigma2_sq)
    # Gains are stored ascending, so the reversed floor ascends as _fill needs
    # it; state k sits at place n-1-k.
    desc = np.arange(n)[::-1]
    free, p_desc = floor[::-1], p[::-1]
    best, best_value = None, 0.0
    for k, q, budget in _funded_flashes(params, p, h2):
        # Only a scored flash prunes: a funded flash whose bound rounds to 0
        # is still scored, so no bound decides that the link is Zero.
        if best_value > 0.0 and _fill(_C_BITS, free, p_desc, budget)[2] <= best_value:
            break
        # order[i] is the state at place i once state k's entry moves up to
        # its flash floor, ahead of equal entries (it stays put when the
        # interference rounds away).
        floor_k = (params.sigma2_sq + params.alpha2 * q) / h2[k]
        r = n - 1 - k
        j = max(int(free.searchsorted(floor_k)), r + 1)
        order = desc.copy()
        order[r : j - 1] = desc[r + 1 : j]
        order[j - 1] = k
        noise = floor[order]
        noise[j - 1] = floor_k
        _, power, value = _fill(_C_BITS, noise, p[order], budget)
        if value > best_value:
            best, best_value = (k, q, order, power), value
    if best is None:
        return _zero_allocation(n), 0.0
    k, q, order, prefix = best
    x2 = np.zeros(n)
    x2[k] = math.sqrt(q)
    p_ehu = np.zeros(n)
    p_ehu[order[: prefix.size]] = prefix
    return PowerAllocation(x2, p_ehu), best_value


# ---------------------------------------------------------------------------
# Multiplier recovery and the Lambert-W closed form
# ---------------------------------------------------------------------------


def _active_states(
    params: LinkParams, fading: FadingDistribution, alloc: PowerAllocation
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The states that carry codeword power (a mask), and there p_ehu, h^2
    and the floor numerator sigma2_sq + alpha2*x2^2."""
    act = alloc.p_ehu > 0.0
    s = params.sigma2_sq + params.alpha2 * alloc.x2[act] ** 2
    return act, alloc.p_ehu[act], fading.h2[act], s


def _median(x: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-D array.

    A full sort: the levels it is given agree to a few ulps, and on so few
    distinct values ``np.partition`` took 8 times as long at 8192 states.
    """
    x = np.sort(x)
    k = x.size // 2
    return float(x[k] if x.size % 2 else (x[k - 1] + x[k]) / 2.0)


def _allocation_water_level(pe: np.ndarray, noise: np.ndarray) -> float:
    """Median water level p_ehu + noise over the active states, inf if none."""
    return _median(pe + noise) if pe.size else math.inf


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
    h2_all = fading.h2
    act, pe, h2, s = _active_states(params, fading, alloc)
    noise = s / h2
    w = _allocation_water_level(pe, noise)
    if not math.isfinite(w) or w <= 0.0:
        return MultiplierSet(0.0, math.inf, 0.0)
    lam2 = 1.0 / (w * one_m_rho)
    (overlap,) = ((alloc.x2[act] > 0.0) & (h2 > 0.0)).nonzero()
    if overlap.size:
        loss = 0.0
        if params.alpha2 > 0.0:
            # s >= alpha2*x2^2 > 0 on these states.
            loss = params.alpha2 * pe[overlap] / (s[overlap] * w)
        lam1 = float((lam2 * params.eta * h2[overlap] - loss).sum()) / overlap.size
    else:
        # Pure harvest states pin lambda1 through the linear stationarity of
        # the transmit power instead; gains are stored ascending.
        h2_tx = h2_all[alloc.x2 > 0.0]
        lam1 = lam2 * params.eta * float(h2_tx[-1]) if h2_tx.size else 0.0
    lam1 = max(lam1, 0.0)
    q = alloc.x2**2
    p_act = p[act]
    cap_bits = float(_rates(_C_BITS, pe, noise) @ p_act)
    mu1 = (
        cap_bits
        - lam1 * float(q @ p)
        - lam2 * (one_m_rho * float(pe @ p_act) - params.eta * float((h2_all * q) @ p))
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
    h2 = fading.h2
    one_m_rho = 1.0 - params.rho
    s = params.sigma2_sq + params.alpha2 * alloc.x2**2
    active = (alloc.p_ehu > 0.0) & (alloc.x2 > 0.0) & (h2 > 0.0)
    if not np.any(active):
        return np.array([])
    _, pe, h2_act, s_act = _active_states(params, fading, alloc)
    w = _allocation_water_level(pe, s_act / h2_act)
    lam2 = 1.0 / (w * one_m_rho)
    thresholds = (
        lam2 * params.eta * h2[active]
        + lam2 * one_m_rho * params.alpha2 / h2[active]
    )
    lam1 = 1.25 * float(np.max(thresholds))
    rates = _rates(_C_BITS, alloc.p_ehu, _noise_floor(h2, s))
    errors = []
    for i in np.flatnonzero(active):
        q_i = alloc.x2[i] ** 2
        mu1_i = (
            rates[i]
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
    """The residual entries of ``CapacityResult.residuals`` that ``alloc``
    and ``mult`` determine. An allocation that harvests nothing (the zero
    allocation) reports its balance residual as 0, not divided by 0."""
    p = fading.p
    one_m_rho = 1.0 - params.rho
    q = alloc.x2**2
    spent = float(q @ p)
    harvest = params.eta * float((fading.h2 * q) @ p)
    act, pe, h2_act, s = _active_states(params, fading, alloc)
    consumed = one_m_rho * float(pe @ p[act]) + params.p_proc
    c2_rel = (harvest - consumed) / max(harvest, 1e-300) if harvest > 0.0 else 0.0
    # With no active state lambda2 is inf and nothing is indexed.
    lam2_1mr = mult.lambda2 * one_m_rho
    stat = np.full(fading.n_states, np.nan)
    stat[act] = np.abs(h2_act / (s + h2_act * pe) - lam2_1mr) / lam2_1mr
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
    is the zero allocation with case "Zero". Ties within 1e-7 relative go to
    the constant-amplitude regime (the simpler transmitter) when it scores
    above 0.
    """
    _, alloc_c1, cap_c1 = waterfill_case1(params, fading)
    alloc_c2, cap_c2 = _best_flash(params, fading)
    # Both scores keep their relative digits at any SNR, so the tie is
    # relative: an absolute one hands Case 1 every link below 1e-7 bits.
    if cap_c1 == 0.0 and cap_c2 == 0.0:
        case, capacity, alloc = "Zero", 0.0, _zero_allocation(fading.n_states)
    elif cap_c2 > cap_c1 * (1.0 + 1e-7):
        case, capacity, alloc = "Case2", cap_c2, alloc_c2
    else:
        case, capacity, alloc = "Case1", cap_c1, alloc_c1

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
    p_ehu = max(params.eta * params.p_et * h2 - params.p_proc, 0.0) / (1.0 - params.rho)
    noise = _noise_floor(np.array([h2]), params.sigma2_sq + params.p_et * params.alpha2)
    return float(_rates(_C_BITS, np.array([p_ehu]), noise)[0])


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
