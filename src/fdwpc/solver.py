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
  above by the fill of B_k over the self-interference-free noise floor
  sigma2_sq/h^2, which is ascending in storage order reversed. Flash k is
  scored by ``_fill`` on that same floor with state k's entry moved up to its
  flash floor (sigma2_sq + alpha2*q_k)/h_k^2, one ``searchsorted`` and slices
  instead of a sort. B_k and so the bound fall with the gain, so the funded
  candidates (B_k > 0) are scored strongest first, and the search stops at
  the first bound that cannot beat the best positive value found. That bound
  is first taken in closed form from the best flash's own level and value
  (``_tangent_bound``: its fill is concave in the budget), and only where
  that cannot decide by ``_fill`` of the free floor. The Lambert-W closed
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
positive there is nothing to mask, and it rates without ``np.errstate``. So a
noisy state is never rated as noiseless, ``_gain_floor`` raises
``FloatRangeError`` on a positive numerator whose floor underflows to 0, and
``_fill`` where P/n at its lowest floor, the largest, overflows, naming the
power or the floor, whichever is further past the square root of the range.

A floor is a ``_Floor``: the noise ascending (strongest state first) and its
weights, with the sums a fill scans built on first use and kept, all
read-only. A fill first scans the floor's first ``_PREFIX`` states, and the
full sums only where the level may lie past them (``_Floor.level``): Case 1
fills 1-67 of up to 8192 states on the benchmark's links, a flash hundreds to
thousands, so a flash floor, filled once, builds its full sums at once.
Every gain-ordered floor s/h^2 (h^2 the distribution's ``h2``) comes from one
two-entry cache, ``_gain_floor``, keyed on (distribution, s), the
distribution by identity. One solve reads at most two floors, the
self-interference-free sigma2_sq/h^2 (the flash bounds and flash floors, and
the half-duplex fills and Lambert-W prefix sums) and the Case-1
(sigma2_sq + p_et*alpha2)/h^2, so a sweep point that moves neither numerator
rebuilds neither. ``_fill_by_gain`` fills one and returns the powers in
storage order; a scored flash fills a floor spliced from slices of the free
floor, and only the winner's index map is built, to scatter its powers back.

Both regimes return ``(lambda2, allocation, value)``, lambda2 = 1/(w*(1-rho))
at the water level w of the fill that scored the allocation (inf with the
zero allocation). ``solve`` forms a flash budget B_k only for a flash that is
scored or bounded. Every case, Zero included, leaves ``solve`` by one path:
the winner's lambda2 and value go to ``recover_multipliers`` for lambda1 and
mu1 (the loss formed only where both powers are carried), and the residuals,
built on first read, compare each active state with that exact level.

Capacities are in bits per channel use throughout.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .fading import FadingDistribution
# perfbench's traced run wraps this module's bindings of waterfill_case1 and
# recover_multipliers (solve calls each once through them), capacity_case1,
# closed_form_x2_errors, x0_of_h, lambert_w0 and lambert_w0_of_log. The last
# four, like hd.hd_rate_at_fraction, stay only until it stops wrapping them.
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
    "FloatRangeError",
]

_LN2 = math.log(2.0)
# 1/(2 ln 2): converts (1/2) log2 rates to a natural-log slope.
_C_BITS = 0.5 / _LN2
_EPS, _TINY = sys.float_info.epsilon, sys.float_info.min
# States a fill scans before it builds a floor's full prefix sums
# (``_Floor.level``): 1-67 of up to 8192 states carry power on the
# benchmark's Rayleigh links.
_PREFIX = 256


class FloatRangeError(OverflowError):
    """A quantity of a solve past the float range, raised before it is used:
    a flash power p_et/p_k, or an SNR h^2 P/sigma2_sq (a noise floor that
    underflows to 0 included). ``field`` names the ``LinkParams`` field that
    put it there, "p_et" or "sigma2_sq". An SNR P/n past the range names
    "p_et" where P*n > 1 W^2: the codeword power is then further from 1 W, on
    a log scale, than its floor n."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


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

    ``multipliers.lambda2`` is the winning fill's 1/(w*(1-rho)) at its water
    level w (inf on case "Zero"), not recovered from the allocation.

    ``residuals`` keys, the same on every case:

    * ``c1_slack`` -- unused transmit-power budget, watts (>= 0 up to tol).
    * ``c2_residual_rel`` -- relative energy-balance residual (0 when tight).
    * ``stationarity_rel`` -- per-state relative water-filling stationarity
      residual against that level (NaN on states with no codeword power).
    * ``case1_capacity`` -- the constant-amplitude objective, bits/use, as
      the Case-1 fill rated it (``capacity_case1`` of the Case-1 allocation
      agrees to 1e-15 relative).
    * ``case2_capacity`` -- the best flash's objective, bits/use.

    perfbench's ``check_solve`` reads ``c1_slack``, ``c2_residual_rel`` and
    ``case1_capacity``. ``solve`` builds ``residuals`` on first read, a
    read-only mapping that acts as the dict it builds; ``multipliers`` stay
    eager: the benchmark's traced run counts one ``recover_multipliers``.
    """

    case: str
    capacity: float
    allocation: PowerAllocation
    multipliers: MultiplierSet
    residuals: Mapping = field(default_factory=dict)


class _Residuals(Mapping):
    """``_allocation_residuals(*args) | extra``, built on first read and kept."""

    __slots__ = ("_inputs", "_built")

    def __init__(self, *args, **extra):
        self._inputs, self._built = (args, extra), None

    def _dict(self) -> dict:
        if self._built is None:
            args, extra = self._inputs
            self._inputs, self._built = None, _allocation_residuals(*args) | extra
        return self._built

    def __getitem__(self, key):
        return self._dict()[key]

    def __iter__(self):
        return iter(self._dict())

    def __len__(self) -> int:
        return len(self._dict())

    def __repr__(self) -> str:
        return repr(self._dict())

    def __reduce__(self):
        return dict, (self._dict(),)


def _zero_allocation(n: int) -> PowerAllocation:
    return PowerAllocation(np.zeros(n), np.zeros(n))


def _noise_floor(h2: np.ndarray, s) -> np.ndarray:
    """Water-filling noise floor s/h^2, infinite on dead states.

    ``s`` broadcasts against ``h2``: one scalar, one value per state, or a
    batch of rows.
    """
    out = np.full(np.broadcast(s, h2).shape, np.inf)
    with np.errstate(over="ignore"):  # past the float range is inf too
        return np.divide(s, h2, out=out, where=h2 > 0.0)


def _level_sums(noise: np.ndarray, weights: np.ndarray) -> tuple:
    """The two prefix sums a water level scans, cumsum(weights*noise) and
    cumsum(weights), along the last axis."""
    return (weights * noise).cumsum(axis=-1), weights.cumsum(axis=-1)


def _water_level(noise: np.ndarray, weights: np.ndarray, budget, sums=None) -> np.ndarray:
    """Exact water level L solving sum weights*[L - noise]^+ = budget.

    L is the smallest prefix candidate (budget + sum_{i<=m} w_i n_i) /
    sum_{i<=m} w_i. Every candidate is >= L, because
    sum_{i<=m} w_i (L - n_i) <= sum_i w_i [L - n_i]^+ = budget, and on a floor
    sorted ascending the active states are a prefix, whose candidate is L.

    Batched over leading axes: ``noise`` must be sorted ascending along the
    last axis, with dead states carrying inf so that they sort last;
    ``weights`` (positive) is aligned with it and ``budget`` has the leading
    shape. A row whose first noise entry is inf has no usable state and
    gets inf. ``sums``, when given, is ``_level_sums(noise, weights)`` built
    earlier: a floor filled at many budgets scans its prefix sums once.
    """
    wn, w = _level_sums(noise, weights) if sums is None else sums
    return np.minimum.reduce((np.asarray(budget)[..., None] + wn) / w, axis=-1)


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


class _Floor:
    """A water-filling floor ``noise``, ascending with inf on dead states, and
    its ``weights``. The sums a fill scans are built on first use and kept;
    ``live`` counts the live states of a gain-ordered floor, a prefix. A
    cached floor is shared by later solves, so its arrays are read-only."""

    __slots__ = ("noise", "weights", "live", "_scan", "_head", "_live_sums")

    def __init__(self, noise: np.ndarray, weights: np.ndarray, live: int | None = None):
        self.noise, self.weights, self.live = noise, weights, live
        self._scan = self._head = self._live_sums = None

    def scan(self) -> tuple:
        """The heights above the lowest floor and their ``_level_sums``.
        Never asked of an all-dead floor, whose heights are inf - inf."""
        if self._scan is None:
            height = self.noise - self.noise[0]
            self._scan = height, _level_sums(height, self.weights)
            for a in (height, *self._scan[1]):
                a.setflags(write=False)
        return self._scan

    def level(self, budget: float) -> tuple:
        """The water level of ``budget`` as a height above the lowest floor
        (``_water_level`` of the scan, bit for bit), and heights that hold
        every state below it, a prefix of the scan's.

        A floor longer than ``_PREFIX`` whose sums are not built yet scans its
        first ``_PREFIX`` states first: their candidates and sums are the full
        scan's to the bit (``cumsum`` adds in order). Each later candidate m is
        a weighted mean of the prefix's last candidate and heights at or above
        the next height h_K, all in exact arithmetic. A computed candidate of
        up to n + 2 terms is off by at most about (n + 2) eps relative plus
        (n + 2) eps tiny / W absolute (W the prefix's weight, tiny the smallest
        normal float, for products that underflow). So when the prefix's last
        candidate and h_K both exceed its minimum L by 4 (n + 2) eps (L +
        tiny / W), no later candidate can round below L, and L is the full
        ``np.minimum.reduce``. Otherwise the full scan is built and kept, at
        once where the budget exceeds h_K: the level is at least the budget
        over the total weight, 1 on a distribution's floor, so the prefix
        would not hold it. Either way gives the same bits."""
        n = self.noise.size
        if self._scan is None and n > _PREFIX and budget <= self.noise[_PREFIX] - self.noise[0]:
            if self._head is None:
                height = self.noise[: _PREFIX + 1] - self.noise[0]
                self._head = height, _level_sums(height[:_PREFIX], self.weights[:_PREFIX])
                for a in (height, *self._head[1]):
                    a.setflags(write=False)
            height, (wn, w) = self._head
            cand = (budget + wn) / w
            top = float(np.minimum.reduce(cand))
            total = float(w[-1])
            margin = top + 4 * (n + 2) * _EPS * (top + _TINY / total)
            if float(cand[-1]) > margin and float(height[_PREFIX]) > margin:
                return top, height[:_PREFIX]
        height, sums = self.scan()
        return float(_water_level(height, self.weights, budget, sums)), height

    def live_sums(self) -> tuple:
        """Over the live states: the floor n, ln n and the prefix sums of p,
        p*n and p*ln n (``hd``); that of p is the scan's weights sum."""
        if self._live_sums is None:
            n, p = self.noise[: self.live], self.weights[: self.live]
            ln_n = np.log(n)
            cp = self.scan()[1][1][: self.live]
            self._live_sums = n, ln_n, cp, (p * n).cumsum(), (p * ln_n).cumsum()
            for a in self._live_sums:
                a.setflags(write=False)
        return self._live_sums


@functools.lru_cache(maxsize=2)
def _gain_floor(fading: FadingDistribution, s: float) -> _Floor:
    """The floor s/h^2 of every state, strongest first, weighted by p; the
    last two built are kept (module docstring; ``LinkParams`` stores -0.0 as
    0.0, so s = 0.0 keys one floor). The reversed gains ascend (an argsort made
    solve 10-12% slower at 2000 and 8192 states), and the live states
    (h^2 > 0), a prefix, are divided alone (``_noise_floor``'s masked divide
    took 2.5-3 times as long at 8192 states), both on a 2-CPU host. A floor
    past the float range is inf, as on a dead state."""
    h2 = fading.h2
    live = h2.size - int(h2.searchsorted(0.0, side="right"))
    noise = np.empty(h2.size)
    # Overflow needs s > 1.8e308 * the weakest live h^2; np.errstate costs more than the divide.
    if live and s > float(h2[-live]) * 1e308:
        with np.errstate(over="ignore"):
            np.divide(s, h2[::-1][:live], out=noise[:live])
    else:
        np.divide(s, h2[::-1][:live], out=noise[:live])
    noise[live:] = np.inf
    if live and noise[0] == 0.0 < s:
        raise FloatRangeError("sigma2_sq", f"the noise floor {s:g} W / {h2[-1]:g} underflows to 0")
    noise.setflags(write=False)
    return _Floor(noise, fading.p[::-1], live)


def _fill(c: float, floor: _Floor, budget: float) -> tuple:
    """Water-fill ``budget`` over ``floor`` (one state live at least).
    Returns the level, the powers of the states below it (a prefix: every
    later state gets 0) and their value ``_rates(c, ...) @ weights``.

    Each power is H - (n - n0), the level a height H above the lowest floor
    n0: at low SNR, level - noise would cancel most of the digits."""
    top, height = floor.level(budget)
    noise, weights = floor.noise, floor.weights
    # P/n is largest at the lowest floor, where P = top. One of the two is
    # past the square root of the float range; the one further out is named.
    n0 = float(noise[0])
    if n0 > 0.0 and top / n0 == math.inf:
        field = "p_et" if top * n0 > 1.0 else "sigma2_sq"
        raise FloatRangeError(field, f"the SNR {top:g} W / {n0:g} W is past the float range")
    m = height.searchsorted(top)  # the states below the level
    power = top - height[:m]
    return float(noise[0] + top), power, float(_rates(c, power, noise[:m]) @ weights[:m])


def _fill_by_gain(c: float, floor: _Floor, budget: float) -> tuple:
    """``_fill`` of ``budget`` over a gain-ordered floor (``_gain_floor``).
    Returns the level, the powers ``p_ehu`` in storage order and their
    value."""
    w, power, value = _fill(c, floor, budget)
    p_ehu = np.zeros(floor.noise.size)
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
    the processing cost), or every floor is past the float range, the zero
    allocation is returned with ``lambda2 = inf`` and value 0.
    """
    n = fading.n_states
    one_m_rho = 1.0 - params.rho
    budget = (params.eta * params.p_et * fading.mean_square - params.p_proc) / one_m_rho
    if budget <= 0.0:
        return math.inf, _zero_allocation(n), 0.0
    floor = _gain_floor(fading, params.sigma2_sq + params.p_et * params.alpha2)
    if floor.noise[0] == math.inf:  # every floor past the float range
        return math.inf, _zero_allocation(n), 0.0
    w, p_ehu, value = _fill_by_gain(_C_BITS, floor, budget)
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
    a time from the top, in Python floats, and, below the first unfunded one,
    all at once: a link with no funded flash forms its budgets in one array
    pass. A q past the float range is inf, which no flash may keep."""
    for k in range(p.size - 1, -1, -1):
        q, budget = _flash(params, float(p[k]), float(h2[k]))
        if not budget > 0.0:
            with np.errstate(over="ignore", invalid="ignore"):
                q, budget = _flash(params, p[:k], h2[:k])
            for j in np.flatnonzero(budget > 0.0)[::-1]:
                yield j, q[j], budget[j]
            return
        yield k, q, budget


def _best_flash(
    params: LinkParams, fading: FadingDistribution
) -> tuple[float, PowerAllocation, float]:
    """Best single-state flash: all ET power on one state, q_k = p_et/p_k.

    Returns ``(lambda2, allocation, value_bits)`` as ``waterfill_case1`` does,
    lambda2 = 1/(w*(1-rho)) at the winning fill's water level w, and
    ``(inf, zero allocation, 0)`` when no flash is funded. Funded candidates
    are scored exactly in descending-gain order until the next one's bound
    cannot beat a positive best value (see the module docstring).
    """
    p, h2 = fading.p, fading.h2
    n = p.size
    free = _gain_floor(fading, params.sigma2_sq)
    noise, weights = free.noise, free.weights
    best, best_value = None, 0.0
    for k, q, budget in _funded_flashes(params, p, h2):
        if q == math.inf:
            if not params.eta * params.p_et * float(h2[k]) > params.p_proc:
                continue  # funded only by its budget inf*(p*h^2)
            raise FloatRangeError(
                "p_et", f"the flash power {params.p_et:g} W / {p[k]:g} is past the float range"
            )
        # Only a scored flash prunes: a funded flash whose bound rounds to 0
        # is still scored, so no bound decides that the link is Zero.
        if best_value > 0.0 and (
            _tangent_bound(tangent, budget) < best_value
            or _fill(_C_BITS, free, budget)[2] <= best_value
        ):
            break
        # The free floor ascends with state k at place r. Its flash floor
        # moves that entry up to place j - 1 (in Python floats, inf past the
        # float range as on a dead state), ahead of equal entries (it stays
        # put when the interference rounds away).
        floor_k = (params.sigma2_sq + params.alpha2 * float(q)) / float(h2[k])
        r = n - 1 - k
        j = max(int(noise.searchsorted(floor_k)), r + 1)
        flash = np.concatenate((noise[:r], noise[r + 1 : j], [floor_k], noise[j:]))
        if flash[0] == math.inf:  # no live state left to fill
            continue
        wts = np.concatenate((weights[:r], weights[r + 1 : j], weights[r : r + 1], weights[j:]))
        scored = _Floor(flash, wts)
        scored.scan()  # a flash fills hundreds of states or more: no prefix first
        w, power, value = _fill(_C_BITS, scored, budget)
        if value > best_value:
            best, best_value = (k, q, r, j, w, power), value
            gross = (params.eta * params.p_et * float(h2[k]) + params.p_proc) / (1.0 - params.rho)
            tangent = (value, budget, w, float(weights[r]), float(noise[r]), gross, n)
    if best is None:
        return math.inf, _zero_allocation(n), 0.0
    k, q, r, j, w, prefix = best
    # order[i] is the state at place i of the winner's flash floor.
    order = np.arange(n - 1, -1, -1)
    order[r : j - 1] = order[r + 1 : j].copy()
    order[j - 1] = k
    x2 = np.zeros(n)
    x2[k] = math.sqrt(q)
    p_ehu = np.zeros(n)
    p_ehu[order[: prefix.size]] = prefix
    return 1.0 / (w * (1.0 - params.rho)), PowerAllocation(x2, p_ehu), best_value


def _tangent_bound(tangent: tuple, budget: float) -> float:
    """An upper bound, rounding included, on the interference-free fill of
    ``budget`` (``_fill`` of the free floor), from the best flash k scored so
    far. ``tangent`` holds its value V_k, budget B_k, level L_k, probability
    p_k, free floor n_k = sigma2_sq/h_k^2, the harvest and cost G_k that B_k
    was rounded from, and the state count n.

    The free floor is flash k's floor with state k's entry lowered to n_k.
    Without state k, a fill is no better than flash k's fill, which is
    concave in the budget with slope c/L_k at B_k; state k adds at most
    p_k c max_P [ln(1 + P/n_k) - P/L_k] = p_k c phi, with
    phi = ln t - 1 + 1/t at t = L_k/n_k > 1 (0 otherwise). So

        V_free(B) <= V_k + c [(B - B_k)/L_k + p_k phi].

    The margin is (4 (n + 2) eps + 2^-30) times the magnitudes of V_k, of the
    next flash's value, of each term and of c G_k/L_k: the first covers the
    rounding of a level over n states and of every term, the second the
    digits a fill's value loses where most of its weight sits just below the
    level. G_k covers the budgets, each rounded from a harvest and a cost, and
    the later flashes' budgets, which fall with the gain up to that rounding.
    Where the bound falls below the best value, no later flash can beat it."""
    value, b_k, level, p_k, n_k, gross, n = tangent
    if not n_k > 0.0:  # a noiseless state: t is inf
        return math.inf
    x = (budget - b_k) / level
    t = level / n_k
    ln_t = math.log(t) if t > 1.0 else 0.0
    phi = ln_t - 1.0 + 1.0 / t if t > 1.0 else 0.0
    size = 2.0 * value + _C_BITS * (abs(x) + gross / level + p_k * (ln_t + 2.0))
    return value + _C_BITS * (x + p_k * phi) + (4 * (n + 2) * _EPS + 2.0**-30) * size


# ---------------------------------------------------------------------------
# Multiplier recovery and the Lambert-W closed form
# ---------------------------------------------------------------------------


def recover_multipliers(
    params: LinkParams,
    fading: FadingDistribution,
    alloc: PowerAllocation,
    lambda2: float,
    capacity: float,
) -> MultiplierSet:
    """Complete the multiplier set of an optimal allocation.

    ``lambda2`` and ``capacity`` are given, not recovered: the winning fill's
    1/(w*(1-rho)) at its water level w (inf for the zero allocation) and its
    value. lambda1 comes from the per-state transmit power stationarity
    averaged over states that carry both transmit and codeword power, and mu1
    from the distribution-normalization condition summed over states.
    """
    p, h2, x2, pe = fading.p, fading.h2, alloc.x2, alloc.p_ehu
    one_m_rho = 1.0 - params.rho
    act = pe > 0.0
    if not act.any():
        return MultiplierSet(0.0, lambda2, 0.0)
    (overlap,) = (act & (x2 > 0.0) & (h2 > 0.0)).nonzero()
    if overlap.size:
        loss = 0.0
        if params.alpha2 > 0.0:
            s = params.sigma2_sq + params.alpha2 * x2[overlap] ** 2  # >= alpha2*x2^2 > 0
            loss = params.alpha2 * pe[overlap] * (lambda2 * one_m_rho) / s
        lam1 = float((lambda2 * params.eta * h2[overlap] - loss).sum()) / overlap.size
    else:
        # Pure harvest states pin lambda1 through the linear stationarity of
        # the transmit power instead; gains are stored ascending.
        h2_tx = h2[x2 > 0.0]
        lam1 = lambda2 * params.eta * float(h2_tx[-1]) if h2_tx.size else 0.0
    lam1 = max(lam1, 0.0)
    q = x2**2
    # A dot over the active states in storage order, as the residuals sum.
    mu1 = (
        capacity
        - lam1 * float(q @ p)
        - lambda2 * (one_m_rho * float(pe[act] @ p[act]) - params.eta * float((h2 * q) @ p))
    )
    return MultiplierSet(lam1, lambda2, mu1)


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
    params: LinkParams,
    fading: FadingDistribution,
    alloc: PowerAllocation,
    lambda2: float,
) -> np.ndarray:
    """Relative mismatch of the Lambert-W closed form against a primal solution.

    ``lambda2`` is given, not recovered: that of the fill that scored
    ``alloc`` (``waterfill_case1``, ``_best_flash``). For every state carrying
    both transmit and codeword power, builds the multiplier set anchored at
    it -- the budget multiplier placed in the regime where the Lambert
    argument is nonnegative and the root unique, the normalization multiplier
    from the per-state stationarity level -- and compares ``x0_of_h`` with the
    primal amplitude. Because ``mu1`` is fitted per state, the check cannot
    flag a wrong allocation; ``solve`` does not call it.

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
    thresholds = (
        lambda2 * params.eta * h2[active]
        + lambda2 * one_m_rho * params.alpha2 / h2[active]
    )
    lam1 = 1.25 * float(np.max(thresholds))
    rates = _rates(_C_BITS, alloc.p_ehu, _noise_floor(h2, s))
    errors = []
    for i in np.flatnonzero(active):
        q_i = alloc.x2[i] ** 2
        mu1_i = (
            rates[i]
            - lam1 * q_i
            - lambda2 * (one_m_rho * alloc.p_ehu[i] - params.eta * h2[i] * q_i)
        )
        x0 = x0_of_h(MultiplierSet(lam1, lambda2, mu1_i), float(fading.h[i]), params)
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
    act = alloc.p_ehu > 0.0
    pe, h2_act, s = alloc.p_ehu[act], fading.h2[act], params.sigma2_sq + params.alpha2 * q[act]
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
    lam2_c1, alloc_c1, cap_c1 = waterfill_case1(params, fading)
    lam2_c2, alloc_c2, cap_c2 = _best_flash(params, fading)
    # Both scores keep their relative digits at any SNR, so the tie is
    # relative: an absolute one hands Case 1 every link below 1e-7 bits.
    if cap_c1 == 0.0 and cap_c2 == 0.0:
        case, lam2, capacity = "Zero", math.inf, 0.0
        alloc = _zero_allocation(fading.n_states)
    elif cap_c2 > cap_c1 * (1.0 + 1e-7):
        case, lam2, capacity, alloc = "Case2", lam2_c2, cap_c2, alloc_c2
    else:
        case, lam2, capacity, alloc = "Case1", lam2_c1, cap_c1, alloc_c1

    # The winner's level prices the balance; lambda1 and mu1 complete the set.
    mult = recover_multipliers(params, fading, alloc, lam2, capacity)
    res = _Residuals(params, fading, alloc, mult, case1_capacity=cap_c1, case2_capacity=cap_c2)
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
