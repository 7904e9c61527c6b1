"""Half-duplex time-switching benchmark.

The energy transmitter radiates for a fraction tau of each slot, then the user
transmits. Neither suffers self-interference: alpha1, alpha2, g1_mean are unused.

At a fixed tau the user water-fills b = tau*A/(1 - tau) - p_proc, with
A = eta*p_et*E[h^2], over the floors n = sigma2_sq/h^2, for the rate
(1 - tau)*F(b) = A*F(b)/(A + p_proc + b). F is concave in b (F' = 1/(w ln 2)
at water level w): a concave function over a positive affine one is unimodal,
so the rate is unimodal in b and in tau = (p_proc + b)/(A + p_proc + b).
With P, N, L the prefix sums of p, p*n, p*ln n over the ascending floors below
w and c = A + p_proc - N, stationarity is g(w) = c/w + P - P ln w + L = 0. g is
continuous, strictly decreasing and positive at the lowest floor, so the root
is on the last prefix whose floor has g > 0: w = exp(y + 1 + L/P), with
y = W0((c/P) exp(-1 - L/P)) > -1.

The floors, their prefix sums P, N, L and the three fills of a solve (two
candidates ranked, the winner scored) read sigma2_sq/h^2 from the solver's
two-entry floor cache, ``solver._gain_floor``: a sweep rebuilds none of it.
That floor keeps ``solve_hd``'s last result, keyed on eta, p_et and p_proc,
the fields it reads beyond the floor's own key (distribution, sigma2_sq). A
sweep point that moves none of them (``ratio-sweep``'s alpha2) solves
nothing, and gets the same read-only result back.

Rate convention: the benchmark rates each state with log2(1 + h^2 P/sigma2_sq)
(complex Gaussian), every full-duplex rate in ``solver`` with (1/2) log2 (real
Gaussian), so the two are not comparable: on an ideal unfaded link (alpha2 = 0,
p_proc = 0, h = 1) the benchmark beats full duplex, which time-switching cannot.
Both are rated by the solver's one kernel, ``_fill``, and the convention is the
one constant that this module passes it, ``_C_HD``: ``solver._C_BITS`` in its
place puts the benchmark on the full-duplex convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .fading import FadingDistribution
from .solver import FloatRangeError, _fill_by_gain, _gain_floor
from .units import LinkParams

__all__ = ["HdResult", "solve_hd", "hd_rate_at_fraction"]

# The rate convention (module docstring): log2, not the full duplex (1/2) log2.
_C_HD = 1.0 / math.log(2.0)
_LN_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class HdResult:
    """Optimal time split and rate of the half-duplex benchmark.

    ``t_star`` is the harvesting fraction of the slot (it may round to 1.0
    where the rate is still positive), ``lam`` the inner
    water-filling multiplier at the optimum, ``rate`` in bits per channel
    use, and ``p_ehu_of_h`` the per-state transmit powers, read-only: a
    result is shared by every later solve of its key (module docstring).
    """

    t_star: float
    lam: float
    rate: float
    p_ehu_of_h: np.ndarray

    def __post_init__(self) -> None:
        self.p_ehu_of_h.setflags(write=False)


def _inner_waterfill(
    params: LinkParams, fading: FadingDistribution, budget: float, one_m_tau: float
) -> tuple[float, float, np.ndarray]:
    """Rate, multiplier and powers for the codeword budget E[P] = ``budget``
    and the transmitting fraction ``one_m_tau`` = 1 - tau_h that funds it.

    The transmit-side energy balance is
    (1 - tau_h) * (p_proc + E[P]) = tau_h * eta * p_et * E[h^2],
    and the rate is (1 - tau_h) * E[log2(1 + h^2 P / sigma2_sq)]. Both
    arguments come in directly: near tau_h = 1, 1 - tau_h keeps no digits,
    and the budget recovered from tau_h cancels against p_proc.
    """
    if budget > 0.0 and one_m_tau > 0.0:
        floor = _gain_floor(fading, params.sigma2_sq)
        # An inf lowest floor: a dead link, or every floor past the float range.
        if floor.noise[0] < math.inf:
            w, p_ehu, rate = _fill_by_gain(one_m_tau * _C_HD, floor, budget)
            return rate, 1.0 / w, p_ehu
    return 0.0, math.inf, np.zeros(fading.n_states)


def hd_rate_at_fraction(
    params: LinkParams, fading: FadingDistribution, tau_h: float
) -> float:
    """Benchmark rate at a given harvesting fraction, bits per channel use."""
    if tau_h <= 0.0 or tau_h >= 1.0:
        return 0.0
    harvested = tau_h * params.eta * params.p_et * fading.mean_square
    rate, _, _ = _inner_waterfill(
        params, fading, harvested / (1.0 - tau_h) - params.p_proc, 1.0 - tau_h
    )
    return rate


def solve_hd(params: LinkParams, fading: FadingDistribution) -> HdResult:
    """Maximize the half-duplex rate over the harvesting fraction, exactly.

    The stationary water level is one Lambert-W root (module docstring). It
    and a neighbouring prefix's root, clipped to their segments, are ranked
    by ``hd_rate_at_fraction``, so rounding of g near a floor cannot mislead.
    The winner is scored at its budget b and 1 - tau = A/(A + p_proc + b),
    so the rate stays exact where tau itself rounds to 1 (p_proc about 1e16
    times A). The floor keeps the last result (module docstring). One past the
    float range names p_proc where p_proc > A: the budget grows with A + p_proc.
    """
    if params.p_et <= 0.0 or fading.mean_square <= 0.0:
        return HdResult(0.0, math.inf, 0.0, np.zeros(fading.n_states))
    floor = _gain_floor(fading, params.sigma2_sq)
    if floor.noise[0] == math.inf:  # every floor past the float range: every rate is 0
        return HdResult(0.0, math.inf, 0.0, np.zeros(fading.n_states))
    try:
        return floor.kept("hd", (params.eta, params.p_et, params.p_proc), _solve_hd, params, fading)
    except FloatRangeError as exc:
        if exc.field == "p_et" and params.p_proc > params.eta * params.p_et * fading.mean_square:
            raise FloatRangeError("p_proc", str(exc)) from None
        raise


def _solve_hd(params: LinkParams, fading: FadingDistribution) -> HdResult:
    harvest = params.eta * params.p_et * fading.mean_square
    a_pp = harvest + params.p_proc
    # Noiseless, every funded fraction is worth inf: take the one midway to 1,
    # which b = a_pp funds.
    b_star = a_pp
    if params.sigma2_sq > 0.0:
        n, ln_n, cp, cn, cl = _gain_floor(fading, params.sigma2_sq).live_sums()
        c = a_pp - cn
        # Quietly, an inf floor makes g NaN (not > 0) and a subnormal one c/n inf.
        with np.errstate(over="ignore", invalid="ignore"):
            m = max(int(np.count_nonzero(c / n + cp * (1.0 - ln_n) + cl > 0.0)) - 1, 0)
        tried = []
        # Prefix m's root first: it wins a tie, where tau rounds the rates to 0.
        for k in (m, m + 1) if m + 1 < n.size else (m, m - 1) if m > 0 else (m,):
            c_k, p_k = float(c[k]), float(cp[k])
            r, shift = c_k / p_k, 1.0 + float(cl[k]) / p_k
            # Below -1/e there is no root: g < 0 and w = -c/P clips to the floor.
            # Past the float range, r keeps its log, ln c - ln P.
            y = (specfun.lambert_w0_of_log(math.log(c_k) - math.log(p_k) - shift) if r == math.inf
                 else specfun.lambert_w0_of_log(math.log(r) - shift) if r > 0.0
                 else specfun.lambert_w0(max(r * math.exp(-shift), specfun.BRANCH_POINT)))
            top, ln_w = (n[k + 1] if k + 1 < n.size else math.inf), y + shift
            if ln_w > _LN_MAX and top == math.inf:  # a level past the float range, unclipped
                raise FloatRangeError("p_et", f"the level e^{ln_w:g} W is past the float range")
            tried.append(cp[k] * min(max(math.exp(min(ln_w, _LN_MAX)), n[k]), top) - cn[k])
        b_star = max(
            tried, key=lambda b: hd_rate_at_fraction(params, fading, _fraction(params, a_pp, b))
        )
    # tau rounds to 1 long before its complement harvest/(a_pp + b) underflows.
    rate, lam, p_ehu = _inner_waterfill(params, fading, b_star, harvest / (a_pp + b_star))
    return HdResult(float(_fraction(params, a_pp, b_star)), lam, rate, p_ehu)


def _fraction(params: LinkParams, a_pp: float, b: float) -> float:
    """Harvesting fraction tau = (p_proc + b)/(a_pp + b) that funds the
    codeword budget b."""
    return (params.p_proc + b) / (a_pp + b)
