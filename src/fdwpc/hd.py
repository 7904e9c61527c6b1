"""Half-duplex time-switching benchmark.

The link alternates within each slot: the energy transmitter radiates for a
fraction of the slot while the harvesting user only harvests, then stays
silent while the user transmits over a clean channel. Neither node suffers
self-interference, so there is no energy recycling and the decoder sees only
thermal noise.

For a fixed harvest fraction the user's power allocation is plain
water-filling funded by the harvested energy; the fraction itself is
maximized by golden-section search (the rate is unimodal in the fraction:
zero at both endpoints, concave energy/time trade inside).

Rate convention: the benchmark rates each state with log2(1 + h^2 P / sigma2_sq),
the complex-Gaussian form, while every full-duplex rate in ``solver`` uses
(1/2) log2, the real-Gaussian form. The two are not comparable as they stand:
on an ideal unfaded link (alpha2 = 0, p_proc = 0, h = 1) the benchmark beats
full duplex, which time-switching cannot do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fading import FadingDistribution
from .solver import _noise_floor, _water_level
from .units import LinkParams

__all__ = ["HdResult", "solve_hd", "hd_rate_at_fraction"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0
# Golden-section steps that shrink [0, 1] to |delta tau| <= 1e-6.
_GOLDEN_STEPS = math.ceil(math.log(1e-6) / math.log(_INV_PHI))


@dataclass(frozen=True)
class HdResult:
    """Optimal time split and rate of the half-duplex benchmark.

    ``t_star`` is the harvesting fraction of the slot, ``lam`` the inner
    water-filling multiplier at the optimum, ``rate`` in bits per channel
    use, and ``p_ehu_of_h`` the per-state transmit powers.
    """

    t_star: float
    lam: float
    rate: float
    p_ehu_of_h: np.ndarray


def _inner_waterfill(
    params: LinkParams, fading: FadingDistribution, tau_h: float
) -> tuple[float, float, np.ndarray]:
    """Rate, multiplier and powers for a fixed harvesting fraction.

    The transmit-side energy balance is
    (1 - tau_h) * (p_proc + E[P]) = tau_h * eta * p_et * E[h^2],
    and the rate is (1 - tau_h) * E[log2(1 + h^2 P / sigma2_sq)].
    """
    h2 = fading.h**2
    p = fading.p
    if tau_h <= 0.0 or tau_h >= 1.0:
        return 0.0, math.inf, np.zeros(fading.n_states)
    harvested = tau_h * params.eta * params.p_et * fading.mean_square
    budget = harvested / (1.0 - tau_h) - params.p_proc
    if budget <= 0.0:
        return 0.0, math.inf, np.zeros(fading.n_states)
    noise = _noise_floor(h2, params.sigma2_sq)
    # Gains are stored ascending, so the noise floor is sorted descending.
    w = float(_water_level(noise[::-1], p[::-1], budget))
    if not math.isfinite(w):
        return 0.0, math.inf, np.zeros(fading.n_states)
    p_ehu = np.maximum(w - noise, 0.0)
    act = p_ehu > 0.0
    rate = (1.0 - tau_h) * float((p[act] * np.log2(w / noise[act])).sum())
    return rate, 1.0 / w, p_ehu


def hd_rate_at_fraction(
    params: LinkParams, fading: FadingDistribution, tau_h: float
) -> float:
    """Benchmark rate at a given harvesting fraction, bits per channel use."""
    rate, _, _ = _inner_waterfill(params, fading, tau_h)
    return rate


def solve_hd(params: LinkParams, fading: FadingDistribution) -> HdResult:
    """Maximize the half-duplex rate over the harvesting fraction.

    Golden-section search on [0, 1] to |delta tau| <= 1e-6. Self-interference
    parameters of ``params`` are ignored: the benchmark has none.
    """
    if params.p_et <= 0.0 or fading.mean_square <= 0.0:
        return HdResult(0.0, math.inf, 0.0, np.zeros(fading.n_states))

    a, b = 0.0, 1.0
    h_span = b - a
    c = a + _INV_PHI_SQ * h_span
    d = a + _INV_PHI * h_span
    yc = hd_rate_at_fraction(params, fading, c)
    yd = hd_rate_at_fraction(params, fading, d)
    for _ in range(_GOLDEN_STEPS):
        if yc > yd:
            b, d, yd = d, c, yc
            h_span *= _INV_PHI
            c = a + _INV_PHI_SQ * h_span
            yc = hd_rate_at_fraction(params, fading, c)
        else:
            a, c, yc = c, d, yd
            h_span *= _INV_PHI
            d = a + _INV_PHI * h_span
            yd = hd_rate_at_fraction(params, fading, d)
    t_star = c if yc > yd else d
    rate, lam, p_ehu = _inner_waterfill(params, fading, t_star)
    return HdResult(float(t_star), lam, rate, p_ehu)
