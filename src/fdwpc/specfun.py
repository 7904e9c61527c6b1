"""Scalar special functions used by the closed-form capacity expressions.

Only two are needed: the principal branch of the Lambert W function and the
exponential integral E1. Both are implemented from scratch so that the test
suite can verify them against their defining identities rather than trusting
a library:

* ``lambert_w0``: series initial guess near the branch point, log-based guess
  for large arguments, then Halley refinement of ``w * exp(w) = x``.
* ``exp_e1``: alternating power series for small arguments, modified-Lentz
  continued fraction for large ones.

Both target 1e-12 relative accuracy.
"""

from __future__ import annotations

import math

__all__ = ["lambert_w0", "lambert_w0_of_log", "exp_e1", "BRANCH_POINT"]

# -1/e, the left end of the principal branch's real domain.
BRANCH_POINT = -math.exp(-1.0)

# Euler-Mascheroni constant, for the E1 small-argument series.
_EULER_GAMMA = 0.57721566490153286060651209008240243

_DOMAIN_SLACK = 1e-12


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function for real x >= -1/e.

    Solves ``w * exp(w) = x`` with ``w >= -1``. Arguments within 1e-12 below
    the branch point are clamped to it; anything lower raises ValueError.
    """
    if math.isnan(x):
        raise ValueError("lambert_w0: argument is NaN")
    if x < BRANCH_POINT:
        if x < BRANCH_POINT - _DOMAIN_SLACK:
            raise ValueError(f"lambert_w0: argument {x} below branch point -1/e")
        x = BRANCH_POINT
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return math.inf

    # p = sqrt(2(e*x + 1)) parametrizes the distance to the branch point.
    p_sq = 2.0 * (math.e * x + 1.0)
    if p_sq <= 0.0:
        return -1.0

    # Initial guess.
    if x < -0.25:
        p = math.sqrt(p_sq)
        w = -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p * p * p
        if p_sq < 1e-6:
            # So close to the branch point (x < -0.36) that Halley's
            # denominators degenerate; the series is beyond double precision.
            return w
    elif x < 1.0:
        # Pade-flavored guess, adequate to start Halley anywhere in [-0.25, 1).
        w = x * (1.0 - x * (1.0 - 1.5 * x) / (1.0 + x))
        if w <= -1.0:
            w = -0.99
    else:
        l1 = math.log(x)
        l2 = math.log(l1) if l1 > 0.0 else 0.0
        w = l1 - l2 + l2 / l1 if l1 > 1.0 else 0.5 * l1 + 0.2

    # Halley iteration on f(w) = w*exp(w) - x.
    for _ in range(60):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        if denom == 0.0:
            break
        dw = f / denom
        w -= dw
        if abs(dw) <= 1e-15 * (1.0 + abs(w)):
            break
    return w


def lambert_w0_of_log(ln_x: float) -> float:
    """Principal Lambert W of exp(ln_x), stable for arguments beyond float range.

    Solves ``w + ln(w) = ln_x`` directly, so callers can evaluate W of a
    product whose factors overflow individually. Falls back to ``lambert_w0``
    when exp(ln_x) is representable.
    """
    if math.isnan(ln_x):
        raise ValueError("lambert_w0_of_log: argument is NaN")
    if ln_x < 700.0:
        return lambert_w0(math.exp(ln_x))
    w = ln_x - math.log(ln_x)
    for _ in range(40):
        dw = (w + math.log(w) - ln_x) / (1.0 + 1.0 / w)
        w -= dw
        if abs(dw) <= 1e-15 * w:
            break
    return w


def exp_e1(x: float) -> float:
    """Exponential integral E1(x) = integral_x^inf exp(-t)/t dt, x > 0."""
    if math.isnan(x):
        raise ValueError("exp_e1: argument is NaN")
    if x <= 0.0:
        raise ValueError(f"exp_e1: argument must be > 0, got {x}")
    if x <= 1.0:
        return _e1_series(x)
    return _e1_continued_fraction(x)


def _e1_series(x: float) -> float:
    # E1(x) = -gamma - ln x + sum_{k>=1} (-1)^(k+1) x^k / (k * k!)
    acc = -_EULER_GAMMA - math.log(x)
    term = 1.0
    for k in range(1, 80):
        term *= -x / k
        contrib = -term / k
        acc += contrib
        if abs(contrib) < 1e-18 * max(abs(acc), 1e-300):
            break
    return acc


def _e1_continued_fraction(x: float) -> float:
    # E1(x) = exp(-x) / (x + 1 - 1^2/(x + 3 - 2^2/(x + 5 - ...))), evaluated
    # with the modified Lentz algorithm.
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    f = d
    for k in range(1, 200):
        a = -(k * k)
        b += 2.0
        d = 1.0 / (b + a * d)
        c = b + a / c
        if c == 0.0:
            c = tiny
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(-x) * f
