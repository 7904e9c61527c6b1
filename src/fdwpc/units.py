"""Physical link parameters and unit conversions.

All internal computation is in SI units (watts, Hz, meters). dB and dBm
appear only at the interface boundary, so the solvers never see log-scale
quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

SPEED_OF_LIGHT_M_S = 299_792_458.0


class RecycleOverUnityError(ValueError):
    """Raised when eta * (g1_mean**2 + alpha1) >= 1.

    A recycle coefficient at or above one would mean the harvesting user
    recovers at least as much energy as it spends, which breaks every
    energy balance downstream.
    """


@dataclass(frozen=True)
class LinkParams:
    """All physical constants of the point-to-point link.

    Attributes
    ----------
    eta : dimensionless harvesting efficiency, 0 < eta < 1.
    p_proc : processing power of the harvesting user, W. ``solver`` charges it
        in every fading state, idle ones included; ``hd`` charges it for the
        whole transmit phase; ``sim.simulate`` only in slots it transmits.
    p_et : energy-transmitter average power budget, W.
    sigma2_sq : receiver noise power at the energy transmitter, W.
    g1_mean : mean amplitude gain of the harvesting user's self-interference
        channel (dimensionless).
    alpha1 : variance of the harvesting user's self-interference gain.
    alpha2 : variance of the energy transmitter's residual self-interference
        gain (the known-mean part is assumed cancelled).

    The fields that must be >= 0 (p_proc, p_et, sigma2_sq, alpha1, alpha2)
    store -0.0 as 0.0, so that a noise power of -0.0 floors as 0.0 does.
    """

    eta: float
    p_proc: float
    p_et: float
    sigma2_sq: float
    g1_mean: float = 0.0
    alpha1: float = 0.0
    alpha2: float = 0.0
    # Recycle coefficient eta*(g1_mean^2 + alpha1); cached because every
    # energy balance divides by (1 - rho).
    rho: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.eta < 1.0):
            raise ValueError(f"eta must be in (0, 1), got {self.eta}")
        for name in ("p_proc", "p_et", "sigma2_sq", "alpha1", "alpha2"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
            if v == 0.0:
                object.__setattr__(self, name, 0.0)
        if not math.isfinite(self.g1_mean):
            raise ValueError(f"g1_mean must be finite, got {self.g1_mean}")
        # ** overflows past 1.3e154, where rho >= 1 anyway; x*x would round 0.0397**2 apart.
        g1_sq = self.g1_mean**2 if abs(self.g1_mean) < 1e154 else math.inf
        rho = self.eta * (g1_sq + self.alpha1)
        if rho >= 1.0:
            raise RecycleOverUnityError(
                f"recycle coefficient eta*(g1_mean^2+alpha1) = {rho} >= 1"
            )
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class PathLossParams:
    """Carrier frequency, distance and exponent of the power-law path loss."""

    f_c: float
    d: float
    gamma: float
    c: float = SPEED_OF_LIGHT_M_S

    def __post_init__(self) -> None:
        if self.f_c <= 0.0:
            raise ValueError(f"f_c must be > 0, got {self.f_c}")
        if self.d <= 0.0:
            raise ValueError(f"d must be > 0, got {self.d}")
        if self.gamma < 2.0:
            raise ValueError(f"gamma must be >= 2, got {self.gamma}")


def dbm_to_watt(x_dbm: float) -> float:
    """Convert a power from dBm to watts."""
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


def watt_to_dbm(x_w: float) -> float:
    """Convert a power from watts to dBm."""
    if x_w <= 0.0:
        raise ValueError(f"power must be > 0 to express in dBm, got {x_w}")
    return 10.0 * math.log10(x_w) + 30.0


def db_to_linear(x_db: float) -> float:
    """Convert a ratio from dB to linear scale."""
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    """Convert a linear ratio to dB."""
    if x <= 0.0:
        raise ValueError(f"ratio must be > 0 to express in dB, got {x}")
    return 10.0 * math.log10(x)


def omega_from_path_loss(p: PathLossParams) -> float:
    """Average fading power E[H^2] from the power-law link budget.

    Returns (c / (4*pi*f_c))^2 * d^(-gamma).
    """
    return (p.c / (p.f_c * 4.0 * math.pi)) ** 2 * p.d ** (-p.gamma)

