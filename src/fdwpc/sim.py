"""Symbol-level Monte Carlo of the slotted achievability scheme.

Transmission proceeds in slots of k channel uses over a block-fading draw.
The energy transmitter radiates its per-state amplitude for the whole slot.
The harvesting user transmits a Gaussian codeword in a slot only when its
battery at slot start covers the slot's full expected demand
k * (p_proc + p_ehu(h)); otherwise it sleeps and only harvests. Per channel
use the battery absorbs the harvested energy (channel signal plus recycled
self-interference) and releases min(level, demand), so it can never go
negative.

Slot rates are analytic (decoding is not simulated); receiver noises and the
transmitter's own residual self-interference are therefore never drawn --
they affect decoding, not harvesting. Only the fading state, the user's
codeword symbols and its self-interference gain are sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fading import FadingDistribution
from .solver import PowerAllocation, _rate_bits
from .units import LinkParams

__all__ = ["SimConfig", "SimTrace", "simulate"]


@dataclass(frozen=True)
class SimConfig:
    """Slot structure and reproducibility knobs for one simulation run."""

    k: int = 200
    n_slots: int = 20_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.n_slots < 1:
            raise ValueError(f"n_slots must be >= 1, got {self.n_slots}")


@dataclass(frozen=True)
class SimTrace:
    """Per-slot history and run aggregates.

    ``empirical_rate`` counts every slot in the denominator, transmitting or
    not, so the warm-up slots are paid for exactly as the scheme prescribes.
    """

    fading_state: np.ndarray
    h: np.ndarray
    transmitted: np.ndarray
    slot_rate_bits: np.ndarray
    battery_j: np.ndarray
    empirical_rate: float
    # Fraction of slots where the allocation scheduled a transmission but the
    # battery could not cover it. Slots the allocation itself keeps silent
    # (zero codeword power for that fading state) are not outages.
    outage_fraction: float
    mean_harvest_w: float
    mean_consumed_w: float
    energy_in_total: float
    energy_out_total: float
    battery_final: float

    def to_csv(self, path) -> None:
        """Write the per-slot trace: slot, h, transmitted, rate, battery."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("slot,h,transmitted,slot_rate_bits,battery_j\n")
            for i in range(self.h.size):
                fh.write(
                    f"{i},{self.h[i]:.12e},{int(self.transmitted[i])},"
                    f"{self.slot_rate_bits[i]:.12e},{self.battery_j[i]:.12e}\n"
                )


def simulate(
    params: LinkParams,
    fading: FadingDistribution,
    alloc: PowerAllocation,
    cfg: SimConfig,
) -> SimTrace:
    """Run the slotted scheme and account for every joule.

    Battery starts empty; the initial silent slots are the warm-up and stay
    in the rate denominator. Fully reproducible for a fixed seed.
    """
    # Distinct stream from the fading draws, which hash the bare seed.
    rng = np.random.default_rng([cfg.seed, 0x5107])
    k = cfg.k
    n_slots = cfg.n_slots
    states = fading.sample_indices(cfg.seed, n_slots)
    x2 = alloc.x2
    p_ehu = alloc.p_ehu
    h = fading.h
    rates = _rate_bits(h**2, p_ehu, params.sigma2_sq + params.alpha2 * x2**2)
    g1_sd = math.sqrt(params.alpha1)

    level = 0.0
    e_in_total = 0.0
    e_out_total = 0.0
    transmitted = np.zeros(n_slots, dtype=bool)
    battery_end = np.zeros(n_slots)
    for i in range(n_slots):
        st = int(states[i])
        hx2 = h[st] * x2[st]
        demand_slot = k * (params.p_proc + p_ehu[st])
        if p_ehu[st] > 0.0 and level >= demand_slot:
            transmitted[i] = True
            x1 = rng.normal(0.0, math.sqrt(p_ehu[st]), k)
            g1 = rng.normal(0.0, g1_sd, k) if g1_sd > 0.0 else np.zeros(k)
            amp = hx2 + (params.g1_mean + g1) * x1
            e_in = params.eta * amp * amp
            demand = x1 * x1 + params.p_proc
            # Fast path: if the battery never dips below the running demand,
            # the min clause never engages and the slot reduces to sums.
            delta = np.cumsum(e_in - demand)
            if level + float(np.min(delta - e_in)) >= 0.0:
                e_out = float(np.sum(demand))
                e_in_sum = float(np.sum(e_in))
                level += e_in_sum - e_out
                e_in_total += e_in_sum
                e_out_total += e_out
            else:
                for j in range(k):
                    draw = min(level, float(demand[j]))
                    level += float(e_in[j]) - draw
                    e_in_total += float(e_in[j])
                    e_out_total += draw
        else:
            # Sleeping: the user spends nothing and only harvests the
            # transmitter's signal.
            e_in_sum = k * params.eta * hx2 * hx2
            level += e_in_sum
            e_in_total += e_in_sum
        battery_end[i] = level

    wanted = p_ehu[states] > 0.0
    n_outage = int((wanted & ~transmitted).sum())
    empirical = float(rates[states[transmitted]].sum()) / n_slots
    uses = n_slots * k
    return SimTrace(
        fading_state=states,
        h=h[states],
        transmitted=transmitted,
        slot_rate_bits=np.where(transmitted, rates[states], 0.0),
        battery_j=battery_end,
        empirical_rate=empirical,
        outage_fraction=n_outage / n_slots,
        mean_harvest_w=e_in_total / uses,
        mean_consumed_w=e_out_total / uses,
        energy_in_total=e_in_total,
        energy_out_total=e_out_total,
        battery_final=level,
    )
