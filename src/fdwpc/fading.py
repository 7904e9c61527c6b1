"""Discrete block-fading distributions over the channel amplitude gain.

The ergodic quantities downstream are all finite sums over fading states, so
continuous fading laws are represented by a finite pmf. Rayleigh fading is
discretized by equiprobable inverse-CDF quantization at probability midpoints,
which makes the solver's sums an importance-sampled quadrature of the
continuous expectations.

Convention: E[H^2] = omega, i.e. H^2 is exponential with mean omega and the
amplitude pdf is (2h/omega) * exp(-h^2/omega).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["FadingDistribution", "deterministic", "rayleigh", "custom", "from_file"]

_PROB_TOL = 1e-9


@dataclass(frozen=True)
class FadingDistribution:
    """Finite pmf over channel amplitude gains, sorted ascending.

    ``h2`` is the squared gains h*h (read-only, in the same order) and
    ``mean_square`` the average fading power sum(h2 * p).
    """

    h: np.ndarray
    p: np.ndarray
    h2: np.ndarray = field(init=False, repr=False)
    mean_square: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        h = np.asarray(self.h, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if h.ndim != 1 or p.ndim != 1 or h.size != p.size or h.size == 0:
            raise ValueError("h and p must be equal-length 1-D arrays")
        if np.any(h < 0.0) or not np.all(np.isfinite(h)):
            raise ValueError("gains must be finite and >= 0")
        if np.any(p <= 0.0) or not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite and > 0")
        if abs(p.sum() - 1.0) > _PROB_TOL:
            raise ValueError(f"probabilities must sum to 1, got {p.sum()!r}")
        order = np.argsort(h, kind="stable")
        h = np.ascontiguousarray(h[order])
        p = np.ascontiguousarray(p[order] / p.sum())
        h2 = h * h
        for name, a in (("h", h), ("p", p), ("h2", h2)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "mean_square", float(np.dot(h2, p)))

    @property
    def n_states(self) -> int:
        return int(self.h.size)

    def sample_indices(self, rng_seed: int, n: int) -> np.ndarray:
        """Draw n i.i.d. state indices; deterministic for a fixed seed."""
        rng = np.random.default_rng(rng_seed)
        return rng.choice(self.n_states, size=n, p=self.p)


def deterministic(h: float) -> FadingDistribution:
    """Single-state distribution: the channel gain is h with probability 1."""
    if h < 0.0 or not math.isfinite(h):
        raise ValueError(f"gain must be finite and >= 0, got {h}")
    return FadingDistribution(np.array([h]), np.array([1.0]))


def rayleigh(omega: float, n_states: int) -> FadingDistribution:
    """Equiprobable quantization of Rayleigh fading with E[H^2] = omega.

    State j carries the amplitude at the probability midpoint of its cell:
    h_j = sqrt(-omega * ln(1 - (j - 1/2)/n)), each with probability 1/n.
    The quantized mean square falls short of omega by a relative bias below
    1e-3 at 1000+ states.
    """
    if omega <= 0.0 or not math.isfinite(omega):
        raise ValueError(f"omega must be finite and > 0, got {omega}")
    if n_states < 2:
        raise ValueError(f"n_states must be >= 2, got {n_states}")
    j = np.arange(1, n_states + 1, dtype=float)
    u = (j - 0.5) / n_states
    h = np.sqrt(-omega * np.log1p(-u))
    p = np.full(n_states, 1.0 / n_states)
    return FadingDistribution(h, p)


def custom(h, p) -> FadingDistribution:
    """Distribution from explicit (gain, probability) arrays."""
    h = np.asarray(h, dtype=float)
    p = np.asarray(p, dtype=float)
    if h.size == 0 or p.size == 0:
        raise ValueError("at least one fading state is required")
    return FadingDistribution(h, p)


def from_file(path) -> FadingDistribution:
    """Load a custom distribution from a two-column text file.

    Each non-comment line holds ``h p`` (whitespace-separated); ``#`` starts
    a comment. Validation enforces the distribution invariants.
    """
    hs: list[float] = []
    ps: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'h p', got {raw!r}")
            try:
                hs.append(float(parts[0]))
                ps.append(float(parts[1]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric entry") from exc
    if not hs:
        raise ValueError(f"{path}: no states found")
    return custom(np.array(hs), np.array(ps))
