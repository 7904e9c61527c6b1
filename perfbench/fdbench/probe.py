"""Machine-speed probe: times are reported at a fixed reference speed.

The benchmark shares a 2-CPU virtual machine with other tenants, and the
speed at which it runs the same code drifts by up to 1.5x over minutes, with
no steal time visible to the guest. Raw wall times of two runs therefore
differ more than any useful regression bound. The probe is a fixed slice of
work shaped like this code base -- a Python loop making small numpy calls --
run right before and after every timed call. A call's time divided by the
probe time around it is its cost in probe units, which the speed drift
largely cancels; multiplied by ``REFERENCE_S`` it reads as seconds on a
machine where the probe takes ``REFERENCE_S``. The probe is the benchmark's
own code and never calls the program, so a change to the program moves the
scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

# Probe time on the machine the benchmark was defined on, in a quiet phase.
REFERENCE_S = 0.020

_SLOTS, _USES = 2000, 64


def speed_probe() -> float:
    """Seconds taken by the probe's fixed work."""
    rng = np.random.default_rng(0x5EED)
    level = 1.0
    t0 = time.perf_counter()
    for _ in range(_SLOTS):
        x = rng.normal(0.0, 1.0, _USES)
        d = np.cumsum(x * x - 1.0)
        if level + float(np.min(d)) >= 0.0:
            level += float(np.sum(x * x)) - _USES
        else:
            for v in x[:8]:
                level += min(level, float(v) * float(v))
    return time.perf_counter() - t0
