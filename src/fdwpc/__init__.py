"""Capacity, benchmark and simulation of a full-duplex wirelessly powered link."""

from .fading import FadingDistribution, custom, deterministic, from_file, rayleigh
from .hd import HdResult, solve_hd
from .sim import SimConfig, SimTrace, simulate
from .solver import (
    CapacityResult,
    FloatRangeError,
    MultiplierSet,
    PowerAllocation,
    capacity_case1,
    capacity_no_fading,
    rayleigh_capacity_closed_form,
    solve,
    waterfill_case1,
    x0_of_h,
)
from .specfun import exp_e1, lambert_w0
from .units import (
    LinkParams,
    PathLossParams,
    RecycleOverUnityError,
    db_to_linear,
    dbm_to_watt,
    linear_to_db,
    omega_from_path_loss,
    watt_to_dbm,
)

__version__ = "0.1.0"

__all__ = [
    "FadingDistribution",
    "custom",
    "deterministic",
    "from_file",
    "rayleigh",
    "HdResult",
    "solve_hd",
    "SimConfig",
    "SimTrace",
    "simulate",
    "CapacityResult",
    "FloatRangeError",
    "MultiplierSet",
    "PowerAllocation",
    "capacity_case1",
    "capacity_no_fading",
    "rayleigh_capacity_closed_form",
    "solve",
    "waterfill_case1",
    "x0_of_h",
    "exp_e1",
    "lambert_w0",
    "LinkParams",
    "PathLossParams",
    "RecycleOverUnityError",
    "db_to_linear",
    "dbm_to_watt",
    "linear_to_db",
    "omega_from_path_loss",
    "watt_to_dbm",
    "__version__",
]
