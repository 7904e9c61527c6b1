"""Command-line sweeps and the simulator front end, emitting CSV.

Subcommands map one-to-one onto the library's solvers:

* ``capacity-sweep``   capacity and benchmark rate vs the transmitter budget
* ``ratio-sweep``      full-duplex/half-duplex rate ratio vs suppression
* ``recycle-sweep``    capacity vs the user's self-interference recycle gain
* ``pcost-compare``    capacity vs transmitter budget for several processing costs
* ``simulate``         slotted Monte Carlo of the achievability scheme

Scenario defaults mirror the reference setup: eta 0.8, carrier 2.4 GHz, path
loss exponent 3, distance 10 m, noise 1e-14 W, processing cost -10 dBm,
Rayleigh fading quantized to 2000 states. Identical command lines (including
the seed) produce byte-identical CSV: no timestamps, no environment
dependence.

``main(argv)`` may be called any number of times in one process. The
argument parser is built on the first call, not at import, and shared by
every later call; no default it hands out is mutable, so one call cannot
change the next. Exit codes stay 0 for ok and 2 for a usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import fading as fading_mod
from . import hd, sim, solver
from .units import (
    LinkParams,
    PathLossParams,
    db_to_linear,
    dbm_to_watt,
    omega_from_path_loss,
)

_F_C_HZ = 2.4e9
_GAMMA = 3.0
# Grid steps a sweep may ask for: grid value i is start + step * i, and past
# 2**53 a step index is not an exact float, so the grid would repeat values.
_MAX_GRID = 2**53


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _add_scenario_args(p: argparse.ArgumentParser, *, pp_list: bool = False) -> None:
    p.add_argument("--distance-m", type=float, default=10.0)
    p.add_argument("--pet-dbm", type=float, default=30.0)
    if pp_list:
        p.add_argument(
            "--pp-dbm",
            type=float,
            nargs="+",
            default=(-10.0, 10.0),
            help="processing costs in dBm (one row set per value)",
        )
        p.add_argument(
            "--pp-zero",
            action="store_true",
            help="also include a zero-processing-cost run",
        )
    else:
        p.add_argument("--pp-dbm", type=float, default=-10.0)
        p.add_argument(
            "--pp-watts",
            type=float,
            default=None,
            help="processing cost in watts; overrides --pp-dbm (0 allowed)",
        )
    p.add_argument("--eta", type=float, default=0.8)
    p.add_argument("--alpha1", type=float, default=0.0)
    p.add_argument("--g1-mean", type=float, default=0.0)
    p.add_argument("--suppression-db", type=float, default=100.0)
    p.add_argument("--noise-watts", type=float, default=1e-14)
    p.add_argument(
        "--fading-states",
        type=int,
        default=2000,
        help="Rayleigh quantization states; 1 means an unfaded link",
    )
    p.add_argument(
        "--fading-file",
        default=None,
        help="two-column text file (h p) overriding the Rayleigh model",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")


def _scenario_fading(args) -> fading_mod.FadingDistribution:
    if args.fading_file is not None:
        return fading_mod.from_file(args.fading_file)
    if args.fading_states < 1:
        raise ValueError(f"--fading-states must be >= 1, got {args.fading_states}")
    omega = _converted(
        "--distance-m",
        lambda d: omega_from_path_loss(PathLossParams(_F_C_HZ, d, _GAMMA)),
        args.distance_m,
    )
    if not omega > 0.0:  # a path loss that underflows to 0
        raise ValueError(f"--distance-m: {args.distance_m:g} is out of range")
    if args.fading_states == 1:
        return fading_mod.deterministic(math.sqrt(omega))
    return fading_mod.rayleigh(omega, args.fading_states)


def _alpha2(suppression_db: float) -> float:
    return 1.0 / db_to_linear(suppression_db)


def _converted(flag: str, convert, value: float) -> float:
    """``convert(value)``; a result past the float range names ``flag``."""
    try:
        return convert(value)
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"{flag}: {value:g} is out of range") from None


def _scenario_params(args, **fields) -> LinkParams:
    """The link the scenario flags describe, with ``fields`` set directly.

    A flag is converted only when ``fields`` leaves its field unset, so the
    flag a sweep replaces is never read: its value may be out of range and
    ``pcost-compare``'s ``--pp-dbm`` may be a sequence.
    """
    if "p_proc" not in fields:
        pp = args.pp_watts
        fields["p_proc"] = _converted("--pp-dbm", dbm_to_watt, args.pp_dbm) if pp is None else pp
    if "p_et" not in fields:
        fields["p_et"] = _converted("--pet-dbm", dbm_to_watt, args.pet_dbm)
    if "alpha2" not in fields:
        fields["alpha2"] = _converted("--suppression-db", _alpha2, args.suppression_db)
    scenario = dict(
        eta=args.eta, sigma2_sq=args.noise_watts, g1_mean=args.g1_mean, alpha1=args.alpha1
    )
    return LinkParams(**(scenario | fields))


def _capacity_rows(args, fad, pet_dbm: float):
    params = _scenario_params(args, p_et=_converted("--start/--stop", dbm_to_watt, pet_dbm))
    res = solver.solve(params, fad)
    bench = hd.solve_hd(params, fad)
    yield f"{_fmt(pet_dbm)},{_fmt(res.capacity)},{_fmt(bench.rate)},{res.case}"


def _ratio_rows(args, fad, supp: float):
    params = _scenario_params(args, alpha2=_converted("--start/--stop", _alpha2, supp))
    res = solver.solve(params, fad)
    bench = hd.solve_hd(params, fad)
    ratio = res.capacity / bench.rate if bench.rate > 0.0 else math.nan
    yield f"{_fmt(supp)},{_fmt(ratio)}"


def _recycle_rows(args, fad, rec: float):
    res = solver.solve(_scenario_params(args, alpha1=rec), fad)
    yield f"{_fmt(rec)},{_fmt(res.capacity)}"


def _pcost_rows(args, fad, pet_dbm: float):
    p_et = _converted("--start/--stop", dbm_to_watt, pet_dbm)
    pp_values = [_converted("--pp-dbm", dbm_to_watt, v) for v in args.pp_dbm]
    if args.pp_zero:
        pp_values = [0.0] + pp_values
    for pp_w in pp_values:
        params = _scenario_params(args, p_et=p_et, p_proc=pp_w)
        res = solver.solve(params, fad)
        yield f"{_fmt(pet_dbm)},{_fmt(pp_w)},{_fmt(res.capacity)}"


def cmd_sweep(args) -> int:
    """Write ``args.header`` and ``args.rows``' lines at each grid value as CSV."""
    for flag in ("start", "stop"):
        if not math.isfinite(getattr(args, flag)):
            raise ValueError(f"--{flag} must be finite")
    if not 0.0 < args.step < math.inf:
        raise ValueError("--step must be finite and > 0")
    count = (args.stop - args.start) / args.step
    if not abs(count) < math.inf:
        raise ValueError("--start/--stop/--step: the grid count is past the float range")
    if count >= _MAX_GRID:
        raise ValueError(f"--start/--stop/--step: {count:g} grid steps, at least 2**53")
    n = int(math.floor(count + 1e-9)) + 1
    if n < 1:
        raise ValueError("empty sweep range")
    fad = _scenario_fading(args)
    lines = [args.header]
    # The grid is formed a value at a time, with the bits of
    # start + step * np.arange(n), so no count allocates before a solve.
    for i in range(n):
        lines.extend(args.rows(args, fad, args.start + args.step * i))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# name, help, swept variable, default (start, stop, step), CSV header, rows
_SWEEPS = (
    ("capacity-sweep", "capacity and benchmark vs ET power", "ET power, dBm",
     (0.0, 35.0, 5.0), "variable,capacity_fd_bits,rate_hd_bits,case_tag", _capacity_rows),
    ("ratio-sweep", "FD/HD rate ratio vs suppression", "suppression, dB",
     (40.0, 100.0, 10.0), "suppression_db,ratio_fd_hd", _ratio_rows),
    ("recycle-sweep", "capacity vs recycle gain", "recycle gain",
     (0.0, 1.2, 0.1), "recycle,capacity_fd_bits", _recycle_rows),
    ("pcost-compare", "capacity vs ET power per processing cost", "ET power, dBm",
     (0.0, 35.0, 5.0), "pet_dbm,pp_watts,capacity_fd_bits", _pcost_rows),
)


def cmd_simulate(args) -> int:
    cfg = sim.SimConfig(k=args.k, n_slots=args.slots, seed=args.seed)
    fad = _scenario_fading(args)
    params = _scenario_params(args)
    res = solver.solve(params, fad)
    trace = sim.simulate(params, fad, res.allocation, cfg)
    summary = (
        "empirical_rate,analytic_capacity,outage_fraction\n"
        f"{_fmt(trace.empirical_rate)},{_fmt(res.capacity)},{_fmt(trace.outage_fraction)}\n"
    )
    if args.out:
        trace.to_csv(args.out)
        sys.stdout.write(summary)
    else:
        trace.write_csv(sys.stdout)
        sys.stderr.write(summary)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fdwpc",
        description="capacity sweeps and link simulation for a full-duplex "
        "wirelessly powered link",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name, help_, variable, (start, stop, step), header, rows in _SWEEPS:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--start", type=float, default=start, help=f"first {variable}")
        p.add_argument("--stop", type=float, default=stop, help=f"last {variable}")
        p.add_argument("--step", type=float, default=step)
        _add_scenario_args(p, pp_list=name == "pcost-compare")
        # The flag that set p_et, named when a flash power leaves the float range.
        pet_flag = "--start/--stop" if name in ("capacity-sweep", "pcost-compare") else "--pet-dbm"
        p.set_defaults(func=cmd_sweep, header=header, rows=rows, pet_flag=pet_flag)

    p = sub.add_parser("simulate", help="slotted Monte Carlo achievability run")
    p.add_argument("--k", type=int, default=200, help="channel uses per slot")
    p.add_argument("--slots", type=int, default=20000)
    _add_scenario_args(p)
    p.set_defaults(func=cmd_simulate, pet_flag="--pet-dbm")
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"fdwpc: {exc}\n")
        return 2
    except solver.FloatRangeError as exc:
        flag = "--noise-watts" if exc.field == "sigma2_sq" else args.pet_flag
        sys.stderr.write(f"fdwpc: {flag}: {exc}\n")
        return 2
    except (OverflowError, ZeroDivisionError) as exc:
        # A numeric flag whose unit conversion leaves the float range.
        sys.stderr.write(f"fdwpc: value out of range: {exc}\n")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
