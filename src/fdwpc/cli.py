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
dependence. Exit codes: 0 ok, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

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
            default=[-10.0, 10.0],
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


def _grid(args) -> np.ndarray:
    if args.step <= 0.0:
        raise ValueError("--step must be > 0")
    n = int(math.floor((args.stop - args.start) / args.step + 1e-9)) + 1
    if n < 1:
        raise ValueError("empty sweep range")
    return args.start + args.step * np.arange(n)


def _scenario_fading(args, omega: float) -> fading_mod.FadingDistribution:
    if args.fading_file is not None:
        return fading_mod.from_file(args.fading_file)
    if args.fading_states == 1:
        return fading_mod.deterministic(math.sqrt(omega))
    return fading_mod.rayleigh(omega, args.fading_states)


def _scenario_params(
    args, *, pet_w=None, pp_w=None, alpha1=None, suppression_db=None
) -> LinkParams:
    if pp_w is None:
        pp_w = (
            args.pp_watts
            if getattr(args, "pp_watts", None) is not None
            else dbm_to_watt(args.pp_dbm)
        )
    supp = suppression_db if suppression_db is not None else args.suppression_db
    return LinkParams(
        eta=args.eta,
        p_proc=pp_w,
        p_et=pet_w if pet_w is not None else dbm_to_watt(args.pet_dbm),
        sigma2_sq=args.noise_watts,
        g1_mean=args.g1_mean,
        alpha1=alpha1 if alpha1 is not None else args.alpha1,
        alpha2=1.0 / db_to_linear(supp),
    )


def _emit(args, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _omega(args) -> float:
    return omega_from_path_loss(PathLossParams(_F_C_HZ, args.distance_m, _GAMMA))


def cmd_capacity_sweep(args) -> int:
    grid = _grid(args)
    om = _omega(args)
    fad = _scenario_fading(args, om)
    lines = ["variable,capacity_fd_bits,rate_hd_bits,case_tag"]
    for pet_dbm in grid:
        params = _scenario_params(args, pet_w=dbm_to_watt(float(pet_dbm)))
        res = solver.solve(params, fad)
        bench = hd.solve_hd(params, fad)
        lines.append(
            f"{_fmt(float(pet_dbm))},{_fmt(res.capacity)},{_fmt(bench.rate)},{res.case}"
        )
    _emit(args, lines)
    return 0


def cmd_ratio_sweep(args) -> int:
    grid = _grid(args)
    om = _omega(args)
    fad = _scenario_fading(args, om)
    lines = ["suppression_db,ratio_fd_hd"]
    for supp in grid:
        params = _scenario_params(args, suppression_db=float(supp))
        res = solver.solve(params, fad)
        bench = hd.solve_hd(params, fad)
        ratio = res.capacity / bench.rate if bench.rate > 0.0 else math.nan
        lines.append(f"{_fmt(float(supp))},{_fmt(ratio)}")
    _emit(args, lines)
    return 0


def cmd_recycle_sweep(args) -> int:
    grid = _grid(args)
    om = _omega(args)
    fad = _scenario_fading(args, om)
    lines = ["recycle,capacity_fd_bits"]
    for rec in grid:
        params = _scenario_params(args, alpha1=float(rec))
        res = solver.solve(params, fad)
        lines.append(f"{_fmt(float(rec))},{_fmt(res.capacity)}")
    _emit(args, lines)
    return 0


def cmd_pcost_compare(args) -> int:
    grid = _grid(args)
    om = _omega(args)
    fad = _scenario_fading(args, om)
    pp_values = [dbm_to_watt(v) for v in args.pp_dbm]
    if args.pp_zero:
        pp_values = [0.0] + pp_values
    lines = ["pet_dbm,pp_watts,capacity_fd_bits"]
    for pet_dbm in grid:
        for pp_w in pp_values:
            params = _scenario_params(args, pet_w=dbm_to_watt(float(pet_dbm)), pp_w=pp_w)
            res = solver.solve(params, fad)
            lines.append(f"{_fmt(float(pet_dbm))},{_fmt(pp_w)},{_fmt(res.capacity)}")
    _emit(args, lines)
    return 0


def cmd_simulate(args) -> int:
    om = _omega(args)
    fad = _scenario_fading(args, om)
    params = _scenario_params(args)
    res = solver.solve(params, fad)
    cfg = sim.SimConfig(k=args.k, n_slots=args.slots, seed=args.seed)
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


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fdwpc",
        description="capacity sweeps and link simulation for a full-duplex "
        "wirelessly powered link",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity-sweep", help="capacity and benchmark vs ET power")
    p.add_argument("--start", type=float, default=0.0, help="first ET power, dBm")
    p.add_argument("--stop", type=float, default=35.0, help="last ET power, dBm")
    p.add_argument("--step", type=float, default=5.0)
    _add_scenario_args(p)
    p.set_defaults(func=cmd_capacity_sweep)

    p = sub.add_parser("ratio-sweep", help="FD/HD rate ratio vs suppression")
    p.add_argument("--start", type=float, default=40.0, help="first suppression, dB")
    p.add_argument("--stop", type=float, default=100.0, help="last suppression, dB")
    p.add_argument("--step", type=float, default=10.0)
    _add_scenario_args(p)
    p.set_defaults(func=cmd_ratio_sweep)

    p = sub.add_parser("recycle-sweep", help="capacity vs recycle gain")
    p.add_argument("--start", type=float, default=0.0, help="first recycle gain")
    p.add_argument("--stop", type=float, default=1.2, help="last recycle gain")
    p.add_argument("--step", type=float, default=0.1)
    _add_scenario_args(p)
    p.set_defaults(func=cmd_recycle_sweep)

    p = sub.add_parser("pcost-compare", help="capacity vs ET power per processing cost")
    p.add_argument("--start", type=float, default=0.0, help="first ET power, dBm")
    p.add_argument("--stop", type=float, default=35.0, help="last ET power, dBm")
    p.add_argument("--step", type=float, default=5.0)
    _add_scenario_args(p, pp_list=True)
    p.set_defaults(func=cmd_pcost_compare)

    p = sub.add_parser("simulate", help="slotted Monte Carlo achievability run")
    p.add_argument("--k", type=int, default=200, help="channel uses per slot")
    p.add_argument("--slots", type=int, default=20000)
    _add_scenario_args(p)
    p.set_defaults(func=cmd_simulate)
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


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
