"""The three benchmark workloads: their inputs, operations and output checks.

Every workload is built from a seed into a list of operations. One pass runs
each operation once, in order; the runner repeats passes as a closed loop
with one client until the measuring time is spent. An operation returns an
``Outcome``: how many capacity points it produced and the list of failed
checks (empty when the output is correct). The timed region of an operation
covers only the calls into ``fdwpc``; the checks run after it.

All calls go through module attributes (``solver.solve``, ``cli.main``, ...)
looked up at call time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from fdwpc import cli, fading, sim, solver, units

from . import checks

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "reference"

# Reference link of the CLI and the README: 2.4 GHz carrier, 10 m, exponent 3.
OMEGA_D10 = units.omega_from_path_loss(units.PathLossParams(2.4e9, 10.0, 3.0))
ETA = 0.8
NOISE_W = 1e-14
DEFAULT_SEED = 0


@dataclass
class Outcome:
    points: int
    errors: list[str] = field(default_factory=list)
    # Layer counts read off the output, added to the traced run's counters.
    counts: dict[str, float] = field(default_factory=dict)


@dataclass
class Operation:
    """One timed call into the program plus the check of its output.

    ``run`` returns whatever ``check`` needs; only ``run`` is timed.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    name: str
    ops: list[Operation]


# ---------------------------------------------------------------------------
# cli_sweeps: the three CSV sweeps at 2000 Rayleigh states
# ---------------------------------------------------------------------------

# (subcommand, start, stop, step); fixed grids, the seed does not change them.
CLI_SWEEPS = (
    ("capacity-sweep", 0.0, 35.0, 5.0),
    ("ratio-sweep", 40.0, 100.0, 10.0),
    ("recycle-sweep", 0.0, 1.2, 0.1),
)
CLI_SWEEPS_TINY = (
    ("capacity-sweep", 0.0, 35.0, 35.0),
    ("ratio-sweep", 40.0, 100.0, 60.0),
    ("recycle-sweep", 0.0, 1.2, 0.6),
)
CLI_STATES = 2000
CLI_STATES_TINY = 32


def cli_argv(sub: str, start: float, stop: float, step: float, states: int, out: Path) -> list[str]:
    return [
        sub,
        "--start", repr(start),
        "--stop", repr(stop),
        "--step", repr(step),
        "--pp-watts", "0",
        "--fading-states", str(states),
        "--out", str(out),
    ]


def cli_reference_path(sub: str, tiny: bool) -> Path:
    return REFERENCE_DIR / f"cli_{sub}{'_tiny' if tiny else ''}.csv"


def build_cli_sweeps(seed: int, scratch: Path, tiny: bool = False) -> Workload:
    del seed  # the grids are fixed
    sweeps = CLI_SWEEPS_TINY if tiny else CLI_SWEEPS
    states = CLI_STATES_TINY if tiny else CLI_STATES
    ops = []
    for sub, start, stop, step in sweeps:
        out = scratch / f"{sub}.csv"
        argv = cli_argv(sub, start, stop, step, states, out)
        reference = cli_reference_path(sub, tiny).read_text(encoding="utf-8")

        def run(argv=argv):
            return cli.main(argv)

        def check(code, out=out, reference=reference):
            text = ""
            if out.exists():
                text = out.read_text(encoding="utf-8")
                out.unlink()
            rows = checks.csv_data_rows(text)
            return Outcome(rows, checks.check_cli(code, text, reference), {"cli.rows": rows})

        ops.append(Operation(sub, run, check))
    return Workload("cli_sweeps", ops)


# ---------------------------------------------------------------------------
# solve_cold: independent links, no neighbour to warm-start from
# ---------------------------------------------------------------------------

# State-count bands x suppression bands; one link per cell.
SOLVE_GRID = (10, 8)
SOLVE_GRID_TINY = (3, 2)
SOLVE_STATES = (64, 8192)
SOLVE_STATES_TINY = (16, 256)


@dataclass(frozen=True)
class LinkSpec:
    n_states: int
    pet_dbm: float
    suppression_db: float
    alpha1: float
    # Processing cost as a share of the harvest, in [0, 0.5).
    pp_share: float


def _latin(rng: np.random.Generator, n: int) -> np.ndarray:
    """n stratified uniforms on [0, 1): one per stratum, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def draw_links(seed: int, grid: tuple[int, int], states: tuple[int, int]) -> list[LinkSpec]:
    """Stratified random links, so every seed costs about the same to solve.

    State count is log-uniform over ``states`` and suppression uniform in
    [60, 110] dB, drawn at a random point of each cell of a ``grid`` of
    bands: these two set most of a solve's cost. ET power (uniform in
    [0, 35] dBm) and alpha1 (uniform in [0, 0.5]) form a Latin hypercube.
    Alternate cells have zero processing cost, the others a uniform share
    below one half of the harvest.
    """
    rng = np.random.default_rng([seed, 0x501D])
    n_links = grid[0] * grid[1]
    row, col = np.divmod(np.arange(n_links), grid[1])
    lo, hi = math.log(states[0]), math.log(states[1])
    n = np.rint(np.exp(lo + (hi - lo) * (row + rng.random(n_links)) / grid[0])).astype(int)
    supp = 60.0 + 50.0 * (col + rng.random(n_links)) / grid[1]
    pet = 35.0 * _latin(rng, n_links)
    alpha1 = 0.5 * _latin(rng, n_links)
    share = np.where((row + col) % 2 == 0, 0.0, 0.5 * _latin(rng, n_links))
    return [
        LinkSpec(int(n[i]), float(pet[i]), float(supp[i]), float(alpha1[i]), float(share[i]))
        for i in range(n_links)
    ]


def link_inputs(spec: LinkSpec) -> tuple[units.LinkParams, fading.FadingDistribution]:
    fad = fading.rayleigh(OMEGA_D10, spec.n_states)
    p_et = units.dbm_to_watt(spec.pet_dbm)
    harvest = ETA * p_et * fad.mean_square
    params = units.LinkParams(
        eta=ETA,
        p_proc=spec.pp_share * harvest,
        p_et=p_et,
        sigma2_sq=NOISE_W,
        alpha1=spec.alpha1,
        alpha2=1.0 / units.db_to_linear(spec.suppression_db),
    )
    return params, fad


def solve_reference_path(tiny: bool) -> Path:
    return REFERENCE_DIR / f"solve_cold_seed{DEFAULT_SEED}{'_tiny' if tiny else ''}.json"


def build_solve_cold(seed: int, scratch: Path, tiny: bool = False) -> Workload:
    specs = draw_links(
        seed,
        SOLVE_GRID_TINY if tiny else SOLVE_GRID,
        SOLVE_STATES_TINY if tiny else SOLVE_STATES,
    )
    reference = None
    if seed == DEFAULT_SEED:
        reference = json.loads(solve_reference_path(tiny).read_text(encoding="utf-8"))
    ops = []
    for i, spec in enumerate(specs):
        params, fad = link_inputs(spec)
        ref = None if reference is None else reference[i]

        def run(params=params, fad=fad):
            return solver.solve(params, fad)

        def check(res, params=params, fad=fad, ref=ref):
            return Outcome(1, checks.check_solve(params, fad, res, ref))

        ops.append(Operation(f"link{i}", run, check))
    return Workload("solve_cold", ops)


# ---------------------------------------------------------------------------
# simulate: the achievability run of cmd_simulate, through the library
# ---------------------------------------------------------------------------

SIM_STATES = 16
SIM_K, SIM_SLOTS = 200, 20_000
SIM_K_TINY, SIM_SLOTS_TINY = 20, 2000
# (p_proc in W, alpha1, g1_mean) at p_et = 30 dBm and 100 dB suppression.
SIM_LINKS = (
    (units.dbm_to_watt(-75.0), 0.0, 0.0),
    (0.0, 0.5, 0.0),
    (units.dbm_to_watt(-70.0), 0.0, 0.5),
)


def build_simulate(seed: int, scratch: Path, tiny: bool = False) -> Workload:
    fad = fading.rayleigh(OMEGA_D10, SIM_STATES)
    k, n_slots = (SIM_K_TINY, SIM_SLOTS_TINY) if tiny else (SIM_K, SIM_SLOTS)
    slot_seeds = np.random.SeedSequence([seed, 0x5137]).generate_state(len(SIM_LINKS))
    ops = []
    for i, (pp, alpha1, g1_mean) in enumerate(SIM_LINKS):
        params = units.LinkParams(
            eta=ETA,
            p_proc=pp,
            p_et=1.0,
            sigma2_sq=NOISE_W,
            g1_mean=g1_mean,
            alpha1=alpha1,
            alpha2=1e-10,
        )
        cfg = sim.SimConfig(k=k, n_slots=n_slots, seed=int(slot_seeds[i]))
        out = scratch / f"trace{i}.csv"

        def run(params=params, cfg=cfg, out=out):
            res = solver.solve(params, fad)
            trace = sim.simulate(params, fad, res.allocation, cfg)
            trace.to_csv(out)
            return res, trace

        def check(result, params=params, cfg=cfg, out=out):
            res, trace = result
            errors = checks.check_solve(params, fad, res) + checks.check_simulate(
                params, fad, res, trace, cfg
            )
            with open(out, encoding="utf-8") as fh:
                lines = sum(1 for _ in fh)
            out.unlink()
            if lines != cfg.n_slots + 1:
                errors.append(f"trace CSV has {lines} lines, want {cfg.n_slots + 1}")
            return Outcome(1, errors)

        ops.append(Operation(f"link{i}", run, check))
    return Workload("simulate", ops)


MAKE = {
    "cli_sweeps": build_cli_sweeps,
    "solve_cold": build_solve_cold,
    "simulate": build_simulate,
}


def build(name: str, seed: int, scratch: Path, tiny: bool = False) -> Workload:
    """Inputs and operations of workload ``name``; temp outputs go to ``scratch``."""
    os.makedirs(scratch, exist_ok=True)
    return MAKE[name](seed, scratch, tiny)
