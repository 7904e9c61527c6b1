"""fdwpc benchmark: CLI sweeps, cold solves and the achievability run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cli_sweeps --seed 0 --seconds 20 --trace 0

``--workload`` is one of cli_sweeps, solve_cold, simulate, or ``all`` (each
workload in its own process, one after the other). ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs with span wrappers and prints the
per-layer metrics, writing the spans to ``.perfbench_out/``. The last line of
standard output is the result object; the line before it records the
environment. ``--tiny`` shrinks every workload for the benchmark's own tests.

The package is imported from ``src/`` of the checkout; without it the run
exits with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

# One BLAS/OpenMP thread: the workloads are single-client, single-thread.
# Set before numpy is imported, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("cli_sweeps", "solve_cold", "simulate")
# Fresh interpreters timed per run for setup_s (at --tiny sizes, 3); the
# median is reported.
SETUP_RUNS = 21


def _import_program():
    if not (SRC / "fdwpc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fdwpc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import fdwpc

    if Path(fdwpc.__file__).resolve().parent != SRC / "fdwpc":
        sys.exit(f"perfbench: imported fdwpc from {fdwpc.__file__}, not from {SRC}")
    from fdbench import runner, workloads

    return runner, workloads


def _git_sha() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _run_all(args) -> int:
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        print(f"# workload {name}", flush=True)
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for tests")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    runner, workloads = _import_program()
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, scratch, args.tiny)
        if args.setup_only:
            return 0
        if not args.trace:
            setup_cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                         "--workload", args.workload, "--seed", str(args.seed)]
            setup_runs = 3 if args.tiny else SETUP_RUNS
            setup = runner.measure_setup(setup_cmd + ["--tiny"] * args.tiny, ROOT, setup_runs)
        spans_path = None
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        res = runner.run(wl, args.seconds, bool(args.trace), spans_path)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if not args.trace:
        res.metrics["setup_s"], res.raw["setup_s"] = setup
        res.samples["setup_s"] = setup_runs
    import numpy

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "passes": res.passes,
        "samples": res.samples,
        "spans_file": str(spans_path.relative_to(ROOT)) if spans_path else None,
    }
    if res.raw:
        meta["raw"] = res.raw
    if res.layers:
        meta["layers"] = res.layers
    runner.report_errors(res.errors)
    units = runner.PER_LAYER_UNITS if args.trace else runner.END_TO_END_UNITS
    print(json.dumps({"meta": meta}))
    print(json.dumps(runner.result_line(res, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
