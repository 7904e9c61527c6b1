"""Record the reference outputs the benchmark's checks compare against.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference/``: the CSV of every ``cli_sweeps`` command and
the ``solve_cold`` case and capacity of every link at the default seed, for
the full and the tiny sizes. Run it only when the program's numbers are meant
to change, and say so in the change that commits the new files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from fdwpc import cli, solver  # noqa: E402
from fdbench import workloads as w  # noqa: E402


def main() -> int:
    w.REFERENCE_DIR.mkdir(exist_ok=True)
    for tiny in (False, True):
        sweeps = w.CLI_SWEEPS_TINY if tiny else w.CLI_SWEEPS
        states = w.CLI_STATES_TINY if tiny else w.CLI_STATES
        for sub, start, stop, step in sweeps:
            out = w.cli_reference_path(sub, tiny)
            code = cli.main(w.cli_argv(sub, start, stop, step, states, out))
            if code != 0:
                raise SystemExit(f"{sub} exited with {code}")
        specs = w.draw_links(
            w.DEFAULT_SEED,
            w.SOLVE_GRID_TINY if tiny else w.SOLVE_GRID,
            w.SOLVE_STATES_TINY if tiny else w.SOLVE_STATES,
        )
        refs = []
        for spec in specs:
            res = solver.solve(*w.link_inputs(spec))
            refs.append({"case": res.case, "capacity": res.capacity})
        w.solve_reference_path(tiny).write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
