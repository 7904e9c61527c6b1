"""Command-line contracts: columns, determinism, exit codes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fdwpc import cli, solver
from fdwpc.cli import main
from test_sim import assert_same_lines

# Small fading grids keep CLI tests quick; contracts don't depend on them.
FAST = ["--fading-states", "64"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows(text):
    return [line.split(",") for line in text.strip().splitlines()]


def test_capacity_sweep_contract(capsys):
    code, out, err = run_cli(
        ["capacity-sweep", "--start", "0", "--stop", "35", "--step", "5", "--pp-dbm", "-10"]
        + FAST,
        capsys,
    )
    assert code == 0
    table = rows(out)
    assert table[0] == ["variable", "capacity_fd_bits", "rate_hd_bits", "case_tag"]
    assert len(table) == 9  # header + 8 grid points
    # The reference processing cost of -10 dBm exceeds even the strongest
    # fading state's harvest at these link budgets: every row is the zero
    # allocation.
    assert all(float(r[1]) == 0.0 for r in table[1:])
    assert all(r[3] == "Zero" for r in table[1:])


def test_capacity_sweep_strictly_increasing_when_feasible(capsys):
    code, out, err = run_cli(
        ["capacity-sweep", "--start", "0", "--stop", "35", "--step", "5", "--pp-watts", "0"]
        + FAST,
        capsys,
    )
    assert code == 0
    caps = [float(r[1]) for r in rows(out)[1:]]
    assert all(b > a for a, b in zip(caps, caps[1:]))
    hd_rates = [float(r[2]) for r in rows(out)[1:]]
    assert all(c > h for c, h in zip(caps, hd_rates))


def test_capacity_sweep_distance_dominance(capsys):
    runs = {}
    for d in ("10", "20"):
        code, out, err = run_cli(
            [
                "capacity-sweep",
                "--start", "0", "--stop", "30", "--step", "10",
                "--pp-watts", "0", "--distance-m", d,
            ]
            + FAST,
            capsys,
        )
        assert code == 0
        runs[d] = [float(r[1]) for r in rows(out)[1:]]
    assert all(a >= b for a, b in zip(runs["10"], runs["20"]))


def test_byte_identical_output(tmp_path, capsys):
    argv = [
        "capacity-sweep", "--start", "0", "--stop", "20", "--step", "10",
        "--pp-watts", "0", "--seed", "5",
    ] + FAST
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_numeric_fields_have_12_significant_digits(capsys):
    code, out, err = run_cli(
        ["capacity-sweep", "--start", "10", "--stop", "10", "--step", "5", "--pp-watts", "0"]
        + FAST,
        capsys,
    )
    value = rows(out)[1][1]
    mantissa = value.split("e")[0]
    assert len(mantissa.split(".")[1]) >= 12


def test_ratio_sweep_contract(capsys):
    code, out, err = run_cli(
        ["ratio-sweep", "--start", "40", "--stop", "100", "--step", "20", "--pp-watts", "0"]
        + FAST,
        capsys,
    )
    assert code == 0
    table = rows(out)
    assert table[0] == ["suppression_db", "ratio_fd_hd"]
    assert len(table) == 5
    ratios = [float(r[1]) for r in table[1:]]
    assert all(b >= a - 1e-7 for a, b in zip(ratios, ratios[1:]))


def test_recycle_sweep_nondecreasing(capsys):
    code, out, err = run_cli(
        ["recycle-sweep", "--start", "0", "--stop", "1.2", "--step", "0.2", "--pp-watts", "0"]
        + FAST,
        capsys,
    )
    assert code == 0
    caps = [float(r[1]) for r in rows(out)[1:]]
    assert all(b >= a - 1e-9 for a, b in zip(caps, caps[1:]))


def test_pcost_compare_ordering(capsys):
    # Feasible processing costs well under the harvested power: capacity must
    # drop strictly as the cost rises, at every transmit power.
    code, out, err = run_cli(
        [
            "pcost-compare",
            "--start", "20", "--stop", "30", "--step", "5",
            "--pp-dbm", "-75", "-70", "--pp-zero",
        ]
        + FAST,
        capsys,
    )
    assert code == 0
    table = rows(out)
    assert table[0] == ["pet_dbm", "pp_watts", "capacity_fd_bits"]
    by_pet = {}
    for pet, pp, cap in table[1:]:
        by_pet.setdefault(pet, []).append((float(pp), float(cap)))
    for pet, entries in by_pet.items():
        entries.sort()
        caps = [c for _, c in entries]
        assert all(a > b for a, b in zip(caps, caps[1:])), pet


def test_simulate_summary_and_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    code, out, err = run_cli(
        [
            "simulate",
            "--k", "100", "--slots", "3000", "--seed", "3",
            "--pp-watts", "0", "--fading-states", "1",
            "--out", str(trace_path),
        ],
        capsys,
    )
    assert code == 0
    table = rows(out)
    assert table[0] == ["empirical_rate", "analytic_capacity", "outage_fraction"]
    emp, cap, outage = (float(v) for v in table[1])
    assert cap > 0.0
    assert abs(emp - cap) / cap < 0.05
    assert outage < 0.05
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "slot,h,transmitted,slot_rate_bits,battery_j"
    assert len(lines) == 3001


def test_simulate_stdout_trace(capsys):
    code, out, err = run_cli(
        ["simulate", "--k", "20", "--slots", "10", "--seed", "1", "--pp-watts", "0",
         "--fading-states", "1"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == "slot,h,transmitted,slot_rate_bits,battery_j"
    assert err.splitlines()[0] == "empirical_rate,analytic_capacity,outage_fraction"


def test_simulate_stdout_trace_matches_out_file(tmp_path, capsys):
    argv = ["simulate", "--k", "20", "--slots", "1500", "--seed", "2", "--pp-watts", "0",
            "--fading-states", "4"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    trace_path = tmp_path / "trace.csv"
    code, summary, _ = run_cli(argv + ["--out", str(trace_path)], capsys)
    assert code == 0
    assert_same_lines(out, trace_path.read_bytes().decode("utf-8"))
    assert err == summary


@pytest.mark.parametrize(
    "extra, digest",
    [
        (["--alpha1", "0.4"], "4cc8dc7c342e0975bd7b220e71a3a04be4839dfe36fe78c6ea7b4ae5ad336ea6"),
        (["--g1-mean", "0.5"], "ad41c0b36bdd20908bbef0adf19f8bd4458c82153067687f1b6a1daf2e03dbc5"),
        ([], "a074cadaec6b2d4c58f67fdb09f8aa191b4f22f3273a04eb1ece726d4aef378c"),
    ],
    ids=["recycling", "fixed-gain", "no-recycling"],
)
def test_simulate_stdout_bytes_are_pinned(capsys, extra, digest):
    # The whole trace of a 3000-slot run on each draw path, recorded once:
    # a faster slot loop or CSV writer must not move a byte.
    argv = ["simulate", "--k", "50", "--slots", "3000", "--seed", "3", "--pp-watts", "0",
            "--fading-states", "16"]
    code, out, _ = run_cli(argv + extra, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_fading_file_roundtrip(tmp_path, capsys):
    fpath = tmp_path / "states.txt"
    fpath.write_text("1.0e-4 0.5\n2.0e-4 0.5\n")
    code, out, err = run_cli(
        ["capacity-sweep", "--start", "30", "--stop", "30", "--step", "5",
         "--pp-watts", "0", "--fading-file", str(fpath)],
        capsys,
    )
    assert code == 0
    assert float(rows(out)[1][1]) > 0.0


def test_fading_file_ignores_distance(tmp_path, capsys):
    # The path loss only scales the Rayleigh and unfaded models, so a fading
    # file run never reads --distance-m; without a file, 0 m is a usage error.
    fpath = tmp_path / "states.txt"
    fpath.write_text("1.0e-4 0.5\n2.0e-4 0.5\n")
    argv = ["recycle-sweep", "--pp-watts", "0"]
    code, out, _ = run_cli(argv + ["--fading-file", str(fpath)], capsys)
    assert code == 0
    code, out_d0, _ = run_cli(
        argv + ["--fading-file", str(fpath), "--distance-m", "0"], capsys
    )
    assert code == 0
    assert out_d0.encode("utf-8") == out.encode("utf-8")
    code, _, err = run_cli(argv + FAST + ["--distance-m", "0"], capsys)
    assert code == 2
    assert err.strip() != ""


def test_exit_2_on_bad_range(capsys):
    code, out, err = run_cli(
        ["capacity-sweep", "--start", "10", "--stop", "0", "--step", "5"], capsys
    )
    assert code == 2
    assert err.strip() != ""
    code2, _, _ = run_cli(
        ["capacity-sweep", "--start", "0", "--stop", "10", "--step", "-1"], capsys
    )
    assert code2 == 2
    # A non-finite bound or step is named in one line, before any grid is
    # formed (NaN cannot be counted and an infinite step leaves a NaN grid).
    for flag, value, message in [
        ("--step", "nan", "--step must be finite and > 0"),
        ("--step", "inf", "--step must be finite and > 0"),
        ("--step", "-inf", "--step must be finite and > 0"),
        ("--start", "nan", "--start must be finite"),
        ("--start", "-inf", "--start must be finite"),
        ("--stop", "nan", "--stop must be finite"),
    ]:
        bounds = {"--start": "0", "--stop": "10", "--step": "5", flag: value}
        argv = ["ratio-sweep"] + [f"{k}={v}" for k, v in bounds.items()] + FAST
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (2, "", f"fdwpc: {message}\n"), argv


def test_exit_2_on_bad_params(capsys):
    code, out, err = run_cli(
        ["capacity-sweep", "--start", "0", "--stop", "10", "--step", "5", "--eta", "2.0"],
        capsys,
    )
    assert code == 2
    assert err.strip() != ""


@pytest.mark.parametrize("states", ["0", "-3"])
def test_exit_2_on_fading_states_below_one(states, capsys):
    code, out, err = run_cli(["capacity-sweep", "--fading-states", states], capsys)
    assert code == 2
    assert out == ""
    assert err == f"fdwpc: --fading-states must be >= 1, got {states}\n"


def test_exit_2_on_negative_seed(capsys):
    code, out, err = run_cli(["simulate", "--seed", "-1", "--slots", "10"] + FAST, capsys)
    assert (code, out, err) == (2, "", "fdwpc: seed must be >= 0, got -1\n")


def test_exit_2_on_unknown_command(capsys):
    assert main(["no-such-command"]) == 2


def test_ratio_nan_on_dead_channel(tmp_path, capsys):
    # A dead channel zeroes both rates; the ratio column reports nan rather
    # than inventing a number.
    fpath = tmp_path / "dead.txt"
    fpath.write_text("0.0 1.0\n")
    code, out, err = run_cli(
        ["ratio-sweep", "--start", "40", "--stop", "40", "--step", "10",
         "--pp-watts", "0", "--fading-file", str(fpath)],
        capsys,
    )
    assert code == 0
    assert rows(out)[1][1] == "nan"


@pytest.mark.parametrize(
    "argv",
    [
        ["capacity-sweep", "--start", "4000", "--stop", "4000", "--step", "5"],
        ["simulate", "--pet-dbm", "4000"],
        ["ratio-sweep", "--start", "-4000", "--stop", "-4000", "--step", "5"],
        ["capacity-sweep", "--start", "0", "--stop", "inf", "--step", "5"],
        ["capacity-sweep", "--suppression-db", "4000"],
        ["capacity-sweep", "--pp-dbm", "4000"],
        ["pcost-compare", "--pp-dbm", "4000"],
        ["ratio-sweep", "--start", "4000", "--stop", "4000", "--step", "5"],
        ["ratio-sweep", "--stop", "4000"],
        ["pcost-compare", "--start", "4000", "--stop", "4000"],
        ["capacity-sweep", "--distance-m", "1e-200"],
        # Flash powers p_et/p_k = 64 p_et past the float range.
        ["capacity-sweep", "--start", "3100", "--stop", "3100", "--step", "5"],
        ["pcost-compare", "--start", "3100", "--stop", "3100", "--pp-zero"],
        ["simulate", "--pet-dbm", "3100"],
        # A path loss that underflows to 0, and a grid count past the float range.
        ["simulate", "--distance-m", "1e200"],
        ["capacity-sweep", "--start=-1e308", "--stop", "1e308", "--step", "1"],
    ],
)
def test_exit_2_on_out_of_range_value(argv, capsys):
    # dB-to-linear conversions that overflow or underflow to zero, a path
    # loss past the float range either way, a flash power past it, an
    # infinite grid and a grid count past it are usage errors with a one-line
    # diagnostic that names the flag (--start/--stop for a grid value).
    code, out, err = run_cli(argv + FAST, capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("fdwpc: --")
    assert any(flag in err for flag in argv if flag.startswith("--"))


@pytest.mark.parametrize(
    "argv, flag",
    [
        # p_et = 1e307 W funds a codeword of about 8e300 W over the default
        # noise's floor of 4e-8 W: the power puts the SNR past the float range.
        ("recycle-sweep --pet-dbm 3100", "--pet-dbm"),
        # Finite grid counts of 2**53 steps or more, where a step index is no
        # longer an exact float, are refused before any solve; 2**53 itself is
        # the smallest.
        ("capacity-sweep --stop 1e300 --step 1", "--start/--stop/--step"),
        ("capacity-sweep --stop 9007199254740992 --step 1", "--start/--stop/--step"),
    ],
)
def test_exit_2_names_the_flag_that_put_a_value_past_the_range(capsys, argv, flag):
    code, out, err = run_cli(argv.split() + ["--fading-states", "16"], capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"fdwpc: {flag}: ")


@pytest.mark.parametrize("start, stop, step", [(0.0, 35.0, 5.0), (-3.3, 7.1, 0.7), (0.1, 1e3, 0.1)])
def test_sweep_grid_is_start_plus_step_times_index(tmp_path, start, stop, step):
    # The grid is formed a value at a time, with the bits of the array
    # expression start + step * np.arange(n).
    args = cli._build_parser().parse_args(
        ["recycle-sweep", "--start", repr(start), "--stop", repr(stop), "--step", repr(step),
         "--fading-states", "16", "--out", str(tmp_path / "g.csv")]
    )
    seen = []
    args.rows = lambda args, fad, value: seen.append(value) or ()
    assert cli.cmd_sweep(args) == 0
    n = int(np.floor((stop - start) / step + 1e-9)) + 1
    assert np.array(seen).tobytes() == (start + step * np.arange(n)).tobytes()
    assert all(type(v) is float for v in seen)


@pytest.mark.parametrize("noise", ["1e-320", "1e-310", "1e-305"])
def test_exit_2_on_an_snr_past_the_float_range(tmp_path, capsys, noise):
    # Over h^2 = 1e6, sigma2_sq = 1e-320 W gives a floor that underflows to 0,
    # which used to be rated as noiseless (capacity inf, half-duplex rate
    # NaN); the others give floors that a codeword power divides past the
    # float range (a capacity or a half-duplex rate of inf). Each is a usage
    # error naming --noise-watts, with no RuntimeWarning (they are errors
    # here).
    fpath = tmp_path / "strong.txt"
    fpath.write_text("1000 0.5\n0.5 0.5\n")
    argv = ["capacity-sweep", "--pp-watts", "0", "--fading-file", str(fpath)]
    code, out, err = run_cli(argv + ["--noise-watts", noise], capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("fdwpc: --noise-watts: ")


@pytest.mark.parametrize("states, code", [("16", 0), ("64", 2)])
def test_huge_et_power_runs_without_a_warning(capsys, states, code):
    # At 1e307 W every Case-1 floor and every flash floor overflows to inf,
    # which used to leak RuntimeWarnings (errors here). At 16 states a flash
    # still scores; at 64 its power p_et/p_k is past the float range.
    argv = ["ratio-sweep", "--pet-dbm", "3100", "--fading-states", states]
    got, out, err = run_cli(argv, capsys)
    assert got == code
    if code == 0:
        assert err == "" and len(rows(out)) == 8
    else:
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("fdwpc: --pet-dbm: ")


@pytest.mark.parametrize("command", ["capacity-sweep", "ratio-sweep", "recycle-sweep", "pcost-compare"])
def test_sweeps_never_build_the_residuals(monkeypatch, capsys, command):
    # A sweep prints capacities only, so no solve builds its residual dict.
    calls = []
    monkeypatch.setattr(solver, "_allocation_residuals", lambda *args: calls.append(args))
    code, out, _ = run_cli([command, "--fading-states", "16"], capsys)
    assert code == 0 and len(rows(out)) > 7
    assert calls == []

# Every scenario flag away from its default; each sweep replaces one of them
# (capacity-sweep --pet-dbm, recycle-sweep --alpha1) with its grid.
ALL_FLAGS = [
    "--eta", "0.6", "--alpha1", "0.2", "--g1-mean", "0.3", "--suppression-db", "140",
    "--noise-watts", "3e-13", "--distance-m", "4", "--pet-dbm", "25", "--pp-dbm", "-60",
]

PINNED = [
    (
        ["pcost-compare", "--pp-zero"],
        """pet_dbm,pp_watts,capacity_fd_bits
0.000000000000e+00,0.000000000000e+00,8.107833910912e-03
0.000000000000e+00,1.000000000000e-04,0.000000000000e+00
0.000000000000e+00,1.000000000000e-02,0.000000000000e+00
5.000000000000e+00,0.000000000000e+00,2.164829696602e-02
5.000000000000e+00,1.000000000000e-04,0.000000000000e+00
5.000000000000e+00,1.000000000000e-02,0.000000000000e+00
1.000000000000e+01,0.000000000000e+00,5.445646746585e-02
1.000000000000e+01,1.000000000000e-04,0.000000000000e+00
1.000000000000e+01,1.000000000000e-02,0.000000000000e+00
1.500000000000e+01,0.000000000000e+00,1.279287915468e-01
1.500000000000e+01,1.000000000000e-04,0.000000000000e+00
1.500000000000e+01,1.000000000000e-02,0.000000000000e+00
2.000000000000e+01,0.000000000000e+00,2.774397526169e-01
2.000000000000e+01,1.000000000000e-04,0.000000000000e+00
2.000000000000e+01,1.000000000000e-02,0.000000000000e+00
2.500000000000e+01,0.000000000000e+00,5.478758804829e-01
2.500000000000e+01,1.000000000000e-04,0.000000000000e+00
2.500000000000e+01,1.000000000000e-02,0.000000000000e+00
3.000000000000e+01,0.000000000000e+00,9.736865419172e-01
3.000000000000e+01,1.000000000000e-04,0.000000000000e+00
3.000000000000e+01,1.000000000000e-02,0.000000000000e+00
3.500000000000e+01,0.000000000000e+00,1.553424331823e+00
3.500000000000e+01,1.000000000000e-04,0.000000000000e+00
3.500000000000e+01,1.000000000000e-02,0.000000000000e+00
""",
    ),
    (
        ["capacity-sweep", "--start", "-10", "--stop", "20", "--step", "10"] + ALL_FLAGS,
        """variable,capacity_fd_bits,rate_hd_bits,case_tag
-1.000000000000e+01,0.000000000000e+00,1.355252229124e-03,Zero
0.000000000000e+00,3.907400947240e-02,1.186752520525e-02,Case2
1.000000000000e+01,2.361691391082e-01,7.491604327617e-02,Case2
2.000000000000e+01,8.680785279380e-01,3.376403481619e-01,Case2
""",
    ),
    (
        ["recycle-sweep", "--stop", "0.6", "--step", "0.3"] + ALL_FLAGS,
        """recycle,capacity_fd_bits
0.000000000000e+00,1.343883765401e+00
3.000000000000e-01,1.457582096957e+00
6.000000000000e-01,1.608020975213e+00
""",
    ),
]


@pytest.mark.parametrize("argv, expected", PINNED, ids=[a[0] for a, _ in PINNED])
def test_pinned_sweep_values(argv, expected, capsys):
    # Each row pins what the sweep forwards to the solver: on these links
    # putting any one forwarded flag back to its default moves a number.
    code, out, err = run_cli(argv + FAST, capsys)
    assert code == 0
    got, want = rows(out), rows(expected)
    assert got[0] == want[0] and len(got) == len(want)
    for g_row, w_row in zip(got[1:], want[1:]):
        assert len(g_row) == len(w_row)
        for g, w in zip(g_row, w_row):
            if w[0].isalpha():  # case tag
                assert g == w
            else:
                assert float(g) == pytest.approx(float(w), rel=1e-12, abs=0.0)


def test_main_is_reentrant(capsys):
    # One process, one shared parser: a usage error or --help in between
    # leaves every later call's output unchanged, and no default leaks.
    parser = cli._build_parser()
    sweep = ["capacity-sweep"] + FAST
    runs = []
    for argv in (
        sweep,
        ["capacity-sweep", "--no-such-flag"],
        ["capacity-sweep", "--help"],
        ["pcost-compare"],
        ["pcost-compare"],
        sweep,
    ):
        runs.append(run_cli(argv, capsys))
        assert cli._build_parser() is parser
    assert [code for code, _, _ in runs] == [0, 2, 0, 0, 0, 0]
    assert runs[1][2].strip() != "" and "--fading-states" in runs[2][1]
    assert runs[3] == runs[4] and runs[0] == runs[5]
    assert parser.parse_args(["pcost-compare"]).pp_dbm == (-10.0, 10.0)


def test_fresh_process_matches_warm_main(tmp_path, capsys):
    # The same argv through a new interpreter (parser built cold) and through
    # in-process main after the parser is warm writes the same bytes.
    assert main(["capacity-sweep", "--help"]) == 0
    assert main(["capacity-sweep", "--no-such-flag"]) == 2
    capsys.readouterr()
    argv = ["capacity-sweep", "--fading-states", "64", "--pp-watts", "0", "--out"]
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "fdwpc.cli", *argv, str(cold)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert main([*argv, str(warm)]) == 0
    assert cold.read_bytes() == warm.read_bytes()
    assert cold.read_bytes().startswith(b"variable,capacity_fd_bits")


def test_negative_zero_noise_prints_the_noiseless_sweep(capsys):
    # A noise power of -0 is the noiseless link, worth inf in both columns,
    # not a finite capacity over a -0.0 floor and a NaN half-duplex rate.
    argv = ["capacity-sweep", "--pp-watts", "0", "--fading-states", "16", "--noise-watts"]
    code, out, err = run_cli(argv + ["-0"], capsys)
    assert (code, out, err) == run_cli(argv + ["0"], capsys)
    assert code == 0
    assert all(r[1:] == ["inf", "inf", "Case2"] for r in rows(out)[1:])


# Extreme noise powers at 16 states, each with the SHA-256 of the bytes it
# printed while RuntimeWarnings leaked (stdout, then simulate's trace).
EXTREME_NOISE = {
    "capacity-sweep --noise-watts 1e300":
        "f802e1795b7ec2977aa49cad27d601769ea99d6ed869d509f9ae6d5c5d0c150b",
    "ratio-sweep --noise-watts 1e300":
        "d07b54a204f6a58f992ec802577077b0f15422ab14d62c5ebc56c6544dc94edb",
    "recycle-sweep --noise-watts 1e300 --pp-watts 0":
        "1e04bebf756d9a931a7934dade77a1da377d4411ecdc4c0f2ffecbed0733f5b4",
    "pcost-compare --noise-watts 1e300 --pp-zero":
        "a89cb6fa3b8275dc3ebc433ab0ac34243d94db28e0cb0789c4b5961e208994ee",
    "simulate --noise-watts 1e300 --pp-watts 0 --slots 200":
        "0d3fabcca2c5b97273fb96d10666dea960c8d2b0b1cd5b680d1f622de8bebc73",
    "capacity-sweep --noise-watts 1e-320":
        "29955bb48c1c1d158d18181a49592d1718ac73631615aae9771f811077bb15af",
    "ratio-sweep --noise-watts 1e-320":
        "a34d12b1c0a1691d25a305ab99c35107d43222e9c9570fd25e39f8920ca92b4c",
    "capacity-sweep --noise-watts 1e-320 --pp-watts 0":
        "66485557120c54bb0fe61b3b2a27ca49aca2a0e41d0e5573aec7328dbf15a594",
    "ratio-sweep --noise-watts 1e-320 --pp-watts 0":
        "82b7a502b49bbde3431d0dd85df50c960041e3181a1921776675e9e96869185d",
}


@pytest.mark.parametrize("argv", EXTREME_NOISE)
def test_extreme_noise_runs_without_a_warning(tmp_path, capsys, argv):
    # A noise power of 1e300 overflows the weak states' floors to inf, and one
    # of 1e-320 overflows the half-duplex stationarity count and its inverse
    # level. The inf limits are right: each run exits 0 with nothing on stderr
    # (RuntimeWarnings are errors here) and prints the bytes it printed before.
    extra = ["--fading-states", "16"]
    if argv.startswith("simulate"):
        extra += ["--out", str(tmp_path / "trace.csv")]
    code, out, err = run_cli(argv.split() + extra, capsys)
    assert (code, err) == (0, "")
    if argv.startswith("simulate"):
        out += (tmp_path / "trace.csv").read_text(encoding="utf-8")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EXTREME_NOISE[argv]


@pytest.mark.parametrize(
    "command, builds", [("recycle-sweep", 2), ("capacity-sweep", 9), ("ratio-sweep", 8)]
)
def test_sweep_builds_each_gain_ordered_floor_once(monkeypatch, capsys, command, builds):
    # Every point of a sweep solves one distribution, reading its
    # interference-free floor and its Case-1 floor. Only a point that moves the
    # Case-1 numerator sigma2_sq + p_et*alpha2 (capacity-sweep's 8 ET powers,
    # ratio-sweep's 7 suppressions) builds a floor; recycle-sweep's alpha1
    # moves neither, so its 13 points build 2 floors, not 14.
    built = []

    class Spy(solver._Floor):
        __slots__ = ()

        def __init__(self, noise, weights, live=None):
            if live is not None:  # gain-ordered, not a scored flash
                built.append(noise[0])
            super().__init__(noise, weights, live)

    monkeypatch.setattr(solver, "_Floor", Spy)
    solver._gain_floor.cache_clear()
    code, out, _ = run_cli([command, "--pp-watts", "0"], capsys)
    assert code == 0 and len(rows(out)) > 7
    assert len(built) == solver._gain_floor.cache_info().misses == builds
