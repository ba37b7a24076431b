"""End-to-end tests for the command line front end.

Everything goes through main(argv) so the argparse wiring, config file
handling, exit codes and written artifacts are exercised exactly as a
shell user would hit them.
"""

import dataclasses
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracsphere.field
from fracsphere import cli, euclid, flow, inequality, specfun, spectrum
from fracsphere.cli import main
from fracsphere.flow import FlowResult
from fracsphere.inequality import REPORT_HEADER, equality_suite
from fracsphere.spectrum import CONSTANTS_HEADER
from golden_outputs import readme_commands


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _refuse(name):
    """parse_constant for json.loads: strict JSON has no NaN or Infinity."""
    raise ValueError(f"non-JSON constant {name}")


# ---------------------------------------------------------------- constants

def test_constants_stdout_shape(capsys):
    rc, out, err = run(capsys, ["constants"])
    assert rc == 0
    assert err == ""
    blocks = out.split("\n\n")
    assert len(blocks) == 2
    head = blocks[0].splitlines()
    assert head[0] == CONSTANTS_HEADER
    assert len(head) == 2
    table = blocks[1].splitlines()
    assert table[0] == "n,s,q,k,gamma,delta,eps"
    # default kmax is 8: rows for k = 0..8
    assert len(table) == 10


def test_constants_integer_order_columns(capsys):
    rc, out, _ = run(capsys, ["constants", "--n", "3", "--s", "2", "--kmax", "6"])
    assert rc == 0
    head, table = (b.splitlines() for b in out.split("\n\n"))
    fields = head[1].split(",")
    assert float(fields[7]) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert float(fields[3]) == 6.0       # q_star
    assert float(fields[6]) == pytest.approx(4.0 / 3.0, rel=1e-15)
    for line in table[1:]:
        parts = line.split(",")
        k = int(parts[3])
        assert float(parts[5]) == pytest.approx(k * (k + 2), abs=1e-12)


def test_constants_negative_order(capsys):
    rc, out, _ = run(capsys, ["constants", "--n", "1", "--s", "-0.5",
                              "--q", "1.2", "--kmax", "3"])
    assert rc == 0
    table = out.split("\n\n")[1].splitlines()
    for line in table[1:]:
        parts = line.split(",")
        # eps degenerates outside 0 < s < n, gamma is still defined
        assert math.isnan(float(parts[6]))
        assert not math.isnan(float(parts[4]))


def test_constants_endpoint_order_gamma_nan(capsys):
    rc, out, _ = run(capsys, ["constants", "--n", "2", "--s", "2",
                              "--q", "1.5", "--kmax", "2"])
    assert rc == 0
    table = out.split("\n\n")[1].splitlines()
    assert all(math.isnan(float(line.split(",")[4])) for line in table[1:])


def test_constants_rejects_bad_exponent(capsys):
    rc, out, err = run(capsys, ["constants", "--n", "3", "--s", "2", "--q", "10"])
    assert rc == 2
    assert out == ""
    assert err.startswith("fracsphere constants:")


@pytest.mark.parametrize("factor", [1.01, 0.99, 1.0 + 1e-9, 1.0 - 1e-9])
def test_constants_slope_identity_is_two_sided(factor, monkeypatch, capsys):
    # C L_k = slope_k(q*): a constant off by 1% (the C mutant) or by 1e-9
    # either way fails the row, and the clean row passes
    argv = ["constants", "--n", "3", "--s", "2", "--kmax", "10"]
    assert run(capsys, argv)[::2] == (0, "")

    def params(*args, **kwargs):
        ps = spectrum.derive_params(*args, **kwargs)
        return dataclasses.replace(ps, constant=ps.constant * factor)
    monkeypatch.setattr(cli, "derive_params", params)
    rc, out, err = run(capsys, argv)
    assert rc == 1 and out.startswith(spectrum.CONSTANTS_HEADER)
    assert re.fullmatch(r"constants: FAIL C L_k against slope_k\(q_star\) at n=3 s=2\.0: "
                        r"relative gap \S+ above \S+\n", err), err


@pytest.mark.parametrize("argv", [
    ["--n", "2", "--s", "1e-9", "--kmax", "200"],
    ["--n", "2", "--s=-1e-9", "--q", "1.5", "--kmax", "200"],
    ["--n", "7", "--s", "6.999", "--kmax", "10000"],
    ["--n", "1", "--s", "-0.999", "--q", "1", "--kmax", "10000"],
    ["--n", "100", "--s", "76.5", "--kmax", "8"],
    ["--n", "2", "--s", "0", "--kmax", "5"],        # no C at s = 0: no gate
    ["--n", "2", "--s", "2", "--q", "3", "--kmax", "5"],       # q* = inf: no gate
    ["--n", "3", "--s", "2", "--kmax", "0"],        # no degree k >= 1 to compare
])
def test_constants_slope_identity_holds_toward_the_ends(argv, tmp_path, capsys):
    assert run(capsys, ["constants", *argv, "--out", str(tmp_path / "c.csv")]) == (0, "", "")


def test_constants_that_leave_the_doubles_fail_without_a_warning(tmp_path):
    # at n = 300, s = 200 the kernel's product overflows and both slopes of
    # the remainder read inf: under -W error the run prints only the gate's
    # FAIL line and exits 1, with no numpy warning and no traceback
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "fracsphere.cli", "constants",
                           "--n", "300", "--s", "200", "--kmax", "10000",
                           "--out", str(tmp_path / "c.csv")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert re.fullmatch(r"constants: FAIL C L_k against slope_k\(q_star\) at n=300 s=200\.0: "
                        r"relative gap nan above \S+\n", proc.stderr), proc.stderr


def test_constants_slope_identity_bound_clears_its_floor():
    # the bound is 8 ulps per degree and per unit of |log C| + |log kappa|,
    # plus 16 (1.8e-11 at kmax 10^4); on n in {1, 2, 3, 5, 7}, 20 orders
    # each and kmax 10^4 the gap reads at most 5.8e-15, and a sweep of 4000
    # seeded rows (n up to 10^4, kmax up to 10^4) read at most 0.14 of it
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 5, 7):
        for s in (1e-9, 1e-6, 1e-3, 0.1, 0.3 * n, 0.5 * n, 0.7 * n, n - 0.1, n - 0.01, n - 0.001):
            for order in (s, -s):
                gap, bound = cli._slope_identity(spectrum.derive_params(n, order, 1.0), 10 ** 4)
                assert gap <= 1e-14 and gap <= 0.01 * bound, (n, order, gap, bound)
    for _ in range(200):
        n = int(rng.integers(1, 200))
        ps = spectrum.derive_params(n, rng.uniform(-n, n), 1.0)
        kmax = int(rng.choice([1, 2, 8, 100, 2000]))
        gap, bound = cli._slope_identity(ps, kmax)     # inf or NaN where a spectrum overflows
        assert gap <= 0.5 * bound or not math.isfinite(gap), (n, ps.s, kmax, gap, bound)


@pytest.mark.parametrize("argv", [
    ["constants", "--kmax", "-1"],
    ["scan", "--kmax", "1"],
    ["flow", "--q", "0.5"],
    ["euclid", "--s", "1.0", "--mode", "thm16"],
    # an explicit 0 or negative value is never replaced by a default
    ["scan", "--kmax", "0"],
    ["scan", "--n", "0"],
    ["scan", "--n", "-1"],
    ["scan", "--mode", "s_grid", "--n", "-2"],
    ["flow", "--dt", "0"],
    ["flow", "--t-max", "0"],
    ["flow", "--kmax", "0"],
    ["verify", "--count", "-1"],
    # refused before the work runs, so nothing is written
    ["flow", "--out", "{tmp}/missing/flow.csv"],
    ["verify", "--count", "2", "--out", "{tmp}/missing/reports.csv"],
    ["constants", "--out", "{tmp}"],
    # a step count below 1 or above flow.MAX_STEPS, refused before any step
    ["flow", "--t-max", "1e-9"],
    ["flow", "--dt", "1e-300"],
    ["flow", "--t-max", "1e300", "--dt", "1e-300"],
    # an integer dimension too large for a float
    ["constants", "--n", "1" + "0" * 400],
    ["scan", "--n", "1" + "0" * 400],
    ["scan", "--mode", "s_grid", "--n", "1" + "0" * 400],
    # a size numpy could not allocate, refused by its cap before any array,
    # and the first size above each cap
    ["constants", "--kmax", str(10 ** 15)],
    ["flow", "--kmax", str(10 ** 15)],
    ["scan", "--n", "1", "--kmax", str(10 ** 15)],
    ["constants", "--kmax", str(cli.MAX_DEGREE + 1)],
    ["flow", "--kmax", str(flow.MAX_KMAX + 1)],
    ["scan", "--n", "1", "--kmax", str(cli.MAX_DEGREE + 1)],
    # an option the mode does not read
    ["scan", "--mode", "s_grid", "--n", "2", "--kmax", "7"],
])
def test_bad_input_exits_2_with_one_line(argv, tmp_path, capsys):
    argv = [a.format(tmp=tmp_path) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"fracsphere {argv[0]}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_constants_out_file(tmp_path, capsys):
    path = tmp_path / "c.csv"
    rc, out, _ = run(capsys, ["constants", "--out", str(path)])
    assert rc == 0
    assert out == ""
    assert path.read_text().startswith(CONSTANTS_HEADER)


def test_constants_config_rows(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "constants",
        "rows": [{"n": 1, "s": 0.5}, {"n": 3, "s": 2.0, "q": 4.0}],
        "kmax": 2,
    }))
    rc, out, _ = run(capsys, ["constants", "--config", str(cfg)])
    assert rc == 0
    head, table = (b.splitlines() for b in out.split("\n\n"))
    assert len(head) == 3
    assert len(table) == 7
    assert {line.split(",")[0] for line in table[1:]} == {"1", "3"}


def test_constants_keep_kappa_and_constant_for_huge_n(tmp_path, capsys):
    # with x = (n - s)/2, kappa = Gamma(x)/Gamma(x + s) = x^-s (1 + O(1/x)) and
    # C = x kappa / s: the gamma ratio keeps its digits where lnGamma is ~1e308
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rows": [{"n": 1e306, "s": 0.5}], "kmax": 0}))
    rc, out, _ = run(capsys, ["constants", "--config", str(cfg)])
    assert rc == 0
    kappa, constant = (float(v) for v in out.splitlines()[1].split(",")[6:8])
    assert kappa == pytest.approx(math.sqrt(2.0) * 1e-153, rel=1e-13)
    assert constant == pytest.approx(0.5e306 * kappa / 0.5, rel=1e-13)


@pytest.mark.parametrize("flags", [["--n", "3"], ["--s", "2"], ["--q", "1.5"],
                                   ["--n", "3", "--s", "2"]])
def test_constants_rows_refuse_flags(flags, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rows": [{"n": 1, "s": 0.5}]}))
    rc, out, err = run(capsys, ["constants", "--config", str(cfg), *flags])
    assert rc == 2
    assert out == ""
    assert err == "fracsphere constants: rows cannot be combined with n, s or q\n"


def test_constants_kmax_zero_writes_degree_zero_only(capsys):
    rc, out, _ = run(capsys, ["constants", "--kmax", "0"])
    assert rc == 0
    table = out.split("\n\n")[1].splitlines()
    assert [line.split(",")[3] for line in table[1:]] == ["0"]


# flags that a subcommand accepted at one time and never read
@pytest.mark.parametrize("command,flag", [
    ("constants", "--seed"),
    ("verify", "--n"), ("verify", "--s"), ("verify", "--q"),
    ("scan", "--s"), ("scan", "--q"), ("scan", "--seed"),
    ("flow", "--n"), ("flow", "--seed"),
    ("euclid", "--n"), ("euclid", "--seed"),
])
def test_unread_flag_exits_2(command, flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "3", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


def test_readme_commands_parse():
    # every README command parses and resolves, and an --out names the
    # same kind of file as the command's default output; nothing is run
    commands = readme_commands()
    assert len(commands) >= 7
    parser = cli.build_parser()
    for argv in commands:
        try:
            opt = cli.resolve(argv[0], parser.parse_args(argv))
        except (SystemExit, ValueError):
            pytest.fail(f"README command is refused: fracsphere {shlex.join(argv)}")
        default = cli.OPTIONS[argv[0]]["out"][1]
        if default is not None:
            assert Path(opt["out"]).suffix == Path(default).suffix, argv


def test_readme_commands_run_cleanly(tmp_path, monkeypatch, capsys):
    # every documented command passes its own gates (exit 0, nothing on
    # stderr) and is deterministic: run twice, in two directories, it
    # writes the same files and the same stdout, byte for byte
    for argv in readme_commands():
        runs = []
        for name in ("a", "b"):
            where = tmp_path / name
            shutil.rmtree(where, ignore_errors=True)
            where.mkdir()
            monkeypatch.chdir(where)
            specfun._build_rule.cache_clear()   # as in a new process: verify counts the builds
            rc, out, err = run(capsys, argv)
            assert (rc, err) == (0, ""), f"fracsphere {shlex.join(argv)}"
            runs.append((out, {p.name: p.read_bytes() for p in where.iterdir()}))
        assert runs[0] == runs[1], f"fracsphere {shlex.join(argv)}"


# ------------------------------------------------------------ config files

def test_config_command_mismatch_raises(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "verify"}))
    rc, out, err = run(capsys, ["constants", "--config", str(cfg)])
    assert rc == 2
    assert out == ""
    assert "'verify'" in err and err.count("\n") == 1


# Each row carries its own id tag, command-tag-message: a row added anywhere
# takes a new tag and renames no other case.
BAD_CONFIGS = [
    ("None", "verify", None, "cannot read config"),
    ("content1", "verify", {"command": "verify", "count": 3, "kmax": 4},
     "config keys not read by verify: kmax"),
    ("content2", "constants", [1, 2], "must be a JSON object"),
    ("content3", "scan", {"mode": "bogus"}, "unknown mode 'bogus'"),
    ("content4", "flow", {"sample_every": 0}, "sample_every must be >= 1"),
    ("content5", "euclid", {"kmax": -1}, "kmax must be >= 0"),
    ("content6", "constants", {"kmax": 2.5}, "kmax must be an integer, got 2.5"),
    ("content7", "flow", {"init": 5}, "init cannot be read as dict: 5"),
    ("content8", "flow", {"init": {"family": "one_plus_eps_y1"}}, "has no key 'eps'"),
    ("content9", "flow", {"init": {"coeffs": [[0, 1.0], [40, 0.01]]}},
     "init has degree 40 > kmax = 32"),
    ("content10", "constants", {"rows": [{"n": 1, "s": 0.5}, {"s": 0.5}]},
     "rows[1]: n must be a number, got None"),
    ("content11", "constants", {"rows": [[3, 2.0]]}, "rows[0] must be an object, got [3, 2.0]"),
    ("content12", "constants", {"rows": [{"n": 3, "s": "2"}]},
     "rows[0]: s must be a number, got '2'"),
    ("content13", "constants", {"rows": [{"n": 3, "s": 2.0, "q": [4]}]},
     "rows[0]: q must be a number, got [4]"),
    ("content14", "constants", {"rows": [{"n": 3, "s": 2.0, "Q": 4}]},
     "rows[0] has keys other than n, s, q: Q"),
    ("content15", "constants", {"rows": []}, "rows is empty"),
    ("content16", "constants", {"rows": [{"n": 1, "s": 0.5}], "n": 3},
     "rows cannot be combined with n, s or q"),
    ("content17", "euclid", {"N": 0}, "grid size N must be >= 2, got 0"),
    ("content18", "euclid", {"L": 0}, "half-width L must be finite and > 0, got 0.0"),
    ("content19", "euclid", {"L": float("inf")}, "half-width L must be finite and > 0, got inf"),
    ("content20", "flow", {"init": {"coeffs": []}},
     "coeffs must be a non-empty list of [k, c] pairs"),
    ("content21", "flow", {"init": {"coeffs": [[0, 1.0], [-1, 0.5]]}},
     "coeffs degree -1 is not a non-negative integer"),
    ("content22", "flow", {"init": {"coeffs": [[0, 1.0], [1.5, 0.1]]}},
     "coeffs degree 1.5 is not a non-negative integer"),
    ("content23", "flow", {"init": {"coeffs": [[0, 1.0], [1, 0.1], [1, 0.2]]}},
     "coeffs repeats degree 1"),
    ("content24", "flow", {"init": {"coeffs": [[0, 1.0], ["1", 0.5]]}},
     "coeffs degree '1' is not a non-negative integer"),
    ("content25", "flow", {"init": {"coeffs": {"0": 1.0}}}, "coeffs must be a non-empty list"),
    # a list or dict option is a JSON array or object, a grid holds numbers
    ("content26", "scan", {"q_grid": "12"}, "q_grid cannot be read as list: '12'"),
    ("content27", "scan", {"q_grid": {"1.5": 0, "3": 1}}, "q_grid cannot be read as list"),
    ("content28", "flow", {"init": [["family", "one_plus_eps_y1"], ["eps", 0.01]]},
     "init cannot be read as dict"),
    ("content29", "scan", {"mode": "s_grid", "s_grid": [0.5, None]},
     "s_grid entries must be numbers, got None"),
    ("content30", "scan", {"q_grid": [1.5, None]}, "q_grid entries must be numbers, got None"),
    ("content31", "scan", {"q_grid": [1.5, True]}, "q_grid entries must be numbers, got True"),
    # descriptor values have the types the descriptor names
    ("content32", "flow", {"init": {"coeffs": [5]}}, "init coeffs entry 5 is not a [k, c] pair"),
    ("content33", "flow", {"init": {"coeffs": [[0, None]]}},
     "init coeffs value None is not a number"),
    ("content34", "flow", {"init": {"family": "one_plus_eps_y1", "eps": None}},
     "init eps must be a number, got None"),
    ("content35", "flow", {"init": {"family": "random_band_limited", "kmax": None, "seed": 1}},
     "init kmax must be a non-negative integer, got None"),
    ("content36", "flow", {"init": {"family": "random_band_limited", "kmax": 2.5, "seed": 1}},
     "init kmax must be a non-negative integer, got 2.5"),
    ("content37", "flow", {"init": {"family": "random_band_limited", "kmax": 2, "seed": 1.7}},
     "init seed must be a non-negative integer, got 1.7"),
    # json writes and reads NaN; a NaN profile is not positive
    ("content38", "flow", {"init": {"family": "one_plus_eps_y1", "eps": float("nan")}},
     "initial profile must be strictly positive"),
    # a number option takes a JSON number, not a bool, a str option a string
    ("content39", "verify", {"count": True}, "count must be a number, got True"),
    ("content40", "verify", {"count": "3"}, "count must be a number, got '3'"),
    ("content41", "euclid", {"L": "5"}, "L must be a number, got '5'"),
    ("content42", "flow", {"sample_every": "1e3"}, "sample_every must be a number, got '1e3'"),
    ("content43", "constants", {"s": 10 ** 400}, "s cannot be read as float"),
    ("content44", "constants", {"out": 5}, "out cannot be read as str: 5"),
    # every exponent of the scan lies in the family: finite and >= 1
    ("content45", "scan", {"q_grid": [0.5, 1.5]},
     "the scan needs finite exponents q >= 1, got 0.5"),
    ("content46", "scan", {"q_grid": [1.5, float("inf")]},
     "the scan needs finite exponents q >= 1, got inf"),
    ("content47", "scan", {"q_grid": [-1, 1.5]},
     "the scan needs finite exponents q >= 1, got -1.0"),
    ("content48", "scan", {"q_grid": [0, 1.5]}, "the scan needs finite exponents q >= 1, got 0.0"),
    # an integer dimension too large for a float
    ("content49", "constants", {"rows": [{"n": 10 ** 400, "s": 0.5}]},
     "dimension n must be a positive integer that fits a float"),
    # a line grid numpy could not allocate, and degrees without end
    ("content50", "euclid", {"N": 10 ** 15},
     f"grid size N must be at most {euclid.MAX_N}, got 10"),
    ("content51", "euclid", {"N": euclid.MAX_N + 1},
     f"grid size N must be at most {euclid.MAX_N}, got"),
    ("content52", "euclid", {"kmax": 1e15, "N": 64}, "kmax must be >= 0 and at most"),
    # each scan mode refuses the option only the other mode reads
    ("content53", "scan", {"mode": "s_grid", "n": 2, "kmax": 7},
     "kmax is not read by scan --mode s_grid"),
    ("content54", "scan", {"s_grid": [0.5, 1.0]}, "s_grid is not read by scan --mode lemma22"),
    # u0 = w0^4 is 5.2e-17 near theta = pi: positive, and below the flow's floor
    ("content55", "flow", {"init": {"coeffs": [[0, 1.0], [1, 0.7071]]}},
     "initial profile must be strictly positive and finite, u0 > 1e-12"),
    # w0 is finite, and u0 = w0^4 overflows to inf: refused, with no numpy warning
    ("content56", "flow", {"init": {"coeffs": [[0, 1e100]]}},
     "initial profile must be strictly positive and finite, u0 > 1e-12"),
    # a repeated exponent is a zero-width step, not a failed slope lemma
    ("content57", "scan", {"q_grid": [1.5, 3.0, 3.0, 4.0], "n": 2},
     "the scan needs distinct exponents, got 3.0 twice"),
]


@pytest.mark.parametrize("command,content,message", [
    pytest.param(command, content, message, id=f"{command}-{tag}-{message}")
    for tag, command, content, message in BAD_CONFIGS])
def test_bad_config_exits_2_with_one_line(command, content, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(json.dumps(content))
    argv = [command, "--config", str(cfg)]
    if not (isinstance(content, dict) and "out" in content):     # the flag would win
        argv += ["--out", str(tmp_path / "out")]
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"fracsphere {command}: ") and err.count("\n") == 1
    assert message in err


def test_scan_refuses_more_dimensions_than_the_cap_before_scanning(monkeypatch, tmp_path,
                                                                    capsys):
    def scan(*args):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(cli, "monotonicity_scan", scan)
    out = tmp_path / "scan.json"
    rc, stdout, err = run(capsys, ["scan", "--n", str(cli.MAX_SCAN_DIMENSIONS + 1),
                                   "--out", str(out)])
    assert rc == 2 and stdout == "" and not out.exists()
    assert err == (f"fracsphere scan: the scan covers at most {cli.MAX_SCAN_DIMENSIONS} "
                   f"dimensions, got n = {cli.MAX_SCAN_DIMENSIONS + 1}\n")
    with pytest.raises(AssertionError, match="the scan ran"):     # the cap itself is allowed
        main(["scan", "--n", str(cli.MAX_SCAN_DIMENSIONS), "--out", str(out)])


def test_flow_refuses_more_work_than_the_cap_before_any_step(monkeypatch, tmp_path, capsys):
    # steps times grid points is capped: 10^4 time units at MAX_KMAX would
    # take days, and the cap there is 19531 steps of dt 1e-3
    def step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(flow, "rk4_step", step)
    out = tmp_path / "flow.csv"
    kmax = str(flow.MAX_KMAX)
    rc, stdout, err = run(capsys, ["flow", "--kmax", kmax, "--t-max", "10000", "--out", str(out)])
    assert rc == 2 and stdout == "" and not out.exists()
    assert err == ("fracsphere flow: t_max / dt must round to between 1 and 19531 steps "
                   "on 65536 grid points, got 1e+07\n")
    with pytest.raises(AssertionError, match="a step ran"):     # the cap itself is allowed
        main(["flow", "--kmax", kmax, "--t-max", "19.531", "--out", str(out)])


def test_size_caps_admit_the_cap(tmp_path, capsys):
    rc, _, _ = run(capsys, ["constants", "--kmax", str(cli.MAX_DEGREE),
                            "--out", str(tmp_path / "c.csv")])
    assert rc == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q_grid": [1.5, 2.5]}))
    rc, _, _ = run(capsys, ["scan", "--config", str(cfg), "--n", "1",
                            "--kmax", str(cli.MAX_DEGREE), "--out", str(tmp_path / "s.json")])
    assert rc == 0
    flow.FlowOps(flow.FlowConfig(kmax=flow.MAX_KMAX))     # builds its operators, no step
    euclid.EuclidParams(0.5, N=euclid.MAX_N)              # validates, allocates nothing


def test_verify_refuses_more_reports_than_the_cap_before_any_report(monkeypatch, tmp_path,
                                                                     capsys):
    def suite(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "equality_suite", suite)
    monkeypatch.setattr(cli, "random_suite", suite)
    out = tmp_path / "reports.csv"
    count = cli.MAX_VERIFY_COUNT + 1
    rc, stdout, err = run(capsys, ["verify", "--count", str(count), "--out", str(out)])
    assert rc == 2 and stdout == "" and not out.exists()
    assert err == (f"fracsphere verify: count must be at most {cli.MAX_VERIFY_COUNT}, "
                   f"got {count}\n")
    with pytest.raises(AssertionError, match="a suite ran"):     # the cap itself is allowed
        main(["verify", "--count", str(cli.MAX_VERIFY_COUNT), "--out", str(out)])


@pytest.mark.parametrize("argv,message", [
    (["--seed", "-1", "--count", "0"], "seed must be a non-negative integer, got -1"),
    (["--seed", "-1", "--count", "3"], "seed must be a non-negative integer, got -1"),
    (["--count", "-1"], "count must be a non-negative integer, got -1"),
])
def test_verify_refuses_a_negative_seed_or_count_before_any_report(argv, message, monkeypatch,
                                                                    tmp_path, capsys):
    def suite(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "equality_suite", suite)
    monkeypatch.setattr(cli, "random_suite", suite)
    out = tmp_path / "reports.csv"
    rc, stdout, err = run(capsys, ["verify", *argv, "--out", str(out)])
    assert rc == 2 and stdout == "" and not out.exists()
    assert err == f"fracsphere verify: {message}\n"


def test_euclid_refuses_more_degrees_than_the_cap_before_any_residual(monkeypatch, tmp_path,
                                                                      capsys):
    def residual(*args):
        raise AssertionError("a residual ran")

    monkeypatch.setattr(cli, "eigen_residual", residual)
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "euclid.json"
    kmax = cli.MAX_EUCLID_KMAX + 1
    cfg.write_text(json.dumps({"kmax": kmax}))
    rc, stdout, err = run(capsys, ["euclid", "--config", str(cfg), "--mode", "eigen",
                                   "--out", str(out)])
    assert rc == 2 and stdout == "" and not out.exists()
    assert err == (f"fracsphere euclid: kmax must be >= 0 and at most {cli.MAX_EUCLID_KMAX}, "
                   f"got {kmax}\n")
    cfg.write_text(json.dumps({"kmax": cli.MAX_EUCLID_KMAX}))
    with pytest.raises(AssertionError, match="a residual ran"):   # the cap itself is allowed
        main(["euclid", "--config", str(cfg), "--mode", "eigen", "--out", str(out)])


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "constants", "n": 2, "s": 0.5}))
    rc, out, _ = run(capsys, ["constants", "--config", str(cfg), "--n", "3"])
    assert rc == 0
    table = out.split("\n\n")[1].splitlines()
    assert table[1].split(",")[0] == "3"
    # and the file value is used where no flag is given
    assert table[1].split(",")[1] == "0.5"


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ------------------------------------------------------------------ verify

def test_verify_small_batch(tmp_path, capsys):
    path = tmp_path / "reports.csv"
    rc, out, err = run(capsys, ["verify", "--count", "6", "--seed", "3",
                                "--out", str(path)])
    assert rc == 0
    assert err == ""
    assert "verify: 18 reports" in out
    lines = path.read_text().splitlines()
    assert lines[0] == REPORT_HEADER
    assert len(lines) == 19          # 12 equality cases + 6 random


def test_verify_summary_counts_rules_built_and_reused(tmp_path, capsys):
    pattern = r"quadrature rules (\d+) built, (\d+) reused\n"
    argv = ["verify", "--count", "4", "--seed", "5", "--out", str(tmp_path / "r.csv")]
    first = re.search(pattern, run(capsys, argv)[1])
    second = re.search(pattern, run(capsys, argv)[1])
    requests = int(first[1]) + int(first[2])
    assert requests > 0
    # the second run in this process reuses every rule the first one used
    assert (int(second[1]), int(second[2])) == (0, requests)


@pytest.mark.parametrize("patch,message", [
    ({"relative_deficit": math.nan},
     "verify: FAIL interpolation n=1 s=0.5 q=3.0 relative deficit nan"),
    ({"deficit": math.nan}, "verify: FAIL equality case interpolation n=1 s=0.5 deficit nan"),
])
def test_verify_nan_deficit_fails(patch, message, tmp_path, capsys, monkeypatch):
    # each gate reads "not (value within bound)", so a NaN fails it
    report = dataclasses.replace(equality_suite()[0], **patch)
    monkeypatch.setattr(cli, "equality_suite", lambda: [report])
    rc, _, err = run(capsys, ["verify", "--count", "0", "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    assert err == message + "\n"


@pytest.mark.parametrize("kind", ["K", "L"])
@pytest.mark.parametrize("factor", [1.0 + 1e-9, 1.0 - 1e-9])
def test_verify_sobolev_identity_is_two_sided(kind, factor, monkeypatch, tmp_path, capsys):
    # <F,KF> = ||F||_2^2 + (q* - 2) C <F,LF> on every sobolev field: K or L
    # off by 1e-9 either way at k >= 2 fails the random sobolev fields
    argv = ["verify", "--count", "30", "--out", str(tmp_path / "r.csv")]
    assert run(capsys, argv)[::2] == (0, "")
    clean = (tmp_path / "r.csv").read_bytes()

    def scaled(ps, op, kmax):
        eigs = spectrum.operator_eigenvalue(ps, op, kmax).copy()
        eigs[2:] *= factor if op == kind else 1.0
        return eigs
    monkeypatch.setattr(inequality, "operator_eigenvalue", scaled)
    rc, _, err = run(capsys, argv)
    assert rc == 1
    lines = err.splitlines()
    assert len(lines) == 4 and all(re.fullmatch(
        r"verify: FAIL sobolev n=\d s=\S+: <F,KF> \S+ against \|\|F\|\|_2\^2 \+ \(q\*-2\) C "
        r"<F,LF> \S+, not within 1e-12 max\(1, \|<F,KF>\|\)", line) for line in lines), err
    assert (tmp_path / "r.csv").read_bytes() != clean


def test_verify_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, ["verify", "--count", "9", "--seed", "11", "--out", str(a)])
    run(capsys, ["verify", "--count", "9", "--seed", "11", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_verify_seed_changes_output(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, ["verify", "--count", "9", "--seed", "11", "--out", str(a)])
    run(capsys, ["verify", "--count", "9", "--seed", "12", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


# -------------------------------------------------------------------- scan

def test_scan_monotonicity_mode(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "scan",
                               "q_grid": [1.5, 2.0, 2.5, 3.0]}))
    path = tmp_path / "scan.json"
    rc, out, _ = run(capsys, ["scan", "--config", str(cfg), "--n", "2",
                              "--mode", "lemma22",
                              "--kmax", "10", "--out", str(path)])
    assert rc == 0
    assert "0 violations" in out
    summary = json.loads(path.read_text())
    assert summary["violations"] == 0
    assert summary["checked"] == 2 * 3 * 9
    assert summary["min_gap"] > 0.0
    assert summary["q_count"] == 4
    n_min, q_lo, q_hi, k_min = summary["argmin"]
    assert 1 <= n_min <= 2 and 2 <= k_min <= 10
    assert (q_lo, q_hi) in ((1.5, 2.0), (2.0, 2.5), (2.5, 3.0))


def test_scan_nan_exponent_is_a_violation(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"q_grid": [1.5, 3.0, NaN]}')
    path = tmp_path / "scan.json"
    rc, _, _ = run(capsys, ["scan", "--config", str(cfg), "--n", "2",
                            "--kmax", "5", "--out", str(path)])
    assert rc == 1
    # one of the two increments per dimension and degree is NaN
    assert json.loads(path.read_text())["violations"] == 2 * 4


def test_scan_all_nan_increments_are_violations(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"q_grid": [NaN, NaN]}')
    path = tmp_path / "scan.json"
    rc, out, _ = run(capsys, ["scan", "--config", str(cfg), "--n", "2",
                              "--kmax", "5", "--out", str(path)])
    assert rc == 1
    # stdout writes the missing gap as null, as the summary does
    assert out == "scan: 8 increments, 8 violations, min gap null\n"
    summary = json.loads(path.read_text(), parse_constant=_refuse)
    assert summary["violations"] == summary["checked"] == 2 * 4
    assert summary["min_gap"] is None and summary["argmin"] == []


def test_scan_constant_landscape(tmp_path, capsys):
    path = tmp_path / "landscape.csv"
    rc, out, _ = run(capsys, ["scan", "--mode", "s_grid", "--n", "3",
                              "--out", str(path)])
    assert rc == 0
    assert "spread across q 0.000e+00" in out
    lines = path.read_text().splitlines()
    assert lines[0] == "q,s,C"
    by_s = {}
    for line in lines[1:]:
        q, s, c = (float(v) for v in line.split(","))
        by_s.setdefault(s, set()).add(c)
    # the constant depends on s alone: one value per s across all q
    assert by_s and all(len(vals) == 1 for vals in by_s.values())
    assert by_s[3.0].pop() == pytest.approx(1.0 / 6.0, rel=1e-13)


def test_scan_landscape_skips_inadmissible_pairs(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s_grid": [0.0, 1.5], "q_grid": [1.5, 3.0]}))
    path = tmp_path / "landscape.csv"
    rc, _, err = run(capsys, ["scan", "--config", str(cfg), "--mode", "s_grid",
                              "--n", "3", "--out", str(path)])
    rows = [line.split(",")[:2] for line in path.read_text().splitlines()[1:]]
    # q = 3 exceeds the s = 0 ceiling q <= 2
    assert rows == [["1.5", "0"], ["1.5", "1.5"], ["3", "1.5"]]
    # s = 0 has no constant of this form: its NaN fails the spread gate
    assert rc == 1
    assert err == "scan: FAIL constant at s=0.0 spreads nan across q\n"


# -------------------------------------------------------------------- flow

def test_flow_writes_csv_and_summary(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "flow", "kmax": 8,
                               "sample_every": 10}))
    path = tmp_path / "run.csv"
    rc, out, _ = run(capsys, ["flow", "--config", str(cfg), "--s", "0.5",
                              "--q", "4.0", "--t-max", "0.5",
                              "--out", str(path)])
    assert rc == 0
    assert "fitted rate" in out
    lines = path.read_text().splitlines()
    assert lines[0] == "t,entropy,mass,bound"
    assert len(lines) == 52          # t = 0 plus every 10th of 500 steps
    summary = json.loads((tmp_path / "run.json").read_text())
    assert summary["q"] == 4.0
    assert summary["s"] == 0.5
    assert abs(summary["mass_drift"]) <= 1e-8
    assert summary["ratio"] == pytest.approx(1.0, abs=0.05)


def test_flow_deterministic_bytes(tmp_path, capsys):
    args = ["flow", "--s", "0.5", "--q", "4.0", "--t-max", "0.3",
            "--kmax", "8", "--dt", "1e-3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, args + ["--out", str(a)])
    run(capsys, args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def _inf_rhs(ops, u):
    """A stand-in FlowOps.rhs: every step blows up, and rk4_step refuses it."""
    return np.full_like(u, np.inf)


def test_flow_blow_up_fails_with_strict_json(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(flow.FlowOps, "rhs", _inf_rhs)
    path = tmp_path / "run.csv"
    rc, _, err = run(capsys, ["flow", "--s", "1", "--kmax", "128", "--out", str(path)])
    assert rc == 1
    assert "FAIL" in err
    summary = json.loads((tmp_path / "run.json").read_text(), parse_constant=_refuse)
    assert summary["fitted_rate"] is None and summary["ratio"] is None


def test_flow_refuses_an_unstable_step_before_any_output(tmp_path, capsys):
    # dt * delta_(m-1) = 1e-3 * 4095 lies beyond RK4's real-axis limit 2.785
    path = tmp_path / "run.csv"
    rc, out, err = run(capsys, ["flow", "--s", "1", "--kmax", "1024", "--t-max", "0.2",
                                "--out", str(path)])
    assert (rc, out) == (2, "")
    assert err == ("fracsphere flow: dt must be at most 0.000680169 on 4096 grid points "
                   "at s = 1.0\n")
    assert list(tmp_path.iterdir()) == []
    # 1e-3 * 2047 lies within it
    rc, _, err = run(capsys, ["flow", "--s", "1", "--kmax", "512", "--t-max", "0.2",
                              "--out", str(path)])
    assert (rc, err) == (0, "")


# far from constant: min u0 is 5.8e-4 (tests/test_flow.py FAR_DATUM)
_FAR = {"init": {"coeffs": [[0, 1.0], [5, 0.5], [9, 0.15]]}}


def test_far_datum_on_the_default_grid_passes(tmp_path, capsys):
    # kmax 32 keeps every state positive.  E(0.2) converged is 0.0219529444:
    # RK4 at dt 3.125e-5 on 4096 points, where every state stays positive;
    # kmax 64 at dt 2.5e-4 agrees to 2e-11
    (tmp_path / "cfg.json").write_text(json.dumps(_FAR))
    path = tmp_path / "run.csv"
    rc, _, err = run(capsys, ["flow", "--config", str(tmp_path / "cfg.json"), "--s", "1",
                              "--q", "3", "--t-max", "0.2", "--out", str(path)])
    assert (rc, err) == (0, "")
    t, e = (float(v) for v in path.read_text().splitlines()[-1].split(",")[:2])
    assert t == 0.2 and abs(e - 0.0219529444) <= 1e-6


def test_flow_at_q_two(tmp_path, capsys):
    # the entropy is the L^q quotient, exact at q = 2, so q = 2 is no special case
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sample_every": 5}))
    path = tmp_path / "run.csv"
    rc, _, _ = run(capsys, ["flow", "--config", str(cfg), "--q", "2", "--dt", "0.01",
                            "--out", str(path)])
    assert rc == 0
    summary = json.loads((tmp_path / "run.json").read_text())
    assert abs(summary["ratio"] - 1.0) <= 1e-4


def test_flow_mass_drift_fails(tmp_path, capsys, monkeypatch):
    # entropy inside its bound, mass drifting: the mass gate alone fails
    def drifting(cfg):
        t = np.array([0.0, 1.0])
        return FlowResult(config=cfg, times=t, entropy=np.array([1e-4, 1e-5]),
                          mass=np.array([1.0, 1.0 + 1e-6]), bound=np.array([1e-4, 1e-4]),
                          fitted_rate=2.0, theoretical_rate=2.0)
    monkeypatch.setattr(cli, "run_flow", drifting)
    rc, _, err = run(capsys, ["flow", "--out", str(tmp_path / "run.csv")])
    assert rc == 1
    assert "mass drift" in err


# ------------------------------------------------------------------ euclid

def test_euclid_eigen_mode(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "euclid", "kmax": 2,
                               "L": 60.0, "N": 2 ** 14}))
    path = tmp_path / "profile.json"
    rc, out, _ = run(capsys, ["euclid", "--config", str(cfg), "--s", "0.5",
                              "--mode", "eigen", "--out", str(path)])
    assert rc == 0
    assert "worst eigen-residual" in out
    summary = json.loads(path.read_text())
    assert set(summary) == {"eigen_residuals", "q", "s"}
    assert set(summary["eigen_residuals"]) == {"0", "1", "2"}
    assert all(v <= 1e-3 for v in summary["eigen_residuals"].values())
    # the summary is the only artifact
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "profile.json"]


@pytest.mark.parametrize("s", ["-0.5", "0", "1", "1.5"])
def test_euclid_order_outside_the_line_range_names_that_range(tmp_path, capsys, s):
    # the default q is derived from s only after s is checked, so no message
    # speaks of a q the user did not set
    out = tmp_path / "euclid.json"
    rc, stdout, err = run(capsys, ["euclid", "--s", s, "--out", str(out)])
    assert (rc, stdout, err) == (2, "", "fracsphere euclid: need 0 < s < n = 1\n")
    assert not out.exists()


def test_euclid_thm16_mode(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "euclid", "L": 30.0, "N": 2 ** 12}))
    path = tmp_path / "profile.json"
    rc, out, _ = run(capsys, ["euclid", "--config", str(cfg), "--s", "0.5",
                              "--q", "3.0", "--mode", "thm16",
                              "--out", str(path)])
    assert rc == 0
    assert "optimizer deficit" in out
    summary = json.loads(path.read_text())
    assert set(summary) == {"deficit", "lhs", "q", "rhs", "s"}
    assert abs(summary["deficit"]) <= 1e-8
    assert summary["q"] == 3.0


@pytest.mark.parametrize("deficit,rhs,rc", [
    (0.9e-12, 1.0, 0), (-0.9e-12, 0.5, 0), (0.9e-11, 10.0, 0), (-0.9e-11, -10.0, 0),
    (1.1e-12, 1.0, 1), (-1.1e-12, 1.0, 1), (1.1e-11, 10.0, 1), (-1.1e-11, -10.0, 1),
])
def test_euclid_optimizer_gate_is_two_sided(deficit, rhs, rc, monkeypatch, tmp_path, capsys):
    # the optimizer is an equality case: a deficit of either sign beyond
    # 1e-12 max(1, |rhs|) fails, as a weight of the line deficit 1% off does
    report = type("Report", (), {"deficit": deficit, "lhs": rhs - deficit, "rhs": rhs})
    monkeypatch.setattr(cli, "thm16_deficit", lambda *args, **kwargs: report)
    code, _, err = run(capsys, ["euclid", "--mode", "thm16", "--out", str(tmp_path / "e.json")])
    assert code == rc
    assert err == ("" if rc == 0 else f"euclid: FAIL optimizer deficit {deficit:.3e} "
                   "not within 1e-12 max(1, |rhs|)\n")


@pytest.mark.parametrize("argv", [
    ["--s", "1e-17"],
    ["--s", "5e-17", "--mode", "thm16"],
    ["--s", "5e-17", "--q", "2", "--mode", "thm16"],
])
def test_euclid_order_where_the_critical_exponent_rounds_to_two(tmp_path, capsys, argv):
    # q_star = 2 / (1 - s) rounds to 2.0 here, so q = 2: the weights are
    # (0, 1) without dividing by q_star - 2, and the optimizer deficit is 0
    path = tmp_path / "e.json"
    rc, out, err = run(capsys, ["euclid", *argv, "--out", str(path)])
    assert (rc, err) == (0, "")
    assert "optimizer deficit 0.000e+00" in out
    summary = json.loads(path.read_text())
    assert (summary["q"], summary["deficit"]) == (2.0, 0.0)


def test_euclid_default_exponent_is_midpoint(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "euclid", "kmax": 0,
                               "L": 30.0, "N": 2 ** 12}))
    rc, _, _ = run(capsys, ["euclid", "--config", str(cfg), "--s", "0.5",
                            "--mode", "eigen",
                            "--out", str(tmp_path / "p.json")])
    assert rc == 0
    summary = json.loads((tmp_path / "p.json").read_text())
    # q_star = 4 at s = 1/2 on the circle, midpoint of (2, q_star) is 3
    assert summary["q"] == 3.0


def test_euclid_nan_residuals_fail_with_strict_json(tmp_path, capsys):
    # x * x overflows on a grid this wide, so every residual is NaN
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 1e300, "N": 2 ** 10, "kmax": 1}))
    path = tmp_path / "e.json"
    rc, out, err = run(capsys, ["euclid", "--config", str(cfg), "--out", str(path)])
    assert rc == 1
    assert out == ""
    assert err.count("FAIL eigen-residual nan") == 2
    summary = json.loads(path.read_text(), parse_constant=_refuse)
    assert summary["eigen_residuals"] == {"0": None, "1": None}
    assert abs(summary["deficit"]) <= 1e-8


def test_euclid_huge_width_writes_only_fail_lines(tmp_path):
    # x * x overflows on this grid: numpy prints no warning, and the NaN
    # residuals fail their gate
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 1e300, "N": 2 ** 10, "kmax": 1}))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "fracsphere.cli", "euclid", "--config",
                           str(cfg), "--mode", "eigen", "--out", str(tmp_path / "e.json")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        f"euclid: FAIL eigen-residual nan at k={k} not within 1e-3" for k in (0, 1)]


def test_euclid_nan_deficit_fails_with_strict_json(tmp_path, capsys, monkeypatch):
    nan_report = type("Report", (), {"deficit": math.nan, "lhs": math.nan, "rhs": 1.0})
    monkeypatch.setattr(cli, "thm16_deficit", lambda *args, **kwargs: nan_report)
    path = tmp_path / "e.json"
    rc, out, err = run(capsys, ["euclid", "--mode", "thm16", "--out", str(path)])
    assert rc == 1
    assert "FAIL optimizer deficit nan" in err
    summary = json.loads(path.read_text(), parse_constant=_refuse)
    assert summary["deficit"] is None and summary["lhs"] is None
    assert summary["rhs"] == 1.0


def test_euclid_rejects_unknown_mode_from_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "euclid", "mode": "bogus"}))
    rc, out, err = run(capsys, ["euclid", "--config", str(cfg)])
    assert rc == 2
    assert "unknown mode" in err


def test_huge_init_degree_exits_2_without_allocating(tmp_path, capsys, monkeypatch):
    # the 8 GB coefficient vector of degree 1e9 is never requested
    class NoNumpy:
        def __getattr__(self, name):
            def refuse(*args, **kwargs):
                raise AssertionError(f"numpy.{name} called before the degree check")
            return refuse
    monkeypatch.setattr(fracsphere.field, "np", NoNumpy())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"init": {"coeffs": [[0, 1.0], [10 ** 9, 1.0]]}}))
    rc, out, err = run(capsys, ["flow", "--config", str(cfg),
                                "--out", str(tmp_path / "flow.csv")])
    assert rc == 2 and out == ""
    assert err == "fracsphere flow: init has degree 1000000000 > kmax = 32\n"


def test_no_environment_variable_loosens_a_verdict(tmp_path, capsys, monkeypatch):
    # every gate checks a bound fixed in the code; this variable once set
    # the deficit gate, and 1e6 passed any deficit
    monkeypatch.setenv("FRACSPHERE_TOL", "1e6")
    monkeypatch.setattr(cli, "equality_suite",
                        _equality_report(deficit=-1e-3, relative_deficit=-1e-3))
    rc, _, err = run(capsys, ["verify", "--count", "0", "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    lines = err.splitlines()
    assert lines and all(line.startswith("verify: FAIL ") for line in lines)


# ------------------------------------------------------------------- gates

@pytest.mark.parametrize("value,bound,passed", [
    (0.5, 1.0, True), (1.0, 1.0, True), (0, 0, True), (1.5, 1.0, False),
    (math.nan, 1.0, False), (math.inf, math.inf, False), (-math.inf, 0.0, False),
    (0.0, math.nan, False),
])
def test_gate_passes_finite_values_within_the_bound(value, bound, passed, capsys):
    assert cli.gate("verify", value, bound, "what failed") is passed
    assert capsys.readouterr().err == ("" if passed else "verify: FAIL what failed\n")


def _equality_report(**patch):
    return lambda: [dataclasses.replace(equality_suite()[0], **patch)]


def _flow_result(entropy, mass):
    def fake(cfg):
        return FlowResult(config=cfg, times=np.array([0.0, 1.0]), entropy=np.array(entropy),
                          mass=np.array(mass), bound=np.array([1e-4, 1e-4]),
                          fitted_rate=2.0, theoretical_rate=2.0)
    return fake


_NAN_LINE_REPORT = type("Report", (), {"deficit": math.nan, "lhs": math.nan, "rhs": 1.0})


@pytest.mark.parametrize("argv,config,patch,fail", [
    (["verify", "--count", "0"], None,
     (cli, "equality_suite", _equality_report(relative_deficit=math.nan)),
     "verify: FAIL interpolation n=1 s=0.5 q=3.0 relative deficit nan"),
    (["verify", "--count", "0"], None,
     (cli, "equality_suite", _equality_report(deficit=math.nan)),
     "verify: FAIL equality case interpolation n=1 s=0.5 deficit nan"),
    (["flow"], None, (cli, "run_flow", _flow_result([1e-4, math.nan], [1.0, 1.0])),
     "flow: FAIL entropy nan not within bound 1.000e-04 at t=1.0"),
    (["flow"], None, (cli, "run_flow", _flow_result([1e-4, 1e-5], [1.0, math.nan])),
     "flow: FAIL mass drift nan above 1e-8"),
    (["euclid", "--mode", "eigen"], {"L": 1e300, "N": 2 ** 10, "kmax": 0}, None,
     "euclid: FAIL eigen-residual nan at k=0 not within 1e-3"),
    (["euclid", "--mode", "thm16"], None,
     (cli, "thm16_deficit", lambda *a, **k: _NAN_LINE_REPORT),
     "euclid: FAIL optimizer deficit nan"),
    (["scan", "--n", "1", "--kmax", "3"], {"q_grid": [1.5, math.nan]}, None,
     "scan: FAIL 2 slope increments not positive"),
    # s = 0 has no constant of this form: C is NaN in every row
    (["scan", "--mode", "s_grid"], {"s_grid": [0.0, 1.0]}, None,
     "scan: FAIL constant at s=0.0 spreads nan across q"),
    # a blow-up of the flow fails the entropy gate, with no traceback
    (["flow", "--s", "1", "--kmax", "128", "--t-max", "20"], None,
     (flow.FlowOps, "rhs", _inf_rhs), "flow: FAIL entropy"),
    # far from constant on wide grids, RK4 drives u below zero: the run
    # ends at that step with a NaN sample, nothing lifts the values
    (["flow", "--s", "1", "--q", "3", "--t-max", "0.2", "--kmax", "128"], _FAR, None,
     "flow: FAIL entropy nan not within bound 2.125e-01 at t=0.01"),
    (["flow", "--s", "1", "--q", "3", "--t-max", "0.2", "--kmax", "256"], _FAR, None,
     "flow: FAIL entropy nan not within bound 2.142e-01 at t=0.006"),
])
def test_failing_config_exits_1_with_fail_lines(argv, config, patch, fail, tmp_path, capsys,
                                                monkeypatch):
    # every gate fails a NaN, and an exit of 1 always comes with a FAIL line
    if patch is not None:
        monkeypatch.setattr(*patch)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    rc, _, err = run(capsys, argv + ["--out", str(tmp_path / "out")])
    assert rc == 1
    lines = err.splitlines()
    assert lines and all(line.startswith(f"{argv[0]}: FAIL ") for line in lines)
    assert any(line.startswith(fail) for line in lines)
