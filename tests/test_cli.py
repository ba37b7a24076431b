"""End-to-end tests for the command line front end.

Everything goes through main(argv) so the argparse wiring, config file
handling, exit codes and written artifacts are exercised exactly as a
shell user would hit them.
"""

import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from fracsphere import cli
from fracsphere.cli import main
from fracsphere.flow import FlowResult
from fracsphere.inequality import REPORT_HEADER
from fracsphere.spectrum import CONSTANTS_HEADER


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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


@pytest.mark.parametrize("argv", [
    ["constants", "--kmax", "-1"],
    ["scan", "--kmax", "1"],
    ["flow", "--q", "2"],
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
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```\w*\n(.*?)```", readme, re.S)
    commands = [shlex.split(line)[1:] for block in blocks
                for line in block.splitlines() if line.startswith("fracsphere ")]
    assert len(commands) >= 7
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: fracsphere {shlex.join(argv)}")


# ------------------------------------------------------------ config files

def test_config_command_mismatch_raises(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "verify"}))
    rc, out, err = run(capsys, ["constants", "--config", str(cfg)])
    assert rc == 2
    assert out == ""
    assert "'verify'" in err and err.count("\n") == 1


@pytest.mark.parametrize("command,content,message", [
    ("verify", None, "cannot read config"),
    ("verify", {"command": "verify", "count": 3, "kmax": 4},
     "config keys not read by verify: kmax"),
    ("constants", [1, 2], "must be a JSON object"),
    ("scan", {"mode": "bogus"}, "unknown mode 'bogus'"),
    ("flow", {"sample_every": 0}, "sample_every must be >= 1"),
    ("euclid", {"kmax": -1}, "kmax must be >= 0"),
    ("constants", {"kmax": 2.5}, "kmax must be an integer, got 2.5"),
    ("flow", {"init": 5}, "init cannot be read as dict: 5"),
    ("flow", {"init": {"family": "one_plus_eps_y1"}}, "has no key 'eps'"),
    ("flow", {"init": {"coeffs": [[0, 1.0], [40, 0.01]]}},
     "init has degree 40 > kmax = 32"),
    ("constants", {"rows": [{"n": 1, "s": 0.5}, {"s": 0.5}]},
     "rows[1]: n must be a number, got None"),
    ("constants", {"rows": [[3, 2.0]]}, "rows[0] must be an object, got [3, 2.0]"),
    ("constants", {"rows": [{"n": 3, "s": "2"}]}, "rows[0]: s must be a number, got '2'"),
    ("constants", {"rows": [{"n": 3, "s": 2.0, "q": [4]}]},
     "rows[0]: q must be a number, got [4]"),
    ("constants", {"rows": [{"n": 3, "s": 2.0, "Q": 4}]},
     "rows[0] has keys other than n, s, q: Q"),
    ("constants", {"rows": []}, "rows is empty"),
    ("constants", {"rows": [{"n": 1, "s": 0.5}], "n": 3},
     "rows cannot be combined with n, s or q"),
    ("euclid", {"N": 0}, "grid size N must be >= 2, got 0"),
    ("euclid", {"L": 0}, "half-width L must be finite and > 0, got 0.0"),
    ("euclid", {"L": float("inf")}, "half-width L must be finite and > 0, got inf"),
    ("flow", {"init": {"coeffs": []}}, "coeffs must be a non-empty list of [k, c] pairs"),
    ("flow", {"init": {"coeffs": [[0, 1.0], [-1, 0.5]]}},
     "coeffs degree -1 is not a non-negative integer"),
    ("flow", {"init": {"coeffs": [[0, 1.0], [1.5, 0.1]]}},
     "coeffs degree 1.5 is not a non-negative integer"),
    ("flow", {"init": {"coeffs": [[0, 1.0], [1, 0.1], [1, 0.2]]}}, "coeffs repeats degree 1"),
    ("flow", {"init": {"coeffs": [[0, 1.0], ["1", 0.5]]}},
     "coeffs degree '1' is not a non-negative integer"),
    ("flow", {"init": {"coeffs": {"0": 1.0}}}, "coeffs must be a non-empty list"),
])
def test_bad_config_exits_2_with_one_line(command, content, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(json.dumps(content))
    rc, out, err = run(capsys, [command, "--config", str(cfg),
                                "--out", str(tmp_path / "out")])
    assert rc == 2
    assert out == ""
    assert err.startswith(f"fracsphere {command}: ") and err.count("\n") == 1
    assert message in err


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
    rc, _, _ = run(capsys, ["scan", "--config", str(cfg), "--mode", "s_grid",
                            "--n", "3", "--out", str(path)])
    assert rc == 0
    rows = [line.split(",")[:2] for line in path.read_text().splitlines()[1:]]
    # q = 3 exceeds the s = 0 ceiling q <= 2
    assert rows == [["1.5", "0"], ["1.5", "1.5"], ["3", "1.5"]]


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


def test_flow_blow_up_fails_with_strict_json(tmp_path, capsys):
    path = tmp_path / "run.csv"
    rc, _, err = run(capsys, ["flow", "--dt", "0.05", "--s", "1", "--kmax", "128",
                              "--out", str(path)])
    assert rc == 1
    assert "FAIL" in err

    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")
    summary = json.loads((tmp_path / "run.json").read_text(), parse_constant=refuse)
    assert summary["fitted_rate"] is None and summary["ratio"] is None


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
    path = tmp_path / "profile.csv"
    rc, out, _ = run(capsys, ["euclid", "--config", str(cfg), "--s", "0.5",
                              "--mode", "eigen", "--out", str(path)])
    assert rc == 0
    assert "worst eigen-residual" in out
    summary = json.loads((tmp_path / "profile.json").read_text())
    assert set(summary) == {"eigen_residuals", "q", "s"}
    assert set(summary["eigen_residuals"]) == {"0", "1", "2"}
    assert all(v <= 1e-3 for v in summary["eigen_residuals"].values())
    lines = path.read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 2 ** 14 + 1


def test_euclid_thm16_mode(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "euclid", "L": 30.0, "N": 2 ** 12}))
    path = tmp_path / "profile.csv"
    rc, out, _ = run(capsys, ["euclid", "--config", str(cfg), "--s", "0.5",
                              "--q", "3.0", "--mode", "thm16",
                              "--out", str(path)])
    assert rc == 0
    assert "optimizer deficit" in out
    summary = json.loads((tmp_path / "profile.json").read_text())
    assert set(summary) == {"deficit", "lhs", "q", "rhs", "s"}
    assert abs(summary["deficit"]) <= 1e-8
    assert summary["q"] == 3.0


def test_euclid_default_exponent_is_midpoint(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "euclid", "kmax": 0,
                               "L": 30.0, "N": 2 ** 12}))
    rc, _, _ = run(capsys, ["euclid", "--config", str(cfg), "--s", "0.5",
                            "--mode", "eigen",
                            "--out", str(tmp_path / "p.csv")])
    assert rc == 0
    summary = json.loads((tmp_path / "p.json").read_text())
    # q_star = 4 at s = 1/2 on the circle, midpoint of (2, q_star) is 3
    assert summary["q"] == 3.0


def test_euclid_rejects_unknown_mode_from_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "euclid", "mode": "bogus"}))
    rc, out, err = run(capsys, ["euclid", "--config", str(cfg)])
    assert rc == 2
    assert "unknown mode" in err


# --------------------------------------------------------------- tolerance

def test_tolerance_default(monkeypatch):
    monkeypatch.delenv("FRACSPHERE_TOL", raising=False)
    assert cli.tolerance() == 1e-10


def test_tolerance_env_override(monkeypatch):
    monkeypatch.setenv("FRACSPHERE_TOL", "0.5")
    assert cli.tolerance() == 0.5


@pytest.mark.parametrize("command", ["verify", "flow", "euclid"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "abc"])
def test_bad_tolerance_exits_2_before_any_work(command, value, tmp_path, capsys, monkeypatch):
    # a NaN or infinite gate would pass every check, a negative one fail them
    monkeypatch.setenv("FRACSPHERE_TOL", value)
    monkeypatch.setattr(cli, "run_flow", lambda cfg: pytest.fail("the flow ran"))
    monkeypatch.setattr(cli, "equality_suite", lambda: pytest.fail("verify ran"))
    monkeypatch.setattr(cli, "eigen_residual", lambda *a: pytest.fail("euclid ran"))
    out = tmp_path / "out.csv"
    rc, stdout, err = run(capsys, [command, "--out", str(out)])
    assert rc == 2
    assert stdout == "" and not out.exists()
    assert err == (f"fracsphere {command}: FRACSPHERE_TOL must be a finite "
                   f"number >= 0, got {value!r}\n")


def test_verify_respects_loose_tolerance(tmp_path, capsys, monkeypatch):
    # with a huge gate nothing can fail, whatever the deficits are
    monkeypatch.setenv("FRACSPHERE_TOL", "1e6")
    rc, out, err = run(capsys, ["verify", "--count", "3", "--seed", "0",
                                "--out", str(tmp_path / "r.csv")])
    assert rc == 0
    assert err == ""
