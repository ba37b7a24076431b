"""Command line front end.

Five subcommands.  OPTIONS lists what each reads, its flags and then its
config-only keys; all five also take --config and --out:

  constants   derived parameters plus gamma/delta/eps columns up to K
              --n --s --q --kmax; rows (a non-empty list of objects with
              numeric n, s and an optional q; not combined with n, s, q)
  verify      deficit reports for equality cases plus seeded random fields
              --count --seed
  scan        slope monotonicity scan, or the (q, s) constant landscape
              --n --kmax --mode; q_grid s_grid
  flow        entropy decay of the fast-diffusion flow on the circle
              --s --q --kmax --dt --t-max; sample_every init
  euclid      line-side checks: eigen-residuals, optimizer deficit, profile
              --s --q --mode; L N kmax

--config names a JSON file of options; explicit flags win over it.  A
file that cannot be read, a "command" key naming another subcommand, a
key the subcommand does not read, a non-integral value for an integer
option and an --out path that is a directory or lies in a directory
that does not exist are bad input.  All outputs are deterministic for a
fixed config and seed, byte for byte.  The environment variable
FRACSPHERE_TOL (default 1e-10; finite and >= 0, else bad input) sets the
deficit gate of verify, flow and euclid.  Exit status is 1 when an
asserted bound fails and 2 on bad input.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .euclid import (EuclidParams, eigen_residual, f_star, grid_field,
                     thm16_deficit)
from .flow import FlowConfig, run_flow
from .inequality import equality_suite, random_suite, reports_csv
from .specfun import rule_cache_info
from .spectrum import (CONSTANTS_HEADER, constants_row, delta_sequence,
                       derive_params, gamma_sequence, monotonicity_scan,
                       remainder_sequence)

DEFAULT_TOL = 1e-10


def tolerance():
    """The deficit gate FRACSPHERE_TOL, a finite number >= 0; a NaN or
    infinite gate would pass every check and a negative one fail them."""
    raw = os.environ.get("FRACSPHERE_TOL")
    try:
        tol = DEFAULT_TOL if raw is None else float(raw)
    except ValueError:
        tol = math.nan
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"FRACSPHERE_TOL must be a finite number >= 0, got {raw!r}")
    return tol


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _one_of(*names):
    def mode(value):
        if value not in names:
            raise ValueError(f"unknown mode {value!r}, expected one of {names}")
        return value
    return mode


# subcommand -> option -> (type, default, has a flag); the rest are config-only
FLAG, CONFIG = True, False
OPTIONS = {
    # n and s default to 1 and 0.5 (q to derive_params' choice) without rows
    "constants": {"n": (int, None, FLAG), "s": (float, None, FLAG), "q": (float, None, FLAG),
                  "kmax": (int, 8, FLAG), "rows": (list, None, CONFIG),
                  "out": (str, None, FLAG)},
    "verify": {"count": (int, 200, FLAG), "seed": (int, 0, FLAG), "out": (str, None, FLAG)},
    # n defaults to 5 for lemma22 and 3 for s_grid, q_grid to each mode's grid
    "scan": {"n": (int, None, FLAG), "kmax": (int, 50, FLAG),
             "mode": (_one_of("lemma22", "s_grid"), "lemma22", FLAG),
             "q_grid": (list, None, CONFIG), "s_grid": (list, None, CONFIG),
             "out": (str, None, FLAG)},
    "flow": {"s": (float, 0.5, FLAG), "q": (float, 4.0, FLAG), "kmax": (int, 32, FLAG),
             "dt": (float, 1e-3, FLAG), "t_max": (float, 6.0, FLAG),
             "sample_every": (int, 50, CONFIG),
             "init": (dict, {"family": "one_plus_eps_y1", "eps": 0.01}, CONFIG),
             "out": (str, "flow_out.csv", FLAG)},
    "euclid": {"s": (float, 0.5, FLAG), "q": (float, None, FLAG),
               "mode": (_one_of("eigen", "thm16", "all"), "all", FLAG),
               "L": (float, 60.0, CONFIG), "N": (int, 2 ** 15, CONFIG),
               "kmax": (int, 4, CONFIG), "out": (str, "euclid_out.csv", FLAG)},
}


def resolve(command, args):
    """The options of one subcommand: table defaults, overlaid by the
    config file, overlaid by the flags, each converted to its type.
    Raises ValueError for a config file that cannot be read, names
    another subcommand or holds a key the subcommand does not read, for
    a value of the wrong type and for an --out path that cannot be
    written as a file."""
    table = OPTIONS[command]
    cfg = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read config {args.config}: {exc.strerror}") from None
        if not isinstance(cfg, dict):
            raise ValueError("the config must be a JSON object")
        named = cfg.pop("command", None)
        if named not in (None, command):
            raise ValueError(f"config names command {named!r}, invoked as {command!r}")
        unknown = sorted(set(cfg) - set(table))
        if unknown:
            raise ValueError(f"config keys not read by {command}: {', '.join(unknown)}")
    cfg.update((k, v) for k, v in vars(args).items() if k in table and v is not None)
    opt = {key: default if cfg.get(key) is None else _typed(key, typ, cfg[key])
           for key, (typ, default, _) in table.items()}
    out = opt["out"]
    if out is not None:                 # checked before the work runs
        if not os.path.isdir(os.path.dirname(out) or "."):
            raise ValueError(f"the directory of --out {out} does not exist")
        if os.path.isdir(out):
            raise ValueError(f"--out {out} is a directory")
    return opt


def _typed(key, typ, value):
    """value converted to the option's type; 2.5 is not an int."""
    if typ is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    try:
        return typ(value)
    except TypeError:
        raise ValueError(f"{key} cannot be read as {typ.__name__}: {value!r}") from None


def _spectral_columns(ps, kmax):
    """gamma/delta/eps sequences, NaN-filled where a column degenerates."""
    nan = np.full(kmax + 1, np.nan)
    gamma = nan if ps.s == ps.n else gamma_sequence(ps.n, ps.x_crit, kmax)
    delta = delta_sequence(ps.n, ps.s, kmax)
    eps = remainder_sequence(ps, kmax) if 0.0 < ps.s < ps.n else nan
    return gamma, delta, eps


def cmd_constants(opt):
    rows = opt["rows"]
    if rows is None:
        rows = [{"n": 1 if opt["n"] is None else opt["n"],
                 "s": 0.5 if opt["s"] is None else opt["s"], "q": opt["q"]}]
    elif any(opt[key] is not None for key in ("n", "s", "q")):
        raise ValueError("rows cannot be combined with n, s or q")
    elif not rows:
        raise ValueError("rows is empty")
    for i, row in enumerate(rows):
        _check_row(i, row)
    kmax = opt["kmax"]
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    lines = [CONSTANTS_HEADER]
    tables = ["n,s,q,k,gamma,delta,eps"]
    for row in rows:
        ps = derive_params(row["n"], row["s"], row.get("q"))
        lines.append(constants_row(ps))
        gamma, delta, eps = _spectral_columns(ps, kmax)
        for k in range(kmax + 1):
            tables.append("%d,%s,%s,%d,%.17g,%.17g,%.17g"
                          % (ps.n, repr(ps.s), repr(ps.q), k,
                             gamma[k], delta[k], eps[k]))
    _write(opt["out"], "\n".join(lines) + "\n\n" + "\n".join(tables) + "\n")
    return 0


def _check_row(i, row):
    """A rows entry is an object with numeric n and s, an optional
    numeric q and no other key."""
    if not isinstance(row, dict):
        raise ValueError(f"rows[{i}] must be an object, got {row!r}")
    unknown = sorted(set(row) - {"n", "s", "q"})
    if unknown:
        raise ValueError(f"rows[{i}] has keys other than n, s, q: {', '.join(unknown)}")
    for key in ("n", "s", "q"):
        value = row.get(key)
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (numeric or key == "q" and value is None):
            raise ValueError(f"rows[{i}]: {key} must be a number, got {value!r}")


def cmd_verify(opt):
    tol = tolerance()
    before = rule_cache_info()
    reports = equality_suite() + random_suite(opt["seed"], opt["count"])
    after = rule_cache_info()
    _write(opt["out"], reports_csv(reports))
    ok = True
    for r in reports:
        gate = max(tol, 1e-8) if r.kind == "square" else tol
        if r.relative_deficit < -gate:
            print(f"verify: FAIL {r.kind} n={r.n} s={r.s} q={r.q} "
                  f"relative deficit {r.relative_deficit:.3e}", file=sys.stderr)
            ok = False
        if r.equality_case and abs(r.deficit) > max(tol, 1e-10):
            print(f"verify: FAIL equality case {r.kind} n={r.n} s={r.s} "
                  f"deficit {r.deficit:.3e}", file=sys.stderr)
            ok = False
    worst = min(r.relative_deficit for r in reports)
    print(f"verify: {len(reports)} reports, min relative deficit {worst:.3e}, "
          f"quadrature rules {after.misses - before.misses} built, "
          f"{after.hits - before.hits} reused")
    return 0 if ok else 1


def cmd_scan(opt):
    if opt["mode"] == "s_grid":
        return _scan_constant_landscape(opt)
    nmax = 5 if opt["n"] is None else opt["n"]
    q_grid = opt["q_grid"]
    if q_grid is None:
        q_grid = [1.01] + [round(1.1 + 0.1 * i, 10) for i in range(189)]
    rep = monotonicity_scan(range(1, nmax + 1), q_grid, opt["kmax"])
    summary = json.dumps({
        "argmin": list(rep.argmin),
        "checked": rep.checked,
        "kmax": opt["kmax"],
        "min_gap": rep.min_gap,
        "n_max": nmax,
        "q_count": len(q_grid),
        "violations": rep.violations,
    }, sort_keys=True, allow_nan=False)
    _write(opt["out"], summary + "\n")
    print(f"scan: {rep.checked} increments, {rep.violations} violations, "
          f"min gap {rep.min_gap:.6e}")
    return 0 if rep.violations == 0 else 1


def _scan_constant_landscape(opt):
    """CSV of the sharp constant over a (q, s) grid.

    The constant depends on s only; emitting it against a q grid makes
    the independence visible in the artifact, and the command asserts it
    by comparing rows across q at fixed s.  A grid without one admissible
    pair (any grid when n < 1) checks nothing and is rejected.
    """
    n = 3 if opt["n"] is None else opt["n"]
    s_grid = opt["s_grid"]
    if s_grid is None:
        s_grid = [round(f * n, 10) for f in
                  (-0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 1.0)]
    q_grid = opt["q_grid"]
    if q_grid is None:
        q_grid = [1.2, 1.5, 2.0, 3.0, 4.0]
    lines = ["q,s,C"]
    spread = 0.0
    for s in s_grid:
        vals = []
        for q in q_grid:
            try:
                ps = derive_params(n, s, q)
            except ValueError:
                continue        # (q, s) outside the family
            vals.append(ps.constant)
            lines.append("%.17g,%.17g,%.17g" % (q, s, ps.constant))
        if vals:
            spread = max(spread, max(vals) - min(vals))
    if len(lines) == 1:
        raise ValueError(f"no admissible (q, s) pair in the grid for n = {n}")
    _write(opt["out"], "\n".join(lines) + "\n")
    print(f"scan: constant landscape n={n}, worst spread across q {spread:.3e}")
    return 0 if spread == 0.0 else 1


def cmd_flow(opt):
    tol = tolerance()
    out = opt.pop("out")
    res = run_flow(FlowConfig(**opt))    # the other flow options are FlowConfig fields
    _write(out, res.csv())
    _write(os.path.splitext(out)[0] + ".json", res.summary() + "\n")
    # every gate reads "not (value within bound)", so NaN fails it
    within = res.entropy <= res.bound * (1.0 + 1e-9) + tol
    if not within.all():
        j = int(np.argmin(within))
        print(f"flow: FAIL entropy {res.entropy[j]:.3e} not within bound "
              f"{res.bound[j]:.3e} at t={res.times[j]}", file=sys.stderr)
        return 1
    if not res.mass_drift <= 1e-8:     # mass is conserved to roundoff
        print(f"flow: FAIL mass drift {res.mass_drift:.3e} above 1e-8",
              file=sys.stderr)
        return 1
    print(f"flow: fitted rate {res.fitted_rate:.6f}, theoretical "
          f"{res.theoretical_rate:.6f}, ratio {res.ratio:.4f}, "
          f"mass drift {res.mass_drift:.2e}")
    return 0


def cmd_euclid(opt):
    tol = tolerance()
    mode, s, q, kmax = opt["mode"], opt["s"], opt["q"], opt["kmax"]
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    if q is None:
        q = 0.5 * (2.0 + derive_params(1, s).q_star)
    ps = derive_params(1, s, q)
    eu = EuclidParams(n=1, s=s, L=opt["L"], N=opt["N"])
    summary = {"q": q, "s": s}
    parts = []      # of the verdict line
    ok = True

    if mode in ("eigen", "all"):
        residuals = {str(k): eigen_residual(s, k, eu.L, eu.N)
                     for k in range(kmax + 1)}
        summary["eigen_residuals"] = residuals
        worst = max(residuals.values())
        parts.append(f"worst eigen-residual {worst:.3e}")
        if worst > 1e-3:
            print(f"euclid: FAIL eigen-residual {worst:.3e} exceeds 1e-3",
                  file=sys.stderr)
            ok = False

    if mode in ("thm16", "all"):
        report = thm16_deficit(lambda x: f_star(s, x), ps,
                               descriptor=json.dumps({"family": "pullback_fstar"}))
        summary.update(deficit=report.deficit, lhs=report.lhs, rhs=report.rhs)
        parts.append(f"optimizer deficit {report.deficit:.3e}")
        if report.deficit < -max(tol, 1e-8):
            print(f"euclid: FAIL optimizer deficit {report.deficit:.3e}",
                  file=sys.stderr)
            ok = False

    gf = grid_field(lambda x: f_star(s, x), eu)
    out = opt["out"]
    lines = ["x,value"]
    lines.extend(f"{float(x)!r},{float(v)!r}" for x, v in zip(gf.x, gf.values))
    _write(out, "\n".join(lines) + "\n")
    _write(os.path.splitext(out)[0] + ".json",
           json.dumps(summary, sort_keys=True) + "\n")

    if ok:
        print("euclid: " + ", ".join(parts))
    return 0 if ok else 1


def build_parser():
    p = argparse.ArgumentParser(prog="fracsphere", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name, table in OPTIONS.items():
        sp = sub.add_parser(name, allow_abbrev=False)    # no --s for --seed
        sp.add_argument("--config", help="JSON config file")
        for key, (typ, _, flag) in table.items():
            if flag:
                sp.add_argument("--" + key.replace("_", "-"), dest=key, type=typ)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    commands = {"constants": cmd_constants, "verify": cmd_verify, "scan": cmd_scan,
                "flow": cmd_flow, "euclid": cmd_euclid}
    try:
        return commands[args.command](resolve(args.command, args))
    except ValueError as exc:
        print(f"fracsphere {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
