"""Command line front end.

Five subcommands.  OPTIONS lists what each reads, its flags and then its
config-only keys; all five also take --config and --out:

  constants   derived parameters plus gamma/delta/eps columns up to K
              --n --s --q --kmax; rows (a non-empty list of objects with
              numeric n, s and an optional q; not combined with n, s, q)
  verify      deficit reports for equality cases plus seeded random fields
              --count --seed
  scan        slope monotonicity scan, or the (q, s) constant landscape
              --n --kmax (lemma22 only) --mode; q_grid s_grid (s_grid only)
  flow        entropy decay of the fast-diffusion flow on the circle
              --s --q --kmax --dt --t-max; sample_every init
  euclid      line-side checks: eigen-residuals and optimizer deficit, as a
              JSON summary written to --out
              --s --q --mode; L N kmax

--config names a JSON file of options; explicit flags win over it.  A
file that cannot be read, a "command" key naming another subcommand, a
key the subcommand does not read, a number option that is not a JSON
number (bools too) or an integer option that is not integral, a string,
list or dict option that is not a JSON string, array or object, a
q_grid or s_grid entry that is not a number and an --out path that is a
directory or lies in a directory that does not exist are bad input.
All outputs are deterministic for a fixed config and seed, byte for
byte.  Each gate checks one bound, fixed in the code and listed in the
README.  Exit status is 1 when a gate fails (see gate) and 2 on bad input.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .euclid import EuclidParams, eigen_residual, f_star, thm16_deficit
from .field import finite_or_null, is_number, shared_bases
from .flow import FlowConfig, run_flow
from .inequality import KINDS, equality_suite, random_suite, reports_csv, sobolev_sides
from .specfun import rule_cache_info
from .spectrum import (CONSTANTS_HEADER, MAX_DEGREE, OPERATORS, constants_row,
                       derive_params, monotonicity_scan, operator_eigenvalue,
                       slope_sequence)

MAX_SCAN_DIMENSIONS = 1000      # 200 times the default 5, at about 5 ms per dimension
MAX_VERIFY_COUNT = 20000        # 100 times the default 200, at about 0.06 ms per report
MAX_EUCLID_KMAX = 100   # 25 times the default 4; one residual per degree, 2 to 8 ms each


def gate(command, value, bound, message):
    """The one check of every asserted bound: passes when value <= bound,
    and NaN or inf fails.  Prints "<command>: FAIL <message>" on stderr
    when it fails; returns the verdict."""
    ok = bool(math.isfinite(value) and value <= bound)
    if not ok:
        print(f"{command}: FAIL {message}", file=sys.stderr)
    return ok


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
FLOW = FlowConfig()     # the flow options are FlowConfig fields, with its defaults
OPTIONS = {
    # n and s default to 1 and 0.5 (q to derive_params' choice) without rows
    "constants": {"n": (int, None, FLAG), "s": (float, None, FLAG), "q": (float, None, FLAG),
                  "kmax": (int, 8, FLAG), "rows": (list, None, CONFIG),
                  "out": (str, None, FLAG)},
    "verify": {"count": (int, 200, FLAG), "seed": (int, 0, FLAG), "out": (str, None, FLAG)},
    # only lemma22 reads kmax (default 50), only s_grid s_grid; n and q_grid default per mode
    "scan": {"n": (int, None, FLAG), "kmax": (int, None, FLAG),
             "mode": (_one_of("lemma22", "s_grid"), "lemma22", FLAG),
             "q_grid": (list, None, CONFIG), "s_grid": (list, None, CONFIG),
             "out": (str, None, FLAG)},
    "flow": {"s": (float, FLOW.s, FLAG), "q": (float, FLOW.q, FLAG),
             "kmax": (int, FLOW.kmax, FLAG), "dt": (float, FLOW.dt, FLAG),
             "t_max": (float, FLOW.t_max, FLAG),
             "sample_every": (int, FLOW.sample_every, CONFIG),
             "init": (dict, FLOW.init, CONFIG), "out": (str, "flow_out.csv", FLAG)},
    "euclid": {"s": (float, 0.5, FLAG), "q": (float, None, FLAG),
               "mode": (_one_of("eigen", "thm16", "all"), "all", FLAG),
               "L": (float, EuclidParams.L, CONFIG), "N": (int, EuclidParams.N, CONFIG),
               "kmax": (int, 4, CONFIG), "out": (str, "euclid_out.json", FLAG)},
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
    """value converted to the option's type.  An int or float option
    takes only a number (not a bool, and 2.5 is not an int), a str, list
    or dict option only a JSON string, array or object."""
    if typ in (int, float) and not is_number(value):
        raise ValueError(f"{key} must be a number, got {value!r}")
    if typ is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if typ in (str, list, dict) and not isinstance(value, typ):
        raise ValueError(f"{key} cannot be read as {typ.__name__}: {value!r}")
    try:
        return typ(value)
    except OverflowError:       # an integer too large for a float
        raise ValueError(f"{key} cannot be read as {typ.__name__}: {value!r}") from None


def _spectral_columns(ps, kmax):
    """The gamma/delta/eps columns: the rows K, delta and R of
    spectrum.OPERATORS, NaN where a row does not admit ps."""
    return [OPERATORS[kind].sequence(ps, kmax) if OPERATORS[kind].admits(ps)
            else np.full(kmax + 1, np.nan) for kind in ("K", "delta", "R")]


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
    if not 0 <= kmax <= MAX_DEGREE:
        raise ValueError(f"kmax must lie in [0, {MAX_DEGREE}], got {kmax}")
    lines = [CONSTANTS_HEADER]
    tables = ["n,s,q,k,gamma,delta,eps"]
    gaps = []
    for row in rows:
        ps = derive_params(row["n"], row["s"], row.get("q"))
        lines.append(constants_row(ps))
        gamma, delta, eps = _spectral_columns(ps, kmax)
        for k in range(kmax + 1):
            tables.append("%d,%s,%s,%d,%.17g,%.17g,%.17g"
                          % (ps.n, repr(ps.s), repr(ps.q), k,
                             gamma[k], delta[k], eps[k]))
        if ps.s != 0.0 and ps.s < ps.n and kmax >= 1:   # C is NaN at s = 0, q* inf at s = n
            gaps.append((ps, *_slope_identity(ps, kmax)))
    _write(opt["out"], "\n".join(lines) + "\n\n" + "\n".join(tables) + "\n")
    ok = True
    for ps, gap, bound in gaps:
        ok &= gate("constants", gap, bound, f"C L_k against slope_k(q_star) at n={ps.n} "
                   f"s={ps.s}: relative gap {gap:.3e} above {bound:.3e}")
    return ok


def _slope_identity(ps, kmax):
    """max over k = 1..kmax of |C L_k / slope_k(q*) - 1|, and its bound: 8
    ulps per term of the kernel's product and sum, and per unit of the
    |log| of C and kappa (gamma_ratio; at most 745 in doubles), plus 16."""
    with np.errstate(all="ignore"):     # values that leave the doubles read NaN and fail
        slope = slope_sequence(ps.n, ps.q_star, kmax)[1:]
        gap = np.max(np.abs(ps.constant * operator_eigenvalue(ps, "L", kmax)[1:] / slope - 1.0))
        logs = np.minimum(np.abs(np.log([ps.kappa, ps.constant])), 745.0).sum()
    return float(gap), float(8.0 * np.finfo(float).eps * (kmax + 16.0 + logs))


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
        if not (is_number(value) or key == "q" and value is None):
            raise ValueError(f"rows[{i}]: {key} must be a number, got {value!r}")


def cmd_verify(opt):
    if opt["count"] > MAX_VERIFY_COUNT:
        raise ValueError(f"count must be at most {MAX_VERIFY_COUNT}, got {opt['count']}")
    for key in ("count", "seed"):       # random_suite would refuse them after the equality cases
        if opt[key] < 0:
            raise ValueError(f"{key} must be a non-negative integer, got {opt[key]}")
    before = rule_cache_info()
    with shared_bases():        # both suites and the identity share their basis and spectrum tables
        equality = equality_suite()
        reports = equality + random_suite(opt["seed"], opt["count"])
        identity = [(r, *sobolev_sides(r)) for r in reports if r.kind == "sobolev"]
    after = rule_cache_info()
    _write(opt["out"], reports_csv(reports))
    ok = True
    for i, r in enumerate(reports):
        ok &= gate("verify", -r.relative_deficit, KINDS[r.kind].gate,
                   f"{r.kind} n={r.n} s={r.s} q={r.q} "
                   f"relative deficit {r.relative_deficit:.3e}")
        if i < len(equality):
            ok &= gate("verify", abs(r.deficit), 1e-10,
                       f"equality case {r.kind} n={r.n} s={r.s} deficit {r.deficit:.3e}")
    for r, kf, rhs in identity:
        ok &= gate("verify", abs(kf - rhs), 1e-12 * max(1.0, abs(kf)),
                   f"sobolev n={r.n} s={r.s}: <F,KF> {kf:.17g} against "
                   f"||F||_2^2 + (q*-2) C <F,LF> {rhs:.17g}, not within 1e-12 max(1, |<F,KF>|)")
    worst = min(r.relative_deficit for r in reports)
    print(f"verify: {len(reports)} reports, min relative deficit {worst:.3e}, "
          f"quadrature rules {after.misses - before.misses} built, "
          f"{after.hits - before.hits} reused")
    return ok


def cmd_scan(opt):
    for key in ("q_grid", "s_grid"):
        for value in opt[key] or ():
            if not is_number(value):
                raise ValueError(f"{key} entries must be numbers, got {value!r}")
    unread = {"lemma22": "s_grid", "s_grid": "kmax"}[opt["mode"]]
    if opt[unread] is not None:
        raise ValueError(f"{unread} is not read by scan --mode {opt['mode']}")
    if opt["mode"] == "s_grid":
        return _scan_constant_landscape(opt)
    nmax = 5 if opt["n"] is None else opt["n"]
    kmax = 50 if opt["kmax"] is None else opt["kmax"]
    if nmax > MAX_SCAN_DIMENSIONS:
        raise ValueError(f"the scan covers at most {MAX_SCAN_DIMENSIONS} dimensions, "
                         f"got n = {nmax}")
    q_grid = opt["q_grid"]
    if q_grid is None:
        q_grid = [1.01] + [round(1.1 + 0.1 * i, 10) for i in range(189)]
    rep = monotonicity_scan(range(1, nmax + 1), q_grid, kmax)
    gap = finite_or_null(rep.min_gap)
    summary = json.dumps({
        "argmin": list(rep.argmin),
        "checked": rep.checked,
        "kmax": kmax,
        "min_gap": gap,
        "n_max": nmax,
        "q_count": len(q_grid),
        "violations": rep.violations,
    }, sort_keys=True, allow_nan=False)
    _write(opt["out"], summary + "\n")
    print(f"scan: {rep.checked} increments, {rep.violations} violations, "
          f"min gap {'null' if gap is None else format(gap, '.6e')}")
    return gate("scan", rep.violations, 0, f"{rep.violations} slope increments not positive")


def _scan_constant_landscape(opt):
    """CSV of the sharp constant over a (q, s) grid.

    The constant depends on s only; emitting it against a q grid makes
    the independence visible in the artifact, and the command asserts it
    by comparing rows across q at fixed s.  An n that is not a dimension,
    and a grid without one admissible pair, check nothing and are rejected.
    """
    n = 3 if opt["n"] is None else opt["n"]
    derive_params(n, 0.0)       # refuses such an n before the grid scales by it
    s_grid = opt["s_grid"]
    if s_grid is None:
        s_grid = [round(f * n, 10) for f in
                  (-0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 1.0)]
    q_grid = opt["q_grid"]
    if q_grid is None:
        q_grid = [1.2, 1.5, 2.0, 3.0, 4.0]
    lines = ["q,s,C"]
    spreads, ok = [], True
    for s in s_grid:
        vals = []
        for q in q_grid:
            try:
                ps = derive_params(n, s, q)
            except ValueError:
                continue        # (q, s) outside the family
            vals.append(ps.constant)
            lines.append("%.17g,%.17g,%.17g" % (q, s, ps.constant))
        if vals:        # a constant that is not finite (none at s = 0) has no spread
            spread = max(vals) - min(vals) if all(map(math.isfinite, vals)) else math.nan
            ok &= gate("scan", spread, 0.0, f"constant at s={s} spreads {spread:.3e} across q")
            spreads.append(spread)
    if len(lines) == 1:
        raise ValueError(f"no admissible (q, s) pair in the grid for n = {n}")
    _write(opt["out"], "\n".join(lines) + "\n")
    print(f"scan: constant landscape n={n}, worst spread across q {np.max(spreads):.3e}")
    return ok


def cmd_flow(opt):
    out = opt.pop("out")
    res = run_flow(FlowConfig(**opt))
    _write(out, res.csv())
    _write(os.path.splitext(out)[0] + ".json", res.summary() + "\n")
    for t, e, b in zip(res.times, res.entropy, res.bound):
        if not gate("flow", e, b * (1.0 + 1e-9) + 1e-10,
                    f"entropy {e:.3e} not within bound {b:.3e} at t={t}"):
            return False
    if not gate("flow", res.mass_drift, 1e-8, f"mass drift {res.mass_drift:.3e} above 1e-8"):
        return False
    print(f"flow: fitted rate {res.fitted_rate:.6f}, theoretical "
          f"{res.theoretical_rate:.6f}, ratio {res.ratio:.4f}, "
          f"mass drift {res.mass_drift:.2e}")
    return True


def cmd_euclid(opt):
    mode, s, q, kmax = opt["mode"], opt["s"], opt["q"], opt["kmax"]
    if not 0 <= kmax <= MAX_EUCLID_KMAX:
        raise ValueError(f"kmax must be >= 0 and at most {MAX_EUCLID_KMAX}, got {kmax}")
    eu = EuclidParams(s=s, L=opt["L"], N=opt["N"])      # refuses s outside (0, 1) first
    if q is None:
        q = 0.5 * (2.0 + derive_params(1, s).q_star)
    ps = derive_params(1, s, q)
    summary = {"q": q, "s": s}
    parts, ok = [], True        # parts of the verdict line, and the verdict

    if mode in ("eigen", "all"):
        residuals = {str(k): eigen_residual(s, k, eu.L, eu.N)
                     for k in range(kmax + 1)}
        summary["eigen_residuals"] = {k: finite_or_null(r) for k, r in residuals.items()}
        for k, r in residuals.items():
            ok &= gate("euclid", r, 1e-3, f"eigen-residual {r:.3e} at k={k} not within 1e-3")
        parts.append(f"worst eigen-residual {max(residuals.values()):.3e}")

    if mode in ("thm16", "all"):
        report = thm16_deficit(lambda x: f_star(s, x), ps)
        summary.update(deficit=finite_or_null(report.deficit),
                       lhs=finite_or_null(report.lhs), rhs=finite_or_null(report.rhs))
        parts.append(f"optimizer deficit {report.deficit:.3e}")
        ok &= gate("euclid", abs(report.deficit), 1e-12 * max(1.0, abs(report.rhs)),
                   f"optimizer deficit {report.deficit:.3e} not within 1e-12 max(1, |rhs|)")

    _write(opt["out"], json.dumps(summary, sort_keys=True, allow_nan=False) + "\n")

    if ok:
        print("euclid: " + ", ".join(parts))
    return ok


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
        passed = commands[args.command](resolve(args.command, args))
    except ValueError as exc:
        print(f"fracsphere {args.command}: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
