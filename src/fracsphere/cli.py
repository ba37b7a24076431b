"""Command line front end.

Five subcommands:

  constants   derived parameters plus gamma/delta/eps columns up to K
  verify      deficit reports for equality cases plus seeded random fields
  scan        slope monotonicity scan, or the (q, s) constant landscape
  flow        entropy decay of the fast-diffusion flow on the circle
  euclid      line-side checks: eigen-residuals, optimizer deficit, profile

Options may come from a JSON config file (--config) whose optional
"command" key must agree with the subcommand; explicit flags win over
the file.  All outputs are deterministic for a fixed config and seed,
byte for byte.  The environment variable FRACSPHERE_TOL (default 1e-10)
sets the deficit gate used by verify and euclid.  Exit status is 1
when an asserted bound fails and 2 on bad input.
"""

import argparse
import json
import os
import sys

import numpy as np

from .euclid import (EuclidParams, eigen_residual, f_star, grid_field,
                     thm16_deficit)
from .flow import FlowConfig, run_flow
from .inequality import equality_suite, random_suite, reports_csv
from .spectrum import (CONSTANTS_HEADER, constants_row, delta_sequence,
                       derive_params, gamma_sequence, monotonicity_scan,
                       remainder_sequence)

DEFAULT_TOL = 1e-10


def tolerance():
    return float(os.environ.get("FRACSPHERE_TOL", DEFAULT_TOL))


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _merge(file_cfg, args, keys):
    """Config-file values first, explicit flags override."""
    out = dict(file_cfg)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            out[key] = val
    return out


def _load_config(path, command):
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    named = cfg.get("command")
    if named is not None and named != command:
        raise SystemExit(f"config names command {named!r}, invoked as {command!r}")
    return cfg


def _spectral_columns(ps, kmax):
    """gamma/delta/eps sequences, NaN-filled where a column degenerates."""
    nan = np.full(kmax + 1, np.nan)
    gamma = nan if ps.s == ps.n else gamma_sequence(ps.n, ps.x_crit, kmax)
    delta = delta_sequence(ps.n, ps.s, kmax)
    eps = remainder_sequence(ps, kmax) if 0.0 < ps.s < ps.n else nan
    return gamma, delta, eps


def cmd_constants(args):
    cfg = _merge(_load_config(args.config, "constants"), args,
                 ("n", "s", "q", "kmax", "out"))
    rows = cfg.get("rows")
    if rows is None:
        rows = [{"n": cfg.get("n", 1), "s": cfg.get("s", 0.5), "q": cfg.get("q")}]
    kmax = int(cfg.get("kmax") or 8)
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
    _write(cfg.get("out"), "\n".join(lines) + "\n\n" + "\n".join(tables) + "\n")
    return 0


def cmd_verify(args):
    cfg = _merge(_load_config(args.config, "verify"), args,
                 ("count", "seed", "out"))
    tol = tolerance()
    reports = equality_suite() + random_suite(int(cfg.get("seed", 0)),
                                              int(cfg.get("count", 200)))
    _write(cfg.get("out"), reports_csv(reports))
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
    print(f"verify: {len(reports)} reports, min relative deficit {worst:.3e}")
    return 0 if ok else 1


def cmd_scan(args):
    cfg = _merge(_load_config(args.config, "scan"), args,
                 ("n", "kmax", "mode", "out"))
    if cfg.get("mode", "lemma22") == "s_grid":
        return _scan_constant_landscape(cfg)
    nmax = int(cfg.get("n") or 5)
    kmax = int(cfg.get("kmax") or 50)
    q_grid = cfg.get("q_grid")
    if q_grid is None:
        q_grid = [1.01] + [round(1.1 + 0.1 * i, 10) for i in range(189)]
    rep = monotonicity_scan(range(1, nmax + 1), q_grid, kmax)
    summary = json.dumps({
        "argmin": list(rep.argmin),
        "checked": rep.checked,
        "kmax": kmax,
        "min_gap": rep.min_gap,
        "n_max": nmax,
        "q_count": len(q_grid),
        "violations": rep.violations,
    }, sort_keys=True)
    _write(cfg.get("out"), summary + "\n")
    print(f"scan: {rep.checked} increments, {rep.violations} violations, "
          f"min gap {rep.min_gap:.6e}")
    return 0 if rep.violations == 0 else 1


def _scan_constant_landscape(cfg):
    """CSV of the sharp constant over a (q, s) grid.

    The constant depends on s only; emitting it against a q grid makes
    the independence visible in the artifact, and the command asserts it
    by comparing rows across q at fixed s.
    """
    n = int(cfg.get("n") or 3)
    s_grid = cfg.get("s_grid")
    if s_grid is None:
        s_grid = [round(f * n, 10) for f in
                  (-0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 1.0)]
    q_grid = cfg.get("q_grid") or [1.2, 1.5, 2.0, 3.0, 4.0]
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
    _write(cfg.get("out"), "\n".join(lines) + "\n")
    print(f"scan: constant landscape n={n}, worst spread across q {spread:.3e}")
    return 0 if spread == 0.0 else 1


def cmd_flow(args):
    cfg = _merge(_load_config(args.config, "flow"), args,
                 ("s", "q", "out", "dt", "t_max", "kmax"))
    fc = FlowConfig(
        s=float(cfg.get("s", 0.5)),
        q=float(cfg.get("q", 4.0)),
        kmax=int(cfg.get("kmax") or 32),
        dt=float(cfg.get("dt") or 1e-3),
        t_max=float(cfg.get("t_max") or 6.0),
        sample_every=int(cfg.get("sample_every", 50)),
        init=cfg.get("init", {"family": "one_plus_eps_y1", "eps": 0.01}),
    )
    res = run_flow(fc)
    out = cfg.get("out") or "flow_out.csv"
    _write(out, res.csv())
    _write(os.path.splitext(out)[0] + ".json", res.summary() + "\n")
    # every gate reads "not (value within bound)", so NaN fails it
    within = res.entropy <= res.bound * (1.0 + 1e-9) + tolerance()
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


def cmd_euclid(args):
    cfg = _merge(_load_config(args.config, "euclid"), args,
                 ("s", "q", "mode", "out", "seed"))
    mode = cfg.get("mode", "all")
    if mode not in ("eigen", "thm16", "all"):
        print(f"euclid: unknown mode {mode!r}", file=sys.stderr)
        return 2
    s = float(cfg.get("s", 0.5))
    ps_probe = derive_params(1, s)
    q = cfg.get("q")
    q = 0.5 * (2.0 + ps_probe.q_star) if q is None else float(q)
    ps = derive_params(1, s, q)
    eu = EuclidParams(n=1, s=s, L=float(cfg.get("L", 60.0)),
                      N=int(cfg.get("N", 2 ** 15)))
    kmax = int(cfg.get("kmax") or 4)
    tol = tolerance()
    summary = {"q": q, "s": s}
    ok = True

    if mode in ("eigen", "all"):
        residuals = {str(k): eigen_residual(s, k, eu.L, eu.N)
                     for k in range(kmax + 1)}
        summary["eigen_residuals"] = residuals
        worst = max(residuals.values())
        if worst > 1e-3:
            print(f"euclid: FAIL eigen-residual {worst:.3e} exceeds 1e-3",
                  file=sys.stderr)
            ok = False

    if mode in ("thm16", "all"):
        report = thm16_deficit(lambda x: f_star(s, x), ps,
                               descriptor=json.dumps({"family": "pullback_fstar"}))
        summary["deficit"] = report.deficit
        summary["lhs"] = report.lhs
        summary["rhs"] = report.rhs
        if report.deficit < -max(tol, 1e-8):
            print(f"euclid: FAIL optimizer deficit {report.deficit:.3e}",
                  file=sys.stderr)
            ok = False

    gf = grid_field(lambda x: f_star(s, x), eu)
    out = cfg.get("out") or "euclid_out.csv"
    lines = ["x,value"]
    lines.extend(f"{float(x)!r},{float(v)!r}" for x, v in zip(gf.x, gf.values))
    _write(out, "\n".join(lines) + "\n")
    _write(os.path.splitext(out)[0] + ".json",
           json.dumps(summary, sort_keys=True) + "\n")

    if ok:
        parts = []
        if "eigen_residuals" in summary:
            parts.append(f"worst eigen-residual "
                         f"{max(summary['eigen_residuals'].values()):.3e}")
        if "deficit" in summary:
            parts.append(f"optimizer deficit {summary['deficit']:.3e}")
        print("euclid: " + ", ".join(parts))
    return 0 if ok else 1


def build_parser():
    p = argparse.ArgumentParser(prog="fracsphere", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    specs = {
        "constants": cmd_constants,
        "verify": cmd_verify,
        "scan": cmd_scan,
        "flow": cmd_flow,
        "euclid": cmd_euclid,
    }
    for name, fn in specs.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--n", type=int)
        sp.add_argument("--s", type=float)
        sp.add_argument("--q", type=float)
        sp.add_argument("--out")
        sp.add_argument("--seed", type=int)
        if name == "constants":
            sp.add_argument("--kmax", type=int)
        if name == "verify":
            sp.add_argument("--count", type=int)
        if name == "scan":
            sp.add_argument("--kmax", type=int)
            sp.add_argument("--mode", choices=("lemma22", "s_grid"))
        if name == "flow":
            sp.add_argument("--dt", type=float)
            sp.add_argument("--t-max", dest="t_max", type=float)
            sp.add_argument("--kmax", type=int)
        if name == "euclid":
            sp.add_argument("--mode", choices=("eigen", "thm16", "all"))
        sp.set_defaults(func=fn)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"fracsphere {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
