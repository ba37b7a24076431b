"""The four benchmark workloads.

Each workload has four functions, all driven by fracsphere's public API:

  setup(seed, small, out_dir) -> state    inputs from the seed, program objects
  run(state) -> outputs                   the timed phase
  attempted(outputs) -> operations in the round
  check(outputs, seed) -> (failures, failed)

setup is where fracsphere is first imported, so its cost (the sources
are compiled on import when bytecode writing is off) counts in setup_s.
The checks import scipy and mpmath only after the timed phase, so that
neither shows in setup_s or in the peak resident set.
check returns the messages of every failed check and the number of
operations that failed; a workload is correct when failures is empty.
small=True shrinks every size for the benchmark's own tests.
"""

import contextlib
import io
import json
import os

import numpy as np

# how many reports of a round are recomputed independently
SAMPLE = 8


def _sample(seed, count):
    rng = np.random.default_rng([seed, 7])
    return sorted(rng.choice(count, size=min(SAMPLE, count), replace=False).tolist())


# ---------------------------------------------------------------------------
# verify-suite: the work of `fracsphere verify`


def verify_setup(seed, small, out_dir):
    from fracsphere import cli
    count = 6 if small else 200
    out = os.path.join(out_dir, f"verify-{os.getpid()}.csv")
    argv = ["verify", "--count", str(count), "--seed", str(seed), "--out", out]
    return {"main": cli.main, "argv": argv, "out": out, "count": count}


def verify_run(st):
    log = io.StringIO()
    with contextlib.redirect_stdout(log):
        rc = st["main"](st["argv"])
    return {"rc": rc, "out": st["out"], "count": st["count"]}


def read_reports_csv(path):
    """Rows of the verify CSV; the last column is a JSON string literal
    holding the field descriptor."""
    import checks
    rows = []
    with open(path) as fh:
        header, *lines = fh.read().splitlines()
    names = header.split(",")[:8]
    for line in lines:
        parts = line.split(",", 8)
        r = dict(zip(names, parts[:8]))
        desc = json.loads(json.loads(parts[8]))
        rows.append({"kind": r["kind"], "n": int(r["n"]), "s": float(r["s"]),
                     "q": float(r["q"]), "lhs": float(r["lhs"]),
                     "rhs": float(r["rhs"]), "deficit": float(r["deficit"]),
                     "coeffs": checks.parse_coeffs(desc["coeffs"])})
    return rows


def verify_check(out, seed):
    import checks
    if out["rc"] != 0:
        return [f"verify exited with {out['rc']}"], 0
    rows = read_reports_csv(out["out"])
    os.remove(out["out"])
    # the equality suite has 12 cases, one report each
    if len(rows) != out["count"] + 12:
        return [f"verify wrote {len(rows)} reports, expected {out['count'] + 12}"], 0
    return checks.check_reports(rows, _sample(seed, len(rows))), 0


def verify_attempted(out):
    return out["count"] + 12


# ---------------------------------------------------------------------------
# deficit-sweep: every kind at rule sizes that never repeat


SWEEP_CASES = (
    ("interpolation", 3, 2.0, 4.0),
    ("interpolation", 2, 1.0, 3.0),
    ("sobolev", 2, 1.0, None),
    ("hls", 1, -0.5, 1.2),
    ("poincare", 3, 2.0, None),
    ("logsob", 2, 1.0, 2.0),
    ("logsob_critical", 1, 0.0, 2.0),
    ("s0_subcritical", 2, 0.0, 1.2),
    ("improved", 1, 0.5, 3.0),
    ("square", 2, 1.0, None),
)

# Degrees: deficit() builds max(160, 6(K+1)) nodes and deficit_square()
# max(256, 16(K+1)), so these give every call its own rule: 162 to 930
# nodes for the nine deficit() calls, in steps of 96, and 976 for
# deficit_square().
DEFICIT_DEGREES = tuple(26 + 16 * i for i in range(9))
SQUARE_DEGREE = 60

# near-constant probes F = 1 + eps (Y_1 + 0.3 Y_2) on S^3, s = 2, q = 4,
# each padded with zero coefficients to a degree whose rule is its own
PROBES = ((1e-8, 2), (1e-6, 27))


def sweep_field(rng, kmax):
    """Seeded band-limited field, the same family as the program's
    random_band_limited descriptors: 1 + 0.4 * (normal modes)."""
    c = rng.standard_normal(kmax + 1)
    c *= 0.4 / max(1.0, np.abs(c).max())
    c[0] += 1.0
    return c


def sweep_setup(seed, small, out_dir):
    from fracsphere import ZonalField, deficit, deficit_square, derive_params
    rng = np.random.default_rng(seed)
    calls = []
    deg = iter(DEFICIT_DEGREES)
    for kind, n, s, q in SWEEP_CASES:
        if small:
            kmax = 3 + len(calls)
        else:
            kmax = SQUARE_DEGREE if kind == "square" else next(deg)
        fld = ZonalField(n=n, coeffs=sweep_field(rng, kmax))
        calls.append((kind, fld, derive_params(n, s, q)))
    ps = derive_params(3, 2.0, 4.0)
    probes = []
    for eps, kmax in PROBES:
        c = np.zeros(kmax + 1)
        c[:3] = [1.0, eps, 0.3 * eps]
        probes.append((eps, ZonalField(n=3, coeffs=c), ps))
    return {"calls": calls, "probes": probes, "deficit": deficit,
            "deficit_square": deficit_square}


def sweep_run(st):
    deficit, square = st["deficit"], st["deficit_square"]
    reports = [square(fld, ps) if kind == "square" else deficit(fld, ps, kind)
               for kind, fld, ps in st["calls"]]
    probes = [(eps, deficit(fld, ps, "interpolation")) for eps, fld, ps in st["probes"]]
    return {"reports": reports, "fields": [fld for _, fld, _ in st["calls"]],
            "probes": probes}


def sweep_rows(out):
    return [{"kind": r.kind, "n": r.n, "s": r.s, "q": r.q, "lhs": r.lhs,
             "rhs": r.rhs, "deficit": r.deficit, "coeffs": fld.coeffs}
            for r, fld in zip(out["reports"], out["fields"])]


def sweep_check(out, seed):
    import checks
    rows = sweep_rows(out)
    bad = checks.check_reports(rows, _sample(seed, len(rows)))
    failed = checks.probe_failures(
        [{"eps": eps, "lhs": r.lhs, "deficit": r.deficit} for eps, r in out["probes"]])
    return bad, len(failed)


def sweep_attempted(out):
    return len(out["reports"]) + len(out["probes"])


# ---------------------------------------------------------------------------
# flow-wide: one long flow at kmax 256 (1024 nodes)


FLOW = {"kmax": 256, "s": 0.5, "q": 4.0, "dt": 1e-3, "steps": 3000, "every": 25}
FLOW_SMALL = dict(FLOW, kmax=32)


def flow_setup(seed, small, out_dir):
    from fracsphere.flow import FlowConfig, FlowOps, fit_rate, rk4_step
    p = FLOW_SMALL if small else FLOW
    cfg = FlowConfig(n=1, s=p["s"], q=p["q"], kmax=p["kmax"], dt=p["dt"],
                     init={"family": "one_plus_eps_y1", "eps": 0.01})
    ops = FlowOps(cfg)
    return {"ops": ops, "u": ops.init_values(), "p": p, "step": rk4_step,
            "fit": fit_rate}


def flow_run(st):
    ops, u, p, step = st["ops"], st["u"], st["p"], st["step"]
    dt = p["dt"]
    times, ent, mass = [0.0], [ops.entropy(u)], [ops.mass(u)]
    for i in range(1, p["steps"] + 1):
        u = step(ops, u, dt)
        if i % p["every"] == 0:
            times.append(i * dt)
            ent.append(ops.entropy(u))
            mass.append(ops.mass(u))
    rate = st["fit"](np.asarray(times), np.asarray(ent))
    return {"times": times, "entropy": ent, "mass": mass, "rate": rate,
            "s": p["s"], "steps": p["steps"]}


def flow_check(out, seed):
    import checks
    return checks.check_flow(out["times"], out["entropy"], out["mass"],
                             out["rate"], out["s"]), 0


def flow_attempted(out):
    return out["steps"]


# ---------------------------------------------------------------------------
# euclid-line: eigen-residuals and line deficits on the line


EUCLID_S = (0.2, 0.35, 0.5, 0.65, 0.8)
EUCLID_KMAX = 11
EUCLID_PERTURBED = 4      # seeded perturbations of f* per order s
EUCLID_MODES = 6


def euclid_setup(seed, small, out_dir):
    from fracsphere import derive_params, eigen_residual, thm16_deficit
    from fracsphere.euclid import f_star, stereo_angle
    rng = np.random.default_rng(seed)
    s_list = EUCLID_S[:2] if small else EUCLID_S
    residuals = [(s, k) for s in s_list for k in range(3 if small else EUCLID_KMAX + 1)]
    j = np.arange(1, EUCLID_MODES + 1)
    lines = []
    for s in s_list:
        q_star = 2.0 / (1.0 - s)
        q = 2.0 + rng.uniform(0.1, 0.9) * (q_star - 2.0)
        ps = derive_params(1, s, q)
        lines.append(("optimizer", ps, lambda x, s=s: f_star(s, x)))
        for _ in range(EUCLID_PERTURBED):
            a = rng.uniform(-0.1, 0.1, j.size) / j
            b = rng.uniform(-0.1, 0.1, j.size) / j

            def f(x, s=s, a=a, b=b):
                th = stereo_angle(x)[None, :] * j[:, None]
                return f_star(s, x) * (1.0 + a @ np.cos(th) + b @ np.sin(th))
            lines.append(("perturbed", ps, f))
    return {"residuals": residuals, "lines": lines, "eigen_residual": eigen_residual,
            "thm16_deficit": thm16_deficit}


def euclid_run(st):
    res = {(s, k): st["eigen_residual"](s, k) for s, k in st["residuals"]}
    thm16 = st["thm16_deficit"]
    lines = [(tag, thm16(f, ps)) for tag, ps, f in st["lines"]]
    return {"residuals": res, "lines": lines}


def euclid_check(out, seed):
    import checks
    from fracsphere.euclid import euclid_eigenvalue
    eig = {(s, j): euclid_eigenvalue(s, j)
           for s, k in out["residuals"] for j in range(k, k + 7, 2)}

    def rows(tag):
        return [{"lhs": r.lhs, "rhs": r.rhs, "deficit": r.deficit}
                for t, r in out["lines"] if t == tag]
    return checks.check_euclid(out["residuals"], eig, rows("optimizer"),
                               rows("perturbed")), 0


def euclid_attempted(out):
    return len(out["residuals"]) + len(out["lines"])


WORKLOADS = {
    "verify-suite": (verify_setup, verify_run, verify_check, verify_attempted),
    "deficit-sweep": (sweep_setup, sweep_run, sweep_check, sweep_attempted),
    "flow-wide": (flow_setup, flow_run, flow_check, flow_attempted),
    "euclid-line": (euclid_setup, euclid_run, euclid_check, euclid_attempted),
}
