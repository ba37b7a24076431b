"""Acceptance gate: one check per shipped guarantee, one printed line each.

Every test times itself against the stated runtime budget, prints a
single PASS/FAIL line with the measured quantities (visible under the
default -rA report), and only then asserts.  Tolerances here are the
contract; the unit test files probe the same machinery more finely.
"""

import time

import numpy as np

from fracsphere.euclid import (eigen_residual, f_star, thm16_coefficients,
                               thm16_deficit)
from fracsphere.field import ZonalField, field_from_descriptor
from fracsphere.flow import FlowConfig, FlowOps, rk4_step, run_flow
from fracsphere.inequality import deficit, equality_suite, random_suite
from fracsphere.spectrum import derive_params, monotonicity_scan, operator_eigenvalue
from reference import (DenseFlow, alpha_sequence, funk_hecke_mu, sharp_quotient,
                       taylor_bounds, taylor_remainder)


def _gate(num, name, ok, detail, elapsed, budget):
    ok = ok and elapsed < budget
    print("[ACCEPT] %02d %-22s %s (%s, %.2fs of %gs budget)"
          % (num, name, "PASS" if ok else "FAIL", detail, elapsed, budget))
    assert ok, f"criterion {num} ({name}): {detail}"


def test_01_classical_identity():
    t0 = time.perf_counter()
    worst_delta, worst_c = 0.0, 0.0
    for n in (3, 4, 5):
        d = operator_eigenvalue(derive_params(n, 2.0, 1.0), "delta", 20)
        k = np.arange(21, dtype=float)
        ref = k * (k + n - 1)
        worst_delta = max(worst_delta,
                          np.max(np.abs(d - ref) / np.maximum(ref, 1.0)))
        worst_c = max(worst_c, abs(derive_params(n, 2.0, 1.0).constant * n - 1.0))
    _gate(1, "classical identity",
          worst_delta <= 1e-12 and worst_c <= 1e-14,
          "delta rel err %.2e <= 1e-12, n*C err %.2e <= 1e-14"
          % (worst_delta, worst_c),
          time.perf_counter() - t0, 1.0)


def test_02_slope_monotonicity():
    t0 = time.perf_counter()
    q_grid = [1.01] + [round(1.1 + 0.1 * i, 10) for i in range(189)]
    rep = monotonicity_scan(range(1, 6), q_grid, 50)
    _gate(2, "slope monotonicity",
          rep.violations == 0 and rep.min_gap > 0.0,
          "%d increments, %d violations, min gap %.3e at %s"
          % (rep.checked, rep.violations, rep.min_gap, rep.argmin),
          time.perf_counter() - t0, 5.0)


def test_03_kernel_projection():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3):
        for lam in (0.5, 1.0, 1.5, n - 0.1):
            for k in range(9):
                quad, closed = funk_hecke_mu(n, lam, k)
                worst = max(worst, abs(quad - closed) / abs(closed))
    _gate(3, "kernel projection", worst <= 1e-8,
          "quadrature vs closed form rel err %.2e <= 1e-8" % worst,
          time.perf_counter() - t0, 5.0)


def test_04_deficit_suite():
    t0 = time.perf_counter()
    eq = equality_suite()
    rnd = random_suite(0, 200)
    worst_rel = min(r.relative_deficit for r in rnd)
    worst_eq = max(abs(r.deficit) for r in eq)
    kinds = {r.kind for r in rnd}
    line_eq = max(abs(thm16_deficit(lambda x: f_star(s, x),
                                    derive_params(1, s, q)).deficit)
                  for s, q in ((0.5, 3.0), (0.7, 2.5)))
    ok = (worst_rel >= -1e-10 and worst_eq <= 1e-10
          and line_eq <= 1e-6 and len(kinds) == 9)
    _gate(4, "deficit suite", ok,
          "%d fields/%d kinds, min rel deficit %.2e >= -1e-10, equality "
          "%.2e <= 1e-10 (line %.2e <= 1e-6)"
          % (len(rnd), len(kinds), worst_rel, worst_eq, line_eq),
          time.perf_counter() - t0, 30.0)


def test_05_sharpness_probe():
    t0 = time.perf_counter()
    cases = ((1, 0.5, 3.0), (3, 2.0, 4.0), (2, 1.0, 3.5),
             (3, 2.0, 1.5), (1, -0.5, 1.2), (2, 1.0, 2.0))
    eps = (1e-2, 1e-3, 1e-4)
    ok = True
    worst_ratio, floor = 0.0, np.inf
    for n, s, q in cases:
        ps = derive_params(n, s, q)
        probes = [sharp_quotient(ZonalField(n, [1.0, e]), ps) - 1.0 for e in eps]
        ok &= probes[0] > probes[1] > probes[2]
        for p, e in zip(probes, eps):
            ok &= abs(p) <= 5.0 * e and p >= -1e-10
            worst_ratio = max(worst_ratio, abs(p) / e)
            floor = min(floor, p)
    _gate(5, "sharpness probe", ok,
          "6 cases decreasing, max |probe|/eps %.3f <= 5, min probe %.1e "
          ">= -1e-10" % (worst_ratio, floor),
          time.perf_counter() - t0, 5.0)


def test_06_remainder_improvement():
    t0 = time.perf_counter()
    ok = True
    min_eps = np.inf
    for n, s in ((1, 0.5), (2, 1.0), (3, 2.0), (4, 2.0), (5, 2.5)):
        q_star = 2.0 * n / (n - s)
        for q in (1.2, 2.0, 0.5 * (2.0 + q_star), 0.9 * q_star):
            tail = operator_eigenvalue(derive_params(n, s, q), "R", 64)[2:]
            ok &= bool((tail > 0.0).all())
            min_eps = min(min_eps, tail.min())
    gap_min, low_gap = np.inf, 0.0
    for n, s in ((1, 0.5), (2, 1.0), (3, 2.0)):
        ps = derive_params(n, s, 0.5 * (2.0 + 2.0 * n / (n - s)))
        fields = [field_from_descriptor(
            {"family": "random_band_limited", "kmax": 8,
             "seed": 40 + j, "scale": 0.4}, n) for j in range(4)]
        fields.append(field_from_descriptor({"coeffs": [[0, 1.0], [1, 0.5]]}, n))
        for fld in fields:
            d_int = deficit(fld, ps, "interpolation").deficit
            d_imp = deficit(fld, ps, "improved").deficit
            gap = d_int - d_imp
            ok &= gap >= -1e-12 * max(1.0, abs(d_int))
            if fld.kmax >= 2:
                ok &= gap > 1e-12       # genuine high modes: strictly better
                gap_min = min(gap_min, gap)
            else:
                ok &= abs(gap) <= 1e-12 * max(1.0, abs(d_int))
                low_gap = max(low_gap, abs(gap))
    _gate(6, "remainder improvement", ok,
          "min eps_k %.3e > 0, min high-mode gap %.3e, low-mode gap %.1e"
          % (min_eps, gap_min, low_gap),
          time.perf_counter() - t0, 2.0)


def test_07_entropy_decay():
    t0 = time.perf_counter()
    ok = True
    worst_ratio, worst_drift, worst_diss = 0.0, 0.0, 0.0
    for s in (0.5, 1.0):
        for q in (1.5, 4.0):
            cfg = FlowConfig(s=s, q=q, kmax=32, dt=1e-3, t_max=6.0)
            res = run_flow(cfg)
            ok &= bool((res.entropy <= res.bound * (1.0 + 1e-9) + 1e-15).all())
            ok &= abs(res.ratio - 1.0) <= 0.02
            ok &= res.mass_drift <= 1e-8
            worst_ratio = max(worst_ratio, abs(res.ratio - 1.0))
            worst_drift = max(worst_drift, res.mass_drift)
            # entropy production against the dense reference's dissipation,
            # probed mid-flow by a centered difference of one step
            ops = FlowOps(cfg)
            u = ops.init_values()
            for _ in range(200):
                u = rk4_step(ops, u, cfg.dt)
            h = 1e-4
            dE = (ops.entropy(rk4_step(ops, u, h))
                  - ops.entropy(rk4_step(ops, u, -h))) / (2.0 * h)
            diss = DenseFlow(ops).dissipation(u)
            rel = abs(dE + diss) / diss
            ok &= rel <= 0.02
            worst_diss = max(worst_diss, rel)
    _gate(7, "entropy decay", ok,
          "4 cases: |rate ratio - 1| %.1e <= 0.02, drift %.1e <= 1e-8, "
          "dE/dt mismatch %.1e <= 0.02"
          % (worst_ratio, worst_drift, worst_diss),
          time.perf_counter() - t0, 240.0)


def test_08_line_eigenfunctions():
    t0 = time.perf_counter()
    ok = True
    worst, worst_ratio = 0.0, 0.0
    for s in (0.3, 0.7):
        for k in range(5):
            base = eigen_residual(s, k, 60.0, 2 ** 15)
            fine = eigen_residual(s, k, 120.0, 2 ** 16)
            ok &= base <= 1e-3 and fine < base
            worst = max(worst, base)
            worst_ratio = max(worst_ratio, fine / base)
    _gate(8, "line eigenfunctions", ok,
          "10 pairs: residual %.2e <= 1e-3, doubling ratio %.2f < 1"
          % (worst, worst_ratio),
          time.perf_counter() - t0, 30.0)


def test_09_line_optimizer():
    t0 = time.perf_counter()
    perturbs = (
        lambda s: (lambda x: f_star(s, x) * (1.0 + 0.1 * x / (1.0 + x * x))),
        lambda s: (lambda x: f_star(s, x) * (1.0 + 0.05 / (1.0 + x * x))),
        lambda s: (lambda x: f_star(s, x)
                   * (1.0 + 0.05 * np.cos(x) * np.exp(-x * x / 8.0))),
    )
    ok = True
    worst_opt, min_pert = 0.0, np.inf
    for s, q in ((0.5, 3.0), (0.7, 2.5)):
        ps = derive_params(1, s, q)
        opt = thm16_deficit(lambda x: f_star(s, x), ps)
        ok &= abs(opt.deficit) <= 1e-6
        worst_opt = max(worst_opt, abs(opt.deficit))
        for mk in perturbs:
            d = thm16_deficit(mk(s), ps).deficit
            ok &= d > 1e-8
            min_pert = min(min_pert, d)
    a0, b0 = thm16_coefficients(derive_params(1, 0.5, 2.0))
    a1, b1 = thm16_coefficients(derive_params(1, 0.5, 2.0 + 1e-6))
    ok &= abs(a0) <= 1e-14 and abs(b0 - 1.0) <= 1e-14
    ok &= abs(a1) <= 1e-3 and abs(b1 - 1.0) <= 1e-3
    _gate(9, "line optimizer", ok,
          "optimizer deficit %.1e <= 1e-6, perturbed >= %.2e > 0, "
          "endpoint (a, b) = (%.1e, 1 - %.1e)"
          % (worst_opt, min_pert, abs(a0), abs(b0 - 1.0)),
          time.perf_counter() - t0, 30.0)


def test_10_pointwise_remainder():
    t0 = time.perf_counter()
    grid = np.linspace(-5.0, 5.0, 2001)
    ok = True
    worst_slack = 0.0
    for q in (2.5, 3.0, 4.0, 7.0):
        r = taylor_remainder(grid, q)
        for t, rv in zip(grid, r):
            _, lo, hi = taylor_bounds(t, q)
            pad = 1e-12 * max(1.0, abs(lo), abs(hi))
            ok &= lo - pad <= rv <= hi + pad
            worst_slack = max(worst_slack, max(lo - rv, rv - hi))
        ok &= bool((r[grid >= 0.0] >= -1e-12).all())
        inner = (grid > -1.0) & (grid < 0.0)
        ok &= bool((r[inner] <= 1e-12).all())
    _gate(10, "pointwise remainder", ok,
          "4 exponents x 2001 points in case bounds (worst overshoot %.1e), "
          "sign pattern holds" % worst_slack,
          time.perf_counter() - t0, 1.0)


def test_11_limit_consistency():
    t0 = time.perf_counter()
    ok = True
    worst_rich = 0.0
    h = 1e-4
    for n, s, seed in ((3, 2.0, 5), (1, 0.5, 9), (2, 1.0, 21)):
        fld = field_from_descriptor({"family": "random_band_limited",
                                     "kmax": 8, "seed": seed, "scale": 0.4}, n)
        d_ls = deficit(fld, derive_params(n, s, 2.0), "logsob").deficit
        d_lo = deficit(fld, derive_params(n, s, 2.0 - h), "interpolation").deficit
        d_hi = deficit(fld, derive_params(n, s, 2.0 + h), "interpolation").deficit
        ok &= min(d_lo, d_hi) <= d_ls <= max(d_lo, d_hi)
        rich = abs(0.5 * (d_lo + d_hi) - d_ls)
        ok &= rich <= 1e-6
        worst_rich = max(worst_rich, rich)
    hs = 1e-5
    worst_fd = 0.0
    for n in (1, 2, 3):
        target = 0.5 * alpha_sequence(n, n / 2.0, 10)
        kp = operator_eigenvalue(derive_params(n, hs, 1.0), "K", 10)
        km = operator_eigenvalue(derive_params(n, -hs, 1.0), "K", 10)
        worst_fd = max(worst_fd, np.max(np.abs((kp - km) / (2.0 * hs) - target)))
    ok &= worst_fd <= 1e-6
    _gate(11, "limit consistency", ok,
          "3 fields bracket with Richardson err %.1e <= 1e-6, eigenvalue "
          "d/ds FD err %.1e <= 1e-6" % (worst_rich, worst_fd),
          time.perf_counter() - t0, 5.0)
