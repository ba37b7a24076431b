"""Reference computations and output checks, made apart from fracsphere.

Nothing here imports fracsphere.  Quadrature rules come from
scipy.special.roots_jacobi, zonal harmonics from eval_gegenbauer /
eval_chebyt with closed-form normalizations, spectral sequences from
gammaln and digamma, and the near-constant probe reference from mpmath
at 50 digits.  Every check function returns a list of failure messages;
an empty list means the outputs passed.
"""

import functools
import math

import numpy as np
from scipy.special import (digamma, eval_chebyt, eval_gegenbauer, gammaln,
                           roots_jacobi)

# Reference rule size for recomputed reports.  The fields are band-limited
# to degree <= 160, so this rule integrates every polynomial integrand
# exactly; on |F|^q with kinks (sign-changing F, q not an even integer)
# and on F^2 log|F| it is within 1e-4 relative of a rule twice its size.
REF_NODES = 4096

# Relative tolerances.
TOL_EXACT = 1e-10     # closed-form spectral sums, equality cases
TOL_POLY = 1e-8       # quadrature of polynomial integrands
# Quadrature of non-polynomial integrands.  The program sizes its rules
# for polynomials (max(160, 6(K+1)) nodes in deficit()), so on these it
# is off by up to 2.4e-3 relative (every report of 12 seeds of a
# deficit-sweep of 20 calls whose degrees include today's; 8.2e-4 on 8
# seeds of verify-suite); the tolerance leaves a factor of about 4.
TOL_ROUGH = 1e-2
TOL_PROBE = 1e-6      # near-constant probes against the 50-digit reference


# ---------------------------------------------------------------------------
# spectral sequences


def sharp_constant(n, s):
    """(n-s)/(2|s|) Gamma((n-s)/2)/Gamma((n+s)/2), written through
    Gamma((n-s)/2 + 1) so that s = n is finite."""
    return math.exp(gammaln(0.5 * (n - s) + 1.0) - gammaln(0.5 * (n + s))) / abs(s)


def gamma_seq(n, x, kmax):
    k = np.arange(kmax + 1, dtype=float)
    return np.exp(gammaln(x) + gammaln(n - x + k) - gammaln(n - x) - gammaln(x + k))


def delta_seq(n, s, kmax):
    k = np.arange(kmax + 1, dtype=float)
    if s == n:
        out = np.zeros(kmax + 1)
        out[1:] = np.exp(gammaln(n + k[1:]) - gammaln(k[1:]))
        return out
    x = 0.5 * (n - s)
    kappa = math.exp(gammaln(x) - gammaln(0.5 * (n + s)))
    return (gamma_seq(n, x, kmax) - 1.0) / kappa


def alpha_seq(n, x, kmax):
    k = np.arange(kmax + 1, dtype=float)
    return digamma(n - x + k) - digamma(n - x) + digamma(x + k) - digamma(x)


def slope_seq(n, q, kmax):
    return (gamma_seq(n, n / q, kmax) - 1.0) / (q - 2.0)


def dirichlet_eigs(n, s, kmax):
    """Eigenvalues of the Dirichlet-form operator: delta_k for s > 0,
    its positive mirror for s < 0."""
    d = delta_seq(n, s, kmax)
    return d if s > 0 else -d


# ---------------------------------------------------------------------------
# zonal harmonics and quadrature


@functools.lru_cache(maxsize=None)
def sphere_nodes(n, m):
    """Nodes and probability weights for the latitude law on S^n."""
    e = 0.5 * (n - 2.0)
    z, w = roots_jacobi(m, e, e)
    return z, w / w.sum()


def zonal_harmonics(n, kmax, z):
    """Y[k, i]: zonal harmonics with unit L2 norm under the uniform
    probability measure, normalized in closed form."""
    k = np.arange(kmax + 1)
    if n == 1:
        y = eval_chebyt(k[:, None], z[None, :])
        y[1:] *= math.sqrt(2.0)
        return y
    a = 0.5 * (n - 1.0)
    c = eval_gegenbauer(k[:, None], a, z[None, :])
    kf = k.astype(float)
    # ||C_k^a||^2 under (1-z^2)^(a-1/2) dz, divided by that weight's mass
    log_h = (math.log(math.pi) + (1.0 - 2.0 * a) * math.log(2.0)
             + gammaln(kf + 2.0 * a) - gammaln(kf + 1.0) - np.log(kf + a)
             - 2.0 * gammaln(a))
    log_mu0 = 0.5 * math.log(math.pi) + gammaln(a + 0.5) - gammaln(a + 1.0)
    return c / np.exp(0.5 * (log_h - log_mu0))[:, None]


def parse_coeffs(pairs):
    """Coefficient vector from a descriptor's [[k, c], ...] pairs."""
    kmax = max(int(k) for k, _ in pairs)
    c = np.zeros(kmax + 1)
    for k, v in pairs:
        c[int(k)] = float(v)
    return c


def reference_report(kind, n, s, q, coeffs):
    """(lhs, rhs) of one inequality of the family, recomputed from scratch.

    q is the exponent the report carries (q* for sobolev and square).
    """
    c = np.asarray(coeffs, dtype=float)
    kmax = c.size - 1
    z, w = sphere_nodes(n, REF_NODES)
    y = zonal_harmonics(n, kmax, z)
    f = c @ y

    def norm(p):
        return float((w * np.abs(f) ** p).sum()) ** (1.0 / p)

    def form(eigs):
        return float((eigs[:c.size] * c * c).sum())

    def entropy():
        f2 = f * f
        with np.errstate(divide="ignore", invalid="ignore"):
            flog = np.where(f2 > 0.0, f2 * np.log(np.abs(f)), 0.0)
        n2 = float((w * f2).sum())
        return float((w * flog).sum()) - 0.5 * n2 * math.log(n2)

    def diff_quotient():
        return (norm(q) ** 2 - norm(2.0) ** 2) / (q - 2.0)

    if kind in ("interpolation", "hls", "poincare", "logsob", "improved"):
        rhs = sharp_constant(n, s) * form(dirichlet_eigs(n, s, kmax))
    elif kind in ("logsob_critical", "s0_subcritical"):
        rhs = 0.5 * n * form(0.5 * alpha_seq(n, 0.5 * n, kmax))
    elif kind == "sobolev":
        rhs = form(gamma_seq(n, 0.5 * (n - s), kmax))
    elif kind == "square":
        q_star = 2.0 * n / (n - s)
        nq = norm(q_star)
        rhs = nq ** (2.0 * (q_star - 2.0)) * (
            form(gamma_seq(n, 0.5 * (n - s), kmax)) - nq ** 2)
    else:
        raise ValueError(f"unknown kind {kind!r}")

    if kind in ("interpolation", "hls", "s0_subcritical"):
        lhs = diff_quotient()
    elif kind == "improved":
        q_star = 2.0 * n / (n - s)
        eps = slope_seq(n, q_star, kmax) - slope_seq(n, q, kmax)
        eps[:2] = 0.0
        lhs = diff_quotient() + form(eps)
    elif kind == "sobolev":
        lhs = norm(q) ** 2
    elif kind == "poincare":
        lhs = float((c[1:] ** 2).sum())
    elif kind in ("logsob", "logsob_critical"):
        lhs = entropy()
    else:  # square
        q_star = 2.0 * n / (n - s)
        p = 2.0 * n / (n + s)
        g = np.sign(f) * np.abs(f) ** (q_star - 1.0)
        kg = REF_NODES // 2 - 1
        if _even_integer(q_star):
            # G = F^(q*-1) is a polynomial of degree (q*-1) K: nothing above
            kg = min(kg, int(q_star - 1.0) * kmax)
        gk = zonal_harmonics(n, kg, z) @ (w * g)
        g_p = float((w * np.abs(g) ** p).sum()) ** (1.0 / p)
        lhs = g_p ** 2 - float((gamma_seq(n, 0.5 * (n + s), kg) * gk * gk).sum())
    return lhs, rhs


def _even_integer(q):
    return float(q).is_integer() and int(q) % 2 == 0


def lhs_tolerance(kind, q):
    """Relative tolerance of a report's lhs against reference_report."""
    if kind == "poincare":
        return TOL_EXACT
    if kind in ("logsob", "logsob_critical") or not _even_integer(q):
        return TOL_ROUGH
    return TOL_POLY


def is_equality_case(kind, coeffs):
    """Fields on which the inequality is an equality: the constants, and
    for the Poincare form every field in span{1, Y_1}."""
    c = np.asarray(coeffs, dtype=float)
    return not np.any(c[2 if kind == "poincare" else 1:])


# ---------------------------------------------------------------------------
# near-constant probe: F = 1 + eps (Y_1 + 0.3 Y_2) on S^3, s = 2, q = 4


def probe_lhs_reference(eps):
    """(||F||_4^2 - ||F||_2^2) / 2 at 50 digits.

    On S^3 the latitude law is the semicircle law and Y_k = U_k, so
    F = 1 + eps (2z + 0.3 (4z^2 - 1)) and the moments are
    E[z^(2j)] = Catalan(j) / 4^j.
    """
    import mpmath

    with mpmath.workdps(50):
        e = mpmath.mpf(eps)
        three = mpmath.mpf(3) / 10
        f = [1 - e * three, 2 * e, 4 * e * three]   # ascending powers of z

        def power(poly, p):
            out = [mpmath.mpf(1)]
            for _ in range(p):
                nxt = [mpmath.mpf(0)] * (len(out) + len(poly) - 1)
                for i, a in enumerate(out):
                    for j, b in enumerate(poly):
                        nxt[i + j] += a * b
                out = nxt
            return out

        def mean(poly):
            return mpmath.fsum(a * mpmath.binomial(i, i // 2) / (i // 2 + 1)
                               / mpmath.mpf(4) ** (i // 2)
                               for i, a in enumerate(poly) if i % 2 == 0)

        norm_42 = mpmath.sqrt(mean(power(f, 4)))
        norm_22 = mean(power(f, 2))
        return float((norm_42 - norm_22) / 2)


# ---------------------------------------------------------------------------
# checks on each workload's outputs


def _rel_err(a, b):
    return abs(a - b) / max(1.0, abs(b))


def check_reports(rows, sample):
    """rows: dicts with kind, n, s, q, lhs, rhs, deficit, coeffs.
    sample: indices of rows to recompute against reference_report."""
    bad = []
    for i, r in enumerate(rows):
        d = r["deficit"]
        if not all(map(math.isfinite, (r["lhs"], r["rhs"], d))):
            bad.append(f"report {i} ({r['kind']}): non-finite value")
            continue
        if abs(d - (r["rhs"] - r["lhs"])) > 1e-12 * max(1.0, abs(r["rhs"])):
            bad.append(f"report {i} ({r['kind']}): deficit != rhs - lhs")
        scale = max(1.0, abs(r["lhs"]), abs(r["rhs"]))
        if is_equality_case(r["kind"], r["coeffs"]):
            if abs(d) > TOL_EXACT * scale:
                bad.append(f"report {i} ({r['kind']}): equality case has "
                           f"deficit {d:.3e}")
        elif d < 0.0:
            bad.append(f"report {i} ({r['kind']}): negative deficit {d:.3e}")
    for i in sample:
        r = rows[i]
        lhs, rhs = reference_report(r["kind"], r["n"], r["s"], r["q"], r["coeffs"])
        if _rel_err(r["lhs"], lhs) > lhs_tolerance(r["kind"], r["q"]):
            bad.append(f"report {i} ({r['kind']}): lhs {r['lhs']!r} against "
                       f"reference {lhs!r}")
        # the squared-deficit rhs holds ||F||_q* too, from quadrature
        rhs_tol = TOL_POLY if r["kind"] == "square" else TOL_EXACT
        if _rel_err(r["rhs"], rhs) > rhs_tol:
            bad.append(f"report {i} ({r['kind']}): rhs {r['rhs']!r} against "
                       f"reference {rhs!r}")
    return bad


def probe_failures(probes):
    """probes: dicts with eps, lhs, deficit.  Returns one message per
    probe whose lhs misses the 50-digit reference or whose deficit is
    negative; these are the operations counted as failed."""
    out = []
    for p in probes:
        ref = probe_lhs_reference(p["eps"])
        if abs(p["lhs"] - ref) > TOL_PROBE * abs(ref) or p["deficit"] < 0.0:
            out.append(f"probe eps={p['eps']:g}: lhs {p['lhs']:.6e} against "
                       f"{ref:.6e}, deficit {p['deficit']:.3e}")
    return out


def check_flow(times, entropy, mass, fitted_rate, s):
    """Checks of a flow on the circle: finiteness, mass conservation,
    monotone entropy, the exponential bound E(t) <= E(0) exp(-2t/C), and
    a fitted rate within 5% of 2/C."""
    times, entropy, mass = (np.asarray(a, dtype=float) for a in (times, entropy, mass))
    bad = []
    if not (np.isfinite(entropy).all() and np.isfinite(mass).all()
            and math.isfinite(fitted_rate)):
        return ["flow: non-finite entropy, mass or rate"]
    drift = float(np.abs(mass - mass[0]).max())
    if drift > 1e-12 * abs(mass[0]):
        bad.append(f"flow: mass drift {drift:.3e}")
    rises = np.diff(entropy) > 1e-14 * entropy[0]
    if rises.any():
        bad.append(f"flow: entropy increases at t={times[1:][rises][0]}")
    rate = 2.0 / sharp_constant(1, s)
    bound = entropy[0] * np.exp(-rate * times)
    over = entropy > bound * (1.0 + 1e-9) + 1e-15 * entropy[0]
    if over.any():
        bad.append(f"flow: entropy above the exponential bound at "
                   f"t={times[over][0]}")
    if abs(fitted_rate / rate - 1.0) > 0.05:
        bad.append(f"flow: fitted rate {fitted_rate:.6f} against 2/C = {rate:.6f}")
    return bad


def euclid_eigenvalue_ref(s, k):
    """lam_k = 2^s Gamma(k + (1+s)/2) / Gamma(k + (1-s)/2) on the line."""
    return 2.0 ** s * math.exp(gammaln(k + 0.5 * (1.0 + s)) - gammaln(k + 0.5 * (1.0 - s)))


def check_euclid(residuals, eigenvalues, optimizer, perturbed):
    """residuals: {(s, k): r}; eigenvalues: {(s, k): lam};
    optimizer / perturbed: lists of dicts with lhs, rhs, deficit."""
    bad = []
    for key, r in residuals.items():
        if not r < 1e-3:
            bad.append(f"euclid: eigen-residual {r:.3e} at (s, k) = {key}")
    for (s, k), lam in eigenvalues.items():
        ref = euclid_eigenvalue_ref(s, k)
        if abs(lam - ref) > 1e-12 * abs(ref):
            bad.append(f"euclid: eigenvalue {lam!r} at (s, k) = {(s, k)} "
                       f"against {ref!r}")
    for r in optimizer:
        if not abs(r["deficit"]) <= TOL_EXACT * max(1.0, abs(r["rhs"])):
            bad.append(f"euclid: optimizer deficit {r['deficit']:.3e}")
    for r in perturbed:
        if not r["deficit"] >= 0.0:
            bad.append(f"euclid: perturbed deficit {r['deficit']:.3e}")
    return bad
