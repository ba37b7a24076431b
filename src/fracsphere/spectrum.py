"""Eigenvalue sequences and sharp constants for the fractional operators.

The whole family of operators is diagonal in the spherical-harmonic
decomposition, so every operator in play is described by a scalar
sequence indexed by the degree k.  The building block is

    gamma_k(x) = Gamma(x) Gamma(n - x + k) / (Gamma(n - x) Gamma(x + k)),

computed by the product recurrence gamma_k / gamma_{k-1}
= (n - x + k - 1) / (x + k - 1), which is exact up to roundoff and free
of large intermediate values.
"""

from dataclasses import dataclass

import numpy as np

from .specfun import log_gamma

_INF = float("inf")

# |q - 2| <= Q_WINDOW counts as q = 2 in slope_sequence (its closed-form
# limit), in the improved kind's admissibility and in the flow's q = 2
# rejection; the L^q quotient itself (field.lq_quotient) needs no window.
Q_WINDOW = 1e-8


@dataclass(frozen=True)
class ParameterSet:
    """Admissible parameter triple plus everything derived from it.

    q_star is the critical exponent 2n/(n-s) (inf when s = n), p its
    dual 2n/(n+s), lam = n - s the kernel order, kappa the ratio
    Gamma((n-s)/2)/Gamma((n+s)/2), x_crit = (n-s)/2, and constant the
    sharp proportionality constant (NaN when s = 0, where the sharp
    inequality is stated through the derivative operator instead).
    """

    n: int
    s: float
    q: float
    q_star: float
    p: float
    lam: float
    kappa: float
    x_crit: float
    constant: float


def derive_params(n, s, q=None):
    """Validate (n, s, q) and fill in the derived quantities.

    q = None picks the natural exponent where one exists: the critical
    q_star for s in (0, n), and 2 for s = 0.  For s = n and s < 0 there
    is no finite default and q must be given.
    """
    if not float(n).is_integer() or n < 1:
        raise ValueError(f"dimension n must be a positive integer, got {n!r}")
    n = int(n)
    s = float(s)
    if not -n < s <= n:
        raise ValueError(f"order s must lie in (-{n}, {n}], got {s}")

    q_star = _INF if s == n else 2.0 * n / (n - s)
    if q is None:
        if 0.0 < s < n:
            q = q_star
        elif s == 0.0:
            q = 2.0
        else:
            raise ValueError("q has no default for s = n or s < 0")
    q = float(q)

    if not q >= 1.0:        # NaN fails too
        raise ValueError(f"exponent q must be >= 1, got {q}")
    if s < 0.0:
        if q >= q_star:
            raise ValueError(
                f"for s < 0 the exponent must satisfy q < {q_star}, got {q}")
    elif s == 0.0:
        if q > 2.0:
            raise ValueError(f"for s = 0 the exponent must satisfy q <= 2, got {q}")
    elif s < n:
        if q > q_star:
            raise ValueError(f"q exceeds the critical exponent {q_star}: {q}")
    # s = n imposes no ceiling: any finite q >= 1 is admissible
    p = 2.0 * n / (n + s)
    lam = n - s
    if s == n:
        kappa = _INF
    else:
        kappa = float(np.exp(log_gamma(0.5 * (n - s)) - log_gamma(0.5 * (n + s))))
    x_crit = 0.5 * (n - s)
    if s == 0.0:
        constant = float("nan")
    else:
        constant = float(np.exp(log_gamma(0.5 * (n - s) + 1.0)
                                - log_gamma(0.5 * (n + s)))) / abs(s)
    return ParameterSet(n=n, s=s, q=q, q_star=q_star, p=p, lam=lam,
                        kappa=kappa, x_crit=x_crit, constant=constant)


def gamma_sequence(n, x, kmax):
    """gamma_k(x) for k = 0..kmax via the product recurrence; x > 0."""
    if x <= 0.0:
        raise ValueError("gamma_sequence needs x > 0")
    k = np.arange(1, kmax + 1, dtype=float)
    ratios = (n - x + k - 1.0) / (x + k - 1.0)
    out = np.empty(kmax + 1)
    out[0] = 1.0
    out[1:] = np.cumprod(ratios)
    return out


def delta_sequence(n, s, kmax):
    """Eigenvalues delta_k = (gamma_k((n-s)/2) - 1) / kappa of the
    Dirichlet-form operator; the s = n endpoint is taken in the limit,
    delta_k = Gamma(n+k)/Gamma(k).
    """
    if s == n:
        out = np.zeros(kmax + 1)
        if kmax >= 1:
            k = np.arange(1, kmax + 1, dtype=float)
            out[1:] = np.exp(log_gamma(n + k) - log_gamma(k))
        return out
    x = 0.5 * (n - s)
    inv_kappa = np.exp(log_gamma(0.5 * (n + s)) - log_gamma(x))
    return (gamma_sequence(n, x, kmax) - 1.0) * inv_kappa


def alpha_sequence(n, x, kmax):
    """alpha_k(x) = sum_{j<k} [1/(n+j-x) + 1/(j+x)], the negative
    logarithmic derivative of gamma_k at x."""
    out = np.zeros(kmax + 1)
    if kmax >= 1:
        j = np.arange(kmax, dtype=float)
        out[1:] = np.cumsum(1.0 / (n + j - x) + 1.0 / (j + x))
    return out


def sharp_constant(n, s):
    """The sharp constant (n-s)/(2|s|) * Gamma((n-s)/2)/Gamma((n+s)/2).

    Written as Gamma((n-s)/2 + 1)/(|s| Gamma((n+s)/2)) so the s = n
    endpoint comes out finite (1/n!) instead of 0 * inf.
    """
    # the constant does not depend on q; q = 1 is admissible for every order
    ps = derive_params(n, s, q=1.0)
    if s == 0.0:
        raise ValueError("s = 0 has no constant of this form; "
                         "the entropy inequality there carries n/2 instead")
    return ps.constant


def slope_sequence(n, q, kmax):
    """(gamma_k(n/q) - 1)/(q - 2) for k = 0..kmax, with the q = 2 limit
    (n/4) alpha_k(n/2)."""
    if abs(q - 2.0) <= Q_WINDOW:
        return 0.25 * n * alpha_sequence(n, 0.5 * n, kmax)
    return (gamma_sequence(n, n / q, kmax) - 1.0) / (q - 2.0)


def remainder_sequence(ps, kmax):
    """Eigenvalues of the remainder operator: eps_k = slope at the
    critical exponent minus slope at q, zero for k < 2.  Positive for
    all k >= 2 whenever q < q_star."""
    if not 0.0 < ps.s < ps.n:
        raise ValueError("remainder operator needs s in (0, n)")
    eps = (slope_sequence(ps.n, ps.q_star, kmax)
           - slope_sequence(ps.n, ps.q, kmax))
    eps[:min(2, kmax + 1)] = 0.0
    return eps


def operator_eigenvalue(ps, kind, kmax):
    """Eigenvalue sequence (k = 0..kmax) of one of the diagonal operators.

    kind:
      'L'       Dirichlet-form operator (delta_k for s > 0, its positive
                mirror (1 - gamma_k)/kappa for s < 0, zero at s = 0)
      'K'       conformally normalized kernel operator, gamma_k((n-s)/2)
      'K_inv'   its inverse, gamma_k((n+s)/2)
      'A'       K divided by kappa
      'K0prime' derivative of K in s at s = 0: (1/2) alpha_k(n/2)
      'R'       remainder operator, eps_k for k >= 2
    """
    n, s = ps.n, ps.s
    if kind == "L":
        if s == 0.0:
            return np.zeros(kmax + 1)
        d = delta_sequence(n, s, kmax)
        return d if s > 0 else -d
    if kind == "K":
        if s == n:
            raise ValueError("kernel operator degenerates at s = n")
        return gamma_sequence(n, ps.x_crit, kmax)
    if kind == "K_inv":
        return gamma_sequence(n, 0.5 * (n + s), kmax)
    if kind == "A":
        if s == n:
            raise ValueError("normalized kernel operator degenerates at s = n")
        return gamma_sequence(n, ps.x_crit, kmax) / ps.kappa
    if kind == "K0prime":
        return 0.5 * alpha_sequence(n, 0.5 * n, kmax)
    if kind == "R":
        return remainder_sequence(ps, kmax)
    raise ValueError(f"unknown operator kind {kind!r}")


@dataclass(frozen=True)
class ScanReport:
    checked: int
    violations: int
    min_gap: float
    argmin: tuple


def monotonicity_scan(n_values, q_grid, kmax):
    """Check that k >= 2 slopes are strictly increasing along q.

    Scans consecutive pairs of the (sorted) q grid for every dimension in
    n_values and every degree 2..kmax, counting increments that are not
    positive, NaN included.  Returns the number checked, violations, the
    smallest increment and where it occurred.  An empty dimension range or
    a grid of fewer than two exponents checks nothing and is rejected.
    """
    if kmax < 2:
        raise ValueError(f"the scan needs degrees up to kmax >= 2, got {kmax}")
    if len(n_values) == 0 or len(q_grid) < 2:
        raise ValueError(f"the scan needs a dimension and two exponents, got "
                         f"{len(n_values)} and {len(q_grid)}")
    q_grid = np.sort(np.asarray(q_grid, dtype=float))
    min_gap = _INF
    argmin = ()
    checked = 0
    violations = 0
    for n in n_values:
        table = np.vstack([slope_sequence(n, q, kmax) for q in q_grid])
        gaps = np.diff(table[:, 2:], axis=0)
        checked += gaps.size
        violations += int(np.count_nonzero(~(gaps > 0.0)))
        j, k = np.unravel_index(np.nanargmin(gaps), gaps.shape)
        if gaps[j, k] < min_gap:
            min_gap = float(gaps[j, k])
            argmin = (n, float(q_grid[j]), float(q_grid[j + 1]), int(k + 2))
    return ScanReport(checked=checked, violations=violations,
                      min_gap=min_gap, argmin=argmin)


# ---------------------------------------------------------------------------
# tabulation


CONSTANTS_HEADER = "n,s,q,q_star,p,lambda,kappa,C"


def constants_row(ps):
    vals = (ps.n, ps.s, ps.q, ps.q_star, ps.p, ps.lam, ps.kappa, ps.constant)
    return ",".join("%.17g" % v for v in vals)
