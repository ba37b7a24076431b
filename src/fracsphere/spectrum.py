"""Eigenvalue sequences and sharp constants for the fractional operators.

The whole family of operators is diagonal in the spherical-harmonic
decomposition, so every operator in play is described by a scalar
sequence indexed by the degree k.  The building block is

    gamma_k(x) = Gamma(x) Gamma(n - x + k) / (Gamma(n - x) Gamma(x + k)),

computed by the product recurrence gamma_{j+1} / gamma_j
= (n - x + j) / (x + j), free of large intermediate values.  One kernel
(_kernel) returns it with e_k(x) = sum_{j<k} gamma_j / (x + j), which is
(gamma_k - 1) / (n - 2x) without the cancellation as gamma_k -> 1: its
terms share one sign, and at x = n/2 it is its own limit.  Every sequence
reads the kernel: delta_k = s e_k / kappa at x = (n - s)/2, the slope
(gamma_k(n/q) - 1)/(q - 2) = (n/q) e_k(n/q) for every q >= 1, and
K0prime = e_k(n/2), the s -> 0 end of (2/n) C delta_k.  The operators
are the rows of one table, OPERATORS, that the deficits, the flow and
the constants columns read.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .specfun import gamma_ratio, log_gamma

_INF = float("inf")
MAX_DEGREE = 10 ** 4    # constants and scan kmax: 3 us per row, 60 ms per scanned dimension


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
    try:
        whole = float(n).is_integer()
    except OverflowError:       # an integer too large for a float
        whole = False
    if not whole or n < 1:
        raise ValueError(f"dimension n must be a positive integer that fits a float, got {n!r}")
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
        kappa = gamma_ratio(0.5 * (n - s), 0.5 * (n + s), -s)
    x_crit = 0.5 * (n - s)
    if s == 0.0:
        constant = float("nan")
    else:
        constant = gamma_ratio(0.5 * (n - s) + 1.0, 0.5 * (n + s), 1.0 - s) / abs(s)
    return ParameterSet(n=n, s=s, q=q, q_star=q_star, p=p, lam=lam,
                        kappa=kappa, x_crit=x_crit, constant=constant)


def _kernel(n, x, kmax):
    """gamma_k(x) and e_k(x) for k = 0..kmax; x > 0."""
    if x <= 0.0:
        raise ValueError(f"the spectral kernel needs x > 0, got {x}")
    j = np.arange(kmax, dtype=float)
    gamma, e = np.ones(kmax + 1), np.zeros(kmax + 1)
    with np.errstate(over="ignore"):    # a product that leaves the doubles reads inf
        gamma[1:] = np.cumprod(((n - x) + j) / (x + j))
        e[1:] = np.cumsum(gamma[:-1] / (x + j))
    return gamma, e


def gamma_sequence(n, x, kmax):
    """gamma_k(x) for k = 0..kmax via the product recurrence; x > 0."""
    return _kernel(n, x, kmax)[0]


def slope_sequence(n, q, kmax):
    """(gamma_k(n/q) - 1)/(q - 2) = (n/q) e_k(n/q) for k = 0..kmax and
    every q >= 1, its limit at q = 2 included."""
    return n / q * _kernel(n, n / q, kmax)[1]


def _delta(ps, kmax):
    """delta_k = (gamma_k((n-s)/2) - 1) / kappa = s e_k / kappa; the s = n
    endpoint is taken in the limit, delta_k = Gamma(n+k)/Gamma(k)."""
    n, s = ps.n, ps.s
    if s == n:
        k = np.arange(1.0, kmax + 1)
        return np.concatenate(([0.0], np.exp(log_gamma(n + k) - log_gamma(k))))
    inv_kappa = gamma_ratio(0.5 * (n + s), ps.x_crit, s)
    with np.errstate(invalid="ignore"):     # inf * 0 where 1/kappa overflows
        return s * inv_kappa * _kernel(n, ps.x_crit, kmax)[1]


def _remainder(ps, kmax):
    """eps_k = slope at the critical exponent minus slope at q, zero for
    k < 2; positive for all k >= 2 whenever q < q_star."""
    with np.errstate(invalid="ignore"):     # inf - inf where both slopes overflow: NaN
        eps = slope_sequence(ps.n, ps.q_star, kmax) - slope_sequence(ps.n, ps.q, kmax)
    eps[:min(2, kmax + 1)] = 0.0
    return eps


# one diagonal operator: its eigenvalues sequence(ps, kmax) for k = 0..kmax
# where admits(ps) holds, and ValueError(message) elsewhere
Operator = namedtuple("Operator", "admits message sequence")


OPERATORS = {
    # delta_k of the Dirichlet form: negative for s < 0, +0.0 at s = 0; L, its mirror for s < 0
    "delta": Operator(lambda ps: True, "", _delta),
    "L": Operator(lambda ps: True, "",
                  lambda ps, kmax: (1.0 if ps.s >= 0.0 else -1.0) * _delta(ps, kmax)),
    # the conformally normalized kernel operator gamma_k((n-s)/2) and its inverse
    "K": Operator(lambda ps: ps.s < ps.n, "kernel operator degenerates at s = n",
                  lambda ps, kmax: gamma_sequence(ps.n, ps.x_crit, kmax)),
    "K_inv": Operator(lambda ps: True, "",
                      lambda ps, kmax: gamma_sequence(ps.n, 0.5 * (ps.n + ps.s), kmax)),
    # the derivative of K in s at s = 0: e_k(n/2) = sum_{j<k} 2/(n + 2j)
    "K0prime": Operator(lambda ps: True, "", lambda ps, kmax: _kernel(ps.n, 0.5 * ps.n, kmax)[1]),
    # the remainder operator, eps_k for k >= 2
    "R": Operator(lambda ps: 0.0 < ps.s < ps.n, "remainder operator needs s in (0, n)",
                  _remainder),
}


def operator_eigenvalue(ps, kind, kmax):
    """Eigenvalue sequence (k = 0..kmax) of the operator OPERATORS[kind];
    raises ValueError for an unknown kind or parameters it does not admit."""
    op = OPERATORS.get(kind)
    if op is None:
        raise ValueError(f"unknown operator kind {kind!r}")
    if not op.admits(ps):
        raise ValueError(op.message)
    return op.sequence(ps, kmax)


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
    smallest increment and where it occurred (inf and () where every
    increment is NaN).  An empty dimension range or a grid of fewer than
    two exponents checks nothing and is rejected, and so is an exponent
    below 1 or infinite, outside the family, or repeated, a zero-width step.
    """
    if not 2 <= kmax <= MAX_DEGREE:
        raise ValueError(f"the scan needs degrees up to kmax in [2, {MAX_DEGREE}], got {kmax}")
    if len(n_values) == 0 or len(q_grid) < 2:
        raise ValueError(f"the scan needs a dimension and two exponents, got "
                         f"{len(n_values)} and {len(q_grid)}")
    q_grid = np.sort(np.asarray(q_grid, dtype=float))
    outside = q_grid[(q_grid < 1.0) | (q_grid == _INF)]      # a NaN stays a violation
    if outside.size:
        raise ValueError(f"the scan needs finite exponents q >= 1, got {outside[0]}")
    repeated = q_grid[1:][q_grid[1:] == q_grid[:-1]]        # NaN != NaN
    if repeated.size:
        raise ValueError(f"the scan needs distinct exponents, got {repeated[0]} twice")
    min_gap = _INF
    argmin = ()
    checked = 0
    violations = 0
    for n in n_values:
        table = np.vstack([slope_sequence(n, q, kmax) for q in q_grid])
        gaps = np.diff(table[:, 2:], axis=0)
        checked += gaps.size
        violations += int(np.count_nonzero(~(gaps > 0.0)))
        if np.isnan(gaps).all():
            continue        # violations only, with no gap to locate
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
