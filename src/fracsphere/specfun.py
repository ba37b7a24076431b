"""Special-function kernels: log-gamma, Gegenbauer evaluation, Gauss-Jacobi rules.

Everything downstream (spectral sequences, quadrature on the sphere,
the zonal basis) reduces to three primitives kept here: log-gamma
from the standard library's math.lgamma (and gamma ratios that keep
their digits for large arguments), Gegenbauer polynomials by their
three-term recurrence, and Gauss-Jacobi nodes/weights found by Newton
iteration from asymptotic angles and one extended-precision sweep.
The latitude weights of the circle and the 3-sphere, a = b = -1/2 and
+1/2, are Chebyshev's, whose Gauss rules have closed forms: those take
no sweep.  Other symmetric rules (a = b, the other spheres) sweep the
half-degree recurrence of Szego's quadratic transformation (Orthogonal
Polynomials, 4.1) on the upper half of the interval and are mirrored,
so they are exactly symmetric by construction.  Recurrence steps run in
place on factors formed by outer products, BLOCK steps at a time for Jacobi.
Each Gauss-Jacobi rule is built once per process and shared, read-only,
by every caller; rule_cache_info() reports how often one was built or reused.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

BLOCK = 64      # rows or recurrence steps that share one temporary block
_PI = 4.0 * np.arctan(np.longdouble(1.0))     # pi in extended precision


def log_gamma(x):
    """Natural log of the gamma function for real x > 0, by math.lgamma.

    Scalars give a float, arrays an elementwise array of the same shape,
    and inf where the value overflows a double (x above about 2.5e305).
    A value outside the domain raises: it always means a parameter bug.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):      # NaN fails too
        raise ValueError("log_gamma requires x > 0")
    out = []
    for v in x.ravel().tolist():
        try:
            out.append(math.lgamma(v))
        except OverflowError:       # lnGamma(v) above the largest double
            out.append(math.inf)
    return np.reshape(out, x.shape) if x.ndim else out[0]


# B_2k / (2k (2k - 1)), k = 1..6: Stirling's series of lnGamma(z) in powers of 1/z
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


def gamma_ratio(a, b, d):
    """Gamma(a) / Gamma(b) for scalars a, b > 0 with a = b + d, inf where
    it overflows.  d is passed on its own: a - b loses its digits once a
    and b are large.  From 10 on, the log of the ratio is the difference
    of Stirling series, which does not cancel as the arguments grow
    (truncation error below 1e-15); below that, the log_gamma difference."""
    if min(a, b) < 10.0:
        log_ratio = log_gamma(a) - log_gamma(b)
    else:
        series = [sum(c * z ** (1 - 2 * k) for k, c in enumerate(_STIRLING, 1))
                  for z in (a, b)]
        log_ratio = ((b - 0.5) * math.log1p(d / b) + d * (math.log(a) - 1.0)
                     + series[0] - series[1])
    with np.errstate(over="ignore"):
        return float(np.exp(log_ratio))


def midpoint_phase(kmax, M):
    """Factors that turn rfft(F)[k], k = 1..kmax, of F at the M midpoints
    2 pi (i + 1/2) / M into its coefficients on sqrt(2) exp(i k theta):
    the half-step phase exp(-i pi k / M) times sqrt(2)/M."""
    k = np.arange(1, kmax + 1)
    return np.sqrt(2.0) / M * np.exp(-1j * np.pi * k / M)


def gegenbauer_all(kmax, alpha, z):
    """All Gegenbauer polynomials C_0 .. C_kmax at z, shape (kmax+1, len(z)).

    Three-term recurrence, every row's z term from one outer product;
    alpha = 0 takes the Chebyshev normalization cos(k arccos z), the
    circle's limit, where the standard one vanishes.
    """
    if kmax < 0:
        raise ValueError(f"Gegenbauer degree must be >= 0, got {kmax}")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.all(np.abs(z) <= 1.0):     # NaN fails too
        raise ValueError("Gegenbauer argument must lie in [-1, 1]")
    out = np.empty((kmax + 1, z.size))
    out[0] = 1.0
    if kmax == 0:
        return out
    out[1] = z if alpha == 0.0 else 2.0 * alpha * z
    # k C_k = 2 (k + alpha - 1) z C_{k-1} - (k + 2 alpha - 2) C_{k-2} (at alpha = 0,
    # T_k = 2 z T_{k-1} - T_{k-2}); each row in place by 3 operations (2 at alpha = 0)
    j = np.arange(2.0, kmax + 1.0)
    up = np.full(j.size, 2.0) if alpha == 0.0 else 2.0 * (j + alpha - 1.0) / j
    np.multiply.outer(up, z, out=out[2:])
    t = np.empty_like(z)
    for k, d in zip(range(2, kmax + 1), ((j + 2.0 * alpha - 2.0) / j).tolist()):
        out[k] *= out[k - 1]
        out[k] -= out[k - 2] if alpha == 0.0 else np.multiply(out[k - 2], d, out=t)
    return out


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Jacobi rule for the weight (1-z)^a (1+z)^b on [-1, 1].

    nodes are ascending, weights are the raw Jacobi weights and
    prob_weights = weights * (1 / mu0), with mu0 the exact total mass, their
    probability measure; all three arrays are read-only.  A rule compares
    and hashes by identity, so it can key a table built on its nodes.
    """

    a: float
    b: float
    nodes: np.ndarray
    weights: np.ndarray
    prob_weights: np.ndarray

    def __len__(self):
        return self.nodes.size


def _jacobi_eval(m, a, b, x):
    """P_m^(a,b)(x) together with P_{m-1}, m >= 1; vectorized in x.

    x may also be passed as the 1-tuple (w,) with w = 1 + x: the
    recurrence then runs in w, which keeps the digits of points near -1
    that the caller knows only through w.  Runs in whatever float dtype
    x carries, so the final polishing pass can call it with extended
    precision.
    """
    shifted = isinstance(x, tuple)
    x = np.asarray(x[0] if shifted else x)
    # j = 1 is seeded explicitly: the generic recurrence degenerates
    # when a + b = 0 or -1.  Step j is ((c2 + c3 x) P_{j-1} - c4 P_{j-2}) / c1,
    # with c2 - c3 in place of c2 when the variable is w
    p1 = np.ones_like(x)
    p = 0.5 * (a + b + 2.0) * x + (-(b + 1.0) if shifted else 0.5 * (a - b))
    j = np.arange(2.0, m + 1.0)
    c1 = 2.0 * j * (j + a + b) * (2.0 * j + a + b - 2.0)
    c3 = (2.0 * j + a + b - 1.0) * (2.0 * j + a + b) * (2.0 * j + a + b - 2.0)
    c2 = (2.0 * j + a + b - 1.0) * (a * a - b * b) - (c3 if shifted else 0.0)
    c4 = 2.0 * (j + a - 1.0) * (j + b - 1.0) * (2.0 * j + a + b)
    # the factors q2 + q3 x of BLOCK steps are one outer product; each step
    # then runs in place on its factor row, p and p1: in double, 3 operations
    # on the quotients by c1, formed once; the extended-precision polish keeps
    # the division, its coefficients cast once to its dtype
    exact = x.dtype != np.float64
    q2, q3, q4, q1 = ([c.astype(x.dtype) for c in (c2, c3, c4, c1)] if exact
                      else [c / c1 for c in (c2, c3, c4)] + [c1])
    for i in range(0, j.size, BLOCK):
        rows = np.multiply.outer(q3[i:i + BLOCK], x)
        rows += q2[i:i + BLOCK, None]
        for t, u, v in zip(rows, q4[i:i + BLOCK], q1[i:i + BLOCK]):
            t *= p
            p1 *= u
            np.subtract(t, p1, out=p1)
            if exact:
                p1 /= v
            p, p1 = p1, p
    return p, p1


def gauss_jacobi(m, a, b):
    """m-point Gauss-Jacobi rule for the weight (1-z)^a (1+z)^b, a, b > -1.

    Each rule is built once per process and memoised by (m, a, b): every
    caller gets the same object, with read-only nodes and weights.  Bad
    input raises ValueError and never reaches the cache.

    At a = b = -1/2 and +1/2, the sphere rules of n = 1 and 3, the rule
    is Gauss-Chebyshev's closed form (_chebyshev_rule), with no sweep.
    Every other (a, b) takes the general builder (_newton_rule) below,
    which the tests also run at +-1/2 against those forms.

    Newton starts from the Gatteschi-Pittaluga angles (Hale & Townsend,
    SIAM J. Sci. Comput. 35, 2013), exact for a = b = +-1/2,

        theta_k = phi_k + ((1/4 - a^2) cot(phi_k/2)
                           - (1/4 - b^2) tan(phi_k/2)) / (4 rho^2),
        phi_k = (k + a/2 - 1/4) pi / rho,   rho = m + (a+b+1)/2,

    at x_k = cos(theta_k).  The midpoints between consecutive guesses and
    +-1 bracket one root each, which one recurrence sweep confirms
    (RuntimeError otherwise); the brackets safeguard the Newton steps on
    the Jacobi recurrence, in double.  One extended-precision sweep then
    evaluates P_m, P_{m-1} and P' at those roots, takes a last Newton step
    d = -P/P', carries P' to x + d by P'' from the Jacobi ODE
    (1 - x^2) P'' = (a - b + (a+b+2) x) P' - m (m+a+b+1) P, and forms
    w_i proportional to 1 / ((1 - x_i^2) P_m'(x_i)^2), scaled to the
    closed-form mass 2^(a+b+1) Gamma(a+1) Gamma(b+1) / Gamma(a+b+2): the
    Gamma constant of the Christoffel numbers is never formed.

    At the extreme roots the recurrence value feeding P' is small against
    the oscillation envelope: in double that costs about m^2 ulps, and
    large rules integrate worse than 1e-12 (as they do where long double
    is double).

    For a = b (every sphere rule) and m = 2k + e >= 2, e = 0 or 1, Szego's
    quadratic transformation (Orthogonal Polynomials, 4.1) gives

        P_m^(a,a)(x) = const * x^e P_k^(a, e-1/2)(2x^2 - 1),

    so every sweep is a degree-k recurrence, half as long, on the roots
    in the upper half only; the lower half is their mirror image (an odd
    m's middle root is exactly 0), so nodes are exactly antisymmetric and
    weights exactly symmetric.  The sweep variable is w = 1 + z = 2x^2,
    exact near x = 0: the root nearest 0 sits where z is close to -1, and
    z rounded there would cost its weight about k^2 ulps.
    """
    if not (m >= 1 and float(m).is_integer()):     # NaN and inf fail too
        raise ValueError(f"need a positive integer number of nodes, got {m!r}")
    if not (-1.0 < a < np.inf and -1.0 < b < np.inf):    # NaN fails too
        raise ValueError("Jacobi exponents must be finite and exceed -1")
    return _build_rule(int(m), float(a), float(b))


@lru_cache(maxsize=None)
def _build_rule(m, a, b):
    return _chebyshev_rule(m, a) if a == b and abs(a) == 0.5 else _newton_rule(m, a, b)


def _chebyshev_rule(m, a):
    """Gauss-Chebyshev (Abramowitz & Stegun 25.4): a = b = -1/2, nodes
    cos((2i - 1) pi / 2m), weights pi / m; a = b = +1/2, nodes cos(i pi / rho),
    weights (pi / rho) sin^2(i pi / rho), rho = m + a + 1/2 = m + 1.  Nodes
    are sin(pi j / 2 rho), j = 1 - m, 3 - m, .., m - 1, formed for j >= 0 and
    mirrored; a weight's angle i pi / rho has i <= rho / 2, whose sine keeps
    the digits a cosine near pi / 2 would lose.  The sines run in extended
    precision: a double angle would cost the nodes 1.5e-16."""
    rho = m + a + 0.5
    j = np.arange(1 - m % 2, m, 2)
    t = _PI / (2.0 * rho)
    w = np.full(j.size, 2.0 * t) if a < 0 else 2.0 * t * np.sin(t * (rho - j)) ** 2
    return _frozen_rule(a, a, *_mirrored(m, np.sin(t * j).astype(float), w.astype(float)),
                        np.pi if a < 0 else 0.5 * np.pi)


def _newton_rule(m, a, b):
    rho = m + 0.5 * (a + b + 1.0)
    phi = (np.arange(1, m + 1) + 0.5 * a - 0.25) * np.pi / rho
    t = np.tan(0.5 * phi)
    theta = phi + ((0.25 - a * a) / t - (0.25 - b * b) * t) / (4.0 * rho * rho)
    x = np.cos(theta)[::-1]
    ends = np.concatenate([[-1.0], 0.5 * (x[:-1] + x[1:]), [1.0]])
    # a = b: P_m is even or odd, so only the roots in the upper half
    # (with the middle one when m is odd) are solved, then mirrored
    h = m // 2 if a == b else 0
    if a == b and m % 2:
        x[h] = 0.0      # the middle root of an odd P_m is exactly 0
    x, ends = x[h:], ends[h:]
    # f = x^e P_k^(a,c)(z), a multiple of P_m: m = 2k + e and z = 2x^2 - 1
    # when h > 0, else k = m, e = 0, c = b and z = x.  When h > 0 the
    # recurrence runs in w = 1 + z = 2x^2, which keeps its digits near x = 0
    k, e, c = (m // 2, m % 2, m % 2 - 0.5) if h else (m, 0, b)
    s = 2 * k + a + c
    lin = a - c + s if h else a - c         # a - c - s z = lin - s v

    def sweep(x):
        v = 2.0 * x * x if h else x
        pk, pk1 = _jacobi_eval(k, a, c, (v,) if h else v)
        return x ** e * pk, pk, pk1, v

    def deriv(x, pk, pk1, v):
        # f' = e P_k + x^e z'(x) P_k'(z); 1 - z^2 = 4 x^2 (1 - x^2) when h > 0,
        # so f' is valid only at interior points (1 - x^2 != 0)
        top = (k * (lin - s * v) * pk + 2.0 * (k + a) * (k + c) * pk1) / (s * (1.0 - x * x))
        return e * pk + x ** (e - 1) * top if h else top

    vals = sweep(ends)[0]
    if not np.all(vals[:-1] * vals[1:] < 0):
        raise RuntimeError(f"asymptotic brackets miss roots of P_{m}^({a}, {b})")

    lo, hi, flo = ends[:-1], ends[1:], vals[:-1]
    for _ in range(60):
        f, pk, pk1, v = sweep(x)
        df = deriv(x, pk, pk1, v)
        # an exact zero is a converged root: pin the bracket there, since
        # carrying flo = 0 forward would disable the sign test
        exact = f == 0.0
        shrink_hi = f * flo < 0
        hi = np.where(exact, x, np.where(shrink_hi, x, hi))
        lo = np.where(exact, x, np.where(shrink_hi, lo, x))
        flo = np.where(exact | shrink_hi, flo, f)
        xn = np.where(exact, x, x - f / df)
        # a converged root sits on a bracket end, where its last Newton
        # step of a few ulps may land outside: test the step before the
        # bracket, or the safeguard bisects away from the root again
        done = np.abs(xn - x) <= 1e-14 * (1.0 + np.abs(x))
        bad = ~done & ((xn <= lo) | (xn >= hi) | ~np.isfinite(xn))
        xn = np.where(bad, 0.5 * (lo + hi), xn)
        x = xn
        if done.all():
            break

    # the one extended-precision sweep: Newton step d, then f' moved to
    # x + d by f'' from the ODE of P_m, which its multiple f solves too
    xe = x.astype(np.longdouble)
    f, pk, pk1, v = sweep(xe)
    df = deriv(xe, pk, pk1, v)
    d = -f / df
    gap = 1.0 - xe * xe
    df += d * ((a - b + (a + b + 2.0) * xe) * df - m * (m + a + b + 1.0) * f) / gap
    # 1 - (x + d)^2 from the pre-step node: a rounded end node would cost ulp / theta^2
    w = 1.0 / ((gap - d * (2.0 * xe + d)) * df * df)
    xe += d
    if h:
        xe, w = _mirrored(m, xe, w)

    mu0 = np.exp((a + b + 1.0) * np.log(2.0) + log_gamma(a + 1.0)
                 + log_gamma(b + 1.0) - log_gamma(a + b + 2.0))
    w *= np.longdouble(mu0) / w.sum()
    return _frozen_rule(a, b, xe.astype(float), w.astype(float), mu0)


def _mirrored(m, x, w):
    """Nodes and weights of a symmetric m-point rule from its upper half,
    whose first node is the middle node 0 when m is odd."""
    return np.concatenate([-x[m % 2:][::-1], x]), np.concatenate([w[m % 2:][::-1], w])


def _frozen_rule(a, b, nodes, weights, mu0):
    prob_weights = weights * (1.0 / mu0)
    nodes.flags.writeable = weights.flags.writeable = prob_weights.flags.writeable = False
    return QuadratureRule(a=a, b=b, nodes=nodes, weights=weights, prob_weights=prob_weights)


def rule_cache_info():
    """Cache statistics of the Gauss-Jacobi rules of this process:
    hits (rules reused), misses (rules built), maxsize, currsize."""
    return _build_rule.cache_info()


def sphere_rule(n, m):
    """Quadrature in the latitude variable z for the uniform probability
    measure on the n-sphere: weight (1-z^2)^((n-2)/2), normalized mass 1.
    """
    e = 0.5 * (n - 2.0)
    try:
        return gauss_jacobi(m, e, e)
    except RuntimeError:
        raise ValueError(f"no {m}-node sphere rule for n = {n}: its root brackets fail") from None
