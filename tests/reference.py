"""Independent reference computations the tests compare the package against.

None of these is called by the command line or the documented API; each
is a second route to a quantity the package computes another way, or an
identity of the paper checked with the package's primitives:

- gamma_ratio: Gamma(a)/Gamma(b) straight from log-gamma, against the
  product recurrence of spectrum.gamma_sequence
- sharp_quotient: rhs / lhs of the sharp inequality of a field's order,
  one deficit report; minus 1 along 1 + eps Y_1 it is the sharpness
  probe of acceptance check 05
- funk_hecke_mu: kernel eigenvalues by Gauss-Jacobi quadrature against
  their closed form (the Funk-Hecke identity, acceptance check 03), on
  the package's gauss_jacobi, gegenbauer_all and gamma_sequence
- zonal_basis_oracle: the normalized zonal basis as it stood before its
  tables were shared, built afresh on every call with the expression
  (w * c * c); the package's tables and their slices must give the same
  floats
- jacobi_eval_oracle, gegenbauer_all_oracle: specfun._jacobi_eval and
  specfun.gegenbauer_all as they stood before their step factors and row
  products were formed in blocks, one step at a time and a fresh array
  per operation; the package's must give the same floats
- alpha_sequence: the negative logarithmic derivative of gamma_k, against
  a finite difference of the kernel eigenvalues in s (acceptance check 11)
- GridField, grid_field, frac_laplacian_oracle: the fractional Laplacian
  on a periodized line grid through the |xi|^s multiplier, against the
  circle-side Dirichlet form
- eigen_residual_oracle: the line eigen-residual as it stood before its
  factors were memoised and its recurrence ran in place, a fresh array
  per operation; the package's must give the same floats
- weighted_norm: line integrals with an algebraic tail correction,
  against circle-side norms under the stereographic transport
- taylor_remainder, taylor_case_constant, taylor_bounds: the pointwise
  Taylor remainder of |1+t|^q and its case-wise bounds (acceptance
  check 10)
- DenseFlow: the flow's operator by dense cosine/sine sums, against its
  transform form, with the cosine coefficients and the dissipation
  functional the package does not keep (acceptance check 07)
"""

import math
from dataclasses import dataclass

import numpy as np

from fracsphere import euclid
from fracsphere.euclid import TWO_PI, EuclidParams
from fracsphere.field import field_from_descriptor
from fracsphere.inequality import deficit
from fracsphere.specfun import gauss_jacobi, gegenbauer_all, log_gamma
from fracsphere.spectrum import gamma_sequence, operator_eigenvalue


def gamma_ratio(a, b):
    """Gamma(a)/Gamma(b) for positive a, b, computed in log space.

    Stable for arguments where the individual gamma values would
    overflow (a, b up to ~1e300 in principle; we only ever need a few
    hundred).
    """
    return np.exp(log_gamma(a) - log_gamma(b))


def alpha_sequence(n, x, kmax):
    """alpha_k(x) = sum_{j<k} [1/(n+j-x) + 1/(j+x)], the negative
    logarithmic derivative of gamma_k at x."""
    out = np.zeros(kmax + 1)
    if kmax >= 1:
        j = np.arange(kmax, dtype=float)
        out[1:] = np.cumsum(1.0 / (n + j - x) + 1.0 / (j + x))
    return out


def sharp_quotient(fld, ps):
    """rhs / lhs of the sharp inequality of order ps.s on the field:
    interpolation for s > 0, hls for s < 0, the critical entropy form at
    s = 0.  At least 1; on F = 1 + eps Y_1 it is 1 + O(eps^2), since the
    cubic correction integrates to zero."""
    s = ps.s
    kind = "interpolation" if s > 0.0 else "hls" if s < 0.0 else "logsob_critical"
    r = deficit(fld, ps, kind)
    return r.rhs / r.lhs


def zonal_basis_oracle(n, kmax, rule):
    """field.zonal_basis without shared tables or in-place arithmetic."""
    c = gegenbauer_all(kmax, 0.5 * (n - 1.0), rule.nodes)
    h = np.sqrt((rule.prob_weights * c * c).sum(axis=1))
    return c / h[:, None]


def jacobi_eval_oracle(m, a, b, x):
    """specfun._jacobi_eval one recurrence step at a time: in double on the
    quotients by c1, in any other dtype on the coefficients cast to it,
    dividing by c1 at every step."""
    shifted = isinstance(x, tuple)
    x = np.asarray(x[0] if shifted else x)
    p1 = np.ones_like(x)
    p = 0.5 * (a + b + 2.0) * x + (-(b + 1.0) if shifted else 0.5 * (a - b))
    for j in range(2, m + 1):
        c1 = 2.0 * j * (j + a + b) * (2.0 * j + a + b - 2.0)
        c3 = (2.0 * j + a + b - 1.0) * (2.0 * j + a + b) * (2.0 * j + a + b - 2.0)
        c2 = (2.0 * j + a + b - 1.0) * (a * a - b * b) - (c3 if shifted else 0.0)
        c4 = 2.0 * (j + a - 1.0) * (j + b - 1.0) * (2.0 * j + a + b)
        if x.dtype == np.float64:
            p, p1 = (x * (c3 / c1) + c2 / c1) * p - c4 / c1 * p1, p
        else:
            c1, c2, c3, c4 = (x.dtype.type(c) for c in (c1, c2, c3, c4))
            p, p1 = ((x * c3 + c2) * p - c4 * p1) / c1, p
    return p, p1


def gegenbauer_all_oracle(kmax, alpha, z):
    """specfun.gegenbauer_all one row at a time, for kmax >= 1."""
    z = np.asarray(z, dtype=float)
    rows = [np.ones_like(z), z if alpha == 0.0 else 2.0 * alpha * z]
    for k in range(2, kmax + 1):
        up = 2.0 if alpha == 0.0 else 2.0 * (k + alpha - 1.0) / k
        down = 1.0 if alpha == 0.0 else (k + 2.0 * alpha - 2.0) / k
        rows.append(up * z * rows[-1] - down * rows[-2])
    return np.array(rows)


# ---------------------------------------------------------------------------
# kernel eigenvalues


def funk_hecke_mu(n, lam, k):
    """Eigenvalue of the kernel |zeta - eta|^(-lam) on degree-k harmonics.

    Returns (quadrature, closed_form).  The quadrature route absorbs the
    kernel singularity into a Gauss-Jacobi weight, after which the
    integrand is the degree-k polynomial G_k = C_k(z) / C_k(1), so the
    rule is exact; the closed form is

        mu_k = A * gamma_k(n - lam/2),
        A = Gamma(n) Gamma((n-lam)/2) / (2^lam Gamma(n/2) Gamma(n - lam/2)).

    Agreement of the two routes is the identity this function exists to
    check; neither is derived from the other.
    """
    if not 0.0 < lam < n:
        raise ValueError("kernel order lam must lie in (0, n)")
    log_a = (log_gamma(float(n)) + log_gamma(0.5 * (n - lam))
             - lam * np.log(2.0) - log_gamma(0.5 * n) - log_gamma(n - 0.5 * lam))
    closed = float(np.exp(log_a) * gamma_sequence(n, n - 0.5 * lam, k)[k])

    rule = gauss_jacobi(k + 12, 0.5 * (n - 2.0 - lam), 0.5 * (n - 2.0))
    ck = gegenbauer_all(k, 0.5 * (n - 1.0), np.append(rule.nodes, 1.0))[k]
    gk = ck[:-1] / ck[-1]       # C_k at the nodes over C_k(1), the last point
    log_zn = (n - 1.0) * np.log(2.0) + 2.0 * log_gamma(0.5 * n) - log_gamma(float(n))
    quad = float((rule.weights * gk).sum()) * 2.0 ** (-0.5 * lam) / float(np.exp(log_zn))
    return quad, closed


# ---------------------------------------------------------------------------
# fields on the line grid and the periodized Fourier oracle


@dataclass
class GridField:
    x: np.ndarray
    values: np.ndarray

    @property
    def h(self):
        return float(self.x[1] - self.x[0])


def grid_field(fn, eu):
    x = eu.grid()
    return GridField(x=x, values=np.asarray(fn(x), dtype=float))


DECAY_BOUND = 1e-8


def _apply_multiplier(values, h, s):
    """(-Lap)^(s/2) of samples on a periodized grid of spacing h."""
    xi = TWO_PI * np.fft.rfftfreq(values.size, d=h)
    return np.fft.irfft(xi ** s * np.fft.rfft(values), values.size)


def frac_laplacian_oracle(gf, s):
    """Fractional Laplacian on the periodized grid via the |xi|^s multiplier.

    Refuses inputs that have not decayed at the grid edge: periodization
    wraps whatever is left there, and the result silently loses meaning.
    """
    peak = np.abs(gf.values).max()
    edge = max(abs(gf.values[0]), abs(gf.values[-1]))
    if peak > 0.0 and edge > DECAY_BOUND * peak:
        raise ValueError(
            f"insufficient decay for the periodized oracle: |f| at the grid "
            f"edge is {edge / peak:.1e} of max|f| (bound {DECAY_BOUND:g}); "
            f"enlarge the window")
    return GridField(x=gf.x, values=_apply_multiplier(gf.values, gf.h, s))


def _chebyshev_rows(z, degrees):
    """T_j(z) for each j in the ascending degrees, by the recurrence
    T_(j+1) = 2 z T_j - T_(j-1) with only the two latest rows kept."""
    rows, prev, cur, two_z = [], np.ones_like(z), z, 2.0 * z
    for j in range(degrees[-1] + 1):
        if j in degrees:
            rows.append(prev)
        prev, cur = cur, two_z * cur - prev
    return rows


def eigen_residual_oracle(s, k, L=EuclidParams.L, N=EuclidParams.N):
    """euclid.eigen_residual with every factor rebuilt and every
    operation on a fresh array; the eigenvalues come from the package's
    euclid_eigenvalue, looked up at call time."""
    eu = EuclidParams(s=s, L=L, N=N)
    x = eu.grid()
    js = (k, k + 2, k + 4, k + 6)
    # x * x overflows for a huge L; the NaN residual then fails the gate
    with np.errstate(over="ignore", invalid="ignore"):
        u = 1.0 + x * x
        envelope = u ** (-eu.mu)
        profiles = [t * envelope for t in _chebyshev_rows((1.0 - x * x) / u, js)]
    # the three conditions on c as rows of m, with c_0 = 1
    m = np.array([[1.0] * 4, [j * j for j in js], [p.sum() for p in profiles]])
    c = np.concatenate([[1.0], np.linalg.solve(m[:, 1:], -m[:, 0])])
    g = sum(ci * pi for ci, pi in zip(c, profiles))
    lam = np.array([euclid.euclid_eigenvalue(s, j) for j in js])
    rhs = u ** (-s) * sum(ci * li * pi for ci, li, pi in zip(c, lam, profiles))
    lhs = _apply_multiplier(g, eu.h, s)
    rhs0 = rhs - rhs.mean()
    return float(np.linalg.norm(lhs - lhs.mean() - rhs0) / np.linalg.norm(rhs0))


# ---------------------------------------------------------------------------
# weighted integrals with algebraic tail correction


def _tail_integral(g1, u1, g2, u2, x_end, terms=14):
    # fit g ~ A (1+x^2)^(-m) from two samples, integrate beyond x_end
    if g1 <= 0.0 or g2 <= 0.0:
        return 0.0
    m = np.log(g1 / g2) / np.log(u2 / u1)
    if m <= 0.55:
        return 0.0
    amp = g1 * u1 ** m
    total = 0.0
    coef = 1.0
    for j in range(terms):
        p = 2.0 * m + 2.0 * j - 1.0
        total += coef * x_end ** (-p) / p
        coef *= -(m + j) / (j + 1.0)
    return amp * total


def weighted_norm(gf, q, beta=0.0):
    """integral of |f|^q (1+x^2)^(-beta/2) dx, with algebraic tail correction.

    The integrand is fit on each side to A (1+x^2)^(-m) using two
    samples (at 90% of the half-width and at the end) and the fitted
    model is integrated beyond the grid in closed form.  Returns
    (value, tail_fraction); sides whose fitted decay is too slow to
    integrate are skipped, which surfaces as a larger tail_fraction of
    zero on truncation-dominated inputs.
    """
    x, h = gf.x, gf.h
    g = np.abs(gf.values) ** q * (1.0 + x * x) ** (-0.5 * beta)
    core = float(np.trapezoid(g, dx=h))
    nn = x.size
    i_r, i_l = int(0.9 * nn), int(0.1 * nn)
    u = 1.0 + x * x
    right = _tail_integral(g[i_r], u[i_r], g[-1], u[-1], abs(x[-1]))
    left = _tail_integral(g[i_l], u[i_l], g[0], u[0], abs(x[0]))
    value = core + right + left
    frac = (right + left) / abs(value) if value != 0.0 else 0.0
    return value, frac


# ---------------------------------------------------------------------------
# pointwise Taylor remainder and its bounds


def taylor_remainder(t, q):
    """r(t) = |1+t|^q - 1 - q t - q(q-1)/2 t^2, vectorized in t."""
    t = np.asarray(t, dtype=float)
    out = np.abs(1.0 + t) ** q - 1.0 - q * t - 0.5 * q * (q - 1.0) * t * t
    return out if out.ndim else float(out)


def taylor_case_constant(q):
    """Sharp constant for the t >= 1 branch of the remainder bound.

    Equals 1 for q in (2, 3]; for q >= 3 the defining integral
    (q(q-1)(q-2)/2) * int_0^1 (1-sigma)^2 (1+sigma)^(q-3) d sigma has the
    closed form below (e.g. 5 at q = 4).
    """
    if q <= 2.0:
        raise ValueError("remainder bounds need q > 2")
    if q <= 3.0:
        return 1.0
    val = (4.0 * (2.0 ** (q - 2.0) - 1.0) / (q - 2.0)
           - 4.0 * (2.0 ** (q - 1.0) - 1.0) / (q - 1.0)
           + (2.0 ** q - 1.0) / q)
    return 0.5 * q * (q - 1.0) * (q - 2.0) * val


def taylor_bounds(t, q):
    """Case label and (lower, upper) bounds for the remainder at t.

    The natural constants on the two negative branches, q(q-1)(q-2)/6
    for -1 < t < 0 and (q-1)(q-2)/2 for t <= -1, are only valid for
    q >= 3: deriving them takes sign(u)|u|^(q-3) to be increasing.  For
    2 < q < 3 each branch needs the value the other branch contributes
    at t = -1, where |r| = (q-1)(q-2)/2 while q(q-1)(q-2)/6 and 1 sit
    below it and above it respectively; taking the max of the adjacent
    constants gives bounds valid on all of q > 2 (and sharp at t = -1
    for q >= 3).
    """
    if q <= 2.0:
        raise ValueError("remainder bounds need q > 2")
    t = float(t)
    cube = q * (q - 1.0) * (q - 2.0) / 6.0
    half = 0.5 * (q - 1.0) * (q - 2.0)
    if t >= 1.0:
        return "large_positive", 0.0, taylor_case_constant(q) * t ** q
    if t > 0.0:
        return "small_positive", 0.0, cube * max(1.0, 2.0 ** (q - 3.0)) * t ** 3
    if t == 0.0:
        return "zero", 0.0, 0.0
    if t > -1.0:
        return "small_negative", -max(cube, half) * abs(t) ** 3, 0.0
    return "large_negative", -max(1.0, half) * abs(t) ** q, abs(t) ** q


# ---------------------------------------------------------------------------
# the circle flow


class DenseFlow:
    """flow.FlowOps by explicit cosine/sine sums over the m midpoints, on
    every mode 0 < k < m, O(m^2) per right-hand side: an independent
    reference for the transform form.  The angles k theta_i are
    reduced mod 2 pi in integer arithmetic, so the matrices are accurate
    to roundoff at every k.  It also reads what the package does not:
    the cosine coefficients of nodal values and the dissipation
    -dE/dt = 2 sum_k delta_k a_k^2 of w = u^(1/q)."""

    def __init__(self, ops):
        m = ops.m
        self.ops, self.m, self.q = ops, m, ops.cfg.q

        def basis(fn, k):
            turns = np.outer(k, 2 * np.arange(m) + 1) % (4 * m)
            return math.sqrt(2.0) * fn(np.pi * turns / (2 * m))

        self.cosb = basis(np.cos, np.arange(m))
        self.cosb[0] = 1.0
        self.ks = np.arange(1, m)
        self.sinb = basis(np.sin, self.ks)
        self.delta = operator_eigenvalue(ops.ps, "delta", m - 1)
        self.grad_mult = -self.q * self.delta[1:] / self.ks

    def init_values(self):
        fld = field_from_descriptor(self.ops.cfg.init, 1)
        return (fld.coeffs @ self.cosb[:fld.coeffs.size]) ** self.q

    def cos_coeffs(self, v):
        """Coefficients of nodal values on 1 and sqrt(2) cos k theta, k < m."""
        return self.cosb @ v / self.m

    def rhs(self, u):
        # mode 0 of w is not in the operator; removed before the sums, its
        # leak through the rounded basis cannot reach the amplified top modes
        u = np.maximum(u, self.ops.cfg.clamp_floor)
        w = u ** (1.0 / self.q)
        a = self.cos_coeffs(w - w[0])
        dpsi = (self.grad_mult * a[1:]) @ self.sinb
        flux = u ** (1.0 - 1.0 / self.q) * dpsi
        b = self.sinb @ flux / self.m
        return (b * self.ks) @ self.cosb[1:]

    def dissipation(self, u):
        """-dE/dt along the flow: 2 sum_k delta_k a_k^2 for w = u^(1/q)."""
        a = self.cos_coeffs(np.maximum(u, self.ops.cfg.clamp_floor) ** (1.0 / self.q))
        return 2.0 * float((self.delta * a * a).sum())
