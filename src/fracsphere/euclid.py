"""Stereographic transport between the circle and the line.

The conformal change of variables x = tan((pi - theta)/2) carries the
sphere inequalities to weighted interpolation inequalities on the real
line.  This module provides the transport in both directions, an
eigenfunction residual check for the explicit diagonalization

    (-Lap)^(s/2) f_k = lam_k (1 + |x|^2)^(-s) f_k,
    f_k = T_k(z) (1 + |x|^2)^(-mu),  z = (1-|x|^2)/(1+|x|^2),
    lam_k = 2^s Gamma(k + (1+s)/2) / Gamma(k + (1-s)/2) = lam_0 gamma_k((1-s)/2),

with gamma_k from spectrum.gamma_sequence, on the one spectral kernel that
every other module reads, and the two-endpoint interpolation deficit on the line,
the n = 1 case only: its sphere area is TWO_PI and its weight exponent
beta = 2(1 - q/q_star), so the module has no Gamma formula of its own.

The residual applies the fractional Laplacian as the |xi|^s multiplier
on one real FFT pair of a periodized grid (the symbol is real and even).
That surrogate zeroes the DC mode and bins |xi|^s coarsely near zero,
which caps its accuracy around 1e-3 for slowly decaying fields, so the
residual is taken on mean-corrected combinations insensitive to the DC
loss, whose profiles T_j(z) come from the Chebyshev recurrence on three
rotating buffers; its grid factors and symbol are memoised per (s, L, N).
The deficit at the optimizer, which needs roundoff accuracy, is computed
by exact transport to the circle.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import is_number
from .inequality import InequalityReport
from .specfun import gamma_ratio, midpoint_phase
from .spectrum import gamma_sequence

TWO_PI = 2.0 * np.pi
LINE_NODES = 8192       # angular midpoints of the line deficit's transport to the circle
MAX_N = 2 ** 20         # 32 times the default grid; about 0.2 s and 110 MB per residual


@dataclass(frozen=True)
class EuclidParams:
    """Order s in (0, 1) and the line grid x_i = -L + i h, i < N, h = 2L/N (n = 1)."""

    s: float
    L: float = 60.0
    N: int = 2 ** 15

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError("need 0 < s < n = 1")
        # an integral float (2.0 ** 15) is taken as its integer, as the CLI takes it
        if not (is_number(self.N) and self.N % 1 == 0):     # NaN and inf fail
            raise ValueError(f"grid size N must be an integer, got {self.N!r}")
        object.__setattr__(self, "N", int(self.N))
        if not self.N >= 2:
            raise ValueError(f"grid size N must be >= 2, got {self.N}")
        if self.N > MAX_N:
            raise ValueError(f"grid size N must be at most {MAX_N}, got {self.N}")
        if not 0.0 < self.L < np.inf:      # NaN fails too
            raise ValueError(f"half-width L must be finite and > 0, got {self.L}")

    @property
    def mu(self):
        return 0.5 * (1 - self.s)

    @property
    def h(self):
        return 2.0 * self.L / self.N

    def grid(self):
        return -self.L + self.h * np.arange(self.N)


def stereo_angle(x):
    """Signed angle of the circle point the line point x maps to.

    The image is (sin angle, cos angle) = (2x, 1 - x^2) / (1 + x^2): the
    origin goes to the north pole (0, 1) and the projection pole at
    angle +-pi is its antipode.
    """
    return 2.0 * np.arctan(x)


def stereo_inverse(angle):
    """Line point whose circle image sits at the given signed angle."""
    return np.tan(0.5 * angle)


def jacobian(x):
    return 2.0 / (1.0 + x * x)


def pushforward(sphere_fn, ps, x):
    """Transport a circle profile to the line: f = |J|^(1/q*) F(theta(x)).

    sphere_fn is a callable of the angle theta; the conformal weight
    makes the critical norm match: int |f|^q* dx = |S^1| * ||F||_q*^q*.
    """
    theta = stereo_angle(np.asarray(x, dtype=float))
    return jacobian(x) ** (1.0 / ps.q_star) * sphere_fn(theta)


def f_star(s, x):
    """Transport of the constant profile F = 1: the line optimizer
    2^mu (1 + x^2)^(-mu), mu = (1-s)/2."""
    mu = 0.5 * (1.0 - s)
    return 2.0 ** mu * (1.0 + np.asarray(x, dtype=float) ** 2) ** (-mu)


def euclid_eigenvalue(s, k):
    """lam_k = lam_0 gamma_k((1-s)/2), the circle's spectrum from spectrum.gamma_sequence."""
    lam0 = 2.0 ** s * gamma_ratio(0.5 * (1 + s), 0.5 * (1 - s), s)
    return float(lam0 * gamma_sequence(1, 0.5 * (1 - s), k)[k])


# ---------------------------------------------------------------------------
# eigenfunction residual


@lru_cache(maxsize=1)
def _line_factors(s, L, N):
    """eigen_residual's read-only u^(-mu), z = (1 - x^2)/u, u^(-s) and |xi|^s, u = 1 + x^2."""
    eu = EuclidParams(s=s, L=L, N=N)
    x = eu.grid()
    # x * x overflows for a huge L; the NaN residual then fails the gate
    with np.errstate(over="ignore", invalid="ignore"):
        u = 1.0 + x * x
        factors = (u ** (-eu.mu), (1.0 - x * x) / u, u ** (-s),
                   (TWO_PI * np.fft.rfftfreq(x.size, d=eu.h)) ** s)
    for a in factors:
        a.flags.writeable = False
    return factors


def _chebyshev_rows(z, envelope, degrees):
    """envelope * T_j(z) per ascending degree j, by T_(j+1) = 2 z T_j - T_(j-1) on 3 buffers."""
    rows, two_z, prev, cur, nxt = [], 2.0 * z, np.ones_like(z), z.copy(), np.empty_like(z)
    for j in range(degrees[-1]):
        if j in degrees:
            rows.append(np.multiply(prev, envelope))
        prev, cur, nxt = cur, np.subtract(np.multiply(two_z, cur, out=nxt), prev, out=nxt), prev
    return rows + [np.multiply(prev, envelope)]


def eigen_residual(s, k, L=EuclidParams.L, N=EuclidParams.N):
    """Relative residual of the diagonalization identity on the grid.

    A single eigenfunction decays like |x|^(-2 mu) = |x|^(s-1), which is
    not even integrable: on it the DC loss and the window truncation of
    the periodic multiplier drown the identity.  It is tested instead on
    g = sum c_j f_j over the degrees j = k, k+2, k+4, k+6 (one parity,
    hence one weight relation), with c chosen so that

        sum c_j = 0, sum c_j j^2 = 0, sum_i g(x_i) = 0:

    the first two conditions cancel the two leading tail orders of the
    profiles, the third removes the discrete mean the multiplier cannot see.
    Both sides are compared mean-free.  A wrong eigenvalue at any of the
    four degrees moves the residual by orders of magnitude.

    g decays like x^(-(1-s)-4): enough for the residual target, though
    not to the roundoff level at the grid edge where periodization would
    be harmless; the mean corrections make that safe.
    """
    envelope, z, weight, symbol = _line_factors(s, L, N)
    js = (k, k + 2, k + 4, k + 6)
    profiles = _chebyshev_rows(z, envelope, js)
    # the three conditions on c as rows of m, with c_0 = 1
    m = np.array([[1.0] * 4, [j * j for j in js], [p.sum() for p in profiles]])
    c = np.concatenate([[1.0], np.linalg.solve(m[:, 1:], -m[:, 0])])
    g, rhs = np.zeros_like(z), np.zeros_like(z)       # summed in place as Python's sum does
    for cj, j, p in zip(c, js, profiles):
        g += p * cj
        rhs += p * (cj * euclid_eigenvalue(s, j))
    spec = np.fft.rfft(g)
    del g       # its buffer is free again for the inverse transform
    rhs *= weight
    rhs -= rhs.mean()
    spec *= symbol
    lhs = np.fft.irfft(spec, z.size)
    lhs -= lhs.mean()
    lhs -= rhs
    return float(np.linalg.norm(lhs) / np.linalg.norm(rhs))


# ---------------------------------------------------------------------------
# two-endpoint interpolation deficit on the line


def thm16_coefficients(ps):
    """Weights (a, b) of the Dirichlet and weighted-L2 terms (n = 1, |S^1| = 2 pi).

    Both are exact rational-gamma expressions; at q = 2 they are (0, 1),
    returned without dividing by q_star - 2 (0 for s below about 5.6e-17), and
    the inequality collapses to an identity.
    """
    q, q_star = ps.q, ps.q_star
    if q == 2.0:
        return 0.0, 1.0
    a = ((q - 2.0) / (q_star - 2.0) * ps.kappa
         * 2.0 ** (2.0 / q_star - 2.0 / q) * TWO_PI ** (2.0 / q - 1.0))
    b = (q_star - q) / (q_star - 2.0) * 2.0 ** (1.0 - 2.0 / q) * TWO_PI ** (2.0 / q - 1.0)
    return a, b


def thm16_deficit(f, ps):
    """Deficit of the weighted interpolation inequality on the line,

        a * int f (-Lap)^(s/2) f dx + b * int f^2 (1+x^2)^(-s) dx
            >= ( int |f|^q (1+x^2)^(-beta/2) dx )^(2/q),

    beta = 2(1 - q/q_star) (n = 1), with (a, b) from thm16_coefficients,
    evaluated by exact transport to the circle: F = |J|^(-1/q*) f(x(theta))
    on LINE_NODES uniform midpoints, Fourier analysis of F, and the diagonal
    form of the Dirichlet integral.  All three terms are circle-side
    integrals of smooth functions, so the optimizer comes out with a
    deficit at roundoff level rather than at the 1e-3 level of the
    periodized |xi|^s multiplier on the line.

    f must be a vectorized callable on the line.  Returns an
    InequalityReport with kind 'line_interpolation' (rhs = a * Dirichlet
    + b * weighted L2) and no zonal field (None).
    """
    s, q, q_star = ps.s, ps.q, ps.q_star
    if ps.n != 1 or not 0.0 < s < 1.0:
        raise ValueError("the line deficit needs n = 1 and s in (0, 1)")
    if not 2.0 <= q <= q_star:
        raise ValueError(f"exponent must lie in [2, {q_star}], got {q}")

    M = LINE_NODES
    theta = TWO_PI * (np.arange(M) + 0.5) / M
    x = stereo_inverse(np.pi - theta)
    fv = np.asarray(f(x), dtype=float)
    big_f = fv * jacobian(x) ** (-1.0 / q_star)

    # midpoint samples -> coefficients on sqrt(2) cos k theta, sqrt(2) sin k theta
    kmax = M // 2 - 1
    hat = np.fft.rfft(big_f)[1:kmax + 1] * midpoint_phase(kmax, M)
    c0 = float(big_f.mean())
    ck, dk = hat.real, -hat.imag

    gam = gamma_sequence(1, ps.x_crit, kmax)
    hdot = TWO_PI / ps.kappa * (c0 ** 2 + float((gam[1:] * (ck ** 2 + dk ** 2)).sum()))
    w2 = 2.0 ** (2.0 / q_star - 1.0) * TWO_PI * float((big_f ** 2).mean())
    lhs = (2.0 ** (2.0 * (1.0 / q_star - 1.0 / q)) * TWO_PI ** (2.0 / q)
           * float((np.abs(big_f) ** q).mean()) ** (2.0 / q))

    a, b = thm16_coefficients(ps)
    rhs = a * hdot + b * w2
    return InequalityReport.from_sides("line_interpolation", ps, lhs, rhs, None)
