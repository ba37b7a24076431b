"""Deficit reports for the sharp inequality family.

Every inequality in the family has the shape lhs <= rhs with rhs built
from a diagonal quadratic form and lhs from Lebesgue norms, mostly the
quotient (||F||_q^2 - ||F||_2^2)/(q - 2) of field.lq_quotient, whose
q = 2 value is the relative entropy of the logarithmic kinds.  deficit()
looks the kind up in the table KINDS and evaluates both sides for a
concrete zonal field; the report's deficit (rhs - lhs) must be
nonnegative up to quadrature roundoff.

Also here: kernel eigenvalues by quadrature against the closed form
(the classical Funk-Hecke identity), the sharpness probe along the
1 + eps Y_1 family, and the pointwise Taylor remainder bounds used in
the stability arguments.
"""

import json
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

import numpy as np

from .field import (ZonalField, descriptor_of, difference_quotient, entropy2,
                    field_from_descriptor, is_constant, lq_norm,
                    quadratic_form, quotient, synthesize, analyze)
from .specfun import gegenbauer, gegenbauer_at_one, gauss_jacobi, log_gamma, sphere_rule
from .spectrum import Q_WINDOW, derive_params, gamma_sequence, operator_eigenvalue


@dataclass(frozen=True)
class InequalityReport:
    kind: str
    n: int
    s: float
    q: float
    lhs: float
    rhs: float
    deficit: float
    relative_deficit: float
    field_descriptor: str
    equality_case: bool = False

    @classmethod
    def from_sides(cls, kind, ps, q, lhs, rhs, descriptor, equality):
        """Report of lhs <= rhs: deficit rhs - lhs, relative to max(1, |rhs|)."""
        d = rhs - lhs
        return cls(kind=kind, n=ps.n, s=ps.s, q=q, lhs=lhs, rhs=rhs, deficit=d,
                   relative_deficit=d / max(1.0, abs(rhs)),
                   field_descriptor=descriptor, equality_case=equality)


REPORT_HEADER = "kind,n,s,q,lhs,rhs,deficit,relative_deficit,field_descriptor"


def report_row(r):
    return ",".join([
        r.kind, str(r.n), repr(r.s), repr(r.q), repr(r.lhs), repr(r.rhs),
        repr(r.deficit), repr(r.relative_deficit),
        json.dumps(r.field_descriptor),
    ])


def reports_csv(reports):
    return "\n".join([REPORT_HEADER] + [report_row(r) for r in reports]) + "\n"


# ---------------------------------------------------------------------------
# the inequality kinds


def _quotient_plus_remainder(fld, ps, rule):
    eps = operator_eigenvalue(ps, "R", fld.kmax)
    return difference_quotient(fld, ps, rule) + quadratic_form(fld, eps)


def _variance(fld, ps, rule):
    return float((fld.coeffs[1:] ** 2).sum())   # exact in coefficients


def _critical_norm(fld, ps, rule):
    return lq_norm(fld, ps.q_star, rule) ** 2


def _entropy(fld, ps, rule):
    return entropy2(fld, rule)


def _form(lhs, operator, factor):
    """sides of lhs(F) <= factor(ps) * <F, operator F>."""
    def sides(fld, ps, rule):
        eigs = operator_eigenvalue(ps, operator, fld.kmax)
        return lhs(fld, ps, rule), factor(ps) * quadratic_form(fld, eigs)
    return sides


def _square_sides(fld, ps, rule):
    w = rule.prob_weights
    fvals = synthesize(fld, rule)
    gvals = np.sign(fvals) * np.abs(fvals) ** (ps.q_star - 1.0)

    norm_qstar = float((w * np.abs(fvals) ** ps.q_star).sum()) ** (1.0 / ps.q_star)
    norm_g_p = norm_qstar ** (ps.q_star / ps.p)

    kg = len(rule) // 2 - 1
    g = analyze(ps.n, gvals, rule, kg)
    lhs = norm_g_p ** 2 - quadratic_form(g, operator_eigenvalue(ps, "K_inv", kg))
    rhs = norm_qstar ** (2.0 * (ps.q_star - 2.0)) * (
        quadratic_form(fld, operator_eigenvalue(ps, "K", fld.kmax)) - norm_qstar ** 2)
    return lhs, rhs


@dataclass(frozen=True)
class Kind:
    """One inequality of the family: sides(fld, ps, rule) gives (lhs, rhs)
    where admits(ps) holds, and the report carries exponent(ps)."""
    admits: Callable
    message: str                # of the ValueError where admits(ps) fails
    sides: Callable
    exponent: Callable
    equality: Callable = is_constant
    nodes: tuple = (160, 6)     # the rule has max(m0, r * (K + 1)) nodes; None: no rule


_Q, _Q_STAR, _SHARP = attrgetter("q"), attrgetter("q_star"), attrgetter("constant")
KINDS = {
    "interpolation": Kind(lambda ps: 0.0 < ps.s <= ps.n, "interpolation needs s in (0, n]",
                          _form(difference_quotient, "L", _SHARP), _Q),
    "sobolev": Kind(lambda ps: 0.0 < ps.s < ps.n,
                    "the critical-exponent form needs s in (0, n)",
                    _form(_critical_norm, "K", lambda ps: 1.0), _Q_STAR),
    "hls": Kind(lambda ps: ps.s < 0.0, "the dual (negative-order) form needs s < 0",
                _form(difference_quotient, "L", _SHARP), _Q),
    "poincare": Kind(lambda ps: ps.s != 0.0,
                     "use the s = 0 kinds for the derivative operator",
                     _form(_variance, "L", _SHARP), _Q, nodes=None,
                     equality=lambda fld: bool(np.all(fld.coeffs[2:] == 0.0))),
    "logsob": Kind(lambda ps: 0.0 < ps.s <= ps.n, "the entropy form needs s in (0, n]",
                   _form(_entropy, "L", _SHARP), lambda ps: 2.0),
    "logsob_critical": Kind(lambda ps: ps.s == 0.0, "the critical entropy form needs s = 0",
                            _form(_entropy, "K0prime", lambda ps: 0.5 * ps.n),
                            lambda ps: 2.0),
    "s0_subcritical": Kind(lambda ps: ps.s == 0.0 and ps.q < 2.0,
                           "the subcritical s = 0 form needs s = 0, q in [1, 2)",
                           _form(difference_quotient, "K0prime", lambda ps: 0.5 * ps.n), _Q),
    "improved": Kind(lambda ps: (0.0 < ps.s < ps.n and ps.q < ps.q_star
                                 and abs(ps.q - 2.0) > Q_WINDOW),
                     "the improved form needs s in (0, n) and q < q_star, q != 2",
                     _form(_quotient_plus_remainder, "L", _SHARP), _Q),
    # G = sign(F) |F|^(q*-1): ||G||_p^2 - <G, K^-1 G> against
    # ||F||_q*^(2(q*-2)) (<F, K F> - ||F||_q*^2); both vanish to second
    # order at the optimizers, hence the looser 1e-8 roundoff gate
    "square": Kind(lambda ps: 0.0 < ps.s < ps.n,
                   "the squared-deficit form needs s in (0, n)",
                   _square_sides, _Q_STAR, nodes=(256, 16)),
}


def deficit(fld, ps, kind):
    """Report of one inequality of the family, a key of KINDS, for a
    concrete field.  Every quotient and entropy lhs comes from
    field.lq_quotient, one formula for every q, so a kind keeps its name
    and exponent as q approaches 2.  Raises ValueError for an unknown kind
    or parameters the kind does not admit."""
    form = KINDS.get(kind)
    if form is None:
        raise ValueError(f"unknown inequality kind {kind!r}")
    if not form.admits(ps):
        raise ValueError(form.message)
    rule = None
    if form.nodes is not None:
        rule = sphere_rule(fld.n, max(form.nodes[0], form.nodes[1] * (fld.kmax + 1)))
    lhs, rhs = form.sides(fld, ps, rule)
    return InequalityReport.from_sides(kind, ps, form.exponent(ps), lhs, rhs,
                                       descriptor_of(fld), form.equality(fld))


def deficit_square(fld, ps):
    """The squared-deficit comparison at the critical exponent."""
    return deficit(fld, ps, "square")


# ---------------------------------------------------------------------------
# kernel eigenvalues


def funk_hecke_mu(n, lam, k):
    """Eigenvalue of the kernel |zeta - eta|^(-lam) on degree-k harmonics.

    Returns (quadrature, closed_form).  The quadrature route absorbs the
    kernel singularity into a Gauss-Jacobi weight, after which the
    integrand is the degree-k polynomial G_k, so the rule is exact; the
    closed form is

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
    gk = gegenbauer(k, 0.5 * (n - 1.0), rule.nodes) / gegenbauer_at_one(k, 0.5 * (n - 1.0))
    log_zn = (n - 1.0) * np.log(2.0) + 2.0 * log_gamma(0.5 * n) - log_gamma(float(n))
    quad = float((rule.weights * gk).sum()) * 2.0 ** (-0.5 * lam) / float(np.exp(log_zn))
    return quad, closed


# ---------------------------------------------------------------------------
# sharpness probe


def linearization_probe(n, s, q, eps):
    """Relative gap of the Rayleigh quotient from its sharp value along
    the near-optimizer family F = 1 + eps Y_1.

    The gap is O(eps^2) because the cubic correction integrates to zero;
    in particular it is far below the 5*eps budget the probe is held to.
    """
    ps = derive_params(n, s, q)
    fld = ZonalField(n=n, coeffs=[1.0, float(eps)])
    if s == 0.0:
        eigs = operator_eigenvalue(ps, "K0prime", 1)
        c_eff = 0.5 * n
    else:
        eigs = operator_eigenvalue(ps, "L", 1)
        c_eff = ps.constant
    return c_eff * quotient(fld, ps, eigs) - 1.0


# ---------------------------------------------------------------------------
# pointwise Taylor remainder bounds


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
# report suites


EQUALITY_CASES = (
    ("interpolation", 1, 0.5, 3.0, {"coeffs": [[0, 1.3]]}),
    ("interpolation", 3, 2.0, 4.0, {"coeffs": [[0, 0.7]]}),
    ("interpolation", 2, 2.0, 5.0, {"coeffs": [[0, 1.0]]}),
    ("sobolev", 2, 1.0, None, {"coeffs": [[0, 1.1]]}),
    ("hls", 1, -0.5, 1.2, {"coeffs": [[0, 0.9]]}),
    ("poincare", 1, 0.5, None, {"coeffs": [[0, 1.0], [1, 0.6]]}),
    ("poincare", 3, 2.0, None, {"coeffs": [[0, 0.2], [1, -1.4]]}),
    ("logsob", 2, 1.0, 2.0, {"coeffs": [[0, 2.0]]}),
    ("logsob_critical", 2, 0.0, 2.0, {"coeffs": [[0, 1.5]]}),
    ("s0_subcritical", 1, 0.0, 1.5, {"coeffs": [[0, 0.8]]}),
    ("improved", 1, 0.5, 3.0, {"coeffs": [[0, 1.0]]}),
    ("square", 1, 0.5, None, {"coeffs": [[0, 1.2]]}),
)

RANDOM_CASES = (
    ("interpolation", 1, 0.5, 3.0),
    ("interpolation", 2, 1.0, 3.0),
    ("interpolation", 3, 2.0, 4.0),
    ("interpolation", 1, 1.0, 5.0),
    ("interpolation", 2, 2.0, 8.0),
    ("interpolation", 3, 1.5, 2.5),
    ("interpolation", 2, 0.5, 1.3),
    ("sobolev", 1, 0.5, None),
    ("sobolev", 2, 1.0, None),
    ("sobolev", 3, 2.0, None),
    ("sobolev", 4, 2.0, None),
    ("hls", 1, -0.5, 1.2),
    ("hls", 2, -1.0, 1.1),
    ("hls", 3, -1.5, 1.0),
    ("poincare", 1, 0.5, None),
    ("poincare", 3, 2.0, None),
    ("logsob", 1, 0.5, 2.0),
    ("logsob", 2, 1.0, 2.0),
    ("logsob", 3, 2.0, 2.0),
    ("logsob_critical", 1, 0.0, 2.0),
    ("logsob_critical", 2, 0.0, 2.0),
    ("s0_subcritical", 1, 0.0, 1.5),
    ("s0_subcritical", 2, 0.0, 1.2),
    ("improved", 1, 0.5, 3.0),
    ("improved", 2, 1.0, 2.5),
    ("improved", 3, 2.0, 3.5),
    ("square", 1, 0.5, None),
    ("square", 2, 1.0, None),
    ("square", 3, 2.0, None),
)


def equality_suite():
    """Reports for exact equality cases; every deficit is zero up to
    quadrature roundoff and each report carries the equality flag."""
    out = []
    for kind, n, s, q, desc in EQUALITY_CASES:
        ps = derive_params(n, s, q)
        out.append(deficit(field_from_descriptor(desc, n), ps, kind))
    return out


def random_suite(seed, count):
    """Deterministic batch of seeded band-limited random fields cycling
    through every inequality kind."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    out = []
    kmaxes = (4, 8, 16)
    for i in range(count):
        kind, n, s, q = RANDOM_CASES[i % len(RANDOM_CASES)]
        desc = {"family": "random_band_limited",
                "kmax": kmaxes[i % len(kmaxes)],
                "seed": seed + i, "scale": 0.4}
        ps = derive_params(n, s, q)
        out.append(deficit(field_from_descriptor(desc, n), ps, kind))
    return out
