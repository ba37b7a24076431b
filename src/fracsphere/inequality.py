"""Deficit reports for the sharp inequality family.

Every inequality in the family has the shape lhs <= rhs with rhs built
from a diagonal quadratic form and lhs from Lebesgue norms, mostly the
quotient (||F||_q^2 - ||F||_2^2)/(q - 2) of field.lq_quotient, whose
q = 2 value is the relative entropy of the logarithmic kinds.  deficit()
looks the kind up in the table KINDS and evaluates both sides at ps.q
for a concrete zonal field (sobolev and square admit only q = q_star,
logsob and logsob_critical only q = 2); the report's deficit (rhs - lhs)
must be nonnegative up to quadrature roundoff.  Also here: the equality
and seeded random suites that verify reports, and their CSV form.
"""

import json
from dataclasses import dataclass, field as dc_field
from itertools import cycle
from operator import attrgetter
from typing import Callable

import numpy as np

from .field import (ZonalField, analyze, descriptor_of, difference_quotient,
                    field_from_descriptor, lq_norm, quadratic_form, random_band_limited,
                    shared_bases, shared_rows, synthesize)
from .specfun import sphere_rule
from .spectrum import derive_params, operator_eigenvalue


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
    field: ZonalField | None = dc_field(compare=False)      # None on the line

    @classmethod
    def from_sides(cls, kind, ps, lhs, rhs, fld):
        """Report of lhs <= rhs at ps.q: deficit rhs - lhs, relative to max(1, |rhs|)."""
        d = rhs - lhs
        return cls(kind=kind, n=ps.n, s=ps.s, q=ps.q, lhs=lhs, rhs=rhs, deficit=d,
                   relative_deficit=d / max(1.0, abs(rhs)), field=fld)


REPORT_HEADER = "kind,n,s,q,lhs,rhs,deficit,relative_deficit,field_descriptor"


def report_row(r):
    nums = (r.s, r.q, r.lhs, r.rhs, r.deficit, r.relative_deficit)
    return ",".join([r.kind, str(r.n), *map(repr, nums), json.dumps(descriptor_of(r.field))])


def reports_csv(reports):
    return "\n".join([REPORT_HEADER] + [report_row(r) for r in reports]) + "\n"


# ---------------------------------------------------------------------------
# the inequality kinds


def _spectrum(ps, op, kmax):     # keyed by numbers: a NaN constant equals nothing
    return shared_rows((ps.n, ps.s, ps.q, op), kmax, lambda k: operator_eigenvalue(ps, op, k))


def _quotient_plus_remainder(fld, ps, rule):
    return difference_quotient(fld, ps, rule) + quadratic_form(fld, _spectrum(ps, "R", fld.kmax))


def _variance(fld, ps, rule):
    return float((fld.coeffs[1:] ** 2).sum())   # exact in coefficients


def _critical_norm(fld, ps, rule):
    return lq_norm(fld, ps.q_star, rule) ** 2


def _form(lhs, operator, factor):
    """sides of lhs(F) <= factor(ps) * <F, operator F>."""
    def sides(fld, ps, rule):
        eigs = _spectrum(ps, operator, fld.kmax)
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
    lhs = norm_g_p ** 2 - quadratic_form(g, _spectrum(ps, "K_inv", kg))
    rhs = norm_qstar ** (2.0 * (ps.q_star - 2.0)) * (
        quadratic_form(fld, _spectrum(ps, "K", fld.kmax)) - norm_qstar ** 2)
    return lhs, rhs


@dataclass(frozen=True)
class Kind:
    """One inequality of the family: sides(fld, ps, rule) gives (lhs, rhs)
    where admits(ps) holds."""
    admits: Callable
    message: str                # of the ValueError where admits(ps) fails
    sides: Callable
    nodes: tuple = (160, 6)     # the rule has max(m0, r * (K + 1)) nodes; None: no rule
    gate: float = 1e-10         # verify fails a relative deficit below -gate


_SHARP = attrgetter("constant")
KINDS = {
    "interpolation": Kind(lambda ps: 0.0 < ps.s <= ps.n, "interpolation needs s in (0, n]",
                          _form(difference_quotient, "L", _SHARP)),
    "sobolev": Kind(lambda ps: 0.0 < ps.s < ps.n and ps.q == ps.q_star,
                    "the critical-exponent form needs s in (0, n) and q = q_star",
                    _form(_critical_norm, "K", lambda ps: 1.0)),
    "hls": Kind(lambda ps: ps.s < 0.0, "the dual (negative-order) form needs s < 0",
                _form(difference_quotient, "L", _SHARP)),
    "poincare": Kind(lambda ps: ps.s != 0.0,
                     "use the s = 0 kinds for the derivative operator",
                     _form(_variance, "L", _SHARP), nodes=None),
    # the q = 2 quotient is the entropy: logsob and logsob_critical take its sides
    "logsob": Kind(lambda ps: 0.0 < ps.s <= ps.n and ps.q == 2.0,
                   "the entropy form needs s in (0, n] and q = 2",
                   _form(difference_quotient, "L", _SHARP)),
    "logsob_critical": Kind(lambda ps: ps.s == 0.0 and ps.q == 2.0,
                            "the critical entropy form needs s = 0 and q = 2",
                            _form(difference_quotient, "K0prime", lambda ps: 0.5 * ps.n)),
    "s0_subcritical": Kind(lambda ps: ps.s == 0.0 and ps.q < 2.0,
                           "the subcritical s = 0 form needs s = 0, q in [1, 2)",
                           _form(difference_quotient, "K0prime", lambda ps: 0.5 * ps.n)),
    "improved": Kind(lambda ps: 0.0 < ps.s < ps.n and ps.q < ps.q_star,
                     "the improved form needs s in (0, n) and q < q_star",
                     _form(_quotient_plus_remainder, "L", _SHARP)),
    # G = sign(F) |F|^(q*-1): ||G||_p^2 - <G, K^-1 G> against
    # ||F||_q*^(2(q*-2)) (<F, K F> - ||F||_q*^2); both vanish to second
    # order at the optimizers, hence the looser 1e-8 roundoff gate
    "square": Kind(lambda ps: 0.0 < ps.s < ps.n and ps.q == ps.q_star,
                   "the squared-deficit form needs s in (0, n) and q = q_star",
                   _square_sides, nodes=(256, 16), gate=1e-8),
}


def deficit(fld, ps, kind):
    """Report of one inequality of the family, a key of KINDS, for a
    concrete field, at the exponent ps.q.  Every quotient and entropy lhs
    comes from field.lq_quotient, one formula for every q, so a kind keeps
    its name as q approaches 2.  Raises ValueError for an unknown kind or
    parameters the kind does not admit."""
    form = KINDS.get(kind)
    if form is None:
        raise ValueError(f"unknown inequality kind {kind!r}")
    if not form.admits(ps):
        raise ValueError(form.message)
    rule = None
    if form.nodes is not None:
        rule = sphere_rule(fld.n, max(form.nodes[0], form.nodes[1] * (fld.kmax + 1)))
    lhs, rhs = form.sides(fld, ps, rule)
    return InequalityReport.from_sides(kind, ps, lhs, rhs, fld)


def sobolev_sides(r):
    """<F,KF> and ||F||_2^2 + (q* - 2) C <F,LF> of a sobolev report, in
    coefficients: equal, since kappa = (q* - 2) C and K = Id + kappa L."""
    ps, fld = derive_params(r.n, r.s, r.q), r.field
    rhs = quadratic_form(fld, _spectrum(ps, "L", fld.kmax)) * (ps.q_star - 2.0) * ps.constant
    return quadratic_form(fld, _spectrum(ps, "K", fld.kmax)), float((fld.coeffs ** 2).sum()) + rhs


def deficit_square(fld, ps):
    """The squared-deficit comparison at the critical exponent."""
    return deficit(fld, ps, "square")


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
    """Reports for the exact equality cases EQUALITY_CASES, in order:
    every deficit is zero up to quadrature roundoff."""
    with shared_bases():
        return [deficit(field_from_descriptor(desc, n), derive_params(n, s, q), kind)
                for kind, n, s, q, desc in EQUALITY_CASES]


def random_suite(seed, count):
    """Deterministic batch of seeded band-limited random fields cycling
    through every inequality kind; one parameter set per case."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    cases = [(kind, n, derive_params(n, s, q)) for kind, n, s, q in RANDOM_CASES[:count]]
    with shared_bases():
        return [deficit(random_band_limited(n, (4, 8, 16)[i % 3], seed + i, 0.4), ps, kind)
                for i, (kind, n, ps) in zip(range(count), cycle(cases))]
