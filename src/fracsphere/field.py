"""Zonal fields on the sphere: coefficient vectors and nodal values.

A zonal field is a finite expansion F = sum_k c_k Y_k in the
latitude-only spherical harmonics, normalized so that each Y_k has unit
L2 norm against the uniform probability measure.  Synthesis and
analysis go through Gauss-Jacobi quadrature in the latitude variable,
which is exact for the polynomial integrands involved as long as the
rule is large enough (analysis requires at least 2*kmax + 2 nodes; the
helpers below default to more).
"""

import json
from dataclasses import dataclass

import numpy as np

from .specfun import gegenbauer_all, sphere_rule


@dataclass
class ZonalField:
    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))

    @property
    def kmax(self):
        return self.coeffs.size - 1


def default_rule(n, kmax):
    """Quadrature rule sized for stable analysis/norms up to degree kmax."""
    return sphere_rule(n, max(128, 4 * (kmax + 1)))


def zonal_basis(n, kmax, rule):
    """Matrix Y[k, i] of normalized zonal harmonics at the rule nodes.

    Normalization constants h_k are computed with the same rule, which is
    exact for m >= kmax + 1 nodes; for n = 1 this reproduces
    Y_k = sqrt(2) cos(k theta).
    """
    alpha = 0.5 * (n - 1.0)
    c = gegenbauer_all(kmax, alpha, rule.nodes)
    h = np.sqrt((rule.prob_weights * c * c).sum(axis=1))
    return c / h[:, None]


def synthesize(fld, rule):
    """Nodal values of the field at the rule nodes."""
    basis = zonal_basis(fld.n, fld.kmax, rule)
    return fld.coeffs @ basis


def analyze(n, values, rule, kmax):
    """Coefficients c_k = integral of F * Y_k, k = 0..kmax.

    Exact for band-limited F when the rule has at least 2*kmax + 2
    nodes; fewer nodes silently alias, so we refuse them.
    """
    if len(rule) < 2 * kmax + 2:
        raise ValueError(f"analysis to degree {kmax} needs >= {2 * kmax + 2} "
                         f"nodes, rule has {len(rule)}")
    basis = zonal_basis(n, kmax, rule)
    return ZonalField(n=n, coeffs=basis @ (rule.prob_weights * values))


def lq_norm(fld, q, rule=None):
    """The L^q norm of the field against the uniform probability measure."""
    if q < 1.0 or not np.isfinite(q):
        raise ValueError(f"need a finite exponent q >= 1, got {q}")
    if rule is None:
        rule = default_rule(fld.n, fld.kmax)
    v = synthesize(fld, rule)
    return float((rule.prob_weights * np.abs(v) ** q).sum() ** (1.0 / q))


def quadratic_form(fld, eigenvalues):
    """sum_k lambda_k c_k^2 for a diagonal operator with the given spectrum."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if eigenvalues.size < fld.coeffs.size:
        raise ValueError("eigenvalue sequence shorter than the field")
    return float((eigenvalues[:fld.coeffs.size] * fld.coeffs ** 2).sum())


def difference_quotient(fld, ps, rule):
    """(||F||_q^2 - ||F||_2^2) / (q - 2) at q = ps.q, from the moment gaps
    ||F||_q^q - 1 and ||F||_2^2 - 1.  Forming |F|^q - 1 pointwise by
    expm1/log keeps full relative accuracy when F is uniformly close to 1,
    where forming the norms first would cancel away every digit."""
    v = synthesize(fld, rule)
    w = rule.prob_weights
    with np.errstate(divide="ignore"):
        dq = float((w * np.expm1(ps.q * np.log(np.abs(v)))).sum())
    d2 = float((w * (v - 1.0) * (v + 1.0)).sum())
    return float(np.expm1((2.0 / ps.q) * np.log1p(dq)) - d2) / (ps.q - 2.0)


def entropy2(fld, rule=None):
    """Relative entropy integral F^2 log(|F| / ||F||_2) d(mu).

    The integrand is extended by zero where F vanishes (t log t -> 0),
    so fields with zeros are fine; the identically zero field is not.
    """
    if rule is None:
        rule = default_rule(fld.n, fld.kmax)
    w = rule.prob_weights
    v = synthesize(fld, rule)
    v2 = v * v
    if float((w * v2).sum()) <= 0.0:
        raise ValueError("entropy of the zero field is undefined")
    d2 = float((w * (v - 1.0) * (v + 1.0)).sum())    # ||F||_2^2 - 1, stably
    with np.errstate(divide="ignore", invalid="ignore"):
        vlog = np.where(v2 > 0.0, v2 * np.log(np.abs(v)), 0.0)
    return float((w * vlog).sum() - 0.5 * (1.0 + d2) * np.log1p(d2))


CONSTANT_FIELD_THRESHOLD = 1e-24


def is_constant(fld):
    tail = float((fld.coeffs[1:] ** 2).sum())
    return bool(tail <= CONSTANT_FIELD_THRESHOLD * fld.coeffs[0] ** 2)


def quotient(fld, ps, numerator_eigs=None, rule=None):
    """Rayleigh-type quotient of a diagonal quadratic form against the
    q-interpolation difference quotient (entropy at q = 2).

    The numerator defaults to the Dirichlet form of the fractional
    operator; constant fields are refused since both sides vanish.
    """
    if is_constant(fld):
        raise ValueError("quotient undefined for constant fields: "
                         "numerator and denominator both vanish")
    if numerator_eigs is None:
        from .spectrum import operator_eigenvalue
        numerator_eigs = operator_eigenvalue(ps, "L", fld.kmax)
    if rule is None:
        rule = default_rule(fld.n, fld.kmax)
    den = entropy2(fld, rule) if ps.q == 2.0 else difference_quotient(fld, ps, rule)
    return quadratic_form(fld, numerator_eigs) / den


# ---------------------------------------------------------------------------
# descriptors: a compact JSON form naming how a test field was built


def field_from_descriptor(desc, n):
    """Build a field from its descriptor (dict or JSON string).

    Supported families:
      {"coeffs": [[k, c], ...]}                  explicit coefficients
      {"family": "one_plus_eps_y1", "eps": e}    F = 1 + e Y_1
      {"family": "pullback_fstar"}               line optimizer pulled back,
                                                 which is the constant field
      {"family": "random_band_limited",
       "kmax": K, "seed": m, "scale": r}         1 + r * (seeded modes)
    """
    if isinstance(desc, str):
        desc = json.loads(desc)

    def key(name):
        if name not in desc:
            raise ValueError(f"field descriptor {desc!r} has no key {name!r}")
        return desc[name]

    if "coeffs" in desc:
        pairs = desc["coeffs"]
        kmax = max(int(k) for k, _ in pairs)
        c = np.zeros(kmax + 1)
        for k, v in pairs:
            c[int(k)] = float(v)
        return ZonalField(n=n, coeffs=c)
    fam = desc.get("family")
    if fam == "one_plus_eps_y1":
        return ZonalField(n=n, coeffs=[1.0, float(key("eps"))])
    if fam == "pullback_fstar":
        return ZonalField(n=n, coeffs=[1.0])
    if fam == "random_band_limited":
        kmax = int(key("kmax"))
        scale = float(desc.get("scale", 0.3))
        rng = np.random.default_rng(int(key("seed")))
        c = rng.standard_normal(kmax + 1)
        c *= scale / max(1.0, np.abs(c).max())
        c[0] += 1.0
        return ZonalField(n=n, coeffs=c)
    raise ValueError(f"unrecognized field descriptor: {desc!r}")


def descriptor_of(fld):
    pairs = [[int(k), float(c)] for k, c in enumerate(fld.coeffs) if c != 0.0]
    return json.dumps({"coeffs": pairs}, separators=(",", ":"))
