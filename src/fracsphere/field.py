"""Zonal fields on the sphere: coefficient vectors and nodal values.

A zonal field is a finite expansion F = sum_k c_k Y_k in the
latitude-only spherical harmonics, normalized so that each Y_k has unit
L2 norm against the uniform probability measure.  Synthesis and
analysis go through Gauss-Jacobi quadrature in the latitude variable,
which is exact for the polynomial integrands involved as long as the
rule is large enough (analysis requires at least 2*kmax + 2 nodes; the
helpers below default to more).  lq_quotient is the one kernel of the
quotient (||F||_q^2 - ||F||_2^2)/(q - 2) and of its q = 2 limit, the
entropy: difference_quotient, entropy2, quotient, every deficit kind and
the flow's entropy call it.
"""

import json
import math
from dataclasses import dataclass
from numbers import Real

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


def lq_quotient(values, weights, q):
    """(||F||_q^2 - ||F||_2^2) / (q - 2) of nodal values F against
    quadrature weights; at q = 2 its limit, the entropy F^2 log(|F|/||F||_2).

    With B = sum w F^2, g = F / sqrt(B), delta = q - 2, G = sum w (g-1)(g+1),
    h = sum w g^2 log|g| exprel(delta log|g|) / (1 + G) (zero where F = 0)
    and k = (2/q) log1p(delta h) / delta - log1p(G) / q, the quotient is
    B (1 + G) k exprel(delta k), exprel(x) = expm1(x) / x.  No step
    subtracts two O(1) moments or divides by q - 2, so q = 2 is no special
    case; and G cancels the rounding of sum w = 1 to first order, which
    keeps full relative accuracy on fields close to a constant.
    """
    b = float((weights * values * values).sum())
    if b == 0.0:
        raise ValueError("the L^q quotient and the entropy of the zero field are undefined")
    delta = q - 2.0
    g = values / math.sqrt(b)
    g2 = g * g
    with np.errstate(divide="ignore", invalid="ignore"):   # log 0, masked below
        lg = np.log(np.abs(g))
        x = delta * lg
        terms = np.where(g2 > 0.0, g2 * lg * np.where(x == 0.0, 1.0, np.expm1(x) / x), 0.0)
    gap = float((weights * (g - 1.0) * (g + 1.0)).sum())
    h = float((weights * terms).sum()) / (1.0 + gap)
    dh = delta * h
    k = 2.0 / q * (h * math.log1p(dh) / dh if dh else h) - math.log1p(gap) / q
    dk = delta * k
    return b * (1.0 + gap) * (math.expm1(dk) / delta if dk else k)


def difference_quotient(fld, ps, rule):
    """lq_quotient of the field on the nodes of rule at q = ps.q."""
    return lq_quotient(synthesize(fld, rule), rule.prob_weights, ps.q)


def entropy2(fld, rule=None):
    """Relative entropy F^2 log(|F| / ||F||_2) d(mu), lq_quotient at q = 2."""
    if rule is None:
        rule = default_rule(fld.n, fld.kmax)
    return lq_quotient(synthesize(fld, rule), rule.prob_weights, 2.0)


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
    return quadratic_form(fld, numerator_eigs) / difference_quotient(fld, ps, rule)


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
        return ZonalField(n=n, coeffs=_coeff_vector(desc["coeffs"]))
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


def _coeff_vector(pairs):
    """Coefficients from a non-empty list of [k, c] number pairs whose
    degrees k are distinct non-negative integers."""
    if not (isinstance(pairs, list) and pairs):
        raise ValueError(f"coeffs must be a non-empty list of [k, c] pairs, got {pairs!r}")
    out = {}
    for k, c in pairs:
        integral = isinstance(k, Real) and not isinstance(k, bool) and float(k).is_integer()
        if not (integral and k >= 0):
            raise ValueError(f"coeffs degree {k!r} is not a non-negative integer")
        if int(k) in out:
            raise ValueError(f"coeffs repeats degree {int(k)}")
        out[int(k)] = float(c)
    vec = np.zeros(max(out) + 1)
    vec[list(out)] = list(out.values())
    return vec


def descriptor_of(fld):
    pairs = [[int(k), float(c)] for k, c in enumerate(fld.coeffs) if c != 0.0]
    return json.dumps({"coeffs": pairs}, separators=(",", ":"))
