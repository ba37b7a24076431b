"""Zonal fields on the sphere: coefficient vectors and nodal values.

A zonal field is a finite expansion F = sum_k c_k Y_k in the
latitude-only spherical harmonics, normalized so that each Y_k has unit
L2 norm against the uniform probability measure.  Synthesis, analysis
and norms take the caller's Gauss-Jacobi rule in the latitude variable,
exact for the polynomial integrands involved once it is large enough
(analysis needs at least 2*kmax + 2 nodes).  lq_quotient is the one
kernel of the quotient (||F||_q^2 - ||F||_2^2)/(q - 2) and of its q = 2
limit, the entropy: difference_quotient (every quotient and entropy
deficit kind) and the flow's entropy call it.  entropy2, its q = 2 value,
has no caller in the package; the benchmark harness traces it.

Inside a shared_bases() block, such as the report suites of verify,
shared_rows keeps one table per key, zonal bases per (n, rule) and the
deficit kinds' spectra per (n, s, q, operator), and hands out read-only
row slices of it; outside one every call builds afresh.  A zonal basis
is built on first use to its rule's analysis degree len(rule) // 2 - 1
(or higher if asked), so the rising degrees of a suite's fields do not
rebuild it; a spectrum is grown to the highest degree asked so far.  A
rule hashes by identity, and the key keeps it alive: two builds of one
rule get a table each.
"""

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .specfun import BLOCK, gegenbauer_all


@dataclass
class ZonalField:
    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))

    @property
    def kmax(self):
        return self.coeffs.size - 1


# key -> table of shared_rows while a shared_bases() block runs, else None
_tables = None


@contextmanager
def shared_bases():
    """Keep shared_rows' tables until the outermost block ends; nested blocks share them."""
    global _tables
    outer = _tables
    _tables = {} if outer is None else outer
    try:
        yield
    finally:
        _tables = outer


def shared_rows(key, kmax, build, most=0):
    """Rows 0..kmax of build(kmax), whose row k depends on k alone; inside
    shared_bases() a read-only slice of the table kept under key, built to
    degree max(kmax, most) and rebuilt only for a higher degree."""
    if _tables is None:
        return build(kmax)
    table = _tables.get(key)
    if table is None or len(table) <= kmax:
        table = _tables[key] = build(max(kmax, most))
        table.flags.writeable = False
    return table[:kmax + 1]


def zonal_basis(n, kmax, rule):
    """Matrix Y[k, i] of normalized zonal harmonics at the rule nodes.

    Normalization constants h_k are computed with the same rule, which is
    exact for m >= kmax + 1 nodes, BLOCK rows at a time, so the product
    w c_k^2 never exists at the table's size; for n = 1 this reproduces
    Y_k = sqrt(2) cos(k theta).  Inside shared_bases() the matrix is a
    read-only slice of the table kept for (n, rule), the same floats.
    """
    return shared_rows((n, rule), kmax, lambda k: _basis_table(n, k, rule), len(rule) // 2 - 1)


def _basis_table(n, kmax, rule):
    c = gegenbauer_all(kmax, 0.5 * (n - 1.0), rule.nodes)
    t = np.empty((min(BLOCK, len(c)), len(rule)))
    for rows in np.split(c, range(BLOCK, len(c), BLOCK)):
        w = np.multiply(rule.prob_weights, rows, out=t[:len(rows)])
        w *= rows
        rows /= np.sqrt(w.sum(axis=1))[:, None]
    return c


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


def lq_norm(fld, q, rule):
    """The L^q norm of the field against the uniform probability measure."""
    if q < 1.0 or not np.isfinite(q):
        raise ValueError(f"need a finite exponent q >= 1, got {q}")
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


def entropy2(fld, rule):
    """Relative entropy F^2 log(|F| / ||F||_2) d(mu), lq_quotient at q = 2."""
    return lq_quotient(synthesize(fld, rule), rule.prob_weights, 2.0)


# ---------------------------------------------------------------------------
# descriptors: a compact JSON form naming how a test field was built


def field_from_descriptor(desc, n, max_degree=None):
    """Build a field from its descriptor (dict or JSON string).  A field
    of degree above max_degree is refused before any coefficient exists.

    Supported families:
      {"coeffs": [[k, c], ...]}                  explicit coefficients
      {"family": "one_plus_eps_y1", "eps": e}    F = 1 + e Y_1
      {"family": "random_band_limited",
       "kmax": K, "seed": m, "scale": r}         1 + r * (seeded modes)

    e, c and r are numbers, k, K and m non-negative integers.
    """
    if isinstance(desc, str):
        desc = json.loads(desc)

    def key(name, valid=is_number, what="a number"):
        if name not in desc:
            raise ValueError(f"field descriptor {desc!r} has no key {name!r}")
        if not valid(desc[name]):
            raise ValueError(f"{name} must be {what}, got {desc[name]!r}")
        return desc[name]

    def count(name):
        return int(key(name, _is_whole, "a non-negative integer"))

    def degree(k):
        if max_degree is not None and k > max_degree:
            raise ValueError(f"has degree {k} > kmax = {max_degree}")
        return k

    if "coeffs" in desc:
        return ZonalField(n=n, coeffs=_coeff_vector(desc["coeffs"], degree))
    fam = desc.get("family")
    if fam == "one_plus_eps_y1":
        degree(1)
        return ZonalField(n=n, coeffs=[1.0, float(key("eps"))])
    if fam == "random_band_limited":
        kmax = degree(count("kmax"))
        scale = float(key("scale")) if "scale" in desc else 0.3
        return random_band_limited(n, kmax, count("seed"), scale)
    raise ValueError(f"unrecognized field descriptor: {desc!r}")


def random_band_limited(n, kmax, seed, scale):
    """1 + scale * c / max(1, max|c|), c the kmax + 1 normal draws of default_rng(seed)."""
    c = np.random.default_rng(seed).standard_normal(kmax + 1)
    c *= scale / max(1.0, np.abs(c).max())
    c[0] += 1.0
    return ZonalField(n=n, coeffs=c)


def is_number(value):
    """A real number and not a bool, as JSON numbers decode."""
    return isinstance(value, Real) and not isinstance(value, bool)


def finite_or_null(x):
    """x for strict JSON: a value that is not finite is written as null."""
    return x if math.isfinite(x) else None


def _is_whole(value):
    return is_number(value) and value >= 0 and value % 1 == 0    # NaN and inf fail


def _coeff_vector(pairs, degree):
    """Coefficients from a non-empty list of [k, c] number pairs whose
    degrees k are distinct non-negative integers; degree(k) vets the top."""
    if not (isinstance(pairs, list) and pairs):
        raise ValueError(f"coeffs must be a non-empty list of [k, c] pairs, got {pairs!r}")
    out = {}
    for pair in pairs:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ValueError(f"coeffs entry {pair!r} is not a [k, c] pair")
        k, c = pair
        if not _is_whole(k):
            raise ValueError(f"coeffs degree {k!r} is not a non-negative integer")
        if not is_number(c):
            raise ValueError(f"coeffs value {c!r} is not a number")
        if int(k) in out:
            raise ValueError(f"coeffs repeats degree {int(k)}")
        out[int(k)] = float(c)
    vec = np.zeros(degree(max(out)) + 1)
    vec[list(out)] = list(out.values())
    return vec


def descriptor_of(fld):
    pairs = [[k, c] for k, c in enumerate(fld.coeffs.tolist()) if c != 0.0]
    return json.dumps({"coeffs": pairs}, separators=(",", ":"))
