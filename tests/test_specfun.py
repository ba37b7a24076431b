"""Special-function and quadrature primitives.

Reference values were frozen from an independent high-precision
evaluation (mpmath at 40 digits); scipy supplies a second, independent
implementation of the Jacobi machinery for cross-checks.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracsphere import specfun
from fracsphere.field import ZonalField
from fracsphere.inequality import deficit, equality_suite, random_suite
from fracsphere.specfun import (QuadratureRule, gauss_jacobi, gegenbauer_all,
                                log_gamma, rule_cache_info, sphere_rule)
from fracsphere.spectrum import derive_params
from reference import gamma_ratio, gegenbauer_all_oracle, jacobi_eval_oracle, midpoint_phase

# ---------------------------------------------------------------------------
# log_gamma


# frozen: mpmath.loggamma, 40 digits
LGAMMA_TABLE = [
    (0.031, 3.45665308697484),
    (0.3, 1.0957979948180755),
    (1.0, 0.0),
    (1.7, -0.095807697407065865),
    (5.0, 3.1780538303479456),
    (6.5, 5.6625620598571415),
    (11.25, 15.695301377060463),
    (150.5, 602.51395487058541),
]


@pytest.mark.parametrize("x,expected", LGAMMA_TABLE)
def test_log_gamma_frozen_grid(x, expected):
    assert log_gamma(x) == pytest.approx(expected, rel=1e-13, abs=1e-14)


def test_log_gamma_half_is_log_sqrt_pi():
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)


def test_log_gamma_vectorized():
    xs = np.array([0.5, 1.0, 5.0])
    out = log_gamma(xs)
    assert out.shape == (3,)
    assert out[2] == pytest.approx(math.log(24.0), rel=1e-14)


@pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
def test_log_gamma_rejects_nonpositive(x):
    with pytest.raises(ValueError):
        log_gamma(x)


def test_log_gamma_rejects_nan():
    with pytest.raises(ValueError):
        log_gamma(float("nan"))


@given(st.floats(min_value=1e-3, max_value=200.0))
@settings(max_examples=200, deadline=None)
def test_log_gamma_functional_equation(x):
    # Gamma(x+1) = x Gamma(x)
    lhs = log_gamma(x + 1.0)
    rhs = log_gamma(x) + math.log(x)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_log_gamma_matches_mpmath():
    # 900 seeded log-uniform points in (1e-3, 2000), the frozen grid,
    # 1e-2 and 170
    rng = np.random.default_rng(0)
    xs = np.concatenate([np.exp(rng.uniform(math.log(1e-3), math.log(2000.0), 900)),
                         [x for x, _ in LGAMMA_TABLE], [1e-2, 170.0]])
    got = log_gamma(xs)
    with mpmath.workdps(40):
        ref = [mpmath.loggamma(mpmath.mpf(float(x))) for x in xs]
        worst = max(abs(g - r) / max(1, abs(r)) for g, r in zip(got, ref))
    assert worst <= 1.5e-15


@pytest.mark.parametrize("x", [1e306, np.array([1e306, 2.0])])
def test_log_gamma_overflow_is_inf_without_warning(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = log_gamma(x)
    assert np.shape(out) == np.shape(x)
    assert np.ravel(out)[0] == math.inf
    if np.ndim(x):
        assert out[1] == 0.0
    else:
        assert type(out) is float


# ---------------------------------------------------------------------------
# gamma_ratio


def test_gamma_ratio_half_integers():
    assert gamma_ratio(2.5, 0.5) == pytest.approx(0.75, rel=1e-14)
    assert gamma_ratio(3.5, 1.5) == pytest.approx(3.75, rel=1e-14)


def test_gamma_ratio_frozen():
    # Gamma(1/4) / Gamma(3/4), frozen from mpmath
    assert gamma_ratio(0.25, 0.75) == pytest.approx(2.9586751191886389, rel=1e-13)


@given(st.floats(min_value=1e-2, max_value=200.0))
@settings(max_examples=200, deadline=None)
def test_gamma_ratio_functional_equation(a):
    # the ratio's relative error is the absolute error of a log difference,
    # a few ulps of log Gamma(a) ~ 600 at the top of this range
    assert gamma_ratio(a + 1.0, a) == pytest.approx(a, rel=5e-13)


@pytest.mark.parametrize("m", [1, 2, 5, 11])
def test_gamma_ratio_integer_offset_product(m):
    # Gamma(a+m)/Gamma(a) = a (a+1) ... (a+m-1)
    for a in (0.125, 0.75, 3.5, 40.25):
        prod = 1.0
        for j in range(m):
            prod *= a + j
        assert gamma_ratio(a + m, a) == pytest.approx(prod, rel=1e-13)


def test_gamma_ratio_rejects_nonpositive():
    with pytest.raises(ValueError):
        gamma_ratio(-1.0, 2.0)


def test_package_gamma_ratio_matches_mpmath_from_ten_on():
    # the Stirling-series difference, where the log_gamma difference would
    # leave a few ulps of lnGamma ~ 1e3 at the top of this range
    worst = 0.0
    with mpmath.workdps(50):
        for b in (10.0, 10.5, 13.25, 40.0, 199.5):
            for d in (-0.75, -0.5, 0.1, 0.5, 1.0, 2.5, 7.0):
                want = mpmath.gamma(mpmath.mpf(b) + d) / mpmath.gamma(b)
                if b + d >= 10.0:
                    worst = max(worst, float(abs(specfun.gamma_ratio(b + d, b, d) / want - 1)))
    assert worst <= 1e-14


def test_gamma_ratio_overflow_is_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert specfun.gamma_ratio(1e300, 10.0, 1e300 - 10.0) == math.inf


def test_midpoint_phase_gives_cosine_and_sine_coefficients():
    # the half-step phase of the line deficit's oracle (reference.thm16_rhs_oracle):
    # F = c_0 + sqrt(2) sum_k (a_k cos k theta + b_k sin k theta) at the M midpoints
    # has coefficients a_k - i b_k
    rng = np.random.default_rng(3)
    kmax, M = 6, 32
    coef = rng.normal(size=kmax + 1) + 1j * rng.normal(size=kmax + 1)
    coef[0] = coef[0].real
    theta = 2.0 * np.pi * (np.arange(M) + 0.5) / M
    k = np.arange(1, kmax + 1)[:, None]
    f = coef[0].real + np.sqrt(2.0) * (coef[1:, None].real * np.cos(k * theta)
                                       - coef[1:, None].imag * np.sin(k * theta)).sum(axis=0)
    got = np.fft.rfft(f)[1:kmax + 1] * midpoint_phase(kmax, M)
    np.testing.assert_allclose(got, coef[1:], rtol=0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# Gegenbauer


def _gegenbauer(k, alpha, z):
    """C_k^(alpha)(z) at one point, the last row of gegenbauer_all."""
    return float(gegenbauer_all(k, alpha, z)[k, 0])


def test_gegenbauer_degree_zero_is_one():
    for alpha in (0.0, 0.5, 1.0, 2.5):
        assert _gegenbauer(0, alpha, 0.37) == 1.0


def test_gegenbauer_legendre_values():
    # alpha = 1/2 is the Legendre family: P_1(z) = z, P_k(1) = 1
    assert _gegenbauer(1, 0.5, 0.3) == pytest.approx(0.3, rel=1e-15)
    assert _gegenbauer(4, 0.5, 1.0) == pytest.approx(1.0, rel=1e-13)
    # P_2(z) = (3 z^2 - 1) / 2
    assert _gegenbauer(2, 0.5, 0.6) == pytest.approx(0.5 * (3 * 0.36 - 1), rel=1e-14)


def test_gegenbauer_chebyshev_limit():
    z = np.linspace(-1.0, 1.0, 41)
    for k in (0, 1, 3, 8):
        vals = gegenbauer_all(k, 0.0, z)[k]
        np.testing.assert_allclose(vals, np.cos(k * np.arccos(z)), atol=1e-12)


def test_gegenbauer_at_one():
    # C_k^(alpha)(1) = binom(k + 2 alpha - 1, k); 1 in the Chebyshev normalization
    assert _gegenbauer(3, 1.0, 1.0) == pytest.approx(4.0, rel=1e-14)  # U_3(1)
    assert _gegenbauer(5, 0.5, 1.0) == pytest.approx(1.0, rel=1e-13)
    assert _gegenbauer(2, 1.5, 1.0) == pytest.approx(6.0, rel=1e-13)
    assert _gegenbauer(7, 0.0, 1.0) == 1.0


def test_gegenbauer_rejects_outside_interval():
    with pytest.raises(ValueError):
        gegenbauer_all(3, 0.5, 1.0001)


def test_gegenbauer_rejects_nan_argument():
    with pytest.raises(ValueError):
        gegenbauer_all(2, 0.5, float("nan"))


def test_gegenbauer_rejects_negative_degree():
    with pytest.raises(ValueError):
        gegenbauer_all(-1, 0.5, 0.3)


@given(st.integers(min_value=2, max_value=40),
       st.floats(min_value=0.05, max_value=4.0),
       st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_gegenbauer_recurrence_consistency(k, alpha, z):
    # k C_k = 2 (k + alpha - 1) z C_{k-1} - (k + 2 alpha - 2) C_{k-2}
    rows = gegenbauer_all(k, alpha, z)[:, 0]
    lhs = k * rows[k]
    rhs = 2.0 * (k + alpha - 1.0) * z * rows[k - 1] - (k + 2.0 * alpha - 2.0) * rows[k - 2]
    scale = max(1.0, abs(rows[k - 1]), abs(rows[k - 2]))
    assert lhs == pytest.approx(rhs, abs=1e-12 * scale * k)


def test_gegenbauer_matches_scipy():
    scipy_special = pytest.importorskip("scipy.special")
    z = np.linspace(-0.99, 0.99, 23)
    for k, alpha in [(3, 0.5), (6, 1.0), (9, 2.5), (12, 0.75)]:
        mine = gegenbauer_all(k, alpha, z)[k]
        ref = scipy_special.eval_gegenbauer(k, alpha, z)
        np.testing.assert_allclose(mine, ref, rtol=1e-11, atol=1e-11)


# 64 = specfun.BLOCK: one step or row short of, at and past a block edge
ORACLE_DEGREES = [1, 2, 63, 64, 65, 128, 129, 488]


@pytest.mark.parametrize("k", ORACLE_DEGREES)
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.5])
def test_gegenbauer_rows_match_the_per_row_oracle(k, alpha):
    z = np.cos(np.linspace(0.0, np.pi, 977))
    assert np.array_equal(gegenbauer_all(k, alpha, z), gegenbauer_all_oracle(k, alpha, z))


# ---------------------------------------------------------------------------
# Gauss-Jacobi rules


def test_single_node_legendre():
    rule = gauss_jacobi(1, 0.0, 0.0)
    assert rule.nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert rule.weights[0] == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("m", [2, 5, 17, 64])
def test_legendre_total_mass(m):
    rule = gauss_jacobi(m, 0.0, 0.0)
    assert rule.weights.sum() == pytest.approx(2.0, rel=1e-14)


def test_singular_weight_total_mass():
    # int (1-z)^(-1/4) dz over [-1,1] = (4/3) 2^(3/4)
    rule = gauss_jacobi(16, -0.25, 0.0)
    exact = (4.0 / 3.0) * 2.0 ** 0.75
    assert rule.weights.sum() == pytest.approx(exact, rel=1e-14)
    assert rule.weights.sum() == pytest.approx(2.2423904406765721, rel=1e-14)


@pytest.mark.parametrize("m,a,b", [
    (4, 0.0, 0.0), (16, -0.25, 0.0), (40, 0.5, -0.5),
    (64, 1.5, 2.0), (128, -0.5, -0.5), (128, 0.75, -0.25),
])
def test_rule_shape_invariants(m, a, b):
    rule = gauss_jacobi(m, a, b)
    assert len(rule) == m
    assert np.all(rule.weights > 0.0)
    assert np.all(np.diff(rule.nodes) > 0.0)
    assert rule.nodes[0] > -1.0 and rule.nodes[-1] < 1.0
    assert rule.prob_weights.sum() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("m,a,b", [
    (8, 0.0, 0.0), (12, -0.25, 0.0), (32, 0.5, 1.5), (128, -0.5, -0.5),
    (128, 2.0, 0.0), (256, 0.0, 0.0),
])
def test_orthogonality_exactness(m, a, b):
    """The rule must kill every Jacobi polynomial of degree 1..2m-1.

    This probes exactness at the full polynomial degree without the
    cancellation-prone monomial-moment oracle: the integrand values are
    O(1) in the Chebyshev-like regime and the exact integral is 0.
    """
    scipy_special = pytest.importorskip("scipy.special")
    rule = gauss_jacobi(m, a, b)
    mass = rule.weights.sum()
    for j in (1, 2, m // 2, m, 2 * m - 2, 2 * m - 1):
        if j < 1:
            continue
        vals = scipy_special.eval_jacobi(j, a, b, rule.nodes)
        err = abs((rule.weights * vals).sum())
        scale = mass * max(1.0, np.abs(vals).max())
        assert err <= 1e-12 * scale, (j, err, scale)


# frozen: mpmath.quad of z^j (1-z)^(-1/4) (1+z)^(1/2) over [-1, 1], 30 digits
MOMENTS_M025_P05 = [
    (0, 2.2797390270697546),
    (1, 0.75991300902325153),
    (2, 0.87682270271913638),
    (3, 0.51233954002020126),
    (4, 0.57423290727096382),
    (5, 0.39680525448544446),
    (6, 0.43707151409915896),
    (7, 0.32831941363479224),
    (8, 0.35737731447786021),
]


@pytest.mark.parametrize("m", [16, 128, 256])
def test_low_moments_against_frozen_integrals(m):
    rule = gauss_jacobi(m, -0.25, 0.5)
    for j, exact in MOMENTS_M025_P05:
        got = float((rule.weights * rule.nodes ** j).sum())
        assert got == pytest.approx(exact, rel=1e-13), j


# the public rule at a = b = +-1/2 is the closed form; the general builder
# still runs there, so these tests hold its long-double polish to the same forms
BUILDERS = (gauss_jacobi, specfun._newton_rule)


def test_chebyshev_weights_are_uniform():
    # a = b = -1/2: all weights equal pi/m
    for m in (4, 32, 128):
        for build in BUILDERS:
            rule = build(m, -0.5, -0.5)
            np.testing.assert_allclose(rule.weights, np.pi / m, rtol=2e-15,
                                       err_msg=build.__name__)


@pytest.mark.parametrize("m", [881, 1500, 2000])
def test_chebyshev_weights_stay_uniform_at_the_extreme_roots(m):
    # 1 - x^2 of a rounded node near +-1 (about theta^2) would cost ulp / theta^2
    # of the end weights: 1.7e-14 at m = 881, 4.1e-14 at m = 1500.  The
    # middle roots, swept in z = 2x^2 - 1 rounded near -1, would cost about
    # k^2 ulps of long double: 2.1e-14 at m = 2000
    for build in BUILDERS:
        rule = build(m, -0.5, -0.5)
        np.testing.assert_allclose(rule.weights, np.pi / m, rtol=5e-15, err_msg=build.__name__)


def test_nodes_match_scipy():
    scipy_special = pytest.importorskip("scipy.special")
    for m, a, b in [(5, 0.0, 0.0), (20, -0.25, 0.0), (60, 0.5, 1.5)]:
        x_ref, w_ref = scipy_special.roots_jacobi(m, a, b)
        rule = gauss_jacobi(m, a, b)
        np.testing.assert_allclose(rule.nodes, x_ref, atol=5e-14)
        np.testing.assert_allclose(rule.weights, w_ref, rtol=5e-12)


def test_doubling_convergence_on_smooth_integrand():
    # non-polynomial smooth integrand: quadrature saturates by m = 64
    def eval_at(m):
        rule = gauss_jacobi(m, 0.0, 0.0)
        return float((rule.weights * np.exp(rule.nodes)).sum())

    ref = math.exp(1.0) - math.exp(-1.0)
    assert eval_at(64) == pytest.approx(ref, rel=1e-14)
    assert abs(eval_at(128) - eval_at(64)) < 1e-12
    assert abs(eval_at(256) - eval_at(128)) < 1e-12


def test_rejects_inadmissible_exponents():
    before = rule_cache_info()
    for m, a, b in [(8, -1.0, 0.0), (8, 0.0, -1.5), (0, 0.0, 0.0), (-3, 0.0, 0.0),
                    (2.5, 0.0, 0.0), (float("inf"), 0.0, 0.0), (float("nan"), 0.0, 0.0),
                    (8, float("nan"), 0.0), (8, 0.0, float("inf"))]:
        with pytest.raises(ValueError):
            gauss_jacobi(m, a, b)
    # nothing invalid reaches the rule cache
    after = rule_cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


# ---------------------------------------------------------------------------
# one rule per key and process


def test_rules_are_shared_per_key():
    assert gauss_jacobi(24, 0.25, 1.5) is gauss_jacobi(24, 0.25, 1.5)
    assert gauss_jacobi(np.int64(24), 0.25, 1.5) is gauss_jacobi(24, 0.25, 1.5)
    assert sphere_rule(2, 160) is gauss_jacobi(160, 0, 0)
    assert sphere_rule(3, 64) is gauss_jacobi(64.0, 0.5, 0.5)
    assert gauss_jacobi(24, 0.25, 1.5) is not gauss_jacobi(24, 1.5, 0.25)


def test_sphere_rule_of_a_high_dimension_is_a_value_error():
    # the asymptotic brackets of P_160^(22, 22) miss roots: raw gauss_jacobi
    # keeps its RuntimeError, the sphere rule names n and the node count
    with pytest.raises(RuntimeError):
        gauss_jacobi(160, 22.0, 22.0)
    with pytest.raises(ValueError, match=r"^no 160-node sphere rule for n = 46: "):
        sphere_rule(46, 160)
    with pytest.raises(ValueError, match="n = 46"):
        deficit(ZonalField(n=46, coeffs=[1.0, 0.1]), derive_params(46, 1.0, 2.02),
                "interpolation")
    assert sphere_rule(45, 160).nodes.size == 160


def test_rule_arrays_are_read_only():
    rule = gauss_jacobi(12, 0.5, 0.5)
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0
    with pytest.raises(ValueError):
        rule.weights[:] = 1.0
    with pytest.raises(ValueError):
        rule.nodes *= 2.0
    with pytest.raises(ValueError):
        rule.prob_weights[0] = 0.0
    assert rule.prob_weights is gauss_jacobi(12, 0.5, 0.5).prob_weights    # built once


def test_suites_build_each_distinct_rule_once(monkeypatch):
    keys = []
    cached = specfun._build_rule

    def recording(*key):
        keys.append(key)
        return cached(*key)

    monkeypatch.setattr(specfun, "_build_rule", recording)
    cached.cache_clear()
    equality_suite() + random_suite(0, 30)
    info = cached.cache_info()
    assert len(keys) > len(set(keys)) > 1
    assert info.misses == info.currsize == len(set(keys))
    assert info.hits == len(keys) - len(set(keys))


def _jacobi_deriv(m, a, b, x, pm, pm1):
    # P_m' from P_m and P_{m-1}, valid only at interior points (1 - x^2 != 0)
    return (m * (a - b - (2.0 * m + a + b) * x) * pm
            + 2.0 * (m + a) * (m + b) * pm1) / ((2.0 * m + a + b) * (1.0 - x * x))


def _scan_seeded_rule(m, a, b):
    """Reference builder: roots bracketed by a sign scan on an 8m-point
    Chebyshev-angle grid, then a safeguarded Newton solve and a one-sweep
    extended-precision polish like gauss_jacobi's, but on the full-degree
    recurrence for every (a, b), with the Gamma constant in the weights."""
    theta = (np.arange(8 * m) + 0.3183098861837907) * np.pi / (8 * m)
    grid = np.concatenate([[-1.0], np.cos(theta)[::-1], [1.0]])
    vals, _ = specfun._jacobi_eval(m, a, b, grid)
    vals = np.where(vals == 0.0, 1e-300, vals)
    sgn = np.sign(vals)
    idx = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
    assert idx.size == m
    lo, hi, flo = grid[idx], grid[idx + 1], vals[idx]
    x = 0.5 * (lo + hi)
    for _ in range(60):
        pm, pm1 = specfun._jacobi_eval(m, a, b, x)
        dp = _jacobi_deriv(m, a, b, x, pm, pm1)
        exact = pm == 0.0
        shrink_hi = pm * flo < 0
        hi = np.where(exact, x, np.where(shrink_hi, x, hi))
        lo = np.where(exact, x, np.where(shrink_hi, lo, x))
        flo = np.where(exact | shrink_hi, flo, pm)
        xn = np.where(exact, x, x - pm / dp)
        done = np.abs(xn - x) <= 1e-14 * (1.0 + np.abs(x))
        bad = ~done & ((xn <= lo) | (xn >= hi) | ~np.isfinite(xn))
        x = np.where(bad, 0.5 * (lo + hi), xn)
        if done.all():
            break
    xe = x.astype(np.longdouble)
    pm, pm1 = specfun._jacobi_eval(m, a, b, xe)
    dp = _jacobi_deriv(m, a, b, xe, pm, pm1)
    d = -pm / dp
    dp += d * ((a - b + (a + b + 2.0) * xe) * dp - m * (m + a + b + 1.0) * pm) / (1.0 - xe * xe)
    xe += d
    logc = (log_gamma(m + a + 1.0) + log_gamma(m + b + 1.0)
            - log_gamma(m + a + b + 1.0) - log_gamma(m + 1.0)
            + (a + b + 1.0) * np.log(2.0))
    w = np.exp(np.longdouble(logc)) / ((1.0 - xe * xe) * dp * dp)
    mu0 = np.exp((a + b + 1.0) * np.log(2.0) + log_gamma(a + 1.0)
                 + log_gamma(b + 1.0) - log_gamma(a + b + 2.0))
    w *= np.longdouble(mu0) / w.sum()
    return xe.astype(float), w.astype(float)


# sphere rules (a = b = (n-2)/2) at the sizes of field, deficit and
# square, and at 977 for the odd half-degree branch at scale; the k + 12
# nodes at ((n-2-lam)/2, (n-2)/2) of the Funk-Hecke oracle
# reference.funk_hecke_mu; and exponents near both ends of the
# admissible range
REFERENCE_GRID = (
    [(m, e, e) for m in (1, 2, 5, 33, 128, 160, 256, 272)
     for e in (-0.5, 0.0, 0.5, 1.0)]
    + [(976, 0.0, 0.0), (976, 0.5, 0.5), (977, 0.0, 0.0), (977, 0.5, 0.5)]
    + [(m, 0.5 * (n - 2.0 - lam), 0.5 * (n - 2.0)) for m in (12, 16, 20)
       for n in (2, 3) for lam in (0.5, 1.0, 1.5, n - 0.25, n - 0.1)]
    + [(7, -0.99, 10.0), (40, 10.0, -0.99), (64, 1.5, 2.0), (16, -0.25, 0.0)]
)


def test_asymptotic_seed_matches_scan_reference():
    for m, a, b in REFERENCE_GRID:
        rule = gauss_jacobi(m, a, b)
        nodes, weights = _scan_seeded_rule(m, a, b)
        np.testing.assert_allclose(rule.nodes, nodes, rtol=0, atol=4e-16,
                                   err_msg=str((m, a, b)))
        np.testing.assert_allclose(rule.weights, weights, rtol=1e-14, atol=0,
                                   err_msg=str((m, a, b)))


def _mp_jacobi(m, a, b, x):
    """P_m^(a,b)(x) by the Jacobi recurrence in mpmath (a, b, x mpf), with P_{m-1}."""
    pm1, pm = 1, (a - b) / 2 + (a + b + 2) / 2 * x
    for j in range(2, m + 1):
        s = 2 * j + a + b
        pm, pm1 = ((s - 1) * ((a * a - b * b) + s * (s - 2) * x) * pm
                   - 2 * (j + a - 1) * (j + b - 1) * s * pm1) \
            / (2 * j * (j + a + b) * (s - 2)), pm
    return pm, pm1


def _mp_jacobi_weight(m, a, b, x0, mp):
    """Independent reference for one Gauss-Jacobi weight: the Jacobi
    recurrence in mpmath, four Newton steps from the double node x0,
    then the closed-form weight at the polished root."""
    a, b = mp.mpf(a), mp.mpf(b)

    def p_and_deriv(x):
        pm, pm1 = _mp_jacobi(m, a, b, x)
        dp = (m * (a - b - (2 * m + a + b) * x) * pm
              + 2 * (m + a) * (m + b) * pm1) / ((2 * m + a + b) * (1 - x * x))
        return pm, dp

    x = mp.mpf(float(x0))
    for _ in range(4):
        pm, dp = p_and_deriv(x)
        x -= pm / dp
    _, dp = p_and_deriv(x)
    c = (2 ** (a + b + 1) * mp.gamma(m + a + 1) * mp.gamma(m + b + 1)
         / (mp.gamma(m + a + b + 1) * mp.factorial(m)))
    return c / ((1 - x * x) * dp * dp)


def test_weights_match_30_digit_reference():
    """Weights against an mpmath evaluation that shares no code with the
    builder.  A polish in double only misses by 1e-12 or more at m = 976,
    so this guards the extended-precision step.  The two asymmetric rules
    of 200 and 300 nodes guard the a - b term of the Jacobi ODE that
    carries P' to the polished root: with b - a there they miss by 7e-12
    and 1e-12, where the 20-node rule still reads 1e-14."""
    mp = pytest.importorskip("mpmath").mp
    cases = [(sphere_rule(n, 976), (0, 1, 487, 488, 974, 975)) for n in (2, 3, 4)]
    cases += [(sphere_rule(3, 977), (0, 1, 487, 488, 489, 975, 976))]    # x P_k^(a,1/2), middle root 0
    # n = 1 and 3 are Chebyshev's closed forms; the n = 3 rows above check the
    # second kind's sin^2 weights, whose extreme ones a cos^2 would miss
    cases += [(sphere_rule(1, m), (0, 1, m // 2 - 1, m // 2, m - 2, m - 1)) for m in (976, 977)]
    cases += [(gauss_jacobi(20, -0.25, 0.5), range(20)),   # the Funk-Hecke oracle at (3, 1.5, 8)
              (gauss_jacobi(200, 2.5, -0.5), (0, 1, 100, 198, 199)),
              (gauss_jacobi(300, 0.0, 1.0), (0, 1, 150, 298, 299))]
    with mp.workdps(30):
        for rule, idx in cases:
            m = len(rule)
            for i in idx:
                ref = float(_mp_jacobi_weight(m, rule.a, rule.b, rule.nodes[i], mp))
                assert rule.weights[i] == pytest.approx(ref, rel=5e-14, abs=0), \
                    (m, rule.a, rule.b, i)


@pytest.mark.parametrize("e", [-0.5, 0.0, 0.5, 1.0, 2.5])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 33, 160, 161, 976])
def test_symmetric_rules_are_exact_mirrors(m, e):
    rule = gauss_jacobi(m, e, e)
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.array_equal(rule.weights, rule.weights[::-1])
    if m % 2:
        assert rule.nodes[m // 2] == 0.0


def test_symmetric_builds_sweep_half_the_points(monkeypatch):
    # a = b and m >= 2: every sweep is the degree-m // 2 recurrence of
    # Szego's quadratic transformation, on the upper-half roots only; at
    # a = b = 1/2 the public rule is closed-form, so the general builder runs
    sizes, degrees = [], []
    original = specfun._jacobi_eval

    def recording(m, a, b, x):
        sizes.append(np.size(x))
        degrees.append(m)
        return original(m, a, b, x)

    monkeypatch.setattr(specfun, "_jacobi_eval", recording)
    for m, a, b, most, degree in ([(m, e, e, m // 2 + 2, max(m // 2, 1))
                                   for m in (1, 2, 3, 160, 161, 976) for e in (0.0, 0.5)]
                                  + [(m, 0.25, 1.5, m + 1, m) for m in (2, 33, 160)]):
        specfun._build_rule.cache_clear()
        sizes.clear()
        degrees.clear()
        (specfun._newton_rule if a == b == 0.5 else gauss_jacobi)(m, a, b)
        assert sizes and max(sizes) <= most, (m, a, b, sizes)
        assert set(degrees) == {degree}, (m, a, b, degrees)


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="long double is double on this platform")
@pytest.mark.parametrize("m,a,b", [(1, 0.0, 0.0), (2, 0.5, 0.5), (161, 1.0, 1.0),
                                   (976, 0.5, 0.5), (2, 0.25, 1.5), (40, 10.0, -0.99),
                                   (200, 2.5, -0.5)])
def test_cold_build_sweeps_once_in_extended_precision(monkeypatch, m, a, b):
    # the polish is one long-double sweep; the bracket check and the
    # Newton solve run in double (at a = b = 1/2 in the general builder,
    # since the public rule is closed-form there)
    dtypes = []
    original = specfun._jacobi_eval

    def recording(m, a, b, x):
        dtypes.append(np.asarray(x).dtype)
        return original(m, a, b, x)

    monkeypatch.setattr(specfun, "_jacobi_eval", recording)
    specfun._build_rule.cache_clear()
    (specfun._newton_rule if a == b == 0.5 else gauss_jacobi)(m, a, b)
    assert dtypes.count(np.longdouble) == 1, dtypes
    assert dtypes.count(np.float64) == len(dtypes) - 1 >= 2, dtypes


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="long double is double on this platform")
@pytest.mark.parametrize("k", [244, 488])
@pytest.mark.parametrize("a,c", [(0.0, -0.5), (0.5, 0.5), (1.0, -0.5)])
def test_extended_sweep_matches_40_digit_recurrence(k, a, c):
    # the polish sweep as a symmetric build makes it, in w = 1 + z = 2x^2
    # and long double, against the recurrence in mpmath at the same points:
    # within 1e-15 of max |P|, where a sweep on double quotients misses by
    # 5e-14 or more
    mp = mpmath.mp
    w = 2.0 * np.sin(np.linspace(0.0, 0.5 * np.pi, 62)[1:-1]) ** 2
    got, _ = specfun._jacobi_eval(k, a, c, (w.astype(np.longdouble),))
    with mp.workdps(40):
        ref = [_mp_jacobi(k, mp.mpf(a), mp.mpf(c), mp.mpf(float(v)) - 1)[0] for v in w]
        # the long double as a sum of two doubles, both exact in mpmath
        err = max(abs(mp.mpf(float(g)) + mp.mpf(float(g - np.longdouble(float(g)))) - r)
                  for g, r in zip(got, ref))
        assert err <= 1e-15 * max(abs(r) for r in ref)


@pytest.mark.parametrize("k", ORACLE_DEGREES)
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.0, -0.5), (1.0, 0.5), (0.25, 1.5)])
def test_jacobi_eval_matches_the_per_step_oracle(k, dtype, a, b):
    # blocked step factors change no float, in either dtype, in x or in w
    x = np.cos(np.linspace(0.0, np.pi, 245)).astype(dtype)
    for arg in (x, (1.0 + x,)):
        got, want = specfun._jacobi_eval(k, a, b, arg), jacobi_eval_oracle(k, a, b, arg)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == dtype
            assert np.array_equal(g, w), (k, a, b, dtype, type(arg))


@pytest.mark.parametrize("m", [1, 2, 3, 9, 64])
def test_chebyshev_seeds_are_the_exact_nodes(m):
    # a = b = -1/2 and +1/2: the asymptotic angles are (k - 1/2) pi / m
    # and k pi / (m + 1), the Chebyshev nodes of the first and second kind
    k = np.arange(1, m + 1)
    first = np.cos((k - 0.5) * np.pi / m)[::-1]
    second = np.cos(k * np.pi / (m + 1))[::-1]
    for build in BUILDERS:
        np.testing.assert_allclose(build(m, -0.5, -0.5).nodes, first, atol=2e-16)
        np.testing.assert_allclose(build(m, 0.5, 0.5).nodes, second, atol=2e-16)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 9, 64, 160, 161, 976, 977, 2000])
def test_chebyshev_rules_are_closed_forms_without_a_sweep(monkeypatch, m):
    # a = b = -1/2: nodes cos((2i - 1) pi / 2m), weights pi / m; a = b = +1/2:
    # nodes cos(i pi / (m + 1)), weights (pi / (m + 1)) sin^2(i pi / (m + 1))
    # (Abramowitz & Stegun 25.4), built without one Jacobi recurrence sweep:
    # nodes within 1e-16 and weights within 2.5e-16 of 30 digits (read 5.6e-17
    # and 1.1e-16; the sines in double would cost the nodes 1.5e-16), and
    # within a few ulps of the general builder
    calls = []
    monkeypatch.setattr(specfun, "_jacobi_eval", lambda *args: calls.append(args))
    specfun._build_rule.cache_clear()
    rules = gauss_jacobi(m, -0.5, -0.5), gauss_jacobi(m, 0.5, 0.5)
    assert calls == []
    monkeypatch.undo()
    mp = mpmath.mp
    with mp.workdps(30):
        first = [(mp.cos((2 * i - 1) * mp.pi / (2 * m)), mp.pi / m) for i in range(m, 0, -1)]
        second = [(mp.cos(i * mp.pi / (m + 1)), mp.pi / (m + 1) * mp.sin(i * mp.pi / (m + 1)) ** 2)
                  for i in range(m, 0, -1)]
        for rule, ref, mass in zip(rules, (first, second), (np.pi, 0.5 * np.pi)):
            assert max(abs(x - r) for x, (r, _) in zip(rule.nodes.tolist(), ref)) <= 1e-16
            assert max(abs(w / r - 1) for w, (_, r) in zip(rule.weights.tolist(), ref)) <= 2.5e-16
            np.testing.assert_allclose(rule.prob_weights, rule.weights / mass, rtol=3e-16, atol=0)
            assert rule.prob_weights.sum() == pytest.approx(1.0, abs=1e-15)
            general = specfun._newton_rule(m, rule.a, rule.b)
            np.testing.assert_allclose(rule.nodes, general.nodes, rtol=0, atol=2e-16)
            np.testing.assert_allclose(rule.weights, general.weights, rtol=2e-15, atol=0)
            assert not (rule.nodes.flags.writeable or rule.weights.flags.writeable
                        or rule.prob_weights.flags.writeable)


# ---------------------------------------------------------------------------
# sphere rule


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sphere_rule_probability_mass(n):
    rule = sphere_rule(n, 64)
    assert rule.prob_weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert rule.a == rule.b == pytest.approx(0.5 * (n - 2.0))


def test_sphere_rule_mean_of_coordinate_vanishes():
    # the zonal coordinate has zero mean against the uniform measure
    for n in (1, 2, 3):
        rule = sphere_rule(n, 48)
        assert abs((rule.prob_weights * rule.nodes).sum()) < 1e-15


def test_quadrature_rule_is_frozen():
    rule = gauss_jacobi(4, 0.0, 0.0)
    assert isinstance(rule, QuadratureRule)
    with pytest.raises((AttributeError, TypeError)):
        rule.a = 1.0
