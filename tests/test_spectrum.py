"""Parameter bookkeeping and the closed-form eigenvalue sequences."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracsphere.spectrum import (CONSTANTS_HEADER, ParameterSet, ScanReport,
                                 constants_row, derive_params, gamma_sequence,
                                 monotonicity_scan, operator_eigenvalue, slope_sequence)
from fracsphere import specfun
from fracsphere.field import ZonalField
from fracsphere.inequality import deficit
from fracsphere.specfun import log_gamma
from reference import alpha_sequence, gamma_ratio

# ---------------------------------------------------------------------------
# derive_params


def test_derived_quantities_integer_order():
    ps = derive_params(3, 2.0, 4.0)
    assert ps.q_star == pytest.approx(6.0)
    assert ps.p == pytest.approx(6.0 / 5.0)
    assert ps.lam == pytest.approx(1.0)
    assert ps.kappa == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_derived_quantities_zero_order():
    for n in (1, 2, 5):
        ps = derive_params(n, 0.0, 1.5)
        assert ps.q_star == 2.0
        assert ps.p == 2.0
        assert ps.lam == float(n)
        assert math.isnan(ps.constant)


def test_default_exponent_is_critical():
    ps = derive_params(2, 1.0)
    assert ps.q == pytest.approx(ps.q_star) == pytest.approx(4.0)
    assert derive_params(3, 0.0).q == 2.0


@pytest.mark.parametrize("n,s,q", [
    (1, -0.5, 1.2),            # below the dual critical exponent 4/3
    (1, 1.0, 17.0),            # s = n: any finite q >= 1
    (3, 2.0, 6.0),             # q = q_star inclusive
    (2, 1.0, 1.0),             # q = 1 inclusive
    (4, 0.0, 2.0),             # entropy endpoint
])
def test_admissible_combinations(n, s, q):
    ps = derive_params(n, s, q)
    assert ps.q == q


@pytest.mark.parametrize("n,s,q", [
    (1, -0.5, 2.2),            # q beyond 2n/(n-s) = 4/3
    (1, -0.5, 4.0 / 3.0),      # the dual critical exponent itself
    (3, 2.0, 6.5),             # above q_star
    (2, 1.0, 0.5),             # q < 1
    (2, 1.0, float("nan")),    # NaN is not an exponent
    (2, 0.0, 2.5),             # s = 0 needs q <= 2
    (2, 2.5, 3.0),             # s > n
    (2, -2.0, 1.1),            # s <= -n
    (0, 0.5, 2.5),             # dimension must be >= 1
])
def test_rejected_combinations(n, s, q):
    with pytest.raises(ValueError):
        derive_params(n, s, q)


def _case_rule(n, s, q):
    """The exponents of the family case by case: (admitted, default q).
    s < 0: 1 <= q < q*; s = 0: 1 <= q <= 2; 0 < s < n: 1 <= q <= q*;
    s = n: every q >= 1.  The default is q* on (0, n) and 2 at s = 0."""
    q_star = 2.0 * n / (n - s) if s < n else math.inf
    default = q_star if 0.0 < s < n else 2.0 if s == 0.0 else None
    if q is None:
        return default is not None, default
    if s < 0.0:
        return 1.0 <= q < q_star, q
    if s == 0.0:
        return 1.0 <= q <= 2.0, q
    return 1.0 <= q and (s == n or q <= q_star), q


def test_one_rule_admits_the_exponent_of_every_case():
    # 4 dimensions x 10 orders from just above -n through 0 to n x 13 exponents
    # around 1, 2 and q* (one ulp either side), inf and NaN: 520 cases
    cases = 0
    for n in (1, 2, 3, 5):
        for s in (math.nextafter(-n, 0.0), -0.5 * n, -0.1, -1e-300, 0.0, 1e-300, n / 3, 0.5 * n,
                  math.nextafter(n, 0.0), n):
            q_star = 2.0 * n / (n - s) if s < n else math.inf
            for q in (None, 0.5, math.nextafter(1.0, 0.0), 1.0, 2.0 - 1e-12, 2.0,
                      2.0 + 1e-12, math.nextafter(q_star, 0.0), q_star,
                      math.nextafter(q_star, math.inf), math.inf, -math.inf, math.nan):
                cases += 1
                admitted, want = _case_rule(n, s, q)
                if not admitted:
                    with pytest.raises(ValueError):
                        derive_params(n, s, q)
                    continue
                ps = derive_params(n, s, q)
                assert ps.q_star == q_star, (n, s)
                if q is None:       # the default is q*, bit for bit
                    assert ps.q == q_star == want, (n, s)
                else:
                    assert ps.q == q, (n, s, q)
    assert cases == 520
    assert derive_params(3, 0.0).q == 2.0
    assert derive_params(2, 2.0, math.inf).q == math.inf
    for s, bound in ((-1.0, "q < q_star = 1.3333333333333333"), (1.0, "q <= q_star = 4.0")):
        with pytest.raises(ValueError, match=f"^exponent q must satisfy 1 <= {bound}, got "):
            derive_params(2, s, 5.0)
    with pytest.raises(ValueError, match="got nan"):
        derive_params(2, 1.0, math.nan)
    with pytest.raises(ValueError):     # the dual critical exponent itself
        derive_params(2, -1.0, 4.0 / 3.0)


def test_kappa_and_constant_match_mpmath():
    # every half-integer order s != 0 of n = 1..6
    worst = 0.0
    with mpmath.workdps(40):
        for n in range(1, 7):
            for s in (0.5 * j for j in range(1 - 2 * n, 2 * n + 1) if j):
                ps = derive_params(n, s, 1.0)
                a, b = mpmath.mpf(n - s) / 2, mpmath.mpf(n + s) / 2
                constant = mpmath.gamma(a + 1) / (abs(s) * mpmath.gamma(b))
                worst = max(worst, abs(ps.constant - constant) / constant)
                if s != n:
                    kappa = mpmath.gamma(a) / mpmath.gamma(b)
                    worst = max(worst, abs(ps.kappa - kappa) / kappa)
    assert worst <= 3.5e-15


def test_kappa_and_constant_keep_their_bytes_up_to_n_18():
    # below argument 10 the gamma ratio is the log_gamma difference
    for n in range(1, 19):
        for s in (0.25 * j for j in range(1 - 4 * n, 4 * n) if j):
            ps = derive_params(n, s, 1.0)
            a, b = 0.5 * (n - s), 0.5 * (n + s)
            assert ps.kappa == float(np.exp(log_gamma(a) - log_gamma(b)))
            assert ps.constant == float(np.exp(log_gamma(a + 1.0) - log_gamma(b))) / abs(s)


def test_kappa_and_constant_keep_their_digits_for_large_n():
    # kappa, C and 1/kappa (the factor of the delta row) come from one gamma
    # ratio that does not cancel as n grows, wherever the value is a double
    # (C overflows at s < 0 for the largest n); exp of its log still leaves
    # |log| ulps, up to ~470 here
    ns = [17, 18, 19, 25, 100, 10 ** 4, 10 ** 6] + [10 ** e for e in range(9, 307, 9)]
    worst = 0.0
    with mpmath.workdps(400):
        for n in ns + [10 ** 306]:
            for s in (-0.5, 0.1, 0.5):
                ps = derive_params(n, s, 1.0)
                a, b = (mpmath.mpf(n) - s) / 2, (mpmath.mpf(n) + s) / 2
                kappa = mpmath.exp(mpmath.loggamma(a) - mpmath.loggamma(b))
                inv_kappa = specfun.gamma_ratio(0.5 * (n + s), 0.5 * (n - s), s)
                for got, want in ((ps.kappa, kappa), (ps.constant, a * kappa / abs(s)),
                                  (inv_kappa, 1 / kappa)):
                    if want < 1e300:
                        worst = max(worst, float(abs(got / want - 1)))
    assert worst <= 1e-13


def test_no_default_exponent_for_negative_order():
    with pytest.raises(ValueError):
        derive_params(2, -1.0)


@given(st.integers(min_value=1, max_value=5),
       st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=100, deadline=None)
def test_holder_conjugacy(n, frac):
    s = frac * n
    ps = derive_params(n, s)
    assert 1.0 / ps.p + 1.0 / ps.q_star == pytest.approx(1.0, abs=1e-14)


@given(st.integers(min_value=1, max_value=5),
       st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=100, deadline=None)
def test_kappa_reflection(n, frac):
    s = frac * n
    plus = derive_params(n, s)
    minus = derive_params(n, -s, 1.0)
    assert plus.kappa * minus.kappa == pytest.approx(1.0, rel=1e-13)


# ---------------------------------------------------------------------------
# gamma_k


def test_gamma_identities():
    for n in (1, 2, 3, 5):
        assert gamma_sequence(n, 0.3 * n, 0)[0] == 1.0
        for q in (1.5, 3.0, 7.0):
            assert gamma_sequence(n, n / q, 1)[1] == pytest.approx(q - 1.0, rel=1e-14)
        for k in (1, 2, 10, 40):
            assert gamma_sequence(n, 0.5 * n, k)[k] == pytest.approx(1.0, rel=1e-14)


def test_gamma_at_endpoint_x_equals_n():
    seq = gamma_sequence(3, 3.0, 6)
    assert seq[0] == 1.0
    assert np.all(seq[1:] == 0.0)


def test_gamma_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        gamma_sequence(2, 0.0, 4)


@given(st.integers(min_value=1, max_value=5),
       st.floats(min_value=0.05, max_value=0.95),
       st.integers(min_value=1, max_value=30))
@settings(max_examples=200, deadline=None)
def test_gamma_recurrence_matches_gamma_quotient(n, frac, k):
    # product recurrence vs the literal Gamma(x)Gamma(n-x+k)/(Gamma(n-x)Gamma(x+k))
    x = frac * n
    direct = gamma_ratio(x, x + k) * gamma_ratio(n - x + k, n - x)
    assert gamma_sequence(n, x, k)[k] == pytest.approx(direct, rel=1e-12)


@given(st.integers(min_value=1, max_value=5),
       st.floats(min_value=0.05, max_value=0.95),
       st.integers(min_value=1, max_value=25))
@settings(max_examples=100, deadline=None)
def test_gamma_reflection_product(n, frac, k):
    # gamma_k(x) * gamma_k(n - x) = 1
    x = frac * n
    product = gamma_sequence(n, x, k)[k] * gamma_sequence(n, n - x, k)[k]
    assert product == pytest.approx(1.0, rel=1e-12)


def test_gamma_strict_convexity_on_grid():
    # positive second divided differences across (0, n)
    for n, k in [(1, 2), (3, 1), (3, 5), (4, 12)]:
        xs = np.linspace(0.05 * n, 0.95 * n, 41)
        vals = np.array([gamma_sequence(n, float(x), k)[k] for x in xs])
        second = np.diff(vals, 2)
        assert np.all(second > 0.0), (n, k)


# ---------------------------------------------------------------------------
# delta_k / alpha_k


def _delta(n, s, kmax):
    """The "delta" row of the operator table; q = 1 is admissible for every s."""
    return operator_eigenvalue(derive_params(n, s, 1.0), "delta", kmax)


def test_delta_is_polynomial_for_s_two():
    for n in (3, 4, 5):
        for k in range(21):
            assert _delta(n, 2.0, k)[k] == pytest.approx(k * (k + n - 1.0),
                                                         rel=1e-12, abs=1e-12)


def test_delta_frozen_fractional():
    # Gamma(1.75)/Gamma(1.25) - Gamma(0.75)/Gamma(0.25), frozen from mpmath
    assert _delta(1, 0.5, 1)[1] == pytest.approx(0.67597824006728473, rel=1e-13)
    assert _delta(1, 0.5, 2)[2] == pytest.approx(1.0815651841076556, rel=1e-13)


def test_delta_endpoint_s_equals_n():
    # limit delta_k = Gamma(n+k)/Gamma(k)
    assert _delta(1, 1.0, 3)[3] == pytest.approx(3.0, rel=1e-14)
    assert _delta(2, 2.0, 4)[4] == pytest.approx(20.0, rel=1e-13)
    assert _delta(3, 3.0, 2)[0] == 0.0


def test_delta_zero_at_degree_zero():
    for n, s in [(1, 0.5), (2, 1.0), (3, 2.0), (3, 3.0)]:
        assert _delta(n, s, 0)[0] == 0.0


def test_alpha_single_term():
    for n in (1, 2, 4):
        for x in (0.3 * n, 0.5 * n, 0.8 * n):
            assert alpha_sequence(n, x, 1)[1] == pytest.approx(1.0 / (n - x) + 1.0 / x,
                                                               rel=1e-14)


def test_alpha_at_half_n():
    # alpha_k(n/2) = sum_{j<k} 4/(n+2j)
    assert alpha_sequence(2, 1.0, 1)[1] == pytest.approx(2.0, rel=1e-14)
    assert alpha_sequence(2, 1.0, 2)[2] == pytest.approx(3.0, rel=1e-14)
    n = 3
    assert alpha_sequence(n, 1.5, 4)[4] == pytest.approx(
        sum(4.0 / (n + 2 * j) for j in range(4)), rel=1e-14)


def test_alpha_positive_and_increasing():
    seq = alpha_sequence(3, 1.1, 12)
    assert seq[0] == 0.0
    assert np.all(np.diff(seq) > 0.0)


# ---------------------------------------------------------------------------
# operator eigenvalue sequences


def test_operator_values_at_degree_zero():
    ps = derive_params(3, 1.5, 3.0)
    assert operator_eigenvalue(ps, "L", 4)[0] == 0.0
    assert operator_eigenvalue(ps, "K", 4)[0] == 1.0
    assert operator_eigenvalue(ps, "K_inv", 4)[0] == 1.0
    assert operator_eigenvalue(ps, "R", 4)[0] == 0.0
    ps0 = derive_params(2, 0.0, 2.0)
    assert operator_eigenvalue(ps0, "K0prime", 4)[0] == 0.0


def test_operator_inverse_pairing():
    for n, s in [(1, 0.5), (2, 1.0), (3, 2.0), (4, 1.7)]:
        ps = derive_params(n, s)
        prod = (operator_eigenvalue(ps, "K", 32)
                * operator_eigenvalue(ps, "K_inv", 32))
        np.testing.assert_allclose(prod, 1.0, rtol=1e-12)


def test_operator_l_matches_delta_table():
    ps = derive_params(3, 2.0, 4.0)
    eigs = operator_eigenvalue(ps, "L", 8)
    k = np.arange(9, dtype=float)
    np.testing.assert_allclose(eigs, k * (k + 2.0), rtol=1e-12, atol=1e-12)


def test_operator_l_increasing_in_degree():
    for n, s in [(1, 0.5), (2, 1.0), (1, -0.5)]:
        q = 1.2 if s < 0 else None
        eigs = operator_eigenvalue(derive_params(n, s, q), "L", 40)
        assert np.all(np.diff(eigs) > 0.0)


def test_operator_l_negative_order_is_positive():
    # L = kappa_{n,-s} (Id - K) stays a positive operator for s < 0
    ps = derive_params(2, -1.0, 1.1)
    eigs = operator_eigenvalue(ps, "L", 16)
    assert eigs[0] == 0.0
    assert np.all(eigs[1:] > 0.0)


def test_k0prime_n2_degree1():
    ps = derive_params(2, 0.0, 2.0)
    assert operator_eigenvalue(ps, "K0prime", 3)[1] == pytest.approx(1.0, rel=1e-14)


def test_operator_k_rejected_at_endpoint():
    ps = derive_params(2, 2.0, 3.0)
    with pytest.raises(ValueError):
        operator_eigenvalue(ps, "K", 4)
    for kind in ("bogus", "A"):
        with pytest.raises(ValueError, match="unknown operator kind"):
            operator_eigenvalue(ps, kind, 4)


# ---------------------------------------------------------------------------
# sharp constant: ParameterSet.constant, read at q = 1 (C does not
# depend on q, and q = 1 is admissible for every order)


def test_sharp_constant_examples():
    assert derive_params(3, 2.0, 1.0).constant == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert derive_params(1, 1.0, 1.0).constant == pytest.approx(1.0, rel=1e-14)
    assert derive_params(2, 1.0, 1.0).constant == pytest.approx(1.0, rel=1e-14)
    # frozen: Gamma(1.25)/(0.5 Gamma(0.75))
    c = derive_params(1, 0.5, 1.0).constant
    assert c == pytest.approx(1.4793375595943194, rel=1e-13)


def test_sharp_constant_endpoint_factorial():
    assert derive_params(2, 2.0, 1.0).constant == pytest.approx(0.5, rel=1e-13)
    assert derive_params(3, 3.0, 1.0).constant == pytest.approx(1.0 / 6.0, rel=1e-13)


def test_sharp_constant_rejects_zero_order():
    # s = 0 has no constant of this form (the entropy form there carries
    # n/2): C is NaN, which every gate fails, and each kind scaled by C
    # refuses the order
    ps = derive_params(2, 0.0, 1.0)
    assert math.isnan(ps.constant)
    for kind in ("interpolation", "hls", "poincare", "logsob", "improved"):
        with pytest.raises(ValueError):
            deficit(ZonalField(2, [1.0, 0.1]), ps, kind)


@given(st.integers(min_value=1, max_value=5),
       st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=100, deadline=None)
def test_spectral_gap_identity(n, frac):
    # delta_1(x_crit) * C = 1 for every admissible order
    s = frac * n
    c = derive_params(n, s, 1.0).constant
    assert _delta(n, s, 1)[1] * c == pytest.approx(1.0, rel=1e-12)


@given(st.integers(min_value=1, max_value=5),
       st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=60, deadline=None)
def test_sharp_constant_critical_form(n, frac):
    # C = kappa / (q_star - 2) when s is strictly interior
    s = frac * n
    ps = derive_params(n, s)
    assert ps.constant == pytest.approx(ps.kappa / (ps.q_star - 2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# slopes, remainders, scan


def test_slope_degree_one_is_unity():
    for n in (1, 3, 5):
        for q in (1.2, 3.0, 4.0, 11.0):
            assert slope_sequence(n, q, 1)[1] == pytest.approx(1.0, rel=1e-12)


def test_slope_limit_at_two():
    assert slope_sequence(2, 2.0, 1)[1] == pytest.approx(1.0, rel=1e-14)
    # no window: the slope runs continuously through its limit at q = 2
    limit = slope_sequence(2, 2.0, 5)[5]
    for q in (2.0 - 1e-13, 2.0 + 1e-13):
        assert slope_sequence(2, q, 5)[5] == pytest.approx(limit, rel=1e-13)


def _slope_mpmath(n, q, kmax):
    """(gamma_k(n/q) - 1)/(q - 2) at 50 digits for the double q, with
    gamma_k(x) the rising-factorial ratio (n - x)_k / (x)_k and, at q = 2
    exactly, the limit sum_{j<k} n/(n + 2j)."""
    out = [0.0]
    with mpmath.workdps(50):
        q = mpmath.mpf(q)
        x = n / q
        num = den = mpmath.mpf(1)
        limit = mpmath.mpf(0)
        for j in range(kmax):
            num, den = num * (n - x + j), den * (x + j)
            limit += mpmath.mpf(n) / (n + 2 * j)
            out.append(float(limit if q == 2 else (num / den - 1) / (q - 2)))
    return np.array(out)


def test_slope_matches_mpmath():
    # across the family and through q = 2, where (gamma_k - 1)/(q - 2)
    # taken literally cancels: 2 +- 10^-e rounds to 2 itself for e >= 16;
    # up to q = 1000 and at the critical exponent of s = 0.5, k <= 200, to
    # 1e-14 (2e-14 at the random exponents: 1.1e-14 at n = 3, q = 12.6)
    drawn = np.random.default_rng(7).uniform(1.0, 20.0, 30)
    qs = ([1.0, 1.01, 1.5, 2.0, 2.5, 3.0, 6.0, 11.0, 19.9, 100.0, 1000.0]
          + [2.0 + sign * 10.0 ** -e for e in range(1, 17) for sign in (1, -1)])
    for n in (1, 2, 3, 5, 8):
        for q, rtol in ([(q, 1e-14) for q in qs + [derive_params(n, 0.5).q_star]]
                        + [(q, 2e-14) for q in drawn]):
            np.testing.assert_allclose(slope_sequence(n, q, 200), _slope_mpmath(n, q, 200),
                                       rtol=rtol, atol=0.0, err_msg=f"n={n} q={q}")


def _kernel_mpmath(n, x, kmax):
    """gamma_k(x) and e_k(x) = sum_{j<k} gamma_j / (x + j), k = 0..kmax, at
    50 digits for the mpf x."""
    gamma, e = [mpmath.mpf(1)], [mpmath.mpf(0)]
    for j in range(kmax):
        e.append(e[-1] + gamma[-1] / (x + j))
        gamma.append(gamma[-1] * (n - x + j) / (x + j))
    return gamma, e


def _assert_close(got, want, rtol, label):
    want = np.array([float(w) for w in want])
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0, err_msg=label)


SMALL_TO_LARGE_ORDERS = (1e-12, 1e-9, 1e-6, 1e-3, 0.5)


def test_spectral_sequences_match_mpmath_down_to_s_zero():
    # gamma, delta, K0prime and the remainder at n <= 5, s from 1e-12 to
    # n - 0.1 with their negatives, k <= 200: delta = s e_k / kappa has no
    # cancellation as s -> 0 (as (gamma_k - 1)/kappa it read 1.5e-3 at s = -1e-12)
    kmax = 200
    with mpmath.workdps(50):
        for n in range(1, 6):
            for s in [v * sign for v in SMALL_TO_LARGE_ORDERS + (n - 0.1,) for sign in (1, -1)]:
                x = (mpmath.mpf(n) - mpmath.mpf(s)) / 2
                gamma, e = _kernel_mpmath(n, x, kmax)
                kappa = mpmath.gamma(x) / mpmath.gamma((mpmath.mpf(n) + mpmath.mpf(s)) / 2)
                _assert_close(gamma_sequence(n, 0.5 * (n - s), kmax), gamma, 2e-14, f"gamma {n} {s}")
                _assert_close(_delta(n, s, kmax), [s * v / kappa for v in e], 1e-14,
                              f"delta n={n} s={s}")
            _, e = _kernel_mpmath(n, mpmath.mpf(n) / 2, kmax)
            _assert_close(operator_eigenvalue(derive_params(n, 0.0, 2.0), "K0prime", kmax), e,
                          1e-14, f"K0prime n={n}")
            for s in (1e-6, 0.5, n - 0.1):      # R = slope(q*) - slope(q), to 2e-14 of slope(q*)
                ps = derive_params(n, s, 0.5 * (2.0 + 2.0 * n / (n - s)))
                top, low = _slope_mpmath(n, ps.q_star, kmax), _slope_mpmath(n, ps.q, kmax)
                exact = top - low
                exact[:2] = 0.0
                assert np.all(np.abs(operator_eigenvalue(ps, "R", kmax) - exact) <= 2e-14 * top)


def test_s_zero_kinds_are_the_continuous_end_of_the_family():
    # C_s L_k(s) = x e_k(x) at x = (n - s)/2 tends to (n/2) K0prime_k as
    # s -> 0, linearly: |C L / ((n/2) K0prime) - 1| reads 2.63 |s| at k <= 200
    for n in range(1, 6):
        end = 0.5 * n * operator_eigenvalue(derive_params(n, 0.0, 2.0), "K0prime", 200)[1:]
        for s in (1e-9, -1e-9, 1e-6, -1e-6):
            ps = derive_params(n, s, 1.0)
            gap = np.abs(ps.constant * operator_eigenvalue(ps, "L", 200)[1:] / end - 1.0)
            assert gap.max() <= 3.0 * abs(s), (n, s, gap.max())


def test_q_one_and_two_run_through_the_one_formula_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 2, 3, 7):
            at_one = slope_sequence(n, 1.0, 30)       # gamma_k(n) = 0 for k >= 1
            np.testing.assert_allclose(at_one[1:], 1.0, rtol=2e-16)
            at_two = slope_sequence(n, 2.0, 30)       # its limit, sum_{j<k} n/(n + 2j)
            want = np.concatenate([[0.0], np.cumsum(n / (n + 2.0 * np.arange(30)))])
            np.testing.assert_allclose(at_two, want, rtol=4e-16)
            assert at_one[0] == at_two[0] == 0.0


def test_slope_matches_definition_at_critical():
    ps = derive_params(3, 2.0)
    k = 4
    expected = (gamma_sequence(3, ps.x_crit, k)[k] - 1.0) / (ps.q_star - 2.0)
    assert slope_sequence(3, ps.q_star, k)[k] == pytest.approx(expected, rel=1e-14)


def test_slope_limit_consistent_with_difference_quotient():
    # symmetric secant through q = 2 pm h approaches the stored limit
    n, k = 3, 6
    h = 1e-5
    secant = 0.5 * (slope_sequence(n, 2.0 + h, k)[k] + slope_sequence(n, 2.0 - h, k)[k])
    assert secant == pytest.approx(slope_sequence(n, 2.0, k)[k], rel=1e-8)


def test_slope_increases_between_four_and_six():
    assert slope_sequence(3, 6.0, 2)[2] > slope_sequence(3, 4.0, 2)[2]


def test_remainder_positive_and_zero_below_two():
    ps = derive_params(3, 1.5, 2.5)
    eps = operator_eigenvalue(ps, "R", 64)
    assert eps[0] == 0.0 and eps[1] == 0.0
    assert np.all(eps[2:] > 0.0)


def test_remainder_needs_interior_order():
    with pytest.raises(ValueError):
        operator_eigenvalue(derive_params(1, -0.5, 1.2), "R", 8)


def test_monotonicity_scan_rejects_scans_that_check_nothing():
    for n_values, q_grid in (([], [1.5, 3.0]), ([2], [1.5]), ([2], [])):
        with pytest.raises(ValueError, match="needs a dimension and two exponents"):
            monotonicity_scan(n_values, q_grid, 10)


def test_monotonicity_scan_rejects_a_repeated_exponent():
    # a zero-width step is bad input, not a failure of the slope lemma
    for q_grid in ([1.5, 3.0, 3.0, 4.0], [3.0, 1.5, 4.0, 3.0], [3.0, 3.0, 3.0]):
        with pytest.raises(ValueError, match=r"^the scan needs distinct exponents, "
                                             r"got 3\.0 twice$"):
            monotonicity_scan([2], q_grid, 10)
    # NaN != NaN: two NaN exponents are no repeat; sorted last, both of
    # their steps are violations at each of the degrees 2..10
    rep = monotonicity_scan([2], [1.5, math.nan, 3.0, math.nan], 10)
    assert (rep.checked, rep.violations) == (3 * 9, 2 * 9) and rep.min_gap > 0.0


def test_monotonicity_scan_small_grid():
    rep = monotonicity_scan([1, 2, 3], [1.5, 2.0, 2.5, 4.0], 10)
    assert isinstance(rep, ScanReport)
    assert rep.violations == 0
    assert rep.min_gap > 0.0
    # 3 dimensions x 3 adjacent pairs x degrees 2..10
    assert rep.checked == 3 * 3 * 9


def test_monotonicity_scan_grid_spanning_two():
    # grid points falling within float noise of 2 must not fake violations
    grid = np.arange(1.1, 3.0, 0.1)
    rep = monotonicity_scan([2], grid, 16)
    assert rep.violations == 0


# ---------------------------------------------------------------------------
# serialization


def test_constants_row_roundtrip():
    ps = derive_params(3, 2.0, 4.0)
    row = constants_row(ps)
    fields = row.split(",")
    assert len(fields) == len(CONSTANTS_HEADER.split(","))
    assert float(fields[0]) == 3.0
    assert float(fields[7]) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_parameter_set_is_frozen():
    ps = derive_params(1, 0.5)
    assert isinstance(ps, ParameterSet)
    with pytest.raises((AttributeError, TypeError)):
        ps.s = 0.7
