"""Deficit reports, kernel eigenvalues, probes, Taylor remainder bounds."""

import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracsphere.field import ZonalField, field_from_descriptor, quadratic_form
from fracsphere.inequality import (EQUALITY_CASES, KINDS, RANDOM_CASES,
                                   REPORT_HEADER, InequalityReport, deficit,
                                   deficit_square, equality_suite, funk_hecke_mu,
                                   linearization_probe, random_suite,
                                   report_row, reports_csv,
                                   taylor_bounds, taylor_case_constant,
                                   taylor_remainder)
from fracsphere.spectrum import derive_params, remainder_sequence


@pytest.fixture(scope="module")
def equality_reports():
    return equality_suite()


@pytest.fixture(scope="module")
def random_reports():
    # one full pass through the case table
    return random_suite(seed=123, count=len(RANDOM_CASES))


# ---------------------------------------------------------------------------
# suites


def test_equality_suite_deficits_vanish(equality_reports):
    assert len(equality_reports) == len(EQUALITY_CASES)
    for r in equality_reports:
        assert r.equality_case, r.kind
        assert abs(r.deficit) <= 1e-10, (r.kind, r.deficit)


def test_random_suite_deficits_nonnegative(random_reports):
    for r in random_reports:
        gate = 1e-8 if r.kind == "square" else 1e-10
        assert r.relative_deficit >= -gate, (r.kind, r.relative_deficit)
        assert np.isfinite(r.lhs) and np.isfinite(r.rhs)


def test_random_suite_is_deterministic():
    a = reports_csv(random_suite(seed=7, count=6))
    b = reports_csv(random_suite(seed=7, count=6))
    assert a == b
    assert reports_csv(random_suite(seed=8, count=6)) != a


def test_suite_covers_every_kind(random_reports):
    kinds = {r.kind for r in random_reports}
    assert kinds == {"interpolation", "sobolev", "hls", "poincare", "logsob",
                     "logsob_critical", "s0_subcritical", "improved", "square"}


# ---------------------------------------------------------------------------
# individual kinds


def test_poincare_equality_flag():
    ps = derive_params(3, 2.0)
    low = deficit(ZonalField(3, [0.4, 0.8]), ps, "poincare")
    assert low.equality_case and abs(low.deficit) <= 1e-12
    high = deficit(ZonalField(3, [0.4, 0.8, 0.3]), ps, "poincare")
    assert not high.equality_case and high.deficit > 1e-3


def test_sobolev_report_carries_critical_exponent():
    ps = derive_params(2, 1.0)
    r = deficit(ZonalField(2, [1.0, 0.2]), ps, "sobolev")
    assert r.kind == "sobolev" and r.q == ps.q_star == 4.0
    assert r.deficit >= 0.0


def test_near_optimizer_deficit_vanishes_fast():
    # deficit along 1 + eps Y_1 decays faster than cubically in eps
    ps = derive_params(3, 2.0, 4.0)
    d = [deficit(ZonalField(3, [1.0, e]), ps, "interpolation").deficit
         for e in (0.3, 0.15, 0.075)]
    assert d[0] > d[1] > d[2] > 0.0
    assert d[0] / d[1] > 8.0 and d[1] / d[2] > 8.0


def test_kind_parameter_mismatches_raise():
    fld = ZonalField(2, [1.0, 0.1])
    # one parameter set outside each kind's admissible range
    outside = {
        "interpolation": derive_params(2, -1.0, 1.1),
        "sobolev": derive_params(2, 2.0, 3.0),
        "hls": derive_params(2, 1.0, 3.0),
        "poincare": derive_params(2, 0.0, 2.0),
        "logsob": derive_params(2, -1.0, 1.1),
        "logsob_critical": derive_params(2, 1.0, 3.0),
        "s0_subcritical": derive_params(2, 1.0, 1.5),
        "improved": derive_params(2, 1.0, 4.0),
        "square": derive_params(2, 2.0, 3.0),
    }
    assert set(outside) == set(KINDS)
    for kind, ps in outside.items():
        with pytest.raises(ValueError, match=re.escape(KINDS[kind].message)):
            deficit(fld, ps, kind)
    with pytest.raises(ValueError, match="unknown inequality kind"):
        deficit(fld, derive_params(2, 1.0, 3.0), "no_such_kind")


def _s3_probe_lhs(c):
    """(||F||_4^2 - ||F||_2^2) / 2 at 50 digits for F = c0 + c1 Y_1 + c2 Y_2
    on S^3, where the latitude z follows the semicircle law, Y_k = U_k
    and E[z^(2j)] = Catalan(j) / 4^j."""
    with mpmath.workdps(50):
        c0, c1, c2 = (mpmath.mpf(float(v)) for v in c)
        f = [c0 - c2, 2 * c1, 4 * c2]       # U_1 = 2z, U_2 = 4z^2 - 1
        f2 = [sum(f[i] * f[k - i] for i in range(3) if 0 <= k - i < 3)
              for k in range(5)]
        f4 = [sum(f2[i] * f2[k - i] for i in range(5) if 0 <= k - i < 5)
              for k in range(9)]
        m4 = sum(a * mpmath.binomial(k, k // 2) / (k // 2 + 1) / 2 ** k
                 for k, a in enumerate(f4) if k % 2 == 0)
        return float((mpmath.sqrt(m4) - (c0 ** 2 + c1 ** 2 + c2 ** 2)) / 2)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-8.0, max_value=-2.0))
def test_near_constant_quotient_matches_50_digits(log_eps):
    # F = 1 + eps (Y_1 + 0.3 Y_2): the quotient is O(eps^2) while each
    # norm is 1 + O(eps), so a plain difference of norms cancels
    eps = 10.0 ** log_eps
    fld = ZonalField(3, [1.0, eps, 0.3 * eps])
    r = deficit(fld, derive_params(3, 2.0, 4.0), "interpolation")
    assert r.lhs == pytest.approx(_s3_probe_lhs(fld.coeffs), rel=1e-6)
    assert r.deficit >= 0.0


@pytest.mark.parametrize("c", [0.7, 3.0])
def test_scaled_near_constant_quotient_matches_50_digits(c):
    # F = c (1 + eps (Y_1 + 0.3 Y_2)): the weights sum to 1 only up to
    # rounding, which a quotient of size eps^2 c^2 must not see (abs=0:
    # approx's default absolute 1e-12 would accept any lhs of this size)
    fld = ZonalField(3, c * np.array([1.0, 1e-8, 0.3e-8]))
    r = deficit(fld, derive_params(3, 2.0, 4.0), "interpolation")
    assert r.lhs == pytest.approx(_s3_probe_lhs(fld.coeffs), rel=1e-6, abs=0.0)


def test_quotient_kinds_are_continuous_through_two():
    # no kind swap near q = 2: the report keeps its kind and exponent, and
    # its lhs tends to the entropy of the logarithmic kind
    fld = ZonalField(2, [1.0, 0.2])
    at_two = deficit(fld, derive_params(2, 1.0, 2.0), "logsob")
    assert deficit(fld, derive_params(2, 1.0, 2.0), "interpolation").lhs == at_two.lhs
    for q in (2.0 - 1e-12, 2.0 + 1e-12):
        r = deficit(fld, derive_params(2, 1.0, q), "interpolation")
        assert r.kind == "interpolation" and r.q == q
        assert r.lhs == pytest.approx(at_two.lhs, rel=1e-10)
        assert r.deficit == pytest.approx(at_two.deficit, rel=1e-10)
    q = 2.0 - 1e-12
    r0 = deficit(fld, derive_params(2, 0.0, q), "s0_subcritical")
    assert r0.kind == "s0_subcritical" and r0.q == q
    critical = deficit(fld, derive_params(2, 0.0, 2.0), "logsob_critical").lhs
    assert r0.lhs == pytest.approx(critical, rel=1e-10)


# ---------------------------------------------------------------------------
# improved form


def test_improved_difference_is_remainder_form():
    ps = derive_params(3, 1.5, 2.5)
    fld = field_from_descriptor(
        {"family": "random_band_limited", "kmax": 8, "seed": 5, "scale": 0.4}, 3)
    d_int = deficit(fld, ps, "interpolation").deficit
    d_imp = deficit(fld, ps, "improved").deficit
    gap = quadratic_form(fld, remainder_sequence(ps, fld.kmax))
    assert gap > 0.0
    assert d_int - d_imp == pytest.approx(gap, rel=1e-12)
    assert d_imp <= d_int


def test_improved_matches_plain_on_low_modes():
    # no energy above degree 1: the extra term vanishes identically
    ps = derive_params(1, 0.5, 3.0)
    fld = ZonalField(1, [1.0, 0.3])
    d_int = deficit(fld, ps, "interpolation").deficit
    d_imp = deficit(fld, ps, "improved").deficit
    assert d_imp == pytest.approx(d_int, rel=1e-14)


def test_improved_rejects_critical_and_entropy_exponents():
    fld = ZonalField(2, [1.0, 0.1])
    with pytest.raises(ValueError):
        deficit(fld, derive_params(2, 1.0, 4.0), "improved")   # q = q_star
    with pytest.raises(ValueError):
        deficit(fld, derive_params(2, 1.0, 2.0), "improved")   # entropy endpoint


# ---------------------------------------------------------------------------
# squared-deficit comparison


def test_square_vanishes_on_constants():
    ps = derive_params(1, 0.5)
    r = deficit_square(ZonalField(1, [1.0]), ps)
    assert r.equality_case and r.deficit == pytest.approx(0.0, abs=1e-12)


def test_square_nonnegative_off_optimum():
    ps = derive_params(1, 0.5)
    r = deficit_square(ZonalField(1, [1.0, 0.2]), ps)
    assert r.kind == "square" and r.deficit > 0.0
    # sign-changing fields are fine: G carries the sign
    r2 = deficit_square(ZonalField(1, [0.1, 1.0]), ps)
    assert r2.relative_deficit >= -1e-8


def test_square_kind_is_deficit_square():
    fld, ps = ZonalField(2, [1.0, 0.3, -0.2]), derive_params(2, 1.0)
    assert deficit(fld, ps, "square") == deficit_square(fld, ps)


def test_square_needs_interior_order():
    with pytest.raises(ValueError):
        deficit_square(ZonalField(1, [1.0, 0.1]), derive_params(1, 1.0, 3.0))


# ---------------------------------------------------------------------------
# kernel eigenvalues


def test_funk_hecke_degree_zero():
    quad, closed = funk_hecke_mu(2, 1.0, 0)
    assert closed == pytest.approx(1.0, rel=1e-14)
    assert quad == pytest.approx(1.0, rel=1e-12)


def test_funk_hecke_frozen_value():
    # n = 3, lam = 1.5, k = 3; frozen from a 40-digit evaluation
    quad, closed = funk_hecke_mu(3, 1.5, 3)
    assert closed == pytest.approx(0.1002235904470714, rel=1e-13)
    assert quad == pytest.approx(0.1002235904470714, rel=1e-12)


def test_funk_hecke_two_routes_agree():
    for n in (2, 3):
        for lam in (0.5, 1.0, n - 0.25):
            for k in range(7):
                quad, closed = funk_hecke_mu(n, lam, k)
                assert quad == pytest.approx(closed, rel=1e-8), (n, lam, k)


def test_funk_hecke_eigenvalues_decrease():
    mus = [funk_hecke_mu(3, 1.0, k)[1] for k in range(8)]
    assert all(a > b > 0.0 for a, b in zip(mus, mus[1:]))


def test_funk_hecke_matches_inverse_operator():
    # mu_k / mu_0 at lam = n - s is the inverse-operator eigenvalue
    from fracsphere.spectrum import operator_eigenvalue
    ps = derive_params(2, 1.0, 3.0)
    kinv = operator_eigenvalue(ps, "K_inv", 5)
    mus = np.array([funk_hecke_mu(2, 1.0, k)[1] for k in range(6)])
    np.testing.assert_allclose(mus / mus[0], kinv, rtol=1e-12)


def test_funk_hecke_rejects_bad_order():
    with pytest.raises(ValueError):
        funk_hecke_mu(2, 2.0, 1)
    with pytest.raises(ValueError):
        funk_hecke_mu(2, 0.0, 1)


# ---------------------------------------------------------------------------
# sharpness probe


PROBE_CASES = [(1, 0.5, 3.0), (3, 2.0, 4.0), (2, 1.0, 3.5), (3, 2.0, 1.5),
               (1, -0.5, 1.2), (2, 1.0, 2.0), (1, 0.0, 2.0)]


@pytest.mark.parametrize("n,s,q", PROBE_CASES)
def test_probe_shrinks_with_eps(n, s, q):
    probes = [linearization_probe(n, s, q, eps) for eps in (1e-2, 1e-3, 1e-4)]
    mags = [abs(p) for p in probes]
    assert mags[0] > mags[1] > mags[2]
    for eps, p in zip((1e-2, 1e-3, 1e-4), probes):
        assert abs(p) <= 5.0 * eps
        assert p >= -1e-10


def test_probe_scales_quadratically():
    a = linearization_probe(3, 2.0, 4.0, 1e-3)
    b = linearization_probe(3, 2.0, 4.0, 2e-3)
    assert b / a == pytest.approx(4.0, rel=1e-2)


# ---------------------------------------------------------------------------
# Taylor remainder


def test_remainder_at_zero_and_vectorized():
    assert taylor_remainder(0.0, 3.7) == 0.0
    out = taylor_remainder(np.array([-0.5, 0.0, 0.5]), 4.0)
    assert out.shape == (3,)
    assert out[1] == 0.0


def test_remainder_closed_values():
    # (1.5)^4 - 1 - 2 - 1.5
    assert taylor_remainder(0.5, 4.0) == pytest.approx(0.5625, rel=1e-14)
    assert taylor_remainder(-1.0, 3.0) == pytest.approx(-1.0, rel=1e-14)


def test_case_constant_values():
    assert taylor_case_constant(2.5) == 1.0
    assert taylor_case_constant(3.0) == 1.0
    assert taylor_case_constant(4.0) == pytest.approx(5.0, rel=1e-12)
    assert taylor_case_constant(7.0) == pytest.approx(99.0, rel=1e-12)
    with pytest.raises(ValueError):
        taylor_case_constant(2.0)


def test_case_constant_monotone_above_three():
    vals = [taylor_case_constant(q) for q in (3.0, 3.5, 4.0, 5.0, 7.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_lower_bound_attained_at_minus_one():
    # the natural constant (q-1)(q-2)/2 governs once q >= 3 and is
    # attained exactly at t = -1; below q = 3 the bound is strict
    for q in (3.0, 4.0, 7.0):
        label, lo, hi = taylor_bounds(-1.0, q)
        assert label == "large_negative"
        assert taylor_remainder(-1.0, q) == pytest.approx(lo, rel=1e-13)
    label, lo, _ = taylor_bounds(-1.0, 2.5)
    assert lo == -1.0 and taylor_remainder(-1.0, 2.5) > lo


def test_bound_labels():
    assert taylor_bounds(2.0, 3.0)[0] == "large_positive"
    assert taylor_bounds(0.3, 3.0)[0] == "small_positive"
    assert taylor_bounds(0.0, 3.0)[0] == "zero"
    assert taylor_bounds(-0.3, 3.0)[0] == "small_negative"
    assert taylor_bounds(-2.0, 3.0)[0] == "large_negative"
    with pytest.raises(ValueError):
        taylor_bounds(0.5, 1.5)


@pytest.mark.parametrize("q", [2.5, 3.0, 4.0, 7.0])
def test_bounds_hold_on_grid(q):
    for t in np.linspace(-5.0, 5.0, 801):
        label, lo, hi = taylor_bounds(t, q)
        r = taylor_remainder(t, q)
        assert lo - 1e-12 <= r <= hi + 1e-12, (q, t, label)


@pytest.mark.parametrize("q", [2.5, 3.0, 4.0, 7.0])
def test_remainder_sign_pattern(q):
    tp = np.linspace(1e-3, 5.0, 200)
    assert np.all(taylor_remainder(tp, q) > 0.0)
    tn = np.linspace(-0.999, -1e-3, 200)
    assert np.all(taylor_remainder(tn, q) < 0.0)


# ---------------------------------------------------------------------------
# serialization


def test_report_csv_shape(equality_reports):
    text = reports_csv(equality_reports)
    lines = text.strip().split("\n")
    assert lines[0] == REPORT_HEADER
    assert len(lines) == len(equality_reports) + 1
    fields = lines[1].split(",")
    assert fields[0] == "interpolation"
    # numeric columns survive a float round trip at full precision
    assert float(fields[4]) == equality_reports[0].lhs


def test_poincare_builds_no_rule(monkeypatch):
    # its lhs is the variance of the coefficients; no integral is taken
    def refuse(n, m):
        raise AssertionError(f"built a {m}-node rule")
    monkeypatch.setattr("fracsphere.inequality.sphere_rule", refuse)
    fld = field_from_descriptor({"coeffs": [[0, 1.0], [1, 0.6], [2, 0.2]]}, 3)
    r = deficit(fld, derive_params(3, 2.0), "poincare")
    assert r.lhs == pytest.approx(0.4) and r.deficit > 0.0


def test_random_suite_rejects_negative_count():
    assert random_suite(seed=0, count=0) == []
    with pytest.raises(ValueError, match="count must be >= 0"):
        random_suite(seed=0, count=-1)


def test_report_is_frozen(equality_reports):
    r = equality_reports[0]
    assert isinstance(r, InequalityReport)
    with pytest.raises(Exception):
        r.deficit = 0.0
