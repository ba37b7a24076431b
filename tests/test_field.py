"""Zonal fields: synthesis, analysis, norms, entropy, quotients."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracsphere.field import (ZonalField, analyze, default_rule, descriptor_of,
                              entropy2, field_from_descriptor, is_constant,
                              lq_norm, lq_quotient, quadratic_form, quotient,
                              synthesize, zonal_basis)
from fracsphere.specfun import sphere_rule
from fracsphere.spectrum import derive_params, operator_eigenvalue, sharp_constant

coeff_lists = st.lists(st.floats(min_value=-3.0, max_value=3.0),
                       min_size=1, max_size=12)


# ---------------------------------------------------------------------------
# basis, synthesis, analysis


def test_basis_is_orthonormal():
    for n in (1, 2, 3):
        rule = default_rule(n, 10)
        basis = zonal_basis(n, 10, rule)
        gram = (basis * rule.prob_weights) @ basis.T
        np.testing.assert_allclose(gram, np.eye(11), atol=1e-12)


def test_synthesize_constant():
    rule = default_rule(2, 0)
    vals = synthesize(ZonalField(2, [1.0]), rule)
    np.testing.assert_allclose(vals, 1.0, atol=1e-14)


def test_circle_basis_is_sqrt2_cosine():
    # on n = 1 the degree-k zonal harmonic is sqrt(2) cos(k theta)
    rule = default_rule(1, 3)
    theta = np.arccos(rule.nodes)
    for k in (1, 2, 3):
        c = np.zeros(k + 1)
        c[k] = 1.0
        vals = synthesize(ZonalField(1, c), rule)
        np.testing.assert_allclose(vals, math.sqrt(2.0) * np.cos(k * theta),
                                   atol=1e-12)


def test_each_mode_has_unit_mass():
    for n in (1, 2, 4):
        rule = default_rule(n, 6)
        for k in (1, 3, 6):
            c = np.zeros(k + 1)
            c[k] = 1.0
            v = synthesize(ZonalField(n, c), rule)
            assert (rule.prob_weights * v * v).sum() == pytest.approx(1.0, rel=1e-12)


def test_analyze_synthesize_roundtrip():
    c = np.array([0.7, -0.3, 0.0, 1.2, 0.05])
    fld = ZonalField(3, c)
    rule = default_rule(3, fld.kmax)
    back = analyze(3, synthesize(fld, rule), rule, fld.kmax)
    np.testing.assert_allclose(back.coeffs, c, atol=1e-10)


@given(st.integers(min_value=1, max_value=4), coeff_lists)
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(n, coeffs):
    fld = ZonalField(n, coeffs)
    rule = default_rule(n, fld.kmax)
    back = analyze(n, synthesize(fld, rule), rule, fld.kmax)
    np.testing.assert_allclose(back.coeffs, fld.coeffs, atol=1e-10)


def test_analyze_quadratic_polynomial():
    # (1 + z)^2 on the 2-sphere lives in degrees 0..2 exactly
    rule = default_rule(2, 8)
    vals = (1.0 + rule.nodes) ** 2
    fld = analyze(2, vals, rule, 8)
    assert np.all(np.abs(fld.coeffs[3:]) < 1e-12)
    assert np.count_nonzero(np.abs(fld.coeffs) > 1e-12) == 3


def test_analyze_refuses_small_rule():
    rule = sphere_rule(2, 8)
    with pytest.raises(ValueError):
        analyze(2, np.ones(8), rule, 4)   # needs >= 10 nodes


# ---------------------------------------------------------------------------
# norms


def test_lq_norm_of_constants():
    assert lq_norm(ZonalField(2, [1.0]), 3.7) == pytest.approx(1.0, rel=1e-14)
    assert lq_norm(ZonalField(3, [-2.5]), 1.0) == pytest.approx(2.5, rel=1e-14)


def test_lq_norm_frozen_value():
    # ||1 + 0.1 Y_1||_4 on the circle, frozen from a 40-digit quadrature
    fld = ZonalField(1, [1.0, 0.1])
    assert lq_norm(fld, 4.0) == pytest.approx(1.0147097407443394, rel=1e-13)


@given(st.integers(min_value=1, max_value=3), coeff_lists)
@settings(max_examples=60, deadline=None)
def test_parseval(n, coeffs):
    fld = ZonalField(n, coeffs)
    assert lq_norm(fld, 2.0) ** 2 == pytest.approx(
        float((fld.coeffs ** 2).sum()), abs=1e-10)


def test_norms_increase_with_exponent():
    fld = ZonalField(2, [1.0, 0.4, -0.2, 0.1])
    norms = [lq_norm(fld, q) for q in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0)]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_lq_norm_rejects_bad_exponent():
    fld = ZonalField(1, [1.0])
    with pytest.raises(ValueError):
        lq_norm(fld, 0.5)
    with pytest.raises(ValueError):
        lq_norm(fld, float("inf"))


# ---------------------------------------------------------------------------
# quadratic forms


def test_quadratic_form_against_spectrum():
    ps = derive_params(3, 2.0, 4.0)
    eigs = operator_eigenvalue(ps, "L", 4)
    assert quadratic_form(ZonalField(3, [5.0]), eigs) == 0.0
    assert quadratic_form(ZonalField(3, [0.0, 1.0]), eigs) == pytest.approx(3.0, rel=1e-12)
    # Y_1 + Y_3: 1*3 + 3*5
    fld = ZonalField(3, [0.0, 1.0, 0.0, 1.0])
    assert quadratic_form(fld, eigs) == pytest.approx(18.0, rel=1e-12)


def test_quadratic_form_short_spectrum_raises():
    with pytest.raises(ValueError):
        quadratic_form(ZonalField(2, [1.0, 1.0, 1.0]), np.array([0.0, 1.0]))


def test_affine_relation_between_operators():
    # <F, K F> = kappa <F, L F> + ||F||_2^2 for interior orders
    ps = derive_params(2, 1.0, 3.0)
    fld = ZonalField(2, [0.9, 0.3, -0.2, 0.05])
    left = quadratic_form(fld, operator_eigenvalue(ps, "K", fld.kmax))
    right = (ps.kappa * quadratic_form(fld, operator_eigenvalue(ps, "L", fld.kmax))
             + float((fld.coeffs ** 2).sum()))
    assert left == pytest.approx(right, rel=1e-13)


# ---------------------------------------------------------------------------
# entropy


def test_entropy_of_constant_vanishes():
    assert entropy2(ZonalField(2, [3.0])) == pytest.approx(0.0, abs=1e-14)


def test_entropy_frozen_value():
    # entropy of 1 + 0.1 Y_1 on the circle, frozen from a 40-digit quadrature
    fld = ZonalField(1, [1.0, 0.1])
    val = entropy2(fld)
    assert isinstance(val, float)
    assert val == pytest.approx(0.0099625409898571613, rel=1e-12)


def test_entropy_small_perturbation_is_eps_squared():
    for eps in (1e-2, 1e-3):
        fld = ZonalField(1, [1.0, eps])
        assert entropy2(fld) == pytest.approx(eps ** 2, rel=0.05)


def test_entropy_quadratic_scaling():
    fld = ZonalField(2, [1.0, 0.5, 0.2])
    assert entropy2(ZonalField(2, 2.0 * fld.coeffs)) == pytest.approx(
        4.0 * entropy2(fld), rel=1e-12)


def test_entropy_of_zero_field_raises():
    with pytest.raises(ValueError):
        entropy2(ZonalField(1, [0.0, 0.0]))


def test_entropy_handles_fields_with_zeros():
    # F = Y_1 vanishes at the equator; the integrand extends by zero
    val = entropy2(ZonalField(1, [0.0, 1.0]))
    assert np.isfinite(val)


# ---------------------------------------------------------------------------
# the L^q quotient


def _lq_quotient_50_digits(values, weights, q):
    """(||F||_q^2 - ||F||_2^2) / (q - 2) of the same nodal values at 50
    digits, with the weights normalised to sum to exactly 1."""
    with mpmath.workdps(50):
        w = [mpmath.mpf(float(x)) for x in weights]
        total = mpmath.fsum(w)
        v = [mpmath.mpf(float(x)) for x in values]
        q = mpmath.mpf(q)
        m2 = mpmath.fsum(a * b * b for a, b in zip(w, v)) / total
        mq = mpmath.fsum(a * abs(b) ** q for a, b in zip(w, v)) / total
        return float((mq ** (2 / q) - m2) / (q - 2))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2 ** 16),
       st.floats(min_value=0.1, max_value=2.0), st.floats(min_value=-12.0, max_value=-1.0),
       st.sampled_from([-1.0, 1.0]))
def test_lq_quotient_near_two_matches_50_digits(n, seed, scale, log_delta, sign):
    # q - 2 from +-1e-12 to +-0.1; scales above 1 give sign-changing fields
    fld = field_from_descriptor({"family": "random_band_limited", "kmax": 8,
                                 "seed": seed, "scale": scale}, n)
    rule = sphere_rule(n, 160)
    values = synthesize(fld, rule)
    q = 2.0 + sign * 10.0 ** log_delta
    ref = _lq_quotient_50_digits(values, rule.prob_weights, q)
    assert lq_quotient(values, rule.prob_weights, q) == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, 6.0])
def test_lq_quotient_extends_by_zero_where_the_field_vanishes(q):
    v = np.array([0.0, 1.0, -2.0, 0.5])
    w = np.array([0.25, 0.25, 0.25, 0.25])
    b = float((w * v * v).sum())
    if q == 2.0:
        nz = v != 0.0
        ref = float((w[nz] * v[nz] ** 2 * np.log(np.abs(v[nz]) / math.sqrt(b))).sum())
    else:
        ref = (float((w * np.abs(v) ** q).sum()) ** (2.0 / q) - b) / (q - 2.0)
    assert lq_quotient(v, w, q) == pytest.approx(ref, rel=1e-13)


# ---------------------------------------------------------------------------
# quotient


def test_quotient_rejects_constants():
    ps = derive_params(2, 1.0, 3.0)
    with pytest.raises(ValueError):
        quotient(ZonalField(2, [1.0]), ps)


def test_quotient_linearization_limit():
    # Q(1 + eps Y_1) -> delta_1 / slope = 1/C as eps -> 0
    ps = derive_params(3, 2.0, 4.0)
    C = sharp_constant(3, 2.0)
    vals = [quotient(ZonalField(3, [1.0, eps]), ps) * C for eps in (1e-2, 1e-3, 1e-4)]
    gaps = [abs(v - 1.0) for v in vals]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_quotient_dominates_sharp_threshold():
    # C * Q >= 1 for every non-constant field
    for n, s, q, coeffs in [
        (1, 0.5, 3.0, [1.0, 0.0, 0.3]),
        (3, 2.0, 4.0, [1.0, 0.2, -0.1, 0.4]),
        (2, 1.0, 2.5, [0.5, 0.5]),
    ]:
        ps = derive_params(n, s, q)
        val = quotient(field_from_descriptor({"coeffs": [[k, c] for k, c in
                                              enumerate(coeffs) if c]}, n), ps)
        assert val * sharp_constant(n, s) >= 1.0 - 1e-10


def test_quotient_strict_above_threshold_off_optimum():
    # a field with energy beyond degree 1 sits strictly above 1/C
    ps = derive_params(1, 0.5, 3.0)
    val = quotient(ZonalField(1, [1.0, 0.0, 0.3]), ps)
    assert val * sharp_constant(1, 0.5) > 1.0 + 1e-3


def test_quotient_entropy_denominator_at_two():
    ps = derive_params(1, 0.5, 2.0)
    fld = ZonalField(1, [1.0, 1e-4])
    assert quotient(fld, ps) * sharp_constant(1, 0.5) == pytest.approx(1.0, abs=1e-7)


def test_quotient_custom_numerator():
    ps = derive_params(2, 1.0, 3.0)
    fld = ZonalField(2, [1.0, 0.3])
    ones = np.ones(fld.coeffs.size)
    got = quotient(fld, ps, numerator_eigs=ones)
    den = (lq_norm(fld, 3.0) ** 2 - lq_norm(fld, 2.0) ** 2) / (3.0 - 2.0)
    assert got == pytest.approx(float((fld.coeffs ** 2).sum()) / den, rel=1e-12)


# ---------------------------------------------------------------------------
# descriptors


def test_descriptor_roundtrip():
    fld = ZonalField(2, [1.0, 0.0, -0.25])
    desc = descriptor_of(fld)
    back = field_from_descriptor(desc, 2)
    np.testing.assert_array_equal(back.coeffs, fld.coeffs)
    assert json.loads(desc) == {"coeffs": [[0, 1.0], [2, -0.25]]}


def test_descriptor_families():
    f1 = field_from_descriptor({"family": "one_plus_eps_y1", "eps": 0.25}, 3)
    np.testing.assert_array_equal(f1.coeffs, [1.0, 0.25])
    f2 = field_from_descriptor({"family": "pullback_fstar"}, 1)
    np.testing.assert_array_equal(f2.coeffs, [1.0])
    with pytest.raises(ValueError):
        field_from_descriptor({"family": "nope"}, 2)


@pytest.mark.parametrize("desc,missing", [
    ({"family": "one_plus_eps_y1"}, "eps"),
    ({"family": "random_band_limited", "seed": 1}, "kmax"),
    ({"family": "random_band_limited", "kmax": 4}, "seed"),
])
def test_descriptor_missing_key_is_named(desc, missing):
    with pytest.raises(ValueError, match=f"has no key '{missing}'"):
        field_from_descriptor(desc, 2)


def test_random_band_limited_is_deterministic():
    desc = {"family": "random_band_limited", "kmax": 6, "seed": 11, "scale": 0.4}
    a = field_from_descriptor(desc, 2)
    b = field_from_descriptor(json.dumps(desc), 2)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    assert a.kmax == 6
    assert np.abs(a.coeffs - np.eye(7)[0]).max() <= 0.4 + 1e-15


def test_is_constant_threshold():
    assert is_constant(ZonalField(2, [1.0]))
    assert is_constant(ZonalField(2, [1.0, 1e-13]))
    assert not is_constant(ZonalField(2, [1.0, 1e-10]))
    assert not is_constant(ZonalField(2, [0.0, 1.0]))
