"""Zonal fields: synthesis, analysis, norms, entropy, quotients."""

import json
import math
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracsphere.field
from fracsphere import cli, specfun
from fracsphere.field import (ZonalField, analyze, descriptor_of,
                              difference_quotient, entropy2, field_from_descriptor,
                              lq_norm, lq_quotient, quadratic_form, shared_bases,
                              synthesize, zonal_basis)
from fracsphere.inequality import deficit, random_suite
from fracsphere.specfun import sphere_rule
from fracsphere.spectrum import derive_params, operator_eigenvalue
from reference import sharp_quotient, zonal_basis_oracle

RULE_NODES = 128    # the latitude rule of these tests: analysis is exact up to degree 63

coeff_lists = st.lists(st.floats(min_value=-3.0, max_value=3.0),
                       min_size=1, max_size=12)


# ---------------------------------------------------------------------------
# basis, synthesis, analysis


def test_basis_is_orthonormal():
    for n in (1, 2, 3):
        rule = sphere_rule(n, RULE_NODES)
        basis = zonal_basis(n, 10, rule)
        gram = (basis * rule.prob_weights) @ basis.T
        np.testing.assert_allclose(gram, np.eye(11), atol=1e-12)


def test_synthesize_constant():
    rule = sphere_rule(2, RULE_NODES)
    vals = synthesize(ZonalField(2, [1.0]), rule)
    np.testing.assert_allclose(vals, 1.0, atol=1e-14)


def test_circle_basis_is_sqrt2_cosine():
    # on n = 1 the degree-k zonal harmonic is sqrt(2) cos(k theta)
    rule = sphere_rule(1, RULE_NODES)
    theta = np.arccos(rule.nodes)
    for k in (1, 2, 3):
        c = np.zeros(k + 1)
        c[k] = 1.0
        vals = synthesize(ZonalField(1, c), rule)
        np.testing.assert_allclose(vals, math.sqrt(2.0) * np.cos(k * theta),
                                   atol=1e-12)


def test_each_mode_has_unit_mass():
    for n in (1, 2, 4):
        rule = sphere_rule(n, RULE_NODES)
        for k in (1, 3, 6):
            c = np.zeros(k + 1)
            c[k] = 1.0
            v = synthesize(ZonalField(n, c), rule)
            assert (rule.prob_weights * v * v).sum() == pytest.approx(1.0, rel=1e-12)


def test_analyze_synthesize_roundtrip():
    c = np.array([0.7, -0.3, 0.0, 1.2, 0.05])
    fld = ZonalField(3, c)
    rule = sphere_rule(3, RULE_NODES)
    back = analyze(3, synthesize(fld, rule), rule, fld.kmax)
    np.testing.assert_allclose(back.coeffs, c, atol=1e-10)


@given(st.integers(min_value=1, max_value=4), coeff_lists)
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(n, coeffs):
    fld = ZonalField(n, coeffs)
    rule = sphere_rule(n, RULE_NODES)
    back = analyze(n, synthesize(fld, rule), rule, fld.kmax)
    np.testing.assert_allclose(back.coeffs, fld.coeffs, atol=1e-10)


def test_analyze_quadratic_polynomial():
    # (1 + z)^2 on the 2-sphere lives in degrees 0..2 exactly
    rule = sphere_rule(2, RULE_NODES)
    vals = (1.0 + rule.nodes) ** 2
    fld = analyze(2, vals, rule, 8)
    assert np.all(np.abs(fld.coeffs[3:]) < 1e-12)
    assert np.count_nonzero(np.abs(fld.coeffs) > 1e-12) == 3


def test_analyze_refuses_small_rule():
    rule = sphere_rule(2, 8)
    with pytest.raises(ValueError):
        analyze(2, np.ones(8), rule, 4)   # needs >= 10 nodes


# ---------------------------------------------------------------------------
# shared basis tables


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("degrees", [(0, 3, 10, 40, 63), (63, 40, 10, 3, 0)],
                         ids=["rising", "falling"])
def test_shared_basis_slices_match_fresh_oracle_bitwise(n, degrees):
    rule = sphere_rule(n, RULE_NODES)
    with shared_bases():
        for k in degrees:
            basis = zonal_basis(n, k, rule)
            fresh = zonal_basis_oracle(n, k, rule)
            assert basis.shape == fresh.shape
            assert basis.tobytes() == fresh.tobytes(), (n, k)
            assert not basis.flags.writeable
            with pytest.raises(ValueError):
                basis[0, 0] = 0.0
    # outside the block every call is a fresh, writable build, as before
    basis = zonal_basis(n, degrees[-1], rule)
    assert basis.flags.writeable
    assert basis.tobytes() == zonal_basis_oracle(n, degrees[-1], rule).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_block_normalised_tables_match_fresh_oracle_bitwise(n):
    # 976 nodes, as the largest deficit-sweep rule, and degrees on each side
    # of the row blocks of specfun.BLOCK = 64
    rule = sphere_rule(n, 976)
    for k in (63, 64, 65, 487):
        assert zonal_basis(n, k, rule).tobytes() == zonal_basis_oracle(n, k, rule).tobytes(), k


def test_basis_table_peak_memory_is_the_table_and_one_row_block():
    # the product w c c is formed 64 rows at a time, never at the table's size
    rule = sphere_rule(3, 976)
    tracemalloc.start()
    try:
        table = fracsphere.field._basis_table(3, 487, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= table.nbytes + 1.5 * 2 ** 20, (peak, table.nbytes)


def test_shared_bases_retain_nothing_after_the_block():
    rule = sphere_rule(3, RULE_NODES)
    with shared_bases():
        with shared_bases():        # a nested block shares the outer's tables
            table = weakref.ref(zonal_basis(3, 20, rule).base)
        assert zonal_basis(3, 5, rule).base is table()
    assert fracsphere.field._tables is None
    assert table() is None
    with pytest.raises(RuntimeError):
        with shared_bases():
            zonal_basis(3, 4, rule)
            raise RuntimeError("the block ends by an exception")
    assert fracsphere.field._tables is None


def test_shared_basis_keys_each_rule_object_by_identity():
    # a rule hashes by identity: a second build of the same (m, a, b), a
    # new object, gets a table of its own, and the key keeps each rule alive
    built = []
    with shared_bases():
        for n in (1, 2, 3):
            rule = sphere_rule(n, RULE_NODES)
            first = zonal_basis(n, 30, rule)
            built.append(weakref.ref(rule))
            specfun._build_rule.cache_clear()
            again = sphere_rule(n, RULE_NODES)
            assert again is not rule
            second = zonal_basis(n, 30, again)
            assert second.base is not first.base
            assert fracsphere.field._tables[n, rule] is first.base
            assert fracsphere.field._tables[n, again] is second.base
            oracle = zonal_basis_oracle(n, 30, rule).tobytes()
            assert first.tobytes() == oracle
            assert second.tobytes() == zonal_basis_oracle(n, 30, again).tobytes() == oracle
        # the first builds of n = 1 and 2 are held by their keys alone
        assert all(ref() is not None for ref in built)


def test_readme_verify_builds_each_basis_table_once_per_degree_rise(tmp_path, monkeypatch,
                                                                    capsys):
    # without sharing the README verify builds 215 Gegenbauer tables; with
    # it each (n, rule) is built once, at the rule's analysis degree, and
    # again only for a higher degree: 10 builds over 10 distinct (n, rule)
    # (23 when a table was grown to each higher degree asked)
    builds = {}
    gegenbauer_all = fracsphere.field.gegenbauer_all

    def counted(kmax, alpha, z):
        builds.setdefault((alpha, len(z)), []).append(kmax)
        return gegenbauer_all(kmax, alpha, z)

    monkeypatch.setattr(fracsphere.field, "gegenbauer_all", counted)
    assert cli.main(["verify", "--count", "200", "--seed", "0",
                     "--out", str(tmp_path / "reports.csv")]) == 0
    capsys.readouterr()
    for key, degrees in builds.items():
        assert degrees == sorted(set(degrees)), (key, degrees)
    assert len(builds) == 10
    assert sum(map(len, builds.values())) == 10, builds


def test_random_suite_builds_one_basis_table_per_key(monkeypatch):
    # random_suite(0, 200) asks its 10 (n, rule) keys for degrees 4, 8 and 16,
    # and square's rules for their analysis degree too: each table is built
    # once, at len(rule) // 2 - 1, where growing it to each higher degree
    # asked built 20
    calls = []
    gegenbauer_all = fracsphere.field.gegenbauer_all

    def counted(kmax, alpha, z):
        calls.append((alpha, len(z), kmax))
        return gegenbauer_all(kmax, alpha, z)

    monkeypatch.setattr(fracsphere.field, "gegenbauer_all", counted)
    reports = random_suite(0, 200)
    assert len(calls) == len(set(calls)) == 10, calls
    assert all(kmax == size // 2 - 1 for _, size, kmax in calls), calls
    monkeypatch.undo()
    # the same numbers as reports built one by one, each on fresh tables
    assert reports == [deficit(r.field, derive_params(r.n, r.s, r.q), r.kind) for r in reports]


# ---------------------------------------------------------------------------
# norms


def test_lq_norm_of_constants():
    assert lq_norm(ZonalField(2, [1.0]), 3.7, sphere_rule(2, RULE_NODES)) == pytest.approx(
        1.0, rel=1e-14)
    assert lq_norm(ZonalField(3, [-2.5]), 1.0, sphere_rule(3, RULE_NODES)) == pytest.approx(
        2.5, rel=1e-14)


def test_lq_norm_frozen_value():
    # ||1 + 0.1 Y_1||_4 on the circle, frozen from a 40-digit quadrature
    fld = ZonalField(1, [1.0, 0.1])
    val = lq_norm(fld, 4.0, sphere_rule(1, RULE_NODES))
    assert val == pytest.approx(1.0147097407443394, rel=1e-13)


@given(st.integers(min_value=1, max_value=3), coeff_lists)
@settings(max_examples=60, deadline=None)
def test_parseval(n, coeffs):
    fld = ZonalField(n, coeffs)
    assert lq_norm(fld, 2.0, sphere_rule(n, RULE_NODES)) ** 2 == pytest.approx(
        float((fld.coeffs ** 2).sum()), abs=1e-10)


def test_norms_increase_with_exponent():
    fld = ZonalField(2, [1.0, 0.4, -0.2, 0.1])
    rule = sphere_rule(2, RULE_NODES)
    norms = [lq_norm(fld, q, rule) for q in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0)]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_lq_norm_rejects_bad_exponent():
    fld = ZonalField(1, [1.0])
    rule = sphere_rule(1, RULE_NODES)
    with pytest.raises(ValueError):
        lq_norm(fld, 0.5, rule)
    with pytest.raises(ValueError):
        lq_norm(fld, float("inf"), rule)


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
    val = entropy2(ZonalField(2, [3.0]), sphere_rule(2, RULE_NODES))
    assert val == pytest.approx(0.0, abs=1e-14)


def test_entropy_frozen_value():
    # entropy of 1 + 0.1 Y_1 on the circle, frozen from a 40-digit quadrature
    fld = ZonalField(1, [1.0, 0.1])
    val = entropy2(fld, sphere_rule(1, RULE_NODES))
    assert isinstance(val, float)
    assert val == pytest.approx(0.0099625409898571613, rel=1e-12)


def test_entropy_small_perturbation_is_eps_squared():
    for eps in (1e-2, 1e-3):
        fld = ZonalField(1, [1.0, eps])
        assert entropy2(fld, sphere_rule(1, RULE_NODES)) == pytest.approx(eps ** 2, rel=0.05)


def test_entropy_quadratic_scaling():
    fld = ZonalField(2, [1.0, 0.5, 0.2])
    rule = sphere_rule(2, RULE_NODES)
    assert entropy2(ZonalField(2, 2.0 * fld.coeffs), rule) == pytest.approx(
        4.0 * entropy2(fld, rule), rel=1e-12)


def test_entropy_of_zero_field_raises():
    with pytest.raises(ValueError):
        entropy2(ZonalField(1, [0.0, 0.0]), sphere_rule(1, RULE_NODES))


def test_entropy_handles_fields_with_zeros():
    # F = Y_1 vanishes at the equator; the integrand extends by zero
    val = entropy2(ZonalField(1, [0.0, 1.0]), sphere_rule(1, RULE_NODES))
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
# the sharp quotient: C <F, L F> over the difference quotient, rhs / lhs
# of the interpolation deficit


def test_quotient_linearization_limit():
    # C <F, L F> / quotient -> C delta_1 / slope_1 = 1 along 1 + eps Y_1
    ps = derive_params(3, 2.0, 4.0)
    vals = [sharp_quotient(ZonalField(3, [1.0, eps]), ps) for eps in (1e-2, 1e-3, 1e-4)]
    gaps = [abs(v - 1.0) for v in vals]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_quotient_dominates_sharp_threshold():
    # the sharp quotient is >= 1 for every non-constant field
    for n, s, q, coeffs in [
        (1, 0.5, 3.0, [1.0, 0.0, 0.3]),
        (3, 2.0, 4.0, [1.0, 0.2, -0.1, 0.4]),
        (2, 1.0, 2.5, [0.5, 0.5]),
    ]:
        ps = derive_params(n, s, q)
        fld = field_from_descriptor({"coeffs": [[k, c] for k, c in enumerate(coeffs) if c]}, n)
        assert sharp_quotient(fld, ps) >= 1.0 - 1e-10


def test_quotient_strict_above_threshold_off_optimum():
    # a field with energy beyond degree 1 sits strictly above 1
    ps = derive_params(1, 0.5, 3.0)
    assert sharp_quotient(ZonalField(1, [1.0, 0.0, 0.3]), ps) > 1.0 + 1e-3


def test_quotient_entropy_denominator_at_two():
    ps = derive_params(1, 0.5, 2.0)
    fld = ZonalField(1, [1.0, 1e-4])
    assert sharp_quotient(fld, ps) == pytest.approx(1.0, abs=1e-7)


def test_quotient_custom_numerator():
    # ||F||_2^2 over the difference quotient, against the route through the norms
    ps = derive_params(2, 1.0, 3.0)
    fld = ZonalField(2, [1.0, 0.3])
    rule = sphere_rule(2, RULE_NODES)
    got = quadratic_form(fld, np.ones(fld.coeffs.size)) / difference_quotient(fld, ps, rule)
    den = (lq_norm(fld, 3.0, rule) ** 2 - lq_norm(fld, 2.0, rule) ** 2) / (3.0 - 2.0)
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


@pytest.mark.parametrize("desc,message", [
    ({"coeffs": [5]}, "coeffs entry 5 is not a [k, c] pair"),
    ({"coeffs": [[0, 1.0, 2.0]]}, "is not a [k, c] pair"),
    ({"coeffs": [[0, None]]}, "coeffs value None is not a number"),
    ({"coeffs": [[0, "1"]]}, "coeffs value '1' is not a number"),
    ({"family": "one_plus_eps_y1", "eps": None}, "eps must be a number, got None"),
    ({"family": "one_plus_eps_y1", "eps": True}, "eps must be a number, got True"),
    ({"family": "random_band_limited", "kmax": None, "seed": 1},
     "kmax must be a non-negative integer, got None"),
    ({"family": "random_band_limited", "kmax": 2.5, "seed": 1},
     "kmax must be a non-negative integer, got 2.5"),
    ({"family": "random_band_limited", "kmax": -1, "seed": 1},
     "kmax must be a non-negative integer, got -1"),
    ({"family": "random_band_limited", "kmax": 2, "seed": 1.7},
     "seed must be a non-negative integer, got 1.7"),
    ({"family": "random_band_limited", "kmax": 2, "seed": 1, "scale": None},
     "scale must be a number, got None"),
])
def test_descriptor_values_have_their_types(desc, message):
    with pytest.raises(ValueError) as exc:
        field_from_descriptor(desc, 2)
    assert message in str(exc.value) and "\n" not in str(exc.value)


def test_descriptor_accepts_integral_floats():
    # 2.0 is an integer, as for the integer options of the command line
    desc = {"family": "random_band_limited", "kmax": 2.0, "seed": 11.0}
    np.testing.assert_array_equal(
        field_from_descriptor(desc, 2).coeffs,
        field_from_descriptor({"family": "random_band_limited", "kmax": 2, "seed": 11}, 2).coeffs)


def test_random_band_limited_is_deterministic():
    desc = {"family": "random_band_limited", "kmax": 6, "seed": 11, "scale": 0.4}
    a = field_from_descriptor(desc, 2)
    b = field_from_descriptor(json.dumps(desc), 2)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    assert a.kmax == 6
    assert np.abs(a.coeffs - np.eye(7)[0]).max() <= 0.4 + 1e-15
