"""Stereographic transport, the periodized Fourier oracle, and the
line-side interpolation deficit."""

import math

import numpy as np
import pytest

from fracsphere import euclid
from fracsphere.euclid import (TWO_PI, EuclidParams, _chebyshev_rows, eigen_residual,
                               euclid_eigenvalue, f_star, jacobian,
                               pushforward, stereo_angle,
                               stereo_inverse, thm16_coefficients,
                               thm16_deficit)
from fracsphere.field import ZonalField, lq_norm
from fracsphere.specfun import sphere_rule
from fracsphere.spectrum import derive_params, gamma_sequence
from reference import (GridField, eigen_residual_oracle, frac_laplacian_oracle, grid_field,
                       weighted_norm)


def eigen_profile(s, k, x):
    """Oracle f_k(x) = cos(k arccos z) (1+x^2)^(-mu), z = (1-x^2)/(1+x^2):
    each degree from its own arccos, independent of the recurrence."""
    x = np.asarray(x, dtype=float)
    z = (1.0 - x * x) / (1.0 + x * x)
    mu = 0.5 * (1.0 - s)
    return np.cos(k * np.arccos(np.clip(z, -1.0, 1.0))) * (1.0 + x * x) ** (-mu)


def dirichlet_oracle(gf, s):
    """Grid estimate of int f (-Lap)^(s/2) f dx through the Fourier oracle."""
    return float((gf.values * frac_laplacian_oracle(gf, s).values).sum() * gf.h)


# ---------------------------------------------------------------------------
# geometry


def test_params_validation():
    with pytest.raises(ValueError):
        EuclidParams(0.0)
    with pytest.raises(ValueError):
        EuclidParams(1.0)
    for bad in ({"N": 0}, {"N": 1}, {"L": 0.0}, {"L": -5.0},
                {"L": float("inf")}, {"L": float("nan")}):
        with pytest.raises(ValueError):
            EuclidParams(0.5, **bad)
    # a grid size that is not an integer is refused, not rounded up by arange
    for bad in (1000.5, True, False, float("nan"), float("inf"), "1024", None):
        with pytest.raises(ValueError, match="grid size N must be an integer"):
            EuclidParams(0.5, N=bad)
    with pytest.raises(ValueError, match="must be an integer"):
        eigen_residual(0.5, 0, 60.0, 1000.5)
    # an integral float is the integer it holds, as the CLI's int options take it
    for whole in (np.float64(2.0 ** 15), 2.0 ** 15, np.int64(2 ** 15)):
        eu = EuclidParams(0.5, N=whole)
        assert type(eu.N) is int and eu.N == 2 ** 15
    assert eigen_residual(0.5, 1, 60.0, np.float64(2.0 ** 15)) == eigen_residual(0.5, 1)
    eu = EuclidParams(0.5, L=30.0, N=2 ** 10)
    assert eu.mu == 0.25
    assert eu.h == pytest.approx(60.0 / 1024)
    assert eu.grid().size == 1024 and eu.grid()[0] == -30.0


def test_stereo_fixed_points():
    # the origin lands on the north pole; |x| = 1 on the equator
    assert stereo_angle(0.0) == 0.0
    assert stereo_angle(1.0) == pytest.approx(0.5 * math.pi, rel=1e-15)
    assert stereo_angle(-1.0) == pytest.approx(-0.5 * math.pi, rel=1e-15)


def test_stereo_roundtrip():
    x = np.linspace(-40.0, 40.0, 501)
    np.testing.assert_allclose(stereo_inverse(stereo_angle(x)), x,
                               rtol=1e-12, atol=1e-14)


def test_jacobian_integrates_to_circle_length():
    assert jacobian(0.0) == 2.0
    eu = EuclidParams(0.5)
    val, _ = weighted_norm(grid_field(jacobian, eu), 1.0)
    assert val == pytest.approx(2.0 * math.pi, rel=1e-9)


def test_pushforward_of_constant_is_optimizer():
    ps = derive_params(1, 0.5, 3.0)
    x = np.linspace(-20.0, 20.0, 301)
    np.testing.assert_allclose(pushforward(lambda t: np.ones_like(t), ps, x),
                               f_star(0.5, x), rtol=1e-14)
    # at the origin the conformal factor is 2^(1/q*)
    assert pushforward(lambda t: np.ones_like(t), ps, np.array([0.0]))[0] == \
        pytest.approx(2.0 ** (1.0 / ps.q_star), rel=1e-15)


# ---------------------------------------------------------------------------
# explicit diagonalization data


def test_eigenvalue_frozen_values():
    assert euclid_eigenvalue(0.5, 0) == pytest.approx(0.477988797486125, rel=1e-13)
    assert euclid_eigenvalue(0.3, 0) == pytest.approx(0.669593220165936448, rel=1e-13)
    assert euclid_eigenvalue(0.7, 0) == pytest.approx(0.290539530834249745, rel=1e-13)


def test_eigenvalue_ratios_match_sphere_spectrum():
    ps = derive_params(1, 0.5, 3.0)
    lam = np.array([euclid_eigenvalue(0.5, k) for k in range(8)])
    np.testing.assert_allclose(lam / lam[0], gamma_sequence(1, ps.x_crit, 7),
                               rtol=1e-13)


@pytest.mark.parametrize("s", [0.05, 0.2, 0.5, 0.8, 0.95])
def test_eigenvalues_match_50_digit_gamma_ratio(s):
    # independent of gamma_sequence: 2^s Gamma(k + (1+s)/2) / Gamma(k + (1-s)/2)
    # in mpmath, up to k = 106, the top degree of a --kmax 100 residual
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        x = mpmath.mpf(s)
        for k in range(107):
            want = 2 ** x * mpmath.gamma(k + (1 + x) / 2) / mpmath.gamma(k + (1 - x) / 2)
            assert abs(euclid_eigenvalue(s, k) / want - 1) <= 5e-14, k


def test_eigen_profile_degree_zero():
    x = np.linspace(-5.0, 5.0, 101)
    np.testing.assert_allclose(eigen_profile(0.5, 0, x),
                               (1.0 + x * x) ** -0.25, rtol=1e-14)


def test_chebyshev_rows_match_arccos_oracle():
    # the recurrence behind eigen_residual against one arccos per degree,
    # on the grid eigen_residual uses by default
    s = 0.5
    x = EuclidParams(s).grid()
    u = 1.0 + x * x
    z, envelope = (1.0 - x * x) / u, u ** -0.25
    degrees = tuple(range(18))
    rows = _chebyshev_rows(z, envelope, degrees)
    assert len(rows) == len(degrees)
    for j, row in zip(degrees, rows):
        np.testing.assert_allclose(row, eigen_profile(s, j, x),
                                   rtol=0.0, atol=5e-14)
    # a sparse choice of degrees returns just those rows
    sparse = _chebyshev_rows(z, envelope, (11, 13, 15, 17))
    for j, row in zip((11, 13, 15, 17), sparse):
        np.testing.assert_array_equal(row, rows[j])


# ---------------------------------------------------------------------------
# Fourier oracle


GAUSS_DIRICHLET = 1.03044851229499558   # 2^(-1/4) Gamma(3/4)
GAUSS_POINT = 0.977741067446923798      # sqrt(2/pi) Gamma(3/4)


@pytest.fixture(scope="module")
def gauss30():
    eu = EuclidParams(0.5, L=30.0, N=2 ** 13)
    return grid_field(lambda x: np.exp(-x * x), eu)


def test_oracle_dirichlet_for_gaussian(gauss30):
    # the |xi|^s cusp caps the grid accuracy near 1e-2 at this window
    assert dirichlet_oracle(gauss30, 0.5) == pytest.approx(GAUSS_DIRICHLET, rel=1e-2)


def test_oracle_pointwise_for_gaussian(gauss30):
    out = frac_laplacian_oracle(gauss30, 0.5)
    i0 = int(np.argmin(np.abs(gauss30.x)))
    assert gauss30.x[i0] == 0.0
    assert out.values[i0] == pytest.approx(GAUSS_POINT, rel=1e-2)


def test_oracle_is_linear(gauss30):
    doubled = GridField(x=gauss30.x, values=2.0 * gauss30.values)
    np.testing.assert_allclose(frac_laplacian_oracle(doubled, 0.5).values,
                               2.0 * frac_laplacian_oracle(gauss30, 0.5).values,
                               rtol=0.0, atol=1e-12)


def test_oracle_small_order_is_mean_free_identity(gauss30):
    # as s -> 0 the multiplier tends to 1 except for the zeroed DC mode
    out = frac_laplacian_oracle(gauss30, 1e-12).values
    np.testing.assert_allclose(out, gauss30.values - gauss30.values.mean(),
                               atol=1e-10)


def test_oracle_refuses_slowly_decaying_input():
    eu = EuclidParams(0.5)
    slow = grid_field(lambda x: f_star(0.5, x), eu)
    with pytest.raises(ValueError, match="decay"):
        frac_laplacian_oracle(slow, 0.5)


def test_multiplier_makes_no_complex_transform(gauss30, monkeypatch):
    # the |xi|^s multiplier of a real, even symbol runs on the half
    # spectrum; the full complex form is kept here as the reference
    xi = 2.0 * math.pi * np.fft.fftfreq(gauss30.values.size, d=gauss30.h)
    ref = np.fft.ifft(np.abs(xi) ** 0.5 * np.fft.fft(gauss30.values)).real

    def refuse(*args, **kwargs):
        raise AssertionError("complex FFT on real data")
    monkeypatch.setattr(euclid.np.fft, "fft", refuse)
    monkeypatch.setattr(euclid.np.fft, "ifft", refuse)
    out = frac_laplacian_oracle(gauss30, 0.5).values
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
    assert eigen_residual(0.5, 1) < 1e-4


def test_oracle_accepts_zero_field():
    eu = EuclidParams(0.5, L=10.0, N=256)
    out = frac_laplacian_oracle(GridField(x=eu.grid(), values=np.zeros(256)), 0.5)
    assert np.all(out.values == 0.0)


# ---------------------------------------------------------------------------
# weighted integrals


def test_weighted_norm_of_bare_profile():
    # int (1+x^2)^(-1/2-... ) dx with q=2, beta=1 is exactly pi
    eu = EuclidParams(0.5)
    gf = grid_field(lambda x: (1.0 + x * x) ** -0.25, eu)
    val, frac = weighted_norm(gf, 2.0, beta=1.0)
    assert val == pytest.approx(math.pi, rel=1e-9)
    assert 0.0 < frac < 0.05


def test_weighted_norm_plain_gaussian():
    eu = EuclidParams(0.5)
    val, frac = weighted_norm(grid_field(lambda x: np.exp(-x * x), eu), 2.0)
    assert val == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)
    assert frac == pytest.approx(0.0, abs=1e-12)


def test_weighted_norm_of_zero_field():
    eu = EuclidParams(0.5, L=10.0, N=256)
    assert weighted_norm(GridField(x=eu.grid(), values=np.zeros(256)), 2.0) == (0.0, 0.0)


def test_critical_norm_transport():
    # int |f|^q* dx = |S^1| ||F||_{q*}^{q*} under the conformal factor
    ps = derive_params(1, 0.5, 3.0)
    eu = EuclidParams(0.5)
    F = lambda th: 1.0 + 0.2 * math.sqrt(2.0) * np.cos(th)
    f = grid_field(lambda x: pushforward(F, ps, x), eu)
    line, _ = weighted_norm(f, ps.q_star)
    norm = lq_norm(ZonalField(1, [1.0, 0.2]), ps.q_star, sphere_rule(1, 128))
    circ = TWO_PI * norm ** ps.q_star
    assert line == pytest.approx(circ, rel=2e-5)


def test_conformal_dirichlet_invariance():
    # the line Dirichlet integral of a transported band-limited profile
    # equals |S^1|/kappa sum gamma_k c_k^2.  The profile must vanish to
    # second order at the projection pole (F(pi) = F''(pi) = 0), else
    # the transported field decays too slowly for the periodized oracle.
    ps = derive_params(1, 0.5, 3.0)
    c = np.array([-0.1 * math.sqrt(2.0), 0.2, 0.5, 0.2])
    assert abs(c[0] - math.sqrt(2.0) * (c[1] - c[2] + c[3])) < 1e-15
    assert abs(-c[1] + 4.0 * c[2] - 9.0 * c[3]) < 1e-15

    def F(th):
        return c[0] + math.sqrt(2.0) * (c[1] * np.cos(th) + c[2] * np.cos(2 * th)
                                        + c[3] * np.cos(3 * th))

    eu = EuclidParams(0.5, L=240.0, N=2 ** 16)
    f = grid_field(lambda x: pushforward(F, ps, x), eu)
    line = dirichlet_oracle(f, 0.5)
    gam = gamma_sequence(1, ps.x_crit, 3)
    circ = TWO_PI / ps.kappa * float((gam * c * c).sum())
    assert line == pytest.approx(circ, rel=1e-3)


# ---------------------------------------------------------------------------
# eigenfunction residual


@pytest.mark.parametrize("s,k", [(0.3, 1), (0.7, 2)])
def test_eigen_residual_small(s, k):
    assert eigen_residual(s, k) <= 1e-3


def test_eigen_residual_decreases_with_resolution():
    coarse = eigen_residual(0.3, 1)
    fine = eigen_residual(0.3, 1, L=120.0, N=2 ** 16)
    assert fine < coarse


@pytest.mark.parametrize("L,N", [(60.0, 2 ** 15), (120.0, 2 ** 16), (7.0, 1000), (60.0, 2)])
def test_eigen_residual_matches_unmemoised_oracle_bitwise(L, N):
    # memoised factors and in-place buffers change no float of the residual
    for s in (0.01, 0.2, 0.3, 0.35, 0.5, 0.65, 0.8, 0.99):
        for k in range(14):
            assert eigen_residual(s, k, L, N) == eigen_residual_oracle(s, k, L, N), (s, k)


def test_eigen_residual_nan_on_overflowing_grid_as_oracle():
    assert math.isnan(eigen_residual(0.5, 1, 1e200))
    assert math.isnan(eigen_residual_oracle(0.5, 1, 1e200))


def test_line_factors_built_once_per_order():
    cached = euclid._line_factors
    cached.cache_clear()
    for k in range(12):
        eigen_residual(0.35, k)
    info = cached.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 11, 1)
    envelope, z, weight, symbol = cached(0.35, EuclidParams.L, EuclidParams.N)
    assert symbol.size == EuclidParams.N // 2 + 1
    for a in (envelope, z, weight, symbol):
        with pytest.raises(ValueError):
            a[0] = 0.0
        with pytest.raises(ValueError):
            a *= 2.0


def test_bad_line_grid_leaves_nothing_in_factor_cache():
    cached = euclid._line_factors
    cached.cache_clear()
    for s, L, N in [(0.0, 60.0, 2 ** 10), (1.0, 60.0, 2 ** 10), (0.5, 0.0, 2 ** 10),
                    (0.5, float("nan"), 2 ** 10), (0.5, 60.0, 1), (0.5, 60.0, euclid.MAX_N + 1)]:
        with pytest.raises(ValueError):
            eigen_residual(s, 0, L, N)
    assert cached.cache_info().currsize == 0


def test_eigen_residual_detects_wrong_eigenvalue(monkeypatch):
    # k = 1 combines degrees 1, 3, 5 and 7; a 1e-3 error in any one of
    # their eigenvalues must lift the residual well above the true one
    true = eigen_residual(0.5, 1)
    assert true < 1e-4
    for wrong in (1, 3, 5, 7):
        def perturbed(s, k, wrong=wrong):
            return euclid_eigenvalue(s, k) * (1.0 + 1e-3 if k == wrong else 1.0)
        monkeypatch.setattr(euclid, "euclid_eigenvalue", perturbed)
        assert eigen_residual(0.5, 1) >= 10.0 * true, wrong


# ---------------------------------------------------------------------------
# two-endpoint deficit on the line


def test_thm16_optimizer_is_equality_case():
    ps = derive_params(1, 0.5, 3.0)
    rep = thm16_deficit(lambda x: f_star(0.5, x), ps)
    assert rep.kind == "line_interpolation"
    assert abs(rep.deficit) <= 1e-10
    assert rep.lhs == pytest.approx(3.03352966508339587, rel=1e-12)


@pytest.mark.parametrize("s", [1e-6, 1e-3, 0.05, 0.2, 0.5, 0.8, 0.95, 0.99])
def test_thm16_optimizer_deficit_is_roundoff_across_s_and_q(s):
    # the floor under euclid's two-sided 1e-12 max(1, |rhs|) gate, from the
    # entropy end q = 2 to the critical exponent
    q_star = derive_params(1, s).q_star
    for q in (2.0, 2.0 + 1e-9, 0.5 * (2.0 + q_star), q_star - 1e-9, q_star):
        rep = thm16_deficit(lambda x: f_star(s, x), derive_params(1, s, q))
        assert abs(rep.deficit) <= 1e-14 * max(1.0, abs(rep.rhs)), (q, rep.deficit)
        assert rep.field is None


def test_thm16_perturbed_field_has_positive_deficit():
    ps = derive_params(1, 0.5, 3.0)
    rep = thm16_deficit(
        lambda x: f_star(0.5, x) * (1.0 + 0.1 * x / (1.0 + x * x)), ps)
    assert rep.deficit > 1e-7


def test_thm16_coefficients_at_entropy_endpoint():
    a, b = thm16_coefficients(derive_params(1, 0.5, 2.0))
    assert a == 0.0 and b == 1.0
    # q_star = 2 / (1 - s) rounds to 2.0 at this s: still (0, 1), no division
    assert thm16_coefficients(derive_params(1, 1e-17, 2.0)) == (0.0, 1.0)


def test_thm16_coefficients_sum_rule():
    # at q = q* the weighted term drops out entirely
    ps = derive_params(1, 0.5)
    a, b = thm16_coefficients(ps)
    assert b == 0.0 and a > 0.0


def test_thm16_rejects_exponent_outside_range():
    with pytest.raises(ValueError):
        thm16_deficit(lambda x: f_star(0.5, x), derive_params(1, 0.5, 1.5))
    with pytest.raises(ValueError):
        thm16_deficit(lambda x: f_star(0.5, x), derive_params(1, -0.5, 1.2))
