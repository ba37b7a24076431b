"""Entropy decay of the fractional diffusion flow on the circle."""

import itertools
import json
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import fracsphere
from fracsphere.field import field_from_descriptor
from fracsphere.flow import (ENTROPY_FLOOR, MAX_STEPS, RK4_REAL_LIMIT, FlowConfig, FlowOps,
                             fit_rate, rk4_step, run_flow)
from fracsphere.spectrum import delta_sequence, derive_params


@pytest.fixture(scope="module")
def short_run():
    return run_flow(FlowConfig(s=0.5, q=4.0, kmax=16, t_max=3.0))


# ---------------------------------------------------------------------------
# entropy functional


def entropy_eq(u, q):
    """The flow's entropy of a nodal density under uniform weights."""
    return FlowOps(FlowConfig(q=q)).entropy(np.asarray(u, dtype=float))


def test_entropy_of_constant_density():
    assert entropy_eq(np.full(64, 2.5), 4.0) == pytest.approx(0.0, abs=1e-15)


def test_entropy_small_perturbation():
    theta = np.pi * (np.arange(256) + 0.5) / 256
    for eps in (1e-2, 1e-3):
        u = (1.0 + eps * math.sqrt(2.0) * np.cos(theta)) ** 4.0
        assert entropy_eq(u, 4.0) == pytest.approx(eps ** 2, rel=0.05)


def test_entropy_scaling():
    u = 1.0 + 0.3 * np.cos(np.linspace(0.1, 3.0, 50))
    q = 3.0
    assert entropy_eq(2.0 * u, q) == pytest.approx(
        2.0 ** (2.0 / q) * entropy_eq(u, q), rel=1e-12)


def test_entropy_positive_for_q_below_two():
    u = 1.0 + 0.3 * np.cos(np.linspace(0.1, 3.0, 50))
    assert entropy_eq(u, 1.0) > 0.0
    assert entropy_eq(u, 4.0) > 0.0


def test_late_entropy_matches_50_digits():
    # near equilibrium E is ~5e-8 while both norms are ~1: their plain
    # difference keeps only half of the digits
    ops = FlowOps(FlowConfig(s=1.0, q=4.0, kmax=16,
                             init={"family": "one_plus_eps_y1", "eps": 1e-3}))
    u = ops.init_values()
    for _ in range(1500):
        u = rk4_step(ops, u, 1e-3)
    with mpmath.workdps(50):
        uu = [mpmath.mpf(float(x)) for x in u]
        ref = ((mpmath.fsum(uu) / len(uu)) ** 0.5
               - mpmath.fsum(mpmath.sqrt(x) for x in uu) / len(uu)) / 2
    e = ops.entropy(u)
    assert e < 1e-7
    assert e == pytest.approx(float(ref), rel=1e-12, abs=0.0)


def test_entropy_continuous_at_q_two():
    # the L^q quotient needs no window: E at q = 2 lies between its neighbours
    u = 1.0 + 0.3 * np.cos(np.linspace(0.1, 3.0, 50))
    lo, mid, hi = (entropy_eq(u, q) for q in (2.0 - 1e-7, 2.0, 2.0 + 1e-7))
    assert min(lo, hi) <= mid <= max(lo, hi)


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError):
        FlowOps(FlowConfig(n=2))
    with pytest.raises(ValueError):
        FlowOps(FlowConfig(s=0.0))
    with pytest.raises(ValueError):
        FlowOps(FlowConfig(s=1.5))
    with pytest.raises(ValueError):
        FlowOps(FlowConfig(q=0.5))
    for bad in ({"kmax": 0}, {"dt": 0.0}, {"dt": -1e-3}, {"dt": math.nan},
                {"t_max": 0.0}, {"sample_every": 0}):
        with pytest.raises(ValueError, match="must be"):
            FlowOps(FlowConfig(**bad))


def test_initial_profile_must_be_positive():
    ops = FlowOps(FlowConfig(init={"coeffs": [[0, 0.5], [1, 1.0]]}))
    with pytest.raises(ValueError):
        ops.init_values()


@pytest.mark.parametrize("init", [
    {"family": "one_plus_eps_y1", "eps": math.nan},
    {"family": "one_plus_eps_y1", "eps": math.inf},
    {"coeffs": [[0, math.inf]]},
    {"coeffs": [[0, 1e308], [1, 1e308]]},
])
def test_non_finite_initial_profile_is_refused(init):
    # NaN compares false with everything: the check must not pass it
    ops = FlowOps(FlowConfig(init=init))
    with pytest.raises(ValueError, match="initial profile must be strictly positive"):
        ops.init_values()


def test_init_degree_above_kmax_is_rejected():
    ops = FlowOps(FlowConfig(kmax=32, init={"coeffs": [[0, 1.0], [40, 0.01]]}))
    with pytest.raises(ValueError, match=r"init has degree 40 > kmax = 32"):
        ops.init_values()


class _NoNumpy:
    def __getattr__(self, name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"numpy.{name} called before the degree check")
        return refuse


@pytest.mark.parametrize("init", [
    {"coeffs": [[0, 1.0], [10 ** 9, 1.0]]},
    {"family": "random_band_limited", "kmax": 10 ** 9, "seed": 0},
])
def test_huge_init_degree_is_rejected_before_allocation(init, monkeypatch):
    # at the degree 1e9 the coefficient vector alone would take 8 GB: the
    # descriptor must be refused before field builds anything with numpy
    ops = FlowOps(FlowConfig(kmax=32, init=init))
    monkeypatch.setattr(fracsphere.field, "np", _NoNumpy())
    with pytest.raises(ValueError, match=r"init has degree 1000000000 > kmax = 32"):
        ops.init_values()


# ---------------------------------------------------------------------------
# the Fourier multipliers against the dense cosine/sine-matrix reference


class DenseFlow:
    """FlowOps by explicit cosine/sine sums over the m midpoints, on
    every mode 0 < k < m, O(m^2) per right-hand side: an independent
    reference for the Fourier-multiplier form.  The angles k theta_i are
    reduced mod 2 pi in integer arithmetic, so the matrices are accurate
    to roundoff at every k."""

    def __init__(self, ops):
        m = ops.m
        self.ops, self.m, self.q = ops, m, ops.q

        def basis(fn, k):
            turns = np.outer(k, 2 * np.arange(m) + 1) % (4 * m)
            return math.sqrt(2.0) * fn(np.pi * turns / (2 * m))

        self.cosb = basis(np.cos, np.arange(m))
        self.cosb[0] = 1.0
        self.ks = np.arange(1, m)
        self.sinb = basis(np.sin, self.ks)
        self.delta = delta_sequence(1, ops.cfg.s, m - 1)
        self.grad_mult = -self.q * self.delta[1:] / self.ks

    def init_values(self):
        fld = field_from_descriptor(self.ops.cfg.init, 1)
        return (fld.coeffs @ self.cosb[:fld.coeffs.size]) ** self.q

    def cos_coeffs(self, v):
        return self.cosb @ v / self.m

    def rhs(self, u):
        # mode 0 of w is not in the operator; removed before the sums, its
        # leak through the rounded basis cannot reach the amplified top modes
        u = np.maximum(u, self.ops.cfg.clamp_floor)
        w = u ** (1.0 / self.q)
        a = self.cos_coeffs(w - w[0])
        dpsi = (self.grad_mult * a[1:]) @ self.sinb
        flux = u ** (1.0 - 1.0 / self.q) * dpsi
        b = self.sinb @ flux / self.m
        return (b * self.ks) @ self.cosb[1:]

    def dissipation(self, u):
        a = self.cos_coeffs(np.maximum(u, self.ops.cfg.clamp_floor) ** (1.0 / self.q))
        return 2.0 * float((self.delta * a * a).sum())


def positive_profile(kmax, seed):
    """1 + sum_k c_k sqrt(2) cos k theta with |c_k| <= 0.3 / k^2, so the
    perturbation is below 0.3 sqrt(2) pi^2 / 6 < 0.7 everywhere."""
    rng = np.random.default_rng(seed)
    return {"coeffs": [[0, 1.0]] + [[k, 0.3 * rng.uniform(-1.0, 1.0) / k ** 2]
                                    for k in range(1, kmax + 1)]}


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("kmax", [1, 8, 32, 256])
@pytest.mark.parametrize("seed,q", [(0, 4.0), (1, 1.5), (2, 3.0)])
def test_fourier_multipliers_match_dense_reference(kmax, seed, q):
    ops = FlowOps(FlowConfig(q=q, kmax=kmax, init=positive_profile(kmax, seed)))
    ref = DenseFlow(ops)
    u = ops.init_values()
    assert rel_err(u, ref.init_values()) <= 1e-12
    assert rel_err(ops.cos_coeffs(u), ref.cos_coeffs(u)) <= 1e-12
    du = ops.rhs(u)
    assert rel_err(du, ref.rhs(u)) <= 1e-12
    assert abs(du.mean()) <= 1e-15
    assert ops.dissipation(u) == pytest.approx(ref.dissipation(u), rel=1e-12)


def test_flow_ops_hold_only_grid_sized_arrays():
    ops = FlowOps(FlowConfig(kmax=256))
    held = sum(v.nbytes for v in vars(ops).values() if hasattr(v, "nbytes"))
    assert held < 100_000


def test_wide_flow_at_kmax_1024():
    ops = FlowOps(FlowConfig(kmax=1024))
    u = ops.init_values()
    mass, entropy = [ops.mass(u)], [ops.entropy(u)]
    for _ in range(100):
        u = rk4_step(ops, u, 1e-3)
        mass.append(ops.mass(u))
        entropy.append(ops.entropy(u))
    assert np.abs(np.asarray(mass) - mass[0]).max() <= 1e-12
    assert np.all(np.diff(entropy) < 0.0)


def test_import_leaves_numpy_fft_unloaded():
    # flow and euclid reach np.fft at call time; loading it eagerly
    # would cost every command that never transforms anything
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fracsphere.__file__)))
    code = "import sys, fracsphere; print('numpy.fft' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


# ---------------------------------------------------------------------------
# exact linear regime at q = 1


@pytest.mark.parametrize("s,k", [(0.5, 2), (1.0, 4)])
def test_single_mode_decay_at_q_one(s, k):
    # at q = 1 the flow is linear, so mode k decays exactly like
    # exp(-delta_k t); RK4 reproduces that to ~1e-12 at this step size
    cfg = FlowConfig(s=s, q=1.0, kmax=8, dt=1e-3,
                     init={"coeffs": [[0, 1.0], [k, 0.01]]})
    ops = FlowOps(cfg)
    u = ops.init_values()
    a0 = ops.cos_coeffs(u)[k]
    for _ in range(500):
        u = rk4_step(ops, u, 1e-3)
    decay = ops.cos_coeffs(u)[k] / a0
    assert decay == pytest.approx(math.exp(-delta_sequence(1, s, k)[k] * 0.5), rel=1e-4)


# ---------------------------------------------------------------------------
# conservation laws and the decay estimate


def test_mass_is_conserved(short_run):
    assert short_run.mass_drift <= 1e-8


def test_entropy_decreases(short_run):
    assert np.all(np.diff(short_run.entropy) < 0.0)


def test_exponential_bound_every_sample(short_run):
    assert np.all(short_run.entropy <= short_run.bound * (1.0 + 1e-9) + 1e-15)


@pytest.mark.parametrize("s,q,init,mode", [
    (1.0, 3.0, [[0, 1.0], [5, 0.5], [9, 0.15]], 1),
    (1.0, 3.0, [[0, 1.0], [2, 0.65]], 2),
    (0.5, 4.0, [[0, 1.0], [2, 0.65]], 2),
])
def test_far_from_constant_data_meet_the_bound(s, q, init, mode):
    # the nonlinearity moves energy into every mode of the grid; a flow
    # that damped only k <= kmax stalled on these data above the bound
    # E(0) exp(-2t/C) (the first) or at a few per cent of the rate (the
    # others).  The asymptotic rate is 2 delta_j of the slowest excited
    # mode j: mode 1 from 2 * 5 - 9, only even modes from degree 2
    res = run_flow(FlowConfig(s=s, q=q, init={"coeffs": init}))
    assert np.all(res.entropy <= res.bound * (1.0 + 1e-9) + 1e-10)
    delta = delta_sequence(1, s, mode)
    assert res.ratio == pytest.approx(delta[mode] / delta[1], rel=5e-3)


def test_fitted_rate_near_spectral_gap(short_run):
    assert short_run.theoretical_rate == pytest.approx(
        2.0 / derive_params(1, 0.5, 1.0).constant, rel=1e-14)
    assert abs(short_run.ratio - 1.0) <= 0.02


def test_dissipation_matches_entropy_derivative():
    cfg = FlowConfig(s=0.5, q=4.0, kmax=16, dt=1e-3,
                     init={"coeffs": [[0, 1.0], [1, 0.1], [3, 0.05]]})
    ops = FlowOps(cfg)
    u = ops.init_values()
    for _ in range(200):
        u = rk4_step(ops, u, 1e-3)
    h = 1e-4
    dE = (ops.entropy(rk4_step(ops, u, h)) - ops.entropy(rk4_step(ops, u, -h))) / (2 * h)
    assert -dE == pytest.approx(ops.dissipation(u), rel=1e-6)


def test_rate_insensitive_to_step_size():
    kw = dict(s=0.5, q=4.0, kmax=8, t_max=2.0)
    a = run_flow(FlowConfig(dt=2e-3, sample_every=25, **kw))
    b = run_flow(FlowConfig(dt=1e-3, sample_every=50, **kw))
    assert a.fitted_rate == pytest.approx(b.fitted_rate, rel=1e-3)


def test_constant_initial_data_gives_flat_series():
    r = run_flow(FlowConfig(t_max=0.5, init={"coeffs": [[0, 1.0]]}))
    assert math.isnan(r.fitted_rate)
    assert np.abs(r.entropy).max() <= ENTROPY_FLOOR


def test_step_count_lies_between_one_and_max_steps():
    assert FlowOps(FlowConfig(dt=1e-6, t_max=10.0)).steps == MAX_STEPS
    assert FlowOps(FlowConfig(dt=0.01, t_max=0.006)).steps == 1
    for bad in ({"dt": 1.0, "t_max": 0.4}, {"t_max": 1e-9}, {"dt": 1e-300},
                {"dt": 1e-300, "t_max": 1e300}, {"dt": 1e-6, "t_max": 10.00001}):
        with pytest.raises(ValueError, match="must round to between 1 and"):
            FlowOps(FlowConfig(**bad))


def test_step_count_cap_scales_with_the_grid():
    # one cap on steps times grid points: 10^7 steps on the default
    # 128-point grid, half as many on the 256 points of kmax 64
    assert FlowOps(FlowConfig(kmax=64, dt=1e-6, t_max=5.0)).steps == MAX_STEPS // 2
    with pytest.raises(ValueError, match="must round to between 1 and 5000000 steps"):
        FlowOps(FlowConfig(kmax=64, dt=1e-6, t_max=5.00001))


def test_step_above_the_rk4_limit_is_refused():
    # delta_k = k at s = 1: 2047 * 1e-3 is inside RK4's real-axis limit
    # 2.785, 4095 * 1e-3 and 2787 * 1e-3 (kmax 697) are not
    assert FlowOps(FlowConfig(s=1.0, kmax=512, t_max=0.2)).steps == 200
    assert FlowOps(FlowConfig(s=1.0, kmax=696, t_max=0.2)).steps == 200
    for kmax in (697, 1024):
        with pytest.raises(ValueError, match=f"^dt must be at most .* on {4 * kmax} grid "
                                             "points at s = 1.0$"):
            FlowOps(FlowConfig(s=1.0, kmax=kmax, t_max=0.2))
    # the step count is checked first
    with pytest.raises(ValueError, match="must round to between 1 and"):
        FlowOps(FlowConfig(s=1.0, kmax=1024, dt=1.0, t_max=0.4))


def test_rk4_limit_is_where_the_top_mode_starts_to_grow():
    # about u = 1 the step multiplies mode m - 1 by R(-dt delta_(m-1)),
    # R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24: 0.92 at 0.98 times the limit, 1.23 at 1.05
    ops = FlowOps(FlowConfig(s=1.0, kmax=128))
    top = np.cos((ops.m - 1) * np.pi * (np.arange(ops.m) + 0.5) / ops.m)
    for factor in (0.98, 1.05):
        u = 1.0 + 1e-10 * top
        for _ in range(50):
            u = rk4_step(ops, u, factor * RK4_REAL_LIMIT / ops.delta[-1])
        growth = abs(ops.cos_coeffs(u)[-1]) / (1e-10 / math.sqrt(2.0))
        assert (growth > 1.0) == (factor > 1.0), (factor, growth)


def _rhs_turning_inf(calls):
    """FlowOps.rhs that returns inf from the given number of calls on."""
    real, count = FlowOps.rhs, itertools.count()

    def rhs(ops, u):
        return real(ops, u) if next(count) < calls else np.full_like(u, np.inf)
    return rhs


def test_blow_up_ends_the_run_with_a_nan_sample(monkeypatch):
    # a stable step does not blow up on smooth data; a stand-in right-hand
    # side that turns inf after 100 steps makes rk4_step refuse the step
    monkeypatch.setattr(FlowOps, "rhs", _rhs_turning_inf(4 * 100))
    res = run_flow(FlowConfig(s=1.0, kmax=128, dt=1e-3, t_max=20.0))
    assert math.isnan(res.entropy[-1]) and math.isnan(res.mass[-1])
    assert np.isfinite(res.entropy[:-1]).all() and res.times[-1] < 20.0


def test_blowup_is_reported():
    ops = FlowOps(FlowConfig())
    u = ops.init_values()
    with pytest.raises(FloatingPointError), np.errstate(all="ignore"):
        for _ in range(200):
            u = rk4_step(ops, u, 1e4)


# far from constant: min u0 is 5.8e-4, and on wide grids RK4 at the default
# dt drives u below zero within a few steps, though dt is inside its limit
FAR_DATUM = {"coeffs": [[0, 1.0], [5, 0.5], [9, 0.15]]}


@pytest.mark.parametrize("kmax,t_last", [(128, 0.01), (256, 0.005)])
def test_a_state_below_the_floor_ends_the_run_with_a_nan_sample(kmax, t_last):
    # a floor that lifted such values let these runs finish quietly, with
    # E(0.2) = 0.02189 at kmax 128 and 0.01866 at kmax 256
    res = run_flow(FlowConfig(s=1.0, q=3.0, kmax=kmax, t_max=0.2, init=FAR_DATUM))
    assert res.times[-1] == t_last
    assert math.isnan(res.entropy[-1]) and math.isnan(res.mass[-1])
    assert np.isfinite(res.entropy[:-1]).all()


def test_rk4_step_refuses_a_result_at_the_floor():
    ops = FlowOps(FlowConfig(q=1.0))    # at q = 1, rhs is linear and finite at any u
    u = np.full(ops.m, ops.cfg.clamp_floor)
    with pytest.raises(FloatingPointError, match="left the positive finite states"):
        rk4_step(ops, u, 1e-3)
    assert (rk4_step(ops, 2.0 * u, 1e-3) == 2.0 * u).all()


def test_initial_density_at_the_floor_is_refused():
    # w0 = 1 + 0.7071 sqrt(2) cos theta is 8.5e-5 at the node nearest theta = pi,
    # so u0 = w0^4 is 5.2e-17 there: positive, and below the floor
    ops = FlowOps(FlowConfig(init={"coeffs": [[0, 1.0], [1, 0.7071]]}))
    with pytest.raises(ValueError, match=r"strictly positive and finite, u0 > 1e-12$"):
        ops.init_values()


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_rate_recovers_synthetic_decay():
    t = np.linspace(0.0, 5.0, 200)
    assert fit_rate(t, 0.37 * np.exp(-3.0 * t)) == pytest.approx(3.0, rel=1e-10)


def test_fit_rate_needs_enough_samples():
    t = np.linspace(0.0, 5.0, 30)
    with pytest.raises(ValueError):
        fit_rate(t, np.zeros(30))
    with pytest.raises(ValueError):
        fit_rate(t[:6], np.exp(-t[:6]))


# ---------------------------------------------------------------------------
# serialization


def test_csv_and_summary_are_deterministic(short_run):
    text = short_run.csv()
    lines = text.strip().split("\n")
    assert lines[0] == "t,entropy,mass,bound"
    assert len(lines) == short_run.times.size + 1
    # values survive the float round trip exactly
    first = lines[1].split(",")
    assert float(first[1]) == short_run.entropy[0]

    data = json.loads(short_run.summary())
    assert set(data) == {"fitted_rate", "mass_drift", "q", "ratio", "s",
                         "samples", "theoretical_rate"}
    assert data["samples"] == short_run.times.size

    again = run_flow(FlowConfig(s=0.5, q=4.0, kmax=16, t_max=3.0))
    assert again.csv() == text and again.summary() == short_run.summary()
