"""Entropy decay of the fractional diffusion flow on the circle."""

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
from fracsphere.flow import (ENTROPY_FLOOR, FlowConfig, FlowOps, fit_rate,
                             rk4_step, run_flow)
from fracsphere.spectrum import delta_sequence, sharp_constant


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


def test_entropy_rejects_q_two():
    with pytest.raises(ValueError):
        entropy_eq(np.ones(8), 2.0)
    with pytest.raises(ValueError):
        entropy_eq(np.ones(8), 2.0 + 1e-12)


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
        FlowOps(FlowConfig(q=2.0))
    for bad in ({"kmax": 0}, {"dt": 0.0}, {"dt": -1e-3}, {"dt": math.nan},
                {"t_max": 0.0}, {"sample_every": 0}):
        with pytest.raises(ValueError, match="must be"):
            FlowOps(FlowConfig(**bad))


def test_initial_profile_must_be_positive():
    ops = FlowOps(FlowConfig(init={"coeffs": [[0, 0.5], [1, 1.0]]}))
    with pytest.raises(ValueError):
        ops.init_values()


def test_init_degree_above_kmax_is_rejected():
    ops = FlowOps(FlowConfig(kmax=32, init={"coeffs": [[0, 1.0], [40, 0.01]]}))
    with pytest.raises(ValueError, match=r"init has degree 40 > kmax = 32"):
        ops.init_values()


# ---------------------------------------------------------------------------
# the Fourier multipliers against the dense cosine/sine-matrix reference


class DenseFlow:
    """FlowOps by explicit cosine/sine sums over the m midpoints,
    O(kmax m) per right-hand side: an independent reference for the
    Fourier-multiplier form.  The angles k theta_i are reduced mod 2 pi
    in integer arithmetic, so the matrices are accurate to roundoff at
    every k."""

    def __init__(self, ops):
        m, kmax = ops.m, ops.cfg.kmax
        self.ops, self.m, self.kmax, self.q = ops, m, kmax, ops.q

        def basis(fn, k):
            turns = np.outer(k, 2 * np.arange(m) + 1) % (4 * m)
            return math.sqrt(2.0) * fn(np.pi * turns / (2 * m))

        self.cosb = basis(np.cos, np.arange(kmax + 1))
        self.cosb[0] = 1.0
        self.ks = np.arange(1, 2 * kmax + 1)
        self.sinb = basis(np.sin, self.ks)
        self.cosb_wide = basis(np.cos, self.ks)
        self.grad_mult = -self.q * ops.delta[1:] / self.ks[:kmax]

    def init_values(self):
        fld = field_from_descriptor(self.ops.cfg.init, 1)
        return (fld.coeffs @ self.cosb[:fld.coeffs.size]) ** self.q

    def cos_coeffs(self, v):
        return self.cosb @ v / self.m

    def rhs(self, u):
        u = np.maximum(u, self.ops.cfg.clamp_floor)
        a = self.cos_coeffs(u ** (1.0 / self.q))
        dpsi = (self.grad_mult * a[1:]) @ self.sinb[:self.kmax]
        flux = u ** (1.0 - 1.0 / self.q) * dpsi
        b = self.sinb @ flux / self.m
        return (b * self.ks) @ self.cosb_wide

    def dissipation(self, u):
        a = self.cos_coeffs(np.maximum(u, self.ops.cfg.clamp_floor) ** (1.0 / self.q))
        return 2.0 * float((self.ops.delta * a * a).sum())


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


def test_fitted_rate_near_spectral_gap(short_run):
    assert short_run.theoretical_rate == pytest.approx(
        2.0 / sharp_constant(1, 0.5), rel=1e-14)
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


def test_blowup_is_reported():
    ops = FlowOps(FlowConfig())
    u = ops.init_values()
    with pytest.raises(FloatingPointError), np.errstate(all="ignore"):
        for _ in range(200):
            u = rk4_step(ops, u, 1e4)


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
