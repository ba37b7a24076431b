"""Fractional fast-diffusion flow on the circle and its entropy decay.

The flow evolves a positive density u through

    du/dt = q * div( u^(1-1/q) grad psi ),   psi = (-Lap)^(-1) L_s u^(1/q),

which is mass-preserving by construction and dissipates the entropy

    E_q[u] = ((int u)^(2/q) - int u^(2/q)) / (q - 2)

at the exact rate dE/dt = -2 <w, L_s w> with w = u^(1/q).  E_q is the
L^q quotient of w (field.lq_quotient), whose q = 2 value is the limit
int w^2 log(w / ||w||_2), so q = 2 is no special case.  Combined with
the sharp interpolation inequality this gives the pathwise bound
E(t) <= E(0) exp(-2 t / C), with equality of rates in the vanishing-
perturbation limit; the fitted decay rate of a near-constant initial
datum approaches 2 delta_1 = 2/C from above.

Discretization: nodal values at the Chebyshev midpoints theta_i =
pi (i + 1/2) / m of [0, pi] (uniform weights 1/m), classical RK4 in
time, whose dt must keep dt * delta_(m-1) within its real-axis stability
limit (RK4_REAL_LIMIT): about any constant the flow linearises to -L_s,
with eigenvalues -delta_k at every level and q.  Mirrored, the
midpoints are the uniform 2m-point grid of the full circle: w extends
as an even function and the flux as an odd one, so
both linear stages of the right-hand side are Fourier multipliers on a
real FFT of length 2m, O(m log m) per evaluation (Makhoul, IEEE TASSP
1980).  On every mode 0 < k < m the grid resolves, w -> d/dtheta psi
multiplies by i q delta_k / k and the divergence of the flux by i k, so
the flow damps every mode that the entropy integrates; kmax only sizes
the grid, m = max(128, 4 kmax), and caps the initial degree.  Mode 0
of du/dt is exactly zero, so mass is conserved to roundoff.  The cosine
coefficients of a nodal vector come from the same transform with the
half-step phase exp(-i pi k / 2m) of the midpoints.  A step that leaves
the positive finite states (any value <= 1e-12, inf or NaN) ends the run
with a NaN sample at its t; an initial density <= 1e-12 is refused.
"""

import json
import math
from dataclasses import dataclass, field as dc_field
from typing import ClassVar

import numpy as np

from .field import field_from_descriptor, finite_or_null, lq_quotient
from .specfun import midpoint_phase
from .spectrum import delta_sequence, derive_params

MAX_STEPS = 10 ** 7     # on the default 128-point grid; 1000 times the default 6000
MAX_WORK = 128 * MAX_STEPS      # steps times grid points; 19531 steps (< 25 min) at MAX_KMAX
MAX_KMAX = 2 ** 14      # 512 times the default 32; about 70 ms and 15 MB per step there
# RK4 is stable on -x, x real, up to |R(-x)| = 1 at this root of x^3 - 4x^2 + 12x - 24
RK4_REAL_LIMIT = 2.785293563405282


@dataclass
class FlowConfig:
    n: int = 1
    s: float = 0.5
    q: float = 4.0
    kmax: int = 32
    dt: float = 1e-3
    t_max: float = 6.0
    sample_every: int = 50
    init: dict = dc_field(default_factory=lambda: {"family": "one_plus_eps_y1",
                                                   "eps": 0.01})
    clamp_floor: ClassVar[float] = 1e-12    # a state must exceed it; bench/ reads this name


@dataclass
class FlowResult:
    config: FlowConfig
    times: np.ndarray
    entropy: np.ndarray
    mass: np.ndarray
    bound: np.ndarray
    fitted_rate: float
    theoretical_rate: float

    @property
    def ratio(self):
        return self.fitted_rate / self.theoretical_rate

    @property
    def mass_drift(self):
        return float(np.abs(self.mass - self.mass[0]).max())

    def csv(self):
        lines = ["t,entropy,mass,bound"]
        for t, e, m, b in zip(self.times, self.entropy, self.mass, self.bound):
            lines.append(f"{float(t)!r},{float(e)!r},{float(m)!r},{float(b)!r}")
        return "\n".join(lines) + "\n"

    def summary(self):
        """Strict JSON: a rate that could not be fitted, or any other
        value that is not finite, is written as null."""
        return json.dumps({
            "fitted_rate": finite_or_null(self.fitted_rate),
            "mass_drift": finite_or_null(self.mass_drift),
            "q": self.config.q,
            "ratio": finite_or_null(self.ratio),
            "s": self.config.s,
            "samples": int(self.times.size),
            "theoretical_rate": self.theoretical_rate,
        }, sort_keys=True, allow_nan=False)


def _multiply(ext, mult):
    """Samples of a real periodic function on a uniform grid, times a
    Fourier multiplier, back on the first half of the grid."""
    return np.fft.irfft(np.fft.rfft(ext) * mult, ext.size)[:ext.size // 2]


class FlowOps:
    """Fourier multipliers of the spatial operator for one config."""

    def __init__(self, cfg):
        if cfg.n != 1:
            raise ValueError("the flow is implemented on the circle (n = 1)")
        if not 0.0 < cfg.s <= 1.0:
            raise ValueError("flow order must satisfy 0 < s <= 1")
        if not 1 <= cfg.kmax <= MAX_KMAX or cfg.sample_every < 1:
            raise ValueError(f"kmax must lie in [1, {MAX_KMAX}] and sample_every must be "
                             f">= 1, got {cfg.kmax} and {cfg.sample_every}")
        if not (cfg.dt > 0.0 and cfg.t_max > 0.0):     # NaN fails too
            raise ValueError(f"dt and t_max must be > 0, got {cfg.dt} and {cfg.t_max}")
        self.m = m = max(128, 4 * cfg.kmax)
        max_steps = MAX_WORK // m
        self.steps = round(min(cfg.t_max / cfg.dt, 2.0 * max_steps))    # t_max / dt may be inf
        if not 1 <= self.steps <= max_steps:
            raise ValueError(f"t_max / dt must round to between 1 and {max_steps} steps "
                             f"on {m} grid points, got {cfg.t_max / cfg.dt:.6g}")
        self.cfg = cfg
        self.ps = derive_params(1, cfg.s, cfg.q)
        self.q = cfg.q
        self.delta = delta_sequence(1, cfg.s, m - 1)
        if cfg.dt * self.delta[-1] > RK4_REAL_LIMIT:
            raise ValueError(f"dt must be at most {RK4_REAL_LIMIT / self.delta[-1]:.6g} "
                             f"on {m} grid points at s = {cfg.s}")
        k = np.arange(m + 1)
        # cos k theta -> q d/dtheta psi = -(q delta_k / k) sin k theta, 0 < k < m
        self.mpsi = np.zeros(m + 1, dtype=complex)
        self.mpsi[1:m] = 1j * self.q * self.delta[1:] / k[1:m]
        # sin k theta -> d/dtheta, k cos k theta, 0 < k < m
        self.mdiv = np.where((k >= 1) & (k < m), 1j * k, 0.0)
        # DFT of the even extension -> coefficients on 1, sqrt(2) cos k theta
        self.to_cos = midpoint_phase(m - 1, 2 * m)

    def init_values(self):
        try:
            fld = field_from_descriptor(self.cfg.init, 1, max_degree=self.cfg.kmax)
        except ValueError as exc:
            raise ValueError(f"init {exc}") from None
        spec = np.zeros(self.m + 1, dtype=complex)
        with np.errstate(invalid="ignore", over="ignore"):  # NaN/inf refused below
            spec[:fld.kmax + 1] = fld.coeffs / self.to_cos[:fld.kmax + 1]
            w0 = np.fft.irfft(spec, 2 * self.m)[:self.m]
        floor = self.cfg.clamp_floor
        if not floor ** (1.0 / self.q) < w0.min() <= w0.max() < math.inf:    # NaN fails too
            raise ValueError("initial profile must be strictly positive and finite, "
                             f"u0 > {floor:g}")
        return w0 ** self.q

    def cos_coeffs(self, v):
        hat = np.fft.rfft(np.concatenate((v, v[::-1])))[:self.m]
        return (hat * self.to_cos).real

    def rhs(self, u):
        w = u ** (1.0 / self.q)
        dpsi = _multiply(np.concatenate((w, w[::-1])), self.mpsi)
        flux = u ** (1.0 - 1.0 / self.q) * dpsi
        return _multiply(np.concatenate((flux, -flux[::-1])), self.mdiv)

    def entropy(self, u):
        """E_q[u]: the L^q quotient of w = u^(1/q) under the uniform weights."""
        return lq_quotient(u ** (1.0 / self.q), 1.0 / u.size, self.q)

    def mass(self, u):
        return u.mean()

    def dissipation(self, u):
        """-dE/dt along the flow: 2 sum_k delta_k a_k^2 for w = u^(1/q)."""
        a = self.cos_coeffs(u ** (1.0 / self.q))
        return 2.0 * float((self.delta * a * a).sum())


def rk4_step(ops, u, dt):
    """One classical Runge-Kutta step; refuses a result at or below the floor."""
    k1 = ops.rhs(u)
    k2 = ops.rhs(u + 0.5 * dt * k1)
    k3 = ops.rhs(u + 0.5 * dt * k2)
    k4 = ops.rhs(u + dt * k3)
    out = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not ops.cfg.clamp_floor < out.min() <= out.max() < math.inf:     # NaN fails too
        raise FloatingPointError(f"flow left the positive finite states at dt={dt}")
    return out


ENTROPY_FLOOR = 1e-14
FIT_TAIL = 1.0 / 3.0    # the rate is fitted on this final fraction of the samples


def fit_rate(times, entropy):
    """Least-squares decay rate of log(entropy) over the final FIT_TAIL.

    Needs at least 10 samples above the entropy floor in the fitted
    window; flat (all-floor) series have no rate to fit.
    """
    i0 = int(math.floor(times.size * (1.0 - FIT_TAIL)))
    t, e = times[i0:], entropy[i0:]
    keep = e > ENTROPY_FLOOR
    if keep.sum() < 10:
        raise ValueError("insufficient data: the rate fit needs >= 10 "
                         "samples with entropy above the floor")
    return -float(np.polyfit(t[keep], np.log(e[keep]), 1)[0])


def run_flow(cfg):
    ops = FlowOps(cfg)
    u = ops.init_values()
    dt, steps = cfg.dt, ops.steps
    times, ent, mass = [0.0], [ops.entropy(u)], [ops.mass(u)]
    with np.errstate(over="ignore", invalid="ignore"):      # rk4_step refuses inf, NaN, u <= floor
        for i in range(1, steps + 1):
            try:
                u = rk4_step(ops, u, dt)
            except FloatingPointError:  # a last, NaN sample fails the entropy gate
                times.append(i * dt)
                ent.append(math.nan)
                mass.append(math.nan)
                break
            if i % cfg.sample_every == 0 or i == steps:
                times.append(i * dt)
                ent.append(ops.entropy(u))
                mass.append(ops.mass(u))
    times, ent, mass = map(np.asarray, (times, ent, mass))
    rate_theory = 2.0 / ops.ps.constant
    bound = ent[0] * np.exp(-rate_theory * times)
    try:
        fitted = fit_rate(times, ent)
    except ValueError:
        fitted = float("nan")  # flat series (constant initial data)
    return FlowResult(config=cfg, times=times, entropy=ent, mass=mass, bound=bound,
                      fitted_rate=fitted, theoretical_rate=rate_theory)
