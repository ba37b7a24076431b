"""Fractional fast-diffusion flow on the circle and its entropy decay.

The flow evolves a positive density u through

    du/dt = q * div( u^(1-1/q) grad psi ),   psi = (-Lap)^(-1) L_s u^(1/q),

which is mass-preserving by construction and dissipates the entropy

    E_q[u] = ((int u)^(2/q) - int u^(2/q)) / (q - 2)

at the exact rate dE/dt = -2 <w, L_s w> with w = u^(1/q).  Combined
with the sharp interpolation inequality this gives the pathwise bound
E(t) <= E(0) exp(-2 t / C), with equality of rates in the vanishing-
perturbation limit; the fitted decay rate of a near-constant initial
datum approaches 2 delta_1 = 2/C from above.

Discretization: nodal values at the Chebyshev midpoints theta_i =
pi (i + 1/2) / m of [0, pi] (uniform weights 1/m), classical RK4 in
time.  Mirrored, the midpoints are the uniform 2m-point grid of the full
circle: w extends as an even function and the flux as an odd one, so
both linear stages of the right-hand side are Fourier multipliers on a
real FFT of length 2m, O(m log m) per evaluation (Makhoul, IEEE TASSP
1980).  w -> d/dtheta psi multiplies mode k <= kmax by i q delta_k / k;
the divergence multiplies mode k <= 2 kmax of the flux by i k.  Mode 0
of du/dt is exactly zero, so mass is conserved to roundoff.  The cosine
coefficients of a nodal vector come from the same transform with the
half-step phase exp(-i pi k / 2m) of the midpoints.
"""

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import field_from_descriptor, lq_quotient
from .spectrum import Q_WINDOW, delta_sequence, derive_params


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
    clamp_floor: float = 1e-12


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
        def num(x):
            return x if math.isfinite(x) else None
        return json.dumps({
            "fitted_rate": num(self.fitted_rate),
            "mass_drift": num(self.mass_drift),
            "q": self.config.q,
            "ratio": num(self.ratio),
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
        if abs(cfg.q - 2.0) <= Q_WINDOW:
            raise ValueError("the entropy E_q degenerates at q = 2")
        if cfg.kmax < 1 or cfg.sample_every < 1:
            raise ValueError(f"kmax and sample_every must be >= 1, got "
                             f"{cfg.kmax} and {cfg.sample_every}")
        if not (cfg.dt > 0.0 and cfg.t_max > 0.0):     # NaN fails too
            raise ValueError(f"dt and t_max must be > 0, got {cfg.dt} and {cfg.t_max}")
        self.cfg = cfg
        self.ps = derive_params(1, cfg.s, cfg.q)
        self.q = cfg.q
        kmax = cfg.kmax
        m = max(128, 4 * kmax)
        self.m = m
        self.delta = delta_sequence(1, cfg.s, kmax)
        k = np.arange(m + 1)
        # cos k theta -> q d/dtheta psi = -(q delta_k / k) sin k theta, k <= kmax
        self.mpsi = np.zeros(m + 1, dtype=complex)
        self.mpsi[1:kmax + 1] = 1j * self.q * self.delta[1:] / k[1:kmax + 1]
        # sin k theta -> d/dtheta, k cos k theta, on the band k <= 2 kmax
        self.mdiv = np.where((k >= 1) & (k <= 2 * kmax), 1j * k, 0.0)
        # DFT of the even extension -> coefficients on 1, sqrt(2) cos k theta
        kc = np.arange(kmax + 1)
        self.to_cos = (np.where(kc == 0, 1.0, np.sqrt(2.0)) / (2 * m)
                       * np.exp(-1j * np.pi * kc / (2 * m)))

    def init_values(self):
        fld = field_from_descriptor(self.cfg.init, 1)
        if fld.kmax > self.cfg.kmax:
            raise ValueError(f"init has degree {fld.kmax} > kmax = {self.cfg.kmax}")
        spec = np.zeros(self.m + 1, dtype=complex)
        spec[:fld.kmax + 1] = fld.coeffs / self.to_cos[:fld.kmax + 1]
        w0 = np.fft.irfft(spec, 2 * self.m)[:self.m]
        if w0.min() <= 0.0:
            raise ValueError("initial profile must be strictly positive")
        return w0 ** self.q

    def _clamp(self, u):
        return np.maximum(u, self.cfg.clamp_floor)

    def cos_coeffs(self, v):
        hat = np.fft.rfft(np.concatenate((v, v[::-1])))[:self.cfg.kmax + 1]
        return (hat * self.to_cos).real

    def rhs(self, u):
        u = self._clamp(u)
        w = u ** (1.0 / self.q)
        dpsi = _multiply(np.concatenate((w, w[::-1])), self.mpsi)
        flux = u ** (1.0 - 1.0 / self.q) * dpsi
        return _multiply(np.concatenate((flux, -flux[::-1])), self.mdiv)

    def entropy(self, u):
        """E_q[u]: the L^q quotient of w = u^(1/q) under the uniform weights."""
        return lq_quotient(self._clamp(u) ** (1.0 / self.q), 1.0 / u.size, self.q)

    def mass(self, u):
        return u.mean()

    def dissipation(self, u):
        """-dE/dt along the flow: 2 sum_k delta_k a_k^2 for w = u^(1/q)."""
        a = self.cos_coeffs(self._clamp(u) ** (1.0 / self.q))
        return 2.0 * float((self.delta * a * a).sum())


def rk4_step(ops, u, dt):
    """One classical Runge-Kutta step; refuses to continue past blow-up."""
    k1 = ops.rhs(u)
    k2 = ops.rhs(u + 0.5 * dt * k1)
    k3 = ops.rhs(u + 0.5 * dt * k2)
    k4 = ops.rhs(u + dt * k3)
    out = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        raise FloatingPointError(
            f"flow produced non-finite values at dt={dt}; reduce the step "
            f"size (stability limit scales like 1/delta_kmax)")
    return out


ENTROPY_FLOOR = 1e-14


def fit_rate(times, entropy, tail=1.0 / 3.0):
    """Least-squares decay rate of log(entropy) over the final tail fraction.

    Needs at least 10 samples above the entropy floor in the fitted
    window; flat (all-floor) series have no rate to fit.
    """
    i0 = int(math.floor(times.size * (1.0 - tail)))
    t, e = times[i0:], entropy[i0:]
    keep = e > ENTROPY_FLOOR
    if keep.sum() < 10:
        raise ValueError("insufficient data: the rate fit needs >= 10 "
                         "samples with entropy above the floor")
    slope = np.polyfit(t[keep], np.log(e[keep]), 1)[0]
    return -float(slope)


def run_flow(cfg):
    ops = FlowOps(cfg)
    u = ops.init_values()
    dt = cfg.dt
    steps = int(round(cfg.t_max / dt))
    times, ent, mass = [0.0], [ops.entropy(u)], [ops.mass(u)]
    for i in range(1, steps + 1):
        u = rk4_step(ops, u, dt)
        if i % cfg.sample_every == 0 or i == steps:
            times.append(i * dt)
            ent.append(ops.entropy(u))
            mass.append(ops.mass(u))
    times = np.asarray(times)
    ent = np.asarray(ent)
    mass = np.asarray(mass)
    rate_theory = 2.0 / ops.ps.constant
    bound = ent[0] * np.exp(-rate_theory * times)
    try:
        fitted = fit_rate(times, ent)
    except ValueError:
        fitted = float("nan")  # flat series (constant initial data)
    return FlowResult(config=cfg, times=times, entropy=ent, mass=mass,
                      bound=bound, fitted_rate=fitted,
                      theoretical_rate=rate_theory)
