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
with eigenvalues -delta_k at every level and q (the "L" row of
spectrum.OPERATORS, as the deficits read it).  Both linear stages of the
right-hand side are cosine transforms of the m nodal values (DCT-II
forward, DCT-III back), each one real FFT pair of length m on the nodes
in Makhoul's order (IEEE TASSP 1980), O(m log m) per evaluation.  A sine
on the midpoints is a cosine on the mirrored mode,
sin k theta_i = (-1)^i cos (m - k) theta_i, and the two signs (-1)^i
cancel in the flux, so no stage needs a sine transform.  On every mode
0 < k < m the grid resolves, w -> d/dtheta psi multiplies cos k theta
by -q delta_k / k into sin k theta and the divergence of the flux takes
sin k theta to k cos k theta, so the flow damps every mode that the
entropy integrates; kmax only sizes the grid, m = max(128, 4 kmax), and
caps the initial degree.  Mode 0 of du/dt is exactly zero, so mass is
conserved to roundoff.  No readout of -dE/dt is kept; the tests check
dE/dt = -2 <w, L_s w> on a dense reference.  A step that leaves the
positive finite states (any value <= 1e-12, inf or NaN) ends the run
with a NaN sample at its t; an initial density <= 1e-12 or inf is refused.
"""

import json
import math
from dataclasses import dataclass, field as dc_field
from typing import ClassVar

import numpy as np

from .field import field_from_descriptor, finite_or_null, lq_quotient
from .spectrum import derive_params, operator_eigenvalue

MAX_STEPS = 10 ** 7     # on the default 128-point grid; 1000 times the default 6000
MAX_WORK = 128 * MAX_STEPS      # steps times grid points; 19531 steps (< 15 min) at MAX_KMAX
MAX_KMAX = 2 ** 14      # 512 times the default 32; about 40 ms and 5 MB per step there
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


class FlowOps:
    """The spatial operator for one config, on one real FFT pair of length m."""

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
        self.delta = operator_eigenvalue(self.ps, "L", m - 1)
        if cfg.dt * self.delta[-1] > RK4_REAL_LIMIT:
            raise ValueError(f"dt must be at most {RK4_REAL_LIMIT / self.delta[-1]:.6g} "
                             f"on {m} grid points at s = {cfg.s}")
        # Makhoul's order v: even nodes up, then odd nodes down.  With Z_k =
        # phase_k rfft(v)_k, k <= m/2, the sums C_k = sum_i u_i cos k theta_i
        # are C_k = Re Z_k and C_(m-k) = -Im Z_k
        i = np.arange(m)
        self.order = np.concatenate((i[::2], i[::-2]))
        self.nodal = np.where(i % 2, m - 1 - i // 2, i // 2)
        self.phase = np.exp(-0.5j * np.pi * np.arange(m // 2 + 1) / m)
        # sin k theta_i = (-1)^i cos (m - k) theta_i: w -> q d/dtheta psi takes
        # cosine mode k to -(q delta_k / k) sin k theta, written on mode m - k,
        # and the flux times the same (-1)^i has its sine mode k on mode
        # j = m - k, which the divergence takes to (m - j) cos k theta
        k = np.arange(m + 1.0)
        grad = np.zeros(m + 1)
        grad[1:m] = -cfg.q * self.delta[1:] / k[1:m]
        self.grad = self._stage(grad)
        self.div = self._stage(np.where((k > 0) & (k < m), m - k, 0.0))

    def _stage(self, mult):
        """(A, B) such that irfft(A V + B conj(V)), V = rfft(v), takes each
        cosine mode 0 < j < m of v in transform order to mode m - j, times
        mult_j; mult_0 = mult_m = 0."""
        a, b = mult[::-1][:self.m // 2 + 1], mult[:self.m // 2 + 1]
        return np.array((0.5j * (a - b), -0.5j * (a + b) / self.phase ** 2))

    def _apply(self, stage, v):
        hat = np.fft.rfft(v)
        return np.fft.irfft(stage[0] * hat + stage[1] * hat.conj(), self.m)

    def init_values(self):
        try:
            fld = field_from_descriptor(self.cfg.init, 1, max_degree=self.cfg.kmax)
        except ValueError as exc:
            raise ValueError(f"init {exc}") from None
        spec = np.zeros(self.m // 2 + 1, dtype=complex)     # kmax <= m/4: no mode m - k
        with np.errstate(invalid="ignore", over="ignore"):  # NaN/inf refused below
            spec[:fld.kmax + 1] = fld.coeffs * self.m / math.sqrt(2.0) / self.phase[:fld.kmax + 1]
            spec[0] *= math.sqrt(2.0)
            w0 = np.fft.irfft(spec, self.m)[self.nodal]
            u0 = w0 ** self.cfg.q
        floor = self.cfg.clamp_floor
        if not (w0.min() > 0.0 and floor < u0.min() <= u0.max() < math.inf):  # NaN fails too
            raise ValueError("initial profile must be strictly positive and finite, "
                             f"u0 > {floor:g}")
        return u0

    def rhs(self, u):
        u, q = u[self.order], self.cfg.q
        dpsi = self._apply(self.grad, u ** (1.0 / q))     # times (-1)^i
        return self._apply(self.div, u ** (1.0 - 1.0 / q) * dpsi)[self.nodal]

    def entropy(self, u):
        """E_q[u]: the L^q quotient of w = u^(1/q) under the uniform weights."""
        return lq_quotient(u ** (1.0 / self.cfg.q), 1.0 / u.size, self.cfg.q)

    def mass(self, u):
        return u.mean()


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
