"""Closed-form ground truth for linear SDEs with Gaussian (or point) starts.

Linear dynamics dX = (A(t) X + c(t)) dt + S(t) dW keep Gaussian laws
Gaussian; the mean and covariance obey

    m' = A m + c,        C' = A C + C A' + S S'.

Constant coefficients are solved exactly through matrix exponentials (Van
Loan block trick for the convolution integrals).  Time-dependent callables
are integrated with classical 4th-order Runge-Kutta in one forward pass over
sorted query times: the span up to each time takes
ceil(RK4_STEPS * span / horizon) equal steps, so no step is longer than
horizon / RK4_STEPS, and a law at t = horizon takes exactly RK4_STEPS steps.
The coefficients are evaluated once per distinct stage time.  On top of the
laws the module provides the Gaussian score, the generator-mismatch field
between two coefficient fields, the induced entropy upper bound with its
short-time divergence probe, and the switched-generator (bridge) law.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.linalg import expm

from ._rng import DRAW, substream
from .measures import GaussianMeasure, MeasureError, _gaussian_points
from .dynamics import DynamicsError, _central_div

__all__ = [
    "LinearSDESpec",
    "linear_sde_law",
    "linear_sde_laws",
    "score_gaussian",
    "mismatch_field",
    "mismatch_bound",
    "MismatchBound",
    "bridge_law_linear",
    "gaussian_fisher",
]

#: cumulative-integral level treated as overflow in the divergence probe
DIVERGENCE_OVERFLOW = 1e6
#: ratio of successive per-decade increments above which the integral is
#: judged non-decaying (log-type divergence)
DECADE_DECAY_RATIO = 0.8
#: RK4 steps across one spec horizon; no step is longer than horizon / RK4_STEPS
RK4_STEPS = 800


class OracleError(ValueError):
    pass


def _as_matrix_fn(val, d, name):
    if callable(val):
        return val, False
    arr = np.asarray(val, dtype=float)
    if arr.shape == ():
        arr = float(arr) * np.eye(d)
    if arr.shape != (d, d):
        raise OracleError(f"{name} must be a {d}x{d} matrix")
    return (lambda t, a=arr: a), True


def _as_vector_fn(val, d, name):
    if callable(val):
        return val, False
    arr = np.asarray(val, dtype=float).reshape(-1)
    if arr.size == 1 and d > 1:
        arr = np.full(d, float(arr[0]))
    if arr.shape != (d,):
        raise OracleError(f"{name} must be a length-{d} vector")
    return (lambda t, a=arr: a), True


@dataclass(frozen=True)
class LinearSDESpec:
    """dX = (A(t) X + c(t)) dt + S(t) dW with constant-in-x noise, a = S S'/2.

    A, c, S may be constants (arrays/scalars) or callables of t.  The initial
    law is Gaussian or a point (zero covariance).  Laws are defined on
    [0, horizon]; for callable coefficients the horizon also sets the longest
    RK4 step, horizon / RK4_STEPS.
    """

    dim: int
    drift_matrix: Union[np.ndarray, Callable]
    drift_offset: Union[np.ndarray, Callable]
    noise: Union[np.ndarray, Callable]
    initial_mean: np.ndarray
    initial_cov: Optional[np.ndarray] = None
    horizon: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise OracleError("horizon must be positive and finite")
        object.__setattr__(self, "initial_mean", np.asarray(self.initial_mean, dtype=float).reshape(-1))
        if self.initial_mean.size != self.dim:
            raise OracleError("initial mean dimension mismatch")
        cov = self.initial_cov
        cov = np.zeros((self.dim, self.dim)) if cov is None else np.asarray(cov, dtype=float)
        if cov.shape != (self.dim, self.dim):
            raise OracleError("initial covariance shape mismatch")
        eig = np.linalg.eigvalsh(0.5 * (cov + cov.T))
        if eig[0] < -1e-12:
            raise OracleError("initial covariance must be positive semidefinite")
        object.__setattr__(self, "initial_cov", 0.5 * (cov + cov.T))

    @classmethod
    def from_gaussian(cls, g, drift_matrix, drift_offset, noise, horizon=1.0):
        return cls(g.dim, drift_matrix, drift_offset, noise, g.mean, g.cov, horizon)

    @classmethod
    def from_point(cls, x0, drift_matrix, drift_offset, noise, horizon=1.0):
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        return cls(x0.size, drift_matrix, drift_offset, noise, x0, None, horizon)

    def parts(self):
        a_fn, a_const = _as_matrix_fn(self.drift_matrix, self.dim, "drift_matrix")
        c_fn, c_const = _as_vector_fn(self.drift_offset, self.dim, "drift_offset")
        s_fn, s_const = _as_matrix_fn(self.noise, self.dim, "noise")
        return a_fn, c_fn, s_fn, a_const and c_const and s_const

    def is_point_start(self):
        return bool(np.all(self.initial_cov == 0.0))


def _propagate_const(a, c, q, m0, c0, tau):
    """Exact (m, C) transport over time tau for constant coefficients.

    Van Loan blocks: expm([[A, Q], [0, -A']] tau) has top-right block
    G with G expm(A' tau) = int_0^tau expm(A s) Q expm(A' s) ds, and
    expm([[A, I], [0, 0]] tau) has top-right block int_0^tau expm(A s) ds.
    """
    d = m0.size
    ea = expm(a * tau)
    blk = np.zeros((2 * d, 2 * d))
    blk[:d, :d] = a
    blk[:d, d:] = np.eye(d)
    int_ea = expm(blk * tau)[:d, d:]
    m = ea @ m0 + int_ea @ c
    blk2 = np.zeros((2 * d, 2 * d))
    blk2[:d, :d] = a
    blk2[:d, d:] = q
    blk2[d:, d:] = -a.T
    conv = expm(blk2 * tau)[:d, d:] @ ea.T
    cov = ea @ c0 @ ea.T + conv
    return m, 0.5 * (cov + cov.T)


def _rk4_steps(tau, horizon):
    """ceil(RK4_STEPS * tau / horizon) steps for a span tau, at least one.

    The 1e-9 slack keeps rounding in the ratio from adding a step, so a span
    of exactly one horizon takes exactly RK4_STEPS steps.
    """
    return max(1, math.ceil(RK4_STEPS * tau / horizon - 1e-9))


def _moment_path(spec, m0, c0, t_start, times):
    """(m, C) of spec's dynamics at each sorted time, started from (m0, C0) at t_start.

    Constant coefficients use the Van Loan closed form over each t - t_start.
    Callable coefficients are integrated forward once across the times; the
    span up to each time takes _rk4_steps(span, spec.horizon) equal steps.
    A, c and S S' are evaluated once per distinct stage time: k2 and k3
    share the midpoint, and k4's endpoint values are the next step's k1, so
    a span of n steps makes 2n + 1 calls to each coefficient function.
    """
    a_fn, c_fn, s_fn, const = spec.parts()
    if const:
        s = s_fn(0.0)
        a, c, q = a_fn(0.0), c_fn(0.0), s @ s.T
        return [_propagate_const(a, c, q, m0, c0, t - t_start) for t in times]

    def coefficients(t):
        s = s_fn(t)
        return a_fn(t), c_fn(t), s @ s.T

    def rhs(coef, m, cov):
        a, c, q = coef
        return a @ m + c, a @ cov + cov @ a.T + q

    out = []
    m, cov, t = m0, c0, t_start
    for t_end in times:
        n = _rk4_steps(t_end - t, spec.horizon)
        h = (t_end - t) / n
        k_start = coefficients(t)
        for _ in range(n):
            k_mid = coefficients(t + 0.5 * h)
            k_end = coefficients(t + h)
            k1m, k1c = rhs(k_start, m, cov)
            k2m, k2c = rhs(k_mid, m + 0.5 * h * k1m, cov + 0.5 * h * k1c)
            k3m, k3c = rhs(k_mid, m + 0.5 * h * k2m, cov + 0.5 * h * k2c)
            k4m, k4c = rhs(k_end, m + h * k3m, cov + h * k3c)
            m = m + (h / 6.0) * (k1m + 2 * k2m + 2 * k3m + k4m)
            cov = cov + (h / 6.0) * (k1c + 2 * k2c + 2 * k3c + k4c)
            t += h
            k_start = k_end
        out.append((m, 0.5 * (cov + cov.T)))
        t = t_end
    return out


def _law_at(m, cov, t):
    try:
        return GaussianMeasure(m, cov)
    except MeasureError as exc:
        raise OracleError(f"propagated covariance not SPD at t={t}: {exc}") from exc


def linear_sde_law(spec, t):
    """Gaussian law of the linear SDE at time t in [0, horizon]."""
    if not 0 <= t <= spec.horizon + 1e-12:
        raise OracleError("t outside [0, horizon]")
    if t == 0:
        if spec.is_point_start():
            raise OracleError("law at t=0 for a point start is a point mass, not a Gaussian")
        return GaussianMeasure(spec.initial_mean, spec.initial_cov)
    (m, cov), = _moment_path(spec, spec.initial_mean, spec.initial_cov, 0.0, [t])
    return _law_at(m, cov, t)


def linear_sde_laws(spec, times):
    """Gaussian laws of the linear SDE at sorted times in (0, horizon].

    One forward integration serves every time, so a grid costs about as
    much as its largest time.  Each law equals linear_sde_law(spec, t)
    exactly for constant coefficients and to RK4 accuracy otherwise.
    """
    times = np.asarray(times, dtype=float).reshape(-1).tolist()
    if not all(a <= b for a, b in zip(times, times[1:])):
        raise OracleError("times must be sorted in increasing order")
    if times and not (times[0] > 0 and times[-1] <= spec.horizon + 1e-12):
        raise OracleError("times outside (0, horizon]")
    path = _moment_path(spec, spec.initial_mean, spec.initial_cov, 0.0, times)
    return [_law_at(m, cov, t) for (m, cov), t in zip(path, times)]


def score_gaussian(g, y):
    """grad log density of g at y: -C^{-1} (y - m).  y is (d,) or (n, d)."""
    if not isinstance(g, GaussianMeasure):
        raise MeasureError("score_gaussian needs a GaussianMeasure")
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    pts = y[None, :] if single else y
    if pts.shape[1] != g.dim:
        raise MeasureError("dimension mismatch")
    out = -np.linalg.solve(g.cov, (pts - g.mean).T).T
    return out[0] if single else out


def gaussian_fisher(g):
    """E |grad log p|^2 under g itself: trace(C^{-1})."""
    return float(np.trace(np.linalg.inv(g.cov)))


def mismatch_field(field1, field2, law1, s, y):
    """Generator-mismatch vector between two coefficient fields.

    (a1 - a2)(s, y) . grad log p(y) + div(a1 - a2)(s, .)(y) + b2(s, y) - b1(s, y)
    where p is the (Gaussian) density of the first diffusion at time s.
    Divergence uses the fields' analytic divergence when both provide one,
    central differences with step 1e-4 otherwise.
    """
    if field1.dim != field2.dim:
        raise DynamicsError("field dimensions differ")
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    pts = y[None, :] if single else y
    a1 = field1.diffusion(s, pts)
    a2 = field2.diffusion(s, pts)
    score = score_gaussian(law1, pts)
    first = np.einsum("nij,nj->ni", a1 - a2, score)
    if field1.div_a_fn is not None and field2.div_a_fn is not None:
        div = field1.div_a(s, pts) - field2.div_a(s, pts)
    else:
        div = _central_div(lambda s_, x_: field1.diffusion(s_, x_) - field2.diffusion(s_, x_), s, pts)
    out = first + div + field2.drift(s, pts) - field1.drift(s, pts)
    return out[0] if single else out


@dataclass
class MismatchBound:
    """Entropy upper bound value with its short-time divergence diagnosis."""

    value: float
    diverged: bool
    nodes: np.ndarray
    integrand: np.ndarray
    decade_increments: tuple

    def __float__(self):
        return self.value


def _node_values(field1, field2, law_provider, breakpoints, n_mc, seed, node_offset):
    """Midpoint-rule contributions of 0.5 E|a2^{-1/2} Phi|^2 on each interval."""
    mids = 0.5 * (breakpoints[:-1] + breakpoints[1:])
    widths = np.diff(breakpoints)
    vals = np.empty(mids.size)
    for j, s in enumerate(mids):
        law = law_provider(s)
        if isinstance(law, GaussianMeasure):
            draws = _gaussian_points(law, n_mc, substream(seed, DRAW, node_offset + j))
            score_law = law
        else:
            draws = law.points
            score_law = GaussianMeasure(law.mean(), law.cov())
        phi = mismatch_field(field1, field2, score_law, s, draws)
        a2 = field2.diffusion(s, draws)
        weighted = np.einsum("nij,nj->ni", np.linalg.inv(a2), phi)
        vals[j] = 0.5 * float(np.mean(np.einsum("ni,ni->n", phi, weighted)))
    return mids, widths, vals


def mismatch_bound(field1, field2, t, law_provider, n_mc=500, seed=0, n_nodes=200):
    """Entropy upper bound (1/2) int_0^t E |a2^{-1/2} Phi(s, X_s^1)|^2 ds.

    The initial law of the first diffusion is embodied by law_provider(s),
    which must give its law at time s: a GaussianMeasure in the linear case
    or an EmpiricalMeasure particle approximation (its moment-matched
    Gaussian supplies the score).

    Time quadrature is a midpoint rule on n_nodes geometrically refined
    intervals with smallest node t*1e-4; probe decades extend down to t*1e-12
    to diagnose the short-time singularity.  The bound is flagged divergent
    (value +inf) when the cumulative integral overflows or the per-decade
    increments fail to decay toward zero, which is exactly the log-type
    blowup produced by a uniform diffusion gap.
    """
    if t <= 0:
        raise OracleError("need t > 0")
    if not callable(law_provider):
        raise OracleError("law_provider must be callable")
    main = t * (1e-4 ** (1.0 - np.arange(n_nodes + 1) / n_nodes))
    # probe decades below the main grid, 8 subintervals each, shallow to deep
    probe_edges = [
        np.geomspace(t * 10.0 ** -(dec + 1), t * 10.0 ** -dec, 9) for dec in range(4, 12)
    ]
    decade_inc = []
    diverged = False
    all_mids, all_vals = [], []
    for di, edges in enumerate(probe_edges):
        mids, widths, vals = _node_values(field1, field2, law_provider, edges, n_mc, seed, 10_000 + 8 * di)
        inc = float(np.sum(vals * widths))
        decade_inc.append(inc)
        all_mids.append(mids)
        all_vals.append(vals)
    mids, widths, vals = _node_values(field1, field2, law_provider, main, n_mc, seed, 0)
    main_total = float(np.sum(vals * widths))
    all_mids.append(mids)
    all_vals.append(vals)
    total = main_total + float(np.sum(decade_inc))
    if total > DIVERGENCE_OVERFLOW:
        diverged = True
    else:
        last, prev = decade_inc[-1], decade_inc[-2]
        floor = 1e-10 * max(1.0, total)
        if last > floor and prev > 0 and last >= DECADE_DECAY_RATIO * prev:
            diverged = True
    order = np.argsort(np.concatenate(all_mids))
    nodes = np.concatenate(all_mids)[order]
    integrand = np.concatenate(all_vals)[order]
    return MismatchBound(
        value=math.inf if diverged else total,
        diverged=diverged,
        nodes=nodes,
        integrand=integrand,
        decade_increments=tuple(decade_inc),
    )


def bridge_law_linear(spec1, spec2, x1, t0, t1):
    """Law of the switched linear dynamics: spec1 on [0, t0], spec2 on [t0, t1].

    Started at the point x1; Gaussian throughout.  t0 = t1 reduces to the
    spec1 law, t0 = 0 to the spec2 law started at x1.
    """
    if not 0 <= t0 <= t1:
        raise OracleError("need 0 <= t0 <= t1")
    if t1 <= 0:
        raise OracleError("need t1 > 0")
    if spec1.dim != spec2.dim:
        raise OracleError("spec dimensions differ")
    x1 = np.asarray(x1, dtype=float).reshape(-1)
    m, cov = x1, np.zeros((spec1.dim, spec1.dim))
    if t0 > 0:
        (m, cov), = _moment_path(spec1, m, cov, 0.0, [t0])
    if t1 > t0:
        (m, cov), = _moment_path(spec2, m, cov, t0, [t1])
    try:
        return GaussianMeasure(m, cov)
    except MeasureError as exc:
        raise OracleError(f"bridge law covariance not SPD: {exc}") from exc
