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
short-time divergence probe (by Monte Carlo for two fields, exact for two
linear specs), and the switched-generator (bridge) law.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

import numpy as np
from scipy.linalg import expm

from ._rng import MISMATCH_NODES, substream
from .measures import SPD_RTOL, GaussianMeasure, MeasureError, _gaussian_points, _is_count, _is_positive
from .dynamics import DynamicsError

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


#: a spec's coefficient fields, each with whether it is a matrix
_COEFFICIENTS = (("drift_matrix", True), ("drift_offset", False), ("noise", True))


def _resolve(val, d, name, matrix):
    """One coefficient as stored: a callable as given, or a finite constant
    checked against (d, d) (a scalar times the identity) or (d,) (a single
    value filled across d)."""
    if callable(val):
        return val
    arr = np.asarray(val, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise OracleError(f"{name} must be finite")
    if matrix:
        shape, kind = (d, d), f"a {d}x{d} matrix"
        if arr.shape == ():
            arr = float(arr) * np.eye(d)
    else:
        shape, kind = (d,), f"a length-{d} vector"
        arr = arr.reshape(-1)
        if arr.size == 1 and d > 1:
            arr = np.full(d, float(arr[0]))
    if arr.shape != shape:
        raise OracleError(f"{name} must be {kind}")
    return arr


@dataclass(frozen=True, eq=False)
class LinearSDESpec:
    """dX = (A(t) X + c(t)) dt + S(t) dW with constant-in-x noise, a = S S'/2.

    A, c, S may be constants (arrays/scalars) or callables of t; each is
    stored as given, a constant after its shape and finiteness check.  The
    initial law is Gaussian or a point (zero covariance), with a finite
    mean and covariance.  Laws are defined on [0, horizon]; for callable
    coefficients the horizon also sets the longest RK4 step,
    horizon / RK4_STEPS.  Specs compare and hash by identity: their
    coefficients may be callables, which have no value equality.
    """

    dim: int
    drift_matrix: Union[np.ndarray, Callable]
    drift_offset: Union[np.ndarray, Callable]
    noise: Union[np.ndarray, Callable]
    initial_mean: np.ndarray
    initial_cov: Optional[np.ndarray] = None
    horizon: float = 1.0
    _constant: bool = field(init=False, repr=False)

    def __post_init__(self):
        if not _is_positive(self.horizon):
            raise OracleError("horizon must be positive and finite")
        object.__setattr__(self, "initial_mean", np.asarray(self.initial_mean, dtype=float).reshape(-1))
        if self.initial_mean.size != self.dim:
            raise OracleError(f"initial mean has {self.initial_mean.size} coordinates, the spec has {self.dim}")
        cov = self.initial_cov
        cov = np.zeros((self.dim, self.dim)) if cov is None else np.asarray(cov, dtype=float)
        if cov.shape != (self.dim, self.dim):
            raise OracleError("initial covariance shape mismatch")
        if not (np.all(np.isfinite(self.initial_mean)) and np.all(np.isfinite(cov))):
            raise OracleError("initial mean and covariance must be finite")
        eig = np.linalg.eigvalsh(0.5 * (cov + cov.T))
        if eig[0] < -1e-12:
            raise OracleError("initial covariance must be positive semidefinite")
        object.__setattr__(self, "initial_cov", 0.5 * (cov + cov.T))
        for name, matrix in _COEFFICIENTS:
            object.__setattr__(self, name, _resolve(getattr(self, name), self.dim, name, matrix))
        object.__setattr__(self, "_constant", not any(callable(getattr(self, name)) for name, _ in _COEFFICIENTS))

    @classmethod
    def from_gaussian(cls, g, drift_matrix, drift_offset, noise, horizon=1.0):
        return cls(g.dim, drift_matrix, drift_offset, noise, g.mean, g.cov, horizon)

    @classmethod
    def from_point(cls, x0, drift_matrix, drift_offset, noise, horizon=1.0):
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        return cls(x0.size, drift_matrix, drift_offset, noise, x0, None, horizon)


def _from_point(spec, x):
    """spec started at the point x (checked against spec.dim by LinearSDESpec)."""
    return replace(spec, initial_mean=x, initial_cov=None)


def _coefficients(spec, times):
    """A (n, d, d), c (n, d) and S S' (n, d, d) of spec at each of n times,
    stacked: the one reader of a spec's coefficients.  A constant spec gives
    one slice for any times; otherwise each callable is evaluated once per
    time, naming in an OracleError the first time its value is not finite,
    and each constant is repeated over the times."""
    n = 1 if spec._constant else len(times)
    out = []
    for name, _ in _COEFFICIENTS:
        val = getattr(spec, name)
        if callable(val):
            arr = np.array([val(t) for t in times], dtype=float)
            if not np.isfinite(arr).all():
                first = np.argmin(np.isfinite(arr.reshape(n, -1)).all(axis=1))
                raise OracleError(f"{name} is not finite at t={times[first]}")
        else:
            arr = val[None].repeat(n, axis=0)
        out.append(arr)
    a, c, s = out
    return a, c, s @ s.transpose(0, 2, 1)


def _propagate_const(a, c, q, m0, c0, taus):
    """Exact (m, C) transport over each time span of taus for constant
    coefficients, stacked: means (n, d) and covariances (n, d, d).

    Van Loan blocks: expm([[A, Q], [0, -A']] tau) has top-right block
    G with G expm(A' tau) = int_0^tau expm(A s) Q expm(A' s) ds, and
    expm([[A, I], [0, 0]] tau) has top-right block int_0^tau expm(A s) ds.
    Each expm takes every span at once; scipy exponentiates a stack one
    matrix at a time, so each slice equals its own single-matrix call.
    """
    d = m0.size
    taus = np.asarray(taus, dtype=float)[:, None, None]
    ea = expm(a * taus)
    ea_t = ea.transpose(0, 2, 1)
    blk = np.zeros((2 * d, 2 * d))
    blk[:d, :d] = a
    blk[:d, d:] = np.eye(d)
    int_ea = expm(blk * taus)[:, :d, d:]
    m = ea @ m0 + int_ea @ c
    blk2 = np.zeros((2 * d, 2 * d))
    blk2[:d, :d] = a
    blk2[:d, d:] = q
    blk2[d:, d:] = -a.T
    conv = expm(blk2 * taus)[:, :d, d:] @ ea_t
    cov = ea @ c0 @ ea_t + conv
    return m, 0.5 * (cov + cov.transpose(0, 2, 1))


def _rk4_steps(tau, horizon):
    """ceil(RK4_STEPS * tau / horizon) steps for a span tau, at least one.

    The 1e-9 slack keeps rounding in the ratio from adding a step, so a span
    of exactly one horizon takes exactly RK4_STEPS steps.
    """
    return max(1, math.ceil(RK4_STEPS * tau / horizon - 1e-9))


def _moment_path(spec, m0, c0, t_start, times):
    """(m, C) of spec's dynamics at each sorted time, started from (m0, C0) at
    t_start, stacked: means (n, d) and covariances (n, d, d).

    Constant coefficients use the Van Loan closed form over all t - t_start at once.
    Callable coefficients are integrated forward once across the times; the
    span from t up to each time takes n = _rk4_steps(span, spec.horizon)
    equal steps of length h, with stage k at t + (k / 2) h for k < 2n and
    the last stage the queried time.  Step i reads stages 2i, 2i + 1 (shared
    by k2 and k3) and 2i + 2 (the next step's start), so a span makes
    2n + 1 calls to each coefficient function, all in one _coefficients read.
    """
    if spec._constant:
        (a,), (c,), (q,) = _coefficients(spec, times)
        return _propagate_const(a, c, q, m0, c0, np.asarray(times, dtype=float) - t_start)

    def rhs(coef, m, cov):
        a, c, q = coef
        return a @ m + c, a @ cov + cov @ a.T + q

    means, covs = [], []
    m, cov, t = m0, c0, t_start
    for t_end in times:
        n = _rk4_steps(t_end - t, spec.horizon)
        h = (t_end - t) / n
        stages = t + (np.arange(2 * n + 1) / 2) * h
        stages[-1] = t_end
        coef = list(zip(*_coefficients(spec, stages)))
        for i in range(n):
            k_start, k_mid, k_end = coef[2 * i : 2 * i + 3]
            k1m, k1c = rhs(k_start, m, cov)
            k2m, k2c = rhs(k_mid, m + 0.5 * h * k1m, cov + 0.5 * h * k1c)
            k3m, k3c = rhs(k_mid, m + 0.5 * h * k2m, cov + 0.5 * h * k2c)
            k4m, k4c = rhs(k_end, m + h * k3m, cov + h * k3c)
            m = m + (h / 6.0) * (k1m + 2 * k2m + 2 * k3m + k4m)
            cov = cov + (h / 6.0) * (k1c + 2 * k2c + 2 * k3c + k4c)
        means.append(m)
        covs.append(0.5 * (cov + cov.T))
        t = t_end
    return np.array(means), np.array(covs)


def _law_at(m, cov, t):
    """The Gaussian law N(m, cov) at time t; a zero covariance is a point mass."""
    if not cov.any():
        raise OracleError(f"law at t={t} is a point mass, not a Gaussian")
    try:
        return GaussianMeasure(m, cov)
    except MeasureError as exc:
        raise OracleError(f"propagated covariance not SPD at t={t}: {exc}") from exc


def _check_times(times, horizon):
    """The one time rule of every law entry point: sorted times in [0, horizon]."""
    times = np.asarray(times, dtype=float).reshape(-1).tolist()
    if not all(a <= b for a, b in zip(times, times[1:])):
        raise OracleError("times must be sorted in increasing order")
    if times and not (times[0] >= 0 and times[-1] <= horizon + 1e-12):
        raise OracleError("times outside [0, horizon]")
    return times


def linear_sde_law(spec, t):
    """Gaussian law of the linear SDE at time t in [0, horizon]."""
    return linear_sde_laws(spec, [t])[0]


def linear_sde_laws(spec, times):
    """Gaussian laws of the linear SDE at sorted times in [0, horizon].

    t = 0 gives the initial law, which must be Gaussian, not a point.  One
    forward integration serves every later time, so a grid costs about as
    much as its largest time.  Each law equals linear_sde_law(spec, t)
    exactly for constant coefficients and to RK4 accuracy otherwise.
    """
    times = _check_times(times, spec.horizon)
    n_zero = times.count(0.0)
    start = [_law_at(spec.initial_mean, spec.initial_cov, 0.0) for _ in range(n_zero)]
    means, covs = _moment_path(spec, spec.initial_mean, spec.initial_cov, 0.0, times[n_zero:])
    return start + [_law_at(m, cov, t) for m, cov, t in zip(means, covs, times[n_zero:])]


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
    div(a1 - a2) is field1.div_a - field2.div_a, each field's own divergence
    rule (`dynamics._div_a`).
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
    div = field1.div_a(s, pts) - field2.div_a(s, pts)
    out = first + div + field2.drift(s, pts) - field1.drift(s, pts)
    return out[0] if single else out


@dataclass
class MismatchBound:
    """Entropy upper bound value with its short-time divergence diagnosis."""

    value: float
    diverged: bool
    decade_increments: tuple


def _node_values(field1, field2, law_provider, mids, n_mc, seed):
    """0.5 E|a2^{-1/2} Phi(s, X_s)|^2 at each time s of mids by Monte Carlo,
    n_mc draws per node; the nodes draw in the order of mids from the one
    stream of (seed, MISMATCH_NODES)."""
    rng = substream(seed, *MISMATCH_NODES)
    vals = np.empty(mids.size)
    for j, s in enumerate(mids):
        law = law_provider(s)
        if not isinstance(law, GaussianMeasure):
            raise OracleError(f"law_provider gave a {type(law).__name__} at s={s}, not a GaussianMeasure")
        draws = _gaussian_points(law, n_mc, rng)
        phi = mismatch_field(field1, field2, law, s, draws)
        a2 = field2.diffusion(s, draws)
        weighted = np.einsum("nij,nj->ni", np.linalg.inv(a2), phi)
        vals[j] = 0.5 * float(np.mean(np.einsum("ni,ni->n", phi, weighted)))
    return vals


def _linear_node_values(spec1, spec2, mids):
    """0.5 E|a2^{-1/2} Phi(s, X_s)|^2 at each time s of mids, exactly, for two
    linear specs, the first giving the law X_s ~ N(m, C).

    Phi(s, y) = M y + v is affine with M = (A2 - A1) - (a1 - a2) C^{-1} and
    M m + v = (A2 - A1) m + c2 - c1, so each value is
    0.5 [(M m + v)' a2^{-1} (M m + v) + tr(a2^{-1} M C M')], all nodes stacked.
    """
    laws = linear_sde_laws(spec1, mids)
    m = np.array([law.mean for law in laws])[:, :, None]
    cov = np.array([law.cov for law in laws])
    a_mat1, c1, q1 = _coefficients(spec1, mids)
    a_mat2, c2, q2 = _coefficients(spec2, mids)
    a1, a2 = 0.5 * q1, 0.5 * q2
    eig = np.linalg.eigvalsh(a2)
    if not np.all(eig[:, 0] > SPD_RTOL * eig[:, -1]):
        raise OracleError("the second diffusion matrix a2 is singular")
    a2_inv = np.linalg.inv(a2)
    gap = a_mat2 - a_mat1
    mat = gap - (a1 - a2) @ np.linalg.inv(cov)
    shift = gap @ m + (c2 - c1)[:, :, None]
    quad = (shift.transpose(0, 2, 1) @ a2_inv @ shift)[:, 0, 0]
    spread = np.trace(a2_inv @ mat @ cov @ mat.transpose(0, 2, 1), axis1=1, axis2=2)
    return 0.5 * (quad + spread)


def _check_count(name, n):
    if not _is_count(n):
        raise OracleError(f"{name} must be an integer >= 1, got {n!r}")


def mismatch_bound(field1, field2, t, law_provider=None, n_mc=500, seed=0, n_nodes=200):
    """Entropy upper bound (1/2) int_0^t E |a2^{-1/2} Phi(s, X_s^1)|^2 ds.

    For two coefficient fields, law_provider(s) must give the law of the
    first diffusion at time s as a GaussianMeasure (it supplies the score and
    the Monte Carlo draws, n_mc per node, every node drawing in ascending
    time order from one stream of seed); any other return raises
    OracleError.  For two LinearSDESpecs, which take no law_provider, the
    laws are the first spec's own and each node's expectation is exact
    (_linear_node_values): no draws, so n_mc and seed are not read.  Their
    dimensions must agree and both horizons must reach t; a singular a2 or a
    non-SPD covariance raises OracleError.  t must be finite and > 0, and
    n_nodes, and for two fields n_mc, integers >= 1.

    Time quadrature is a midpoint rule on n_nodes geometrically refined
    intervals with smallest node t*1e-4; probe decades extend down to t*1e-12
    to diagnose the short-time singularity.  The bound is flagged divergent
    (value +inf) when the cumulative integral overflows or the per-decade
    increments fail to decay toward zero, which is exactly the log-type
    blowup produced by a uniform diffusion gap.
    """
    if not _is_positive(t):
        raise OracleError(f"need a finite t > 0, got t={t}")
    linear = isinstance(field1, LinearSDESpec)
    if isinstance(field2, LinearSDESpec) != linear:
        raise OracleError("mismatch_bound needs two LinearSDESpecs or two coefficient fields")
    if linear:
        if law_provider is not None:
            raise OracleError("two LinearSDESpecs take no law_provider: the first spec gives the laws")
        if field1.dim != field2.dim:
            raise OracleError("spec dimensions differ")
        for spec in (field1, field2):
            _check_times([t], spec.horizon)
    elif not callable(law_provider):
        raise OracleError("law_provider must be callable")
    else:
        _check_count("n_mc", n_mc)
    _check_count("n_nodes", n_nodes)
    main = t * (1e-4 ** (1.0 - np.arange(n_nodes + 1) / n_nodes))
    # one ascending grid: the probe decades below the main grid, 8
    # subintervals each and the deepest first, then the main grid
    decades = range(11, 3, -1)
    probe = [np.geomspace(t * 10.0 ** -(dec + 1), t * 10.0 ** -dec, 9) for dec in decades]
    lo = np.concatenate([edges[:-1] for edges in probe] + [main[:-1]])
    hi = np.concatenate([edges[1:] for edges in probe] + [main[1:]])
    mids = 0.5 * (lo + hi)
    if linear:
        integrand = _linear_node_values(field1, field2, mids)
    else:
        integrand = _node_values(field1, field2, law_provider, mids, n_mc, seed)
    parts = integrand * (hi - lo)
    # per-decade increments, shallow to deep
    decade_inc = [float(np.sum(parts[8 * i : 8 * i + 8])) for i in reversed(range(len(decades)))]
    total = float(np.sum(parts[8 * len(decades) :])) + float(np.sum(decade_inc))
    last, prev = decade_inc[-1], decade_inc[-2]
    floor = 1e-10 * max(1.0, total)
    diverged = total > DIVERGENCE_OVERFLOW or (last > floor and prev > 0 and last >= DECADE_DECAY_RATIO * prev)
    return MismatchBound(
        value=math.inf if diverged else total,
        diverged=diverged,
        decade_increments=tuple(decade_inc),
    )


def bridge_law_linear(spec1, spec2, x1, t0, t1):
    """Law of the switched linear dynamics: spec1 on [0, t0], spec2 on [t0, t1].

    Started at the point x1; Gaussian throughout.  t0 must lie in spec1's
    [0, horizon] and t0 <= t1 in spec2's, by the time rule of linear_sde_laws;
    t1 = 0 is a point mass and rejected.  t0 = t1 reduces to the spec1 law,
    t0 = 0 to the spec2 law started at x1.
    """
    if spec1.dim != spec2.dim:
        raise OracleError("spec dimensions differ")
    _check_times([t0], spec1.horizon)
    _check_times([t0, t1], spec2.horizon)
    start = _from_point(spec1, x1)
    m, cov = start.initial_mean, start.initial_cov
    if t0 > 0:
        (m,), (cov,) = _moment_path(spec1, m, cov, 0.0, [t0])
    if t1 > t0:
        (m,), (cov,) = _moment_path(spec2, m, cov, t0, [t1])
    return _law_at(m, cov, t1)
