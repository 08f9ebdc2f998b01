"""Independent reference oracles for the test suite.

Everything here is deliberately brute force (quadrature, exhaustive
enumeration, dense ODE stepping) and shares no code with the package paths
it checks.  The two Euler loops are written out step by step as
references for the package's shared stepping core; they take the Brownian
increments as input, so they check the stepping and not the noise.  The
time loop with an increments array of its own is the package's earlier
one, kept as the reference for the loop that draws each row's noise into
its own path buffer.  The Sinkhorn solver at the end is the package's
earlier one, kept as the reference for the current solver's iterates.
"""

import itertools

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import logsumexp

from entroflow import EmpiricalMeasure
from entroflow._rng import path_normals
from entroflow.dynamics import PathEnsemble, _checked_grid
from entroflow.transport import SinkhornDivergedError, _cost_matrix


def quad_kl_gaussian_1d(m1, v1, m2, v2):
    """KL(N(m1,v1) | N(m2,v2)) by adaptive quadrature of p log(p/q)."""

    def logpdf(x, m, v):
        return -((x - m) ** 2) / (2 * v) - 0.5 * np.log(2 * np.pi * v)

    def integrand(x):
        lp = logpdf(x, m1, v1)
        return np.exp(lp) * (lp - logpdf(x, m2, v2))

    lo = min(m1, m2) - 40 * max(np.sqrt(v1), np.sqrt(v2))
    hi = max(m1, m2) + 40 * max(np.sqrt(v1), np.sqrt(v2))
    val, _ = quad(integrand, lo, hi, limit=400)
    return val


def quad_log_power_integral_1d(m1, v1, m2, v2, alpha):
    """log int (dN(m1,v1)/dN(m2,v2))^alpha dN(m2,v2) by quadrature in log space."""

    def logpdf(x, m, v):
        return -((x - m) ** 2) / (2 * v) - 0.5 * np.log(2 * np.pi * v)

    def integrand(x):
        return np.exp(alpha * logpdf(x, m1, v1) + (1 - alpha) * logpdf(x, m2, v2))

    lo = min(m1, m2) - 60 * max(np.sqrt(v1), np.sqrt(v2))
    hi = max(m1, m2) + 60 * max(np.sqrt(v1), np.sqrt(v2))
    val, _ = quad(integrand, lo, hi, limit=500)
    return np.log(val)


def brute_force_w2sq_uniform(x, y):
    """Exact squared W2 between equal-size uniform clouds by permutation search."""
    n = x.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(np.sum((x[i] - y[j]) ** 2) for i, j in enumerate(perm)) / n
        best = min(best, cost)
    return best


def w2_quantile_gaussian_1d(m1, s1, m2, s2):
    """1-D Gaussian W2 via the quantile coupling: sqrt((m1-m2)^2 + (s1-s2)^2)."""
    return np.sqrt((m1 - m2) ** 2 + (s1 - s2) ** 2)


def coupled_ou_second_moment(k1, k2, sigma, x1, x2, t, n_steps=200_000):
    """E|X1_t - X2_t|^2 for two 1-D linear-drift SDEs sharing the noise.

    dXi = -ki Xi dt + sigma dW.  Dense RK4 on the closed moment system for
    (E X1^2, E X1 X2, E X2^2, E X1, E X2).
    """

    def rhs(y):
        p11, p12, p22, mu1, mu2 = y
        return np.array(
            [
                -2 * k1 * p11 + sigma**2,
                -(k1 + k2) * p12 + sigma**2,
                -2 * k2 * p22 + sigma**2,
                -k1 * mu1,
                -k2 * mu2,
            ]
        )

    y = np.array([x1 * x1, x1 * x2, x2 * x2, x1, x2], dtype=float)
    h = t / n_steps
    for _ in range(n_steps):
        k_1 = rhs(y)
        k_2 = rhs(y + 0.5 * h * k_1)
        k_3 = rhs(y + 0.5 * h * k_2)
        k_4 = rhs(y + h * k_3)
        y = y + (h / 6) * (k_1 + 2 * k_2 + 2 * k_3 + k_4)
    p11, p12, p22 = y[0], y[1], y[2]
    return p11 - 2 * p12 + p22


def direct_covariance(points):
    """Plain accumulation covariance estimate (oracle for sampled clouds)."""
    n = points.shape[0]
    mean = points.sum(axis=0) / n
    c = points - mean
    return c.T @ c / n


def ou_law_1d(x0, rate, a_scale, t):
    """Mean and variance of dX = -rate X dt + sqrt(2 a) dW from x0."""
    mean = x0 * np.exp(-rate * t)
    if rate == 0:
        return mean, 2 * a_scale * t
    return mean, (a_scale / rate) * (1 - np.exp(-2 * rate * t))


def random_spd(rng, d, scale=1.0):
    m = rng.standard_normal((d, d))
    return scale * (m @ m.T + d * np.eye(d) * 0.3)


def rk4_moments_fixed(a_fn, c_fn, s_fn, m0, c0, t_start, tau, n_steps=800):
    """(m, C) of dX = (A X + c) dt + S dW after tau, by n_steps fixed RK4 steps.

    The loop the package used before its moment path: every stage calls the
    coefficient functions afresh.  Step i runs from t_start + i h to
    t_start + (i + 1) h, and the last step ends exactly at t_start + tau.
    """
    m, cov = m0.copy(), c0.copy()
    h = tau / n_steps
    t_end = t_start + tau

    def rhs(t, m, cov):
        a = a_fn(t)
        s = s_fn(t)
        return a @ m + c_fn(t), a @ cov + cov @ a.T + s @ s.T

    for i in range(n_steps):
        t = t_start + i * h
        k1m, k1c = rhs(t, m, cov)
        k2m, k2c = rhs(t_start + (i + 0.5) * h, m + 0.5 * h * k1m, cov + 0.5 * h * k1c)
        k3m, k3c = rhs(t_start + (i + 0.5) * h, m + 0.5 * h * k2m, cov + 0.5 * h * k2c)
        k4m, k4c = rhs(t_end if i == n_steps - 1 else t_start + (i + 1) * h, m + h * k3m, cov + h * k3c)
        m = m + (h / 6.0) * (k1m + 2 * k2m + 2 * k3m + k4m)
        cov = cov + (h / 6.0) * (k1c + 2 * k2c + 2 * k3c + k4c)
    return m, 0.5 * (cov + cov.T)


def van_loan_moments(a, c, q, m0, c0, tau):
    """(m, C) of dX = (A X + c) dt + S dW after tau for constant A, c and
    Q = S S', one single-matrix expm per Van Loan block.

    The per-time form the package used before it exponentiated every time
    at once.
    """
    d = m0.size
    ea = expm(a * tau)
    blk = np.zeros((2 * d, 2 * d))
    blk[:d, :d] = a
    blk[:d, d:] = np.eye(d)
    int_ea = expm(blk * tau)[:d, d:]
    blk2 = np.zeros((2 * d, 2 * d))
    blk2[:d, :d] = a
    blk2[:d, d:] = q
    blk2[d:, d:] = -a.T
    cov = ea @ c0 @ ea.T + expm(blk2 * tau)[:d, d:] @ ea.T
    return ea @ m0 + int_ea @ c, 0.5 * (cov + cov.T)


def td_ou_law_quad(x0, v0, c, a_scale, rate_integral, t):
    """Mean and variance of dX = (-r(s) X + c) ds + sqrt(2 a) dW at time t.

    rate_integral(s) = int_0^s r.  With R = rate_integral, the moments are
    m = e^{-R(t)} (x0 + c int_0^t e^{R}) and
    v = e^{-2R(t)} (v0 + 2a int_0^t e^{2R}), the integrals by adaptive
    quadrature.
    """
    grow, _ = quad(lambda s: np.exp(rate_integral(s)), 0.0, t, epsabs=0.0, epsrel=1e-13, limit=200)
    grow2, _ = quad(lambda s: np.exp(2.0 * rate_integral(s)), 0.0, t, epsabs=0.0, epsrel=1e-13, limit=200)
    decay = np.exp(-rate_integral(t))
    return decay * (x0 + c * grow), decay**2 * (v0 + 2.0 * a_scale * grow2)


def scaled_increments(seed, n_rows, times, dim, stream=0):
    """The rows' Brownian increments over the grid: the rows' normals, from
    the one stream of (seed, stream), in a buffer of their own and scaled
    by sqrt(h)."""
    normals = path_normals(seed, np.empty((n_rows, times.size - 1, dim)), stream)
    return normals * np.sqrt(np.diff(times))[None, :, None]


def separate_increments_integrate(x0_rows, times, advance, seed, stream, dim, interacting=False):
    """The Euler time loop with its (n_rows, n_steps, dim) increments drawn
    first into an array of their own and scaled there in place; a drop-in
    for dynamics._integrate, with its blow-up policy."""
    times = _checked_grid(times)
    n_rows, width = x0_rows.shape
    increments = path_normals(seed, np.empty((n_rows, times.size - 1, dim)), stream)
    increments *= np.sqrt(np.diff(times))[None, :, None]
    paths = np.empty((n_rows, times.size, width))
    paths[:, 0, :] = x0_rows
    x = x0_rows
    alive = np.ones(n_rows, dtype=bool)
    aborted = []
    for k in range(times.size - 1):
        with np.errstate(over="ignore", invalid="ignore"):
            x_new = advance(times[k], times[k + 1] - times[k], x, increments[:, k, :])
        bad = alive & ~np.all(np.isfinite(x_new), axis=1)
        if np.any(bad):
            aborted.extend(np.nonzero(bad)[0].tolist())
            if interacting:
                paths[:, k + 1 :, :] = np.nan
                break
            alive &= ~bad
        x_new[~alive] = np.nan
        paths[:, k + 1, :] = x = x_new
    return PathEnsemble(times=times, paths=paths, aborted=tuple(sorted(aborted)))


def synchronous_pair_loop(field1, field2, x1, x2, times, increments):
    """(X1 paths, X2 paths, separation) of a synchronously coupled pair.

    X1 by its own Euler step, D = X1 - X2 by the Euler step of the
    difference equation, X2 recomposed as X1 - D.
    """
    n, nodes, d = increments.shape[0], times.size, x1.size
    p1 = np.empty((n, nodes, d))
    p2 = np.empty((n, nodes, d))
    sep = np.empty((n, nodes))
    x = np.tile(x1, (n, 1))
    diff = np.tile(x1 - x2, (n, 1))
    p1[:, 0, :] = x
    p2[:, 0, :] = x - diff
    sep[:, 0] = np.linalg.norm(diff, axis=1)
    for k in range(nodes - 1):
        t, h = times[k], times[k + 1] - times[k]
        dw = increments[:, k, :]
        y = x - diff
        db = field1.drift(t, x) - field2.drift(t, y)
        dsig = field1.sigma(t, x) - field2.sigma(t, y)
        x = x + field1.drift(t, x) * h + np.einsum("nij,nj->ni", field1.sigma(t, x), dw)
        diff = diff + db * h + np.einsum("nij,nj->ni", dsig, dw)
        p1[:, k + 1, :] = x
        p2[:, k + 1, :] = x - diff
        sep[:, k + 1] = np.linalg.norm(diff, axis=1)
    return p1, p2, sep


def particle_loop(field, x0, times, increments):
    """Paths of an interacting cloud from the rows of x0, the empirical measure
    of the cloud fed back to the coefficients each step."""
    paths = np.empty((x0.shape[0], times.size, x0.shape[1]))
    paths[:, 0, :] = x0
    x = x0.copy()
    for k in range(times.size - 1):
        t, h = times[k], times[k + 1] - times[k]
        mu = EmpiricalMeasure(x)
        x = x + field.drift(t, x, mu) * h + np.einsum("nij,nj->ni", field.sigma(t, x, mu), increments[:, k, :])
        paths[:, k + 1, :] = x
    return paths


def _alternating_sinkhorn_plan(mu, nu, epsilon, max_iter, tol):
    """Log-domain Sinkhorn plan, alternating g and f updates; the full plan is
    formed every iteration to check the marginals."""
    cost = _cost_matrix(mu, nu)
    a, b = mu.weights, nu.weights
    log_a = np.log(np.maximum(a, 1e-300))
    log_b = np.log(np.maximum(b, 1e-300))
    f = np.zeros(a.size)
    g = np.zeros(b.size)
    for _ in range(max_iter):
        g = -epsilon * logsumexp((f[:, None] - cost) / epsilon + log_a[:, None], axis=0)
        f = -epsilon * logsumexp((g[None, :] - cost) / epsilon + log_b[None, :], axis=1)
        log_plan = (f[:, None] + g[None, :] - cost) / epsilon + log_a[:, None] + log_b[None, :]
        plan = np.exp(log_plan)
        err = max(np.max(np.abs(plan.sum(axis=1) - a)), np.max(np.abs(plan.sum(axis=0) - b)))
        if err < tol:
            return plan, float(np.sum(plan * cost))
    raise SinkhornDivergedError(f"no convergence after {max_iter} iterations (marginal error {err:.2e})")


def alternating_sinkhorn_costs(mu, nu, epsilon, max_iter=10_000, tol=1e-7):
    """(raw cost, debiased cost) of entropic OT, each of the three problems
    (cross and the two self-transports) solved by alternating updates."""
    raw = _alternating_sinkhorn_plan(mu, nu, epsilon, max_iter, tol)[1]
    self_mu = _alternating_sinkhorn_plan(mu, mu, epsilon, max_iter, tol)[1]
    self_nu = _alternating_sinkhorn_plan(nu, nu, epsilon, max_iter, tol)[1]
    return raw, raw - 0.5 * (self_mu + self_nu)
