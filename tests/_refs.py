"""Independent reference oracles for the test suite.

Everything here is deliberately brute force (quadrature, exhaustive
enumeration, dense ODE stepping) and shares no code with the package paths
it checks.
"""

import itertools

import numpy as np
from scipy.integrate import quad


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
    coefficient functions afresh.
    """
    m, cov = m0.copy(), c0.copy()
    h = tau / n_steps

    def rhs(t, m, cov):
        a = a_fn(t)
        s = s_fn(t)
        return a @ m + c_fn(t), a @ cov + cov @ a.T + s @ s.T

    t = t_start
    for _ in range(n_steps):
        k1m, k1c = rhs(t, m, cov)
        k2m, k2c = rhs(t + 0.5 * h, m + 0.5 * h * k1m, cov + 0.5 * h * k1c)
        k3m, k3c = rhs(t + 0.5 * h, m + 0.5 * h * k2m, cov + 0.5 * h * k2c)
        k4m, k4c = rhs(t + h, m + h * k3m, cov + h * k3c)
        m = m + (h / 6.0) * (k1m + 2 * k2m + 2 * k3m + k4m)
        cov = cov + (h / 6.0) * (k1c + 2 * k2c + 2 * k3c + k4c)
        t += h
    return m, 0.5 * (cov + cov.T)


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
