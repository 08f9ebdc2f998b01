"""Relative entropy Ent(nu|mu) in closed form and by sample estimation.

Closed forms cover Gaussian pairs and finite discrete distributions (with
the +inf branch when absolute continuity fails).  The sample route is the
k-nearest-neighbor estimator of Wang, Kulkarni and Verdu (IEEE IT 55(5),
2009), chosen over kernel plug-ins because it is dimension-robust and has a
single integer parameter.  Natural log throughout.
"""

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial import cKDTree
from scipy.special import logsumexp

from .measures import EmpiricalMeasure, GaussianMeasure, _check_pair, _is_count
from .reports import ExperimentReport


class DivergenceError(ValueError):
    pass


class DiscreteDistribution:
    """Probability vector over labeled atoms."""

    __slots__ = ("labels", "probs")

    def __init__(self, labels, weights):
        labels = tuple(labels)
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(labels),):
            raise DivergenceError("weights must match the labels")
        if np.any(w < 0) or not np.all(np.isfinite(w)) or w.sum() <= 0:
            raise DivergenceError("weights must be nonnegative with positive mass")
        object.__setattr__(self, "labels", labels)
        p = w / w.sum()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteDistribution is immutable")

    @property
    def n_atoms(self):
        return len(self.labels)

    def same_support(self, other):
        return self.labels == other.labels

    def __repr__(self):
        return f"DiscreteDistribution(n={self.n_atoms})"


def kl_gaussian(g1, g2):
    """Ent(g1 | g2) for Gaussians.

    0.5 * (tr(S2^-1 S1) + (m2-m1)' S2^-1 (m2-m1) - d + log det S2 - log det S1)
    """
    _check_pair("kl_gaussian", GaussianMeasure, g1, g2)
    d = g1.dim
    c2 = cho_factor(g2.cov, lower=True)
    tr = np.trace(cho_solve(c2, g1.cov))
    dm = g2.mean - g1.mean
    quad = dm @ cho_solve(c2, dm)
    _, logdet2 = np.linalg.slogdet(g2.cov)
    _, logdet1 = np.linalg.slogdet(g1.cov)
    val = 0.5 * (tr + quad - d + logdet2 - logdet1)
    if val < -1e-10:
        raise DivergenceError(f"negative KL {val:.3e}: inputs numerically inconsistent")
    return max(float(val), 0.0)


def kl_discrete(p, q):
    """sum p_i log(p_i/q_i), with 0 log 0 = 0 and +inf when q misses mass of p."""
    if not (isinstance(p, DiscreteDistribution) and isinstance(q, DiscreteDistribution)):
        raise DivergenceError("kl_discrete needs DiscreteDistribution inputs")
    if not p.same_support(q):
        raise DivergenceError("support labels differ")
    mask = p.probs > 0
    if np.any(q.probs[mask] == 0):
        return math.inf
    return float(np.sum(p.probs[mask] * np.log(p.probs[mask] / q.probs[mask])))


def kl_knn(mu_samples, nu_samples, k=5):
    """k-NN estimate of Ent(law of mu_samples | law of nu_samples).

    Ratio-of-radii form: (d/n) sum_i log(nu_k(i)/rho_k(i)) + log(m/(n-1)),
    where rho_k is the k-th neighbor radius inside mu_samples and nu_k the
    k-th neighbor radius into nu_samples.  Consistent as n, m -> inf but
    biased at finite n and not guaranteed nonnegative.  A k-th neighbor
    radius of 0 (coincident sample points) has no log: DivergenceError.
    """
    _check_pair("kl_knn", EmpiricalMeasure, mu_samples, nu_samples)
    if not (mu_samples.is_uniform() and nu_samples.is_uniform()):
        raise DivergenceError("kl_knn needs uniform weights (plain samples)")
    n, m, d = mu_samples.n_points, nu_samples.n_points, mu_samples.dim
    if not _is_count(k):
        raise DivergenceError(f"k must be an integer >= 1, got {k!r}")
    if n < k + 1 or m < k + 1:
        raise DivergenceError("too few samples: need n, m >= k+1")
    x, y = mu_samples.points, nu_samples.points
    rho = cKDTree(x).query(x, k=[k + 1])[0][:, 0]  # k-th neighbor, self excluded
    nu_r = cKDTree(y).query(x, k=[k])[0][:, 0]
    if not (np.all(rho > 0) and np.all(nu_r > 0)):
        raise DivergenceError(f"a k-th neighbor radius (k={k}) is 0: coincident sample points")
    return float(d * np.mean(np.log(nu_r / rho)) + np.log(m / (n - 1)))


def _log_power_sum(mu, mu2, expo):
    """log sum_i (mu_i/mu2_i)^expo * mu2_i with the infinity convention."""
    mu_p, q = mu.probs, mu2.probs
    hot = mu_p > 0
    if np.any(q[hot] == 0):
        return math.inf  # d(mu)/d(mu2) does not exist
    mask = hot & (q > 0)  # atoms with mu = 0 contribute 0
    exponents = expo * np.log(mu_p[mask]) + (1.0 - expo) * np.log(q[mask])
    return float(logsumexp(exponents))


def _interpolation_right(first, log_power, p):
    """Interpolation right side p*Ent(mu1|mu) + (p-1)*log_power; +inf if either term is."""
    if math.isinf(first) or math.isinf(log_power):
        return math.inf
    return p * first + (p - 1.0) * log_power


def interpolation_bound_check(mu1, mu2, mu, p):
    """Interpolation inequality between three discrete distributions.

    Checks Ent(mu1|mu2) <= p Ent(mu1|mu) + (p-1) log sum (mu/mu2)^{p/(p-1)} mu2
    for p > 1, with the right side +inf whenever a required density does not
    exist (the inequality then holds vacuously).
    """
    for d in (mu1, mu2, mu):
        if not isinstance(d, DiscreteDistribution):
            raise DivergenceError("interpolation_bound_check needs DiscreteDistribution")
    if not (mu1.same_support(mu2) and mu1.same_support(mu)):
        raise DivergenceError("support labels differ")
    if not p > 1:
        raise DivergenceError("need p > 1")
    left = kl_discrete(mu1, mu2)
    first = kl_discrete(mu1, mu)
    power = _log_power_sum(mu, mu2, p / (p - 1.0))
    right = _interpolation_right(first, power, p)
    tol = 1e-10
    notes = ""
    if math.isinf(right):
        notes = "vacuous: right side infinite (density does not exist)"
    return ExperimentReport(
        name="interpolation_bound",
        params={
            "p": p,
            "n_atoms": mu1.n_atoms,
            "first_term": first,
            "log_power_sum": power,
        },
        left=left,
        right=right,
        tolerance=tol,
        notes=notes,
    )
