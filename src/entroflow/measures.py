"""Concrete probability measures on R^d: weighted point clouds and Gaussians.

These two representations are the common currency of the package: transport
distances, divergences and particle systems all consume and produce them.
Both are immutable value objects, safe to share across threads, with no
file form: reports are the package's only output format.
"""

from numbers import Integral, Real

import numpy as np

from ._rng import GAUSSIAN_SAMPLE, substream

#: relative SPD tolerance: smallest eigenvalue must exceed SPD_RTOL * largest
SPD_RTOL = 1e-12


class MeasureError(ValueError):
    """Invalid measure data (empty support, bad weights, non-SPD covariance)."""


class EmpiricalMeasure:
    """Weighted point cloud sum_i w_i * delta_{x_i} with finite second moment.

    Weights are stored explicitly even when uniform and always normalized to
    sum to one.  Instances are immutable after construction.
    """

    __slots__ = ("points", "weights")

    def __init__(self, points, weights=None):
        try:
            pts = np.asarray(points, dtype=float)
        except ValueError:
            if len({np.shape(np.atleast_1d(p)) for p in points}) > 1:
                raise MeasureError("points have inconsistent dimensions") from None
            raise
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
            raise MeasureError("points must be a nonempty (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise MeasureError("points must be finite")
        n = pts.shape[0]
        if weights is None:
            w = np.full(n, 1.0 / n)
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (n,):
                raise MeasureError("weights must match the number of points")
            if np.any(w < 0) or not np.all(np.isfinite(w)):
                raise MeasureError("weights must be nonnegative and finite")
            total = w.sum()
            if total <= 0:
                raise MeasureError("weights must have positive total mass")
            w = w / total
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    def __setattr__(self, name, value):
        raise AttributeError("EmpiricalMeasure is immutable")

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def n_points(self):
        return self.points.shape[0]

    def is_uniform(self):
        return np.max(np.abs(self.weights - 1.0 / self.n_points)) <= 1e-12

    def second_moment(self):
        """integral |x|^2 dm  (always finite for a finite cloud)."""
        return float(self.weights @ np.einsum("nd,nd->n", self.points, self.points))

    def mean(self):
        return self.weights @ self.points

    def cov(self):
        c = self.points - self.mean()
        return (c * self.weights[:, None]).T @ c

    def __repr__(self):
        return f"EmpiricalMeasure(n={self.n_points}, d={self.dim})"


class GaussianMeasure:
    """N(mean, cov) with symmetric positive-definite covariance."""

    __slots__ = ("mean", "cov")

    def __init__(self, mean, cov):
        m = np.asarray(mean, dtype=float).reshape(-1)
        c = np.asarray(cov, dtype=float)
        if c.shape != (m.size, m.size):
            raise MeasureError("covariance shape does not match the mean")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(c))):
            raise MeasureError("mean and covariance must be finite")
        scale = max(1.0, float(np.max(np.abs(c))))
        if np.max(np.abs(c - c.T)) > 1e-12 * scale:
            raise MeasureError("covariance is not symmetric within 1e-12")
        c = 0.5 * (c + c.T)
        eig = np.linalg.eigvalsh(c)
        if eig[0] <= SPD_RTOL * max(eig[-1], 0.0) or eig[0] <= 0.0:
            raise MeasureError(
                f"covariance is not SPD (eigenvalue range [{eig[0]:.3e}, {eig[-1]:.3e}])"
            )
        m.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "cov", c)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianMeasure is immutable")

    @property
    def dim(self):
        return self.mean.size

    def second_moment(self):
        """|mean|^2 + trace(cov)."""
        return float(self.mean @ self.mean + np.trace(self.cov))

    @classmethod
    def standard(cls, dim):
        return cls(np.zeros(dim), np.eye(dim))

    def cholesky(self):
        return np.linalg.cholesky(self.cov)

    def __repr__(self):
        return f"GaussianMeasure(d={self.dim})"


def _is_count(n):
    """The one count rule: n is an integer >= 1 (a numpy integer passes, a bool does not)."""
    return isinstance(n, Integral) and not isinstance(n, bool) and n >= 1


def _is_positive(x):
    """The one positive-number rule: x is a finite real > 0 (a numpy scalar passes, a bool does not)."""
    return isinstance(x, Real) and not isinstance(x, bool) and 0 < x < np.inf


def _check_pair(name, kind, m1, m2):
    """Raise MeasureError unless m1 and m2 are both of class kind, of one dimension."""
    if not (isinstance(m1, kind) and isinstance(m2, kind)):
        raise MeasureError(f"{name} needs {kind.__name__} inputs")
    if m1.dim != m2.dim:
        raise MeasureError("dimension mismatch")


def gaussian_sample(g, n, seed):
    """n i.i.d. draws from g as a uniform empirical measure.

    Deterministic given (g, n, seed): uses a Cholesky factor of the
    covariance and a dedicated counter-based substream.
    """
    if not isinstance(g, GaussianMeasure):
        raise MeasureError("gaussian_sample needs a GaussianMeasure")
    if not _is_count(n):
        raise MeasureError(f"need an integer n >= 1 samples, got {n!r}")
    return EmpiricalMeasure(_gaussian_points(g, n, substream(seed, *GAUSSIAN_SAMPLE)))


def _gaussian_points(g, n, rng):
    """(n, d) draws from the GaussianMeasure g: mean + z L' with z standard
    normal from the generator rng and L the Cholesky factor of the covariance."""
    z = rng.standard_normal((n, g.dim))
    return g.mean + z @ g.cholesky().T
