"""Quadratic Wasserstein distance W2 and optimal couplings.

Three regimes are covered exactly or to solver tolerance:

* Gaussian closed form
    W2(N(m1,S1), N(m2,S2))^2 = |m1-m2|^2 + tr(S1 + S2 - 2 (S2^1/2 S1 S2^1/2)^1/2)
* exact 1-D via the sorted quantile (comonotone) coupling
* discrete optimal transport: assignment fast path for equal-size uniform
  clouds, a network LP for weighted clouds, and log-domain Sinkhorn for the
  entropic regularization.

Sinkhorn works on the kernel -cost/epsilon, computed once per solve, and pays
one log-sum-exp pass per half-iteration.  After the row update the rows of
the plan are exact, and the column error is read off the next column update,
so the n x m plan is built only once that estimated error is below
SINKHORN_TOL, and returned only if its own measured marginal error is too.
The two self-transport problems of the debiased cost use the symmetric
averaged fixed point f <- (f + T f) / 2 (Feydy et al., AISTATS 2019) with the
same stop rule, where plain alternating updates can stall.  A non-finite
marginal error stops the solve at once; so does reaching SINKHORN_MAX_ITER.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
import scipy.sparse as sp

from .measures import EmpiricalMeasure, GaussianMeasure, MeasureError, _check_pair, _is_positive

#: memory budget for exact discrete OT (number of cost-matrix entries)
MAX_EXACT_ENTRIES = 4_000_000

SINKHORN_TOL = 1e-7
SINKHORN_MAX_ITER = 10_000


class TransportError(ValueError):
    pass


class SinkhornDivergedError(TransportError):
    """Entropic iteration did not meet the marginal tolerance in budget."""


class CouplingPlan:
    """A transport plan between two empirical measures.

    matrix[i, j] is the mass moved from mu point i to nu point j; row sums
    equal mu.weights, column sums equal nu.weights, and cost is
    sum_ij matrix[i,j] |x_i - y_j|^2.

    Entropic plans also carry the iteration count of their Sinkhorn solve
    and the measured marginal error of the returned matrix; exact plans
    leave both None.  validate() holds a plan that carries its iterations
    to the marginals within SINKHORN_TOL, the tolerance it was solved to,
    and an exact plan within 1e-9.
    """

    __slots__ = ("mu", "nu", "matrix", "cost", "debiased_cost", "iterations", "marginal_error")

    def __init__(
        self, mu, nu, matrix, cost, debiased_cost=None, iterations=None, marginal_error=None
    ):
        self.mu = mu
        self.nu = nu
        self.matrix = np.asarray(matrix, dtype=float)
        self.cost = float(cost)
        self.debiased_cost = debiased_cost
        self.iterations = iterations
        self.marginal_error = marginal_error

    def marginal_violation(self):
        return _marginal_error(self.matrix, self.mu.weights, self.nu.weights)

    def validate(self):
        if np.any(self.matrix < -1e-9):
            raise TransportError("plan has negative mass")
        tol = 1e-9 if self.iterations is None else SINKHORN_TOL
        if self.marginal_violation() > tol:
            raise TransportError(f"plan marginals violated beyond {tol:g}")
        ref = float(np.sum(self.matrix * _cost_matrix(self.mu, self.nu)))
        if abs(ref - self.cost) > 1e-9 * max(1.0, abs(ref)):
            raise TransportError("stored cost disagrees with the plan")
        return self


def _marginal_error(plan, a, b):
    """Largest deviation of plan's row sums from a and of its column sums from b."""
    return float(max(np.max(np.abs(plan.sum(axis=1) - a)), np.max(np.abs(plan.sum(axis=0) - b))))


def _cost_matrix(mu, nu):
    x, y = mu.points, nu.points
    # |x|^2 + |y|^2 - 2<x,y>, clamped at 0 against rounding
    sq = (
        np.einsum("nd,nd->n", x, x)[:, None]
        + np.einsum("md,md->m", y, y)[None, :]
        - 2.0 * x @ y.T
    )
    return np.maximum(sq, 0.0)


def _sqrtm_spd(mat):
    w, v = np.linalg.eigh(mat)
    w = np.maximum(w, 0.0)
    return (v * np.sqrt(w)) @ v.T


def w2_gaussian(g1, g2):
    """Exact W2 between Gaussians (Bures closed form)."""
    _check_pair("w2_gaussian", GaussianMeasure, g1, g2)
    dm = g1.mean - g2.mean
    r2 = _sqrtm_spd(g2.cov)
    cross = _sqrtm_spd(r2 @ g1.cov @ r2)
    val = dm @ dm + np.trace(g1.cov) + np.trace(g2.cov) - 2.0 * np.trace(cross)
    return float(np.sqrt(max(val, 0.0)))


def gaussian_optimal_map(g1, g2):
    """(A, b) with T(x) = A x + b pushing g1 onto g2 optimally."""
    _check_pair("gaussian_optimal_map", GaussianMeasure, g1, g2)
    r1 = _sqrtm_spd(g1.cov)
    r1i = np.linalg.inv(r1)
    a = r1i @ _sqrtm_spd(r1 @ g2.cov @ r1) @ r1i
    return a, g2.mean - a @ g1.mean


def _lower_half_cost(x, wx, y, wy):
    """Quantile-coupling cost over the levels (0, 1/2] of points x, y with weights wx, wy.

    The breakpoints are both sides' cumulative weights below 1/2; each piece
    couples the first atom on each side whose cumulative weight reaches its end.
    """
    xs, ys = np.argsort(x), np.argsort(y)
    cx, cy = np.cumsum(wx[xs]), np.cumsum(wy[ys])
    cuts = np.append(np.union1d(cx[cx < 0.5], cy[cy < 0.5]), 0.5)
    d = x[xs[np.searchsorted(cx, cuts)]] - y[ys[np.searchsorted(cy, cuts)]]
    return np.diff(cuts, prepend=0.0) @ (d * d)


def w2_empirical_1d(mu, nu):
    """Exact W2 in one dimension via the quantile (comonotone) coupling."""
    _check_pair("w2_empirical_1d", EmpiricalMeasure, mu, nu)
    if mu.dim != 1:
        raise TransportError("w2_empirical_1d needs 1-D measures")
    x, y = mu.points[:, 0], nu.points[:, 0]
    # the levels above 1/2 are the lower half of the reflected pair, so each
    # half is cumulated from its own end: one running sum from the bottom
    # would round away a top weight below half an ulp of 1
    cost = _lower_half_cost(x, mu.weights, y, nu.weights) + _lower_half_cost(-x, mu.weights, -y, nu.weights)
    return float(np.sqrt(max(cost, 0.0)))


def _exact_plan(mu, nu):
    n, m = mu.n_points, nu.n_points
    if n * m > MAX_EXACT_ENTRIES:
        raise TransportError(
            f"exact OT refused: {n}x{m} cost entries exceed {MAX_EXACT_ENTRIES}; "
            "use method='entropic'"
        )
    cost = _cost_matrix(mu, nu)
    if n == m and mu.is_uniform() and nu.is_uniform():
        # assignment fast path: the common Monte Carlo case
        rows, cols = linear_sum_assignment(cost)
        plan = np.zeros((n, m))
        plan[rows, cols] = 1.0 / n
        total = float(cost[rows, cols].sum() / n)
        return CouplingPlan(mu, nu, plan, total)
    # general weighted LP: min <c, pi>, rows sum to mu.w, cols sum to nu.w.
    # One column constraint dropped (marginals are rank deficient).
    row_mat = sp.kron(sp.eye(n), np.ones((1, m)), format="csr")
    col_mat = sp.kron(np.ones((1, n)), sp.eye(m), format="csr")[:-1]
    a_eq = sp.vstack([row_mat, col_mat], format="csr")
    b_eq = np.concatenate([mu.weights, nu.weights[:-1]])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise TransportError(f"exact OT LP failed: {res.message}")
    plan = res.x.reshape(n, m)
    return CouplingPlan(mu, nu, plan, float(np.sum(plan * cost)))


def logsumexp(x, axis):
    """log sum exp(x) along axis, shifted by the maximum (x finite)."""
    top = np.max(x, axis=axis, keepdims=True)
    return np.log(np.sum(np.exp(x - top), axis=axis)) + np.squeeze(top, axis=axis)


def _half_step(kernel, h, axis):
    """One Sinkhorn half-iteration: -log sum_i exp(kernel_ij + h_i) along axis.

    h lies along `axis`; the result lies along the other one.  Everything is
    in units of epsilon: kernel = -cost / epsilon, and h is a potential over
    epsilon plus the log weights of its side.
    """
    shifted = kernel + (h[:, None] if axis == 0 else h[None, :])
    return -logsumexp(shifted, axis)


def _check_error(err, iterations):
    if not np.isfinite(err):
        raise SinkhornDivergedError(
            f"marginal error not finite after {iterations} iterations; "
            "increase epsilon or use method='exact'"
        )


def _measured_plan(kernel, h_rows, h_cols, a, b, iterations):
    """The plan exp(kernel + h_rows + h_cols) and its largest marginal error."""
    plan = np.exp(kernel + h_rows[:, None] + h_cols[None, :])
    err = _marginal_error(plan, a, b)
    _check_error(err, iterations)
    return plan, err


def _no_convergence(err):
    return SinkhornDivergedError(
        f"no convergence after {SINKHORN_MAX_ITER} iterations (marginal error {err:.2e}); "
        "increase epsilon or use method='exact'"
    )


def _log_weights(w):
    return np.log(np.maximum(w, 1e-300))


def _sinkhorn(kernel, a, b):
    """Alternating Sinkhorn on kernel = -cost / epsilon: (plan, iterations, error).

    Iteration k updates the row potential u (so the rows of the plan (u, v)
    are exact) and then the next column potential v'.  The columns of the
    plan (u, v) sum to b * exp(v - v'), so their error is read off v' without
    forming the plan; the plan is built, and its own error measured, only
    once that estimate is below SINKHORN_TOL.
    """
    log_a, log_b = _log_weights(a), _log_weights(b)
    v = _half_step(kernel, log_a, axis=0)  # u = 0
    for k in range(1, SINKHORN_MAX_ITER + 1):
        u = _half_step(kernel, v + log_b, axis=1)
        v_next = _half_step(kernel, u + log_a, axis=0)
        err = np.max(b * np.abs(np.expm1(v - v_next)))
        _check_error(err, k)
        if err < SINKHORN_TOL:
            plan, err = _measured_plan(kernel, u + log_a, v + log_b, a, b, k)
            if err < SINKHORN_TOL:
                return plan, k, err
        v = v_next
    raise _no_convergence(err)


def _symmetric_sinkhorn(kernel, a):
    """Self-transport Sinkhorn on a symmetric kernel: (plan, iterations, error).

    Averaged fixed point u <- (u + T u) / 2 with T u = -log sum_j exp(kernel_ij
    + u_j + log a_j) (Feydy et al., AISTATS 2019).  The rows of the plan
    (u, u) sum to a * exp(u - T u); the plan is built, and its own error
    measured, once that estimate is below SINKHORN_TOL.
    """
    log_a = _log_weights(a)
    u = np.zeros(a.size)
    for k in range(1, SINKHORN_MAX_ITER + 1):
        t_u = _half_step(kernel, u + log_a, axis=1)
        err = np.max(a * np.abs(np.expm1(u - t_u)))
        _check_error(err, k)
        if err < SINKHORN_TOL:
            plan, err = _measured_plan(kernel, u + log_a, u + log_a, a, a, k)
            if err < SINKHORN_TOL:
                return plan, k, err
        u = 0.5 * (u + t_u)
    raise _no_convergence(err)


def _self_transport_cost(m, epsilon):
    cost = _cost_matrix(m, m)
    plan, _, _ = _symmetric_sinkhorn(-cost / epsilon, m.weights)
    return float(np.sum(plan * cost))


def _entropic_plan(mu, nu, epsilon):
    if not _is_positive(epsilon):
        raise TransportError(f"entropic method needs a finite epsilon > 0, got {epsilon!r}")
    cost = _cost_matrix(mu, nu)
    plan, iterations, err = _sinkhorn(-cost / epsilon, mu.weights, nu.weights)
    raw = float(np.sum(plan * cost))
    self_mu = _self_transport_cost(mu, epsilon)
    self_nu = _self_transport_cost(nu, epsilon)
    debiased = raw - 0.5 * (self_mu + self_nu)
    return CouplingPlan(
        mu, nu, plan, raw, debiased_cost=debiased, iterations=iterations, marginal_error=err
    )


def w2_empirical_ot(mu, nu, method="exact", epsilon=None):
    """Discrete OT distance and plan.

    method='exact' solves the linear program (assignment fast path for
    equal-size uniform clouds).  method='entropic' runs log-domain Sinkhorn
    at a finite regularization epsilon > 0 and additionally reports the
    debiased cost (raw cost minus half the two self-transport costs) on the
    plan.  Each of the three Sinkhorn solves stops once its plan's marginal
    error is below SINKHORN_TOL and raises SinkhornDivergedError after
    SINKHORN_MAX_ITER iterations or on a non-finite error.

    Returns (distance, plan) with distance = sqrt(plan cost).
    """
    _check_pair("w2_empirical_ot", EmpiricalMeasure, mu, nu)
    if method == "exact":
        plan = _exact_plan(mu, nu)
    elif method == "entropic":
        plan = _entropic_plan(mu, nu, epsilon)
    else:
        raise TransportError(f"unknown method {method!r}")
    return float(np.sqrt(max(plan.cost, 0.0))), plan


def optimal_coupling_discrete(mu, nu):
    """Exact optimal plan attaining W2^2 between two point clouds."""
    _check_pair("optimal_coupling_discrete", EmpiricalMeasure, mu, nu)
    return _exact_plan(mu, nu)


def w2_exact(m1, m2):
    """Dispatch to the sharpest available exact W2 for the input pair."""
    if isinstance(m1, GaussianMeasure) and isinstance(m2, GaussianMeasure):
        return w2_gaussian(m1, m2)
    if isinstance(m1, EmpiricalMeasure) and isinstance(m2, EmpiricalMeasure):
        if m1.dim == 1:
            return w2_empirical_1d(m1, m2)
        return w2_empirical_ot(m1, m2, method="exact")[0]
    raise MeasureError("w2_exact needs two Gaussians or two empirical measures")
