import json
import math

import numpy as np
import pytest

from entroflow import (
    CouplingPlan,
    EmpiricalMeasure,
    GaussianMeasure,
    TransportError,
    gaussian_sample,
    optimal_coupling_discrete,
    w2_empirical_1d,
    w2_empirical_ot,
    w2_gaussian,
)
from entroflow.transport import (
    MAX_EXACT_ENTRIES,
    SINKHORN_MAX_ITER,
    SINKHORN_TOL,
    SinkhornDivergedError,
    _cost_matrix,
    _sinkhorn,
)

from _refs import (
    alternating_sinkhorn_costs,
    brute_force_w2sq_uniform,
    w2_quantile_gaussian_1d,
)


class TestGaussianW2:
    def test_identical_zero(self):
        g = GaussianMeasure([1.0, 2.0], np.diag([2.0, 3.0]))
        assert w2_gaussian(g, g) == pytest.approx(0.0, abs=1e-10)

    def test_translation_case(self):
        x, y = np.array([1.0, 1.0]), np.array([4.0, 5.0])
        tau = 0.7
        g1 = GaussianMeasure(x, tau * np.eye(2))
        g2 = GaussianMeasure(y, tau * np.eye(2))
        assert w2_gaussian(g1, g2) == pytest.approx(5.0, abs=1e-12)

    def test_1d_against_quantile_oracle(self):
        # N(0,1) vs N(1,4): oracle sqrt((m1-m2)^2 + (s1-s2)^2) = sqrt(2)
        oracle = w2_quantile_gaussian_1d(0.0, 1.0, 1.0, 2.0)
        got = w2_gaussian(GaussianMeasure([0.0], [[1.0]]), GaussianMeasure([1.0], [[4.0]]))
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            m = rng.standard_normal((2, d))
            c1 = rng.standard_normal((d, d))
            c2 = rng.standard_normal((d, d))
            g1 = GaussianMeasure(m[0], c1 @ c1.T + 0.2 * np.eye(d))
            g2 = GaussianMeasure(m[1], c2 @ c2.T + 0.2 * np.eye(d))
            assert abs(w2_gaussian(g1, g2) - w2_gaussian(g2, g1)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(Exception):
            w2_gaussian(GaussianMeasure.standard(1), GaussianMeasure.standard(2))


class TestEmpirical1d:
    def test_identical_zero(self):
        m = EmpiricalMeasure([[0.0], [1.0], [2.0]])
        assert w2_empirical_1d(m, m) == 0.0

    def test_diracs(self):
        assert w2_empirical_1d(
            EmpiricalMeasure([[0.0]]), EmpiricalMeasure([[3.0]])
        ) == pytest.approx(3.0)

    def test_shifted_uniform_pair(self):
        # uniform{0,1} vs uniform{2,3}: monotone matching moves each point by 2
        mu = EmpiricalMeasure([[0.0], [1.0]])
        nu = EmpiricalMeasure([[2.0], [3.0]])
        brute = math.sqrt(
            min(
                0.5 * ((0 - 2) ** 2 + (1 - 3) ** 2),
                0.5 * ((0 - 3) ** 2 + (1 - 2) ** 2),
            )
        )
        assert w2_empirical_1d(mu, nu) == pytest.approx(brute) == pytest.approx(2.0)

    def test_weighted(self):
        mu = EmpiricalMeasure([[0.0], [1.0]], weights=[0.75, 0.25])
        nu = EmpiricalMeasure([[0.0], [1.0]], weights=[0.25, 0.75])
        # quantile coupling moves mass 0.5 across distance 1
        assert w2_empirical_1d(mu, nu) == pytest.approx(math.sqrt(0.5))

    def test_rejects_2d(self):
        m = EmpiricalMeasure([[0.0, 0.0]])
        with pytest.raises(TransportError):
            w2_empirical_1d(m, m)

    def test_singletons_give_the_distance_exactly(self):
        rng = np.random.default_rng(13)
        for x, y in rng.standard_normal((200, 2)) * 10.0 ** rng.uniform(-6, 6, (200, 1)):
            assert w2_empirical_1d(EmpiricalMeasure([[x]]), EmpiricalMeasure([[y]])) == abs(x - y)

    @pytest.mark.parametrize("far", [100.0, -100.0])
    def test_tiny_weight_far_away_counts(self, far):
        # the 5e-17 atom is below half an ulp of the running total 1; the
        # quantile coupling moves it from far to 0: W2 = sqrt(5e-17) * 100
        mu = EmpiricalMeasure([[0.0], [far]], weights=[1.0, 5e-17])
        got = w2_empirical_1d(mu, EmpiricalMeasure([[0.0]]))
        assert got == pytest.approx(math.sqrt(5e-17) * 100.0, rel=1e-12)


class TestDiscreteOT:
    def test_identical_zero(self):
        m = EmpiricalMeasure([[0.0, 1.0], [2.0, 0.0]])
        dist, plan = w2_empirical_ot(m, m, method="exact")
        assert dist == pytest.approx(0.0, abs=1e-12)
        plan.validate()

    def test_matches_1d_solver(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            mu = EmpiricalMeasure(rng.standard_normal((17, 1)))
            nu = EmpiricalMeasure(rng.standard_normal((17, 1)) + 0.5)
            exact = w2_empirical_ot(mu, nu, method="exact")[0]
            assert abs(exact - w2_empirical_1d(mu, nu)) < 1e-8

    def test_matches_1d_solver_weighted(self):
        rng = np.random.default_rng(1)
        mu = EmpiricalMeasure(rng.standard_normal((6, 1)), weights=rng.uniform(0.1, 1, 6))
        nu = EmpiricalMeasure(rng.standard_normal((9, 1)), weights=rng.uniform(0.1, 1, 9))
        exact = w2_empirical_ot(mu, nu, method="exact")[0]
        assert abs(exact - w2_empirical_1d(mu, nu)) < 1e-8

    def test_matches_1d_solver_with_ties(self):
        # unequal sizes on a half-integer lattice: ties inside each side and across
        rng = np.random.default_rng(12)
        for _ in range(20):
            n, m = rng.integers(2, 25, 2)
            mu = EmpiricalMeasure(rng.integers(-4, 5, n) * 0.5, weights=rng.uniform(0.05, 1, n))
            nu = EmpiricalMeasure(rng.integers(-3, 4, m) * 0.5, weights=rng.uniform(0.05, 1, m))
            exact = w2_empirical_ot(mu, nu, method="exact")[0]
            assert w2_empirical_1d(mu, nu) == pytest.approx(exact, rel=1e-9, abs=1e-12)

    def test_two_point_permutation_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 2))
        y = rng.standard_normal((2, 2))
        mu, nu = EmpiricalMeasure(x), EmpiricalMeasure(y)
        dist = w2_empirical_ot(mu, nu, method="exact")[0]
        assert dist**2 == pytest.approx(brute_force_w2sq_uniform(x, y), abs=1e-10)

    def test_three_point_permutation_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.standard_normal((3, 2))
            y = rng.standard_normal((3, 2))
            plan = optimal_coupling_discrete(EmpiricalMeasure(x), EmpiricalMeasure(y))
            assert plan.cost == pytest.approx(brute_force_w2sq_uniform(x, y), abs=1e-10)
            plan.validate()

    def test_dirac_pair_plan(self):
        plan = optimal_coupling_discrete(
            EmpiricalMeasure([[0.0]]), EmpiricalMeasure([[2.0]])
        )
        assert plan.matrix.shape == (1, 1)
        assert plan.matrix[0, 0] == pytest.approx(1.0)
        assert plan.cost == pytest.approx(4.0)

    def test_self_coupling_cost_zero(self):
        m = EmpiricalMeasure([[0.0], [1.0], [2.0]])
        plan = optimal_coupling_discrete(m, m)
        assert plan.cost == pytest.approx(0.0, abs=1e-12)

    def test_budget_refusal(self):
        n = int(math.isqrt(MAX_EXACT_ENTRIES)) + 10
        pts = np.zeros((n, 1))
        m = EmpiricalMeasure(pts)
        with pytest.raises(TransportError, match="entropic"):
            w2_empirical_ot(m, m, method="exact")

    def test_exact_cost_lower_bounds_feasible_plans(self):
        rng = np.random.default_rng(11)
        mu = EmpiricalMeasure(rng.standard_normal((8, 2)), weights=rng.uniform(0.2, 1, 8))
        nu = EmpiricalMeasure(rng.standard_normal((6, 2)), weights=rng.uniform(0.2, 1, 6))
        cost = _cost_matrix(mu, nu)
        opt = w2_empirical_ot(mu, nu, method="exact")[0] ** 2
        for _ in range(100):
            # iterative proportional fitting of a random positive matrix
            plan = rng.uniform(0.1, 1.0, size=(8, 6))
            for _ in range(200):
                plan *= (mu.weights / plan.sum(axis=1))[:, None]
                plan *= (nu.weights / plan.sum(axis=0))[None, :]
            assert np.max(np.abs(plan.sum(axis=1) - mu.weights)) < 1e-9
            assert float(np.sum(plan * cost)) >= opt - 1e-9


class TestCouplingPlan:
    def test_marginal_violation_reads_rows_and_columns(self):
        even = EmpiricalMeasure([[0.0], [1.0]])
        skew = EmpiricalMeasure([[0.0], [1.0]], weights=[0.25, 0.75])
        # the diagonal plan of even masses: right for `even`, off by 0.25 for `skew`
        for mu, nu in ((even, skew), (skew, even)):
            plan = CouplingPlan(mu, nu, [[0.5, 0.0], [0.0, 0.5]], 0.0)
            assert plan.marginal_violation() == 0.25
            with pytest.raises(TransportError, match="marginals"):
                plan.validate()

    def test_converged_entropic_plans_validate(self):
        # a plan solved to SINKHORN_TOL is held to it; the exact rule of 1e-9
        # rejected every one of these at marginal errors near 9e-8
        rng = np.random.default_rng(4)
        for _ in range(10):
            mu = EmpiricalMeasure(rng.standard_normal((30, 2)))
            nu = EmpiricalMeasure(rng.standard_normal((30, 2)) + 0.5)
            plan = w2_empirical_ot(mu, nu, method="entropic", epsilon=0.5)[1]
            assert 1e-9 < plan.marginal_error < SINKHORN_TOL
            assert plan.validate() is plan
        # the same matrix without its iteration count is held to 1e-9
        exact_rule = CouplingPlan(plan.mu, plan.nu, plan.matrix, plan.cost)
        with pytest.raises(TransportError, match="marginals"):
            exact_rule.validate()


class TestSinkhorn:
    def test_entropic_close_to_exact(self):
        rng = np.random.default_rng(4)
        mu = EmpiricalMeasure(rng.standard_normal((30, 2)))
        nu = EmpiricalMeasure(rng.standard_normal((30, 2)) + 1.0)
        exact = w2_empirical_ot(mu, nu, method="exact")[0] ** 2
        eps = 0.5
        dist, plan = w2_empirical_ot(mu, nu, method="entropic", epsilon=eps)
        assert plan.marginal_violation() < 1e-7
        # feasible plan: raw cost dominates the optimum (up to marginal slack)
        assert plan.cost >= exact - 1e-6
        # entropic allowance: eps * log n
        assert plan.cost >= exact - eps * math.log(30) - 1e-9
        assert plan.debiased_cost is not None
        # debiasing removes most of the entropic inflation
        assert abs(plan.debiased_cost - exact) < abs(plan.cost - exact)

    def test_non_convergence_signalled(self):
        rng = np.random.default_rng(5)
        mu = EmpiricalMeasure(rng.standard_normal((10, 2)))
        nu = EmpiricalMeasure(rng.standard_normal((10, 2)) + 5.0)
        with pytest.raises(SinkhornDivergedError, match="increase epsilon"):
            w2_empirical_ot(mu, nu, method="entropic", epsilon=1e-9)

    def test_epsilon_required(self):
        m = EmpiricalMeasure([[0.0]])
        with pytest.raises(TransportError):
            w2_empirical_ot(m, m, method="entropic")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": math.nan},
            {"epsilon": math.inf},
            {"epsilon": -1.0},
            {"epsilon": True},
        ],
    )
    def test_bad_arguments_rejected(self, kwargs):
        m = EmpiricalMeasure([[0.0], [1.0]])
        with pytest.raises(TransportError, match="entropic method needs"):
            w2_empirical_ot(m, m, method="entropic", **kwargs)

    def test_nonfinite_error_stops_at_once(self):
        # a NaN in the kernel poisons the potentials: the solve stops at the
        # first iteration instead of running to the cap
        mu = EmpiricalMeasure([[0.0], [1.0]])
        with np.errstate(invalid="ignore"):
            with pytest.raises(SinkhornDivergedError, match="not finite after 1 iterations"):
                _sinkhorn(np.array([[0.0, np.nan], [np.nan, 0.0]]), mu.weights, mu.weights)

    @pytest.mark.parametrize(
        "kind, eps",
        [("uniform", 0.05), ("uniform", 0.02), ("gaussian", 0.5), ("weighted", 0.5), ("weighted", 1.0)],
    )
    def test_matches_alternating_reference(self, kind, eps):
        # the cross solve runs the reference's iterates, so its raw cost agrees to
        # rounding; the debiasing solves differ, each within tol of its marginals
        rng = np.random.default_rng(40)
        for _ in range(3):
            if kind == "uniform":
                mu = EmpiricalMeasure(rng.uniform(size=(40, 2)))
                nu = EmpiricalMeasure(rng.uniform(size=(40, 2)))
            elif kind == "gaussian":
                mu = EmpiricalMeasure(rng.standard_normal((30, 2)))
                nu = EmpiricalMeasure(rng.standard_normal((30, 2)) + 1.0)
            else:
                mu = EmpiricalMeasure(rng.standard_normal((25, 2)), weights=rng.uniform(0.1, 1, 25))
                nu = EmpiricalMeasure(rng.standard_normal((32, 2)) + 0.5, weights=rng.uniform(0.1, 1, 32))
            raw, debiased = alternating_sinkhorn_costs(mu, nu, eps)
            _, plan = w2_empirical_ot(mu, nu, method="entropic", epsilon=eps)
            assert abs(plan.cost - raw) <= 1e-12 * abs(raw)
            assert abs(plan.debiased_cost - debiased) <= 1e-7
            assert plan.marginal_violation() < SINKHORN_TOL

    def test_symmetric_debiasing_converges_where_alternating_stalls(self):
        # alternating updates on the self-transport of mu stall at the 10k cap
        rng = np.random.default_rng(2)
        mu = EmpiricalMeasure(rng.standard_normal((12, 2)))
        nu = EmpiricalMeasure(rng.standard_normal((12, 2)) + 1.0)
        with pytest.raises(SinkhornDivergedError):
            alternating_sinkhorn_costs(mu, nu, 0.25)
        _, plan = w2_empirical_ot(mu, nu, method="entropic", epsilon=0.25)
        assert plan.marginal_violation() < SINKHORN_TOL
        assert math.isfinite(plan.debiased_cost)

    def test_plan_reports_solver_state(self):
        rng = np.random.default_rng(9)
        mu = EmpiricalMeasure(rng.standard_normal((20, 2)))
        nu = EmpiricalMeasure(rng.standard_normal((15, 2)), weights=rng.uniform(0.1, 1, 15))
        _, plan = w2_empirical_ot(mu, nu, method="entropic", epsilon=0.5)
        assert isinstance(plan.iterations, int) and 1 <= plan.iterations <= SINKHORN_MAX_ITER
        assert plan.marginal_error == plan.marginal_violation()
        assert plan.marginal_error < SINKHORN_TOL
        exact = w2_empirical_ot(mu, nu, method="exact")[1]
        assert exact.iterations is None and exact.marginal_error is None


class TestProperties:
    def test_symmetry_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            mu = EmpiricalMeasure(rng.standard_normal((7, 2)), weights=rng.uniform(0.1, 1, 7))
            nu = EmpiricalMeasure(rng.standard_normal((5, 2)), weights=rng.uniform(0.1, 1, 5))
            a = w2_empirical_ot(mu, nu, method="exact")[0]
            b = w2_empirical_ot(nu, mu, method="exact")[0]
            assert abs(a - b) < 1e-8

    def test_triangle_inequality(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            ms = [EmpiricalMeasure(rng.standard_normal((6, 2))) for _ in range(3)]
            d01 = w2_empirical_ot(ms[0], ms[1], method="exact")[0]
            d12 = w2_empirical_ot(ms[1], ms[2], method="exact")[0]
            d02 = w2_empirical_ot(ms[0], ms[2], method="exact")[0]
            assert d02 <= d01 + d12 + 1e-6

    def test_sampling_consistency_1d(self):
        g1 = GaussianMeasure([0.0], [[1.0]])
        g2 = GaussianMeasure([1.5], [[0.5]])
        truth = w2_gaussian(g1, g2)
        errs = []
        for n, seed in ((100, 21), (1000, 22), (10_000, 23)):
            mu = gaussian_sample(g1, n, seed)
            nu = gaussian_sample(g2, n, seed + 100)
            errs.append(abs(w2_empirical_1d(mu, nu) - truth))
        assert errs[0] > errs[-1]
        assert errs[-1] < 0.05

    def test_sampling_consistency_2d_budgeted(self):
        # exact OT capped at the 4e6-entry budget, so the 2-D ladder stops at n=2000;
        # replicate-averaged absolute error must decrease along the ladder
        g1 = GaussianMeasure([0.0, 0.0], np.eye(2))
        g2 = GaussianMeasure([1.0, 0.5], 0.7 * np.eye(2))
        truth = w2_gaussian(g1, g2)
        errs = []
        for n in (100, 450, 2000):
            vals = []
            for r in range(6):
                mu = gaussian_sample(g1, n, 1000 * n + r)
                nu = gaussian_sample(g2, n, 2000 * n + r)
                vals.append(abs(w2_empirical_ot(mu, nu, method="exact")[0] - truth))
            errs.append(float(np.mean(vals)))
        assert errs[0] > errs[1] > errs[2]
