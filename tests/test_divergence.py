import math

import numpy as np
import pytest

from entroflow import (
    DiscreteDistribution,
    DivergenceError,
    EmpiricalMeasure,
    GaussianMeasure,
    gaussian_sample,
    interpolation_bound_check,
    kl_discrete,
    kl_gaussian,
    kl_knn,
)

from _refs import quad_kl_gaussian_1d, random_spd


class TestKlGaussian:
    def test_identical_zero(self):
        g = GaussianMeasure([1.0, -1.0], np.array([[2.0, 0.5], [0.5, 1.0]]))
        assert kl_gaussian(g, g) == pytest.approx(0.0, abs=1e-12)

    def test_mean_shift_against_quadrature(self):
        # N(m, I) vs N(0, I): quadrature oracle gives m^2/2 per coordinate
        for m in (0.5, 1.0, 2.0):
            oracle = quad_kl_gaussian_1d(m, 1.0, 0.0, 1.0)
            assert oracle == pytest.approx(m * m / 2.0, abs=1e-8)
            got = kl_gaussian(GaussianMeasure([m], [[1.0]]), GaussianMeasure([0.0], [[1.0]]))
            assert got == pytest.approx(oracle, abs=1e-8)
        g2 = GaussianMeasure([1.0, 1.0], np.eye(2))
        assert kl_gaussian(g2, GaussianMeasure.standard(2)) == pytest.approx(1.0, abs=1e-12)

    def test_variance_case_against_quadrature(self):
        # 1-D N(0,4) vs N(0,1) = (3 - log 4)/2
        oracle = quad_kl_gaussian_1d(0.0, 4.0, 0.0, 1.0)
        closed = 0.5 * (3.0 - math.log(4.0))
        got = kl_gaussian(GaussianMeasure([0.0], [[4.0]]), GaussianMeasure([0.0], [[1.0]]))
        assert oracle == pytest.approx(closed, abs=1e-8)
        assert got == pytest.approx(closed, abs=1e-12)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            g1 = GaussianMeasure(rng.standard_normal(d), random_spd(rng, d))
            g2 = GaussianMeasure(rng.standard_normal(d), random_spd(rng, d))
            assert kl_gaussian(g1, g2) >= 0.0
        assert kl_gaussian(g1, g1) <= 1e-10

    def test_matches_fine_binning(self):
        # discretize two 1-D Gaussians on [-10, 10] with 0.01 bins
        from scipy.stats import norm

        edges = np.arange(-10.0, 10.0 + 1e-12, 0.01)
        p = np.diff(norm.cdf(edges, loc=0.5, scale=1.0))
        q = np.diff(norm.cdf(edges, loc=0.0, scale=1.2))
        labels = range(p.size)
        binned = kl_discrete(DiscreteDistribution(labels, p), DiscreteDistribution(labels, q))
        closed = kl_gaussian(
            GaussianMeasure([0.5], [[1.0]]), GaussianMeasure([0.0], [[1.44]])
        )
        assert abs(binned - closed) < 2e-2


class TestKlDiscrete:
    def test_identical_zero(self):
        p = DiscreteDistribution("ab", [0.3, 0.7])
        assert kl_discrete(p, p) == 0.0

    def test_absolute_continuity_failure(self):
        p = DiscreteDistribution("ab", [1.0, 0.0])
        q = DiscreteDistribution("ab", [0.0, 1.0])
        assert kl_discrete(p, q) == math.inf

    def test_two_term_sum(self):
        p = DiscreteDistribution("ab", [0.5, 0.5])
        q = DiscreteDistribution("ab", [0.25, 0.75])
        # direct two-term sum: 0.5 log 2 + 0.5 log(2/3) = 0.5 log(4/3)
        direct = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert direct == pytest.approx(0.5 * math.log(4.0 / 3.0))
        assert kl_discrete(p, q) == pytest.approx(direct, abs=1e-15)

    def test_zero_times_log_zero(self):
        p = DiscreteDistribution("abc", [0.5, 0.5, 0.0])
        q = DiscreteDistribution("abc", [0.25, 0.25, 0.5])
        assert math.isfinite(kl_discrete(p, q))

    def test_support_mismatch(self):
        with pytest.raises(DivergenceError):
            kl_discrete(DiscreteDistribution("ab", [1, 1]), DiscreteDistribution("ac", [1, 1]))


class TestKlKnn:
    def test_identical_law_near_zero(self):
        g = GaussianMeasure.standard(2)
        a = gaussian_sample(g, 10_000, seed=1)
        b = gaussian_sample(g, 10_000, seed=2)
        assert abs(kl_knn(a, b, k=5)) < 0.05

    def test_mean_shift_against_closed_form(self):
        g1 = GaussianMeasure([1.0], [[1.0]])
        g2 = GaussianMeasure([0.0], [[1.0]])
        closed = kl_gaussian(g1, g2)
        assert closed == pytest.approx(0.5)
        a = gaussian_sample(g1, 10_000, seed=3)
        b = gaussian_sample(g2, 10_000, seed=4)
        assert abs(kl_knn(a, b, k=5) - closed) < 0.1

    def test_k_too_large(self):
        g = GaussianMeasure.standard(1)
        a = gaussian_sample(g, 6, seed=5)
        b = gaussian_sample(g, 100, seed=6)
        with pytest.raises(DivergenceError):
            kl_knn(a, b, k=6)

    def test_nonuniform_weights_rejected(self):
        m = EmpiricalMeasure([[0.0], [1.0]], weights=[0.2, 0.8])
        u = EmpiricalMeasure([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0], [6.0]])
        with pytest.raises(DivergenceError):
            kl_knn(m, u, k=1)

    def test_coincident_points_raise(self):
        # every mu point is also a nu point, so each radius into nu_samples is 0
        x = gaussian_sample(GaussianMeasure.standard(1), 20, seed=7)
        with pytest.raises(DivergenceError, match="k=1"):
            kl_knn(x, x, k=1)

    @pytest.mark.parametrize("k", [0, 2.5, True])
    def test_k_must_be_a_positive_integer(self, k):
        # a fractional k would pick neighbors of two different orders
        a, b = (gaussian_sample(GaussianMeasure.standard(1), 20, seed=s) for s in (7, 8))
        with pytest.raises(DivergenceError, match="k must be an integer >= 1"):
            kl_knn(a, b, k=k)


class TestInterpolationBound:
    def test_all_equal_is_equality(self):
        p = DiscreteDistribution("ab", [0.4, 0.6])
        rep = interpolation_bound_check(p, p, p, p=2.0)
        assert rep.left == 0.0 and rep.right == 0.0
        assert rep.verdict == "holds"

    def test_worked_example(self):
        mu1 = DiscreteDistribution("ab", [0.5, 0.5])
        mu2 = DiscreteDistribution("ab", [0.25, 0.75])
        rep = interpolation_bound_check(mu1, mu2, mu1, p=2.0)
        # frozen from the direct evaluation of both sides
        assert rep.left == pytest.approx(0.14384103622589045, abs=1e-12)
        assert rep.right == pytest.approx(0.2876820724517809, abs=1e-12)
        assert rep.verdict == "holds"

    def test_vacuous_infinity(self):
        mu1 = DiscreteDistribution("ab", [0.5, 0.5])
        mu2 = DiscreteDistribution("ab", [1.0, 0.0])
        mu = DiscreteDistribution("ab", [0.5, 0.5])
        rep = interpolation_bound_check(mu1, mu2, mu, p=2.0)
        assert math.isinf(rep.right)
        assert rep.verdict == "holds"
        assert "vacuous" in rep.notes

    def test_p_must_exceed_one(self):
        p = DiscreteDistribution("ab", [0.5, 0.5])
        with pytest.raises(DivergenceError):
            interpolation_bound_check(p, p, p, p=1.0)

    def test_property_sweep_random_triples(self):
        # the inequality never fails across random triples and powers
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            labels = range(n)
            trip = [
                DiscreteDistribution(labels, rng.uniform(0.01, 1.0, n)) for _ in range(3)
            ]
            p = float(rng.uniform(1.0 + 1e-6, 10.0))
            rep = interpolation_bound_check(*trip, p=p)
            assert rep.left <= rep.right + 1e-9

    def test_property_sweep_with_zeros(self):
        rng = np.random.default_rng(321)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            labels = range(n)
            w = rng.uniform(0.0, 1.0, (3, n))
            w[rng.uniform(size=(3, n)) < 0.25] = 0.0
            w[:, 0] += 0.01  # keep total mass positive
            trip = [DiscreteDistribution(labels, row) for row in w]
            rep = interpolation_bound_check(*trip, p=float(rng.uniform(1.5, 6.0)))
            assert rep.verdict in ("holds",)
