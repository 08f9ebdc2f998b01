import numpy as np
import pytest

from entroflow import (
    EmpiricalMeasure,
    GaussianMeasure,
    MeasureError,
    gaussian_sample,
    kl_gaussian,
    kl_knn,
    optimal_coupling_discrete,
    w2_empirical_1d,
    w2_empirical_ot,
    w2_gaussian,
)
from entroflow.transport import gaussian_optimal_map

from _refs import direct_covariance


class TestEmpirical:
    def test_single_point_is_dirac(self):
        m = EmpiricalMeasure([[1.0, 2.0]])
        assert m.n_points == 1 and m.dim == 2
        assert m.weights.tolist() == [1.0]

    def test_weights_normalized(self):
        m = EmpiricalMeasure([[0.0], [1.0]], weights=[2.0, 2.0])
        assert np.allclose(m.weights, [0.5, 0.5])
        assert abs(m.weights.sum() - 1.0) < 1e-12

    def test_mixed_dimension_rejected(self):
        with pytest.raises(MeasureError):
            EmpiricalMeasure([[1.0], [1.0, 2.0]])

    def test_empty_rejected(self):
        with pytest.raises(MeasureError):
            EmpiricalMeasure([])

    def test_negative_weight_rejected(self):
        with pytest.raises(MeasureError):
            EmpiricalMeasure([[0.0], [1.0]], weights=[1.0, -0.1])

    def test_second_moment_dirac_zero(self):
        assert EmpiricalMeasure([[0.0, 0.0]]).second_moment() == 0.0

    def test_second_moment_two_points(self):
        # direct sum (1+1)/2
        m = EmpiricalMeasure([[1.0, 0.0], [0.0, 1.0]])
        assert abs(m.second_moment() - 1.0) < 1e-15

    def test_immutable(self):
        m = EmpiricalMeasure([[1.0]])
        with pytest.raises(AttributeError):
            m.points = np.zeros((1, 1))
        with pytest.raises(ValueError):
            m.points[0, 0] = 2.0


class TestGaussian:
    def test_standard_second_moment_is_dim(self):
        for d in (1, 2, 5):
            assert GaussianMeasure.standard(d).second_moment() == pytest.approx(d)

    def test_non_spd_rejected(self):
        with pytest.raises(MeasureError):
            GaussianMeasure([0.0], [[0.0]])
        with pytest.raises(MeasureError):
            GaussianMeasure([0.0, 0.0], [[1.0, 0.0], [0.0, -1e-9]])

    def test_asymmetric_rejected(self):
        with pytest.raises(MeasureError):
            GaussianMeasure([0.0, 0.0], [[1.0, 0.1], [0.2, 1.0]])

    def test_near_singular_rejected(self):
        # smallest eigenvalue below 1e-12 of the largest
        cov = np.diag([1.0, 1e-13])
        with pytest.raises(MeasureError):
            GaussianMeasure([0.0, 0.0], cov)

    def test_second_moment_formula(self):
        g = GaussianMeasure([3.0, 4.0], np.diag([2.0, 5.0]))
        assert g.second_moment() == pytest.approx(25.0 + 7.0)


class TestSampling:
    def test_reproducible_bit_identical(self):
        g = GaussianMeasure.standard(3)
        a = gaussian_sample(g, 500, seed=42)
        b = gaussian_sample(g, 500, seed=42)
        assert np.array_equal(a.points, b.points)
        c = gaussian_sample(g, 500, seed=43)
        assert not np.array_equal(a.points, c.points)

    def test_lln_mean(self):
        s = gaussian_sample(GaussianMeasure.standard(1), 100_000, seed=11)
        assert abs(s.mean()[0]) < 0.02

    def test_sample_covariance_vs_direct_oracle(self):
        g = GaussianMeasure.standard(2)
        s = gaussian_sample(g, 100_000, seed=5)
        oracle = direct_covariance(s.points)
        assert np.max(np.abs(oracle - np.eye(2))) < 0.05
        assert np.max(np.abs(s.cov() - oracle)) < 1e-10

    def test_rejects_bad_inputs(self):
        with pytest.raises(MeasureError):
            gaussian_sample(GaussianMeasure.standard(1), 0, seed=0)

    @pytest.mark.parametrize("n", [2.5, True, np.float64(3.0)], ids=["fraction", "bool", "float"])
    def test_count_must_be_an_integer(self, n):
        # truncated, 2.5 would give 2 points
        with pytest.raises(MeasureError, match="integer n >= 1"):
            gaussian_sample(GaussianMeasure.standard(1), n, seed=0)

    def test_numpy_integer_count_accepted(self):
        g = GaussianMeasure.standard(2)
        assert np.array_equal(gaussian_sample(g, np.int64(5), 1).points, gaussian_sample(g, 5, 1).points)

    def test_second_moment_statistical(self):
        # 3-sigma check of the sampled second moment against |m|^2 + tr(C)
        mean = np.array([1.0, -0.5])
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        g = GaussianMeasure(mean, cov)
        n = 20_000
        s = gaussian_sample(g, n, seed=9)
        truth = g.second_moment()
        # Var(|X|^2) = 2 tr(C^2) + 4 m' C m for a Gaussian
        var = 2 * np.trace(cov @ cov) + 4 * mean @ cov @ mean
        se = np.sqrt(var / n)
        assert abs(s.second_moment() - truth) < 3 * se


def _clouds(d1, d2):
    return EmpiricalMeasure(np.arange(6.0 * d1).reshape(6, d1)), EmpiricalMeasure(np.ones((6, d2)))


def _gaussians(d1, d2):
    return GaussianMeasure.standard(d1), GaussianMeasure.standard(d2)


# each function that takes a pair of measures, with the kind it needs
PAIR_FUNCTIONS = [
    (w2_gaussian, _gaussians, "GaussianMeasure"),
    (gaussian_optimal_map, _gaussians, "GaussianMeasure"),
    (kl_gaussian, _gaussians, "GaussianMeasure"),
    (w2_empirical_ot, _clouds, "EmpiricalMeasure"),
    (optimal_coupling_discrete, _clouds, "EmpiricalMeasure"),
    (w2_empirical_1d, _clouds, "EmpiricalMeasure"),
    (kl_knn, _clouds, "EmpiricalMeasure"),
]


class TestPairCheck:
    @pytest.mark.parametrize("fn, pair, kind", PAIR_FUNCTIONS, ids=[f[0].__name__ for f in PAIR_FUNCTIONS])
    def test_wrong_kind_and_dimension_rejected(self, fn, pair, kind):
        other = _clouds if pair is _gaussians else _gaussians
        right, wrong = pair(1, 1)[0], other(1, 1)[1]
        for a, b in ((right, wrong), (wrong, right), (wrong, wrong)):
            with pytest.raises(MeasureError, match=f"{fn.__name__} needs {kind} inputs"):
                fn(a, b)
        with pytest.raises(MeasureError, match="dimension mismatch"):
            fn(*pair(1, 2))
