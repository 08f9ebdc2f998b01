import dataclasses
import math

import numpy as np
import pytest

from entroflow import (
    BlowUpError,
    CoefficientField,
    DynamicsError,
    EmpiricalMeasure,
    GaussianMeasure,
    MeasureError,
    MVCoefficientField,
    euler_maruyama,
    evolve_particles,
    flow_map,
    meanfield,
    time_grid,
    w2_exact,
    w2_stability_experiment,
)
from entroflow.catalog import make_mv_field, mean_field_ou, ou_field
from entroflow.dynamics import _step
from entroflow.meanfield import _initial_cloud
from entroflow.reports import ExperimentError

from _refs import particle_loop, scaled_increments, separate_increments_integrate


def septic_field():
    """Drift x^7: Euler particles from x ~ 4 overflow within a few steps."""
    return MVCoefficientField(
        dim=1,
        drift=lambda t, x, mu: x**7,
        diffusion=lambda t, x, mu: np.broadcast_to(np.eye(1), (x.shape[0], 1, 1)),
        sigma_fn=lambda t, x, mu: np.broadcast_to(np.sqrt(2) * np.eye(1), (x.shape[0], 1, 1)),
        w2_lipschitz=0.0,
    )


class TestFieldWrapper:
    def test_mean_field_ou_validates(self):
        mean_field_ou(1, rate=1.0, a_scale=0.5).validate(seed=1)
        mean_field_ou(2, rate=0.7, a_scale=1.0).validate(seed=2)
        # rate*(mean - x) is |rate|-Lipschitz in W2 whatever the sign of rate
        mean_field_ou(1, rate=-1.0, a_scale=0.5).validate(seed=1)

    def test_nan_fails_the_measure_lipschitz_check(self):
        with pytest.raises(DynamicsError):
            mean_field_ou(1, rate=float("nan")).validate()
        with pytest.raises(DynamicsError):
            dataclasses.replace(mean_field_ou(1), w2_lipschitz=float("nan")).validate()

    def test_from_static_div_a_is_the_static_rule(self):
        # no analytic divergence: the wrapper's central differences are the static field's own
        base = CoefficientField(
            dim=2,
            drift_dini=lambda t, x: np.zeros_like(x),
            drift_lipschitz=lambda t, x: np.zeros_like(x),
            diffusion=lambda t, x: np.eye(2) * (1.0 + 0.1 * x[:, 0] ** 2 + 0.3 * t)[:, None, None],
            bound=10.0,
        )
        field = MVCoefficientField.from_static(base)
        x = np.random.default_rng(8).normal(size=(5, 2))
        mu = EmpiricalMeasure(x)
        assert np.array_equal(field.div_a(0.4, x, mu), base.div_a(0.4, x))

    def test_measure_lipschitz_violation_caught(self):
        bad = MVCoefficientField(
            dim=1,
            drift=lambda t, x, mu: 10.0 * (mu.mean() - x),
            diffusion=lambda t, x, mu: np.broadcast_to(np.eye(1), (x.shape[0], 1, 1)),
            sigma_fn=lambda t, x, mu: np.broadcast_to(np.sqrt(2) * np.eye(1), (x.shape[0], 1, 1)),
            div_a_fn=lambda t, x, mu: np.zeros_like(x),
            w2_lipschitz=0.5,
        )
        with pytest.raises(DynamicsError):
            bad.validate(seed=3)


class TestEvolveParticles:
    def test_distribution_free_matches_single_sde_bitwise(self):
        base = ou_field(2, rate=1.0, a_scale=0.5)
        field = MVCoefficientField.from_static(base)
        grid = time_grid(0.5, 64)
        n = 64
        x0 = np.array([1.0, -0.5])
        cloud = evolve_particles(field, EmpiricalMeasure(x0[None, :]), n, grid, seed=101)
        plain = euler_maruyama(base, x0, grid, seed=101, n_paths=n)
        assert np.array_equal(cloud.paths, plain.paths)

    def test_mean_conserved_for_mean_field_ou(self):
        # drift mean(mu) - x keeps the cloud mean a martingale
        field = mean_field_ou(1, rate=1.0, a_scale=0.5)
        n, t = 1000, 0.5
        init = EmpiricalMeasure(np.full((1, 1), 2.0))
        ens = evolve_particles(field, init, n, time_grid(t, 64), seed=5)
        terminal_mean = ens.terminal_measure().mean()[0]
        se = math.sqrt(2 * 0.5 * t / n)
        assert abs(terminal_mean - 2.0) < 3 * se

    def test_single_particle_accepted(self):
        field = mean_field_ou(1)
        ens = evolve_particles(field, EmpiricalMeasure([[0.0]]), 1, time_grid(0.2, 8), seed=6)
        assert ens.n_paths == 1

    @pytest.mark.parametrize("n", [0, -2, 2.5, True], ids=["zero", "negative", "fraction", "bool"])
    def test_particle_count_must_be_a_positive_integer(self, n):
        # truncated, 2.5 would run 2 particles
        with pytest.raises(DynamicsError, match="at least one particle"):
            evolve_particles(mean_field_ou(1), GaussianMeasure([0.0], [[1.0]]), n, time_grid(0.2, 8), seed=6)

    def test_start_must_be_a_measure(self):
        with pytest.raises(DynamicsError, match="GaussianMeasure or EmpiricalMeasure"):
            _initial_cloud(np.zeros((4, 1)), 4, 0, 0)

    def test_exchangeability_under_joint_permutation(self):
        # permuting (start, increment-stream) pairs permutes trajectories; the
        # terminal cloud is the same multiset up to summation rounding in the
        # measure feedback
        field = mean_field_ou(1, rate=1.0, a_scale=0.5)
        rng = np.random.default_rng(7)
        n, steps = 32, 16
        times = time_grid(0.25, steps)
        x0 = rng.standard_normal((n, 1))
        incs = scaled_increments(99, n, times, 1)
        perm = rng.permutation(n)

        def run(x_init, noise):
            x = x_init.copy()
            for k in range(steps):
                mu = EmpiricalMeasure(x)
                t = times[k]
                x = _step(x, times[k + 1] - t, field.drift(t, x, mu), field.sigma(t, x, mu), noise[:, k, :])
            return x

        a = run(x0, incs)
        b = run(x0[perm], incs[perm])
        assert np.allclose(np.sort(a[:, 0]), np.sort(b[:, 0]), atol=1e-10)

    def test_blowup_aborts_ensemble(self):
        ens = evolve_particles(septic_field(), EmpiricalMeasure([[4.0]]), 8, time_grid(4.0, 6), seed=8)
        assert ens.aborted
        with pytest.raises(Exception):
            ens.terminal_measure()

    def test_halt_matches_separate_increments(self, monkeypatch):
        # the halt NaN-fills the rest of every row, unread noise included
        ens = evolve_particles(septic_field(), EmpiricalMeasure([[4.0]]), 8, time_grid(4.0, 6), seed=8)
        halt = int(np.argmax(np.isnan(ens.paths[0, :, 0])))
        assert 0 < halt < 6 and np.isnan(ens.paths[:, halt:]).all()
        monkeypatch.setattr(meanfield, "_integrate", separate_increments_integrate)
        ref = evolve_particles(septic_field(), EmpiricalMeasure([[4.0]]), 8, time_grid(4.0, 6), seed=8)
        assert ens.aborted == ref.aborted
        assert np.array_equal(ens.paths, ref.paths, equal_nan=True)

    def test_bit_identical_to_reference_loop(self):
        field = mean_field_ou(2, rate=0.7, a_scale=0.5)
        init = GaussianMeasure([0.5, -0.2], [[0.5, 0.1], [0.1, 0.3]])
        grid = time_grid(0.5, 40)
        ens = evolve_particles(field, init, 64, grid, seed=22, stream=3)
        x0 = _initial_cloud(init, 64, 22, 3)
        incs = scaled_increments(22, 64, grid, 2, 3)
        assert np.array_equal(ens.paths, particle_loop(field, x0, grid, incs))

    def test_initial_dimension_checked(self):
        # unchecked, a 1-D cloud for a 2-D field broadcasts into both coordinates
        with pytest.raises(DynamicsError, match="dimension"):
            evolve_particles(mean_field_ou(2), EmpiricalMeasure([[0.0]]), 4, time_grid(0.2, 4), seed=0)

    @pytest.mark.parametrize("grid", [[0.0, 0.5, 0.2, 1.0], [0.0, math.nan, 1.0], [[0.0, 0.5], [0.5, 1.0]]])
    def test_bad_grid_rejected(self, grid):
        with pytest.raises(DynamicsError, match="time grid"):
            evolve_particles(mean_field_ou(1), EmpiricalMeasure([[0.0]]), 4, grid, seed=0)


class TestFlowMap:
    def test_time_zero_returns_initial_samples(self):
        pts = np.arange(10.0)[:, None]
        cloud = flow_map(mean_field_ou(1), EmpiricalMeasure(pts), 0.0, 10, 16, seed=9)
        assert np.array_equal(cloud.points, pts)

    def test_negative_time_rejected(self):
        with pytest.raises(DynamicsError, match="t >= 0"):
            flow_map(mean_field_ou(1), EmpiricalMeasure([[0.0]]), -0.5, 10, 16, seed=9)

    @pytest.mark.parametrize("n_particles, n_steps", [(2.5, 16), (10, 2.5), (0, 16)])
    def test_counts_checked_at_time_zero(self, n_particles, n_steps):
        # at t = 0 no step is taken; unchecked, a fractional particle count fails inside numpy
        with pytest.raises(DynamicsError, match="integer"):
            flow_map(mean_field_ou(1), GaussianMeasure([0.0], [[1.0]]), 0.0, n_particles, n_steps, seed=9)

    def test_zero_steps_rejected(self):
        # zero steps at t > 0 must not hand back the unmoved cloud as the law at t
        cloud = EmpiricalMeasure(np.full((50, 1), 3.0))
        with pytest.raises(DynamicsError):
            flow_map(make_mv_field("ou", 1), cloud, 2.0, 50, 0, seed=1)

    def test_nan_time_rejected(self):
        # a NaN t is bad input, not a cloud that blew up on the way
        cloud = EmpiricalMeasure(np.zeros((5, 1)))
        with pytest.raises(DynamicsError, match="t_end") as exc:
            flow_map(make_mv_field("ou", 1), cloud, math.nan, 5, 4, seed=1)
        assert not isinstance(exc.value, BlowUpError)

    def test_distribution_free_ou_matches_gaussian_oracle(self):
        base = ou_field(1, rate=1.0, a_scale=0.5)
        field = MVCoefficientField.from_static(base)
        t, n = 0.6, 4000
        cloud = flow_map(field, EmpiricalMeasure([[1.0]]), t, n, 128, seed=10)
        mean = math.exp(-t)
        var = 0.5 * (1 - math.exp(-2 * t))
        assert abs(cloud.mean()[0] - mean) < 3 * math.sqrt(var / n) + 2e-3
        assert abs(cloud.cov()[0, 0] - var) < 3 * math.sqrt(2 * var**2 / n) + 4e-3

    def test_flow_property_restart(self):
        # flow to s then restart for t-s lands on the same law as flow to t
        field = mean_field_ou(1, rate=1.0, a_scale=0.5)
        mu0 = GaussianMeasure([1.0], [[0.25]])
        s, t, n = 0.25, 0.5, 1000
        mid = flow_map(field, mu0, s, n, 64, seed=11)
        restarted = flow_map(field, mid, t - s, n, 64, seed=12)
        direct = flow_map(field, mu0, t, n, 128, seed=13)
        baseline = w2_exact(
            flow_map(field, mu0, t, n, 128, seed=14), flow_map(field, mu0, t, n, 128, seed=15)
        )
        assert w2_exact(restarted, direct) < 2.0 * baseline + 0.05


class TestStability:
    def test_blowup_raises(self):
        nu1, nu2 = EmpiricalMeasure([[4.0]]), EmpiricalMeasure([[4.5]])
        with pytest.raises(DynamicsError, match="blew up"):
            w2_stability_experiment(septic_field(), nu1, nu2, [0.5, 4.0], 8, 6, seed=19)

    def test_blowup_is_blowup_error(self):
        # the same outcome type as a slice of an aborted ensemble
        nu1, nu2 = EmpiricalMeasure([[4.0]]), EmpiricalMeasure([[4.5]])
        with pytest.raises(BlowUpError, match=r"blew up; no slice at t=0\.5"):
            w2_stability_experiment(septic_field(), nu1, nu2, [0.5, 4.0], 8, 6, seed=19)

    @pytest.mark.parametrize("n", [32.5, True, 0])
    def test_particle_count_checked_before_any_cloud(self, monkeypatch, n):
        # unchecked, 32.5 fails inside numpy once the initial clouds are drawn
        def no_clouds(*args, **kwargs):
            raise AssertionError("a cloud was drawn")

        monkeypatch.setattr(meanfield, "_coupled_initial_clouds", no_clouds)
        nu1, nu2 = EmpiricalMeasure([[0.0]]), EmpiricalMeasure([[1.0]])
        with pytest.raises(ExperimentError, match="n_particles must be an integer >= 1"):
            w2_stability_experiment(mean_field_ou(1), nu1, nu2, [0.5], n, 8, seed=21)

    def test_mixed_gaussian_empirical_pair_rejected(self):
        field = mean_field_ou(1)
        with pytest.raises(MeasureError):
            w2_stability_experiment(
                field, GaussianMeasure([0.0], [[1.0]]), EmpiricalMeasure([[1.0]]), [0.1], 16, 8, seed=20
            )

    @pytest.mark.parametrize("grid", [[], [0.5, np.nan], [-0.1, 0.5], [[0.1, 0.5]]], ids=["empty", "nan", "negative", "2-D"])
    def test_bad_grid_rejected(self, grid):
        nu1, nu2 = EmpiricalMeasure([[0.0]]), EmpiricalMeasure([[1.0]])
        with pytest.raises(ExperimentError, match="time grid"):
            w2_stability_experiment(mean_field_ou(1), nu1, nu2, grid, 16, 8, seed=21)

    def test_unsorted_grid_gives_sorted_report(self):
        args = (mean_field_ou(1), EmpiricalMeasure([[0.0]]), EmpiricalMeasure([[1.0]]))
        rep = w2_stability_experiment(*args, [0.5, 0.1, 0.25], 64, 16, seed=22)
        assert rep.to_json() == w2_stability_experiment(*args, [0.1, 0.25, 0.5], 64, 16, seed=22).to_json()

    def test_identical_initials_degenerate(self):
        field = mean_field_ou(1)
        nu = GaussianMeasure([0.0], [[1.0]])
        rep = w2_stability_experiment(field, nu, nu, [0.1, 0.2], 200, 32, seed=16)
        assert rep.verdict == "degenerate"

    def test_contractive_distribution_free_ratio(self):
        base = ou_field(1, rate=1.0, a_scale=0.5)
        field = MVCoefficientField.from_static(base)
        nu1 = GaussianMeasure([0.0], [[0.25]])
        nu2 = GaussianMeasure([2.0], [[0.25]])
        rep = w2_stability_experiment(
            field, nu1, nu2, [0.1, 0.25, 0.5], 512, 64, seed=17, bound=1.0
        )
        assert rep.verdict == "holds"
        # synchronous coupling contracts pair distances at rate e^{-t}
        assert rep.params["ratios"][-1] < math.exp(-0.5) * 1.2

    def test_mean_field_gronwall_bound(self):
        field = mean_field_ou(1, rate=1.0, a_scale=0.5)
        nu1 = EmpiricalMeasure([[0.0]])
        nu2 = EmpiricalMeasure([[1.5]])
        t_end = 0.5
        # measured sensitivity constants: rate in x and rate in the measure
        k_measured = 2.0
        rep = w2_stability_experiment(
            field,
            nu1,
            nu2,
            [0.1, 0.25, 0.5],
            512,
            64,
            seed=18,
            bound=math.exp(k_measured * t_end) * 1.2,
        )
        assert rep.verdict == "holds"
