import math

import numpy as np
import pytest

from entroflow import (
    BridgeSpec,
    GaussianMeasure,
    LinearSDESpec,
    OracleError,
    bridge_law_linear,
    bridge_path,
    euler_maruyama,
    gaussian_fisher,
    gaussian_sample,
    kl_gaussian,
    linear_sde_law,
    linear_sde_laws,
    mismatch_bound,
    mismatch_field,
    score_gaussian,
    time_grid,
)
from entroflow.catalog import (
    constant_drift_field,
    constant_drift_spec,
    heat_field,
    heat_spec,
    ou_field,
    ou_spec,
)
from entroflow.oracles import RK4_STEPS

from _refs import rk4_moments_fixed, td_ou_law_quad


class TestLinearLaw:
    def test_heat_law(self):
        # A=0, c=0, S=sqrt(2) I from a point: N(x, 2t I)
        spec = heat_spec(2, a_scale=1.0, x0=[1.0, -1.0])
        law = linear_sde_law(spec, 0.7)
        assert np.allclose(law.mean, [1.0, -1.0], atol=1e-14)
        assert np.allclose(law.cov, 2 * 0.7 * np.eye(2), atol=1e-12)

    def test_ou_law(self):
        # A=-I, S=sqrt(2) I: N(e^-t x, (1-e^-2t) I)
        spec = ou_spec(2, rate=1.0, a_scale=1.0, x0=[2.0, 0.0])
        t = 0.5
        law = linear_sde_law(spec, t)
        assert np.allclose(law.mean, np.exp(-t) * np.array([2.0, 0.0]), atol=1e-12)
        assert np.allclose(law.cov, (1 - np.exp(-2 * t)) * np.eye(2), atol=1e-12)

    def test_t0_returns_initial_gaussian(self):
        g = GaussianMeasure([1.0], [[0.5]])
        spec = LinearSDESpec.from_gaussian(g, [[0.0]], [0.0], [[1.0]])
        law = linear_sde_law(spec, 0.0)
        assert np.array_equal(law.mean, g.mean)
        assert np.array_equal(law.cov, g.cov)

    def test_t0_point_start_rejected(self):
        spec = heat_spec(1, x0=[0.0])
        with pytest.raises(OracleError):
            linear_sde_law(spec, 0.0)

    def test_time_dependent_matches_constant(self):
        # callable coefficients that are constant must agree with the closed form
        const = ou_spec(1, rate=0.8, a_scale=0.5, x0=[1.5])
        varying = LinearSDESpec.from_point(
            [1.5],
            lambda t: -0.8 * np.eye(1),
            lambda t: np.zeros(1),
            lambda t: np.sqrt(1.0) * np.eye(1),
        )
        a = linear_sde_law(const, 0.9)
        b = linear_sde_law(varying, 0.9)
        assert np.allclose(a.mean, b.mean, atol=1e-9)
        assert np.allclose(a.cov, b.cov, atol=1e-9)

    def test_nonautonomous_rk4(self):
        # dX = -t X dt + sqrt(2) dW in 1-D: variance ODE v' = -2 t v + 2
        spec = LinearSDESpec.from_point(
            [1.0],
            lambda t: -t * np.eye(1),
            lambda t: np.zeros(1),
            lambda t: math.sqrt(2.0) * np.eye(1),
        )
        t = 1.0
        law = linear_sde_law(spec, t)
        assert law.mean[0] == pytest.approx(math.exp(-0.5), abs=1e-8)
        # reference by dense stepping of the scalar ODEs
        m, v, n = 1.0, 0.0, 200_000
        h = t / n
        for k in range(n):
            s = k * h
            m += h * (-s * m)
            v += h * (-2 * s * v + 2.0)
        assert law.cov[0, 0] == pytest.approx(v, rel=1e-4)

    def test_moments_match_simulation(self):
        # every catalog example spec agrees with Euler-Maruyama at 3 sigma
        cases = [
            (heat_spec(1, 1.0, x0=[0.0]), heat_field(1, 1.0), [0.0]),
            (ou_spec(1, 1.0, 0.5, x0=[1.0]), ou_field(1, 1.0, 0.5), [1.0]),
            (constant_drift_spec(1, 1.0, 1.0, x0=[0.0]), constant_drift_field(1, 1.0, 1.0), [0.0]),
        ]
        t, n = 0.5, 10_000
        for spec, field, x0 in cases:
            law = linear_sde_law(spec, t)
            ens = euler_maruyama(field, x0, time_grid(t, 128), seed=21, n_paths=n)
            got = ens.terminal_measure()
            se_m = math.sqrt(law.cov[0, 0] / n)
            se_v = math.sqrt(2 * law.cov[0, 0] ** 2 / n)
            assert abs(got.mean()[0] - law.mean[0]) < 3 * se_m + 3e-3
            assert abs(got.cov()[0, 0] - law.cov[0, 0]) < 3 * se_v + 5e-3


def _rate(t):
    return 1.0 + 0.5 * math.sin(2.0 * math.pi * t)


def _rate_integral(t):
    return t + (1.0 - math.cos(2.0 * math.pi * t)) / (4.0 * math.pi)


class _Counted:
    """Coefficient callable that records every time it is evaluated at."""

    def __init__(self, fn):
        self.fn = fn
        self.times = []

    def __call__(self, t):
        self.times.append(t)
        return self.fn(t)


def _td_ou_spec(horizon, x0=1.0, v0=0.0, c=0.3, a_scale=0.7, counted=False):
    # dX = (-r(t) X + c) dt + sqrt(2a) dW with r(t) = 1 + 0.5 sin(2 pi t)
    fns = [
        lambda t: -_rate(t) * np.eye(1),
        lambda t: np.full(1, c),
        lambda t: math.sqrt(2.0 * a_scale) * np.eye(1),
    ]
    if counted:
        fns = [_Counted(fn) for fn in fns]
    if v0 > 0:
        spec = LinearSDESpec.from_gaussian(GaussianMeasure([x0], [[v0]]), *fns, horizon=horizon)
    else:
        spec = LinearSDESpec.from_point([x0], *fns, horizon=horizon)
    return (spec, fns) if counted else spec


class TestMomentPath:
    def test_time_dependent_laws_match_quadrature(self):
        # both entry points against the quadrature closed form, from
        # horizon * 1e-12 to the horizon, and on a horizon past the queries
        cases = [(1.0, 1.0, 0.0, 1.0), (0.5, -0.4, 0.3, 0.5), (2.0, 1.0, 0.0, 1.0)]
        for horizon, x0, v0, t_max in cases:
            spec = _td_ou_spec(horizon, x0=x0, v0=v0)
            times = t_max * np.geomspace(1e-12, 1.0, 13)
            batched = linear_sde_laws(spec, times)
            for t, law_b in zip(times, batched):
                m, v = td_ou_law_quad(x0, v0, 0.3, 0.7, _rate_integral, t)
                for law in (linear_sde_law(spec, t), law_b):
                    assert law.mean[0] == pytest.approx(m, rel=1e-10, abs=0)
                    assert law.cov[0, 0] == pytest.approx(v, rel=1e-10, abs=0)

    def test_horizon_law_bit_identical_to_fixed_800_steps(self):
        g = GaussianMeasure([0.5, -0.2], [[0.4, 0.1], [0.1, 0.3]])
        a_fn = lambda t: np.array([[-_rate(t), 0.3], [0.1 * t, -1.0]])
        c_fn = lambda t: np.array([t, 1.0])
        s_fn = lambda t: np.array([[1.0, 0.2 * t], [0.0, 1.1]])
        for horizon in (0.007, 0.5, 1.0, 3.0):
            spec = LinearSDESpec.from_gaussian(g, a_fn, c_fn, s_fn, horizon=horizon)
            law = linear_sde_law(spec, spec.horizon)
            m, cov = rk4_moments_fixed(a_fn, c_fn, s_fn, g.mean, g.cov, 0.0, horizon)
            assert np.array_equal(law.mean, m)
            assert np.array_equal(law.cov, cov)
            # a bridge switched at 0 runs the second spec alone from the point
            x1 = np.array([0.3, 0.1])
            point = LinearSDESpec.from_point(x1, a_fn, c_fn, s_fn, horizon=horizon)
            law = bridge_law_linear(point, point, x1, 0.0, horizon)
            m, cov = rk4_moments_fixed(a_fn, c_fn, s_fn, x1, np.zeros((2, 2)), 0.0, horizon)
            assert np.array_equal(law.mean, m)
            assert np.array_equal(law.cov, cov)

    def test_span_steps_and_evaluations(self):
        # a span tau takes n = ceil(800 tau / horizon) steps and evaluates
        # each coefficient 2n + 1 times, at distinct stage times; a full
        # horizon takes 800 steps even where 800 * tau / horizon rounds up
        assert math.ceil(RK4_STEPS * 0.007 / 0.007) == RK4_STEPS + 1
        cases = [
            (1.0, 0.3137, math.ceil(RK4_STEPS * 0.3137)),
            (2.0, 1e-7, 1),
            (0.5, 0.5, RK4_STEPS),
            (0.007, 0.007, RK4_STEPS),
        ]
        for horizon, t, n in cases:
            spec, fns = _td_ou_spec(horizon, counted=True)
            law = linear_sde_law(spec, t)
            for fn in fns:
                assert len(fn.times) == 2 * n + 1
                assert len(set(fn.times)) == 2 * n + 1
            m, cov = rk4_moments_fixed(*(fn.fn for fn in fns), spec.initial_mean, spec.initial_cov, 0.0, t, n)
            assert np.array_equal(law.mean, m)
            assert np.array_equal(law.cov, cov)

    def test_bridge_spans_follow_each_horizon(self):
        s1, fns1 = _td_ou_spec(1.0, counted=True)
        s2, fns2 = _td_ou_spec(2.0, counted=True)
        t0, t1 = 0.25, 0.75
        bridge_law_linear(s1, s2, [1.0], t0, t1)
        n1 = math.ceil(RK4_STEPS * t0 / 1.0)
        n2 = math.ceil(RK4_STEPS * (t1 - t0) / 2.0)
        assert all(len(fn.times) == 2 * n1 + 1 for fn in fns1)
        assert all(len(fn.times) == 2 * n2 + 1 for fn in fns2)
        assert min(fns2[0].times) == t0

    def test_grid_is_one_forward_pass(self):
        spec, fns = _td_ou_spec(1.0, counted=True)
        times = np.geomspace(0.01, 1.0, 12)
        laws = linear_sde_laws(spec, times)
        assert len(laws) == 12
        # each of the 12 spans evaluates its start once plus 2 per step
        steps = (len(fns[0].times) - 12) // 2
        assert steps <= RK4_STEPS + 12
        # a repeated time is a zero-length span that leaves the law as it is
        again = linear_sde_laws(_td_ou_spec(1.0), [0.5, 0.5])
        assert np.array_equal(again[0].mean, again[1].mean)
        assert np.array_equal(again[0].cov, again[1].cov)

    def test_laws_reject_bad_times(self):
        spec = _td_ou_spec(1.0)
        for bad in ([0.5, 0.2], [0.0, 0.5], [-0.1], [0.5, 1.5], [math.nan]):
            with pytest.raises(OracleError):
                linear_sde_laws(spec, bad)
        assert linear_sde_laws(spec, []) == []

    def test_constant_coefficients_byte_identical(self):
        g = GaussianMeasure([0.5, -1.0], [[0.6, 0.2], [0.2, 0.4]])
        specs = [
            ou_spec(2, rate=0.8, a_scale=0.5, x0=[1.0, -2.0], horizon=2.0),
            heat_spec(1, 1.5, x0=[0.3]),
            LinearSDESpec.from_gaussian(g, [[-1.0, 0.4], [0.0, -0.5]], [0.2, 0.1], [[1.0, 0.0], [0.3, 0.8]]),
        ]
        times = [1e-9, 0.01, 0.3, 0.3, 0.9, 1.0]
        for spec in specs:
            for t, law in zip(times, linear_sde_laws(spec, times)):
                ref = linear_sde_law(spec, t)
                assert np.array_equal(law.mean, ref.mean)
                assert np.array_equal(law.cov, ref.cov)

    def test_horizon_must_be_positive(self):
        for horizon in (0.0, -1.0, math.inf):
            with pytest.raises(OracleError):
                heat_spec(1, x0=[0.0], horizon=horizon)


class TestScore:
    def test_zero_at_mean(self):
        g = GaussianMeasure([1.0, 2.0], np.diag([2.0, 0.5]))
        assert np.allclose(score_gaussian(g, g.mean), 0.0)

    def test_brownian_identity_one_dimension(self):
        # standard Brownian motion at time s has law N(x, s); the expected
        # squared score over its own law is 1/s in one dimension
        s, n = 0.25, 100_000
        law = GaussianMeasure([0.4], [[s]])
        draws = gaussian_sample(law, n, seed=31)
        sq = score_gaussian(law, draws.points) ** 2
        est = float(np.mean(sq))
        se = float(np.std(sq, ddof=1) / math.sqrt(n))
        assert abs(est - 1.0 / s) < 3 * se

    def test_fisher_trace_identity_d_dim(self):
        # E |C^{-1}(Y-m)|^2 = tr(C^{-1}); for N(x, sI) this is d/s
        s, d, n = 0.5, 3, 100_000
        law = GaussianMeasure(np.zeros(d), s * np.eye(d))
        assert gaussian_fisher(law) == pytest.approx(d / s)
        draws = gaussian_sample(law, n, seed=32)
        sq = np.sum(score_gaussian(law, draws.points) ** 2, axis=1)
        se = float(np.std(sq, ddof=1) / math.sqrt(n))
        assert abs(float(np.mean(sq)) - d / s) < 3 * se

    def test_score_mean_zero(self):
        g = GaussianMeasure([0.5, -0.5], np.array([[1.0, 0.2], [0.2, 0.5]]))
        n = 100_000
        draws = gaussian_sample(g, n, seed=33)
        sc = score_gaussian(g, draws.points)
        se = np.std(sc, axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(sc.mean(axis=0)) < 3 * se)

    def test_fisher_short_time_rate(self):
        # heat law C = 2sI: integrated Fisher information from r to t grows
        # like log(t/r), the short-time rate the entropy bound inherits
        d = 2
        r, t = 0.01, 1.0
        ss = np.geomspace(r, t, 400)
        vals = np.array([gaussian_fisher(GaussianMeasure(np.zeros(d), 2 * s * np.eye(d))) for s in ss])
        integral = float(np.trapezoid(vals, ss))
        assert integral == pytest.approx((d / 2) * math.log(t / r), rel=1e-3)
        assert integral <= d * math.log(1 + t / r)


class TestMismatchField:
    def test_equal_fields_zero(self):
        f = ou_field(2, 1.0, 0.5)
        law = GaussianMeasure(np.zeros(2), 0.3 * np.eye(2))
        y = np.array([[0.3, -0.2], [1.0, 0.5]])
        assert np.all(mismatch_field(f, f, law, 0.2, y) == 0.0)

    def test_pure_drift_gap(self):
        # equal unit diffusions, b1 = 0, b2 = c: the field is the constant c
        c = 1.5
        f1 = heat_field(1)
        f2 = constant_drift_field(1, c, 1.0)
        law = GaussianMeasure([0.0], [[0.4]])
        y = np.linspace(-2, 2, 7)[:, None]
        phi = mismatch_field(f1, f2, law, 0.2, y)
        assert np.allclose(phi, c, atol=1e-12)

    def test_diffusion_gap_score_term(self):
        # a1 = I, a2 = 2I, no drift, law N(x, 2sI): phi(y) = (y - x)/(2s)
        s, x = 0.3, 0.7
        f1, f2 = heat_field(1, 1.0), heat_field(1, 2.0)
        law = GaussianMeasure([x], [[2 * s]])
        y = np.array([[0.0], [1.0], [2.5]])
        phi = mismatch_field(f1, f2, law, s, y)
        assert np.allclose(phi, (y - x) / (2 * s), atol=1e-10)

    def test_finite_difference_divergence(self):
        # quadratic diffusion entry: a(x) = (1 + 0.1 x1^2) I has divergence
        # row (0.2 x1, 0) picked up by central differences
        from entroflow import CoefficientField, DiniModulus

        def diffusion(t, x):
            base = np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)).copy()
            return base * (1.0 + 0.1 * x[:, 0] ** 2)[:, None, None]

        f1 = CoefficientField(
            dim=2,
            drift_dini=lambda t, x: np.zeros_like(x),
            drift_lipschitz=lambda t, x: np.zeros_like(x),
            diffusion=diffusion,
            bound=10.0,
            modulus=DiniModulus.power(1.0),
        )
        f2 = heat_field(2)
        law = GaussianMeasure(np.zeros(2), np.eye(2))
        y = np.array([[1.0, 0.5]])
        phi = mismatch_field(f1, f2, law, 0.1, y)
        # analytic: (a1 - a2) score + div(a1 - a2) with div = (d/dx1)(a1-a2)[k,1..]
        gap = 0.1 * 1.0**2
        score = score_gaussian(law, y[0])
        expect = gap * score + np.array([0.2 * 1.0, 0.0])
        assert np.allclose(phi[0], expect, atol=1e-6)


class TestMismatchBound:
    def test_equal_fields_exactly_zero(self):
        f = ou_field(1, 1.0, 0.5)
        spec = ou_spec(1, 1.0, 0.5, x0=[1.0])
        res = mismatch_bound(f, f, 0.5, lambda s: linear_sde_law(spec, s), n_mc=50, seed=0)
        assert res.value == 0.0
        assert not res.diverged

    def test_drift_gap_bound_and_entropy(self):
        # Brownian vs Brownian-with-drift-c: bound = c^2 t / 2, true entropy
        # c^2 t / 4; the Monte Carlo sees a constant integrand so the value
        # is quadrature-exact
        c, t = 1.0, 0.5
        f1 = heat_field(1, 1.0, horizon=t)
        f2 = constant_drift_field(1, c, 1.0, horizon=t)
        s1 = heat_spec(1, 1.0, x0=[0.0], horizon=t)
        s2 = constant_drift_spec(1, c, 1.0, x0=[0.0], horizon=t)
        res = mismatch_bound(f1, f2, t, lambda s: linear_sde_law(s1, s), n_mc=200, seed=1)
        assert not res.diverged
        assert res.value == pytest.approx(c * c * t / 2.0, rel=1e-6)
        true_ent = kl_gaussian(linear_sde_law(s1, t), linear_sde_law(s2, t))
        assert true_ent == pytest.approx(c * c * t / 4.0, abs=1e-12)
        assert true_ent <= res.value

    def test_diffusion_gap_divergence_flag(self):
        # uniform diffusion gap: integrand ~ d/(8s), log-divergent
        t = 0.5
        f1 = heat_field(1, 1.0, horizon=t)
        f2 = heat_field(1, 2.0, horizon=t)
        s1 = heat_spec(1, 1.0, x0=[0.0], horizon=t)
        res = mismatch_bound(f1, f2, t, lambda s: linear_sde_law(s1, s), n_mc=300, seed=2)
        assert res.diverged
        assert math.isinf(res.value)
        # per-decade increments hold at the analytic level d/8 * log(10)
        level = (1.0 / 8.0) * math.log(10.0)
        deep = np.array(res.decade_increments[-3:])
        assert np.all(np.abs(deep - level) < 0.25 * level)

    def test_particle_law_provider(self):
        # an empirical cloud stands in for the law: with equal diffusions the
        # score never enters, so the drift-gap value is reproduced exactly
        c, t = 1.0, 0.5
        f1 = heat_field(1, 1.0, horizon=t)
        f2 = constant_drift_field(1, c, 1.0, horizon=t)
        s1 = heat_spec(1, 1.0, x0=[0.0], horizon=t)

        def provider(s):
            return gaussian_sample(linear_sde_law(s1, s), 64, seed=int(s * 1e6) % 999983)

        res = mismatch_bound(f1, f2, t, provider, n_mc=64, seed=5)
        assert not res.diverged
        assert res.value == pytest.approx(c * c * t / 2.0, rel=1e-6)

    def test_integrable_singularity_not_flagged(self):
        # a1(t) approaching a2 like sqrt(s) near 0 gives an integrable
        # singularity: value finite, no flag
        t = 0.5

        def noise1(s):
            return math.sqrt(2.0 * (1.0 + math.sqrt(max(s, 0.0)))) * np.eye(1)

        from entroflow import CoefficientField, DiniModulus

        f1 = CoefficientField(
            dim=1,
            drift_dini=lambda tt, x: np.zeros_like(x),
            drift_lipschitz=lambda tt, x: np.zeros_like(x),
            diffusion=lambda tt, x: np.broadcast_to(
                (1.0 + math.sqrt(max(tt, 0.0))) * np.eye(1), (x.shape[0], 1, 1)
            ),
            sigma_fn=lambda tt, x: np.broadcast_to(noise1(tt), (x.shape[0], 1, 1)),
            div_a_fn=lambda tt, x: np.zeros_like(x),
            bound=10.0,
            modulus=DiniModulus.power(1.0),
            horizon=t,
        )
        f2 = heat_field(1, 1.0, horizon=t)
        spec1 = LinearSDESpec.from_point(
            [0.0], lambda s: np.zeros((1, 1)), lambda s: np.zeros(1), noise1, horizon=t
        )
        res = mismatch_bound(f1, f2, t, lambda s: linear_sde_law(spec1, s), n_mc=200, seed=3)
        assert not res.diverged
        assert math.isfinite(res.value)


class TestBridgeLaw:
    def test_switch_at_t1_is_first_law(self):
        s1 = ou_spec(1, 1.0, 0.5, x0=[1.0])
        s2 = heat_spec(1, 1.0, x0=[1.0])
        t1 = 0.8
        law = bridge_law_linear(s1, s2, [1.0], t1, t1)
        ref = linear_sde_law(ou_spec(1, 1.0, 0.5, x0=[1.0]), t1)
        assert np.allclose(law.mean, ref.mean, atol=1e-12)
        assert np.allclose(law.cov, ref.cov, atol=1e-12)

    def test_switch_at_zero_is_second_law(self):
        s1 = ou_spec(1, 1.0, 0.5, x0=[1.0])
        s2 = heat_spec(1, 1.0, x0=[1.0])
        law = bridge_law_linear(s1, s2, [1.0], 0.0, 0.8)
        ref = linear_sde_law(heat_spec(1, 1.0, x0=[1.0]), 0.8)
        assert np.allclose(law.mean, ref.mean, atol=1e-12)
        assert np.allclose(law.cov, ref.cov, atol=1e-12)

    def test_variance_composition(self):
        # heat(a=1) then heat(a=2): variance 2 t0 + 4 (t1 - t0) in 1-D
        t0, t1, x = 0.5, 1.0, 0.3
        law = bridge_law_linear(heat_spec(1, 1.0), heat_spec(1, 2.0), [x], t0, t1)
        assert law.mean[0] == pytest.approx(x, abs=1e-14)
        assert law.cov[0, 0] == pytest.approx(2 * t0 + 4 * (t1 - t0), abs=1e-12)

    def test_matches_bridge_simulation(self):
        # two linear fields: simulated switched paths reproduce the closed-form
        # Gaussian law at 3 sigma
        t1, eps = 1.0, 0.5
        s1 = ou_spec(1, 1.0, 0.5, horizon=t1)
        s2 = heat_spec(1, 1.0, horizon=t1)
        f1 = ou_field(1, 1.0, 0.5, horizon=t1)
        f2 = heat_field(1, 1.0, horizon=t1)
        law = bridge_law_linear(s1, s2, [1.0], eps * t1, t1)
        n = 10_000
        spec = BridgeSpec(f1, f2, t1=t1, epsilon=eps)
        ens = bridge_path(spec, [1.0], time_grid(t1, 128), seed=22, n_paths=n)
        got = ens.terminal_measure()
        se_m = math.sqrt(law.cov[0, 0] / n)
        se_v = math.sqrt(2 * law.cov[0, 0] ** 2 / n)
        assert abs(got.mean()[0] - law.mean[0]) < 3 * se_m + 3e-3
        assert abs(got.cov()[0, 0] - law.cov[0, 0]) < 3 * se_v + 8e-3
