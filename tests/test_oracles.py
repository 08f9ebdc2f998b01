import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from entroflow import (
    BridgeSpec,
    CoefficientField,
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
from entroflow.oracles import RK4_STEPS, _coefficients, _linear_node_values, _node_values

from _refs import rk4_moments_fixed, td_ou_law_quad, van_loan_moments


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
        for law in (linear_sde_law(spec, 0.0), linear_sde_laws(spec, [0.0, 0.4])[0]):
            assert np.array_equal(law.mean, g.mean)
            assert np.array_equal(law.cov, g.cov)

    def test_t0_point_start_rejected(self):
        spec = heat_spec(1, x0=[0.0])
        for laws in (lambda: linear_sde_law(spec, 0.0), lambda: linear_sde_laws(spec, [0.0, 0.4])):
            with pytest.raises(OracleError, match="point mass"):
                laws()

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
        c, s = np.array([0.2, 1.0]), np.array([[1.0, 0.0], [0.3, 1.1]])
        # every coefficient a callable, and a mixed spec: a callable A with
        # constant c and S, which the reader broadcasts over the stage times
        for coefficients, fns in (((a_fn, c_fn, s_fn),) * 2, ((a_fn, c, s), (a_fn, lambda t: c, lambda t: s))):
            for horizon in (0.007, 0.5, 1.0, 3.0):
                spec = LinearSDESpec.from_gaussian(g, *coefficients, horizon=horizon)
                law = linear_sde_law(spec, spec.horizon)
                m, cov = rk4_moments_fixed(*fns, g.mean, g.cov, 0.0, horizon)
                assert np.array_equal(law.mean, m)
                assert np.array_equal(law.cov, cov)
                # a bridge switched at 0 runs the second spec alone from the point
                x1 = np.array([0.3, 0.1])
                point = LinearSDESpec.from_point(x1, *coefficients, horizon=horizon)
                law = bridge_law_linear(point, point, x1, 0.0, horizon)
                m, cov = rk4_moments_fixed(*fns, x1, np.zeros((2, 2)), 0.0, horizon)
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

    def test_stage_times_stay_within_the_horizon(self):
        # horizons where stepping by t += h ended the last step an ulp past
        # the horizon; noise sqrt(H - t) is defined on [0, H] only
        for horizon in np.linspace(0.01, 2.0, 400)[[0, 2, 3, 10]]:
            times = []

            def noise(t, horizon=horizon):
                times.append(t)
                return np.sqrt(horizon - t) * np.eye(1)

            spec = LinearSDESpec.from_point([0.0], 0.0, 0.0, noise, horizon=horizon)
            law = linear_sde_law(spec, horizon)
            assert max(times) == horizon
            # C(H) = int_0^H (H - s) ds, which RK4 integrates exactly
            assert law.cov[0, 0] == pytest.approx(horizon**2 / 2, rel=1e-12)

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
        # the bridge takes the same rule: t0 within the first spec's
        # horizon, t0 <= t1 within the second's, and no point mass at t1 = 0
        s2 = _td_ou_spec(2.0)
        for t0, t1 in ((0.5, 0.2), (-0.1, 0.5), (1.5, 1.8), (0.5, 2.5), (0.0, 0.0), (math.nan, 0.5)):
            with pytest.raises(OracleError):
                bridge_law_linear(spec, s2, [1.0], t0, t1)
        bridge_law_linear(spec, s2, [1.0], 0.5, 1.5)
        heat = heat_spec(1, 1.0)
        with pytest.raises(OracleError, match="outside"):
            bridge_law_linear(heat, heat, [0.0], 0.5, 3.0)
        # a start point of the wrong dimension is the oracle's error, not numpy's
        with pytest.raises(OracleError, match="coordinates"):
            bridge_law_linear(heat_spec(1), heat_spec(1), [0.0, 1.0], 0.5, 1.0)

    def test_constant_coefficients_byte_identical(self):
        # every time's law equals its own linear_sde_law and the per-time,
        # single-matrix Van Loan reference bit for bit: exponentiating all
        # times at once changes no digit
        g = GaussianMeasure([0.5, -1.0], [[0.6, 0.2], [0.2, 0.4]])
        specs = [
            ou_spec(2, rate=0.8, a_scale=0.5, x0=[1.0, -2.0], horizon=2.0),
            heat_spec(1, 1.5, x0=[0.3]),
            LinearSDESpec.from_gaussian(g, [[-1.0, 0.4], [0.0, -0.5]], [0.2, 0.1], [[1.0, 0.0], [0.3, 0.8]]),
            LinearSDESpec.from_point(
                [0.2, -0.4, 1.0],
                [[-0.7, 0.2, 0.0], [0.1, -1.2, 0.3], [0.0, 0.5, 0.4]],
                [0.3, 0.0, -0.2],
                [[1.1, 0.0, 0.0], [0.4, 0.6, 0.0], [-0.2, 0.3, 1.4]],
            ),
        ]
        times = [1e-9, 0.01, 0.3, 0.3, 0.9, 1.0]
        for spec in specs:
            # constants are stored as given, after their shape check
            a, c, s = spec.drift_matrix, spec.drift_offset, spec.noise
            assert all(isinstance(v, np.ndarray) for v in (a, c, s))
            for t, law in zip(times, linear_sde_laws(spec, times)):
                ref = linear_sde_law(spec, t)
                m, cov = van_loan_moments(a, c, s @ s.T, spec.initial_mean, spec.initial_cov, t)
                for mean_ref, cov_ref in ((ref.mean, ref.cov), (m, cov)):
                    assert np.array_equal(law.mean, mean_ref)
                    assert np.array_equal(law.cov, cov_ref)

    def test_horizon_must_be_positive(self):
        for horizon in (0.0, -1.0, math.inf, math.nan, True):
            with pytest.raises(OracleError, match="horizon"):
                heat_spec(1, x0=[0.0], horizon=horizon)
            with pytest.raises(OracleError, match="horizon"):
                LinearSDESpec.from_point([0.0], 0.0, 0.0, 1.0, horizon=horizon)

    def test_malformed_constant_rejected_at_construction(self):
        bad = [(np.eye(2), 0.0, 1.0), (0.0, [0.0, 1.0], 1.0), (0.0, 0.0, [1.0])]
        for drift_matrix, drift_offset, noise in bad:
            with pytest.raises(OracleError, match="must be a"):
                LinearSDESpec(1, drift_matrix, drift_offset, noise, [0.0])


class TestSpecReading:
    """A spec stores its coefficients as given and is read by one stacked
    reader, _coefficients; a zero covariance is a point mass by one rule."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_specs_compare_and_hash_by_identity(self, d):
        # value equality would compare the array fields with ==: ambiguous at
        # d = 2 and true by accident at d = 1, and no spec could be hashed
        spec, twin = heat_spec(d), heat_spec(d)
        assert spec == spec and spec != twin
        assert spec in [twin, spec] and twin not in [spec]
        assert len({spec, twin, spec}) == 2 and hash(spec) == hash(spec)

    def test_constant_spec_gives_one_slice(self):
        spec = LinearSDESpec.from_point([0.0, 1.0], -0.5, [0.2, 0.1], [[1.0, 0.0], [0.3, 0.8]])
        for times in ([], [0.1], np.linspace(0.0, 1.0, 7)):
            a, c, q = _coefficients(spec, times)
            assert a.shape == (1, 2, 2) and c.shape == (1, 2) and q.shape == (1, 2, 2)
            assert np.array_equal(a[0], -0.5 * np.eye(2))
            assert np.array_equal(c[0], [0.2, 0.1])
            assert np.array_equal(q[0], spec.noise @ spec.noise.T)

    def test_callables_stacked_and_constants_repeated(self):
        calls = []

        def drift_matrix(t):
            calls.append(t)
            return np.array([[-t, 0.0], [0.1, -1.0]])

        noise = np.array([[1.0, 0.0], [0.4, 0.9]])
        spec = LinearSDESpec.from_point([0.0, 1.0], drift_matrix, 0.3, noise)
        times = np.array([0.0, 0.25, 0.5])
        a, c, q = _coefficients(spec, times)
        assert calls == times.tolist()
        assert a.shape == (3, 2, 2) and c.shape == (3, 2) and q.shape == (3, 2, 2)
        for k, t in enumerate(times):
            assert np.array_equal(a[k], drift_matrix(t))
            assert np.array_equal(c[k], [0.3, 0.3])
            assert np.array_equal(q[k], noise @ noise.T)

    def test_point_mass_has_one_rule(self):
        # t = 0 of a point start, a bridge ending at 0, and a point start
        # without noise at t > 0 (earlier read "propagated covariance not SPD")
        heat = heat_spec(1, 1.0, x0=[0.5])
        still = LinearSDESpec.from_point([0.5], -1.0, 0.3, 0.0)
        for run in (
            lambda: linear_sde_laws(heat, [0.0, 0.5]),
            lambda: bridge_law_linear(heat, heat, [0.5], 0.0, 0.0),
            lambda: linear_sde_law(still, 0.5),
            lambda: bridge_law_linear(still, still, [0.5], 0.2, 0.5),
        ):
            with pytest.raises(OracleError, match="is a point mass, not a Gaussian"):
                run()

    @pytest.mark.parametrize(
        "dim, args",
        [
            (1, (0.0, np.inf, np.sqrt(2.0), [0.0])),
            (1, ([[np.nan]], 0.0, 1.0, [0.0])),
            (1, (0.0, 0.0, 1.0, [np.nan])),
            (1, (0.0, 0.0, 1.0, [0.0], [[np.nan]])),
            (1, (0.0, 0.0, 1.0, [0.0], [[np.inf]])),
            # a scalar is checked before it is filled: -inf times the
            # identity's zeros would warn and give NaN off the diagonal
            (2, (-np.inf, 0.0, 1.0, [0.0, 0.0])),
            (2, (0.0, 0.0, -np.inf, [0.0, 0.0])),
        ],
    )
    def test_nonfinite_constants_and_starts_rejected(self, dim, args):
        # unchecked, an infinite offset gave a "divergent" bound and a NaN
        # start covariance passed the PSD check and gave a NaN bound
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OracleError, match="must be finite"):
                LinearSDESpec(dim, *args)

    def test_nonfinite_callable_value_names_its_time(self):
        noise = lambda t: np.eye(1) * (np.nan if t > 0.5 else 1.0)
        spec = LinearSDESpec.from_point([0.0], 0.0, 0.0, noise)
        assert linear_sde_law(spec, 0.5).cov[0, 0] == pytest.approx(0.5, rel=1e-12)
        # the first stage past 0.5 on the 800-step grid of [0, 1] is 801 / 1600
        with pytest.raises(OracleError, match=r"noise is not finite at t=0\.500625"):
            linear_sde_law(spec, 1.0)
        with pytest.raises(OracleError, match="noise is not finite"):
            mismatch_bound(heat_spec(1, 0.5), spec, 1.0)


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
        from entroflow import CoefficientField

        def diffusion(t, x):
            base = np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)).copy()
            return base * (1.0 + 0.1 * x[:, 0] ** 2)[:, None, None]

        f1 = CoefficientField(
            dim=2,
            drift_dini=lambda t, x: np.zeros_like(x),
            drift_lipschitz=lambda t, x: np.zeros_like(x),
            diffusion=diffusion,
            bound=10.0,
        )
        law = GaussianMeasure(np.zeros(2), np.eye(2))
        y = np.array([[1.0, 0.5]])
        # analytic: (a1 - a2) score + div(a1 - a2) with div = (d/dx1)(a1-a2)[k,1..]
        gap = 0.1 * 1.0**2
        score = score_gaussian(law, y[0])
        expect = gap * score + np.array([0.2 * 1.0, 0.0])
        # the second field with its analytic divergence, and without one
        for f2 in (heat_field(2), dataclasses.replace(heat_field(2), div_a_fn=None)):
            phi = mismatch_field(f1, f2, law, 0.1, y)
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

    def test_non_gaussian_provider_rejected(self):
        # an empirical cloud is not a law the bound accepts
        t = 0.5
        f1 = heat_field(1, 1.0, horizon=t)
        f2 = constant_drift_field(1, 1.0, 1.0, horizon=t)
        s1 = heat_spec(1, 1.0, x0=[0.0], horizon=t)
        with pytest.raises(OracleError, match="GaussianMeasure"):
            mismatch_bound(f1, f2, t, lambda s: gaussian_sample(linear_sde_law(s1, s), 64, seed=0), n_mc=64)

    def test_integrable_singularity_not_flagged(self):
        # a1(t) approaching a2 like sqrt(s) near 0 gives an integrable
        # singularity: value finite, no flag
        t = 0.5

        def noise1(s):
            return math.sqrt(2.0 * (1.0 + math.sqrt(max(s, 0.0)))) * np.eye(1)

        from entroflow import CoefficientField

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
            horizon=t,
        )
        f2 = heat_field(1, 1.0, horizon=t)
        spec1 = LinearSDESpec.from_point(
            [0.0], lambda s: np.zeros((1, 1)), lambda s: np.zeros(1), noise1, horizon=t
        )
        res = mismatch_bound(f1, f2, t, lambda s: linear_sde_law(spec1, s), n_mc=200, seed=3)
        assert not res.diverged
        assert math.isfinite(res.value)


def _linear_views(x0, a_fn, c_fn, s_fn, horizon, const):
    """(LinearSDESpec, CoefficientField) of dX = (A(t) X + c(t)) dt + S(t) dW
    from the point x0; a constant pair is handed to the spec as arrays."""
    d = len(x0)
    spec = LinearSDESpec.from_point(
        x0, *((fn(0.0) for fn in (a_fn, c_fn, s_fn)) if const else (a_fn, c_fn, s_fn)), horizon=horizon
    )
    field = CoefficientField(
        dim=d,
        drift_dini=lambda t, x: np.zeros_like(x),
        drift_lipschitz=lambda t, x: x @ a_fn(t).T + c_fn(t),
        diffusion=lambda t, x: np.broadcast_to(0.5 * s_fn(t) @ s_fn(t).T, (x.shape[0], d, d)),
        div_a_fn=lambda t, x: np.zeros_like(x),
        bound=10.0,
        horizon=horizon,
    )
    return spec, field


class TestLinearMismatchBound:
    def test_ou_against_heat_is_a_quarter(self):
        # OU(rate 1, a 1) vs heat(a 1) from x0 = 1: Phi = x and
        # E X_s^2 = e^{-2s} + (1 - e^{-2s}) = 1, so the bound is t/2 * 1/2
        res = mismatch_bound(ou_spec(1, 1.0, 1.0, x0=[1.0]), heat_spec(1, 1.0, x0=[1.0]), 0.5)
        assert not res.diverged
        assert res.value == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("case", ["equal-noise", "diffusion-gap", "time-dependent"])
    def test_node_values_match_monte_carlo_d2(self, case):
        # the exact node values against the Monte Carlo branch on the same
        # pair at 3 standard errors over 20 independent batches per node
        t = 0.5
        a1 = lambda s: np.array([[-1.0, 0.3], [0.0, -0.5]])
        a2 = lambda s: np.array([[-0.4, 0.0], [0.2, -1.0]])
        c1 = lambda s: np.array([0.2, -0.1])
        c2 = lambda s: np.array([1.0, 0.5])
        s1 = lambda s: np.array([[1.0, 0.0], [0.4, 0.8]])
        s2 = s1 if case == "equal-noise" else (lambda s: np.array([[1.3, 0.2], [0.0, 0.9]]))
        if case == "time-dependent":
            a1 = lambda s: np.array([[-_rate(s), 0.3], [0.0, -0.5]])
            c2 = lambda s: np.array([1.0 + s, 0.5])
            s2 = lambda s: np.array([[1.3 + s, 0.2], [0.0, 0.9]])
        const = case != "time-dependent"
        spec1, field1 = _linear_views([1.0, -0.5], a1, c1, s1, t, const)
        spec2, field2 = _linear_views([1.0, -0.5], a2, c2, s2, t, const)
        mids = np.array([0.05, 0.2, 0.45])
        exact = _linear_node_values(spec1, spec2, mids)
        batches = np.array(
            [
                _node_values(field1, field2, lambda s: linear_sde_law(spec1, s), mids, 1000, seed)
                for seed in range(20)
            ]
        )
        se = batches.std(axis=0, ddof=1) / math.sqrt(len(batches))
        assert np.all(np.abs(batches.mean(axis=0) - exact) < 3 * se)

    def test_diffusion_gap_pair_is_divergent(self):
        # heat a = 1 vs a = 2: the node value is exactly 1/(8s), so each probe
        # decade's 8 midpoint terms on intervals of ratio r = 10^(1/8) add
        # 2(r - 1)/(r + 1), the midpoint rule's value of log(10)/8
        t = 0.5
        res = mismatch_bound(heat_spec(1, 1.0, horizon=t), heat_spec(1, 2.0, horizon=t), t)
        assert res.diverged and math.isinf(res.value)
        r = 10.0 ** (1.0 / 8.0)
        assert res.decade_increments == pytest.approx([2.0 * (r - 1.0) / (r + 1.0)] * 8, rel=1e-12)

    def test_time_quadrature_error_against_quad(self):
        # the bound is the 200-node geometric midpoint rule of the exact
        # integrand; against adaptive quadrature of the same integrand its
        # relative error is 5.1e-6 and 5.8e-5 on these two pairs
        t = 0.5
        pairs = [
            (ou_spec(1, 1.0, 0.5, x0=[1.0]), constant_drift_spec(1, 1.0, 0.5, x0=[1.0]), 1e-5),
            (ou_spec(2, 2.0, 0.3, x0=[1.0, -2.0]), heat_spec(2, 0.3, x0=[1.0, -2.0]), 1e-4),
        ]
        for spec1, spec2, rel in pairs:
            integrand = lambda s: _linear_node_values(spec1, spec2, np.array([s]))[0]
            ref, _ = quad(integrand, 0.0, t, epsabs=0.0, epsrel=1e-12)
            res = mismatch_bound(spec1, spec2, t)
            assert abs(res.value - ref) < rel * ref

    def test_bad_inputs_rejected(self):
        t = 0.5
        heat = heat_spec(1, 1.0)
        singular_noise = LinearSDESpec.from_point([0.0, 0.0], 0.0, 0.0, np.diag([1.0, 0.0]))
        cases = [
            ((heat, LinearSDESpec.from_point([0.0], 0.0, 0.0, 0.0)), "singular"),
            ((singular_noise, heat_spec(2, 1.0)), "not SPD"),
            ((heat, heat_spec(2, 1.0)), "dimensions"),
            ((heat, heat_spec(1, 1.0, horizon=0.4)), "outside"),
            ((heat_spec(1, 1.0, horizon=0.4), heat), "outside"),
            ((heat, heat_field(1)), "two LinearSDESpecs or two coefficient fields"),
        ]
        for (first, second), match in cases:
            with pytest.raises(OracleError, match=match):
                mismatch_bound(first, second, t)
        with pytest.raises(OracleError, match="no law_provider"):
            mismatch_bound(heat, heat, t, lambda s: linear_sde_law(heat, s))

    @pytest.mark.parametrize("count", [-3, 0, 2.5, True])
    def test_counts_must_be_positive_integers(self, count):
        # heat against drift-gap (a = c = 1) has the bound 0.25 at t = 0.5
        spec1, spec2 = heat_spec(1, 1.0), constant_drift_spec(1, 1.0, 1.0)
        assert mismatch_bound(spec1, spec2, 0.5).value == pytest.approx(0.25, abs=1e-9)
        with pytest.raises(OracleError, match="n_nodes must be an integer >= 1"):
            mismatch_bound(spec1, spec2, 0.5, n_nodes=count)
        f1, f2 = heat_field(1, 1.0), constant_drift_field(1, 1.0, 1.0)
        law = lambda s: linear_sde_law(spec1, s)
        for name in ("n_nodes", "n_mc"):
            with pytest.raises(OracleError, match=f"{name} must be an integer >= 1"):
                mismatch_bound(f1, f2, 0.5, law, **{name: count})

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    @pytest.mark.parametrize("kind", ["fields", "specs"])
    def test_nonfinite_t_rejected(self, t, kind):
        # unchecked, t = inf reached numpy's geomspace warning (fields) or a
        # horizon error that did not name t (specs)
        spec1, spec2 = heat_spec(1, 1.0), constant_drift_spec(1, 1.0, 1.0)
        if kind == "fields":
            args = (heat_field(1, 1.0), constant_drift_field(1, 1.0, 1.0), t, lambda s: linear_sde_law(spec1, s))
        else:
            args = (spec1, spec2, t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OracleError, match=r"finite t > 0, got t="):
                mismatch_bound(*args)


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
