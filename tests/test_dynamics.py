import math

import numpy as np
import pytest

from entroflow import (
    BlowUpError,
    BridgeSpec,
    CoefficientField,
    DiniModulus,
    DynamicsError,
    SemimartingaleWitness,
    bridge_path,
    euler_maruyama,
    exp_moment_certificate,
    synchronous_pair,
    time_grid,
)
from entroflow._rng import path_normals
from entroflow.catalog import constant_drift_field, dini_power_drift_field, heat_field, ou_field
from entroflow.dynamics import _increments

from _refs import coupled_ou_second_moment, ou_law_1d, synchronous_pair_loop


def quintic_field(d=1):
    """Drift x^5: Euler paths from |x| ~ 3 overflow within a few steps."""
    return CoefficientField(
        dim=d,
        drift_dini=lambda t, x: np.zeros_like(x),
        drift_lipschitz=lambda t, x: x**5,
        diffusion=lambda t, x: np.broadcast_to(np.eye(d), (x.shape[0], d, d)),
        bound=100.0,
        modulus=DiniModulus.power(1.0),
    )


class TestDiniModulus:
    def test_power_family_valid(self):
        for alpha in (0.25, 0.5, 1.0):
            DiniModulus.power(alpha)

    def test_log_type_valid(self):
        DiniModulus.log_type()

    def test_rejects_nonzero_at_origin(self):
        with pytest.raises(DynamicsError):
            DiniModulus(lambda r: np.asarray(r) + 0.1).validate()

    def test_rejects_convex(self):
        with pytest.raises(DynamicsError):
            DiniModulus(lambda r: np.asarray(r) ** 2).validate()

    def test_rejects_divergent_integral(self):
        # concave increasing with phi(0)=0 whose phi(s)/s integral diverges:
        # 1/(1 - log s) below 1/e, tangent line continuation above
        def fn(r):
            r = np.asarray(r, dtype=float)
            core = 1.0 / (1.0 - np.log(np.maximum(r, 1e-300)))
            tangent = 0.5 + (math.e / 4.0) * (r - 1.0 / math.e)
            return np.where(r == 0, 0.0, np.where(r <= 1.0 / math.e, core, tangent))

        with pytest.raises(DynamicsError):
            DiniModulus(fn).validate()


class TestCoefficientField:
    def test_catalog_fields_validate(self):
        heat_field(2).validate()
        ou_field(1, rate=1.0, a_scale=0.5).validate()
        constant_drift_field(2, c=1.0).validate()

    def test_dini_bound_enforced(self):
        bad = CoefficientField(
            dim=1,
            drift_dini=lambda t, x: np.full_like(x, 10.0),
            drift_lipschitz=lambda t, x: np.zeros_like(x),
            diffusion=lambda t, x: np.broadcast_to(np.eye(1), (x.shape[0], 1, 1)),
            bound=1.5,
            modulus=DiniModulus.power(0.5),
        )
        with pytest.raises(DynamicsError):
            bad.validate()

    def test_sigma_from_diffusion(self):
        f = heat_field(2, a_scale=3.0)
        x = np.zeros((4, 2))
        sig = f.sigma(0.0, x)
        assert np.allclose(np.einsum("nij,nkj->nik", sig, sig), 2.0 * f.diffusion(0.0, x))


class TestEulerMaruyama:
    def test_deterministic_bit_identical(self):
        f = ou_field(2, rate=1.0, a_scale=0.5)
        grid = time_grid(1.0, 64)
        a = euler_maruyama(f, [1.0, -1.0], grid, seed=5, n_paths=16)
        b = euler_maruyama(f, [1.0, -1.0], grid, seed=5, n_paths=16)
        assert np.array_equal(a.paths, b.paths)
        c = euler_maruyama(f, [1.0, -1.0], grid, seed=6, n_paths=16)
        assert not np.array_equal(a.paths, c.paths)

    def test_zero_noise_constant_path(self):
        f = CoefficientField(
            dim=1,
            drift_dini=lambda t, x: np.zeros_like(x),
            drift_lipschitz=lambda t, x: np.zeros_like(x),
            diffusion=lambda t, x: np.broadcast_to(np.eye(1), (x.shape[0], 1, 1)),
            sigma_fn=lambda t, x: np.zeros((x.shape[0], 1, 1)),
            bound=2.0,
            modulus=DiniModulus.power(1.0),
        )
        ens = euler_maruyama(f, [0.7], time_grid(1.0, 32), seed=0)
        assert np.all(ens.paths == 0.7)

    def test_heat_terminal_covariance(self):
        # driftless a = I: Var X_t = 2t per the generator convention
        t = 0.5
        ens = euler_maruyama(heat_field(2), [0.0, 0.0], time_grid(t, 64), seed=1, n_paths=10_000)
        cov = ens.terminal_measure().cov()
        assert np.max(np.abs(cov - 2 * t * np.eye(2))) < 0.05 * 2 * t

    def test_ou_mean_three_sigma(self):
        x0, rate, a_scale, t = 1.0, 1.0, 0.5, 1.0
        n = 10_000
        ens = euler_maruyama(ou_field(1, rate, a_scale), [x0], time_grid(t, 256), seed=2, n_paths=n)
        mean_hat = ens.terminal_measure().mean()[0]
        mean, var = ou_law_1d(x0, rate, a_scale, t)
        se = math.sqrt(var / n)
        assert abs(mean_hat - mean) < 3 * se + 2e-3  # 3 sigma plus O(h) bias allowance

    def test_blowup_flagged(self):
        ens = euler_maruyama(quintic_field(), [3.0], time_grid(5.0, 8), seed=3, n_paths=4)
        assert len(ens.aborted) > 0
        with pytest.raises(Exception):
            ens.terminal_measure()

    def test_weak_order_one_in_mean(self):
        # additive 1-D case: terminal-mean error decays ~ h
        rate, a_scale, x0, t, n = 2.0, 0.045, 5.0, 1.0, 50_000
        f = ou_field(1, rate, a_scale)
        exact = x0 * math.exp(-rate * t)
        hs, errs = [], []
        for p in range(4, 9):
            steps = 2**p
            ens = euler_maruyama(f, [x0], time_grid(t, steps), seed=11, n_paths=n)
            errs.append(abs(ens.terminal_measure().mean()[0] - exact))
            hs.append(t / steps)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 0.7 <= slope <= 1.3

    def test_csv_export(self, tmp_path):
        ens = euler_maruyama(heat_field(2), [0.0, 0.0], time_grid(0.1, 4), seed=0, n_paths=2)
        path = tmp_path / "paths.csv"
        ens.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "path,t,x1,x2"
        assert len(lines) == 1 + 2 * 5


class TestSynchronousPair:
    def test_identical_dynamics_coincide(self):
        f = ou_field(1, 1.0, 0.5)
        pair = synchronous_pair(f, f, [0.5], [0.5], time_grid(1.0, 64), seed=4, n_pairs=8)
        assert np.array_equal(pair.first.paths, pair.second.paths)
        assert np.all(pair.separation == 0.0)

    def test_first_marginal_matches_single_sde_bitwise(self):
        f1, f2 = ou_field(1, 1.0, 0.5), heat_field(1)
        grid = time_grid(1.0, 64)
        pair = synchronous_pair(f1, f2, [0.5], [1.0], grid, seed=7, n_pairs=8)
        single = euler_maruyama(f1, [0.5], grid, seed=7, n_paths=8)
        assert np.array_equal(pair.first.paths, single.paths)

    def test_additive_case_separation_constant_bitwise(self):
        # equal constant diffusions, zero drift: differences cancel exactly
        f = heat_field(2)
        x1, x2 = np.array([0.3, -0.2]), np.array([1.1, 0.4])
        pair = synchronous_pair(f, f, x1, x2, time_grid(1.0, 128), seed=8, n_pairs=32)
        d0 = float(np.linalg.norm(x1 - x2))
        assert np.all(pair.separation == d0)

    def test_ou_pair_against_moment_ode_oracle(self):
        k1, k2, a_scale, x1, x2, t = 1.0, 2.0, 0.5, 1.0, -0.5, 1.0
        sigma = math.sqrt(2 * a_scale)
        n = 10_000
        pair = synchronous_pair(
            ou_field(1, k1, a_scale),
            ou_field(1, k2, a_scale),
            [x1],
            [x2],
            time_grid(t, 256),
            seed=9,
            n_pairs=n,
        )
        sep_sq = pair.separation[:, -1] ** 2
        oracle = coupled_ou_second_moment(k1, k2, sigma, x1, x2, t, n_steps=20_000)
        se = np.std(sep_sq, ddof=1) / math.sqrt(n)
        assert abs(float(np.mean(sep_sq)) - oracle) < 3 * se + 5e-3

    def test_second_marginal_moments(self):
        f1, f2 = heat_field(1), ou_field(1, 1.0, 0.5)
        grid = time_grid(1.0, 256)
        n = 10_000
        pair = synchronous_pair(f1, f2, [0.0], [1.0], grid, seed=10, n_pairs=n)
        mean, var = ou_law_1d(1.0, 1.0, 0.5, 1.0)
        got = pair.second.terminal_measure()
        assert abs(got.mean()[0] - mean) < 3 * math.sqrt(var / n) + 2e-3
        assert abs(got.cov()[0, 0] - var) < 3 * math.sqrt(2 * var**2 / n) + 5e-3

    def test_bit_identical_to_reference_recursion(self):
        f1, f2 = dini_power_drift_field(2), ou_field(2, 1.0, 0.5)
        x1, x2 = np.array([0.3, -0.2]), np.array([1.1, 0.4])
        grid = time_grid(1.0, 64)
        pair = synchronous_pair(f1, f2, x1, x2, grid, seed=21, n_pairs=16)
        incs = _increments(grid, path_normals(21, 16, 64, 2))
        p1, p2, sep = synchronous_pair_loop(f1, f2, x1, x2, grid, incs)
        assert np.array_equal(pair.first.paths, p1)
        assert np.array_equal(pair.second.paths, p2)
        assert np.array_equal(pair.separation, sep)

    def test_blowup_aborts_pair_in_both_ensembles(self):
        pair = synchronous_pair(
            quintic_field(), heat_field(1), [3.0], [0.0], time_grid(5.0, 8), seed=3, n_pairs=4
        )
        assert pair.first.aborted and pair.first.aborted == pair.second.aborted
        assert np.all(np.isnan(pair.separation[list(pair.first.aborted), -1]))
        # one node before the abort the states are finite near 1e267, where squaring overflows
        finite = np.isfinite(pair.first.paths).all(axis=2) & np.isfinite(pair.second.paths).all(axis=2)
        assert np.all(finite[:, 4])
        np.testing.assert_allclose(
            pair.separation[finite], np.abs(pair.first.paths - pair.second.paths)[finite][:, 0], rtol=1e-12
        )
        for ens in (pair.first, pair.second):
            with pytest.raises(BlowUpError):
                ens.terminal_measure()

    def test_start_dimension_checked(self):
        grid = time_grid(1.0, 8)
        # unchecked, a start with too few coordinates broadcasts and one with
        # too many fails inside numpy
        for x1, x2 in (([0.1, 0.2], [0.3]), ([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])):
            with pytest.raises(DynamicsError, match="start point"):
                synchronous_pair(heat_field(2), heat_field(2), x1, x2, grid, seed=0, n_pairs=2)


class TestBridgePath:
    def test_degenerate_switch_is_field1(self):
        # epsilon = 1: the generator never switches
        spec = BridgeSpec(ou_field(1, 1.0, 0.5), heat_field(1), t1=1.0, epsilon=1.0)
        grid = time_grid(1.0, 128)
        n = 10_000
        bridge = bridge_path(spec, [1.0], grid, seed=12, n_paths=n)
        mean, var = ou_law_1d(1.0, 1.0, 0.5, 1.0)
        got = bridge.terminal_measure()
        assert abs(got.mean()[0] - mean) < 3 * math.sqrt(var / n) + 2e-3
        assert abs(got.cov()[0, 0] - var) < 3 * math.sqrt(2 * var**2 / n) + 5e-3

    def test_one_step_switch_is_nearly_field2(self):
        # epsilon -> 0 limit: t0 equal to a single grid step
        n_steps = 128
        spec = BridgeSpec(heat_field(1), ou_field(1, 1.0, 0.5), t1=1.0, epsilon=1.0 / n_steps)
        grid = time_grid(1.0, n_steps)
        n = 10_000
        bridge = bridge_path(spec, [1.0], grid, seed=13, n_paths=n)
        mean, var = ou_law_1d(1.0, 1.0, 0.5, 1.0)
        got = bridge.terminal_measure()
        # one heat step perturbs the law at O(h)
        assert abs(got.mean()[0] - mean) < 3 * math.sqrt(var / n) + 0.05
        assert abs(got.cov()[0, 0] - var) < 3 * math.sqrt(2 * var**2 / n) + 0.05

    def test_switch_node_inserted_exactly(self):
        spec = BridgeSpec(heat_field(1), ou_field(1), t1=1.0, epsilon=0.3)
        bridge = bridge_path(spec, [0.0], time_grid(1.0, 10), seed=0, n_paths=1)
        assert float(spec.t0) in bridge.times.tolist()
        spec7 = BridgeSpec(heat_field(1), ou_field(1), t1=1.0, epsilon=1.0 / 7.0)
        bridge7 = bridge_path(spec7, [0.0], time_grid(1.0, 10), seed=0, n_paths=1)
        assert float(spec7.t0) in bridge7.times.tolist()
        assert bridge7.times.size == 12  # genuinely inserted

    def test_start_dimension_checked(self):
        # unchecked, a 2-D start for 1-D fields gives 2-D paths with the 1-D
        # noise broadcast into both coordinates
        spec = BridgeSpec(ou_field(1), heat_field(1), t1=0.5)
        with pytest.raises(DynamicsError, match="start point"):
            bridge_path(spec, [0.3, 0.9], time_grid(0.5, 8), seed=0, n_paths=3)

    def test_bridge_same_field_matches_plain(self):
        f = ou_field(1, 1.0, 0.5)
        spec = BridgeSpec(f, f, t1=1.0, epsilon=0.5)
        grid = time_grid(1.0, 128)
        n = 8_000
        bridge = bridge_path(spec, [1.0], grid, seed=14, n_paths=n)
        plain = euler_maruyama(f, [1.0], grid, seed=15, n_paths=n)
        bm, pm = bridge.terminal_measure(), plain.terminal_measure()
        var = ou_law_1d(1.0, 1.0, 0.5, 1.0)[1]
        assert abs(bm.mean()[0] - pm.mean()[0]) < 3 * math.sqrt(2 * var / n)


class TestExpMomentCertificate:
    @staticmethod
    def _witness(d=2, t0=0.2, lam=0.5, k1=4.0):
        k = k1 * (1 + lam / 2) / (1 - k1 * t0) + 1.0
        return SemimartingaleWitness(
            k1=k1, lam=lam, k=k, t0=t0, horizon=1.0, xi0=0.0, compensator=lambda t: d * t
        )

    def test_trivial_zero_process(self):
        w = SemimartingaleWitness(
            k1=1.0, lam=0.5, k=10.0, t0=0.2, horizon=1.0, xi0=0.0, compensator=lambda t: 0.0
        )
        rep = exp_moment_certificate(w, np.zeros(100))
        assert rep.left == pytest.approx(1.0)
        assert rep.right == pytest.approx(1.0)
        assert rep.verdict == "holds"

    def test_brownian_square_witness(self):
        # xi_t = |B_t|^2: d xi = d dt + 2 B . dB, quadratic variation 4 xi dt
        d, t0 = 2, 0.2
        w = self._witness(d=d, t0=t0)
        rng = np.random.default_rng(77)
        xi = np.sum(rng.standard_normal((20_000, d)) ** 2 * t0, axis=1)
        rep = exp_moment_certificate(w, xi)
        assert rep.verdict == "holds"
        # closed-form cross-check: E exp(theta chi2_d * t0) = (1 - 2 theta t0)^(-d/2)
        theta = w.lam / (1 + w.k * w.t0)
        closed = (1 - 2 * theta * t0) ** (-d / 2)
        assert rep.left == pytest.approx(closed, rel=0.05)

    def test_slack_condition_rejected_before_simulation(self):
        with pytest.raises(DynamicsError, match="slack condition"):
            SemimartingaleWitness(
                k1=4.0, lam=0.5, k=1.0, t0=0.2, horizon=1.0, xi0=0.0, compensator=lambda t: t
            )

    def test_t0_range_rejected(self):
        with pytest.raises(DynamicsError, match="t0"):
            SemimartingaleWitness(
                k1=4.0, lam=0.1, k=100.0, t0=0.3, horizon=1.0, xi0=0.0, compensator=lambda t: t
            )
