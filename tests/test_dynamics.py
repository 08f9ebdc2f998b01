import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from entroflow import (
    BlowUpError,
    BridgeSpec,
    CoefficientField,
    DynamicsError,
    GaussianMeasure,
    PathEnsemble,
    SemimartingaleWitness,
    bridge_path,
    dynamics,
    euler_maruyama,
    evolve_particles,
    exp_moment_certificate,
    synchronous_pair,
    time_grid,
)
from entroflow.dynamics import _noise, refine_grid
from entroflow.catalog import constant_drift_field, dini_power_drift_field, heat_field, mean_field_ou, ou_field

from _refs import (
    coupled_ou_second_moment,
    ou_law_1d,
    scaled_increments,
    separate_increments_integrate,
    synchronous_pair_loop,
)

#: grids the Euler loop refuses: a step backwards, a NaN node, two dimensions
BAD_GRIDS = ([0.0, 0.5, 0.2, 1.0], [0.0, math.nan, 1.0], [[0.0, 0.5], [0.5, 1.0]])


def quintic_field(d=1):
    """Drift x^5: Euler paths from |x| ~ 3 overflow within a few steps."""
    return CoefficientField(
        dim=d,
        drift_dini=lambda t, x: np.zeros_like(x),
        drift_lipschitz=lambda t, x: x**5,
        diffusion=lambda t, x: np.broadcast_to(np.eye(d), (x.shape[0], d, d)),
        bound=100.0,
    )


class TestTimeGrid:
    @pytest.mark.parametrize("t_end", [0.0, -1.0, math.nan, math.inf, True])
    def test_nonpositive_or_nonfinite_end_rejected(self, t_end):
        with pytest.raises(DynamicsError, match="t_end") as exc:
            time_grid(t_end, 4)
        assert not isinstance(exc.value, BlowUpError)

    @pytest.mark.parametrize("n_steps", [0, 2.5, True, np.float64(4.0)], ids=["zero", "fraction", "bool", "float"])
    def test_steps_must_be_a_positive_integer(self, n_steps):
        # truncated, 2.5 would give 2 steps and True 1 step
        with pytest.raises(DynamicsError, match="integer n_steps >= 1"):
            time_grid(1.0, n_steps)

    def test_numpy_integer_steps_accepted(self):
        assert np.array_equal(time_grid(1.0, np.int64(4)), time_grid(1.0, 4))


class TestGridNodes:
    """One rule decides whether t is a node of a grid: the nearest node,
    within 1e-12 * max(1, |t|)."""

    def test_refine_inserts_and_snaps_several_times(self):
        grid = time_grid(1.0, 4)
        near = 0.5 + 3e-13
        out = refine_grid(grid, [0.3, near, 0.3, 1.0])
        assert out.tolist() == [0.0, 0.25, 0.3, near, 0.75, 1.0]
        # every time is now a node, one refinement at a time or all at once
        one_by_one = grid
        for t in (0.3, near, 1.0):
            one_by_one = refine_grid(one_by_one, [t])
        assert np.array_equal(out, one_by_one)

    def test_refine_tolerance_scales_with_large_times(self):
        grid = time_grid(1e4, 4)
        assert refine_grid(grid, [5000.0 + 1e-9]).size == grid.size
        assert refine_grid(grid, [5000.0 + 1e-7]).size == grid.size + 1

    @pytest.mark.parametrize("t", [-0.1, 1.5, math.nan])
    def test_refine_outside_the_grid_rejected(self, t):
        with pytest.raises(DynamicsError, match="outside the grid range"):
            refine_grid(time_grid(1.0, 4), [0.5, t])

    def test_slice_at_a_node_within_rounding(self):
        ens = euler_maruyama(heat_field(1), [0.0], time_grid(1.0, 4), seed=0, n_paths=3)
        assert np.array_equal(ens.slice_measure(0.5 + 1e-13).points, ens.paths[:, 2, :])

    @pytest.mark.parametrize("t", [0.3, 0.5 + 1e-9, math.nan])
    def test_slice_off_the_grid_rejected(self, t):
        ens = euler_maruyama(heat_field(1), [0.0], time_grid(1.0, 4), seed=0, n_paths=3)
        with pytest.raises(DynamicsError, match="not a grid node"):
            ens.slice_measure(t)

    def test_slice_of_aborted_ensemble_is_blowup(self):
        ens = PathEnsemble(times=time_grid(1.0, 2), paths=np.zeros((3, 3, 1)), aborted=(1,))
        with pytest.raises(BlowUpError, match=r"paths \(1,\) blew up; no slice at t=0\.5"):
            ens.slice_measure(0.5)


class TestCoefficientField:
    def test_catalog_fields_validate(self):
        heat_field(2).validate()
        ou_field(1, rate=1.0, a_scale=0.5).validate()
        constant_drift_field(2, c=1.0).validate()
        # sqrt(2a)^2 misses 2a by a few ulp of 2a, far above 1e-8 absolute at a = 1e9
        for a_scale in (1e8, 1e9, 3e9, 7.3e9):
            heat_field(1, a_scale).validate()

    def test_dini_bound_enforced(self):
        bad = CoefficientField(
            dim=1,
            drift_dini=lambda t, x: np.full_like(x, 10.0),
            drift_lipschitz=lambda t, x: np.zeros_like(x),
            diffusion=lambda t, x: np.broadcast_to(np.eye(1), (x.shape[0], 1, 1)),
            bound=1.5,
        )
        with pytest.raises(DynamicsError):
            bad.validate()

    def test_nan_fails_every_bound_check(self):
        # value > bound is false for NaN; each sampled check must fail on it instead
        nan = float("nan")
        heat = heat_field(1)
        fields = [
            dataclasses.replace(heat, drift_dini=lambda t, x: np.full_like(x, nan)),  # NaN drift, finite bound
            dataclasses.replace(heat, bound=nan),
            dataclasses.replace(heat, diffusion=lambda t, x: np.full((x.shape[0], 1, 1), nan)),
            dataclasses.replace(heat, drift_lipschitz=lambda t, x: np.full_like(x, nan)),
        ]
        for field in fields:
            with pytest.raises(DynamicsError):
                field.validate()

    def test_sigma_mismatch_caught(self):
        # 1e-7 of 2a off: above the check's 1e-8 relative tolerance
        wrong = CoefficientField(
            dim=1,
            drift_dini=lambda t, x: np.zeros_like(x),
            drift_lipschitz=lambda t, x: np.zeros_like(x),
            diffusion=lambda t, x: np.broadcast_to(1e9 * np.eye(1), (x.shape[0], 1, 1)),
            sigma_fn=lambda t, x: np.broadcast_to(np.sqrt(2e9 * (1 + 1e-7)) * np.eye(1), (x.shape[0], 1, 1)),
            bound=2e9,
        )
        with pytest.raises(DynamicsError, match="sigma sigma"):
            wrong.validate()

    def test_sigma_from_diffusion(self):
        f = heat_field(2, a_scale=3.0)
        x = np.zeros((4, 2))
        sig = f.sigma(0.0, x)
        assert np.allclose(np.einsum("nij,nkj->nik", sig, sig), 2.0 * f.diffusion(0.0, x))


class TestEulerMaruyama:
    @pytest.mark.parametrize("start", [math.nan, math.inf])
    @pytest.mark.parametrize("front_end", ["euler", "pair", "bridge"])
    def test_nonfinite_start_rejected(self, front_end, start):
        # unchecked, every path of the ensemble is reported as a blow-up
        f, grid = heat_field(1), time_grid(1.0, 4)
        runs = {
            "euler": lambda: euler_maruyama(f, [start], grid, seed=0, n_paths=3),
            "pair": lambda: synchronous_pair(f, f, [0.0], [start], grid, seed=0, n_pairs=3),
            "bridge": lambda: bridge_path(BridgeSpec(f, ou_field(1), 1.0), [start], grid, seed=0, n_paths=3),
        }
        with pytest.raises(DynamicsError, match="start point") as exc:
            runs[front_end]()
        assert not isinstance(exc.value, BlowUpError)

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

    def test_diagonal_sigma_matches_einsum(self):
        # a sigma broadcasting one diagonal matrix scales dW by its diagonal;
        # that equals the general einsum bit for bit, and any other sigma
        # (not diagonal, or not a broadcast) takes the einsum itself
        rng = np.random.default_rng(4)
        dw = rng.standard_normal((200, 3))
        diag = np.broadcast_to(np.diag([0.5, 1.7, 0.0]), (200, 3, 3))
        full = np.broadcast_to(np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]), (200, 3, 3))
        per_row = rng.standard_normal((200, 3, 3))
        for sig in (diag, full, np.ascontiguousarray(diag), per_row):
            assert np.array_equal(_noise(sig, dw), np.einsum("nij,nj->ni", sig, dw))
        # an ensemble of a catalog field against the step loop written with einsum
        f, grid, x0 = ou_field(2, rate=1.0, a_scale=0.5), time_grid(1.0, 32), np.array([1.0, -1.0])
        ens = euler_maruyama(f, x0, grid, seed=5, n_paths=64)
        dws = scaled_increments(5, 64, grid, 2)
        x = np.tile(x0, (64, 1))
        for k in range(32):
            h = grid[k + 1] - grid[k]
            x = x + f.drift(grid[k], x) * h + np.einsum("nij,nj->ni", f.sigma(grid[k], x), dws[:, k, :])
            assert np.array_equal(ens.paths[:, k + 1, :], x)

    @pytest.mark.parametrize("grid", BAD_GRIDS)
    def test_bad_grid_rejected(self, grid):
        # unchecked, a backward or NaN step has no real square root and every
        # path is reported as blown up
        with pytest.raises(DynamicsError, match="time grid") as exc:
            euler_maruyama(heat_field(1), [0.0], grid, seed=0, n_paths=3)
        assert not isinstance(exc.value, BlowUpError)

    @pytest.mark.parametrize("n_paths", [0, -1, 2.5, True])
    def test_fewer_than_one_path_rejected(self, n_paths):
        # unchecked, a fraction fails inside numpy with a TypeError
        with pytest.raises(DynamicsError, match="at least one path"):
            euler_maruyama(heat_field(1), [0.0], time_grid(1.0, 4), seed=0, n_paths=n_paths)


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
        incs = scaled_increments(21, 16, grid, 2)
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

    @pytest.mark.parametrize("grid", BAD_GRIDS)
    def test_bad_grid_rejected(self, grid):
        with pytest.raises(DynamicsError, match="time grid"):
            synchronous_pair(heat_field(1), ou_field(1), [0.0], [1.0], grid, seed=0, n_pairs=3)

    @pytest.mark.parametrize("n_pairs", [0, -1, 2.5, True])
    def test_fewer_than_one_pair_rejected(self, n_pairs):
        with pytest.raises(DynamicsError, match="at least one path"):
            synchronous_pair(heat_field(1), ou_field(1), [0.0], [1.0], time_grid(1.0, 4), seed=0, n_pairs=n_pairs)

    def test_field_dimensions_must_agree(self):
        with pytest.raises(DynamicsError, match="field dimensions differ"):
            synchronous_pair(heat_field(1), heat_field(2), [0.0], [1.0, 0.0], time_grid(1.0, 4), seed=0)

    def test_peak_memory_at_most_five_ensembles(self):
        # the components are written into the two halves of the stacked
        # [X1, D] buffer, which also holds the noise, and |D| is summed from
        # one D * D temporary: 3.5 path-sized arrays are alive at the peak
        # (d = 2), 4 when the noise had an array of its own, seven when both
        # halves were copied out and X1 - D formed beside them
        f = heat_field(2)
        grid = time_grid(1.0, 256)
        synchronous_pair(f, f, [0.0, 0.0], [1.0, 0.0], grid, seed=1, n_pairs=2)
        tracemalloc.start()
        try:
            pair = synchronous_pair(f, f, [0.0, 0.0], [1.0, 0.0], grid, seed=1, n_pairs=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.75 * pair.first.paths.nbytes


class TestNoiseInPathBuffer:
    """The Euler loop draws each row's noise into the tail of the row's own
    path buffer; it must step exactly as the loop that kept the increments
    in an array of their own, and peak at about one path array."""

    def test_pair_wider_than_noise_matches_separate_increments(self, monkeypatch):
        # the stacked [X1, D] state is 2d wide against d noise coordinates per step
        f1, f2 = ou_field(3, 1.0, 0.5), dini_power_drift_field(3)
        x1, x2 = np.array([0.3, -0.2, 0.9]), np.array([1.1, 0.4, -0.5])
        grid = time_grid(1.0, 48)
        pair = synchronous_pair(f1, f2, x1, x2, grid, seed=13, n_pairs=24)
        monkeypatch.setattr(dynamics, "_integrate", separate_increments_integrate)
        ref = synchronous_pair(f1, f2, x1, x2, grid, seed=13, n_pairs=24)
        assert np.array_equal(pair.first.paths, ref.first.paths)
        assert np.array_equal(pair.second.paths, ref.second.paths)
        assert np.array_equal(pair.separation, ref.separation)

    def test_row_blowup_matches_separate_increments(self, monkeypatch):
        grid = time_grid(0.1, 16)
        ens = euler_maruyama(quintic_field(), [1.5], grid, seed=2, n_paths=8)
        # some rows blow up, each NaN from its blow-up node on, and the rest finish
        assert 0 < len(ens.aborted) < 8
        for i in ens.aborted:
            first = int(np.argmax(np.isnan(ens.paths[i, :, 0])))
            assert np.isfinite(ens.paths[i, :first]).all() and np.isnan(ens.paths[i, first:]).all()
        assert np.isfinite(np.delete(ens.paths, ens.aborted, axis=0)).all()
        monkeypatch.setattr(dynamics, "_integrate", separate_increments_integrate)
        ref = euler_maruyama(quintic_field(), [1.5], grid, seed=2, n_paths=8)
        assert ens.aborted == ref.aborted
        assert np.array_equal(ens.paths, ref.paths, equal_nan=True)

    @pytest.mark.parametrize("kind", ["euler", "bridge", "particles"])
    def test_peak_memory_is_one_path_array(self, kind):
        # the noise lives in the path buffer: the peak is the paths plus
        # per-step arrays (2.05 path arrays with a separate increments array)
        f, grid = ou_field(2, 1.0, 0.5), time_grid(1.0, 256)
        runs = {
            "euler": lambda n: euler_maruyama(f, [0.5, 0.0], grid, seed=1, n_paths=n),
            "bridge": lambda n: bridge_path(BridgeSpec(f, heat_field(2), 1.0, 0.3), [0.5, 0.0], grid, seed=1, n_paths=n),
            "particles": lambda n: evolve_particles(
                mean_field_ou(2, 1.0, 0.5), GaussianMeasure([0.5, 0.0], 0.5 * np.eye(2)), n, grid, seed=1
            ),
        }
        runs[kind](2)
        tracemalloc.start()
        try:
            ens = runs[kind](2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * ens.paths.nbytes


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

    @pytest.mark.parametrize("grid", BAD_GRIDS)
    def test_bad_grid_rejected(self, grid):
        # the grid is checked before t0 = 0.3 is inserted into it
        spec = BridgeSpec(heat_field(1), ou_field(1), t1=1.0, epsilon=0.3)
        with pytest.raises(DynamicsError, match="time grid"):
            bridge_path(spec, [0.0], grid, seed=0, n_paths=3)

    def test_fewer_than_one_path_rejected(self):
        spec = BridgeSpec(heat_field(1), ou_field(1), t1=1.0)
        with pytest.raises(DynamicsError, match="at least one path"):
            bridge_path(spec, [0.0], time_grid(1.0, 4), seed=0, n_paths=0)

    def test_non_integer_path_count_rejected(self):
        spec = BridgeSpec(heat_field(1), ou_field(1), t1=1.0)
        with pytest.raises(DynamicsError, match="at least one path"):
            bridge_path(spec, [0.0], time_grid(1.0, 4), seed=0, n_paths=2.5)

    @pytest.mark.parametrize(
        "t1, epsilon, dim2, match",
        [
            (0.0, 0.5, 1, "t1 > 0"),
            (-1.0, 0.5, 1, "t1 > 0"),
            (1.0, 0.0, 1, "epsilon"),
            (1.0, 1.5, 1, "epsilon"),
            (1.0, 0.5, 2, "dimensions differ"),
            (math.inf, 0.5, 1, "t1 > 0"),
            (math.nan, 0.5, 1, "t1 > 0"),
        ],
        ids=["t1-zero", "t1-negative", "epsilon-zero", "epsilon-above-one", "dimensions", "t1-infinite", "t1-nan"],
    )
    def test_bad_spec_rejected(self, t1, epsilon, dim2, match):
        with pytest.raises(DynamicsError, match=match):
            BridgeSpec(heat_field(1), heat_field(dim2), t1=t1, epsilon=epsilon)

    def test_grid_short_of_t1_rejected(self):
        spec = BridgeSpec(heat_field(1), ou_field(1), t1=1.0)
        with pytest.raises(DynamicsError, match="reach t1"):
            bridge_path(spec, [0.0], time_grid(1.0 - 1e-9, 4), seed=0)

    def test_grid_ending_on_large_t1_within_rounding_accepted(self):
        # t1 is a node within 1e-12 * t1, the rule every grid node follows
        spec = BridgeSpec(heat_field(1), ou_field(1), t1=1e4)
        bridge = bridge_path(spec, [0.0], time_grid(1e4 - 1e-9, 8), seed=0, n_paths=2)
        assert bridge.times[-1] == 1e4 - 1e-9 and not bridge.aborted
        with pytest.raises(DynamicsError, match="reach t1"):
            bridge_path(spec, [0.0], time_grid(1e4 - 1e-7, 8), seed=0)

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

    @pytest.mark.parametrize(
        "bad, match",
        [({"k1": math.nan}, "k1"), ({"lam": math.inf}, "lam"), ({"xi0": math.nan}, "xi0"), ({"xi0": -1.0}, "xi0")],
        ids=["k1-nan", "lam-infinite", "xi0-nan", "xi0-negative"],
    )
    def test_nonfinite_parameters_rejected(self, bad, match):
        # unchecked, k1 = NaN passes every comparison and the certificate reports "holds"
        params = dict(k1=1.0, lam=0.5, k=10.0, t0=0.2, horizon=1.0, xi0=0.0, compensator=lambda t: 0.0)
        with pytest.raises(DynamicsError, match=match):
            SemimartingaleWitness(**{**params, **bad})
