import dataclasses
import math

import numpy as np
import pytest

from entroflow import (
    DivergenceError,
    EmpiricalMeasure,
    GaussianMeasure,
    LinearSDESpec,
    MeasureError,
    MismatchCase,
    bridge_decomposition_experiment,
    bridge_epsilon_sweep,
    entropy_cost_experiment,
    gaussian_log_power_integral,
    gaussian_sample,
    kl_gaussian,
    linear_sde_law,
    log_harnack_coefficient,
    log_harnack_experiment,
    meanfield_entropy_cost_experiment,
    mismatch_singularity_experiment,
    talagrand_experiment,
)
from entroflow.catalog import (
    constant_drift_field,
    constant_drift_spec,
    heat_field,
    heat_spec,
    mean_field_ou,
    ou_spec,
)
from entroflow import inequalities
from entroflow.inequalities import ExperimentError

from _refs import quad_log_power_integral_1d, random_spd

#: time grids every flow experiment rejects: empty, non-finite, nonpositive, 2-D
BAD_GRIDS = [[], [0.5, np.nan], [-0.1, 0.5], [[0.1, 0.5]]]
BAD_GRID_IDS = ["empty", "nan", "negative", "2-D"]


class TestTalagrand:
    def test_nu_equals_mu_equality(self):
        rep = talagrand_experiment(GaussianMeasure.standard(2))
        assert rep.left == pytest.approx(0.0, abs=1e-12)
        assert rep.right == pytest.approx(0.0, abs=1e-12)
        assert rep.verdict == "holds"

    def test_mean_shift_ratio_exactly_two(self):
        for d in (1, 2, 3):
            m = np.zeros(d)
            m[0] = 1.5
            rep = talagrand_experiment(GaussianMeasure(m, np.eye(d)))
            assert abs(rep.params["ratio_2ent_over_w2sq"] - 1.0) < 1e-9
            assert rep.verdict == "holds"

    def test_variance_case_strict_margin(self):
        rep = talagrand_experiment(GaussianMeasure([0.0], [[4.0]]))
        assert rep.left == pytest.approx(1.0, abs=1e-12)  # W2 = |2 - 1|
        assert rep.right == pytest.approx(3.0 - math.log(4.0), abs=1e-12)
        assert rep.margin > 0.6

    def test_random_gaussians_hold(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            nu = GaussianMeasure(rng.standard_normal(d), random_spd(rng, d))
            rep = talagrand_experiment(nu)
            assert rep.verdict == "holds"

    def test_empirical_estimators(self):
        nu_law = GaussianMeasure([1.0, 0.0], np.eye(2))
        nu = gaussian_sample(nu_law, 2000, seed=55)
        rep = talagrand_experiment(nu, seed=56)
        assert rep.verdict == "holds"
        # estimates should sit near the closed forms for the underlying law
        assert abs(rep.params["entropy"] - 0.5) < 0.15
        assert abs(rep.left - 1.0) < 0.3

    def test_repeated_draws_raise(self):
        # each draw six times: its 5th neighbor inside the sample is a copy, at radius 0
        draws = np.repeat(np.random.default_rng(57).standard_normal((300, 1)), 6, axis=0)
        with pytest.raises(DivergenceError, match="k=5"):
            talagrand_experiment(EmpiricalMeasure(draws), seed=58)


class TestEntropyCost:
    def test_heat_flow_is_sharp(self):
        t_grid = np.geomspace(0.01, 1.0, 20)
        rep = entropy_cost_experiment(heat_spec(1), heat_spec(1), [0.0], [1.0], t_grid)
        assert rep.params["sharp_dev"] < 1e-10
        assert rep.verdict == "holds"
        # t * Ent is |x-y|^2 / 4, flat across the grid
        assert np.allclose(rep.params["t_entropy"], 0.25, atol=1e-10)

    def test_identical_degenerate(self):
        rep = entropy_cost_experiment(heat_spec(1), heat_spec(1), [0.0], [0.0], [0.1, 1.0])
        assert rep.verdict == "degenerate"

    def test_ou_diffusion_pair_bounded(self):
        t_grid = [2.0**-k for k in range(12, 0, -1)]
        rep = entropy_cost_experiment(
            ou_spec(1, 1.0, 1.0), ou_spec(1, 1.0, 2.0), [0.0], [1.0], t_grid
        )
        assert rep.verdict == "holds"
        t_ent = np.asarray(rep.params["t_entropy"])
        assert np.max(t_ent) <= 10.0 * t_ent[-1]

    @pytest.mark.parametrize("grid", BAD_GRIDS, ids=BAD_GRID_IDS)
    def test_bad_grid_rejected(self, grid):
        with pytest.raises(ExperimentError, match="time grid"):
            entropy_cost_experiment(heat_spec(1), heat_spec(1), [0.0], [1.0], grid)

    def test_callable_coefficients_give_no_sharp_deviation(self):
        # only two constant standard heat specs have the sharp |x-y|^2/(4t)
        spec = LinearSDESpec(1, lambda t: np.zeros((1, 1)), 0.0, np.sqrt(2.0) * np.eye(1), [0.0])
        rep = entropy_cost_experiment(spec, heat_spec(1), [0.0], [1.0], [0.1, 0.5, 1.0])
        assert "sharp_dev" not in rep.params
        # the callable spec is the heat flow, so the entropies are the sharp ones
        assert np.allclose(rep.params["t_entropy"], 0.25, atol=1e-9)

    def test_unsorted_grid_gives_sorted_report(self):
        specs = (ou_spec(1, 1.0, 1.0), ou_spec(1, 1.0, 2.0), [0.0], [1.0])
        rep = entropy_cost_experiment(*specs, [0.5, 0.01, 0.1])
        assert rep.to_json() == entropy_cost_experiment(*specs, [0.01, 0.1, 0.5]).to_json()


class TestMismatchSingularity:
    def _case(self, kind, t):
        x0 = [0.0]
        if kind == "drift-gap":
            f1, f2 = heat_field(1, horizon=t), constant_drift_field(1, 1.0, horizon=t)
            s1, s2 = heat_spec(1, x0=x0, horizon=t), constant_drift_spec(1, 1.0, x0=x0, horizon=t)
        else:
            f1, f2 = heat_field(1, 1.0, horizon=t), heat_field(1, 2.0, horizon=t)
            s1, s2 = heat_spec(1, 1.0, x0=x0, horizon=t), heat_spec(1, 2.0, x0=x0, horizon=t)
        true_ent = kl_gaussian(linear_sde_law(s1, t), linear_sde_law(s2, t))
        return MismatchCase(f1, f2, lambda s: linear_sde_law(s1, s), true_ent, kind)

    def test_drift_gap_holds(self):
        t = 0.5
        rep = mismatch_singularity_experiment([self._case("drift-gap", t)], t, n_mc=200, seed=1)
        assert rep.verdict == "holds"
        assert rep.left == pytest.approx(t / 4.0, abs=1e-12)
        assert rep.right == pytest.approx(t / 2.0, rel=1e-6)

    def test_diffusion_gap_divergent(self):
        t = 0.5
        rep = mismatch_singularity_experiment([self._case("diffusion-gap", t)], t, n_mc=200, seed=2)
        assert rep.verdict == "divergent"
        assert "diffusion-gap" in rep.notes

    def test_all_divergent_reports_largest_known_entropy(self):
        # no finite bound to bind: left is the largest supplied true entropy,
        # KL(N(0, 2s) | N(0, 4s)) = (ln 2 - 1/2)/2 for the a=1 vs a=2 gap
        t = 0.5
        gap = self._case("diffusion-gap", t)
        unknown = MismatchCase(gap.field1, gap.field2, gap.law_provider, None, "unknown")
        rep = mismatch_singularity_experiment([unknown, gap], t, n_mc=100, seed=5, n_nodes=16)
        assert rep.verdict == "divergent"
        assert rep.left == pytest.approx(0.5 * (math.log(2.0) - 0.5), abs=1e-12)
        assert math.isinf(rep.right)

    def test_combined_pair_reproduces_pattern(self):
        t = 0.5
        rep = mismatch_singularity_experiment(
            [self._case("drift-gap", t), self._case("diffusion-gap", t)], t, n_mc=200, seed=3
        )
        assert rep.verdict == "divergent"
        by = {row["label"]: row for row in rep.params["cases"]}
        assert not by["drift-gap"]["diverged"]
        assert by["drift-gap"]["true_entropy"] <= by["drift-gap"]["bound"]
        assert by["diffusion-gap"]["diverged"]

    def test_equal_fields_both_zero(self):
        t = 0.5
        f = heat_field(1, horizon=t)
        s = heat_spec(1, x0=[0.0], horizon=t)
        case = MismatchCase(f, f, lambda u: linear_sde_law(s, u), 0.0, "equal")
        rep = mismatch_singularity_experiment([case], t, n_mc=100, seed=4)
        assert rep.verdict == "holds"
        assert rep.left == 0.0 and rep.right == 0.0

    def test_violated_note_names_binding_pair(self):
        # a supplied true entropy above the finite bound t/2 is violated, and
        # the note says so instead of claiming the bound dominates
        t = 0.5
        drift = self._case("drift-gap", t)
        inflated = MismatchCase(drift.field1, drift.field2, drift.law_provider, 10.0, "inflated")
        rep = mismatch_singularity_experiment([drift, inflated], t, n_mc=200, seed=1, n_nodes=16)
        assert rep.verdict == "violated"
        assert rep.left == 10.0 and rep.right == pytest.approx(t / 2.0, rel=1e-6)
        assert rep.notes == "true entropy of inflated exceeds its finite bound"
        rep = mismatch_singularity_experiment([drift], t, n_mc=200, seed=1, n_nodes=16)
        assert rep.verdict == "holds"
        assert rep.notes == "finite bound dominates the true entropy for every pair"

    def test_nan_finite_bound_is_violated(self):
        # a NaN drift makes the bound NaN without tripping the divergence
        # flag: the comparison against the true entropy is violated, and the
        # note names the pair whose finite bound it exceeds
        t = 0.5
        drift = self._case("drift-gap", t)
        nan_field = dataclasses.replace(drift.field2, drift_dini=lambda s, x: np.full_like(x, np.nan))
        nan_case = MismatchCase(drift.field1, nan_field, drift.law_provider, drift.true_entropy, "nan")
        rep = mismatch_singularity_experiment([nan_case, drift], t, n_mc=50, seed=1, n_nodes=16)
        row = rep.params["cases"][0]
        assert math.isnan(row["bound"]) and not row["diverged"]
        assert rep.verdict == "violated"
        assert rep.left == drift.true_entropy and math.isnan(rep.right)
        assert rep.notes == "true entropy of nan exceeds its finite bound"

    def test_nan_bound_after_a_finite_pair_is_violated(self):
        # a NaN bound binds wherever its pair stands: second after a finite
        # pair that holds, the report is still violated and names it
        t = 0.5
        drift = self._case("drift-gap", t)
        nan_field = dataclasses.replace(drift.field2, drift_dini=lambda s, x: np.full_like(x, np.nan))
        nan_case = MismatchCase(drift.field1, nan_field, drift.law_provider, drift.true_entropy, "nan")
        rep = mismatch_singularity_experiment([drift, nan_case], t, n_mc=50, seed=1, n_nodes=16)
        assert math.isnan(rep.params["cases"][1]["bound"])
        assert rep.verdict == "violated"
        assert rep.left == drift.true_entropy and math.isnan(rep.right)
        assert rep.notes == "true entropy of nan exceeds its finite bound"

    def test_linear_pairs_are_exact(self):
        # the CLI's pairs as two LinearSDESpecs: no law provider and no draws,
        # the drift-gap bound is c^2 t/(2a) and the diffusion gap diverges
        t = 0.5
        cases = [
            MismatchCase(heat_spec(1, x0=[0.0], horizon=t), constant_drift_spec(1, 1.0, x0=[0.0], horizon=t),
                         true_entropy=t / 4.0, label="drift-gap"),
            MismatchCase(heat_spec(1, 1.0, x0=[0.0], horizon=t), heat_spec(1, 2.0, x0=[0.0], horizon=t),
                         true_entropy=0.5 * (math.log(2.0) - 0.5), label="diffusion-gap"),
        ]
        rep = mismatch_singularity_experiment(cases[:1], t)
        assert rep.verdict == "holds" and rep.right == pytest.approx(t / 2.0, rel=1e-12)
        rep = mismatch_singularity_experiment(cases, t)
        assert rep.verdict == "divergent" and rep.params["cases"][1]["diverged"]

    def test_no_true_entropy_is_degenerate(self):
        # a finite bound with nothing to compare it to is not a "holds"
        t = 0.5
        drift = self._case("drift-gap", t)
        unknown = MismatchCase(drift.field1, drift.field2, drift.law_provider, None, "unknown")
        for cases in ([unknown], []):
            rep = mismatch_singularity_experiment(cases, t, n_mc=50, seed=6, n_nodes=16)
            assert rep.verdict == "degenerate"
            assert "no pair supplies a true entropy" in rep.notes
            assert rep.left == 0.0 and rep.right == 0.0


class TestPowerIntegral:
    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m1, m2 = rng.standard_normal(2)
            v1, v2 = rng.uniform(0.3, 2.0, 2)
            alpha = float(rng.uniform(1.1, 3.0))
            closed = gaussian_log_power_integral(
                GaussianMeasure([m1], [[v1]]), GaussianMeasure([m2], [[v2]]), alpha
            )
            if math.isinf(closed):
                assert alpha * v2 + (1 - alpha) * v1 <= 0
                continue
            oracle = quad_log_power_integral_1d(m1, v1, m2, v2, alpha)
            assert closed == pytest.approx(oracle, abs=1e-7)

    def test_non_integrable_flagged(self):
        big = GaussianMeasure([0.0], [[5.0]])
        small = GaussianMeasure([0.0], [[1.0]])
        assert math.isinf(gaussian_log_power_integral(big, small, 2.0))


class TestBridgeDecomposition:
    def test_trivial_equal_everything(self):
        rep = bridge_decomposition_experiment(heat_spec(1), heat_spec(1), [0.0], [0.0], 1.0)
        assert rep.left == 0.0
        assert rep.right == pytest.approx(0.0, abs=1e-12)
        assert rep.verdict == "holds"

    def test_heat_vs_double_heat_worked_example(self):
        # frozen from the closed forms: laws N(0,2), bridge N(0,3), N(0,4)
        rep = bridge_decomposition_experiment(
            heat_spec(1, 1.0), heat_spec(1, 2.0), [0.0], [0.0], 1.0, epsilon=0.5, p=2.0
        )
        assert rep.left == pytest.approx(0.09657359027997264, abs=1e-12)
        assert rep.params["first_term"] == pytest.approx(0.07213177477483101, abs=1e-12)
        assert rep.right == pytest.approx(0.10440103534361661, abs=1e-10)
        assert rep.verdict == "holds"
        assert rep.margin > 0.0

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"p": math.nan}, "p > 1"),
            ({"p": 1.0}, "p > 1"),
            ({"p": 0.5}, "p > 1"),
            ({"eps_values": (0.5, 2.0)}, "epsilon"),
            ({"eps_values": (-0.5,)}, "epsilon"),
            ({"eps_values": (math.nan,)}, "epsilon"),
            ({"t1": math.nan}, "t1 > 0"),
            ({"t1": True}, "t1 > 0"),
        ],
        ids=["p-nan", "p-one", "p-half", "eps-two", "eps-negative", "eps-nan", "t1-nan", "t1-bool"],
    )
    def test_sweep_rejects_bad_inputs(self, kwargs, match):
        args = {"t1": 1.0, **kwargs}
        with pytest.raises(ExperimentError, match=match):
            bridge_epsilon_sweep(heat_spec(1, 1.0), heat_spec(1, 2.0), [0.0], **args)

    @pytest.mark.parametrize("t1", [math.nan, math.inf, -1.0, 0.0])
    def test_experiment_names_bad_t1(self, t1):
        # unchecked, t1 fails inside the oracle with a message that does not name it
        with pytest.raises(ExperimentError, match="t1 > 0"):
            bridge_decomposition_experiment(heat_spec(1, 1.0), heat_spec(1, 2.0), [0.0], [0.0], t1)

    def test_epsilon_sweep_monotone(self):
        rows = bridge_epsilon_sweep(
            heat_spec(1, 1.0), heat_spec(1, 2.0), [0.0], 1.0, p=2.0,
            eps_values=(1 / 16, 1 / 8, 1 / 4, 1 / 2),
        )
        vals = [v for _, v in rows]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_non_integrable_degenerate(self):
        rep = bridge_decomposition_experiment(
            heat_spec(1, 4.0), heat_spec(1, 1.0), [0.0], [0.0], 1.0, epsilon=0.5, p=2.0
        )
        assert rep.verdict == "degenerate"
        assert math.isinf(rep.right)

    def test_randomized_integrable_instances(self):
        rng = np.random.default_rng(6)
        found = 0
        attempts = 0
        while found < 50 and attempts < 500:
            attempts += 1
            d = int(rng.integers(1, 3))
            a1, a2 = rng.uniform(0.6, 1.6, 2)
            kind1, kind2 = rng.choice(["heat", "ou"], 2)
            s1 = heat_spec(d, a1) if kind1 == "heat" else ou_spec(d, rng.uniform(0.3, 1.5), a1)
            s2 = heat_spec(d, a2) if kind2 == "heat" else ou_spec(d, rng.uniform(0.3, 1.5), a2)
            x1 = rng.standard_normal(d)
            x2 = rng.standard_normal(d)
            t1 = float(rng.uniform(0.2, 1.0))
            p = float(rng.uniform(1.5, 4.0))
            eps = float(rng.uniform(0.05, 0.5))
            rep = bridge_decomposition_experiment(s1, s2, x1, x2, t1, eps, p)
            if rep.verdict == "degenerate":
                continue
            found += 1
            assert rep.left <= rep.right + 1e-9
        assert found == 50

    def test_first_term_t1_scaling_recorded(self):
        rep = bridge_decomposition_experiment(
            heat_spec(1, 1.0), heat_spec(1, 1.3), [0.0], [0.5], 0.25
        )
        assert "t1_times_first_term" in rep.params


class TestLogHarnack:
    def test_coefficient_past_expm1_overflow(self):
        # at 2Kt above ~709.8 math.expm1 overflows; the coefficient K e^{-2Kt} / (2 (1 - e^{-2Kt})) is continued
        assert log_harnack_coefficient(400.0, 1.0) == 0.0
        below, above = log_harnack_coefficient(354.5, 1.0), log_harnack_coefficient(355.0, 1.0)
        assert above == pytest.approx(177.5 * math.exp(-710.0), rel=1e-9)
        assert below > above > 0.0
        rep = log_harnack_experiment(800.0, 0.5, [0.0], [1.0])
        assert rep.params["coefficient"] == 0.0 and rep.verdict == "holds"

    def test_coefficient_limit(self):
        t = 0.3
        assert log_harnack_coefficient(0.0, t) == pytest.approx(1 / (4 * t))
        for k in (1e-8, -1e-8):
            assert log_harnack_coefficient(k, t) == pytest.approx(1 / (4 * t), rel=1e-6)

    def test_constant_function_trivial(self):
        fam = {"const": lambda x: np.full(x.shape[:-1], 2.0)}
        rep = log_harnack_experiment(0.0, 0.5, [0.0], [1.0], fam)
        assert rep.left == pytest.approx(math.log(2.0), abs=1e-9)
        assert rep.right == pytest.approx(math.log(2.0) + 1 / 2.0, abs=1e-9)
        assert rep.verdict == "holds"

    def test_exp_linear_gap_closed_form(self):
        # heat flow, f = exp(v x): margin is |sqrt(t) v - (x-y)/(2 sqrt(t))|^2
        v, t, x, y = 0.8, 0.4, 0.3, -0.5
        fam = {"exp_lin": lambda p: np.exp(v * p[..., 0])}
        rep = log_harnack_experiment(0.0, t, [x], [y], fam)
        gap = (math.sqrt(t) * v - (x - y) / (2 * math.sqrt(t))) ** 2
        assert rep.margin == pytest.approx(gap, abs=1e-7)
        assert rep.verdict == "holds"

    def test_equal_points_is_jensen(self):
        rep = log_harnack_experiment(0.0, 0.5, [0.7], [0.7])
        assert rep.verdict == "holds"
        for row in rep.params["functions"]:
            assert row["left"] <= row["right"] + 1e-9

    def test_ou_exp_linear_equality_tightness(self):
        # for the contractive semigroup the exponential test function meets
        # the coefficient exactly when aligned
        k, t = 1.0, 0.4
        var = -math.expm1(-2 * k * t) / k
        x, y = 1.0, 0.0
        v = math.exp(-k * t) * (x - y) / var
        fam = {"aligned": lambda p: np.exp(v * p[..., 0])}
        rep = log_harnack_experiment(k, t, [x], [y], fam)
        assert rep.margin == pytest.approx(0.0, abs=1e-7)
        assert rep.verdict == "holds"

    def test_default_family_2d(self):
        rep = log_harnack_experiment(0.5, 0.3, [0.2, 0.0], [-0.4, 0.5])
        assert rep.verdict == "holds"

    def test_nonpositive_rejected(self):
        fam = {"linear": lambda p: p[..., 0]}
        with pytest.raises(ExperimentError, match="positive"):
            log_harnack_experiment(0.0, 0.5, [0.0], [1.0], fam)
        # positive near 0 but negative at the quadrature points around x
        fam = {"lin": lambda p: 1.0 + 0.01 * p[..., 0]}
        with pytest.raises(ExperimentError, match="positive"):
            log_harnack_experiment(0.0, 0.5, [-150.0], [0.0], fam)

    def test_empty_family_rejected(self):
        with pytest.raises(ExperimentError, match="no test functions"):
            log_harnack_experiment(0.0, 0.5, [0.0], [1.0], {})

    @pytest.mark.parametrize(
        "k_curv, t, name",
        [
            (0.0, math.nan, "t"),
            (0.5, math.inf, "t"),
            (0.0, math.inf, "t"),
            (0.0, -0.1, "t"),
            (0.0, 0.0, "t"),
            (math.nan, 0.5, "k_curv"),
            (math.inf, 0.5, "k_curv"),
            (-math.inf, 0.5, "k_curv"),
        ],
    )
    def test_non_finite_inputs_rejected(self, k_curv, t, name):
        # each entry names the bad argument before any quadrature point is built
        with pytest.raises(ExperimentError, match=f"finite {name}"):
            log_harnack_coefficient(k_curv, t)
        with pytest.raises(ExperimentError, match=f"finite {name}"):
            log_harnack_experiment(k_curv, t, [0.0], [1.0])


class TestMeanfieldEntropyCost:
    def test_identical_initials_degenerate_near_zero(self):
        field = mean_field_ou(1, 1.0, 0.5)
        nu = GaussianMeasure([0.0], [[0.5]])
        rep = meanfield_entropy_cost_experiment(field, nu, nu, [0.2, 0.4], 2000, 32, seed=7)
        assert rep.verdict == "degenerate"
        assert max(abs(e) for e in rep.params["entropy"]) < 0.1

    def test_distribution_free_field_matches_closed_form(self):
        # static OU wrapped as a measure-dependent field: the k-NN entropies of
        # the particle clouds track the Gaussian closed form within 0.1
        from entroflow import EmpiricalMeasure, MVCoefficientField
        from entroflow.catalog import ou_field

        field = MVCoefficientField.from_static(ou_field(1, 1.0, 0.5))
        nu1 = EmpiricalMeasure([[0.0]])
        nu2 = EmpiricalMeasure([[1.0]])
        t_grid = [0.25, 0.5]
        rep = meanfield_entropy_cost_experiment(field, nu1, nu2, t_grid, 10_000, 64, seed=9)
        for t, ent in zip(rep.params["t_grid"], rep.params["entropy"]):
            v_t = 0.5 * (1 - math.exp(-2 * t))
            closed = kl_gaussian(
                GaussianMeasure([0.0], [[v_t]]), GaussianMeasure([math.exp(-t)], [[v_t]])
            )
            assert abs(ent - closed) < 0.1

    def test_mean_field_ou_bounded_constant(self):
        # Dirac starts at 0 and m: the flow stays Gaussian with equal variances
        field = mean_field_ou(1, 1.0, 0.5)
        from entroflow import EmpiricalMeasure

        nu1 = EmpiricalMeasure([[0.0]])
        nu2 = EmpiricalMeasure([[1.0]])
        t_grid = [0.1, 0.25, 0.5]
        rep = meanfield_entropy_cost_experiment(field, nu1, nu2, t_grid, 4000, 64, seed=8)
        assert rep.verdict == "holds"
        # closed-form cross-check via the coupled mean/variance dynamics:
        # Ent = m^2 / (2 v_t), v_t = (1 - e^{-2t}) / 2
        for t, ent in zip(rep.params["t_grid"], rep.params["entropy"]):
            v_t = 0.5 * (1 - math.exp(-2 * t))
            assert abs(ent - 1.0 / (2 * v_t)) < 0.35 * (1.0 / (2 * v_t))
        assert rep.left < 1.5

    @pytest.mark.parametrize("grid", BAD_GRIDS + [[0.0, 0.5]], ids=BAD_GRID_IDS + ["zero"])
    def test_bad_grid_rejected(self, grid):
        # t = 0 would compare coincident point clouds (k-NN radii of 0 raise DivergenceError)
        field = mean_field_ou(1, 1.0, 0.5)
        with pytest.raises(ExperimentError, match="time grid"):
            meanfield_entropy_cost_experiment(
                field, EmpiricalMeasure([[0.0]]), EmpiricalMeasure([[1.0]]), grid, 200, 16
            )

    def test_unsorted_grid_gives_sorted_report(self):
        args = (mean_field_ou(1, 1.0, 0.5), EmpiricalMeasure([[0.0]]), EmpiricalMeasure([[1.0]]))
        rep = meanfield_entropy_cost_experiment(*args, [0.5, 0.1, 0.25], 200, 16, seed=3)
        assert rep.to_json() == meanfield_entropy_cost_experiment(*args, [0.1, 0.25, 0.5], 200, 16, seed=3).to_json()

    def test_inputs_checked_before_any_cloud(self, monkeypatch):
        def no_clouds(*args, **kwargs):
            raise AssertionError("a cloud was evolved")

        monkeypatch.setattr(inequalities, "evolve_particles", no_clouds)
        field = mean_field_ou(1, 1.0, 0.5)
        nu1, nu2 = EmpiricalMeasure([[0.0]]), EmpiricalMeasure([[1.0]])
        # each of the 4 batches needs k+1 particles for the k-NN estimate
        with pytest.raises(ExperimentError, match="n_particles >= 4"):
            meanfield_entropy_cost_experiment(field, nu1, nu2, [0.5], 23, 16, k=5)
        with pytest.raises(MeasureError):
            meanfield_entropy_cost_experiment(field, GaussianMeasure([0.0], [[1.0]]), nu2, [0.5], 200, 16)
        # unchecked, a fractional k reaches kl_knn only after both clouds are
        # evolved, and a fractional particle count is truncated in the report
        with pytest.raises(ExperimentError, match="integers >= 1"):
            meanfield_entropy_cost_experiment(field, nu1, nu2, [0.5], 200, 16, k=2.5)
        with pytest.raises(ExperimentError, match="integers >= 1"):
            meanfield_entropy_cost_experiment(field, nu1, nu2, [0.5], 200.5, 16)

    def test_smallest_particle_count_runs(self):
        field = mean_field_ou(1, 1.0, 0.5)
        rep = meanfield_entropy_cost_experiment(
            field, EmpiricalMeasure([[0.0]]), EmpiricalMeasure([[1.0]]), [0.5], 4 * (2 + 1), 16, k=2
        )
        assert len(rep.params["stderr"]) == 1
