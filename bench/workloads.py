"""The four benchmark workloads, built from a seed through entroflow's public API.

`build(name, seed, workdir)` makes every input of a workload and returns a
`Workload`: a list of tasks run one after another (a closed loop) plus a
determinism probe.  Each task is a `run` callable and a `check` on its
output; the harness times `run` and calls `check` outside the timed
interval.  Library entry points are looked up on their modules at call
time (`ef.euler_maruyama`, `catalog.heat_field`, ...) so the traced run
can wrap them.

Why each workload exists, and which layer each one should move, is in
bench/README.md.
"""

import configparser
import contextlib
import dataclasses
import functools
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linear_sum_assignment, linprog

import entroflow as ef
from entroflow import catalog, cli

#: acceptance tolerance (tests/test_acceptance.py) for closed forms
CLOSED_FORM_RTOL = 1e-9
#: Monte Carlo tolerance in standard errors.  The acceptance tests use 3 at
#: one fixed seed; a run here makes 14 such checks at a seed of its own, and
#: at 3 SE about 1 seed in 140 fails on correct code (Gaussian tail plus the
#: slacks below).  At 4 SE it is about 1 in 8,700.
MC_SIGMAS = 4.0


class CheckFailed(AssertionError):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Task:
    name: str
    run: Callable
    check: Callable


@dataclass
class Workload:
    tasks: list
    #: returns report JSON with the timestamp removed; called twice per run
    determinism: Callable


def report_json(report):
    """Serialise a report the way a user keeps it (timed with the task)."""
    return report, report.to_json()


def _without_timestamp(text):
    d = json.loads(text)
    d.pop("timestamp", None)
    return json.dumps(d, sort_keys=True)


def _check_moments(points, mean, cov, n_eff, label, mean_slack, var_slack, mean_var=None):
    """Sample mean and variance per coordinate within MC_SIGMAS standard errors.

    The additive slacks are the Euler-discretisation allowances of
    acceptance criterion 8.  mean_var overrides the variance of one draw
    behind the sample mean (interacting particles have a noisier mean).
    """
    got_m = points.mean(axis=0)
    got_v = points.var(axis=0, ddof=1)
    for i in range(points.shape[1]):
        var = cov[i, i]
        se_m = math.sqrt((var if mean_var is None else mean_var[i]) / n_eff)
        se_v = math.sqrt(2.0 * var * var / n_eff)
        expect(
            abs(got_m[i] - mean[i]) < MC_SIGMAS * se_m + mean_slack,
            f"{label}: mean[{i}] {got_m[i]:.5g} vs {mean[i]:.5g} (se {se_m:.2g})",
        )
        expect(
            abs(got_v[i] - var) < MC_SIGMAS * se_v + var_slack,
            f"{label}: var[{i}] {got_v[i]:.5g} vs {var:.5g} (se {se_v:.2g})",
        )


def _close(got, want, label, rtol=CLOSED_FORM_RTOL):
    expect(
        abs(got - want) <= rtol * max(1.0, abs(want)),
        f"{label}: {got!r} vs closed form {want!r}",
    )


# --------------------------------------------------------------------------
# sde-montecarlo: Euler-Maruyama ensembles against closed-form laws


def _sde_montecarlo(seed, workdir):
    rng = np.random.default_rng(seed)
    t = 0.5
    grid = ef.time_grid(t, 128)
    x_heat = rng.uniform(-1.0, 1.0, 2)
    x_ou = rng.uniform(-1.0, 1.0, 2)
    x_bridge = rng.uniform(0.5, 1.5, 1)
    x1_pair = rng.uniform(-1.0, 1.0, 2)
    x2_pair = x1_pair + rng.uniform(0.2, 1.0, 2)
    mf_mean = rng.uniform(-1.0, 1.0, 2)
    heat2 = catalog.heat_field(2, 1.0)
    ou2 = catalog.ou_field(2, 1.0, 0.5)
    n_paths, n_pairs, n_particles = 10_000, 2_000, 20_000

    def em(field, spec, x0, sub):
        law = ef.linear_sde_law(spec, t)

        def run():
            return ef.euler_maruyama(field, x0, grid, seed=seed + sub, n_paths=n_paths)

        def check(ens):
            expect(not ens.aborted, f"{field.label}: paths aborted")
            _check_moments(ens.terminal_points(), law.mean, law.cov, n_paths, field.label, 3e-3, 6e-3)

        return run, check

    heat_run, heat_check = em(heat2, catalog.heat_spec(2, 1.0, x0=x_heat), x_heat, 1)
    ou_run, ou_check = em(ou2, catalog.ou_spec(2, 1.0, 0.5, x0=x_ou), x_ou, 2)

    t1, eps = 1.0, 0.5
    bridge = ef.BridgeSpec(
        catalog.ou_field(1, 1.0, 0.5, horizon=t1), catalog.heat_field(1, 1.0, horizon=t1), t1=t1, epsilon=eps
    )
    bridge_law = ef.bridge_law_linear(
        catalog.ou_spec(1, 1.0, 0.5, horizon=t1), catalog.heat_spec(1, 1.0, horizon=t1), x_bridge, eps * t1, t1
    )

    def bridge_run():
        return ef.bridge_path(bridge, x_bridge, ef.time_grid(t1, 128), seed=seed + 3, n_paths=n_paths)

    def bridge_check(ens):
        expect(not ens.aborted, "bridge: paths aborted")
        _check_moments(ens.terminal_points(), bridge_law.mean, bridge_law.cov, n_paths, "bridge", 3e-3, 8e-3)

    d0 = float(np.linalg.norm(x1_pair - x2_pair))

    def pair_run():
        return ef.synchronous_pair(heat2, heat2, x1_pair, x2_pair, ef.time_grid(1.0, 256), seed=seed + 4, n_pairs=n_pairs)

    def pair_check(pair):
        # bit-constant in time; the start is compared to d0 only to rounding,
        # because norm() of a vector and norm(axis=1) of a stack use different
        # reductions and can differ in the last bit
        sep = pair.separation
        expect(bool(np.all(sep == sep[:, :1])), "synchronous heat/heat separation not bit-constant")
        _close(float(sep[0, 0]), d0, "synchronous heat/heat initial separation")

    # mean-field OU keeps the cloud mean, so the limit law is the OU law
    # around it; the cloud mean itself carries the initial and the averaged
    # Brownian noise, variance (C0 + 2 a t) / N per coordinate
    rate, a_mf, c0 = 1.0, 0.5, 0.5
    mf_field = catalog.mean_field_ou(2, rate, a_mf)
    mf_init = ef.GaussianMeasure(mf_mean, c0 * np.eye(2))
    mf_law = ef.linear_sde_law(
        ef.LinearSDESpec.from_gaussian(mf_init, -rate * np.eye(2), rate * mf_mean, math.sqrt(2 * a_mf) * np.eye(2)), t
    )
    mf_times = ef.time_grid(t, 100)

    def mf_run():
        return ef.evolve_particles(mf_field, mf_init, n_particles, mf_times, seed=seed + 5)

    def mf_check(ens):
        expect(not ens.aborted, "evolve_particles: ensemble aborted")
        mean_var = np.full(2, c0 + 2.0 * a_mf * t)
        _check_moments(ens.terminal_points(), mf_law.mean, mf_law.cov, n_particles, "mean-field-ou", 3e-3, 6e-3, mean_var)

    nu1 = ef.GaussianMeasure([0.0, 0.0], 0.5 * np.eye(2))
    nu2 = ef.GaussianMeasure([1.0, 0.0], 0.5 * np.eye(2))

    def mfec_run():
        return report_json(
            ef.meanfield_entropy_cost_experiment(mf_field, nu1, nu2, [0.1, 0.25, 0.5], 10_000, 64, seed=seed + 6, k=5)
        )

    def mfec_check(out):
        rep, text = out
        expect(rep.verdict == "holds", f"meanfield_entropy_cost verdict {rep.verdict}: {rep.notes}")
        expect(math.isfinite(rep.left) and rep.left > 0, "meanfield_entropy_cost constant not positive")
        ef.validate_report_dict(json.loads(text))

    def determinism():
        rep = ef.meanfield_entropy_cost_experiment(mf_field, nu1, nu2, [0.1, 0.5], 2_000, 32, seed=seed + 6, k=5)
        return _without_timestamp(rep.to_json())

    tasks = [
        Task("euler_maruyama.heat", heat_run, heat_check),
        Task("euler_maruyama.ou", ou_run, ou_check),
        Task("bridge_path.ou-heat", bridge_run, bridge_check),
        Task("synchronous_pair.heat", pair_run, pair_check),
        Task("evolve_particles.mean-field-ou", mf_run, mf_check),
        Task("meanfield_entropy_cost", mfec_run, mfec_check),
    ]
    return tasks, determinism


# --------------------------------------------------------------------------
# oracle-quadrature: closed-form machinery with time-dependent coefficients


def _rate(t):
    return 1.0 + 0.5 * math.sin(2.0 * math.pi * t)


def _td_ou_law(x0, c, a, t):
    """Law at t of dX = (-r(t) X + c) dt + sqrt(2a) dW from a point, by quadrature.

    With R(t) = int_0^t r, the mean is e^{-R(t)} (x0 + c int_0^t e^{R(s)} ds)
    and the variance 2a int_0^t e^{-2(R(t) - R(s))} ds: an oracle for the RK4
    moment propagation that shares none of its code.
    """

    def big_r(s):
        return s + 0.25 * (1.0 - math.cos(2.0 * math.pi * s)) / math.pi

    rt = big_r(t)
    opts = {"epsabs": 1e-14, "epsrel": 1e-13, "limit": 200}
    mean = math.exp(-rt) * (x0 + c * quad(lambda s: math.exp(big_r(s)), 0.0, t, **opts)[0])
    var = 2.0 * a * quad(lambda s: math.exp(-2.0 * (rt - big_r(s))), 0.0, t, **opts)[0]
    return mean, var


def _kl_1d(m1, v1, m2, v2):
    return 0.5 * (v1 / v2 + (m2 - m1) ** 2 / v2 - 1.0 + math.log(v2 / v1))


def _oracle_quadrature(seed, workdir):
    rng = np.random.default_rng(seed)
    t, a, c = 0.5, 0.5, 1.0
    x0 = float(rng.uniform(-0.5, 0.5))
    x2 = x0 + float(rng.uniform(0.5, 1.5))
    noise = math.sqrt(2.0 * a) * np.eye(1)

    def td_matrix(s):
        return -_rate(s) * np.eye(1)

    def td_spec(start, offset):
        return ef.LinearSDESpec.from_point([start], td_matrix, np.full(1, offset), noise, horizon=t)

    spec_plain, spec_drift = td_spec(x0, 0.0), td_spec(x0, c)
    ou = catalog.ou_field(1, 1.0, a, horizon=t)
    field_plain = dataclasses.replace(ou, drift_lipschitz=lambda s, x: -_rate(s) * x, label="td-ou")
    field_drift = dataclasses.replace(ou, drift_lipschitz=lambda s, x: -_rate(s) * x + c, label="td-ou+drift")
    heat_a1 = catalog.heat_spec(1, 1.0, x0=[x0], horizon=t)
    heat_a2 = catalog.heat_spec(1, 2.0, x0=[x0], horizon=t)

    m_p, v_p = _td_ou_law(x0, 0.0, a, t)
    m_d, v_d = _td_ou_law(x0, c, a, t)
    td_entropy = _kl_1d(m_p, v_p, m_d, v_d)
    # equal diffusions: Phi = b2 - b1 = c exactly, so the bound is c^2 t / (2a)
    td_bound = c * c * t / (2.0 * a)

    def mismatch_run():
        true_td = ef.kl_gaussian(ef.linear_sde_law(spec_plain, t), ef.linear_sde_law(spec_drift, t))
        true_gap = ef.kl_gaussian(ef.linear_sde_law(heat_a1, t), ef.linear_sde_law(heat_a2, t))
        cases = [
            ef.MismatchCase(field_plain, field_drift, lambda s: ef.linear_sde_law(spec_plain, s), true_td, "td-drift-gap"),
            ef.MismatchCase(
                catalog.heat_field(1, 1.0, horizon=t),
                catalog.heat_field(1, 2.0, horizon=t),
                lambda s: ef.linear_sde_law(heat_a1, s),
                true_gap,
                "diffusion-gap",
            ),
        ]
        return report_json(ef.mismatch_singularity_experiment(cases, t, n_mc=500, seed=seed, n_nodes=16))

    def mismatch_check(out):
        rep, _ = out
        td, gap = rep.params["cases"]
        _close(td["true_entropy"], td_entropy, "td-drift-gap true entropy")
        expect(not td["diverged"], "td-drift-gap bound flagged divergent")
        expect(abs(td["bound"] - td_bound) <= 1e-6 * td_bound, f"td-drift-gap bound {td['bound']} vs {td_bound}")
        expect(td["true_entropy"] <= td["bound"], "td-drift-gap bound below the true entropy")
        expect(gap["diverged"] and math.isinf(gap["bound"]), "diffusion-gap bound not flagged divergent")
        expect(rep.verdict == "divergent", f"mismatch verdict {rep.verdict}")

    t_grid = np.geomspace(0.01, t, 12)

    def entropy_cost_run():
        return report_json(ef.entropy_cost_experiment(spec_plain, spec_plain, [x0], [x2], t_grid))

    def entropy_cost_check(out):
        rep, _ = out
        expect(rep.verdict == "holds", f"entropy_cost verdict {rep.verdict}")
        for s, ent in zip(rep.params["t_grid"], rep.params["entropy"]):
            m1, v1 = _td_ou_law(x0, 0.0, a, s)
            m2, v2 = _td_ou_law(x2, 0.0, a, s)
            _close(ent, _kl_1d(m1, v1, m2, v2), f"entropy_cost Ent at t={s:.4g}")

    def bridge_run():
        return report_json(ef.bridge_decomposition_experiment(spec_plain, spec_drift, [x0], [x0], t, 0.5, 2.0))

    def bridge_check(out):
        rep, _ = out
        expect(rep.verdict == "holds", f"bridge_decomposition verdict {rep.verdict}")
        _close(rep.left, td_entropy, "bridge_decomposition Ent(P1|P2)")

    def sweep_run():
        return ef.bridge_epsilon_sweep(spec_plain, spec_drift, [x0], t)

    def sweep_check(rows):
        firsts = [first for _, first in rows]
        expect(all(math.isfinite(f) and f >= 0 for f in firsts), "sweep first term not finite")
        expect(all(b < a_ for a_, b in zip(firsts, firsts[1:])), f"sweep first term not decreasing: {firsts}")

    def determinism():
        return _without_timestamp(bridge_run()[1])

    tasks = [
        Task("mismatch_singularity.td+gap", mismatch_run, mismatch_check),
        Task("entropy_cost.td", entropy_cost_run, entropy_cost_check),
        Task("bridge_decomposition.td", bridge_run, bridge_check),
        Task("bridge_epsilon_sweep.td", sweep_run, sweep_check),
    ]
    return tasks, determinism


# --------------------------------------------------------------------------
# transport-ot: discrete optimal transport


def _transport_ot(seed, workdir):
    rng = np.random.default_rng(seed)

    def cloud(n, d=2):
        return ef.EmpiricalMeasure(rng.uniform(size=(n, d)))

    tasks = []

    def exact_task(name, mu, nu, rtol):
        # reference W2^2, solved once, at the first check, outside set-up
        want = functools.cache(lambda: _exact_w2_squared(mu, nu))

        def run():
            return ef.w2_empirical_ot(mu, nu, method="exact")

        def check(out):
            dist, plan = out
            plan.validate()
            _close(dist * dist, want(), f"{name}: W2^2", rtol)

        tasks.append(Task(name, run, check))

    exact_task("assignment.n1000", cloud(1000), cloud(1000), CLOSED_FORM_RTOL)
    exact_task("assignment.n1500", cloud(1500), cloud(1500), CLOSED_FORM_RTOL)
    lp_mu = ef.EmpiricalMeasure(rng.uniform(size=(80, 2)), rng.dirichlet(np.ones(80)))
    lp_nu = ef.EmpiricalMeasure(rng.uniform(size=(60, 2)) + [0.5, 0.0], rng.dirichlet(np.ones(60)))
    exact_task("linprog.80x60", lp_mu, lp_nu, LP_RTOL)

    line_mu, line_nu = cloud(800, 1), ef.EmpiricalMeasure(rng.normal(0.5, 0.3, size=(800, 1)))

    def line_run():
        return ef.w2_empirical_ot(line_mu, line_nu, method="exact")

    def line_check(out):
        dist, plan = out
        plan.validate()
        want = ef.w2_empirical_1d(line_mu, line_nu)
        expect(abs(dist - want) <= 1e-6, f"d=1 exact OT {dist!r} vs quantile {want!r}")

    tasks.append(Task("exact-vs-quantile.d1.n800", line_run, line_check))

    # entropic ladder on uniform clouds: smaller epsilon, more iterations.
    # The iteration count depends on the sample, so the last rung averages
    # several independent cloud pairs, each its own task.
    for n, eps, reps in SINKHORN_LADDER:
        for k in range(reps):
            mu, nu = cloud(n), cloud(n)
            exact = functools.cache(lambda mu=mu, nu=nu: _exact_w2_squared(mu, nu))

            def sk_run(mu=mu, nu=nu, eps=eps):
                return ef.w2_empirical_ot(mu, nu, method="entropic", epsilon=eps)

            def sk_check(out, eps=eps, n=n, exact=exact):
                _, plan = out
                label = f"sinkhorn n={n} eps={eps}"
                violation = plan.marginal_violation()
                expect(violation < SINKHORN_MARGINAL_TOL, f"{label}: marginal violation {violation:.2e}")
                # any coupling costs at least W2^2; the entropic one at most
                # eps * log(n) more (its KL to the product is at most log n)
                want = exact()
                expect(want - 1e-9 <= plan.cost <= want + eps * math.log(n), f"{label}: cost {plan.cost!r} vs W2^2 {want!r}")
                expect(
                    abs(plan.debiased_cost - want) <= DEBIASED_BAND,
                    f"{label}: debiased cost {plan.debiased_cost!r} vs W2^2 {want!r}",
                )

            tasks.append(Task(f"sinkhorn.n{n}.eps{eps}.{k}", sk_run, sk_check))

    # acceptance criterion 9 in d=1: a contractive distribution-free drift
    # against W2 ratio 1, and the interacting mean-field OU against its
    # Gronwall bound exp((K_x + K_mu) t) with K_x = K_mu = rate, plus 20%
    t_grid = [0.1, 0.25, 0.5]
    contractive = ef.MVCoefficientField.from_static(catalog.ou_field(1, 1.0, 0.5))
    interacting = catalog.mean_field_ou(1, 1.0, 0.5)
    # (field, nu1, nu2, W2(nu1, nu2), bound)
    stability_cases = [
        (contractive, ef.GaussianMeasure([0.0], [[0.25]]), ef.GaussianMeasure([2.0], [[0.25]]), 2.0, 1.0),
        (interacting, ef.EmpiricalMeasure([[0.0]]), ef.EmpiricalMeasure([[1.5]]), 1.5, 1.2 * math.exp(2.0 * t_grid[-1])),
    ]

    def stability_run():
        return [
            report_json(ef.w2_stability_experiment(field, nu1, nu2, t_grid, 1024, 64, seed=seed + i, bound=bound))
            for i, (field, nu1, nu2, _, bound) in enumerate(stability_cases)
        ]

    def stability_check(outs):
        for (rep, _), case in zip(outs, stability_cases):
            expect(rep.verdict == "holds", f"w2_stability verdict {rep.verdict}: {rep.notes}")
            _close(rep.params["w2_initial"], case[3], "w2_stability initial W2")

    tasks.append(Task("w2_stability.d1", stability_run, stability_check))

    def determinism():
        return _without_timestamp(stability_run()[1][1])

    return tasks, determinism


#: (cloud size, epsilon, independent cloud pairs) per entropic rung
SINKHORN_LADDER = ((450, 0.1, 1), (300, 0.05, 1), (150, 0.02, 12))
#: the marginal error an entropic plan must reach (the solver's default
#: stopping tolerance when the benchmark was written)
SINKHORN_MARGINAL_TOL = 1e-7
#: |debiased cost - W2^2| on the ladder's clouds: at most 2.2e-3 was seen
#: over the 224 cloud pairs of seeds 0-15; without debiasing it is 0.014
#: or more
DEBIASED_BAND = 5e-3
#: HiGHS solves to a feasibility tolerance of 1e-7, so two LP formulations
#: of the same problem agree only to about that
LP_RTOL = 1e-7


def _exact_w2_squared(mu, nu):
    """W2^2 between two clouds, solved here without entroflow's solver."""
    cost = ((mu.points[:, None, :] - nu.points[None, :, :]) ** 2).sum(axis=-1)
    n, m = cost.shape
    if n == m and np.all(mu.weights == mu.weights[0]) and np.all(nu.weights == nu.weights[0]):
        rows, cols = linear_sum_assignment(cost)
        return float(cost[rows, cols].mean())
    # transport polytope with every row and column constraint
    a_eq = np.vstack([np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([mu.weights, nu.weights]), method="highs")
    if not res.success:
        raise CheckFailed(f"reference LP failed: {res.message}")
    return float(res.fun)


# --------------------------------------------------------------------------
# cli-sweep: the six CLI experiments at default parameters


CLI_EXPERIMENTS = (
    "talagrand",
    "entropy_cost",
    "mismatch_singularity",
    "bridge_decomposition",
    "log_harnack",
    "meanfield_entropy_cost",
)
CLI_SEEDS = 8
#: verdict each default-parameter config must reach
CLI_VERDICTS = {
    "talagrand": "holds",
    "entropy_cost": "holds",
    "mismatch_singularity.drift-gap": "holds",
    "mismatch_singularity.diffusion-gap": "divergent",
    "bridge_decomposition": "holds",
    "log_harnack": "holds",
    "meanfield_entropy_cost": "holds",
}


def _cli_sweep(seed, workdir):
    config_dir = os.path.join(workdir, "configs")
    out_root = os.path.join(workdir, "out")
    os.makedirs(config_dir, exist_ok=True)
    configs = []
    for i in range(CLI_SEEDS):
        for name in CLI_EXPERIMENTS:
            cfg = configparser.ConfigParser()
            cfg["run"] = {"experiment": name, "seed": str(seed + i), "out": f"{name}_{i}", "formats": "json,csv"}
            key = name
            if name == "mismatch_singularity":
                pair = "drift-gap" if i % 2 == 0 else "diffusion-gap"
                cfg["params"] = {"pair": pair}
                key = f"{name}.{pair}"
            path = os.path.join(config_dir, f"{name}_{i}.ini")
            with open(path, "w") as fh:
                cfg.write(fh)
            configs.append((path, os.path.join(out_root, f"{name}_{i}"), name, key))

    def invoke(paths, jobs):
        os.environ[cli.ENV_OUT_ROOT] = out_root
        argv = ["run", *paths] + (["--jobs", str(jobs)] if jobs > 1 else [])
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def seed_task(i):
        batch = configs[i * len(CLI_EXPERIMENTS) : (i + 1) * len(CLI_EXPERIMENTS)]

        def run():
            return invoke([c[0] for c in batch], 2)

        def check(code):
            expect(code == 0, f"entroflow run exited {code}")
            for _, out_dir, name, key in batch:
                with open(os.path.join(out_dir, f"{name}_report.json")) as fh:
                    rep = json.load(fh)
                ef.validate_report_dict(rep)
                expect(rep["verdict"] == CLI_VERDICTS[key], f"{out_dir}: verdict {rep['verdict']}")
                with open(os.path.join(out_dir, f"{name}_plot.csv")) as fh:
                    rows = fh.read().splitlines()
                expect(len(rows) >= 2, f"{out_dir}: empty plot CSV")

        return Task(f"cli.run.seed{i}.jobs2", run, check)

    probe = configs[CLI_EXPERIMENTS.index("mismatch_singularity")]

    def determinism():
        code = invoke([probe[0]], 1)
        expect(code == 0, f"entroflow run exited {code}")
        with open(os.path.join(probe[1], "mismatch_singularity_report.json")) as fh:
            return _without_timestamp(fh.read())

    return [seed_task(i) for i in range(CLI_SEEDS)], determinism


_BUILDERS = {
    "sde-montecarlo": _sde_montecarlo,
    "oracle-quadrature": _oracle_quadrature,
    "transport-ot": _transport_ot,
    "cli-sweep": _cli_sweep,
}


def build(name, seed, workdir):
    """All inputs of workload `name` for `seed`; files go under workdir."""
    tasks, determinism = _BUILDERS[name](seed, workdir)
    return Workload(tasks, determinism)
