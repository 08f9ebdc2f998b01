"""Interacting particle systems for measure-dependent SDEs.

The drift and diffusion may depend on the law of the solution; the law is
approximated by the empirical measure of an N-particle cloud, rebuilt every
step (no lagging) and passed to the coefficients as an immutable snapshot.
Particles carry independent counter-based noise substreams keyed by
(seed, particle index), so a field that ignores the measure argument
reproduces independent single-SDE paths bit for bit.

Clouds are stepped by the Euler loop of `dynamics` under its blow-up policy
for interacting ensembles: the first particle that turns non-finite halts
the cloud, because it corrupts the empirical measure every particle sees.
`evolve_particles` lists it in `PathEnsemble.aborted`;
`w2_stability_experiment` raises DynamicsError.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._rng import INIT, path_normals, substream
from .dynamics import DynamicsError, PathEnsemble, _batch_spd_sqrt, _central_div, _increments, _integrate, _step
from .measures import EmpiricalMeasure, GaussianMeasure, _gaussian_points
from .reports import ExperimentReport, classify
from .transport import gaussian_optimal_map, optimal_coupling_discrete, w2_exact

__all__ = [
    "MVCoefficientField",
    "evolve_particles",
    "flow_map",
    "w2_stability_experiment",
]


@dataclass(frozen=True)
class MVCoefficientField:
    """Measure-dependent drift b(t, x, mu) and diffusion a(t, x, mu).

    x is batched (n, d); mu is an EmpiricalMeasure snapshot.  `bound` plays
    the same role as on CoefficientField and additionally bounds the
    measure sensitivity: sup-norm changes of b, a and div a under a swap of
    measure argument are <= bound * W2(mu, nu).  That condition quantifies
    over all measure paths; validate() can only sample finitely many
    empirical pairs and is documented as a sampled check.
    """

    dim: int
    drift: Callable
    diffusion: Callable
    bound: float
    w2_lipschitz: float = None
    sigma_fn: Optional[Callable] = None
    div_a_fn: Optional[Callable] = None
    label: str = ""

    def __post_init__(self):
        if self.w2_lipschitz is None:
            object.__setattr__(self, "w2_lipschitz", self.bound)

    def sigma(self, t, x, mu):
        if self.sigma_fn is not None:
            return self.sigma_fn(t, x, mu)
        return _batch_spd_sqrt(2.0 * self.diffusion(t, x, mu))

    def div_a(self, t, x, mu):
        if self.div_a_fn is not None:
            return self.div_a_fn(t, x, mu)
        return _central_div(lambda t_, x_: self.diffusion(t_, x_, mu), t, x)

    @classmethod
    def from_static(cls, field, label=""):
        """Distribution-free wrapper around a CoefficientField.

        The wrapped callables ignore the measure argument and reuse the
        static field's evaluations unchanged, so particle ensembles match
        plain path ensembles bit for bit under matched seeds.
        """
        return cls(
            dim=field.dim,
            drift=lambda t, x, mu: field.drift(t, x),
            diffusion=lambda t, x, mu: field.diffusion(t, x),
            sigma_fn=lambda t, x, mu: field.sigma(t, x),
            div_a_fn=(lambda t, x, mu: field.div_a(t, x)) if field.div_a_fn else None,
            bound=field.bound,
            w2_lipschitz=0.0,
            label=label or field.label,
        )

    def validate(self, seed=0, n_pairs=16, tol=0.05, t_hi=1.0, x_scale=2.0):
        """Sampled check of the measure-Lipschitz bounds on random cloud pairs."""
        rng = np.random.default_rng(seed)
        kw2 = self.w2_lipschitz
        for _ in range(n_pairs):
            n = int(rng.integers(2, 8))
            mu = EmpiricalMeasure(rng.normal(size=(n, self.dim)))
            nu = EmpiricalMeasure(mu.points + rng.normal(scale=0.3, size=(n, self.dim)))
            w2 = w2_exact(mu, nu)
            if w2 < 1e-9:
                continue
            t = float(rng.uniform(0.0, t_hi))
            x = rng.normal(scale=x_scale, size=(8, self.dim))
            db = np.max(np.linalg.norm(self.drift(t, x, nu) - self.drift(t, x, mu), axis=1))
            da = np.max(np.abs(self.diffusion(t, x, nu) - self.diffusion(t, x, mu)))
            dd = np.max(np.linalg.norm(self.div_a(t, x, nu) - self.div_a(t, x, mu), axis=1))
            if max(db, da, dd) > kw2 * w2 * (1.0 + tol):
                raise DynamicsError("sampled measure-Lipschitz bound violated")
        return self


def _initial_cloud(init, n, seed, stream):
    rng = substream(seed, INIT, 0, stream)
    if isinstance(init, GaussianMeasure):
        return _gaussian_points(init, n, rng)
    if isinstance(init, EmpiricalMeasure):
        if init.n_points == n and init.is_uniform():
            return init.points.copy()
        idx = rng.choice(init.n_points, size=n, p=init.weights)
        return init.points[idx].copy()
    raise DynamicsError("init must be a GaussianMeasure or EmpiricalMeasure")


def _particle_paths(field, x0, times, seed, stream):
    """Paths and aborted particles of the cloud started at the rows of x0.

    Each step hands the coefficients the uniform empirical measure of the
    current cloud; the particle in row i draws the noise substream keyed
    (seed, stream, i).
    """
    if x0.shape[1] != field.dim:
        raise DynamicsError(f"initial cloud has dimension {x0.shape[1]}, the field has {field.dim}")

    def advance(t, h, x, dw):
        mu = EmpiricalMeasure(x)
        return _step(x, t, h, lambda s, y: field.drift(s, y, mu), lambda s, y: field.sigma(s, y, mu), dw)

    incs = _increments(times, path_normals(seed, x0.shape[0], times.size - 1, field.dim, stream))
    return _integrate(x0, times, advance, incs, interacting=True)


def evolve_particles(field, init, n_particles, times, seed, stream=0):
    """N-particle system with empirical-measure feedback.

    Each step rebuilds the uniform empirical measure of the current cloud and
    feeds it to the coefficients; particles then update in parallel with
    their own noise substreams.  N = 1 is accepted (degenerate
    self-interaction: the cloud's law is the particle's own position).  A
    blow-up halts the ensemble (see the module docstring).
    """
    if n_particles < 1:
        raise DynamicsError("need at least one particle")
    times = np.asarray(times, dtype=float)
    x = _initial_cloud(init, n_particles, seed, stream)
    paths, aborted = _particle_paths(field, x, times, seed, stream)
    return PathEnsemble(times=times, paths=paths, noise_mode="independent", seed=seed, aborted=aborted)


def flow_map(field, mu0, t, n_particles, n_steps, seed, stream=0):
    """Empirical approximation of the measure flow at time t from mu0."""
    if t < 0:
        raise DynamicsError("need t >= 0")
    if t == 0:
        return EmpiricalMeasure(_initial_cloud(mu0, n_particles, seed, stream))
    times = np.linspace(0.0, float(t), int(n_steps) + 1)
    ens = evolve_particles(field, mu0, n_particles, times, seed, stream)
    return ens.terminal_measure()


def _coupled_initial_clouds(nu1, nu2, n, seed):
    """N position pairs sampled from an optimal coupling of (nu1, nu2).

    The pair is two Gaussians or two empirical measures: w2_exact rejects
    any other pair before the clouds are drawn.
    """
    rng = substream(seed, INIT, 1)
    if isinstance(nu1, GaussianMeasure):
        x = _gaussian_points(nu1, n, rng)
        a, b = gaussian_optimal_map(nu1, nu2)
        return x, x @ a.T + b
    plan = optimal_coupling_discrete(nu1, nu2)
    flat = np.maximum(plan.matrix.ravel(), 0.0)
    flat /= flat.sum()
    idx = rng.choice(flat.size, size=n, p=flat)
    ii, jj = np.unravel_index(idx, plan.matrix.shape)
    return nu1.points[ii].copy(), nu2.points[jj].copy()


def _w2_cloud_ratio(p1, p2, idx, n_batches=8):
    """W2 between two clouds at a time slice, with a batch standard error."""
    a, b = p1[:, idx, :], p2[:, idx, :]
    full = w2_exact(EmpiricalMeasure(a), EmpiricalMeasure(b))
    n = a.shape[0]
    if n < 2 * n_batches:
        return full, 0.0
    cuts = np.array_split(np.arange(n), n_batches)
    vals = [w2_exact(EmpiricalMeasure(a[c]), EmpiricalMeasure(b[c])) for c in cuts]
    se = float(np.std(vals, ddof=1) / np.sqrt(n_batches))
    return full, se


def w2_stability_experiment(field, nu1, nu2, t_grid, n_particles, n_steps, seed, bound=None):
    """Transport-distance stability of the particle flow.

    Starts two clouds from an optimal coupling of (nu1, nu2), evolves them
    with shared per-particle noise, and reports the worst ratio
    W2(cloud1_t, cloud2_t) / W2(nu1, nu2) over the time grid.  With no
    reference bound the verdict is "holds" and the measured constant is
    recorded (rate-only check); a supplied bound is compared at 3 batch
    standard errors.  A particle blow-up in either cloud raises
    DynamicsError.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    t_end = float(t_grid.max())
    w0 = w2_exact(nu1, nu2)
    params = {"w2_initial": w0, "t_grid": t_grid.tolist()}
    if w0 < 1e-12:
        left = right = tol = 0.0
        verdict, notes = "degenerate", "initial measures coincide: Lipschitz ratio undefined"
    else:
        x1, x2 = _coupled_initial_clouds(nu1, nu2, n_particles, seed)
        times = np.linspace(0.0, t_end, int(n_steps) + 1)
        times = np.unique(np.concatenate([times, t_grid]))
        p1, aborted1 = _particle_paths(field, x1, times, seed, stream=0)
        p2, aborted2 = _particle_paths(field, x2, times, seed, stream=0)
        if aborted1 or aborted2:
            raise DynamicsError("particle blow-up during stability experiment")
        ratios, ses, rows = [], [], []
        for t in t_grid:
            idx = int(np.argmin(np.abs(times - t)))
            w, se = _w2_cloud_ratio(p1, p2, idx)
            ratios.append(w / w0)
            ses.append(se / w0)
            rows.append((float(t), w, w0))
        params.update(
            ratios=[float(r) for r in ratios],
            stderrs=[float(s) for s in ses],
            n_particles=int(n_particles),
            grid_rows=rows,
        )
        worst = int(np.argmax(ratios))
        left = float(ratios[worst])
        tol = 3.0 * float(ses[worst])
        if bound is None:
            right, verdict, notes = left, "holds", f"rate-only: measured Lipschitz constant {left:.6g}"
            tol = 0.0
        else:
            right = float(bound)
            verdict = classify(left, right, tol)
            notes = "ratio vs supplied bound at 3 batch standard errors"
    return ExperimentReport(
        name="w2_stability",
        params=params,
        left=left,
        right=right,
        tolerance=tol,
        verdict=verdict,
        notes=notes,
        seed=seed,
    )
