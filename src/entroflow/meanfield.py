"""Interacting particle systems for measure-dependent SDEs.

The drift and diffusion may depend on the law of the solution; the law is
approximated by the empirical measure of an N-particle cloud, rebuilt every
step (no lagging) and passed to the coefficients as an immutable snapshot.
A cloud draws its particles' noise in order from one counter-based stream
of (seed, stream), as a path ensemble does, so a field that ignores the
measure argument reproduces the single-SDE paths of the same seed bit for
bit.

Clouds are stepped by the Euler loop of `dynamics` under its blow-up policy
for interacting ensembles: the first particle that turns non-finite halts
the cloud, because it corrupts the empirical measure every particle sees.
`evolve_particles` lists it in `PathEnsemble.aborted`.  That loop draws a
cloud's noise once and returns the cloud as a PathEnsemble, and the
particle experiments read their clouds at grid times only through that
ensemble's slices, so a blown-up cloud has one outcome there: the slice's
BlowUpError.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._rng import CLOUD, COUPLED_CLOUDS, substream
from .dynamics import LIP_TOL, DynamicsError, _div_a, _integrate, _sigma, _step, refine_grid, time_grid
from .measures import EmpiricalMeasure, GaussianMeasure, _gaussian_points, _is_count, _is_positive
from .reports import ExperimentError, ExperimentReport
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

    x is batched (n, d); mu is an EmpiricalMeasure snapshot.  The one
    constant, `w2_lipschitz`, bounds the measure sensitivity: sup-norm
    changes of b, a and div a under a swap of measure argument are
    <= w2_lipschitz * W2(mu, nu).  That condition quantifies over all measure
    paths; validate() can only sample finitely many empirical pairs and is
    documented as a sampled check.  sigma and div a follow CoefficientField's rules.
    """

    dim: int
    drift: Callable
    diffusion: Callable
    w2_lipschitz: float
    sigma_fn: Optional[Callable] = None
    div_a_fn: Optional[Callable] = None
    label: str = ""

    def sigma(self, t, x, mu):
        return _sigma(self.sigma_fn, self.diffusion, t, x, mu)

    def div_a(self, t, x, mu):
        return _div_a(self.div_a_fn, self.diffusion, t, x, mu)

    @classmethod
    def from_static(cls, field):
        """Distribution-free wrapper around a CoefficientField.

        The wrapped callables ignore the measure argument and reuse the
        static field's evaluations, sigma and div a included, so particle
        ensembles match plain path ensembles bit for bit under matched seeds.
        """
        return cls(
            dim=field.dim,
            drift=lambda t, x, mu: field.drift(t, x),
            diffusion=lambda t, x, mu: field.diffusion(t, x),
            sigma_fn=lambda t, x, mu: field.sigma(t, x),
            div_a_fn=lambda t, x, mu: field.div_a(t, x),
            w2_lipschitz=0.0,
            label=field.label,
        )

    def validate(self, seed=0):
        """Sampled check of the w2_lipschitz bound on 16 random cloud pairs,
        at t uniform on [0, 1] and 8 points x ~ N(0, 4 I) each; a NaN fails it."""
        rng = np.random.default_rng(seed)
        kw2 = self.w2_lipschitz
        for _ in range(16):
            n = int(rng.integers(2, 8))
            mu = EmpiricalMeasure(rng.normal(size=(n, self.dim)))
            nu = EmpiricalMeasure(mu.points + rng.normal(scale=0.3, size=(n, self.dim)))
            w2 = w2_exact(mu, nu)
            if w2 < 1e-9:
                continue
            t = float(rng.uniform(0.0, 1.0))
            x = rng.normal(scale=2.0, size=(8, self.dim))
            db = np.max(np.linalg.norm(self.drift(t, x, nu) - self.drift(t, x, mu), axis=1))
            da = np.max(np.abs(self.diffusion(t, x, nu) - self.diffusion(t, x, mu)))
            dd = np.max(np.linalg.norm(self.div_a(t, x, nu) - self.div_a(t, x, mu), axis=1))
            if not np.max([db, da, dd]) <= kw2 * w2 * (1.0 + LIP_TOL):
                raise DynamicsError("sampled measure-Lipschitz bound violated")
        return self


def _initial_cloud(init, n, seed, stream):
    if not _is_count(n):
        raise DynamicsError(f"need at least one particle, as an integer, got {n!r}")
    rng = substream(seed, *CLOUD, stream)
    if isinstance(init, GaussianMeasure):
        return _gaussian_points(init, n, rng)
    if isinstance(init, EmpiricalMeasure):
        if init.n_points == n and init.is_uniform():
            return init.points.copy()
        idx = rng.choice(init.n_points, size=n, p=init.weights)
        return init.points[idx].copy()
    raise DynamicsError("init must be a GaussianMeasure or EmpiricalMeasure")


def _evolve_cloud(field, x0, times, seed, stream):
    """PathEnsemble of the cloud started at the rows of x0.

    Each step hands the coefficients the uniform empirical measure of the
    current cloud; the particles draw their noise in row order from the one
    stream of (seed, stream).
    """
    if x0.shape[1] != field.dim:
        raise DynamicsError(f"initial cloud has dimension {x0.shape[1]}, the field has {field.dim}")

    def advance(t, h, x, dw):
        mu = EmpiricalMeasure(x)
        return _step(x, h, field.drift(t, x, mu), field.sigma(t, x, mu), dw)

    return _integrate(x0, times, advance, seed, stream, field.dim, interacting=True)


def evolve_particles(field, init, n_particles, times, seed, stream=0):
    """N-particle system with empirical-measure feedback.

    Each step rebuilds the uniform empirical measure of the current cloud and
    feeds it to the coefficients; particles then update in parallel, their
    noise drawn in order from the one stream of (seed, stream).  N = 1 is
    accepted (degenerate self-interaction: the cloud's law is the particle's
    own position).  A blow-up halts the ensemble (see the module docstring).
    """
    return _evolve_cloud(field, _initial_cloud(init, n_particles, seed, stream), times, seed, stream)


def flow_map(field, mu0, t, n_particles, n_steps, seed):
    """Empirical approximation of the measure flow at time t from mu0, by
    n_steps >= 1 Euler steps of an n_particles cloud (the cloud itself at t = 0)."""
    if t < 0:
        raise DynamicsError("need t >= 0")
    if t == 0:
        if not _is_count(n_steps):
            raise DynamicsError(f"need an integer n_steps >= 1, got {n_steps!r}")
        return EmpiricalMeasure(_initial_cloud(mu0, n_particles, seed, 0))
    ens = evolve_particles(field, mu0, n_particles, time_grid(t, n_steps), seed)
    return ens.terminal_measure()


def _checked_grid(t_grid):
    """Sorted float copy of a flow experiment's time grid: nonempty, 1-D, finite, > 0."""
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not all(map(_is_positive, grid)):
        raise ExperimentError(f"time grid must be a nonempty 1-D array of finite times > 0, got {t_grid!r}")
    return np.sort(grid)


def _particle_times(t_grid, n_steps):
    """time_grid(max t_grid, n_steps) with every time of t_grid an exact node."""
    return refine_grid(time_grid(max(t_grid), n_steps), t_grid)


def _grid_stats(stat, ens1, ens2, t_grid, parts):
    """stat(cloud1_t, cloud2_t) at each grid time, with its batch standard error.

    parts are row selections applied to both clouds alike; the standard error
    is the spread of stat over them (ddof 1) over sqrt(len(parts)), and 0.0
    for fewer than two.  Returns the values and the standard errors as arrays.
    """
    vals, ses = [], []
    for t in t_grid:
        c1, c2 = ens1.slice_measure(t), ens2.slice_measure(t)
        vals.append(stat(c1, c2))
        batches = [stat(EmpiricalMeasure(c1.points[s]), EmpiricalMeasure(c2.points[s])) for s in parts]
        ses.append(float(np.std(batches, ddof=1) / np.sqrt(len(parts))) if len(parts) > 1 else 0.0)
    return np.asarray(vals), np.asarray(ses)


def _coupled_initial_clouds(nu1, nu2, n, seed):
    """N position pairs sampled from an optimal coupling of (nu1, nu2).

    The pair is two Gaussians or two empirical measures: w2_exact rejects
    any other pair before the clouds are drawn.
    """
    rng = substream(seed, *COUPLED_CLOUDS)
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


def w2_stability_experiment(field, nu1, nu2, t_grid, n_particles, n_steps, seed, bound=None):
    """Transport-distance stability of the particle flow.

    Starts two clouds from an optimal coupling of (nu1, nu2), evolves them
    with shared per-particle noise, and reports the worst ratio
    W2(cloud1_t, cloud2_t) / W2(nu1, nu2) over the time grid.  With no
    reference bound the verdict is "holds" and the measured constant is
    recorded (rate-only check); a supplied bound is compared at 3 batch
    standard errors over 8 contiguous blocks of pairs (none below 16 pairs).
    A bad grid (see _checked_grid) or n_particles raises ExperimentError,
    and a particle blow-up in either cloud the BlowUpError of its slice.
    """
    t_grid = _checked_grid(t_grid)
    if not _is_count(n_particles):
        raise ExperimentError(f"n_particles must be an integer >= 1, got {n_particles!r}")
    w0 = w2_exact(nu1, nu2)
    params = {"w2_initial": w0, "t_grid": t_grid.tolist()}
    if w0 < 1e-12:
        left = right = tol = 0.0
        verdict, notes = "degenerate", "initial measures coincide: Lipschitz ratio undefined"
    else:
        times = _particle_times(t_grid, n_steps)
        x1, x2 = _coupled_initial_clouds(nu1, nu2, n_particles, seed)
        ens1 = _evolve_cloud(field, x1, times, seed, stream=0)
        ens2 = _evolve_cloud(field, x2, times, seed, stream=0)
        parts = np.array_split(np.arange(n_particles), 8) if n_particles >= 16 else []
        ws, ses = _grid_stats(w2_exact, ens1, ens2, t_grid, parts)
        ratios, ses = ws / w0, ses / w0
        params.update(
            ratios=ratios.tolist(),
            stderrs=ses.tolist(),
            n_particles=int(n_particles),
            grid_rows=[(float(t), float(w), w0) for t, w in zip(t_grid, ws)],
        )
        worst = int(np.argmax(ratios))
        left = float(ratios[worst])
        verdict = None
        if bound is None:
            right, tol, notes = left, 0.0, f"rate-only: measured Lipschitz constant {left:.6g}"
        else:
            right, tol = float(bound), 3.0 * float(ses[worst])
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
