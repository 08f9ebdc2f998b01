"""Time-dependent SDE integration and couplings.

Coefficient fields follow the generator convention

    L = tr(a(t,x) grad^2) + b(t,x) . grad,   sigma = sqrt(2 a),

so the driftless a = I field is Brownian motion with Var X_t = 2t.  The drift
splits into a bounded Dini-continuous part and a Lipschitz part; sampled
invariant checks live on the field object because user fields are black
boxes.

Everything, the interacting particle systems of `meanfield` included, is
integrated by Euler-Maruyama in one time loop, `_integrate`, with one
counter-based noise substream per path.  All weak-error checks in the
package are satisfied by Euler-Maruyama, so no higher-order scheme is
carried.

Blow-up policy: a path whose state turns non-finite is listed in
`PathEnsemble.aborted` and is NaN from that node on; the other paths
continue.  An interacting ensemble halts at its first blow-up, all particles
NaN from that node on, because a non-finite particle corrupts the empirical
measure every particle sees.  Slices of an ensemble with aborted paths raise
BlowUpError.
"""

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from ._rng import path_normals
from .measures import EmpiricalMeasure
from .reports import ExperimentReport, classify

__all__ = [
    "DiniModulus",
    "CoefficientField",
    "BridgeSpec",
    "PathEnsemble",
    "CoupledPair",
    "SemimartingaleWitness",
    "BlowUpError",
    "time_grid",
    "euler_maruyama",
    "synchronous_pair",
    "bridge_path",
    "exp_moment_certificate",
]


class DynamicsError(ValueError):
    pass


class BlowUpError(DynamicsError):
    """A trajectory left the finite range; halve the step or fix the field."""


# --------------------------------------------------------------------------
# coefficient data


@dataclass(frozen=True)
class DiniModulus:
    """Concave increasing modulus phi with phi(0)=0 and integrable phi(s)/s."""

    fn: Callable
    tag: str = ""

    def __call__(self, r):
        return self.fn(r)

    def validate(self, grid_hi=2.0, n_grid=64):
        grid = np.linspace(0.0, grid_hi, n_grid)
        vals = np.asarray([float(self.fn(r)) for r in grid])
        if abs(vals[0]) > 1e-12:
            raise DynamicsError("modulus must vanish at 0")
        if np.any(np.diff(vals) < -1e-12):
            raise DynamicsError("modulus must be nondecreasing")
        mid = np.asarray([float(self.fn(0.5 * (a + b))) for a, b in zip(grid[:-1], grid[1:])])
        if np.any(mid < 0.5 * (vals[:-1] + vals[1:]) - 1e-9):
            raise DynamicsError("modulus must be midpoint-concave")
        # integral of phi(s)/s over (0,1]: quadrature piecewise toward 0 and a
        # vanishing-tail test (the last refinement increment must die out,
        # which a log-type divergence never does)
        edges = 10.0 ** -np.arange(0.0, 31.0, 3.0)
        increments = [
            quad(lambda s: self.fn(s) / s, lo, hi, limit=200)[0]
            for hi, lo in zip(edges[:-1], edges[1:])
        ]
        total = float(np.sum(increments))
        if not np.isfinite(total) or increments[-1] > 1e-3 * max(1.0, total):
            raise DynamicsError("integral of phi(s)/s over (0,1] diverges")
        return self

    @classmethod
    def power(cls, alpha):
        if not 0 < alpha <= 1:
            raise DynamicsError("power modulus needs alpha in (0,1]")
        return cls(lambda r: np.asarray(r, dtype=float) ** alpha, tag=f"power({alpha})").validate()

    @classmethod
    def log_type(cls):
        def fn(r):
            r = np.asarray(r, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(r > 0, r * np.log1p(1.0 / np.maximum(r, 1e-300)), 0.0)
            return out

        return cls(fn, tag="log").validate()


def _batch_spd_sqrt(mats):
    w, v = np.linalg.eigh(mats)
    if np.any(w <= 0):
        raise DynamicsError("diffusion matrix not SPD at a sampled point")
    return np.einsum("nij,nj,nkj->nik", v, np.sqrt(w), v)


@dataclass(frozen=True)
class CoefficientField:
    """Drift b = b0 + b1 and diffusion a on [0,T] x R^d, vectorized over x.

    Callables take (t, x) with x of shape (n, d); drift parts return (n, d)
    and the diffusion returns (n, d, d) SPD.  `bound` is the shared
    regularity constant: |b0| <= bound, operator norms of a and a^-1 and the
    Lipschitz quotients of b1 and a are all <= bound.  `sigma_fn` may supply
    sqrt(2a) analytically; otherwise it is computed by eigendecomposition.
    `div_a_fn(t, x) -> (n, d)` may supply the row divergence of a.
    """

    dim: int
    drift_dini: Callable
    drift_lipschitz: Callable
    diffusion: Callable
    bound: float
    modulus: DiniModulus
    horizon: float = 1.0
    sigma_fn: Optional[Callable] = None
    div_a_fn: Optional[Callable] = None
    label: str = ""

    def drift(self, t, x):
        return self.drift_dini(t, x) + self.drift_lipschitz(t, x)

    def sigma(self, t, x):
        if self.sigma_fn is not None:
            return self.sigma_fn(t, x)
        return _batch_spd_sqrt(2.0 * self.diffusion(t, x))

    def validate(self, seed=0, x_scale=2.0, n_samples=32, lip_tol=0.05):
        """Sampled invariant checks on a randomized (t, x) grid."""
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.0, self.horizon, n_samples)
        x = rng.normal(scale=x_scale, size=(n_samples, self.dim))
        k = self.bound
        for ti, xi in zip(t, x):
            pt = xi[None, :]
            b0 = self.drift_dini(ti, pt)[0]
            if np.linalg.norm(b0) > k * (1 + 1e-9):
                raise DynamicsError("Dini drift part exceeds the bound")
            a = self.diffusion(ti, pt)[0]
            eig = np.linalg.eigvalsh(0.5 * (a + a.T))
            if eig[-1] > k * (1 + 1e-9) or eig[0] <= 0 or 1.0 / eig[0] > k * (1 + 1e-9):
                raise DynamicsError("diffusion norm bounds violated")
            sig = self.sigma(ti, pt)[0]
            if np.max(np.abs(sig @ sig.T - 2.0 * a)) > 1e-8:
                raise DynamicsError("sigma sigma^T != 2a within 1e-8")
        # finite-difference Lipschitz quotients on random pairs
        h = rng.normal(scale=0.5, size=(n_samples, self.dim))
        y = x + h
        for ti, xi, yi in zip(t, x, y):
            dx = np.linalg.norm(yi - xi)
            if dx < 1e-9:
                continue
            d_b1 = np.linalg.norm(
                self.drift_lipschitz(ti, yi[None, :])[0] - self.drift_lipschitz(ti, xi[None, :])[0]
            )
            d_a = np.linalg.norm(
                self.diffusion(ti, yi[None, :])[0] - self.diffusion(ti, xi[None, :])[0], 2
            )
            if d_b1 > k * (1 + lip_tol) * dx or d_a > k * (1 + lip_tol) * dx:
                raise DynamicsError("sampled Lipschitz quotient exceeds the bound")
        return self

    def div_a(self, t, x):
        """Row divergence of a, analytic when provided, else central differences."""
        if self.div_a_fn is not None:
            return self.div_a_fn(t, x)
        return _central_div(self.diffusion, t, x)


def _central_div(diffusion, t, x, step=1e-4):
    """Row divergence sum_l d a_il / d x_l of diffusion(t, x) -> (n, d, d) by central differences."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for l in range(x.shape[1]):
        e = np.zeros(x.shape[1])
        e[l] = step
        hi = diffusion(t, x + e)
        lo = diffusion(t, x - e)
        out += (hi[:, :, l] - lo[:, :, l]) / (2.0 * step)
    return out


@dataclass(frozen=True)
class BridgeSpec:
    """Generator switch data: field1 on [0, t0], field2 on (t0, t1], t0 = epsilon * t1.

    The canonical switch fraction lives in (0, 1/2]; epsilon up to 1 is
    accepted for the degenerate-switch diagnostics (t0 = t1 never switches).
    """

    field1: CoefficientField
    field2: CoefficientField
    t1: float
    epsilon: float = 0.5
    horizon: Optional[float] = None

    def __post_init__(self):
        T = self.horizon if self.horizon is not None else self.t1
        if not 0 < self.t1 <= T:
            raise DynamicsError("need 0 < t1 <= horizon")
        if not 0 < self.epsilon <= 1.0:
            raise DynamicsError("need epsilon in (0, 1]")
        if self.field1.dim != self.field2.dim:
            raise DynamicsError("field dimensions differ")

    @property
    def t0(self):
        return self.epsilon * self.t1

    @property
    def canonical(self):
        """True when the switch time obeys 0 < t0 <= t1/2 <= T/2."""
        return self.epsilon <= 0.5


# --------------------------------------------------------------------------
# ensembles


@dataclass
class PathEnsemble:
    """Discretized trajectories on a shared node grid, reproducible from the seed."""

    times: np.ndarray
    paths: np.ndarray  # (n_paths, n_nodes, d)
    noise_mode: str
    seed: int
    #: sorted paths that turned non-finite, NaN from their blow-up node on (all
    #: paths are, in an interacting ensemble); no slice can then be taken
    aborted: tuple = ()

    @property
    def n_paths(self):
        return self.paths.shape[0]

    @property
    def dim(self):
        return self.paths.shape[2]

    def terminal_points(self):
        if self.aborted:
            raise BlowUpError(f"paths {self.aborted} blew up; no terminal slice")
        return self.paths[:, -1, :]

    def terminal_measure(self):
        return EmpiricalMeasure(self.terminal_points())

    def slice_measure(self, t):
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-12 * max(1.0, abs(t)):
            raise DynamicsError(f"t={t} is not a grid node")
        if self.aborted:
            raise BlowUpError(f"paths {self.aborted} blew up; no slice at t={t}")
        return EmpiricalMeasure(self.paths[:, idx, :])

    def to_csv(self, path):
        """Rows (path_id, t, x_1, ..., x_d)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["path", "t"] + [f"x{i + 1}" for i in range(self.dim)])
            for p in range(self.n_paths):
                for t, x in zip(self.times, self.paths[p]):
                    writer.writerow([p, repr(float(t))] + [repr(float(v)) for v in x])


@dataclass
class CoupledPair:
    """Synchronously coupled ensembles plus the tracked separation |X1 - X2|.

    The separation is integrated as its own Euler recursion of the difference
    equation, so equal coefficients cancel before any rounding: the additive
    equal-noise case keeps it constant at bit level.  A pair that blows up is
    aborted in both ensembles and its separation is NaN from then on.
    """

    first: PathEnsemble
    second: PathEnsemble
    separation: np.ndarray  # (n_pairs, n_nodes)


def time_grid(t_end, n_steps):
    if t_end <= 0 or n_steps < 1:
        raise DynamicsError("need t_end > 0 and n_steps >= 1")
    return np.linspace(0.0, float(t_end), int(n_steps) + 1)


def refine_grid(times, t_insert):
    """Make t_insert an exact node: snap a node within rounding distance to
    it, insert otherwise (never round t_insert itself)."""
    times = np.asarray(times, dtype=float)
    if not times[0] <= t_insert <= times[-1]:
        raise DynamicsError("t_insert outside the grid range")
    gaps = np.abs(times - t_insert)
    nearest = int(np.argmin(gaps))
    if gaps[nearest] == 0.0:
        return times
    if gaps[nearest] < 1e-12 * max(1.0, abs(t_insert)):
        out = times.copy()
        out[nearest] = t_insert
        return out
    return np.sort(np.append(times, t_insert))


def _increments(times, normals):
    dt = np.diff(times)
    return normals * np.sqrt(dt)[None, :, None]


def _step(x, t, h, drift_fn, sigma_fn, dw):
    """Euler-Maruyama step: x + b(t,x) h + sigma(t,x) dW."""
    b = drift_fn(t, x)
    sig = sigma_fn(t, x)
    return x + b * h + np.einsum("nij,nj->ni", sig, dw)


def _integrate(x0_rows, times, advance, increments, interacting=False):
    """The package's one Euler time loop, under the module's blow-up policy.

    advance(t, h, x, dw) returns the (n_rows, width) state at t + h as a new
    array, given the state x at t and the rows' Brownian increments dw over
    the step.  An interacting ensemble halts at its first blow-up; otherwise
    only the rows that blew up stop.  Returns the (n_rows, n_nodes, width)
    paths and the sorted tuple of aborted rows.
    """
    n_rows, width = x0_rows.shape
    paths = np.empty((n_rows, times.size, width))
    paths[:, 0, :] = x0_rows
    x = x0_rows
    alive = np.ones(n_rows, dtype=bool)
    aborted = []
    for k in range(times.size - 1):
        with np.errstate(over="ignore", invalid="ignore"):
            x_new = advance(times[k], times[k + 1] - times[k], x, increments[:, k, :])
        # rows are checked one by one only once some value is not finite
        if aborted or not np.isfinite(x_new).all():
            bad = alive & ~np.all(np.isfinite(x_new), axis=1)
            if np.any(bad):
                aborted.extend(np.nonzero(bad)[0].tolist())
                if interacting:
                    paths[:, k + 1 :, :] = np.nan
                    break
                alive &= ~bad
            x_new[~alive] = np.nan
        paths[:, k + 1, :] = x = x_new
    return paths, tuple(sorted(aborted))


def _start_rows(x0, dim, n_rows):
    """The start point x0 on each of n_rows rows; it must have dim coordinates."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != dim:
        raise DynamicsError(f"start point has {x0.size} coordinates, the field has {dim}")
    return np.tile(x0, (n_rows, 1))


def _ensemble(x0, dim, times, seed, n_paths, advance):
    """Independent-noise ensemble of n_paths paths from the point x0."""
    x0_rows = _start_rows(x0, dim, n_paths)
    incs = _increments(times, path_normals(seed, n_paths, times.size - 1, dim))
    paths, aborted = _integrate(x0_rows, times, advance, incs)
    return PathEnsemble(times=times, paths=paths, noise_mode="independent", seed=seed, aborted=aborted)


def euler_maruyama(field, x0, times, seed, n_paths=1):
    """Euler-Maruyama ensemble for one coefficient field from a point start.

    X_{k+1} = X_k + b(t_k, X_k) h + sigma(t_k, X_k) dW_k with dW_k ~ N(0, h I),
    drift evaluated as the Dini part plus the Lipschitz part.  Path i consumes
    the substream keyed (seed, i); ensembles are bit-reproducible.
    """

    def advance(t, h, x, dw):
        return _step(x, t, h, field.drift, field.sigma, dw)

    return _ensemble(x0, field.dim, np.asarray(times, dtype=float), seed, n_paths, advance)


def synchronous_pair(field1, field2, x1, x2, times, seed, n_pairs=1):
    """Two diffusions driven by the same Brownian increments.

    The stepped state is [X1, D] with D = X1 - X2.  The first component is
    stepped exactly like euler_maruyama (bit-identical under the same seed);
    D is stepped by the Euler update of the difference equation and the
    second component recomposed as X1 - D.  Marginals of both components
    follow their single-SDE laws.
    """
    if field1.dim != field2.dim:
        raise DynamicsError("field dimensions differ")
    times = np.asarray(times, dtype=float)
    d = field1.dim
    x = _start_rows(x1, d, n_pairs)
    state0 = np.hstack([x, x - _start_rows(x2, d, n_pairs)])

    def advance(t, h, state, dw):
        x, diff = state[:, :d], state[:, d:]
        y = x - diff
        b1, sig1 = field1.drift(t, x), field1.sigma(t, x)
        db = b1 - field2.drift(t, y)
        dsig = sig1 - field2.sigma(t, y)
        x_new = x + b1 * h + np.einsum("nij,nj->ni", sig1, dw)
        return np.hstack([x_new, diff + db * h + np.einsum("nij,nj->ni", dsig, dw)])

    incs = _increments(times, path_normals(seed, n_pairs, times.size - 1, d))
    paths, aborted = _integrate(state0, times, advance, incs)
    x, diff = paths[:, :, :d].copy(), paths[:, :, d:].copy()
    ens1 = PathEnsemble(times=times, paths=x, noise_mode="shared", seed=seed, aborted=aborted)
    ens2 = PathEnsemble(times=times, paths=x - diff, noise_mode="shared", seed=seed, aborted=aborted)
    with np.errstate(over="ignore"):
        separation = np.linalg.norm(diff, axis=2)
        # the norm squares D: a finite D whose square overflowed is measured again scaled to unit size
        over = np.isinf(separation)
        if over.any():
            over &= np.isfinite(diff).all(axis=2)
            scale = np.max(np.abs(diff[over]), axis=1)
            separation[over] = scale * np.linalg.norm(diff[over] / scale[:, None], axis=1)
    return CoupledPair(first=ens1, second=ens2, separation=separation)


def bridge_path(spec, x1, times, seed, n_paths=1):
    """Paths of the switched-generator diffusion of a BridgeSpec.

    The grid is refined to contain t0 exactly; steps ending at or before t0
    use field1 and later steps use field2, so the indicator split in time is
    represented without rounding.  Paths are continuous at the switch.
    """
    times = refine_grid(np.asarray(times, dtype=float), spec.t0)
    if times[-1] < spec.t1 - 1e-12:
        raise DynamicsError("grid must reach t1")

    def advance(t, h, x, dw):
        field = spec.field1 if t < spec.t0 else spec.field2
        return _step(x, t, h, field.drift, field.sigma, dw)

    return _ensemble(x1, spec.field1.dim, times, seed, n_paths, advance)


# --------------------------------------------------------------------------
# exponential-moment certificate


@dataclass(frozen=True)
class SemimartingaleWitness:
    """Parameters of the exponential-moment bound for a nonnegative semimartingale.

    The observed process xi must satisfy d xi <= k1 xi dt + dA + dM with
    d<M> <= k1 xi dt; then for t0 < min(T, 1/k1) and lam, k > 0 obeying the
    slack condition k (1 - k1 t0) >= k1 (1 + lam/2),

        E exp[ lam xi_{t0} / (1 + k t0) ] <= exp[ lam xi_0 + lam A_{t0} ].
    """

    k1: float
    lam: float
    k: float
    t0: float
    horizon: float
    xi0: float
    compensator: Callable  # t -> A_t, increasing, A_0 = 0

    def __post_init__(self):
        if self.k1 <= 0 or self.lam <= 0 or self.k <= 0:
            raise DynamicsError("k1, lam, k must be positive")
        if not 0 < self.t0 < min(self.horizon, 1.0 / self.k1):
            raise DynamicsError("need t0 < min(T, 1/k1)")
        if self.xi0 < 0:
            raise DynamicsError("xi0 must be nonnegative")
        if self.k * (1.0 - self.k1 * self.t0) < self.k1 * (1.0 + 0.5 * self.lam) - 1e-12:
            raise DynamicsError(
                "slack condition k(1 - k1 t0) >= k1 (1 + lam/2) violated; "
                "increase k or decrease lam/t0"
            )
        a0 = float(self.compensator(0.0))
        if abs(a0) > 1e-12:
            raise DynamicsError("compensator must start at 0")
        grid = np.linspace(0.0, self.t0, 17)
        vals = np.asarray([float(self.compensator(t)) for t in grid])
        if np.any(np.diff(vals) < -1e-12):
            raise DynamicsError("compensator must be nondecreasing")


def exp_moment_certificate(witness, xi_at_t0):
    """Monte Carlo check of the exponential-moment bound.

    xi_at_t0: observed values of xi_{t0} over an ensemble (shape (n,)).
    Verdict compares the Monte Carlo mean of exp[lam xi / (1 + k t0)]
    against exp[lam xi0 + lam A_{t0}] within 3 standard errors.
    """
    xi = np.asarray(xi_at_t0, dtype=float).reshape(-1)
    if xi.size < 2:
        raise DynamicsError("need an ensemble of xi values")
    if np.any(xi < 0):
        raise DynamicsError("xi must be nonnegative")
    w = witness  # validated on construction
    vals = np.exp(w.lam * xi / (1.0 + w.k * w.t0))
    left = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(xi.size))
    right = float(np.exp(w.lam * w.xi0 + w.lam * float(w.compensator(w.t0))))
    tol = 3.0 * se
    return ExperimentReport(
        name="exp_moment_certificate",
        params={
            "k1": w.k1,
            "lam": w.lam,
            "k": w.k,
            "t0": w.t0,
            "xi0": w.xi0,
            "n_paths": int(xi.size),
            "stderr": se,
        },
        left=left,
        right=right,
        tolerance=tol,
        verdict=classify(left, right, tol),
        notes="3 sigma Monte Carlo slack",
    )
