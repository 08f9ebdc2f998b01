"""Time-dependent SDE integration and couplings.

Coefficient fields follow the generator convention

    L = tr(a(t,x) grad^2) + b(t,x) . grad,   sigma = sqrt(2 a),

so the driftless a = I field is Brownian motion with Var X_t = 2t.  The drift
splits into a bounded (Dini) part and a Lipschitz part; sampled invariant
checks live on the field object because user fields are black boxes.  Static
and mean-field fields share one sigma rule and one div a rule.

Everything, the interacting particle systems of `meanfield` included, is
integrated by Euler-Maruyama in one time loop, `_integrate`.  It draws an
ensemble's noise once, the rows in order from one counter-based stream,
each into the tail of that path's own row of the path array, and returns
the ensemble as a PathEnsemble, through which every slice of a path, pair
or particle cloud is read.  All weak-error checks in the package are satisfied by
Euler-Maruyama, so no higher-order scheme is carried.

Blow-up policy: a path whose state turns non-finite is listed in
`PathEnsemble.aborted` and is NaN from that node on; the other paths
continue.  An interacting ensemble halts at its first blow-up, all particles
NaN from that node on, because a non-finite particle corrupts the empirical
measure every particle sees.  Slices of an ensemble with aborted paths raise
BlowUpError.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._rng import path_normals
from .measures import EmpiricalMeasure, _is_count, _is_positive
from .reports import ExperimentReport

__all__ = [
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


#: relative slack on the bound for the sampled Lipschitz quotients of
#: CoefficientField.validate and MVCoefficientField.validate
LIP_TOL = 0.05


# --------------------------------------------------------------------------
# coefficient data


def _batch_spd_sqrt(mats):
    w, v = np.linalg.eigh(mats)
    if np.any(w <= 0):
        raise DynamicsError("diffusion matrix not SPD at a sampled point")
    return np.einsum("nij,nj,nkj->nik", v, np.sqrt(w), v)


def _sigma(sigma_fn, diffusion, *args):
    """sqrt(2a) at (t, x[, mu]): sigma_fn's value if given, else by eigendecomposition."""
    if sigma_fn is not None:
        return sigma_fn(*args)
    return _batch_spd_sqrt(2.0 * diffusion(*args))


def _div_a(div_a_fn, diffusion, t, x, *mu):
    """Row divergence sum_l d a_il / d x_l at (t, x[, mu]) -> (n, d): div_a_fn's
    value if given, else central differences of diffusion with step 1e-4."""
    if div_a_fn is not None:
        return div_a_fn(t, x, *mu)
    step = 1e-4
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for l in range(x.shape[1]):
        e = np.zeros(x.shape[1])
        e[l] = step
        hi = diffusion(t, x + e, *mu)
        lo = diffusion(t, x - e, *mu)
        out += (hi[:, :, l] - lo[:, :, l]) / (2.0 * step)
    return out


@dataclass(frozen=True)
class CoefficientField:
    """Drift b = b0 + b1 and diffusion a on [0,T] x R^d, vectorized over x.

    Callables take (t, x) with x of shape (n, d); drift parts return (n, d)
    and the diffusion returns (n, d, d) SPD.  `bound` is the shared
    regularity constant: |b0| <= bound, operator norms of a and a^-1 and the
    Lipschitz quotients of b1 and a are all <= bound.  `sigma_fn` may supply
    sqrt(2a) and `div_a_fn(t, x) -> (n, d)` the row divergence of a.
    """

    dim: int
    drift_dini: Callable
    drift_lipschitz: Callable
    diffusion: Callable
    bound: float
    horizon: float = 1.0
    sigma_fn: Optional[Callable] = None
    div_a_fn: Optional[Callable] = None
    label: str = ""

    def drift(self, t, x):
        return self.drift_dini(t, x) + self.drift_lipschitz(t, x)

    def sigma(self, t, x):
        return _sigma(self.sigma_fn, self.diffusion, t, x)

    def div_a(self, t, x):
        return _div_a(self.div_a_fn, self.diffusion, t, x)

    def validate(self, seed=0):
        """Sampled invariant checks at 32 random (t, x), t uniform on [0, horizon],
        x ~ N(0, 4 I); sigma sigma^T must match 2a to 1e-8 of its largest entry.
        A NaN value or bound fails every check."""
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.0, self.horizon, 32)
        x = rng.normal(scale=2.0, size=(32, self.dim))
        k = self.bound
        for ti, xi in zip(t, x):
            pt = xi[None, :]
            b0 = self.drift_dini(ti, pt)[0]
            if not np.linalg.norm(b0) <= k * (1 + 1e-9):
                raise DynamicsError("Dini drift part exceeds the bound")
            a = self.diffusion(ti, pt)[0]
            if not np.all(np.isfinite(a)):
                raise DynamicsError("diffusion is not finite")
            eig = np.linalg.eigvalsh(0.5 * (a + a.T))
            if not (eig[0] > 0 and eig[-1] <= k * (1 + 1e-9) and 1.0 / eig[0] <= k * (1 + 1e-9)):
                raise DynamicsError("diffusion norm bounds violated")
            sig = self.sigma(ti, pt)[0]
            if not np.max(np.abs(sig @ sig.T - 2.0 * a)) <= 2e-8 * np.max(np.abs(a)):
                raise DynamicsError("sigma sigma^T != 2a within 1e-8 relative")
        # finite-difference Lipschitz quotients on random pairs
        h = rng.normal(scale=0.5, size=(32, self.dim))
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
            if not (d_b1 <= k * (1 + LIP_TOL) * dx and d_a <= k * (1 + LIP_TOL) * dx):
                raise DynamicsError("sampled Lipschitz quotient exceeds the bound")
        return self


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

    def __post_init__(self):
        if not _is_positive(self.t1):
            raise DynamicsError(f"need a finite t1 > 0, got {self.t1!r}")
        if not 0 < self.epsilon <= 1.0:
            raise DynamicsError("need epsilon in (0, 1]")
        if self.field1.dim != self.field2.dim:
            raise DynamicsError("field dimensions differ")

    @property
    def t0(self):
        return self.epsilon * self.t1


# --------------------------------------------------------------------------
# ensembles


@dataclass
class PathEnsemble:
    """Discretized trajectories on a shared node grid."""

    times: np.ndarray
    paths: np.ndarray  # (n_paths, n_nodes, d)
    #: sorted paths that turned non-finite, NaN from their blow-up node on (all
    #: paths are, in an interacting ensemble); no slice can then be taken
    aborted: tuple = ()

    @property
    def n_paths(self):
        return self.paths.shape[0]

    def terminal_points(self):
        if self.aborted:
            raise BlowUpError(f"paths {self.aborted} blew up; no terminal slice")
        return self.paths[:, -1, :]

    def terminal_measure(self):
        return EmpiricalMeasure(self.terminal_points())

    def slice_measure(self, t):
        (idx,), (on_grid,) = _nearest_nodes(self.times, [t])
        if not on_grid:
            raise DynamicsError(f"t={t} is not a grid node")
        if self.aborted:
            raise BlowUpError(f"paths {self.aborted} blew up; no slice at t={t}")
        return EmpiricalMeasure(self.paths[:, idx, :])


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
    if not (_is_positive(t_end) and _is_count(n_steps)):
        raise DynamicsError(f"need a finite t_end > 0 and an integer n_steps >= 1, got {t_end!r} and {n_steps!r}")
    return np.linspace(0.0, float(t_end), n_steps + 1)


def _nearest_nodes(times, ts):
    """The one rule for "t is a node of times": per t of ts, the index of the
    nearest node (the first of ties) and whether it is within 1e-12 * max(1, |t|)."""
    gaps = np.abs(times[:, None] - ts)
    return np.argmin(gaps, axis=0), gaps.min(axis=0) <= 1e-12 * np.maximum(1.0, np.abs(ts))


def refine_grid(times, ts):
    """Make every time of ts an exact node: a node within rounding distance
    of t (_nearest_nodes) is snapped to it, otherwise t is inserted; t itself
    is never rounded."""
    times, ts = np.array(times, dtype=float), np.unique(ts)
    if not np.all((times[0] <= ts) & (ts <= times[-1])):
        raise DynamicsError("a time to insert lies outside the grid range")
    idx, on_grid = _nearest_nodes(times, ts)
    times[idx[on_grid]] = ts[on_grid]
    return np.insert(times, np.searchsorted(times, ts[~on_grid]), ts[~on_grid])


def _noise(sig, dw):
    """sigma dW per row.  A sigma that broadcasts one diagonal matrix over the
    rows (stride 0), as every catalog field's does, scales dW by its diagonal;
    any other sigma is applied by einsum.  Both give the same values."""
    if isinstance(sig, np.ndarray) and sig.strides[0] == 0:
        diag = np.diagonal(sig[0])
        if np.count_nonzero(sig[0]) == np.count_nonzero(diag):
            return dw * diag
    return np.einsum("nij,nj->ni", sig, dw)


def _step(x, h, b, sig, dw):
    """The one Euler-Maruyama update x + b h + sigma dW, from the drift b and sigma
    at x; every front-end of _integrate steps each component of its state by it."""
    return x + b * h + _noise(sig, dw)


def _checked_grid(times):
    """times as a float array; it must be a nonempty 1-D grid of finite, nondecreasing nodes."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or not np.isfinite(times).all() or (np.diff(times) < 0).any():
        raise DynamicsError("need a nonempty 1-D time grid of finite, nondecreasing nodes")
    return times


def _integrate(x0_rows, times, advance, seed, stream, dim, interacting=False):
    """The package's one Euler time loop, under the module's blow-up policy.

    Allocates only the (n_rows, n_nodes, width) path array.  The rows'
    standard normals, dim coordinates per step, are drawn in row order from
    the one stream of (seed, stream) by path_normals, each row's into the
    last n_steps * dim slots of its own path buffer.  Step k scales its slot
    by sqrt(h) into dw and then steps: advance(t, h, x, dw) returns the
    (n_rows, width) state at t + h as a new array, given the state x at t
    and the rows' increments dw over the step.  Node k + 1 is written only
    after step k has read its noise; it ends at slot width * (k + 2), which
    for width >= dim is never past the start of step k + 1's noise, so no
    unread noise is overwritten.  An interacting ensemble halts at its first
    blow-up; otherwise only the rows that blew up stop.  Returns the
    PathEnsemble of the paths.  The grid must pass _checked_grid.
    """
    times = _checked_grid(times)
    n_rows, width = x0_rows.shape
    n_steps = times.size - 1
    paths = np.empty((n_rows, times.size, width))
    tail = paths.reshape(n_rows, -1)[:, (n_steps + 1) * width - n_steps * dim :]
    noise = path_normals(seed, tail.reshape(n_rows, n_steps, dim), stream)
    sqrt_h = np.sqrt(np.diff(times))
    paths[:, 0, :] = x0_rows
    x = x0_rows
    alive = np.ones(n_rows, dtype=bool)
    aborted = []
    for k in range(n_steps):
        dw = noise[:, k, :] * sqrt_h[k]
        with np.errstate(over="ignore", invalid="ignore"):
            x_new = advance(times[k], times[k + 1] - times[k], x, dw)
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
    return PathEnsemble(times=times, paths=paths, aborted=tuple(sorted(aborted)))


def _start_rows(x0, dim, n_rows):
    """The start point x0 on each of n_rows rows (a count); it must have dim finite coordinates."""
    if not _is_count(n_rows):
        raise DynamicsError(f"need at least one path, as an integer, got {n_rows!r}")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != dim or not np.isfinite(x0).all():
        raise DynamicsError(f"start point must have {dim} finite coordinates, got {x0.tolist()}")
    return np.tile(x0, (n_rows, 1))


def euler_maruyama(field, x0, times, seed, n_paths=1):
    """Euler-Maruyama ensemble for one coefficient field from a point start.

    X_{k+1} = X_k + b(t_k, X_k) h + sigma(t_k, X_k) dW_k with dW_k ~ N(0, h I),
    drift evaluated as the Dini part plus the Lipschitz part.  The paths
    draw their noise in order from the one stream of seed (see
    _rng.path_normals), so ensembles are bit-reproducible and the first k of
    n paths are the k-path ensemble.
    """

    def advance(t, h, x, dw):
        return _step(x, h, field.drift(t, x), field.sigma(t, x), dw)

    return _integrate(_start_rows(x0, field.dim, n_paths), times, advance, seed, 0, field.dim)


def synchronous_pair(field1, field2, x1, x2, times, seed, n_pairs=1):
    """Two diffusions driven by the same Brownian increments.

    The stepped state is [X1, D] with D = X1 - X2.  The first component is
    stepped exactly like euler_maruyama (bit-identical under the same seed);
    D is stepped by the same update with the differences of the drifts and
    of the sigmas, and the second component recomposed as X1 - D.  Marginals
    of both components follow their single-SDE laws.  The two ensembles' paths are the two
    halves of the stacked state's buffer, so neither is contiguous.
    """
    if field1.dim != field2.dim:
        raise DynamicsError("field dimensions differ")
    d = field1.dim
    x = _start_rows(x1, d, n_pairs)
    state0 = np.hstack([x, x - _start_rows(x2, d, n_pairs)])

    def advance(t, h, state, dw):
        x, diff = state[:, :d], state[:, d:]
        y = x - diff
        b1, sig1 = field1.drift(t, x), field1.sigma(t, x)
        db = b1 - field2.drift(t, y)
        return np.hstack([_step(x, h, b1, sig1, dw), _step(diff, h, db, sig1 - field2.sigma(t, y), dw)])

    stacked = _integrate(state0, times, advance, seed, 0, d)
    x, diff = stacked.paths[:, :, :d], stacked.paths[:, :, d:]
    with np.errstate(over="ignore"):
        # |D| as norm(axis=2) computes it, without the copy its conj() makes of D
        separation = np.sqrt(np.add.reduce(diff * diff, axis=2))
        # the norm squares D: a finite D whose square overflowed is measured again scaled to unit size
        over = np.isinf(separation)
        if over.any():
            over &= np.isfinite(diff).all(axis=2)
            scale = np.max(np.abs(diff[over]), axis=1)
            separation[over] = scale * np.linalg.norm(diff[over] / scale[:, None], axis=1)
    # the second component X1 - D takes the place of D in the stacked buffer
    np.subtract(x, diff, out=diff)
    ens1 = PathEnsemble(times=stacked.times, paths=x, aborted=stacked.aborted)
    ens2 = PathEnsemble(times=stacked.times, paths=diff, aborted=stacked.aborted)
    return CoupledPair(first=ens1, second=ens2, separation=separation)


def bridge_path(spec, x1, times, seed, n_paths=1):
    """Paths of the switched-generator diffusion of a BridgeSpec.

    The grid is refined to contain t0 exactly; steps ending at or before t0
    use field1 and later steps use field2, so the indicator split in time is
    represented without rounding.  Paths are continuous at the switch.
    """
    times = refine_grid(_checked_grid(times), [spec.t0])
    # a grid that stops short of t1 must have t1 as a node, its last
    if times[-1] < spec.t1 and not _nearest_nodes(times, [spec.t1])[1][0]:
        raise DynamicsError("grid must reach t1")

    def advance(t, h, x, dw):
        field = spec.field1 if t < spec.t0 else spec.field2
        return _step(x, h, field.drift(t, x), field.sigma(t, x), dw)

    return _integrate(_start_rows(x1, spec.field1.dim, n_paths), times, advance, seed, 0, spec.field1.dim)


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
        if not (_is_positive(self.k1) and _is_positive(self.lam) and _is_positive(self.k)):
            raise DynamicsError("k1, lam, k must be positive and finite")
        if not 0 < self.t0 < min(self.horizon, 1.0 / self.k1):
            raise DynamicsError("need t0 < min(T, 1/k1)")
        if not (self.xi0 == 0 or _is_positive(self.xi0)):
            raise DynamicsError("xi0 must be finite and nonnegative")
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
        notes="3 sigma Monte Carlo slack",
    )
