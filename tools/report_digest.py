"""Digest of CLI reports and library results, for checking that a change
leaves them byte-identical.

Runs `entroflow run` from this checkout's `src` on a fixed list of configs,
each into its own temporary directory, and prints one line per run:

    <config>  json=<sha256>  csv=<sha256>  exit=<code>

The JSON digest is taken with the `timestamp` line removed, and a file the
run did not write digests as `-`.  The configs are the six experiments at
their defaults for seeds 0 and 7, plus the non-default configs in `EXTRA`.

Every CLI spec has constant coefficients, so no config reaches the RK4 path
of the linear oracle, and no config digests an Euler path.  The library
probes in `LIB` do: each imports entroflow from the same `src` and runs
fixed calls at d = 1, 2 and 3.  Most run the linear oracle on time-dependent
and mixed (callable drift matrix, constant offset and noise) specs;
`lib:paths` runs every front-end of the Euler loop (see _lib_paths), and
`lib:draws` the Monte Carlo branches of two reports (see _lib_draws).  Each
prints

    lib:<name>  sha=<sha256>

over the bytes of every float it got back (paths with their grids, aborted
rows and pair separations; reports as their JSON, the timestamp removed).
Run it on two checkouts and compare the outputs:

    python tools/report_digest.py > digest.txt
    python tools/report_digest.py "log_harnack seed=0" lib:laws   # only the named entries

A config is `<experiment> seed=<n>` followed by `key=value` parameter
overrides; `lib:<name>` names a probe.  Uses only the standard library,
numpy and entroflow.
"""

import hashlib
import importlib
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

EXPERIMENTS = (
    "talagrand",
    "entropy_cost",
    "mismatch_singularity",
    "bridge_decomposition",
    "log_harnack",
    "meanfield_entropy_cost",
)

EXTRA = (
    "mismatch_singularity seed=0 pair=diffusion-gap",
    "mismatch_singularity seed=0 pair=equal",
    "mismatch_singularity seed=0 pair=drift-gap d=2",
    "entropy_cost seed=0 d=2 spec2_kind=ou",
    "entropy_cost seed=0 spec1_kind=drift-gap",
    "entropy_cost seed=0 t_max=0.5 t_min=0.001",
    "entropy_cost seed=0 t_max=2.5 spec1_kind=ou spec1_rate=2",
    "entropy_cost seed=0 t_min=2",
    "bridge_decomposition seed=0 d=2 spec1_kind=ou x2=0.5",
    "bridge_decomposition seed=0 spec2_kind=ou spec2_a=2 epsilon=0.25 p=3 t1=2",
    "bridge_decomposition seed=0 t1=0.3 spec2_kind=drift-gap spec2_c=0.4",
    "bridge_decomposition seed=0 t1=0.3 x1=0.5 x2=1",
    "talagrand seed=0 d=3",
    "talagrand seed=0 d=3 mean=1,2",
    "log_harnack seed=0 k_curv=0.7 x=0.3 y=-1",
    "meanfield_entropy_cost seed=0 d=2 nu1_cov_scale=0.5 nu2_cov_scale=0.5",
    "meanfield_entropy_cost seed=0 field_kind=ou n_particles=500",
    "meanfield_entropy_cost seed=0 field_kind=dini-power-drift",
)

CONFIGS = tuple(f"{name} seed={seed}" for seed in (0, 7) for name in EXPERIMENTS) + EXTRA

_TIMESTAMP = re.compile(rb'^\s*"timestamp": .*\n', re.MULTILINE)


def _sha(path, strip_timestamp=False):
    if not os.path.exists(path):
        return "-"
    with open(path, "rb") as fh:
        data = fh.read()
    if strip_timestamp:
        data = _TIMESTAMP.sub(b"", data)
    return hashlib.sha256(data).hexdigest()


def digest(config):
    """Run one config and return its digest line."""
    name, seed, *sets = config.split()
    if not seed.startswith("seed="):
        raise ValueError(f"config {config!r} does not give seed= second")
    env = dict(os.environ, PYTHONPATH=SRC)
    with tempfile.TemporaryDirectory() as out:
        argv = [sys.executable, "-m", "entroflow.cli", "run", "--experiment", name, "--seed", seed[5:], "--out", out]
        for s in sets:
            argv += ["--set", s]
        code = subprocess.run(argv, env=env, capture_output=True).returncode
        js = _sha(os.path.join(out, f"{name}_report.json"), strip_timestamp=True)
        csv = _sha(os.path.join(out, f"{name}_plot.csv"))
    return f"{config}  json={js}  csv={csv}  exit={code}"


def _lib_specs(ef):
    """{name: spec}: "td<d>" with every coefficient a callable and a Gaussian
    start, "mixed<d>" with a callable drift matrix, constant offset and
    noise and a point start, for d = 1, 2 and 3; the two noises agree at t = 0."""
    specs = {}
    for d in (1, 2, 3):
        eye, lower = np.eye(d), np.tril(np.full((d, d), 0.3), -1)
        ones, s0 = np.ones(d), np.sqrt(1.4) * np.eye(d)

        def drift_matrix(t, eye=eye, lower=lower):
            return -(1.0 + 0.5 * np.sin(2.0 * np.pi * t)) * eye + t * lower

        start = ef.GaussianMeasure(np.linspace(-0.5, 0.5, d), 0.2 * eye + 0.05 * (lower + lower.T))
        specs[f"td{d}"] = ef.LinearSDESpec.from_gaussian(
            start,
            drift_matrix,
            lambda t, ones=ones: 0.3 * np.cos(3.0 * t) * ones,
            lambda t, s0=s0, lower=lower: s0 + 0.4 * t * lower + 0.2 * t * t * np.eye(len(s0)),
        )
        specs[f"mixed{d}"] = ef.LinearSDESpec.from_point(np.linspace(1.0, -1.0, d), drift_matrix, 0.3 * ones, s0)
    return specs


def _lib_pairs(specs):
    """(spec1, spec2, x1, x2) for both orders of the td and mixed spec at each d."""
    pairs = []
    for d in (1, 2, 3):
        td, mixed = specs[f"td{d}"], specs[f"mixed{d}"]
        for s1, s2 in ((td, mixed), (mixed, td)):
            pairs.append((s1, s2, s1.initial_mean + 0.1, s2.initial_mean - 0.2))
    return pairs


def _lib_paths(ef):
    """Fixed ensembles of every front-end of the Euler loop at d = 1, 2, 3:
    euler_maruyama on a catalog field and on an x-dependent field with no
    sigma_fn (sigma by eigendecomposition), a synchronous pair, a bridge,
    particle clouds from a Gaussian and from a resampled empirical start, and
    a flow map; then a path and a particle blow-up and a w2_stability report."""
    cat = importlib.import_module("entroflow.catalog")
    out = []
    for d in (1, 2, 3):
        sym = np.tril(np.full((d, d), 0.2), -1)
        sym = sym + sym.T

        def diffusion(t, x, d=d, sym=sym):
            scale = 1.0 + 0.5 * np.tanh(np.sum(x * x, axis=1))[:, None, None]
            return scale * np.eye(d) + (0.5 + t) * sym

        xf = ef.CoefficientField(d, lambda t, x: np.tanh(x), lambda t, x: -0.5 * x, diffusion, bound=10.0)
        grid, x0 = ef.time_grid(0.5, 16), np.linspace(-0.5, 0.5, d)
        gauss = ef.GaussianMeasure(x0, 0.3 * np.eye(d) + 0.05 * sym)
        emp = ef.EmpiricalMeasure(np.linspace(-1.0, 1.0, 5 * d).reshape(5, d) ** 3)
        cloud = cat.mean_field_ou(d, 1.0, 0.5)
        out += [
            ef.euler_maruyama(cat.ou_field(d, 1.0, 0.5), x0, grid, seed=d, n_paths=8),
            ef.euler_maruyama(xf, x0, grid, seed=d, n_paths=8),
            ef.synchronous_pair(xf, cat.dini_power_drift_field(d), x0, x0 + 0.3, grid, seed=d, n_pairs=8),
            ef.bridge_path(ef.BridgeSpec(cat.heat_field(d), xf, t1=0.5, epsilon=0.3), x0, grid, seed=d, n_paths=8),
            ef.evolve_particles(cloud, gauss, 16, grid, seed=d),
            ef.evolve_particles(cloud, emp, 16, grid, seed=d, stream=1),
            ef.flow_map(ef.MVCoefficientField.from_static(xf), gauss, 0.25, 16, 8, seed=d),
        ]
    quintic = ef.CoefficientField(
        1, lambda t, x: np.zeros_like(x), lambda t, x: x**5, lambda t, x: np.ones((x.shape[0], 1, 1)), bound=100.0
    )
    # three of six paths blow up; the cloud halts at its first blow-up
    out.append(ef.euler_maruyama(quintic, [1.0], ef.time_grid(1.0, 8), seed=3, n_paths=6))
    start = ef.EmpiricalMeasure([[1.0]])
    out.append(ef.evolve_particles(ef.MVCoefficientField.from_static(quintic), start, 6, ef.time_grid(1.0, 8), seed=3))
    nu1, nu2 = ef.GaussianMeasure([0.0], [[0.5]]), ef.GaussianMeasure([1.0], [[0.5]])
    out.append(ef.w2_stability_experiment(cat.make_mv_field("ou", 1), nu1, nu2, [0.1, 0.3], 64, 16, seed=2))
    return out


def _lib_draws(ef):
    """The Monte Carlo branches no CLI config reaches: talagrand_experiment on
    a fixed 300-point empirical measure in d = 2, and
    mismatch_singularity_experiment on two field pairs with law providers."""
    cat = importlib.import_module("entroflow.catalog")
    i = np.arange(300)
    # a sunflower spiral: 300 distinct points spread over a disc
    spiral = np.column_stack([np.cos(2.4 * i), np.sin(2.4 * i)]) * np.sqrt(i / 300.0)[:, None] + [0.3, -0.2]
    x0 = [1.0, -0.5]
    spec = cat.ou_spec(2, 1.0, 0.5, x0=x0)
    law = lambda s: ef.linear_sde_law(spec, s)
    cases = [
        ef.MismatchCase(
            cat.ou_field(2, 1.0, 0.5),
            field,
            law,
            ef.kl_gaussian(law(0.5), ef.linear_sde_law(other, 0.5)),
            label,
        )
        for label, field, other in (
            ("ou-heat", cat.heat_field(2, 0.5), cat.heat_spec(2, 0.5, x0=x0)),
            ("ou-drift", cat.constant_drift_field(2, 1.0, 0.5), cat.constant_drift_spec(2, 1.0, 0.5, x0=x0)),
        )
    ]
    return [
        ef.talagrand_experiment(ef.EmpiricalMeasure(spiral), seed=3),
        ef.mismatch_singularity_experiment(cases, 0.5, n_mc=50, seed=3, n_nodes=16),
    ]


LIB = {
    "laws": lambda ef, specs, pairs: [ef.linear_sde_laws(s, np.geomspace(1e-3, 1.0, 7)) for s in specs.values()],
    "bridge": lambda ef, specs, pairs: [
        ef.bridge_law_linear(s1, s2, x1, t0, t1)
        for s1, s2, x1, _ in pairs
        for t0, t1 in ((0.25, 0.75), (0.0, 0.5), (0.4, 0.4))
    ],
    "epsilon_sweep": lambda ef, specs, pairs: [ef.bridge_epsilon_sweep(s1, s2, x1, 0.8) for s1, s2, x1, _ in pairs],
    "mismatch": lambda ef, specs, pairs: [ef.mismatch_bound(s1, s2, 0.5, n_nodes=40) for s1, s2, _, _ in pairs],
    "entropy_cost": lambda ef, specs, pairs: [
        ef.entropy_cost_experiment(s1, s2, x1, x2, np.geomspace(0.01, 1.0, 6)) for s1, s2, x1, x2 in pairs
    ],
    "bridge_decomposition": lambda ef, specs, pairs: [
        ef.bridge_decomposition_experiment(s1, s2, x1, x2, 0.6, epsilon=0.25) for s1, s2, x1, x2 in pairs
    ],
    "paths": lambda ef, specs, pairs: _lib_paths(ef),
    "draws": lambda ef, specs, pairs: _lib_draws(ef),
}


def _pin(value):
    """The bytes of every float in a library result, in order."""
    if hasattr(value, "to_json"):
        return _TIMESTAMP.sub(b"", value.to_json().encode())
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if hasattr(value, "separation"):
        return _pin((value.first, value.second, value.separation))
    if hasattr(value, "paths"):
        return _pin((value.times, value.paths, value.aborted))
    if hasattr(value, "points"):
        return _pin((value.points, value.weights))
    if hasattr(value, "cov"):
        return value.mean.tobytes() + value.cov.tobytes()
    if hasattr(value, "decade_increments"):
        return _pin((value.value, value.diverged, value.decade_increments))
    if isinstance(value, (list, tuple)):
        return b"".join(_pin(v) for v in value)
    return np.float64(value).tobytes()


def lib_digest(name):
    """Run one library probe and return its digest line."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import entroflow as ef

    specs = _lib_specs(ef)
    result = LIB[name](ef, specs, _lib_pairs(specs))
    return f"lib:{name}  sha={hashlib.sha256(_pin(result)).hexdigest()}"


def main(argv):
    for entry in argv or CONFIGS + tuple(f"lib:{name}" for name in LIB):
        print(lib_digest(entry[4:]) if entry.startswith("lib:") else digest(entry), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
