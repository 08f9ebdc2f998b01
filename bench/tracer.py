"""Span tracer for the traced benchmark run.

Spans are recorded only from this file: `Tracer.install()` replaces the
entroflow entry points listed in SPANS, and the scipy kernels the modules
call, with timing wrappers, and `uninstall()` puts the originals back.
Modules bind library functions with `from .x import y`, so a function is
wrapped in every entroflow namespace that holds it (`dynamics.path_normals`,
`meanfield.path_normals`, ...); a scipy kernel is wrapped only in the
namespace named, so `transport.logsumexp` counts Sinkhorn half-iterations
and nothing else.

Each thread keeps its own span stack (cli-sweep runs configs on two
threads).  A span's self time is its duration minus the durations of its
direct child spans.  A span nested in a span of the same key (a catalog
builder calling another) adds to neither total.  Counts marked *computed*
are derived from array shapes, not measured.
"""

import functools
import json
import math
import os
import sys
import threading
import time
from collections import defaultdict


def _method_key(base):
    def key(args, kwargs):
        return f"{base}.{kwargs.get('method', args[2] if len(args) > 2 else 'exact')}"

    return key


def _n_points(measure):
    return measure.points.shape[0]


# --------------------------------------------------------------------------
# counters taken after a span ends: (tracer, result, args, kwargs, stack)


def _after_path_normals(tr, out, args, kwargs, stack):
    tr.count("rng.path_normals.normals", out.size)


def _after_ensemble(tr, ens, args, kwargs, stack):
    tr.count("dynamics.path_steps", ens.paths.shape[0] * (ens.paths.shape[1] - 1))
    tr.count("dynamics.path_bytes", ens.paths.nbytes)
    tr.count("dynamics.aborted_paths", len(ens.aborted))


def _after_pair(tr, pair, args, kwargs, stack):
    n, nodes, _ = pair.first.paths.shape
    tr.count("dynamics.path_steps", n * (nodes - 1))
    tr.count("dynamics.path_bytes", pair.first.paths.nbytes + pair.second.paths.nbytes + pair.separation.nbytes)


def _after_particles(tr, ens, args, kwargs, stack):
    tr.count("meanfield.particle_steps", ens.paths.shape[0] * (ens.paths.shape[1] - 1))


def _after_stability(tr, rep, args, kwargs, stack):
    # two clouds of n_particles stepped n_steps times (args 4 and 5)
    n_particles = kwargs.get("n_particles", args[4] if len(args) > 4 else 0)
    n_steps = kwargs.get("n_steps", args[5] if len(args) > 5 else 0)
    tr.count("meanfield.particle_steps", 2 * int(n_particles) * int(n_steps))


def _after_kl_knn(tr, out, args, kwargs, stack):
    # the mu sample is queried against both trees
    tr.count("divergence.knn_query_points", 2 * _n_points(args[0]))


def _after_law(tr, out, args, kwargs, stack):
    if any(frame[0] == "oracles.mismatch_bound" for frame in stack):
        tr.count("oracles.laws_in_bounds", 1)


def _after_ot(tr, out, args, kwargs, stack):
    n, m = _n_points(args[0]), _n_points(args[1])
    entries = n * m
    if kwargs.get("method", args[2] if len(args) > 2 else "exact") == "entropic":
        entries += n * n + m * m  # the two debiasing self-transport problems
    tr.count("transport.cost_matrix_bytes", 8 * entries)


def _error_ot(tr, exc, args, kwargs):
    if type(exc).__name__ == "SinkhornDivergedError":
        tr.count("transport.sinkhorn_diverged", 1)


def _after_coupling(tr, out, args, kwargs, stack):
    tr.count("transport.cost_matrix_bytes", 8 * _n_points(args[0]) * _n_points(args[1]))


def _nonfinite(value):
    if isinstance(value, float):
        return 0 if math.isfinite(value) else 1
    if isinstance(value, dict):
        return sum(_nonfinite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_nonfinite(v) for v in value)
    return 0


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _after_to_json(tr, text, args, kwargs, stack):
    tr.count("reports.json_bytes", len(text.encode()))
    tr.count("reports.nonfinite_values", _nonfinite(json.loads(text)))
    try:
        json.loads(text, parse_constant=_reject_constant)
    except ValueError:
        tr.count("reports.strict_json_rejects", 1)


def _after_csv(tr, out, args, kwargs, stack):
    tr.count("reports.csv_bytes", os.path.getsize(args[0]))


_BUILDERS = (
    "heat_field",
    "heat_spec",
    "ou_field",
    "ou_spec",
    "constant_drift_field",
    "constant_drift_spec",
    "mean_field_ou",
    "dini_power_drift_field",
    "make_field",
    "make_linear_spec",
    "make_mv_field",
)

_EXPERIMENTS = (
    "talagrand_experiment",
    "entropy_cost_experiment",
    "mismatch_singularity_experiment",
    "bridge_decomposition_experiment",
    "log_harnack_experiment",
    "meanfield_entropy_cost_experiment",
)

#: (module, attribute, span key or key function, after hook, error hook).
#: A lowercase attribute is a function wrapped in every namespace holding
#: it; "Class.method" patches the class once.
SPANS = [
    ("_rng", "path_normals", "rng.path_normals", _after_path_normals, None),
    ("_rng", "substream", "rng.substream", None, None),
    ("dynamics", "euler_maruyama", "dynamics.euler_maruyama", _after_ensemble, None),
    ("dynamics", "bridge_path", "dynamics.bridge_path", _after_ensemble, None),
    ("dynamics", "synchronous_pair", "dynamics.synchronous_pair", _after_pair, None),
    ("meanfield", "evolve_particles", "meanfield.evolve_particles", _after_particles, None),
    ("meanfield", "flow_map", "meanfield.flow_map", None, None),
    ("meanfield", "w2_stability_experiment", "meanfield.w2_stability_experiment", _after_stability, None),
    ("measures", "EmpiricalMeasure.__init__", "measures.EmpiricalMeasure", None, None),
    ("measures", "gaussian_sample", "measures.gaussian_sample", None, None),
    ("divergence", "kl_knn", "divergence.kl_knn", _after_kl_knn, None),
    ("divergence", "kl_gaussian", "divergence.kl_gaussian", None, None),
    ("oracles", "linear_sde_law", "oracles.linear_sde_law", _after_law, None),
    ("oracles", "mismatch_bound", "oracles.mismatch_bound", None, None),
    ("oracles", "bridge_law_linear", "oracles.bridge_law_linear", None, None),
    ("transport", "w2_empirical_ot", _method_key("transport.w2_empirical_ot"), _after_ot, _error_ot),
    ("transport", "optimal_coupling_discrete", "transport.optimal_coupling_discrete", _after_coupling, None),
    ("transport", "w2_empirical_1d", "transport.w2_empirical_1d", None, None),
    ("reports", "ExperimentReport.to_json", "reports.to_json", _after_to_json, None),
    ("reports", "write_plot_csv", "reports.write_plot_csv", _after_csv, None),
    ("cli", "run_single", "cli.run_single", None, None),
    *[("catalog", name, "catalog.builders", None, None) for name in _BUILDERS],
    *[("inequalities", name, f"inequalities.{name}", None, None) for name in _EXPERIMENTS],
]

#: scipy kernels, wrapped only in the namespace of the module that calls them
KERNELS = [
    ("oracles", "expm", "oracles.expm"),
    ("transport", "linear_sum_assignment", "transport.linear_sum_assignment"),
    ("transport", "linprog", "transport.linprog"),
    ("transport", "logsumexp", "transport.logsumexp"),
]


class Tracer:
    """Aggregated spans (calls, total and self seconds) and counters."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)
        self._undo = []

    def count(self, key, n):
        with self._lock:
            self.counters[key] += int(n)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, key, after=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            name = key(args, kwargs) if callable(key) else key
            nested = any(frame[0] == name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc, args, kwargs)
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                if not nested:
                    with tracer._lock:
                        tracer.calls[name] += 1
                        tracer.total[name] += elapsed
                        tracer.self_time[name] += elapsed - frame[1]
            if after is not None:
                after(tracer, out, args, kwargs, stack)
            return out

        return traced

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items()) if name == "entroflow" or name.startswith("entroflow.")]
        for mod_name, attr, key, after, on_error in SPANS:
            home = sys.modules[f"entroflow.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._replace(cls, meth, self.wrap(getattr(cls, meth), key, after, on_error))
                continue
            original = getattr(home, attr)
            traced = self.wrap(original, key, after, on_error)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._replace(mod, attr, traced)
        for mod_name, attr, key in KERNELS:
            mod = sys.modules[f"entroflow.{mod_name}"]
            self._replace(mod, attr, self.wrap(getattr(mod, attr), key))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


# --------------------------------------------------------------------------
# per-layer metrics of one traced pass


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr):
    """{name: (value, unit)} for one traced pass; 0 where a layer did not run."""
    c, s, st, n = tr.calls, tr.total, tr.self_time, tr.counters
    lse_calls = c["transport.logsumexp"]
    sinkhorn_iterations = lse_calls / 2.0
    m = {
        "rng.path_normals.calls": (c["rng.path_normals"], "count"),
        "rng.path_normals.self_s": (st["rng.path_normals"], "s"),
        "rng.path_normals.normals": (n["rng.path_normals.normals"], "count.computed"),
        "rng.substream.calls": (c["rng.substream"], "count"),
        "rng.substream.self_s": (st["rng.substream"], "s"),
        "dynamics.euler_maruyama.self_s": (st["dynamics.euler_maruyama"], "s"),
        "dynamics.synchronous_pair.self_s": (st["dynamics.synchronous_pair"], "s"),
        "dynamics.bridge_path.self_s": (st["dynamics.bridge_path"], "s"),
        "dynamics.path_steps": (n["dynamics.path_steps"], "count.computed"),
        "dynamics.path_bytes": (n["dynamics.path_bytes"], "B.computed"),
        "dynamics.aborted_paths": (n["dynamics.aborted_paths"], "count"),
        "meanfield.evolve_particles.self_s": (st["meanfield.evolve_particles"], "s"),
        "meanfield.particle_steps": (n["meanfield.particle_steps"], "count.computed"),
        "meanfield.flow_map.self_s": (st["meanfield.flow_map"], "s"),
        "meanfield.w2_stability_experiment.self_s": (st["meanfield.w2_stability_experiment"], "s"),
        "measures.EmpiricalMeasure.calls": (c["measures.EmpiricalMeasure"], "count"),
        "measures.EmpiricalMeasure.self_s": (st["measures.EmpiricalMeasure"], "s"),
        "measures.gaussian_sample.self_s": (st["measures.gaussian_sample"], "s"),
        "divergence.kl_knn.calls": (c["divergence.kl_knn"], "count"),
        "divergence.kl_knn.self_s": (st["divergence.kl_knn"], "s"),
        "divergence.knn_query_points": (n["divergence.knn_query_points"], "count.computed"),
        "divergence.kl_gaussian.calls": (c["divergence.kl_gaussian"], "count"),
        "divergence.kl_gaussian.self_s": (st["divergence.kl_gaussian"], "s"),
        "oracles.linear_sde_law.calls": (c["oracles.linear_sde_law"], "count"),
        "oracles.linear_sde_law.self_s": (st["oracles.linear_sde_law"], "s"),
        "oracles.mismatch_bound.calls": (c["oracles.mismatch_bound"], "count"),
        "oracles.mismatch_bound.self_s": (st["oracles.mismatch_bound"], "s"),
        "oracles.laws_per_bound": (_ratio(n["oracles.laws_in_bounds"], c["oracles.mismatch_bound"]), "count"),
        "oracles.bridge_law_linear.self_s": (st["oracles.bridge_law_linear"], "s"),
        "oracles.expm.calls": (c["oracles.expm"], "count"),
        "oracles.expm.s": (s["oracles.expm"], "s"),
        "transport.w2_empirical_ot.exact.s": (s["transport.w2_empirical_ot.exact"], "s"),
        "transport.w2_empirical_ot.entropic.s": (s["transport.w2_empirical_ot.entropic"], "s"),
        "transport.w2_empirical_1d.calls": (c["transport.w2_empirical_1d"], "count"),
        "transport.w2_empirical_1d.s": (s["transport.w2_empirical_1d"], "s"),
        "transport.linear_sum_assignment.calls": (c["transport.linear_sum_assignment"], "count"),
        "transport.linear_sum_assignment.s": (s["transport.linear_sum_assignment"], "s"),
        "transport.linprog.calls": (c["transport.linprog"], "count"),
        "transport.linprog.s": (s["transport.linprog"], "s"),
        "transport.sinkhorn_iterations": (sinkhorn_iterations, "count"),
        "transport.sinkhorn.s_per_iteration": (
            _ratio(s["transport.w2_empirical_ot.entropic"], sinkhorn_iterations),
            "s",
        ),
        "transport.sinkhorn_diverged": (n["transport.sinkhorn_diverged"], "count"),
        "transport.cost_matrix_bytes": (n["transport.cost_matrix_bytes"], "B.computed"),
        "reports.to_json.calls": (c["reports.to_json"], "count"),
        "reports.to_json.s": (s["reports.to_json"], "s"),
        "reports.json_bytes": (n["reports.json_bytes"], "B"),
        "reports.write_plot_csv.s": (s["reports.write_plot_csv"], "s"),
        "reports.csv_bytes": (n["reports.csv_bytes"], "B"),
        "reports.nonfinite_values": (n["reports.nonfinite_values"], "count"),
        "reports.strict_json_rejects": (n["reports.strict_json_rejects"], "count"),
        "catalog.builders.s": (s["catalog.builders"], "s"),
        "cli.run_single.calls": (c["cli.run_single"], "count"),
        "cli.run_single.self_s": (st["cli.run_single"], "s"),
    }
    for name in _EXPERIMENTS:
        m[f"inequalities.{name}.self_s"] = (st[f"inequalities.{name}"], "s")
    return {k: (float(v), unit) for k, (v, unit) in m.items()}
