"""Configuration-driven experiment runner.

Configs are INI files with a [run] section (experiment, seed, out, formats)
and a [params] section typed per the experiment's schema; every value can be
overridden from the command line.  Reports are written as JSON (sorted keys,
so two runs of one config differ only in the timestamp) plus plot-ready CSV.

Exit codes: 0 when every verdict is holds/degenerate/divergent (divergence
can be the expected finding), 2 when any verdict is "violated", 1 on
operational errors and bad input: a config file that does not parse, an
unknown [run] key, a format other than json and csv, a parameter that
does not parse, is out of range or is not finite, a time that is not
positive, a vector with more entries than the dimension d (shorter ones
are padded with zeros), or a given `<tag>_<p>` whose catalog entry
`<tag>_kind` takes no parameter p.
"""

import argparse
import concurrent.futures
import configparser
import json
import os
import sys

import numpy as np

from . import catalog
from .inequalities import (
    MismatchCase,
    bridge_decomposition_experiment,
    bridge_epsilon_sweep,
    entropy_cost_experiment,
    log_harnack_experiment,
    meanfield_entropy_cost_experiment,
    mismatch_singularity_experiment,
    talagrand_experiment,
)
from .measures import EmpiricalMeasure, GaussianMeasure, _is_positive
from .oracles import linear_sde_law
from .divergence import kl_gaussian
from .reports import write_plot_csv

ENV_OUT_ROOT = "ENTROFLOW_OUT"
RUN_KEYS = ("experiment", "seed", "out", "formats")
FORMATS = ("json", "csv")


class CliError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _vec(text):
    return np.asarray([float(v) for v in str(text).replace(";", ",").split(",") if v != ""])


#: type -> parse; an "int" must be positive, a "time" a positive float
_CASTS = {
    "int": int,
    "float": float,
    "time": float,
    "str": str,
    "vec": _vec,
}


def _param(kind, default, help_text, choices=None):
    return {"type": kind, "default": default, "help": help_text, "choices": choices}


def _padded(p, key, d):
    """The vector parameter p[key] padded with zeros to length d; more than d entries raise CliError."""
    vec = p[key]
    if vec.size > d:
        raise CliError(f"parameter {key!r}: {vec.size} entries, more than d={d}")
    out = np.zeros(d)
    out[: vec.size] = vec
    return out


def _run_talagrand(p, seed):
    d = p["d"]
    nu = GaussianMeasure(_padded(p, "mean", d), p["cov_scale"] * np.eye(d))
    rep = talagrand_experiment(nu, seed=seed)
    rows = [(0, rep.left, rep.right)]
    return rep, ("index", "w2_sq", "two_entropy"), rows


_TAL_PARAMS = {
    "d": _param("int", 2, "dimension"),
    "mean": _param("vec", "1.0", "mean of nu (padded with zeros to d)"),
    "cov_scale": _param("float", 1.0, "nu covariance = cov_scale * identity"),
}


_SPEC_PARAMS = lambda tag: {
    f"{tag}_kind": _param(
        "str", "heat", f"catalog name: {' | '.join(catalog.LINEAR_NAMES)}", choices=catalog.LINEAR_NAMES
    ),
    f"{tag}_a": _param("float", 1.0, "diffusion scale"),
    f"{tag}_rate": _param("float", 1.0, "ou reversion rate"),
    f"{tag}_c": _param("float", 1.0, "constant drift (drift-gap)"),
}


#: the inputs of an experiment on two catalog linear flows started at two different points
_LINEAR_PAIR_PARAMS = {
    "d": _param("int", 1, "dimension"),
    **_SPEC_PARAMS("spec1"),
    **_SPEC_PARAMS("spec2"),
    "x1": _param("vec", "0.0", "start of flow 1 (padded with zeros to d)"),
    "x2": _param("vec", "1.0", "start of flow 2 (padded with zeros to d)"),
}


def _linear_pair(p, horizon):
    """(spec1, spec2, x1, x2) read from _LINEAR_PAIR_PARAMS; the specs are defined on [0, horizon]."""
    d = p["d"]
    spec1, spec2 = (
        catalog.make_linear_spec(p[f"{t}_kind"], d, horizon, a=p[f"{t}_a"], rate=p[f"{t}_rate"], c=p[f"{t}_c"])
        for t in ("spec1", "spec2")
    )
    return spec1, spec2, _padded(p, "x1", d), _padded(p, "x2", d)


def _run_entropy_cost(p, seed):
    spec1, spec2, x1, x2 = _linear_pair(p, p["t_max"])
    t_grid = np.geomspace(p["t_min"], p["t_max"], p["n_t"])
    rep = entropy_cost_experiment(spec1, spec2, x1, x2, t_grid)
    rows = rep.params["grid_rows"]
    return rep, ("t", "entropy", "t_entropy"), rows


_EC_PARAMS = {
    **_LINEAR_PAIR_PARAMS,
    "t_min": _param("time", 0.01, "smallest grid time"),
    "t_max": _param("time", 1.0, "largest grid time"),
    "n_t": _param("int", 12, "log-spaced grid size"),
}


#: pair -> catalog name and diffusion-scale parameter of the second field;
#: the first field is always heat with diffusion scale a1
_MISMATCH_SECOND = {"drift-gap": ("drift-gap", "a1"), "diffusion-gap": ("heat", "a2"), "equal": ("heat", "a1")}


def _run_mismatch(p, seed):
    d, t = p["d"], p["t"]
    name2, a2 = _MISMATCH_SECOND[p["pair"]]
    s1 = catalog.make_linear_spec("heat", d, horizon=t, a=p["a1"])
    s2 = catalog.make_linear_spec(name2, d, horizon=t, a=p[a2], c=p["c"])
    true_ent = kl_gaussian(linear_sde_law(s1, t), linear_sde_law(s2, t))
    # two linear specs: the bound is evaluated exactly, with no draws
    case = MismatchCase(field1=s1, field2=s2, true_entropy=true_ent, label=p["pair"])
    rep = mismatch_singularity_experiment([case], t, seed=seed)
    rows = [(p["pair"], true_ent, rep.params["cases"][0]["bound"])]
    return rep, ("pair", "true_entropy", "bound"), rows


_MM_PARAMS = {
    "d": _param("int", 1, "dimension"),
    "pair": _param("str", "drift-gap", " | ".join(_MISMATCH_SECOND), choices=tuple(_MISMATCH_SECOND)),
    "c": _param("float", 1.0, "drift gap"),
    "a1": _param("float", 1.0, "first diffusion scale"),
    "a2": _param("float", 2.0, "second diffusion scale (diffusion-gap)"),
    "t": _param("time", 0.5, "horizon"),
}


def _run_bridge(p, seed):
    spec1, spec2, x1, x2 = _linear_pair(p, p["t1"])
    rep = bridge_decomposition_experiment(spec1, spec2, x1, x2, p["t1"], p["epsilon"], p["p"])
    sweep = bridge_epsilon_sweep(spec1, spec2, x1, p["t1"], p["p"])
    rows = [(eps, first, rep.right) for eps, first in sweep]
    return rep, ("epsilon", "first_term", "right_side"), rows


_BR_PARAMS = {
    **_LINEAR_PAIR_PARAMS,
    "t1": _param("time", 1.0, "terminal time"),
    "epsilon": _param("float", 0.5, "switch fraction in (0, 1/2]"),
    "p": _param("float", 2.0, "interpolation power (> 1)"),
}


def _run_log_harnack(p, seed):
    rep = log_harnack_experiment(p["k_curv"], p["t"], p["x"], p["y"])
    rows = [(r["label"], r["left"], r["right"]) for r in rep.params["functions"]]
    return rep, ("function", "left", "right"), rows


_LH_PARAMS = {
    "k_curv": _param("float", 0.0, "curvature parameter (0 = heat flow)"),
    "t": _param("time", 0.5, "time"),
    "x": _param("vec", "0.0", "left evaluation point"),
    "y": _param("vec", "1.0", "right evaluation point"),
}


def _measure_from(p, tag, d):
    mean = _padded(p, f"{tag}_mean", d)
    scale = p[f"{tag}_cov_scale"]
    if scale < 0:
        raise CliError(f"parameter '{tag}_cov_scale': {scale!r} is negative")
    if scale == 0:
        return EmpiricalMeasure(mean[None, :])
    return GaussianMeasure(mean, scale * np.eye(d))


def _run_meanfield_ec(p, seed):
    d = p["d"]
    field = catalog.make_mv_field(p["field_kind"], d=d, rate=p["field_rate"], a=p["field_a"])
    nu1 = _measure_from(p, "nu1", d)
    nu2 = _measure_from(p, "nu2", d)
    if type(nu1) is not type(nu2):
        raise CliError("parameters 'nu1_cov_scale' and 'nu2_cov_scale' must both be 0 (points) or both be positive")
    t_grid = np.geomspace(p["t_min"], p["t_max"], p["n_t"])
    rep = meanfield_entropy_cost_experiment(
        field, nu1, nu2, t_grid, p["n_particles"], p["n_steps"], seed=seed, k=p["k"]
    )
    rows = rep.params["grid_rows"]
    return rep, ("t", "entropy_estimate", "stderr"), rows


_MF_PARAMS = {
    "d": _param("int", 1, "dimension"),
    "field_kind": _param("str", "mean-field-ou", "catalog name", choices=catalog.MEAN_FIELD_NAMES),
    "field_rate": _param("float", 1.0, "interaction/reversion rate"),
    "field_a": _param("float", 0.5, "diffusion scale"),
    "nu1_mean": _param("vec", "0.0", "first initial mean (padded with zeros to d)"),
    "nu1_cov_scale": _param("float", 0.0, "first initial covariance scale (0 = point)"),
    "nu2_mean": _param("vec", "1.0", "second initial mean (padded with zeros to d)"),
    "nu2_cov_scale": _param("float", 0.0, "second initial covariance scale (0 = point)"),
    "t_min": _param("time", 0.1, "smallest grid time"),
    "t_max": _param("time", 0.5, "largest grid time"),
    "n_t": _param("int", 3, "grid size"),
    "n_particles": _param("int", 2000, "cloud size"),
    "n_steps": _param("int", 64, "integration steps"),
    "k": _param("int", 5, "k-NN parameter"),
}


EXPERIMENTS = {
    "talagrand": ("transport cost vs twice the entropy against the standard Gaussian", _TAL_PARAMS, _run_talagrand),
    "entropy_cost": ("1/t rate of the entropy between two linear flows", _EC_PARAMS, _run_entropy_cost),
    "mismatch_singularity": ("entropy bound validity and its diffusion-gap blowup", _MM_PARAMS, _run_mismatch),
    "bridge_decomposition": ("entropy decomposition through the switched-generator law", _BR_PARAMS, _run_bridge),
    "log_harnack": ("semigroup log-Harnack inequality with quadratic cost", _LH_PARAMS, _run_log_harnack),
    "meanfield_entropy_cost": ("estimated entropy-cost constant of the particle flow", _MF_PARAMS, _run_meanfield_ec),
}


def _typed(schema, key, raw):
    if key not in schema:
        raise CliError(f"unknown parameter {key!r}")
    spec = schema[key]
    try:
        val = _CASTS[spec["type"]](raw)
    except (TypeError, ValueError) as exc:
        raise CliError(f"parameter {key!r}: cannot parse {raw!r} as {spec['type']}") from exc
    if spec["type"] == "int" and val < 1:
        raise CliError(f"parameter {key!r}: {val!r} is not a positive integer")
    if spec["type"] in ("float", "time", "vec") and not np.all(np.isfinite(val)):
        raise CliError(f"parameter {key!r}: {raw!r} is not finite")
    if spec["type"] == "time" and not _is_positive(val):
        raise CliError(f"parameter {key!r}: {val!r} is not a positive time")
    if spec["choices"] and val not in spec["choices"]:
        raise CliError(f"parameter {key!r}: {val!r} not in {spec['choices']}")
    return val


def load_config(path):
    cfg = configparser.ConfigParser()
    try:
        read = cfg.read(path)
    except configparser.Error as exc:
        raise CliError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise CliError(f"cannot read config file {path}")
    run = dict(cfg["run"]) if cfg.has_section("run") else {}
    params = dict(cfg["params"]) if cfg.has_section("params") else {}
    return run, params


def resolve_params(name, raw_params):
    if name not in EXPERIMENTS:
        raise CliError(f"unknown experiment {name!r}; see `entroflow list`")
    schema = EXPERIMENTS[name][1]
    params = {k: _typed(schema, k, v["default"]) for k, v in schema.items()}
    for k, v in raw_params.items():
        params[k] = _typed(schema, k, v)
    # a parameter given for a catalog entry must be one that entry takes
    for k in raw_params:
        tag, _, p = k.partition("_")
        kind = params.get(f"{tag}_kind")
        if kind is not None and p != "kind" and p not in catalog.param_names(kind):
            raise CliError(f"parameter {k!r}: {tag}_kind {kind!r} takes no {p!r}")
    return params


def _out_dir(out):
    root = os.environ.get(ENV_OUT_ROOT)
    if root and not os.path.isabs(out):
        out = os.path.join(root, out)
    os.makedirs(out, exist_ok=True)
    return out


def run_single(config_path, overrides):
    run_cfg, raw_params = ({}, {}) if config_path is None else load_config(config_path)
    run_cfg.update({k: v for k, v in overrides.items() if k in ("experiment", "seed", "out") and v is not None})
    for k, v in overrides.get("sets", []):
        raw_params[k] = v
    unknown = sorted(set(run_cfg) - set(RUN_KEYS))
    if unknown:
        raise CliError(f"unknown [run] key(s) {unknown}; choose from {RUN_KEYS}")
    name = run_cfg.get("experiment")
    if not name:
        raise CliError("no experiment selected (config [run] experiment= or --experiment)")
    formats = [f.strip() for f in str(run_cfg.get("formats", "json,csv")).split(",") if f.strip()]
    if not formats or not set(formats) <= set(FORMATS):
        raise CliError(f"[run] formats must list one or more of {FORMATS}, got {run_cfg['formats']!r}")
    seed = int(run_cfg.get("seed", 0))
    params = resolve_params(name, raw_params)
    report, header, rows = EXPERIMENTS[name][2](params, seed)
    out = _out_dir(run_cfg.get("out", "out"))
    report.seed = seed
    report.stamp()
    written = []
    if "json" in formats:
        path = os.path.join(out, f"{name}_report.json")
        with open(path, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        written.append(path)
    if "csv" in formats:
        path = os.path.join(out, f"{name}_plot.csv")
        write_plot_csv(path, header, rows)
        written.append(path)
    print(f"{name}: verdict={report.verdict} left={report.left:.6g} right={report.right:.6g}")
    for path in written:
        print(f"  wrote {path}")
    return report


def cmd_run(args):
    overrides = {
        "experiment": args.experiment,
        "seed": args.seed,
        "out": args.out,
        "sets": [s.split("=", 1) for s in args.set or []],
    }
    for s in overrides["sets"]:
        if len(s) != 2:
            raise CliError("--set needs key=value")
    configs = args.config or [None]
    if len(configs) > 1 and args.out is not None:
        raise CliError("--out cannot be shared across multiple configs; set out per config")
    reports = []
    if args.jobs > 1 and len(configs) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(run_single, c, overrides) for c in configs]
            reports = [f.result() for f in futures]
    else:
        reports = [run_single(c, overrides) for c in configs]
    if any(r.verdict == "violated" for r in reports):
        return 2
    return 0


def cmd_list(args):
    if args.json:
        payload = {
            name: {
                "summary": summary,
                "params": {
                    k: {kk: vv for kk, vv in spec.items() if vv is not None}
                    for k, spec in schema.items()
                },
            }
            for name, (summary, schema, _) in EXPERIMENTS.items()
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for name, (summary, schema, _) in EXPERIMENTS.items():
        print(f"{name}: {summary}")
        for k, spec in schema.items():
            extra = f" choices={spec['choices']}" if spec["choices"] else ""
            print(f"    {k} ({spec['type']}, default {spec['default']!r}){extra}: {spec['help']}")
    return 0


def build_parser():
    parser = Parser(prog="entroflow", description="inequality experiment runner")
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run experiment(s) from config and/or flags")
    run_p.add_argument("config", nargs="*", help="INI config file(s)")
    run_p.add_argument("--experiment", help="experiment name (overrides config)")
    run_p.add_argument("--seed", type=int, help="master seed (overrides config)")
    run_p.add_argument("--out", help="output directory (single config only)")
    run_p.add_argument("--set", action="append", metavar="KEY=VALUE", help="parameter override")
    run_p.add_argument("--jobs", type=int, default=1, help="run configs concurrently")
    list_p = sub.add_parser("list", help="print the experiment catalog")
    list_p.add_argument("--json", action="store_true", help="machine-readable schemas")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "list":
            return cmd_list(args)
        parser.print_usage(sys.stderr)
        return 1
    except (CliError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
