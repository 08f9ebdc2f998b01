"""Configuration-driven experiment runner.

Configs are INI files with a [run] section (experiment, seed, out, formats)
and a [params] section typed per the experiment's schema; every value can be
overridden from the command line.  Reports are written as JSON (sorted keys,
so two runs of one config differ only in the timestamp) plus plot-ready CSV.

Exit codes: 0 when every verdict is holds/degenerate/divergent (divergence
can be the expected finding), 2 when any verdict is "violated", 1 on
operational errors.
"""

import argparse
import concurrent.futures
import configparser
import json
import math
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
from .measures import EmpiricalMeasure, GaussianMeasure
from .oracles import linear_sde_law
from .divergence import kl_gaussian
from .reports import write_plot_csv

ENV_OUT_ROOT = "ENTROFLOW_OUT"


class CliError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _vec(text):
    return np.asarray([float(v) for v in str(text).replace(";", ",").split(",") if v != ""])


_CASTS = {
    "int": int,
    "float": float,
    "str": str,
    "vec": _vec,
}


def _param(kind, default, help_text, choices=None):
    return {"type": kind, "default": default, "help": help_text, "choices": choices}


def _run_talagrand(p, seed):
    d = p["d"]
    mean = np.zeros(d)
    mean[: min(d, p["mean"].size)] = p["mean"][:d]
    nu = GaussianMeasure(mean, p["cov_scale"] * np.eye(d))
    rep = talagrand_experiment(nu, seed=seed)
    rows = [(0, rep.left, rep.right)]
    return rep, ("index", "w2_sq", "two_entropy"), rows


_TAL_PARAMS = {
    "d": _param("int", 2, "dimension"),
    "mean": _param("vec", "1.0", "mean of nu (padded with zeros to d)"),
    "cov_scale": _param("float", 1.0, "nu covariance = cov_scale * identity"),
}


def _linear_spec_from(p, tag, d):
    name = p[f"{tag}_kind"]
    return catalog.make_linear_spec(
        name,
        d=d,
        horizon=max(p.get("t_max", 1.0), p.get("t1", 1.0), 1.0),
        a=p[f"{tag}_a"],
        rate=p[f"{tag}_rate"],
        c=p[f"{tag}_c"],
    )


_SPEC_PARAMS = lambda tag: {
    f"{tag}_kind": _param(
        "str", "heat", f"catalog name: {' | '.join(catalog.LINEAR_NAMES)}", choices=catalog.LINEAR_NAMES
    ),
    f"{tag}_a": _param("float", 1.0, "diffusion scale"),
    f"{tag}_rate": _param("float", 1.0, "ou reversion rate"),
    f"{tag}_c": _param("float", 1.0, "constant drift (drift-gap)"),
}


def _run_entropy_cost(p, seed):
    d = p["d"]
    spec1 = _linear_spec_from(p, "spec1", d)
    spec2 = _linear_spec_from(p, "spec2", d)
    t_grid = np.geomspace(p["t_min"], p["t_max"], p["n_t"])
    rep = entropy_cost_experiment(spec1, spec2, p["x1"][:d], p["x2"][:d], t_grid, p["bound_factor"])
    rows = rep.params["grid_rows"]
    return rep, ("t", "entropy", "t_entropy"), rows


_EC_PARAMS = {
    "d": _param("int", 1, "dimension"),
    **_SPEC_PARAMS("spec1"),
    **_SPEC_PARAMS("spec2"),
    "x1": _param("vec", "0.0", "start of flow 1"),
    "x2": _param("vec", "1.0", "start of flow 2"),
    "t_min": _param("float", 0.01, "smallest grid time"),
    "t_max": _param("float", 1.0, "largest grid time"),
    "n_t": _param("int", 12, "log-spaced grid size"),
    "bound_factor": _param("float", 10.0, "boundedness factor for t*Ent"),
}


#: pair -> catalog name and diffusion-scale parameter of the second field;
#: the first field is always heat with diffusion scale a1
_MISMATCH_SECOND = {"drift-gap": ("drift-gap", "a1"), "diffusion-gap": ("heat", "a2"), "equal": ("heat", "a1")}


def _run_mismatch(p, seed):
    d, t = p["d"], p["t"]
    name2, a2 = _MISMATCH_SECOND[p["pair"]]
    f1 = catalog.make_field("heat", d, horizon=t, a=p["a1"])
    s1 = catalog.make_linear_spec("heat", d, horizon=t, a=p["a1"])
    f2 = catalog.make_field(name2, d, horizon=t, a=p[a2], c=p["c"])
    s2 = catalog.make_linear_spec(name2, d, horizon=t, a=p[a2], c=p["c"])
    true_ent = kl_gaussian(linear_sde_law(s1, t), linear_sde_law(s2, t))
    case = MismatchCase(
        field1=f1,
        field2=f2,
        law_provider=lambda s: linear_sde_law(s1, s),
        true_entropy=true_ent,
        label=p["pair"],
    )
    rep = mismatch_singularity_experiment([case], t, n_mc=p["n_mc"], seed=seed)
    bound = rep.params["cases"][0]["bound"]
    rows = [(p["pair"], true_ent, bound if math.isfinite(bound) else "inf")]
    return rep, ("pair", "true_entropy", "bound"), rows


_MM_PARAMS = {
    "d": _param("int", 1, "dimension"),
    "pair": _param("str", "drift-gap", " | ".join(_MISMATCH_SECOND), choices=tuple(_MISMATCH_SECOND)),
    "c": _param("float", 1.0, "drift gap"),
    "a1": _param("float", 1.0, "first diffusion scale"),
    "a2": _param("float", 2.0, "second diffusion scale (diffusion-gap)"),
    "t": _param("float", 0.5, "horizon"),
    "n_mc": _param("int", 500, "Monte Carlo draws per quadrature node"),
}


def _run_bridge(p, seed):
    d = p["d"]
    spec1 = _linear_spec_from(p, "spec1", d)
    spec2 = _linear_spec_from(p, "spec2", d)
    rep = bridge_decomposition_experiment(
        spec1, spec2, p["x1"][:d], p["x2"][:d], p["t1"], p["epsilon"], p["p"]
    )
    sweep = bridge_epsilon_sweep(spec1, spec2, p["x1"][:d], p["t1"], p["p"])
    rows = [(eps, first, rep.right) for eps, first in sweep]
    return rep, ("epsilon", "first_term", "right_side"), rows


_BR_PARAMS = {
    "d": _param("int", 1, "dimension"),
    **_SPEC_PARAMS("spec1"),
    **_SPEC_PARAMS("spec2"),
    "x1": _param("vec", "0.0", "start of flow 1"),
    "x2": _param("vec", "0.0", "start of flow 2"),
    "t1": _param("float", 1.0, "terminal time"),
    "epsilon": _param("float", 0.5, "switch fraction in (0, 1/2]"),
    "p": _param("float", 2.0, "interpolation power (> 1)"),
}


def _run_log_harnack(p, seed):
    rep = log_harnack_experiment(p["k_curv"], p["t"], p["x"], p["y"])
    rows = [(r["label"], r["left"], r["right"]) for r in rep.params["functions"]]
    return rep, ("function", "left", "right"), rows


_LH_PARAMS = {
    "k_curv": _param("float", 0.0, "curvature parameter (0 = heat flow)"),
    "t": _param("float", 0.5, "time"),
    "x": _param("vec", "0.0", "left evaluation point"),
    "y": _param("vec", "1.0", "right evaluation point"),
}


def _measure_from(p, tag, d):
    mean = np.zeros(d)
    given = p[f"{tag}_mean"]
    mean[: min(d, given.size)] = given[:d]
    scale = p[f"{tag}_cov_scale"]
    if scale <= 0:
        return EmpiricalMeasure(mean[None, :])
    return GaussianMeasure(mean, scale * np.eye(d))


def _run_meanfield_ec(p, seed):
    d = p["d"]
    field = catalog.make_mv_field(p["field_kind"], d=d, rate=p["field_rate"], a=p["field_a"])
    nu1 = _measure_from(p, "nu1", d)
    nu2 = _measure_from(p, "nu2", d)
    t_grid = np.geomspace(p["t_min"], p["t_max"], p["n_t"])
    rep = meanfield_entropy_cost_experiment(
        field, nu1, nu2, t_grid, p["n_particles"], p["n_steps"], seed=seed, k=p["k"]
    )
    rows = rep.params["grid_rows"]
    return rep, ("t", "entropy_estimate", "stderr"), rows


_MF_PARAMS = {
    "d": _param("int", 1, "dimension"),
    "field_kind": _param(
        "str", "mean-field-ou", "catalog name", choices=catalog.INTERACTING_NAMES + catalog.LINEAR_NAMES
    ),
    "field_rate": _param("float", 1.0, "interaction/reversion rate"),
    "field_a": _param("float", 0.5, "diffusion scale"),
    "nu1_mean": _param("vec", "0.0", "first initial mean"),
    "nu1_cov_scale": _param("float", 0.0, "first initial covariance scale (0 = point)"),
    "nu2_mean": _param("vec", "1.0", "second initial mean"),
    "nu2_cov_scale": _param("float", 0.0, "second initial covariance scale (0 = point)"),
    "t_min": _param("float", 0.1, "smallest grid time"),
    "t_max": _param("float", 0.5, "largest grid time"),
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
    if spec["choices"] and val not in spec["choices"]:
        raise CliError(f"parameter {key!r}: {val!r} not in {spec['choices']}")
    return val


def load_config(path):
    cfg = configparser.ConfigParser()
    read = cfg.read(path)
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
    name = run_cfg.get("experiment")
    if not name:
        raise CliError("no experiment selected (config [run] experiment= or --experiment)")
    seed = int(run_cfg.get("seed", 0))
    out = _out_dir(run_cfg.get("out", "out"))
    formats = [f.strip() for f in str(run_cfg.get("formats", "json,csv")).split(",") if f.strip()]
    params = resolve_params(name, raw_params)
    report, header, rows = EXPERIMENTS[name][2](params, seed)
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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
