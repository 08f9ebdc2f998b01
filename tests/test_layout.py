"""Source layout rules that no single behaviour test would catch."""

import ast
import importlib
from pathlib import Path

import numpy as np

from entroflow import (
    EmpiricalMeasure,
    MismatchCase,
    linear_sde_law,
    mismatch_singularity_experiment,
    talagrand_experiment,
)
from entroflow import _rng
from entroflow.catalog import constant_drift_field, heat_field, heat_spec, ou_field

SRC = Path(__file__).resolve().parent.parent / "src" / "entroflow"

#: reports (ExperimentReport JSON and the plot CSV) are the package's only
#: file format, and the CLI that writes them its only other reader or writer
FORMAT_MODULES = {"reports.py", "cli.py"}


def imported_modules(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_only_reports_and_cli_import_file_formats():
    modules = sorted(SRC.glob("*.py"))
    assert {p.name for p in modules} >= FORMAT_MODULES
    offenders = {p.name for p in modules if imported_modules(p) & {"csv", "json"}} - FORMAT_MODULES
    assert not offenders, f"csv/json imported outside {sorted(FORMAT_MODULES)}: {sorted(offenders)}"


def test_every_exported_name_resolves():
    exported = 0
    for path in sorted(SRC.glob("*.py")):
        name = "entroflow" if path.stem == "__init__" else f"entroflow.{path.stem}"
        module = importlib.import_module(name)
        names = getattr(module, "__all__", ())
        exported += len(names)
        missing = [n for n in names if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names what the module does not define: {missing}"
    assert exported, "no module declares __all__"


def _names_seed(node):
    """Whether node is a name or attribute whose name contains "seed"."""
    name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else ""
    return "seed" in name.lower()


def test_no_arithmetic_on_seeds():
    # a seed derived by adding to another keys streams that a neighbouring
    # seed draws too; every draw site has its own key in _rng instead
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
                operands = (node.left, node.right)
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub)):
                operands = (node.target, node.value)
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
                operands = (node.operand,)
            else:
                continue
            if any(_names_seed(op) for op in operands):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"arithmetic on a seed: {offenders}"


def test_draw_site_keys_are_distinct():
    sites = {name: v for name, v in vars(_rng).items() if name.isupper() and isinstance(v, tuple)}
    assert len(sites) >= 7
    assert all(len(v) == 2 and all(isinstance(x, int) for x in v) for v in sites.values())
    assert len(set(sites.values())) == len(sites), sites


def _keys_at(keys, seeds, run):
    """{seed: the set of keys run(seed) builds}."""
    out = {}
    for seed in seeds:
        keys.clear()
        run(seed)
        out[seed] = set(keys)
    return out


def test_talagrand_seeds_share_no_draws(philox_keys):
    i = np.arange(300)
    nu = EmpiricalMeasure(np.column_stack([np.cos(2.4 * i), np.sin(2.4 * i)]) * np.sqrt(i / 300.0)[:, None])
    by_seed = _keys_at(philox_keys, (0, 1), lambda seed: talagrand_experiment(nu, seed=seed))
    assert len(by_seed[0]) == 3 and not by_seed[0] & by_seed[1]


def test_mismatch_seeds_share_no_draws(philox_keys):
    s1 = heat_spec(1, 1.0, x0=[0.0])
    law = lambda s: linear_sde_law(s1, s)
    cases = [
        MismatchCase(heat_field(1), constant_drift_field(1), law),
        MismatchCase(heat_field(1), ou_field(1, 1.0, 1.0), law),
    ]
    run = lambda seed: mismatch_singularity_experiment(cases, 0.5, n_mc=20, seed=seed, n_nodes=8)
    by_seed = _keys_at(philox_keys, (0, 1), run)
    assert by_seed[0] and not by_seed[0] & by_seed[1]
