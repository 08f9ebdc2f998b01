"""Source layout rules that no single behaviour test would catch."""

import ast
import importlib
from pathlib import Path

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
