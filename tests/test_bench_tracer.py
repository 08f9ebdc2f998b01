"""The traced benchmark run (bench/tracer.py) wraps entroflow entry points
looked up by name.  Renaming or deleting one must fail here, not only in a
traced run."""

import importlib.util
import os
import sys

import entroflow.catalog  # noqa: F401
import entroflow.cli  # noqa: F401

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    """Every attribute of every loaded entroflow module and of its classes."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if name != "entroflow" and not name.startswith("entroflow."):
            continue
        for attr, value in vars(module).items():
            snap[(name, attr)] = value
            if isinstance(value, type):
                for cls_attr, cls_value in vars(value).items():
                    snap[(name, attr, cls_attr)] = cls_value
    return snap


def test_install_wraps_every_entry_point_and_uninstall_restores_it():
    tracer = _load_tracer()
    before = _snapshot()
    tr = tracer.Tracer()
    try:
        tr.install()
        during = _snapshot()
    finally:
        tr.uninstall()
    after = _snapshot()
    wrapped = {key for key, value in before.items() if during.get(key) is not value}
    for mod_name, attr, *_ in tracer.SPANS + tracer.KERNELS:
        key = (f"entroflow.{mod_name}", *attr.split("."))
        assert key in wrapped, f"{'.'.join(key)} not wrapped"
    assert after.keys() == before.keys()
    still_wrapped = [key for key, value in before.items() if after[key] is not value]
    assert not still_wrapped, f"not restored: {still_wrapped}"
