"""The benchmark workloads (bench/workloads.py) call experiments and the CLI
by position and keyword.  A change to one of those call contracts must fail
here, not only in a benchmark run."""

import importlib.util
import os

import pytest

from entroflow import cli

WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "workloads.py")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["sde-montecarlo", "oracle-quadrature", "transport-ot", "cli-sweep"])
def test_determinism_probe_repeats(name, tmp_path, monkeypatch):
    # the cli-sweep probe sets the output root in os.environ; restore it afterwards
    monkeypatch.delenv(cli.ENV_OUT_ROOT, raising=False)
    workload = _load_workloads().build(name, 1, tmp_path / name)
    first = workload.determinism()
    assert first == workload.determinism()
