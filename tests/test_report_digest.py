import os
import re
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "report_digest.py")


def test_one_line_per_config():
    # a valid run digests both files; a run stopped by bad input wrote neither
    configs = ["log_harnack seed=0", "entropy_cost seed=0 t_min=2"]
    out = subprocess.run([sys.executable, TOOL, *configs], capture_output=True, text=True, timeout=120, check=True)
    lines = out.stdout.splitlines()
    assert len(lines) == 2
    assert re.fullmatch(r"log_harnack seed=0  json=[0-9a-f]{64}  csv=[0-9a-f]{64}  exit=0", lines[0])
    assert lines[1] == "entropy_cost seed=0 t_min=2  json=-  csv=-  exit=1"


def test_one_line_per_library_probe():
    # a lib: entry runs a library probe in place of a CLI config
    probes = ["lib:bridge", "lib:paths", "lib:draws"]
    out = subprocess.run([sys.executable, TOOL, *probes], capture_output=True, text=True, timeout=120, check=True)
    lines = out.stdout.splitlines()
    assert len(lines) == len(probes)
    for probe, line in zip(probes, lines):
        assert re.fullmatch(rf"{probe}  sha=[0-9a-f]{{64}}", line)
