"""Digest of CLI reports, for checking that a change leaves them byte-identical.

Runs `entroflow run` from this checkout's `src` on a fixed list of configs,
each into its own temporary directory, and prints one line per run:

    <config>  json=<sha256>  csv=<sha256>  exit=<code>

The JSON digest is taken with the `timestamp` line removed, and a file the
run did not write digests as `-`.  The configs are the six experiments at
their defaults for seeds 0 and 7, plus the non-default configs in `EXTRA`.
Run it on two checkouts and compare the outputs:

    python tools/report_digest.py > digest.txt
    python tools/report_digest.py "log_harnack seed=0"   # only the named configs

A config is `<experiment> seed=<n>` followed by `key=value` parameter
overrides.  Uses only the standard library and entroflow.
"""

import hashlib
import os
import re
import subprocess
import sys
import tempfile

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


def main(argv):
    for config in argv or CONFIGS:
        print(digest(config), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
