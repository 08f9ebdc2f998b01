"""One fresh benchmark process: set up a workload, then run timed passes.

Started by bench/run.py, which pins the BLAS thread count in the
environment before this process imports numpy.  Prints one JSON line:

* `ready_at`: time.monotonic() when the inputs were ready (whoever
  spawned the process subtracts its own monotonic clock at spawn to get
  set-up time; CLOCK_MONOTONIC is shared by all processes);
* with --seconds > 0: every task's time in every untraced pass, the
  set-up time of every probe spawned between passes, the host speed
  readings taken before each of them (bench/speed.py), the task checks and the
  determinism probe, peak RSS and, with --trace 1, the per-layer metrics
  of the traced passes that follow the untraced ones.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: pass seconds per set-up probe spawned after a pass (1 to 4 per pass)
SETUP_PROBE_EVERY_S = 3.0
PROBE_TIMEOUT_S = 60


def _import_entroflow():
    """entroflow from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    import entroflow

    if not os.path.abspath(entroflow.__file__).startswith(SRC + os.sep):
        raise ImportError(f"entroflow imported from {entroflow.__file__}, not {SRC}")


def _versions():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def run_pass(workload, failures, speed=None):
    """Time every task once; check each output outside its timed interval.

    Returns the seconds each task took.  With `speed`, the host speed is
    read once before every task.
    """
    times = []
    for task in workload.tasks:
        if speed is not None:
            speed.read()
        start = time.perf_counter()
        try:
            out = task.run()
            raised = None
        except Exception:
            raised = traceback.format_exc()
        times.append(time.perf_counter() - start)
        if raised is not None:
            failures.append(f"{task.name}: raised\n{raised}")
            continue
        try:
            task.check(out)
        except Exception as exc:
            failures.append(f"{task.name}: {type(exc).__name__}: {exc}")
        del out
    return times


def probe_setup(args, speed):
    """Seconds from spawning a fresh worker until its inputs are ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", args.workdir]
    speed.read()
    spawned = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready_at"] - spawned


def measure(workload, args):
    """Untraced passes for the run (half of it when tracing), then traced ones.

    Untraced runs spawn set-up probes between passes, about one per
    SETUP_PROBE_EVERY_S of pass time, so set-up samples spread over the run
    instead of sharing one stretch of machine state.
    """
    from speed import HostSpeed

    with HostSpeed() as speed:
        return _measure(workload, args, speed)


def _measure(workload, args, speed):
    from tracer import Tracer, layer_metrics

    failures = []
    attempted = 0
    untraced, setups = [], []
    budget = args.seconds / 2.0 if args.trace else args.seconds
    spent = 0.0  # in passes and their checks, not in set-up probes
    while not untraced or spent < budget:
        start = time.monotonic()
        untraced.append(run_pass(workload, failures, speed))
        spent += time.monotonic() - start
        attempted += len(workload.tasks)
        if not args.trace:
            for _ in range(max(1, min(4, int(sum(untraced[-1]) // SETUP_PROBE_EVERY_S)))):
                setups.append(probe_setup(args, speed))
    layers = None
    if args.trace:
        traced, per_pass = [], []
        start = time.monotonic()
        while not traced or time.monotonic() - start < args.seconds - budget:
            with Tracer() as tr:
                traced.append(sum(run_pass(workload, failures)))
            attempted += len(workload.tasks)
            per_pass.append(layer_metrics(tr))
        layers = {
            name: (statistics.fmean(p[name][0] for p in per_pass), unit)
            for name, (_, unit) in per_pass[0].items()
        }
        untraced_s = statistics.median(sum(times) for times in untraced)
        layers["trace.overhead_frac"] = (statistics.median(traced) / untraced_s - 1.0, "ratio")
    attempted += 1
    try:
        first, second = workload.determinism(), workload.determinism()
        if first != second:
            failures.append("determinism: report JSON differs between two identical runs")
    except Exception:
        failures.append(f"determinism: raised\n{traceback.format_exc()}")
    return {
        "task_s": {task.name: list(times) for task, times in zip(workload.tasks, zip(*untraced))},
        "setup_s": setups,
        "readings": speed.readings,
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
        "versions": _versions(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0, help="0: set up only")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True, help="scratch directory for generated files")
    args = ap.parse_args(argv)

    _import_entroflow()
    sys.path.insert(0, HERE)
    import workloads

    workdir = tempfile.mkdtemp(dir=args.workdir)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        record = {"ready_at": time.monotonic()}
        if args.seconds > 0:
            record.update(measure(workload, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
