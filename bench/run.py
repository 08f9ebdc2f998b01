"""entroflow benchmark: four workloads, end-to-end and per-layer metrics.

Measure one workload (the last stdout line is the result JSON):

    python3 bench/run.py --workload sde-montecarlo --seed 1 --seconds 20 --trace 0

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones.  `--out FILE` also appends the result, the run's
arguments and the environment to FILE as one JSON line, and

    python3 bench/run.py --compare base.jsonl change.jsonl

prints, per workload and metric, both sides' median and quartiles, the
ratio with its base and the verdict under BENCHMARK.json's bounds.

This process needs only the standard library.  The measured processes are
fresh interpreters (bench/worker.py) started with the BLAS thread count
pinned to BLAS_THREADS.  See bench/README.md.
"""

import argparse
import collections
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
#: a worker that takes longer than this is killed and the run fails
WORKER_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: the single-threaded baseline: at 2 OpenBLAS threads on a 2-CPU host the
#: same small call ran 40 times slower in some calls than in others
BLAS_THREADS = 1
#: timings are reported at the host speed at which the reference kernel of
#: bench/speed.py takes this long (a little faster than the fast stretches
#: of the 2-CPU VM the benchmark was built on)
REFERENCE_READING_S = 1.0e-3
#: share of the readings dropped at each end before averaging them
READING_TRIM = 0.2


class BenchError(RuntimeError):
    pass


def _git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _spawn(args, env):
    """Run one worker to completion and return its record."""
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _environment(env, versions, workload, seed):
    """What the numbers depend on, recorded next to them."""
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "workload": workload,
        "seed": seed,
    }


def _trimmed_mean(values, cut=READING_TRIM):
    """Mean of the values left after dropping `cut` of them at each end.

    The host runs in a fast and a slow mode, so the median of a run's
    readings jumps to whichever mode holds most of them, while their mean
    follows the share of each; trimming keeps single spikes out.
    """
    values = sorted(values)
    k = int(len(values) * cut)
    return statistics.fmean(values[k : len(values) - k])


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def measure(spec, workload, seed, seconds, trace):
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    workdir = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(workdir, exist_ok=True)
    args = ["--workload", workload, "--seed", str(seed), "--workdir", workdir,
            "--seconds", str(seconds), "--trace", str(int(trace))]
    try:
        rec = _spawn(args, env)
    finally:
        try:
            os.rmdir(workdir)  # the worker removes what it made inside
        except OSError:
            pass
    for failure, times in collections.Counter(rec["failures"]).items():
        print(f"CHECK FAILED {workload} seed={seed} ({times}x): {failure}", file=sys.stderr)
    detail = {key: rec[key] for key in ("task_s", "setup_s", "readings")}
    if trace:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in rec["layers"].items()}
        expected = spec["per_layer"]
    else:
        # one pass with every task at its median time over the run's passes;
        # set-up as the median over the probes
        raw = {
            "wall_s": sum(statistics.median(times) for times in rec["task_s"].values()),
            "setup_s": statistics.median(rec["setup_s"]),
        }
        scale = REFERENCE_READING_S / _trimmed_mean(rec["readings"])
        metrics = {
            "wall_s": {"value": raw["wall_s"] * scale, "unit": "s"},
            "setup_s": {"value": raw["setup_s"] * scale, "unit": "s"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
        }
        detail.update(raw=raw, scale=scale)
        expected = spec["end_to_end"]
    if sorted(metrics) != sorted(m["name"] for m in expected):
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    result = {
        "correct": not rec["failures"],
        "attempted": rec["attempted"],
        "failed": len(rec["failures"]),
        "metrics": metrics,
    }
    return result, detail, _environment(env, rec["versions"], workload, seed)


# --------------------------------------------------------------------------
# compare mode


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _load_runs(path):
    runs = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                runs.append(json.loads(line))
    return runs


def _by_seed(runs, workload, name):
    return {
        r["seed"]: r["result"]["metrics"][name]["value"]
        for r in runs
        if r["workload"] == workload and name in r["result"]["metrics"]
    }


def compare(spec, base_path, change_path):
    """Per workload and metric: medians, quartiles, ratio and verdict."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = _load_runs(base_path), _load_runs(change_path)
    header = f"{'workload':<18} {'metric':<44} {'base q1/med/q3':>30} {'change q1/med/q3':>30} {'ratio':>8}  verdict"
    print(header)
    print("-" * len(header))
    for workload in (w["name"] for w in spec["workloads"]):
        names = sorted({n for r in base if r["workload"] == workload for n in r["result"]["metrics"]})
        for name in names:
            a = _by_seed(base, workload, name)
            b = _by_seed(change, workload, name)
            if not a or not b:
                continue
            qa, qb = _quartiles(list(a.values())), _quartiles(list(b.values()))
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            print(
                f"{workload:<18} {name:<44} {'%.4g/%.4g/%.4g' % qa:>30} {'%.4g/%.4g/%.4g' % qb:>30} "
                f"{ratio:>8.3f}  {_verdict(declared.get(name, {}), a, b)}"
            )
        failed_a = sum(r["result"]["failed"] for r in base if r["workload"] == workload)
        failed_b = sum(r["result"]["failed"] for r in change if r["workload"] == workload)
        tried_a = sum(r["result"]["attempted"] for r in base if r["workload"] == workload)
        tried_b = sum(r["result"]["attempted"] for r in change if r["workload"] == workload)
        if tried_a or tried_b:
            print(f"{workload:<18} {'fail_frac':<44} {f'{failed_a}/{tried_a}':>30} {f'{failed_b}/{tried_b}':>30}")
    return 0


def _verdict(meta, base, change):
    """The benchmark's rule for one metric on one workload.

    regressed: the change's median is worse than the base median by more
    than the metric's bound.  improved: the change wins at least nine tenths
    of the runs paired by seed and the medians differ by more than the base
    quartile spread.  unresolved: the base spread is wider than the bound.
    Per-layer metrics have no bound and only report the direction.
    """
    qa, qb = _quartiles(list(base.values())), _quartiles(list(change.values()))
    sign = 1.0 if meta.get("better", "lower") == "lower" else -1.0
    if "bound" not in meta:
        return "lower" if qb[1] < qa[1] else "higher" if qb[1] > qa[1] else "same"
    gain = sign * (qa[1] - qb[1]) / abs(qa[1])
    spread = (qa[2] - qa[0]) / abs(qa[1])
    pairs = [seed for seed in base if seed in change]
    wins = sum(sign * (base[seed] - change[seed]) > 0 for seed in pairs)
    if -gain > meta["bound"]:
        return f"regressed (> {meta['bound']:.0%})"
    if pairs and wins >= 0.9 * len(pairs) and gain > spread:
        return f"improved ({wins}/{len(pairs)} pairs)"
    if spread > meta["bound"]:
        return "unresolved (base spread > bound)"
    return "unchanged (within bound)"


def main(argv=None):
    spec = _load_spec()
    ap = argparse.ArgumentParser(description="entroflow benchmark")
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the result and environment to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"), help="compare two --out files")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(spec, *args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result, detail, environment = measure(
            spec, args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"environment": environment, **detail}))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                                 "environment": environment, "detail": detail, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
