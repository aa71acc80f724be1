"""Benchmark of polarcographs: exhaustive enumeration, mining and claim verification.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or ``all``.  Every measurement
is one public library call in a fresh child process (``child.py``), with a
fixed PYTHONHASHSEED and one child at a time, pinned to one CPU that a speed
sampler (``speedref.py``) shares.  The run makes as many calls as fit in S
seconds, at least one, then reports medians.

Times are CPU times at a fixed reference speed: a child's CPU time multiplied
by the speed, relative to the reference, that the sampler saw on that CPU
while the child ran.  Raw wall times on
a shared host drift by more than the bounds allow; the normalised times
cancel that drift (see speedref.py).

--trace 0 prints the end-to-end metrics: norm_cpu_s (the library call, after
import), norm_classes_per_s (classes of order <= n, fixed by the input, over
norm_cpu_s), peak_rss_mb (of the child) and setup_s (from starting a child
until ``import polarcographs`` has finished; the median over every workload
child and import-only children run between the calls).  The log lines before
the result also give the raw wall_s, classes_per_s and set-up wall time.

--trace 1 makes the same untraced calls, then one traced child, and prints the
per-layer metrics of layertrace.py plus trace.overhead_s (the traced call's
norm_cpu_s minus the untraced median).  The full trace, per order and per
span, goes to bench/out/.

The workloads are exhaustive, so the seed has no input to generate: it
permutes where the import-only children fall among the workload calls, and
with ``all`` the order of the workloads.  It is recorded in the output.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The program exits with code 2, printing no
result, when the checkout holds no package source to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import layertrace  # noqa: E402
import speedref  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 15  # least number of set-ups timed per workload run, for setup_s
CHILD_TIMEOUT_S = 150
HASH_SEED = "0"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every set-up compiles the same sources
    return env


def spawn(args, cpu):
    """Run one child pinned to ``cpu``; returns (start time, result dict or None, error or None)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), *args]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
    except subprocess.TimeoutExpired:
        return started, None, f"child timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return started, None, f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return started, None, "child printed no result"
    result = json.loads(lines[-1])
    return started, result, result.get("error")


def summary(values):
    """(median, first quartile, third quartile, count)."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def run_workload(name, rng, seconds, trace, log):
    classes = WORKLOADS[name].classes
    cpu = speedref.pinned_cpu()
    setups, calls = [], []  # (start, child result) of import-only and of workload children
    traced = None
    attempted = failed = 0

    with speedref.Sampler(cpu) as sampler:
        def probe():
            started, result, error = spawn(["--setup-only"], cpu)
            if error:
                raise SystemExit(f"import-only child failed: {error}")
            setups.append((started, result))

        start = time.monotonic()
        durations = []  # of whole workload children, to foresee the next one
        while not attempted or time.monotonic() - start + statistics.median(durations) <= seconds:
            for _ in range(rng.randint(0, 2)):
                probe()
            attempted += 1
            started, result, error = spawn(["--workload", name], cpu)
            durations.append(time.monotonic() - started)
            if error:
                failed += 1
                log(f"{name}: call {attempted} failed: {error}")
                continue
            setups.append((started, result))
            calls.append(result)
        while len(setups) < SETUP_SAMPLES:
            probe()

        if trace and calls:
            out_dir = os.path.join(BENCH_DIR, "out")
            os.makedirs(out_dir, exist_ok=True)
            trace_file = os.path.join(out_dir, f"trace-{name}.json")
            attempted += 1
            _, traced, error = spawn(["--workload", name, "--trace", trace_file], cpu)
            if error:
                log(f"{name}: traced call failed: {error}")
                failed += 1
                traced = None

    if not calls:
        return attempted, failed, {}

    def norm_call(r):
        return r["call_cpu_s"] * sampler.factor(r["call_start"], r["call_end"])

    norm = [norm_call(r) for r in calls]
    for i, (r, n) in enumerate(zip(calls, norm), 1):
        log(f"{name}: call {i}: wall {r['wall_s']:.4g} s, cpu {r['call_cpu_s']:.4g} s, "
            f"speed {n / r['call_cpu_s']:.4g}, norm_cpu {n:.4g} s")
    walls = [r["wall_s"] for r in calls]
    stats = {
        "norm_cpu_s": (summary(norm), "s"),
        "norm_classes_per_s": (summary([classes / t for t in norm]), "1/s"),
        "peak_rss_mb": (summary([r["peak_rss_mb"] for r in calls]), "MB"),
        "setup_s": (
            summary([r["setup_cpu_s"] * sampler.factor(t, r["import_done"]) for t, r in setups]),
            "s",
        ),
    }
    info = {  # logged only: raw times drift with the host
        "wall_s": (summary(walls), "s"),
        "classes_per_s": (summary([classes / w for w in walls]), "1/s"),
        "setup_wall_s": (summary([r["import_done"] - t for t, r in setups]), "s"),
        "speed_factor": (summary([n / r["call_cpu_s"] for r, n in zip(calls, norm)]), "ref"),
    }
    for metric, ((med, q1, q3, n), unit) in {**stats, **info}.items():
        log(f"{name}: {metric} = {med:.6g} {unit} (quartiles {q1:.6g}..{q3:.6g}, n={n})")
    log(f"{name}: failed_fraction = {failed / attempted:g} ({failed} of {attempted} calls)")
    metrics = {metric: {"value": s[0], "unit": unit} for metric, (s, unit) in stats.items()}
    if not trace:
        return attempted, failed, metrics
    if traced is None:
        return attempted, failed, {}

    layer_metrics = {
        metric: {"value": traced["layers"][metric], "unit": unit}
        for metric, unit in layertrace.LAYER_METRICS.items()
    }
    overhead = norm_call(traced) - stats["norm_cpu_s"][0][0]
    layer_metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    for metric, entry in layer_metrics.items():
        log(f"{name}: {metric} = {entry['value']:.6g} {entry['unit']}")
    log(f"{name}: trace written to {os.path.relpath(trace_file, ROOT)}")
    return attempted, failed, layer_metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "polarcographs", "__init__.py")):
        print(f"no package source at {os.path.join(ROOT, 'src', 'polarcographs')}", file=sys.stderr)
        return 2

    def log(line):
        print(line, flush=True)

    rng = random.Random(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rng.shuffle(names)
    log(
        f"seed {args.seed}; workload order {names}; python {platform.python_version()}; "
        f"nproc {os.cpu_count()}; loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())}; "
        f"PYTHONHASHSEED {HASH_SEED}"
    )
    _, _, error = spawn(["--setup-only"], speedref.pinned_cpu())  # warm-up: byte-code cache and page cache
    if error:
        print(f"cannot import the package: {error}", file=sys.stderr)
        return 2

    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = run_workload(name, rng, args.seconds, args.trace, log)
        attempted += a
        failed += f
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({f"{name}.{metric}": entry for metric, entry in m.items()})
    log(f"loadavg at end {' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
