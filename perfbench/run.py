"""Benchmark of cycshift: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports cycshift from ``src/``
and fails at once when that is missing.  The calls run in one
long-lived workload process (``worker.py``).  With ``--trace 0`` it
prints the end-to-end metrics ``setup_s`` (median wall time of fresh
``python -m cycshift decompose --state bell`` launches spread over the
run), ``ops_per_s``, ``call_p50_ms`` and ``peak_rss_mb``.  With
``--trace 1`` it prints the per-layer metrics instead: start-up times
from ``python -X importtime``, the cold first ``decompose`` at the
workload's largest dimensions, and span-based times and counts from
traced passes over the rounds (spans are saved to ``perfbench/out/``).  Every output of the
program is checked against values computed apart from it; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
IMPORT_LAUNCHES = 3
DEADLINE_S = 170.0
# One workload process on a 2-core machine: keep every BLAS pool at one
# thread so the timed process never competes with its own helpers.
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    for name in PINNED:
        env[name] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(argv, deadline, env):
    """Run a child to completion; (seconds, CompletedProcess).

    The child gets its own process group, so that on timeout the
    launches it started itself are killed with it.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + " ".join(argv[1:3]))
    t0 = time.perf_counter()
    child = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = child.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    elapsed = time.perf_counter() - t0
    return elapsed, subprocess.CompletedProcess(argv, child.returncode, out, err)


def checked(proc, what):
    """Standard output of a child that exited 0."""
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def last_json(proc, what):
    """The JSON object a child printed as its last line."""
    return json.loads(checked(proc, what).strip().splitlines()[-1])


def parse_importtime_metrics(stderr):
    """Start-up metrics from ``python -X importtime`` output, in ms.

    ``import.total_ms`` sums the cumulative time of the top-level cycshift
    entries (one space of indent); a module that start-up does not
    import reads 0.
    """
    total = scipy_opt = numpy = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, name = line.split("|")
        try:
            cum_ms = int(cumulative) / 1e3
        except ValueError:
            continue
        bare = name.strip()
        if bare.startswith("cycshift") and not name.startswith("  "):
            total += cum_ms
        if bare == "scipy.optimize" and not scipy_opt:
            scipy_opt = cum_ms
        if bare == "numpy" and not numpy:
            numpy = cum_ms
    return {
        "import.total_ms": (total, "ms"),
        "import.scipy_optimize_ms": (scipy_opt, "ms"),
        "import.numpy_ms": (numpy, "ms"),
    }


def measure_imports(deadline, env):
    """Median of each start-up metric over IMPORT_LAUNCHES fresh imports."""
    argv = [sys.executable, "-X", "importtime", "-c", "import cycshift.cli"]
    samples = []
    for _ in range(IMPORT_LAUNCHES):
        _, proc = launch(argv, deadline, env)
        checked(proc, "import of cycshift.cli")
        samples.append(parse_importtime_metrics(proc.stderr))
    return {name: (statistics.median(s[name][0] for s in samples), unit)
            for name, (_, unit) in samples[0].items()}


def tail_percentile(samples):
    """(p, value) of the highest percentile with at least ten samples above it.

    None below 40 samples, where no percentile would describe a tail.
    """
    n = len(samples)
    if n < 40:
        return None
    p = max(q for q in (75.0, 90.0, 95.0, 99.0, 99.9) if n * (100.0 - q) / 100.0 >= 10)
    rank = math.ceil(p / 100.0 * n)
    return p, sorted(samples)[rank - 1]


def run(args):
    if not (ROOT / "src" / "cycshift" / "__init__.py").is_file():
        raise BenchError(f"no cycshift sources under {ROOT / 'src'}; run from a checkout root")
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    OUT.mkdir(parents=True, exist_ok=True)
    metrics = {}
    if args.trace:
        metrics.update(measure_imports(deadline, env))
        _, proc = launch([sys.executable, str(BENCH / "worker.py"), "cold",
                          args.workload, str(args.seed)], deadline, env)
        cold = last_json(proc, "cold decompose")
        metrics["bloch.decompose_cold_ms"] = (cold["decompose_cold_ms"], "ms")
        metrics["bloch.decompose_peak_mb"] = (cold["decompose_peak_mb"], "MB")
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    worker_s, proc = launch([sys.executable, str(BENCH / "worker.py"), "run", args.workload,
                      str(args.seed), repr(args.seconds), str(args.trace), str(trace_file)],
                     deadline, env)
    report = last_json(proc, "workload process")
    call_ms = [s * 1e3 for s in report["call_s"]]
    print(f"workload {args.workload} seed {args.seed}: {report['calls']} calls, "
          f"{report['attempted']} operations, {report['failed']} failed, "
          f"{report['timed_s']:.3f} s timed of {worker_s:.3f} s in the workload process")
    for line in report["errors"]:
        print("  " + line)
    if not args.trace:
        print("setup launches (s): " + ", ".join(f"{t:.4f}" for t in report["setup_launches_s"]))
        p50 = statistics.median(call_ms)
        tail = tail_percentile(call_ms)
        tail_text = f", p{tail[0]:g} {tail[1]:.4f} ms" if tail else ""
        print(f"call latency: p50 {p50:.4f} ms{tail_text} (n={len(call_ms)})")
        metrics.update({
            "setup_s": (report["setup_s"], "s"),
            "ops_per_s": (report["ops_per_s"], "1/s"),
            "call_p50_ms": (p50, "ms"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        })
    else:
        metrics.update({k: tuple(v) for k, v in report["layers"].items()})
        if report["missing_trace_points"]:
            print("trace points not found: " + ", ".join(report["missing_trace_points"]))
        print(f"{report['spans']} spans written to {os.path.relpath(trace_file, ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    return {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
