"""Workload process: runs one workload's CLI calls in-process and times them.

    python perfbench/worker.py run WORKLOAD SEED SECONDS TRACE TRACE_FILE
    python perfbench/worker.py cold WORKLOAD SEED

``run`` makes an untimed warm-up round, then runs whole rounds of
``cycshift.cli.main(argv)`` calls until the calls have taken about
SECONDS of wall time, and checks every output after its round.  With
TRACE=1 each round runs twice, untraced and then traced, for about
SECONDS/2 of untraced calls; the per-layer metrics come from the traced
passes.  ``cold`` times the first ``decompose`` of a fresh process at the
workload's largest dimensions, with allocation tracing on.  Both print
one JSON object as their last line.  run.py starts this process with
PYTHONPATH pointing at the checkout's ``src``.
"""

import contextlib
import gc
import io
import json
import os
import resource
import shutil
import subprocess
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import checks
import oracles
import workloads

ROOT = Path(__file__).resolve().parent.parent
MAX_ERRORS = 5
# Timed start-up launches per run: one before the timed calls, one after,
# and the rest spread between rounds, so that setup_s samples the
# machine at several moments of the run instead of one.
SETUP_LAUNCHES = 4
SETUP_ARGV = ("-m", "cycshift", "decompose", "--state", "bell")


def _require_checkout_package():
    import cycshift

    src = (ROOT / "src").resolve()
    if src not in Path(cycshift.__file__).resolve().parents:
        raise SystemExit(f"cycshift imported from {cycshift.__file__}, not from {src}")


def call(main, argv):
    """(seconds, return code, stdout text) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error fails this call, not the run
            rc = 1
            traceback.print_exc()
        dt = time.perf_counter() - t0
    return dt, rc, out.getvalue() if rc == 0 else err.getvalue()


class Tally:
    """Operations attempted and failed, call times and errors of a section."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.timed = 0.0
        self.call_s = []
        self.errors = []
        self.incorrect = False

    def error(self, text):
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(text)

    def merge(self, other):
        out = Tally()
        out.attempted = self.attempted + other.attempted
        out.failed = self.failed + other.failed
        out.timed = self.timed + other.timed
        out.call_s = self.call_s + other.call_s
        out.errors = (self.errors + other.errors)[:MAX_ERRORS]
        out.incorrect = self.incorrect or other.incorrect
        return out


def run_round(workload, main, r, tally):
    """Run round ``r``, then check its outputs; counts go into ``tally``."""
    ops = workload.ops(r)
    results = []
    for op in ops:
        dt, rc, text = call(main, op.argv)
        results.append((op, dt, rc, text))
    for op, dt, rc, text in results:
        tally.attempted += op.units
        tally.timed += dt
        tally.call_s.append(dt)
        if rc != 0:
            tally.failed += op.units
            tally.error(f"exit {rc}: cycshift {' '.join(op.argv)}: {text.strip()}")
            continue
        try:
            op.check(text)
        except (checks.CheckError, KeyError, IndexError, ValueError, TypeError) as exc:
            tally.error(f"wrong output: cycshift {' '.join(op.argv)}: "
                        f"{type(exc).__name__}: {exc}")
            tally.incorrect = True


def launch_setup():
    """Wall time of one fresh ``python -m cycshift decompose --state bell``."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *SETUP_ARGV], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"setup launch exited {proc.returncode}: {proc.stderr[-2000:]}")
    checks.check_decompose(proc.stdout,
                           checks.StateRef(oracles.maximally_entangled(2, 2, 2), (2, 2)))
    return elapsed


def run_timed(workload, main, seconds):
    """Whole rounds from round 0 for about ``seconds`` of call time.

    Another round starts only while at least half a round's time is
    left, so the calls take ``seconds`` give or take half a round.
    SETUP_LAUNCHES start-up launches are timed across the section;
    returns the tally and their wall times.
    """
    tally = Tally()
    marks = [seconds * k / (SETUP_LAUNCHES - 1) for k in range(1, SETUP_LAUNCHES - 1)]
    setup = [launch_setup()]
    gc.collect()
    r = 0
    last = 0.0
    while tally.timed + last / 2.0 < seconds:
        before = tally.timed
        run_round(workload, main, r, tally)
        last = tally.timed - before
        r += 1
        while marks and tally.timed >= marks[0]:
            marks.pop(0)
            setup.append(launch_setup())
    setup.extend(launch_setup() for _ in range(SETUP_LAUNCHES - len(setup)))
    return tally, setup


def run_traced(workload, seconds):
    """Each round twice, untraced then traced, for about ``seconds`` of untraced calls.

    Running the two passes back to back over the same inputs keeps slow
    drifts in machine speed out of the tracing overhead.  Returns the
    untraced and traced tallies, the tracer and the trace points missing
    from the package.
    """
    import cycshift.cli
    import tracing

    plain, traced = Tally(), Tally()
    tracer = tracing.Tracer()
    traced_main = tracer.wrap("cli.main", cycshift.cli.main)
    gc.collect()
    r = 0
    last = 0.0
    while plain.timed + last / 2.0 < seconds:
        before = plain.timed
        run_round(workload, cycshift.cli.main, r, plain)
        last = plain.timed - before
        missing = tracer.install()
        try:
            run_round(workload, traced_main, r, traced)
        finally:
            tracer.uninstall()
        r += 1
    return plain, traced, tracer, missing


def cmd_run(name, seed, seconds, trace, trace_file):
    _require_checkout_package()
    import cycshift.cli
    import tracing

    workdir = ROOT / "perfbench" / "out" / f"inputs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[name](seed, str(workdir))
        warm = Tally()
        run_round(workload, cycshift.cli.main, workloads.WARMUP_ROUND, warm)
        if not trace:
            launch_setup()  # untimed: compiles bytecode and warms the file cache
            tally, setup = run_timed(workload, cycshift.cli.main, seconds)
            report = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                      "setup_s": statistics.median(setup), "setup_launches_s": setup}
        else:
            plain, traced, tracer, missing = run_traced(workload, seconds / 2.0)
            layers = tracing.layer_metrics(tracer.spans, traced.attempted,
                                           scan_rows=name == "qubit-scan")
            slowdown = (plain.attempted / plain.timed) / (traced.attempted / traced.timed)
            layers["trace.overhead_pct"] = (100.0 * (1.0 - 1.0 / slowdown), "%")
            tracer.write(trace_file)
            report = {"layers": layers, "missing_trace_points": missing,
                      "spans": len(tracer.spans)}
            tally = plain.merge(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.update({
        "correct": not (tally.incorrect or warm.incorrect or warm.failed),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": warm.errors + tally.errors,
        "calls": len(tally.call_s),
        "timed_s": tally.timed,
        "ops_per_s": tally.attempted / tally.timed,
        "call_s": tally.call_s,
    })
    return report


def cmd_cold(name, seed):
    _require_checkout_package()
    from cycshift.bloch import decompose
    from cycshift.states import state_from_json

    rho, dims = workloads.WORKLOADS[name](seed, "").cold_state()
    state = state_from_json(workloads.state_json(rho, dims))
    tracemalloc.start()
    t0 = time.perf_counter()
    decompose(state)
    elapsed = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {"decompose_cold_ms": elapsed * 1e3, "decompose_peak_mb": peak / 2**20,
            "dims": list(dims)}


def main(argv):
    mode = argv[0]
    if mode == "run":
        name, seed, seconds, trace, trace_file = argv[1:6]
        report = cmd_run(name, int(seed), float(seconds), trace == "1", trace_file)
    elif mode == "cold":
        report = cmd_cold(argv[1], int(argv[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
