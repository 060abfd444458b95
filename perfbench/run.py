"""Benchmark for the nonconv package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all       # every workload, one process each

Run from the repository root.  The package is imported from ``src/`` of the
checkout this file sits in; without it the run exits with code 2 and prints
no result.

``--trace 0`` times passes of the workload for S seconds and reports the
end-to-end metrics; ``setup_s`` is the median set-up time of fresh
processes started with ``--setup-only``, which set up as the run does and
stop at the first timed call.  ``--trace 1`` alternates untraced passes
with traced ones, for which the package's module boundaries are wrapped (see
``workloads.BOUNDARIES``), for S seconds; it reports per-layer calls, self
time and counters per pass, and the tracing overhead.  Every operation's
output is checked; a call that raises or fails its check counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is the run record (seed, machine and versions).  Spans of traced runs and
run records are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

PROCESS_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("subshift", "cli_bernoulli_markov")
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017
SETUP_REPEATS = 2  # set-ups before the passes, and again after them


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up as a run would, print the clock at the first timed call, exit.
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import nonconv from this checkout's src/, or exit with code 2."""
    if not (SRC / "nonconv" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import nonconv

    if Path(nonconv.__file__).resolve().parent != SRC / "nonconv":
        print(f"error: imported nonconv from {nonconv.__file__}", file=sys.stderr)
        sys.exit(2)


def median(xs):
    return float(statistics.median(xs))


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def git_sha():
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def blas_info(nproc: int):
    import numpy as np

    version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    requested = None
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var, "").isdigit():
            requested = int(os.environ[var])
            break
    # OpenBLAS starts one thread per core unless told otherwise.
    return version, min(requested or nproc, nproc)


def run_record(args, extra):
    import numpy as np

    nproc = os.cpu_count() or 1
    blas_version, blas_threads = blas_info(nproc)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads,
        "git_sha": git_sha(),
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        **extra,
    }


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------

def setup_times(args) -> list[float]:
    """Set-up time of SETUP_REPEATS fresh processes: from spawning one until
    it reaches the first timed call (``--setup-only``).  perf_counter reads
    the system-wide monotonic clock, so the child's reading is comparable."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        walls.append(float(proc.stdout.split()[-1]) - t0)
    return walls


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []


def run_pass(ops, tally, tracer=None):
    """Time each op once; return (wall seconds, cpu seconds) of the calls.

    With a tracer, spans are recorded during the calls only, not the checks.
    """
    wall = cpu = 0.0
    for op in ops:
        tally.attempted += 1
        if tracer:
            tracer.active = True
        c0 = os.times()
        t0 = time.perf_counter()
        try:
            out = op.call()
            error = None
        except Exception:  # a failing call is counted, not fatal
            out, error = None, traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        c1 = os.times()
        if tracer:
            tracer.active = False
        wall += t1 - t0
        cpu += (c1.user - c0.user) + (c1.system - c0.system)
        faults = [f"raised: {error}"] if error else op.check(out)
        if faults:
            tally.failed += 1
            tally.faults += [f"{op.name}: {f}" for f in faults]
    return wall, cpu


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def another_pass(t0, passes, seconds) -> bool:
    """Whether a further pass, as long as the mean one so far, ends within
    ``seconds`` of t0; so a run is at least one pass and ends near its time."""
    elapsed = time.perf_counter() - t0
    return elapsed + elapsed / passes <= seconds


def timed_passes(ops, seconds, tally):
    """Run passes for ``seconds``; return walls, cpus and the peak RSS after
    the first pass (later passes only add allocator fragmentation)."""
    walls, cpus = [], []
    t0 = time.perf_counter()
    while not walls or another_pass(t0, len(walls), seconds):
        w, c = run_pass(ops, tally)
        if not walls:
            first_peak = peak_rss_mb()
        walls.append(w)
        cpus.append(c)
    return walls, cpus, first_peak


@contextmanager
def traced(tracer, boundaries):
    for owner, attr, layer, count in boundaries:
        tracer.wrap(owner, attr, layer, count)
    try:
        yield
    finally:
        tracer.restore()


def assert_untraced(workloads):
    from tracing import is_wrapped

    if any(is_wrapped(obj) for obj in workloads.boundary_objects()):
        raise RuntimeError("a wrapped boundary outside a traced pass")


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

def layer_metrics(tracer, setup_range, passes, untraced_walls, cost):
    """Per-layer metrics: the median over traced passes of each pass's value,
    plus what the traced build recorded (the setup layers).  Self times and
    the unattributed time are net of ``cost`` seconds of wrapper per span."""
    from tracing import layer_totals
    from workloads import COUNTERS, LAYERS

    arrays = tracer.arrays()

    def per_layer(lo, hi):
        totals, root_s = layer_totals(tracer.names, *arrays, lo=lo, hi=hi, cost=cost)
        out = {f"{l}.{k}": 0.0 for l in LAYERS for k in ("calls", "self_s")}
        for layer, (calls, secs) in totals.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = secs
        return out, root_s

    setup, _ = per_layer(*setup_range)
    rows = []
    for lo, hi, wall, counters in passes:
        row, root_s = per_layer(lo, hi)
        row.update({c: counters.get(c, 0) for c in COUNTERS})
        row["trace.unattributed_s"] = wall - root_s
        row["trace.spans"] = hi - lo
        row["trace.wall_s"] = wall
        rows.append(row)
    metrics = {k: median([r[k] for r in rows]) + setup.get(k, 0.0) for k in rows[0]}
    metrics["trace.overhead_s"] = median(
        [r["trace.wall_s"] - u for r, u in zip(rows, untraced_walls)]
    )
    metrics["trace.span_cost_s"] = cost
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"peak_rss_mb": "MB", "cli.csv_bytes": "B"}.get(name, "count")


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def run_workload(args):
    import_package()
    import workloads
    from tracing import Tracer, span_cost

    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    inputs = workload.build(args.seed, workdir)
    if args.setup_only:
        shutil.rmtree(workdir, ignore_errors=True)
        print(repr(time.perf_counter()), flush=True)
        sys.exit(0)
    setup_in_process = time.perf_counter() - PROCESS_START
    ops = workload.ops(inputs)
    tally = Tally()
    setups = []
    try:
        if args.trace == 0:
            # Set-up is short and the machine's speed drifts, so its samples
            # are taken at both ends of the run, which spans tens of seconds.
            setups = setup_times(args)
            walls, cpus, first_peak = timed_passes(ops, args.seconds, tally)
            assert_untraced(workloads)
            setups += setup_times(args)
            # Mean, not median, over passes: the machine's speed drifts over
            # seconds to minutes, and a median of a few passes snaps to one
            # speed where the mean averages over the run.
            metrics = {
                "wall_s": statistics.fmean(walls),
                "setup_s": median(setups),
                "cpu_s": statistics.fmean(cpus),
                "peak_rss_mb": first_peak,
            }
        else:
            # Untraced and traced passes alternate, so that the overhead is
            # measured on neighbouring passes; wrappers exist only while a
            # traced pass or the traced build runs.  There is no warm-up pass
            # (a run must end within 180 s), so the first untraced pass also
            # pays the process's one-time costs.
            tracer = Tracer()
            with traced(tracer, workloads.BOUNDARIES):
                tracer.active = True
                inputs = workload.build(args.seed, workdir)
                tracer.active = False
            setup_range = (0, len(tracer.start))
            ops = workload.ops(inputs)
            untraced_walls, passes = [], []
            t0 = time.perf_counter()
            while not passes or another_pass(t0, len(passes), args.seconds):
                assert_untraced(workloads)
                untraced_walls.append(run_pass(ops, tally)[0])
                with traced(tracer, workloads.BOUNDARIES):
                    lo, tracer.counters = len(tracer.start), {}
                    wall = run_pass(ops, tally, tracer)[0]
                passes.append((lo, len(tracer.start), wall, tracer.counters))
            walls = [p[2] for p in passes]
            metrics = layer_metrics(tracer, setup_range, passes, untraced_walls, span_cost())
            OUT.mkdir(exist_ok=True)
            tracer.save(OUT / f"spans-{args.workload}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = run_record(args, {
        "pass_walls": walls,
        "setup_walls": setups,
        "setup_s_in_process": setup_in_process,
        "fail_rate": tally.failed / tally.attempted,
        "faults": tally.faults[:20],
    })
    return tally, metrics, record


def report(args, tally, metrics, record):
    OUT.mkdir(exist_ok=True)
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n")
    for fault in tally.faults[:20]:
        print(f"FAULT {fault}", file=sys.stderr)
    print(f"fail_rate {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4g} (1)")
    for key, value in metrics.items():
        print(f"{key} {value:.6g} ({unit_of(key)})")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def run_all(args):
    """Each workload in a fresh process; print a table of the results."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, result))
    keys = list(rows[0][1]["metrics"])
    print("workload".ljust(22) + "fail_rate(1)".rjust(14)
          + "".join(f"{k}({rows[0][1]['metrics'][k]['unit']})".rjust(max(14, len(k) + 8))
                    for k in keys))
    for name, r in rows:
        line = name.ljust(22) + f"{r['failed'] / r['attempted']:.4g}".rjust(14)
        line += "".join(f"{r['metrics'][k]['value']:.4g}".rjust(max(14, len(k) + 8))
                        for k in keys)
        print(line)
    print(json.dumps({name: r for name, r in rows}))
    return 0 if all(r["correct"] for _, r in rows) else 1


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    tally, metrics, record = run_workload(args)
    report(args, tally, metrics, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
