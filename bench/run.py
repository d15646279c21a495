"""Benchmark of the slicealgebra library: one workload per process.

    python3 bench/run.py --workload suites-small --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the library is imported from `src/`.  A run
builds a fixed op list: a number of passes, each with its own inputs (see
workloads.py).  It executes the whole list ROUNDS times, which takes about
`--seconds` seconds on the machine the benchmark was tuned on, and times each
op by its fastest round.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the line before it
records the environment (versions, BLAS threads, cores, seed, op counts).

--trace 0 reports the end-to-end metrics.  --trace 1 executes the list
ROUNDS / 2 times untraced and as often traced, and reports the per-layer
metrics (see tracer.py); the spans of the set-up phase and of the first
traced round are written to bench/out/trace-<workload>.json.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import tracer
from measure import (WRONG, RunLog, classify, enough_samples, fastest, kind_medians_ms, median,
                     percentile, tail_count)

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("suites-small", "large-and-zeros")
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "ok_frac": "fraction", "peak_rss_mb": "MiB"}
PER_LAYER = {**tracer.per_layer_units(),
             "trace.overhead_frac": "fraction", "failed_frac": "fraction"}
# BLAS and OpenMP pools pinned to one thread, for this process and its children.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Executions of the op list in a run.  The host the benchmark was tuned on
# changes speed by up to 1.7x in phases of ten seconds or more; an op's
# fastest of several rounds spread over the run comes from a fast phase.
ROUNDS = 4
# Set-up is measured in this process and, after each of these rounds, in
# fresh ones for SETUP_GAP_S seconds (once at least), so that its samples too
# are spread over the run.  A cheap set-up is sampled often, a costly one
# (two N=64 algebras) once per gap.
SETUP_AFTER_ROUNDS = (1, 3)
SETUP_GAP_S = 1.0
# Seconds one pass takes, checks included, on the machine the benchmark was
# tuned on (2 vCPUs of a shared 2.1 GHz host, BLAS on one thread).  The pass
# count of a run depends on --seconds alone, never on the clock, so every run
# of a seed attempts the same ops and its failures repeat exactly.
PASS_SECONDS = {"suites-small": 0.235, "large-and-zeros": 13.0}
CHILD_TIMEOUT_S = 150


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time import and set-up once, print {'setup_s': ...}")
    return parser.parse_args(argv)


def pass_count(workload: str, seconds: float) -> int:
    """Passes in the op list of a run of `seconds` seconds on the tuning
    machine."""
    return max(1, round(seconds / (ROUNDS * PASS_SECONDS[workload])))


# -- set-up --------------------------------------------------------------------


def import_library():
    """Import slicealgebra and the workloads, insisting on the checkout's src/."""
    import slicealgebra
    where = Path(slicealgebra.__file__).resolve()
    if SRC_DIR.resolve() not in where.parents:
        raise SystemExit(f"error: slicealgebra imported from {where}, not from {SRC_DIR}")
    import workloads
    return workloads


def timed_setup(workload: str, seed: int, passes: int):
    """Seconds from `import slicealgebra` to the built op list, and the ops."""
    start = time.perf_counter()
    ops = import_library().build(workload, seed, str(OUT_DIR), passes)
    return time.perf_counter() - start, ops


def child_setup_seconds(args) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                           "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def child_setups(args) -> list[float]:
    """Set-up times of fresh interpreters, one after another, until
    SETUP_GAP_S seconds have passed; one at least."""
    samples, start = [], time.perf_counter()
    while not samples or time.perf_counter() - start < SETUP_GAP_S:
        samples.append(child_setup_seconds(args))
    return samples


# -- rounds ----------------------------------------------------------------------


def run_round(ops, log, trace=None) -> list[float]:
    """Run every op once, record its outcome; return the op latencies.

    Checks run outside the timed region and, in a traced round, with the
    tracer paused, so neither counts against the library."""
    latencies = []
    for op in ops:
        raised = result = None
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a raising op is a failed op; the run goes on
            raised = exc
        latencies.append(time.perf_counter() - start)
        verdict, reason = None, f"{type(raised).__name__}: {raised}"
        if raised is None:
            if trace is not None:
                trace.active = False
            try:
                verdict, reason = op.check(result)
            except Exception as exc:  # an output the check cannot read is wrong
                verdict, reason = WRONG, f"check raised {type(exc).__name__}: {exc}"
            finally:
                if trace is not None:
                    trace.active = True
        log.record(op.name, classify(raised, verdict), reason)
    return latencies


# -- environment record --------------------------------------------------------


def blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, or 'unknown'."""
    import numpy

    libs_dir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment(args, op_count: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
            "blas_threads": blas_threads(),
            "nproc": len(os.sched_getaffinity(0)),
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "ops_in_list": op_count}


# -- the two kinds of run --------------------------------------------------------


def measured_run(args, meta: dict) -> dict:
    passes = pass_count(args.workload, args.seconds)
    setup_s, ops = timed_setup(args.workload, args.seed, passes)
    setups = [setup_s]
    log = RunLog()
    rounds = []
    started = time.perf_counter()
    for index in range(ROUNDS):
        rounds.append(run_round(ops, log))
        if index in SETUP_AFTER_ROUNDS:
            setups += child_setups(args)
    measure_s = time.perf_counter() - started
    latencies = fastest(rounds)
    if not enough_samples(latencies):
        raise SystemExit(f"error: {tail_count(latencies)} samples beyond p90, "
                         f"fewer than ten; give more --seconds")

    meta.update(environment(args, len(ops)))
    meta.update(passes=passes, rounds=ROUNDS, samples_beyond_p90=tail_count(latencies),
                measure_s=measure_s, round_s=[sum(r) for r in rounds],
                setup_samples_s=setups,
                kind_median_ms=kind_medians_ms([op.name for op in ops], latencies),
                outcomes=log.outcomes, failures=log.failures)
    values = {"setup_s": median(setups),
              "wall_s": sum(latencies),
              "op_p50_ms": percentile(latencies, 50) * 1e3,
              "op_p90_ms": percentile(latencies, 90) * 1e3,
              "ok_frac": 1.0 - log.failed_frac,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return {"correct": log.correct, "attempted": log.attempted, "failed": log.failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}}


def traced_run(args, meta: dict) -> dict:
    trace = tracer.Tracer()
    workloads = import_library()
    passes = pass_count(args.workload, args.seconds)
    trace.install()
    try:
        ops = workloads.build(args.workload, args.seed, str(OUT_DIR), passes)
    finally:
        trace.uninstall()
    setup_spans = trace.take()

    log = RunLog()
    untraced, traced = [], []
    counters = tracer.phase_counters(setup_spans)
    kept = {"setup": setup_spans}
    for _ in range(ROUNDS // 2):
        untraced.append(run_round(ops, log))
        trace.install()
        try:
            traced.append(run_round(ops, log, trace))
        finally:
            trace.uninstall()
        recorded = trace.take()
        kept.setdefault("first_traced_round", recorded)
        for key, value in tracer.phase_counters(recorded).items():
            counters[key] = counters.get(key, 0) + value

    values = tracer.layer_metrics(counters)
    values["trace.overhead_frac"] = sum(fastest(traced)) / sum(fastest(untraced)) - 1.0
    values["failed_frac"] = log.failed_frac

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{args.workload}.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed,
                   "columns": ["parent", "name", "start_ns", "end_ns", "error", "self_ns"],
                   **{phase: [[s.parent, s.name, s.start, s.end, s.error, own]
                              for s, own in zip(recorded, tracer.self_times(recorded))]
                      for phase, recorded in kept.items()}}, fh)
    meta.update(environment(args, len(ops)))
    meta.update(passes=passes, rounds=ROUNDS // 2,
                untraced_round_s=[sum(r) for r in untraced],
                traced_round_s=[sum(r) for r in traced],
                outcomes=log.outcomes, failures=log.failures, spans=str(trace_path))
    return {"correct": log.correct, "attempted": log.attempted, "failed": log.failed,
            "metrics": {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "slicealgebra" / "__init__.py").is_file():
        print(f"error: no slicealgebra sources under {SRC_DIR}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC_DIR))
    import numpy  # noqa: F401  -- set-up time starts with numpy already imported

    if args.setup_only:
        setup_s, _ = timed_setup(args.workload, args.seed,
                                 pass_count(args.workload, args.seconds))
        print(json.dumps({"setup_s": setup_s}))
        return 0
    meta: dict = {}
    result = traced_run(args, meta) if args.trace else measured_run(args, meta)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
