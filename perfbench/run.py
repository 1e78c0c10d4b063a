"""pseudocalc benchmark: one workload per run, or all four in turn.

    python3 perfbench/run.py --workload g_hardy --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --seconds 15 --trace 1     # every workload, a table

With --workload, the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced run with --trace 1.  Without
--workload, each workload runs in a child process of its own (untraced, and
traced as well with --trace 1) and a table is printed, followed by one JSON
line that sums the counts and prefixes each metric with its workload.

setup_s is the median of several set-ups, each in a fresh interpreter.
Outputs are checked after the timed phase, against computations in checks.py
that do not use the program.  The exit code is 0 unless the program cannot be
imported or set up.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
TRACE_DIR = HERE / "out"
# set-ups per sampling point; sampled before the timed phase, after it and
# after the checks, so that the median spans the whole run
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

perf = time.perf_counter


def cap_threads():
    """No numeric library may start more threads than this process may use cores."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        raw = os.environ.get(var, "")
        if not raw.isdigit() or not 1 <= int(raw) <= nproc:
            os.environ[var] = str(nproc)


def setup_once(workload: str, seed: int) -> float:
    """Seconds to import pseudocalc and build the workload's inputs (fresh process)."""
    t0 = perf()
    pc = workloads.load_program()
    workloads.build_inputs(pc, workload, seed)
    return perf() - t0


def sample_setup(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    setups = [] if traced else sample_setup(workload, seed)
    pc = workloads.load_program()
    tracer = None
    if traced:
        import layertrace

        tracer = layertrace.install(pc)
    inputs = workloads.build_inputs(pc, workload, seed)
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())

    items = inputs.items
    outputs: list = []       # (input, output or exception)
    latencies: list = []
    errors: list = []
    start = perf()
    while True:
        for _ in range(inputs.round_size):
            item = items[len(outputs) % len(items)]
            if tracer:
                tracer.begin_op(len(outputs))
                root = tracer.enter("op")
            t0 = perf()
            try:
                out = workloads.run_op(pc, workload, item, span)
            except Exception as exc:  # an op that raises fails; the run goes on
                out = exc
                errors.append(traceback.format_exc())
            latencies.append(perf() - t0)
            if tracer:
                tracer.exit(root)
            outputs.append((item, out))
        if perf() - start >= seconds:
            break
    wall = perf() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not traced:
        setups += sample_setup(workload, seed)

    if tracer:
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"trace-{workload}-{seed}.json",
                     {"workload": workload, "seed": seed, "ops": len(outputs), "wall_s": wall})

    completed = [(i, o) for i, o in outputs if not isinstance(o, Exception)]
    problems = [p for p in workloads.check_outputs(workload, completed) if p]
    for text in errors[:3]:
        print(text, file=sys.stderr)
    for p in problems[:3]:
        print("wrong output: " + "; ".join(p), file=sys.stderr)
    if not traced:
        setups += sample_setup(workload, seed)

    attempted = len(outputs)
    if traced:
        metrics = tracer.metrics(attempted, attempted / wall)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": attempted / wall, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {"correct": not problems, "attempted": attempted,
            "failed": len(errors) + len(problems), "metrics": metrics}


def run_all(seed: int, seconds: float, traced: bool) -> dict:
    """Each workload in a fresh child process, one at a time."""
    rows, summary = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        modes = (0, 1) if traced else (0,)
        for mode in modes:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(mode)],
                capture_output=True, text=True, timeout=900,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"{workload} failed with exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][f"{workload}.{name}"] = metric
            if mode == 0:
                rows.append((workload, result))
    print(f"{'workload':<13} {'setup_s [s]':>11} {'ops_per_s [1/s]':>15} {'op_p50_s [s]':>12} "
          f"{'peak_rss_mb [MB]':>16} {'attempted':>9} {'failed':>6} {'correct':>7}")
    for workload, r in rows:
        m = r["metrics"]
        print(f"{workload:<13} {m['setup_s']['value']:>11.4f} {m['ops_per_s']['value']:>15.4f} "
              f"{m['op_p50_s']['value']:>12.4f} {m['peak_rss_mb']['value']:>16.1f} "
              f"{r['attempted']:>9} {r['failed']:>6} {str(r['correct']):>7}")
    if traced:
        print("tracing overhead (1 - traced/untraced ops_per_s):")
        for workload, _ in rows:
            plain = summary["metrics"][f"{workload}.ops_per_s"]["value"]
            with_trace = summary["metrics"][f"{workload}.traced.ops_per_s"]["value"]
            print(f"  {workload:<13} {1.0 - with_trace / plain:+.1%}")
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS,
                    help="run one workload (default: all four, one at a time)")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_CAMPAIGN_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    cap_threads()
    if args.setup_only:
        if args.workload is None:
            ap.error("--setup-only needs --workload")
        print(repr(setup_once(args.workload, args.seed)))
        return 0
    if args.workload is None:
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
