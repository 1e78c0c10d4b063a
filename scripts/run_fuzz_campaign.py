#!/usr/bin/env python3
"""Run the default 500-trial theorem-regime campaign and write the report.

Usage: python scripts/run_fuzz_campaign.py [--trials N] [--seed S]
                                           [--out campaign.json] [--corpus DIR]

Prints the counts, the wall time, the user and system CPU seconds and minor
page faults of the campaign (resource.getrusage of this process), per-kind
p50/p95 wall times and the SHA-256 of the report file; identical seeds give
identical digests.  Exit code 0 iff the campaign records zero violations.
"""

import argparse
import hashlib
import math
import resource
import sys
import time

from pseudocalc.harness import FuzzConfig, run_campaign


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: the smallest value with at least q of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--seed", type=int, default=20260808)
    ap.add_argument("--out", default="campaign.json")
    ap.add_argument("--corpus", default="corpus", help="violation dump directory")
    args = ap.parse_args()

    cfg = FuzzConfig(seed=args.seed, trials=args.trials)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    report = run_campaign(cfg, corpus_dir=args.corpus)
    elapsed = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)

    data = (report.to_json() + "\n").encode()
    with open(args.out, "wb") as fh:
        fh.write(data)
    print(f"trials={cfg.trials} holds={report.holds} violations={report.violations} "
          f"not_evaluable={report.not_evaluable}")
    print(f"elapsed {elapsed:.1f}s")
    print(f"cpu user {after.ru_utime - usage.ru_utime:.1f}s "
          f"system {after.ru_stime - usage.ru_stime:.1f}s, "
          f"minor page faults {after.ru_minflt - usage.ru_minflt}")
    for kind in cfg.kinds:
        times = [t.wall_time for t in report.trials if t.scenario.check_kind == kind]
        if times:
            p50, p95 = quantile(times, 0.5), quantile(times, 0.95)
            print(f"  {kind}: {len(times)} trials, p50 {p50:.3f}s, p95 {p95:.3f}s, "
                  f"max {max(times):.3f}s")
    print(f"report written to {args.out} (sha256 {hashlib.sha256(data).hexdigest()})")
    if report.violations:
        print(f"violation scenarios dumped under {args.corpus}/")
    return 0 if report.violations == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
