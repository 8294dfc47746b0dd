#!/usr/bin/env python3
"""Compare a bench_selfperf JSON report against a checked-in baseline.

Usage: perf_compare.py BASELINE CURRENT [--max-regress 2.0]

Every *_per_sec metric present in the baseline (bench_selfperf's
<scenario>_<unit>_per_sec rates: cachesim lines, traffic ranks, flows and
lookups) must exist in the current report and must not be slower than
baseline/max-regress. The bound is deliberately loose (2x by default): it
catches "the simulator got pathologically slower" without tripping on
runner-to-runner variance.

Every compared metric prints its ratio and signed delta even when the run
passes, so a CI log answers "how far from the cliff is this runner?"
without rerunning anything. A metric present in the baseline but absent
from the candidate fails with its own distinct message (a renamed or
dropped scenario is a harness bug, not a slowdown — the fix is different).
Metrics only in the current report (new scenarios, and the native queue
and heater rows, which have no baseline) are reported, not compared. *_p999 tail quantiles are always informational: they jitter too
much between runners to gate on, so a baseline that carries them never
fails a run over them. Exit code 0 = ok, 1 = regression or missing
metric.
"""

import argparse
import json
import sys


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--max-regress", type=float, default=2.0,
                    help="fail if current < baseline / this factor")
    args = ap.parse_args()

    with open(args.baseline) as f:
        base = json.load(f).get("metrics", {})
    with open(args.current) as f:
        cur = json.load(f).get("metrics", {})

    regressions = []
    missing = []
    for name, base_rate in sorted(base.items()):
        if name.endswith("_p999"):
            # p999 tail quantiles jitter wildly from runner to runner
            # (one slow sample moves them); print for context but never
            # gate on them — absent or shifted p999s are not failures.
            cur_val = cur.get(name)
            shown = f"{cur_val:12.4g}" if cur_val is not None else f"{'ABSENT':>12s}"
            print(f"{name:44s} {base_rate:12.4g} -> {shown} "
                  f"         (informational, never compared)")
            continue
        if not name.endswith("_per_sec"):
            continue
        if name not in cur:
            missing.append(name)
            print(f"{name:44s} {base_rate:12.4g} -> {'ABSENT':>12s} "
                  f"         MISSING FROM CANDIDATE")
            continue
        cur_rate = cur[name]
        ratio = cur_rate / base_rate if base_rate > 0 else float("inf")
        delta_pct = (ratio - 1.0) * 100.0
        verdict = "ok"
        if cur_rate < base_rate / args.max_regress:
            verdict = f"REGRESSION (>{args.max_regress:g}x slower)"
            regressions.append(f"{name}: {base_rate:.3g} -> {cur_rate:.3g}")
        print(f"{name:44s} {base_rate:12.4g} -> {cur_rate:12.4g} "
              f"({ratio:5.2f}x, {delta_pct:+6.1f}%)  {verdict}")

    for name in sorted(set(cur) - set(base)):
        if name.endswith("_per_sec"):
            print(f"{name:44s} {'new':>12s} -> {cur[name]:12.4g}")

    if regressions or missing:
        print("\nperf-smoke failed:", file=sys.stderr)
        for m in missing:
            print(f"  {m}: present in baseline but missing from the "
                  "candidate report — scenario renamed, dropped, or "
                  "filtered out (fix the harness, not the perf)",
                  file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        return 1
    print("\nperf-smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
