#!/usr/bin/env python3
"""Validate a bench_traffic --json report (the CI traffic-smoke gate).

Usage: check_traffic_report.py REPORT [REPORT...] [--compare OTHER]
                               [--expect-crossover]

Checks, per "traffic steering — <arch>" table:

  1. Flow conservation — every row satisfies
         generated == hits + misses + shed + dropped
     (the steering loop's invariant: an arrival is dropped by the chaos
     plan, shed by the resilience layer, or looked up, and a lookup
     either hits or misses; nothing is double-counted or lost. Tables
     without a "shed" column read shed = 0 — the legacy identity).

  2. Monotone hit ratio in skew — within one (flows, pattern, heater)
     group, a more skewed population must not lower the flow-cache hit
     ratio. The simulation is deterministic, so this holds exactly up to
     the printed precision; a small epsilon absorbs rounding of the
     "hit %" column.

Checks, per "traffic overload campaign" table (DESIGN.md §17.4):

  3. Shed conservation per row (the identity above, audited exactly in
     SEMPERM_AUDIT builds — here re-proved from the printed counters).

  4. Monotone degradation shape — within one (pattern, fault, admission)
     group, shed must not decrease as offered-load intensity rises, and
     the served-work floor must never collapse: every row's
     served/kcycle is positive and the group's worst row stays within
     50x of its best (graceful degradation, not a cliff).

  5. The doorkeeper earns its keep — admission-off rows report zero
     rejects; admission-on rows reject someone; and under the flash
     crowd the admission filter's standing-population hit ratio ("hot
     hit %") must not lose to the no-filter baseline at any intensity,
     and must beat it outright somewhere.

With --compare, the two reports must be equal as parsed JSON documents —
the determinism gate: two runs at the same --seed (and --fault spec) must
write identical reports, every table, metric and registry value.

With --expect-crossover, the "traffic crossover" table must show the
locality effect: among rows whose flow table fits inside the LLC (at
nonzero skew), the best heater speedup must exceed 1.02x; and if any row's
table overflows 2x the LLC, its speedup must fall below the best
fitting-row speedup (the semi-permanent-occupancy effect vanishes once the
working set cannot be kept resident).

Exit 0 = all checks pass, 1 = any violation.
"""

import argparse
import json
import sys

EPS = 5e-4  # hit % is printed with 2 decimals; ratios to 4 decimals

STEERING_PREFIX = "traffic steering"
CROSSOVER_PREFIX = "traffic crossover"
CAMPAIGN_PREFIX = "traffic overload campaign"


def load_report(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("partial"):
        raise SystemExit(f"{path}: report is marked partial")
    return doc


def rows_as_dicts(table):
    headers = table["headers"]
    return [dict(zip(headers, row)) for row in table["rows"]]


def check_conservation(path, table, errors):
    for i, row in enumerate(rows_as_dicts(table)):
        generated = int(row["generated"])
        accounted = (int(row["hits"]) + int(row["misses"]) +
                     int(row.get("shed", 0)) + int(row["dropped"]))
        if generated != accounted:
            errors.append(
                f"{path}: {table['title']} row {i}: conservation violated: "
                f"generated {generated} != hits+misses+shed+dropped "
                f"{accounted}")


def check_skew_monotonicity(path, table, errors):
    groups = {}
    for i, row in enumerate(rows_as_dicts(table)):
        key = (row["flows"], row["pattern"], row["heater"])
        groups.setdefault(key, []).append(
            (float(row["skew"]), float(row["hit %"]), i))
    for key, points in groups.items():
        points.sort()
        for (s_lo, hit_lo, _), (s_hi, hit_hi, i) in zip(points, points[1:]):
            if hit_hi < hit_lo - 100 * EPS:  # hit % column, percent units
                errors.append(
                    f"{path}: {table['title']} row {i}: hit ratio fell with "
                    f"skew ({hit_lo}% at s={s_lo} -> {hit_hi}% at s={s_hi}) "
                    f"for group {key}")


def check_campaign(path, table, errors):
    title = table["title"]
    rows = rows_as_dicts(table)
    # Monotone degradation shape within one (pattern, fault, admission)
    # group as offered-load intensity rises.
    groups = {}
    for i, row in enumerate(rows):
        key = (row["pattern"], row["fault"], row["admission"])
        groups.setdefault(key, []).append(
            (int(row["intensity"]), int(row["shed"]),
             float(row["served/kcycle"]), i))
    for key, points in groups.items():
        points.sort()
        for (n_lo, shed_lo, _, _), (n_hi, shed_hi, _, i) in zip(
                points, points[1:]):
            if shed_hi < shed_lo:
                errors.append(
                    f"{path}: {title} row {i}: shed fell with intensity "
                    f"({shed_lo} at {n_lo}x -> {shed_hi} at {n_hi}x) for "
                    f"group {key}")
        served = [s for (_, _, s, _) in points]
        if min(served) <= 0.0:
            errors.append(
                f"{path}: {title}: served/kcycle collapsed to zero for "
                f"group {key}: {served}")
        elif min(served) < 0.02 * max(served):
            errors.append(
                f"{path}: {title}: served-work floor collapsed for group "
                f"{key}: min {min(served):.4f} < 2% of max "
                f"{max(served):.4f} — degradation must be graceful")
    # The admission ablation: zero rejects with the doorkeeper off, some
    # with it on, and the standing population ("hot hit %") protected
    # under the flash crowd.
    for i, row in enumerate(rows):
        rejects = int(row["rejects"])
        if row["admission"] == "off" and rejects != 0:
            errors.append(
                f"{path}: {title} row {i}: {rejects} admission rejects "
                f"with the filter off")
        if row["admission"] == "on" and rejects == 0:
            errors.append(
                f"{path}: {title} row {i}: admission filter on but no "
                f"rejects — the campaign regime is not stressing it")
    pairs = {}
    for row in rows:
        if row["pattern"] != "flash":
            continue
        key = (int(row["intensity"]), row["fault"])
        pairs.setdefault(key, {})[row["admission"]] = float(row["hot hit %"])
    best_win = None
    for key, by_admission in sorted(pairs.items()):
        if "on" not in by_admission or "off" not in by_admission:
            errors.append(f"{path}: {title}: flash cell {key} missing an "
                          f"admission ablation row")
            continue
        win = by_admission["on"] - by_admission["off"]
        if win < -100 * EPS:
            errors.append(
                f"{path}: {title}: admission filter *lost* hot-flow hit "
                f"ratio under flash at {key}: on {by_admission['on']}% < "
                f"off {by_admission['off']}%")
        best_win = win if best_win is None else max(best_win, win)
    if best_win is not None and best_win <= 0.1:
        errors.append(
            f"{path}: {title}: admission filter never clearly beat the "
            f"no-filter baseline under flash (best win {best_win:.2f} "
            f"hot-hit percentage points)")


def check_crossover(path, tables, errors):
    cross = [t for t in tables if t["title"].startswith(CROSSOVER_PREFIX)]
    if not cross:
        errors.append(f"{path}: --expect-crossover but no crossover table")
        return
    fitting, oversized = [], []
    for table in cross:
        for row in rows_as_dicts(table):
            skew = float(row["skew"])
            table_mib = float(row["table MiB"])
            llc_mib = float(row["LLC MiB"])
            speedup = float(row["speedup"])
            label = f"{row['arch']}/{row['flows']}"
            if skew > 0 and table_mib <= llc_mib:
                fitting.append((speedup, label))
            elif table_mib >= 2 * llc_mib:
                oversized.append((speedup, label))
    if not fitting:
        errors.append(f"{path}: no LLC-fitting crossover rows to judge")
        return
    best, best_label = max(fitting)
    if best < 1.02:
        errors.append(
            f"{path}: heater speedup {best:.3f}x at {best_label} — no "
            f"locality win even though the flow table fits the LLC")
    for speedup, label in oversized:
        if speedup >= best - 0.05:
            errors.append(
                f"{path}: speedup {speedup:.3f}x at {label} (table >= 2x "
                f"LLC) does not collapse below the fitting best "
                f"{best:.3f}x at {best_label}")


def check_compare(path_a, doc_a, path_b, errors):
    doc_b = load_report(path_b)
    for key in sorted(set(doc_a) | set(doc_b)):
        if doc_a.get(key) != doc_b.get(key):
            errors.append(
                f"{path_a} vs {path_b}: '{key}' differs — same-seed runs "
                f"must write identical reports")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("reports", nargs="+")
    ap.add_argument("--compare", help="second same-seed report that must "
                    "equal the first")
    ap.add_argument("--expect-crossover", action="store_true")
    args = ap.parse_args()

    errors = []
    for path in args.reports:
        doc = load_report(path)
        tables = doc.get("tables", [])
        steering = [t for t in tables
                    if t["title"].startswith(STEERING_PREFIX)]
        campaign = [t for t in tables
                    if t["title"].startswith(CAMPAIGN_PREFIX)]
        if not steering and not campaign:
            errors.append(f"{path}: no '{STEERING_PREFIX}' or "
                          f"'{CAMPAIGN_PREFIX}' tables")
        checked = 0
        for table in steering:
            check_conservation(path, table, errors)
            check_skew_monotonicity(path, table, errors)
            checked += len(table["rows"])
        for table in campaign:
            check_conservation(path, table, errors)
            check_campaign(path, table, errors)
            checked += len(table["rows"])
        if args.expect_crossover:
            check_crossover(path, tables, errors)
        if args.compare:
            check_compare(path, doc, args.compare, errors)
        print(f"{path}: {checked} steering/campaign rows checked")

    if errors:
        print("\ntraffic-smoke failed:", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print("traffic-smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
