#!/usr/bin/env python3
"""Self-test for tools/semperm_analyze.

Three gates:

  1. Every seeded fixture under tests/analyze_fixtures/ fires exactly
     its expected check IDs (with exact counts) and nothing else.
  2. --check filtering returns only the requested IDs, and a check that
     does not apply to a fixture exits clean.
  3. The real tree is clean: analyzing the build's compile_commands.json
     yields zero findings and exit status 0.

Run directly:
  python3 tests/test_semperm_analyze.py --repo-root . \
      --compdb build/compile_commands.json
or via ctest (registered in tests/CMakeLists.txt as semperm_analyze_selftest).
"""

import argparse
import collections
import json
import os
import subprocess
import sys

# fixture path (relative to tests/analyze_fixtures/) -> {check-id: count}
EXPECTED = {
    "src/cachesim/uses_rand.cpp": {
        "determinism-rand": 2,
    },
    "src/cachesim/uses_wall_clock.cpp": {
        "determinism-wall-clock": 3,
    },
    # The degradation ladder runs inside run_steering's simulated world:
    # an untagged native clock read there must be flagged.
    "src/resilience/ladder_wall_clock.cpp": {
        "determinism-wall-clock": 1,
    },
    "src/cachesim/unseeded_rng.cpp": {
        "determinism-unseeded-rng": 3,
    },
    "src/coherence/mesi_bypass.cpp": {
        "audit-mesi-bypass": 4,
    },
    "src/hotcache/hot_alloc.cpp": {
        "hotpath-alloc": 2,
    },
    "src/match/match_hot_alloc.cpp": {
        "hotpath-alloc": 2,
    },
    # Negative control: allocations hidden inside the compiled-out
    # SEMPERM_PROF_* / SEMPERM_OWNER_SCOPE observability macros must not
    # fire; only the genuine tail push_back counts.
    "src/obs/prof_owner_exempt.cpp": {
        "hotpath-alloc": 1,
    },
    "src/hotcache/seqlock_bad.hpp": {
        "seqlock-payload": 2,
    },
    "src/memlayout/heat_anchor_bad.hpp": {
        "layout-heat-anchor": 2,
    },
    "src/common/raw_new_delete.cpp": {
        "alloc-raw-new": 1,
        "alloc-raw-delete": 2,
    },
    "src/common/bad_suppression.cpp": {
        "suppression-missing-justification": 3,
    },
}

ALL_CHECK_IDS = (
    "determinism-rand", "determinism-wall-clock", "determinism-unseeded-rng",
    "audit-mesi-bypass", "hotpath-alloc", "seqlock-payload",
    "layout-heat-anchor", "alloc-raw-new", "alloc-raw-delete",
    "suppression-missing-justification",
)

failures = []


def check(name, ok, detail=""):
    tag = "ok  " if ok else "FAIL"
    print(f"  {tag} {name}" + (f" — {detail}" if detail and not ok else ""))
    if not ok:
        failures.append(f"{name}: {detail}")


def run_analyzer(analyzer, argv):
    proc = subprocess.run(
        [sys.executable, analyzer] + argv,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return proc


def findings_by_check(proc):
    counts = collections.Counter()
    if proc.stdout.strip():
        for f in json.loads(proc.stdout):
            counts[f["check"]] += 1
    return dict(counts)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repo-root", default=".")
    ap.add_argument("--compdb", default=None,
                    help="compile_commands.json for the clean-tree gate "
                         "(gate is skipped when absent)")
    args = ap.parse_args()

    root = os.path.abspath(args.repo_root)
    analyzer = os.path.join(root, "tools", "semperm_analyze", "analyze.py")
    fixdir = os.path.join(root, "tests", "analyze_fixtures")
    if not os.path.isfile(analyzer):
        print(f"analyzer not found: {analyzer}", file=sys.stderr)
        return 2

    # --- Gate 1: every fixture fires exactly its expected IDs -------------
    print("fixture detection:")
    for rel, expected in sorted(EXPECTED.items()):
        path = os.path.join(fixdir, rel)
        if not os.path.isfile(path):
            check(rel, False, "fixture file missing")
            continue
        proc = run_analyzer(analyzer, [path, "--json"])
        got = findings_by_check(proc)
        check(rel, got == expected,
              f"expected {expected}, got {got or '{}'}; "
              f"stderr: {proc.stderr.strip()}")
        check(f"{rel} (exit status)", proc.returncode == 1,
              f"expected exit 1, got {proc.returncode}")

    # Undetected fixtures on disk would silently rot: every fixture file
    # must appear in EXPECTED.
    on_disk = set()
    for dirpath, _dirs, files in os.walk(fixdir):
        for f in files:
            if f.endswith((".cpp", ".hpp", ".h", ".cc")):
                on_disk.add(os.path.relpath(os.path.join(dirpath, f), fixdir))
    check("every fixture file has expectations",
          on_disk == set(EXPECTED),
          f"on disk but untested: {sorted(on_disk - set(EXPECTED))}; "
          f"expected but missing: {sorted(set(EXPECTED) - on_disk)}")

    # All fixtures analyzed together must fire the same totals (cross-file
    # indexing must not create or hide findings).
    all_paths = [os.path.join(fixdir, rel) for rel in sorted(EXPECTED)]
    proc = run_analyzer(analyzer, all_paths + ["--json"])
    total_expected = collections.Counter()
    for expected in EXPECTED.values():
        total_expected.update(expected)
    got = findings_by_check(proc)
    check("combined run matches per-fixture totals",
          got == dict(total_expected),
          f"expected {dict(total_expected)}, got {got}")

    # --- Gate 2: --check filtering ----------------------------------------
    print("check filtering:")
    rand_fixture = os.path.join(fixdir, "src/cachesim/uses_rand.cpp")
    proc = run_analyzer(analyzer,
                        [rand_fixture, "--check", "determinism-rand", "--json"])
    check("--check selects the named check",
          findings_by_check(proc) == {"determinism-rand": 2},
          f"got {findings_by_check(proc)}")
    proc = run_analyzer(analyzer,
                        [rand_fixture, "--check", "hotpath-alloc", "--json"])
    check("--check excludes everything else",
          proc.returncode == 0 and findings_by_check(proc) == {},
          f"exit {proc.returncode}, got {findings_by_check(proc)}")
    proc = run_analyzer(analyzer, ["--list-checks"])
    listed = proc.stdout
    check("--list-checks names every ID",
          all(cid in listed for cid in ALL_CHECK_IDS),
          f"missing: {[c for c in ALL_CHECK_IDS if c not in listed]}")

    # --- Gate 3: the real tree is clean -----------------------------------
    print("clean-tree gate:")
    if args.compdb and os.path.isfile(args.compdb):
        proc = run_analyzer(analyzer, ["--compdb", args.compdb, "--json"])
        got = findings_by_check(proc)
        check("src/ has zero findings",
              proc.returncode == 0 and got == {},
              f"exit {proc.returncode}, findings {got}\n{proc.stdout}")
    else:
        print(f"  skip src/ gate (no compile_commands.json at "
              f"{args.compdb!r})")

    if failures:
        print(f"\n{len(failures)} failure(s):")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nall gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
