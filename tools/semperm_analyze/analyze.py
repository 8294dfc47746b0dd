#!/usr/bin/env python3
"""semperm_analyze — the repo's domain-invariant static analyzer.

Usage:
  python3 tools/semperm_analyze/analyze.py --compdb build/compile_commands.json
  python3 tools/semperm_analyze/analyze.py file.cpp [file2.hpp ...]
  python3 tools/semperm_analyze/analyze.py --list-checks

With --compdb, the analyzed translation-unit set is exactly the build's
(compile_commands.json is exported by the top-level CMakeLists), filtered
to files under src/; headers under src/ are added so header-only hot
paths and struct layouts are covered. Explicit file arguments analyze
those files instead (used by the fixture tests; path fragments like
src/coherence in a fixture's path select the dir-scoped checks exactly
as they do in the real tree).

Exit status: 0 = clean, 1 = findings, 2 = usage/configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import ALL_CHECKS, SIM_DIR_FRAGMENTS, run_checks  # noqa: E402
from cppindex import ProjectIndex, index_file  # noqa: E402

_CHECK_DOCS = {
    "determinism-rand":
        "rand()/srand()/rand_r() in simulation directories",
    "determinism-wall-clock":
        "steady/system/high_resolution clock reads in simulation "
        "directories (simulated time must be an explicit input)",
    "determinism-unseeded-rng":
        "std::random_device or default-seeded <random> engines in "
        "simulation directories",
    "audit-mesi-bypass":
        "MESI state mutated outside CoherentHierarchy::set_state / "
        "drop_sharer (resolved against the enclosing function, not grep)",
    "hotpath-alloc":
        "allocation (new/malloc/growing-container call) transitively "
        "reachable from a SEMPERM_HOT function",
    "seqlock-payload":
        "plain (non-atomic) payload member in a seqlock-versioned struct",
    "alloc-raw-new":
        "raw new expression (placement new exempt)",
    "alloc-raw-delete":
        "raw delete expression (deleted functions exempt)",
    "suppression-missing-justification":
        "a `semperm-analyze: allow(...)` tag without `-- <justification>`, "
        "or naming an unknown check",
}


def _sources_from_compdb(compdb_path: str) -> list:
    try:
        with open(compdb_path, "r", encoding="utf-8") as fh:
            entries = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"semperm_analyze: cannot read compile database "
              f"{compdb_path}: {e}", file=sys.stderr)
        sys.exit(2)
    files = set()
    roots = set()
    for entry in entries:
        f = entry.get("file", "")
        if not os.path.isabs(f):
            f = os.path.join(entry.get("directory", ""), f)
        f = os.path.normpath(f)
        norm = f.replace("\\", "/")
        if "/src/" in norm and norm.endswith((".cpp", ".cc", ".cxx")):
            files.add(f)
            roots.add(norm.split("/src/")[0])
    # Headers are not TUs but carry hot inline paths and struct layouts.
    for root in roots:
        src = os.path.join(root, "src")
        for dirpath, _dirnames, filenames in os.walk(src):
            for name in filenames:
                if name.endswith((".hpp", ".h", ".hh")):
                    files.add(os.path.normpath(os.path.join(dirpath, name)))
    if not files:
        print(f"semperm_analyze: {compdb_path} lists no src/ translation "
              "units — run cmake first (CMAKE_EXPORT_COMPILE_COMMANDS is "
              "ON by default)", file=sys.stderr)
        sys.exit(2)
    return sorted(files)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="semperm_analyze",
        description="Domain-invariant static analysis for the semperm tree")
    ap.add_argument("files", nargs="*",
                    help="explicit files to analyze (overrides --compdb)")
    ap.add_argument("--compdb", metavar="PATH",
                    help="compile_commands.json exported by the build")
    ap.add_argument("--check", action="append", metavar="ID",
                    help="run only these check IDs (repeatable)")
    ap.add_argument("--json", action="store_true",
                    help="emit findings as a JSON array")
    ap.add_argument("--list-checks", action="store_true",
                    help="print the check IDs and exit")
    args = ap.parse_args(argv)

    if args.list_checks:
        for check in ALL_CHECKS:
            print(f"{check}\n    {_CHECK_DOCS[check]}")
        return 0

    if args.files:
        files = args.files
    elif args.compdb:
        files = _sources_from_compdb(args.compdb)
    else:
        ap.print_usage(sys.stderr)
        print("semperm_analyze: need --compdb or explicit files",
              file=sys.stderr)
        return 2

    only = None
    if args.check:
        unknown = [c for c in args.check if c not in ALL_CHECKS]
        if unknown:
            print(f"semperm_analyze: unknown check id(s): "
                  f"{', '.join(unknown)}", file=sys.stderr)
            return 2
        only = set(args.check)

    index = ProjectIndex()
    for path in files:
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                source = fh.read()
        except OSError as e:
            print(f"semperm_analyze: cannot read {path}: {e}",
                  file=sys.stderr)
            return 2
        index.add(index_file(path, source))

    findings = run_checks(index, SIM_DIR_FRAGMENTS, only)

    if args.json:
        print(json.dumps([f.__dict__ for f in findings], indent=2))
    else:
        for f in findings:
            print(f.format())
        n_files = len(index.files)
        n_funcs = len(index.all_funcs())
        print(f"semperm_analyze: {len(findings)} finding(s) across "
              f"{n_files} file(s), {n_funcs} function(s) indexed",
              file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
