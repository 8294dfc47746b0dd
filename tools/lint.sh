#!/usr/bin/env bash
# Repo lint gate — textual checks only (no toolchain dependencies).
#
# The structural checks that used to live here as greps (raw new/delete,
# rand()/srand(), un-audited MESI state mutation) have moved to the
# scope-aware analyzer, which resolves statements to their enclosing
# function instead of pattern-matching lines:
#
#   python3 tools/semperm_analyze/analyze.py --compdb build/compile_commands.json
#
# This script keeps only what is genuinely textual:
#   1. banned includes — <random> and <ctime> are banned across src/:
#      randomness goes through common/rng.hpp (seeded xoshiro), and
#      calendar time has no business inside the simulators. (<chrono> is
#      allowed: the transport layer paces real threads with it, under a
#      justified semperm-analyze tag.)
#   2. std::mutex outside the annotated wrappers — concurrent code uses
#      semperm::Mutex / MutexLock / UniqueLock / CondVar
#      (common/mutex.hpp) so Clang's -Wthread-safety sees every lock.
#      Function-local mutexes guarding thread-local aggregation may be
#      exempted with `// lint:allow-std-mutex`.
#   3. bare NOLINT — a suppression must name the check it silences.
#   4. trailing whitespace — cheap, and keeps diffs quiet.
#   5. one host clock in bench/ — bench_selfperf is the only bench main
#      that reads the host clock, sleeps, starts threads or links a timing
#      harness, so every other main writes the same report on every
#      same-seed run. bench_util.cpp keeps the clock, sleep and thread of
#      its report guard and --debug-hang.
#
# Exits non-zero with the offending lines on any violation. When a
# compile_commands.json exists, the analyzer runs as a final stage so
# `tools/lint.sh` stays the one-command local gate.
set -u
cd "$(dirname "$0")/.."

fail=0

# --- 1. banned includes ------------------------------------------------------
banned_inc=$(grep -rn --include='*.hpp' --include='*.cpp' \
                  -E '#include[[:space:]]*<(random|ctime)>' src)
if [ -n "$banned_inc" ]; then
  echo "lint: banned include (<random> -> common/rng.hpp; <ctime> has no"
  echo "place in simulation code):"
  echo "$banned_inc"
  fail=1
fi

# --- 2. std::mutex outside the annotated wrappers ---------------------------
# common/mutex.hpp is the one place allowed to name the raw types: it wraps
# them with capability annotations.
raw_mutex=$(grep -rn --include='*.hpp' --include='*.cpp' \
                 -E 'std::(mutex|lock_guard|unique_lock|condition_variable)\b' \
                 src \
            | grep -v '^src/common/mutex.hpp:' \
            | grep -v 'lint:allow-std-mutex')
if [ -n "$raw_mutex" ]; then
  echo "lint: raw std::mutex/lock_guard/unique_lock/condition_variable (use"
  echo "semperm::Mutex/MutexLock/UniqueLock/CondVar from common/mutex.hpp so"
  echo "-Wthread-safety sees the lock; // lint:allow-std-mutex for"
  echo "function-local exceptions):"
  echo "$raw_mutex"
  fail=1
fi

# --- 3. bare NOLINT ----------------------------------------------------------
# A NOLINT that names no check silences everything forever; the policy
# (.clang-tidy header) requires NOLINT(check-name) plus a nearby comment
# explaining why the check is wrong there.
bare_nolint=$(grep -rn --include='*.hpp' --include='*.cpp' 'NOLINT' src \
              | grep -vE 'NOLINT(NEXTLINE)?\(')
if [ -n "$bare_nolint" ]; then
  echo "lint: bare NOLINT (name the check: NOLINT(check-name), and say why"
  echo "in a comment):"
  echo "$bare_nolint"
  fail=1
fi

# --- 4. trailing whitespace --------------------------------------------------
trailing=$(grep -rn --include='*.hpp' --include='*.cpp' -E '[[:space:]]+$' src)
if [ -n "$trailing" ]; then
  echo "lint: trailing whitespace:"
  echo "$trailing"
  fail=1
fi

# --- 5. one host clock in bench/ ---------------------------------------------
host_clock=$(grep -nE 'steady_clock|system_clock|high_resolution_clock|common/timer\.hpp|sleep_for|std::thread|HeaterThread|benchmark/benchmark\.h' \
                  bench/*.cpp bench/*.hpp \
             | grep -vE '^bench/(bench_selfperf|bench_util)\.cpp:')
if [ -n "$host_clock" ]; then
  echo "lint: host clock, sleep, thread or timing harness in a bench main"
  echo "other than bench_selfperf (host-timed measurements belong there, so"
  echo "every other report stays byte-deterministic):"
  echo "$host_clock"
  fail=1
fi

# --- 6. the structural analyzer (when a build exists) ------------------------
if [ -f build/compile_commands.json ]; then
  if ! python3 tools/semperm_analyze/analyze.py \
         --compdb build/compile_commands.json; then
    fail=1
  fi
else
  echo "lint: note: no build/compile_commands.json — run cmake to enable the"
  echo "structural analyzer stage (tools/semperm_analyze)"
fi

if [ "$fail" -eq 0 ]; then
  echo "lint: OK"
fi
exit "$fail"
