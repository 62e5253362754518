#!/usr/bin/env bash
# Full static + dynamic gate for MetaComm. Run from the repo root:
#
#   tools/check.sh
#
# Stages:
#   0. metalint: the repo's own concurrency/robustness linter, built
#      straight from tools/metalint.cc with no other dependencies so
#      it gates even a tree that doesn't compile. The real tree must
#      scan clean; every file in tools/metalint_fixtures/ must be
#      flagged (the linter's own negative corpus).
#   1. Clang thread-safety-analysis build (-Wthread-safety plus
#      -Wthread-safety-beta for ACQUIRED_BEFORE ordering) — skipped
#      with a notice when clang++ is not installed; the annotations
#      compile as no-ops elsewhere.
#   2. Regular build + full tier-1 ctest suite, with the runtime
#      lock-order validator pinned on (-DMETACOMM_LOCKDEP=ON) so every
#      threaded suite runs with acquisition-order checking live.
#   2b. lockdep validator self-test: the seeded-inversion death tests
#       (lockdep_test) run explicitly and must prove a deliberate
#       A→B/B→A inversion aborts with both acquisition stacks.
#   3. ThreadSanitizer build and run of the concurrency tests
#      (threaded_test, parallel_um_test — including the lock-free
#      counters under contention — snapshot_stress_test, wire_test —
#      the epoll socket server under adversarial byte patterns and
#      concurrent connections — monitor_test, which reads cn=monitor
#      over TCP, lexpress_exec_test, whose shared-Mapping/
#      per-thread-Vm section proves the lexpress fast path shares no
#      mutable state, coalescing_test and integration_test, whose
#      threaded waves write an LDAP write's directory image after the
#      devices, on the worker, while the client waits, ltap_test,
#      whose lock-wait, quiesce and rename cases run a writer thread
#      against the gateway's one write path, and devices_test, the
#      record store both device simulators share).
#   3b. Fault-injection stress under TSan: fault_tolerance_test (the
#       breaker/repair end-to-end suite, including the threaded
#       Stop-vs-repair-worker shutdown race) and the randomized
#       FaultRecoveryPropertyTest seeds.
#   3c. Kill–restart convergence: tools/kill_restart_harness SIGKILLs
#       a real metacomm_serve mid-write-storm (bounded iterations for
#       CI) and proves restart recovery loses no acknowledged update.
#   4. lexpress_check over the generated mappings and every example
#      mapping file (defects.lex is the linter's own fixture and is
#      expected to FAIL; it is checked for non-zero exit).
#   5. clang-tidy over src/, tools/ and bench/ — skipped when absent.
#   6. Bench smoke: one quick pass of bench_batching with --json and a
#      parse of the emitted BENCH_batching.json. Stages 6-6d run the
#      benches from build/, so their smoke reports land in build/ and
#      the committed BENCH_*.json baselines at the root stay untouched.
#   6b. Wire bench smoke: bench_wire's 100-connection point (real
#       sockets end to end) with --json, parsing BENCH_wire.json.
#   6c. lexpress bench smoke: bench_lexpress's MapRecord and
#       steady-state Translate points (fast and reference pipelines)
#       with --json, parsing BENCH_lexpress.json.
#   6d. Durability bench smoke: bench_durability's WAL-off vs
#       batch-fsync single-writer points with --json, parsing
#       BENCH_durability.json.
#   6e. Served-system benchmark self-test: servebench/selftest.py
#       builds the benchmark against the current tree (a Release tree
#       of its own in .bench_build/servebench, so not part of ctest)
#       and smoke-runs every workload, traced and untraced, with its
#       reply checks and end-state audit. A net or ldap change that
#       breaks the benchmark fails here.
#   7. Bench regression compare: quick reruns from a Release,
#      lockdep-off tree that bench_report.sh builds in build-release/
#      (the build the baselines record; stage 2's build/ has lockdep
#      on), diffed against the committed BENCH_*.json baselines (>20%
#      slowdowns flagged).
#      Non-fatal — smoke-length runs are too noisy to gate on.
#   8. src/ line count: tools/src_lines.sh prints the .h/.cc lines
#      under src/ at HEAD and in the working tree, and the net change
#      (the figure every change reports). Informational, never fails.
set -u

cd "$(dirname "$0")/.."
failures=0

note()  { printf '\n== %s ==\n' "$*"; }
fail()  { printf 'FAIL: %s\n' "$*"; failures=$((failures + 1)); }

jobs="$(nproc 2>/dev/null || echo 4)"

# -- 0. metalint ------------------------------------------------------
# Built directly (standard library only, by design) so this stage
# works even when the tree itself is broken.
note "metalint"
mkdir -p build-metalint
if c++ -std=c++20 -O2 -o build-metalint/metalint tools/metalint.cc; then
  build-metalint/metalint src tools bench tests \
    || fail "metalint findings in the tree"
  for fixture in tools/metalint_fixtures/*.cc; do
    if build-metalint/metalint "$fixture" >/dev/null; then
      fail "metalint missed the seeded defects in $fixture"
    else
      echo "$fixture: flagged as expected"
    fi
  done
else
  fail "metalint build"
fi

# -- 1. Clang thread-safety analysis ---------------------------------
note "clang -Wthread-safety"
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-tsa -S . \
        -DCMAKE_CXX_COMPILER=clang++ \
        -DMETACOMM_THREAD_SAFETY_ANALYSIS=ON >/dev/null \
    && cmake --build build-tsa -j "$jobs" \
    || fail "thread-safety-analysis build"
else
  echo "clang++ not installed; skipping (annotations are no-ops under gcc)"
fi

# -- 2. Tier-1 build + tests (lockdep pinned on) ---------------------
note "tier-1 build + ctest (METACOMM_LOCKDEP=ON)"
cmake -B build -S . -DMETACOMM_LOCKDEP=ON >/dev/null \
  && cmake --build build -j "$jobs" \
  && ctest --test-dir build --output-on-failure -j "$jobs" \
  || fail "tier-1 tests"

# -- 2b. lockdep validator self-test ---------------------------------
note "lockdep seeded-inversion death tests"
if [ -x build/tests/lockdep_test ]; then
  ./build/tests/lockdep_test || fail "lockdep_test"
else
  fail "lockdep_test not built"
fi

# -- 3. TSan concurrency tests ---------------------------------------
note "ThreadSanitizer: threaded_test + parallel_um_test + snapshot_stress_test + wire_test + monitor_test + lexpress_exec_test + coalescing_test + integration_test + ltap_test + devices_test"
if cmake -B build-tsan -S . -DMETACOMM_SANITIZE=thread >/dev/null \
   && cmake --build build-tsan -j "$jobs" \
        --target threaded_test parallel_um_test snapshot_stress_test \
                 wire_test monitor_test lexpress_exec_test \
                 coalescing_test integration_test ltap_test devices_test; then
  ./build-tsan/tests/threaded_test    || fail "threaded_test under TSan"
  ./build-tsan/tests/parallel_um_test || fail "parallel_um_test under TSan"
  ./build-tsan/tests/snapshot_stress_test \
    || fail "snapshot_stress_test under TSan"
  ./build-tsan/tests/wire_test || fail "wire_test under TSan"
  ./build-tsan/tests/monitor_test || fail "monitor_test under TSan"
  ./build-tsan/tests/lexpress_exec_test \
    || fail "lexpress_exec_test under TSan"
  ./build-tsan/tests/coalescing_test \
    || fail "coalescing_test under TSan"
  ./build-tsan/tests/integration_test \
    || fail "integration_test under TSan"
  ./build-tsan/tests/ltap_test || fail "ltap_test under TSan"
  ./build-tsan/tests/devices_test || fail "devices_test under TSan"
else
  fail "TSan build"
fi

# -- 3b. Fault-injection stress under TSan ---------------------------
note "ThreadSanitizer: fault-injection stress"
if cmake --build build-tsan -j "$jobs" \
     --target fault_tolerance_test consistency_property_test; then
  ./build-tsan/tests/fault_tolerance_test \
    || fail "fault_tolerance_test under TSan"
  ./build-tsan/tests/consistency_property_test \
      --gtest_filter='FaultSeeds/*' \
    || fail "FaultRecoveryPropertyTest under TSan"
else
  fail "TSan fault-stress build"
fi

# -- 3c. Kill–restart convergence ------------------------------------
note "kill_restart_harness (3 SIGKILLs mid-storm, zero acked-but-lost)"
if [ -x build/tools/kill_restart_harness ] \
   && [ -x build/tools/metacomm_serve ]; then
  kr_dir="${TMPDIR:-/tmp}/metacomm_check_kill_restart.$$"
  if ./build/tools/kill_restart_harness \
       --serve=build/tools/metacomm_serve \
       --data-dir="$kr_dir" \
       --iterations=3 --threads=4 --min-storm-ms=100 --max-storm-ms=400; then
    echo "kill_restart_harness: PASSED"
  else
    fail "kill_restart_harness"
  fi
  rm -rf "$kr_dir"
else
  fail "kill_restart_harness or metacomm_serve not built"
fi

# -- 4. lexpress check ------------------------------------------------
note "lexpress_check"
check=./build/tools/lexpress_check
if [ -x "$check" ]; then
  "$check" --builtin-schemas --gen -v \
    || fail "generated mappings are not clean"
  for lex in examples/mappings/*.lex; do
    case "$lex" in
      *defects.lex)
        # The seeded-defect fixture must trip the linter.
        if "$check" --builtin-schemas \
             --schema hr=EmployeeId,FullName,JobTitle \
             --schema crm=AccountId,ContactName,Role \
             "$lex" 2>/dev/null; then
          fail "$lex should produce errors and did not"
        else
          echo "$lex: defects flagged as expected"
        fi
        ;;
      *)
        "$check" --builtin-schemas -v "$lex" || fail "$lex"
        ;;
    esac
  done
else
  fail "lexpress_check not built"
fi

# -- 5. clang-tidy (optional) ----------------------------------------
note "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1 && command -v run-clang-tidy >/dev/null 2>&1; then
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  run-clang-tidy -p build -quiet "src/.*" "tools/.*" "bench/.*" \
    || fail "clang-tidy"
else
  echo "clang-tidy not installed; skipping (.clang-tidy documents the profile)"
fi

# Runs one bench's smoke points from build/, so its BENCH_<name>.json
# lands there instead of over the committed baseline at the root, and
# parses the report.
bench_smoke() {
  local name="$1" filter="$2" report="BENCH_${1#bench_}.json"
  if [ ! -x "build/bench/$name" ]; then
    fail "$name not built"
    return
  fi
  rm -f "build/$report"
  if ! (cd build && "./bench/$name" --json --benchmark_min_time=0.01 \
          --benchmark_filter="$filter" >/dev/null); then
    fail "$name smoke run"
  elif python3 -c "import json, sys; json.load(open(sys.argv[1]))" \
         "build/$report" 2>/dev/null; then
    echo "build/$report: valid JSON"
  else
    fail "build/$report missing or unparsable"
  fi
}

# -- 6. Bench smoke ---------------------------------------------------
note "bench smoke (--json)"
bench_smoke bench_batching 'batch:(1|16)/'

# -- 6b. Wire bench smoke ---------------------------------------------
note "bench_wire smoke (100-connection point, --json)"
bench_smoke bench_wire '/100/'

# -- 6c. lexpress bench smoke -----------------------------------------
note "bench_lexpress smoke (fast + reference pipelines, --json)"
bench_smoke bench_lexpress 'MapRecord/32|SteadyState'

# -- 6d. Durability bench smoke ---------------------------------------
note "bench_durability smoke (WAL-off vs batch fsync, --json)"
bench_smoke bench_durability 'DurableWrites/mode:(0|2)/threads:1/'

# -- 6e. servebench self-test -----------------------------------------
note "servebench selftest (every workload, traced and untraced)"
python3 servebench/selftest.py || fail "servebench selftest"

# -- 7. Bench regression compare (non-fatal) -------------------------
note "bench compare vs committed baselines (non-fatal)"
if tools/bench_report.sh --compare --smoke >/tmp/bench_compare.log 2>&1; then
  grep -E '^(== |  |no regressions|SKIP)' /tmp/bench_compare.log || true
  echo "bench compare: no regressions flagged"
else
  grep -E '^== |WARNING: baseline|NOTE: baseline|REGRESSION|regressed|FAIL' \
    /tmp/bench_compare.log || true
  echo "WARN: bench compare flagged >20% slowdowns vs committed" \
       "baselines (informational; smoke runs are noisy, not failing" \
       "the gate)"
fi

# -- 8. src/ line count (informational) ------------------------------
note "src/ line count vs HEAD (informational)"
tools/src_lines.sh || echo "WARN: src_lines.sh failed (informational)"

# --------------------------------------------------------------------
echo
if [ "$failures" -eq 0 ]; then
  echo "check.sh: all stages passed"
else
  echo "check.sh: $failures stage(s) FAILED"
fi
exit "$((failures > 0))"
