#!/usr/bin/env bash
# Runs every bench binary with --json and collects the BENCH_<name>.json
# reports. A full run writes them at the repo root, over the committed
# baselines; --smoke runs write them under build/ and --compare runs
# under build-release/, and both leave the committed baselines alone.
# Run from anywhere:
#
#   tools/bench_report.sh              # full run (default min time)
#   tools/bench_report.sh --smoke      # 1 quick pass per bench (CI)
#   tools/bench_report.sh bench_batching bench_parallel_um
#   tools/bench_report.sh --compare    # diff fresh runs vs committed
#                                      # baselines, flag >20% slowdowns
#
# Each report carries per-run wall time, ops/sec, user counters, and
# the build type, lockdep setting, nproc, commit and storage medium
# that produced it — see bench/bench_main.h. Full and --compare runs
# build the benches themselves, in a Release, lockdep-off tree in
# build-release/, so the baselines and the runs compared with them
# come from one build; --smoke runs use the benches already built in
# build/ (cmake --build build).
#
# --compare reads each committed BENCH_<name>.json out of git HEAD,
# reruns the bench into build-release/, and compares per-run real_ms
# by benchmark name. With no bench names it compares every bench that
# has a committed baseline. Runs more than 20% slower than baseline
# are flagged and the script exits non-zero. A baseline whose
# build_type differs from the fresh run's gets one warning line: its
# ratios compare two builds, not two versions of the code. So does a
# baseline whose storage medium differs. A baseline that records
# neither gets a note instead, since the difference is unknown.
# Benches without a committed baseline are reported and skipped.
set -u

cd "$(dirname "$0")/.."
root="$(pwd)"

min_time=""
compare=0
benches=()
for arg in "$@"; do
  case "$arg" in
    --smoke)   min_time="--benchmark_min_time=0.01" ;;
    --compare) compare=1 ;;
    *)         benches+=("$arg") ;;
  esac
done
# Each bench writes BENCH_<name>.json into its working directory.
bindir=build/bench
outdir="$root"
if [ "$compare" -eq 1 ]; then
  outdir="$root/build-release"
elif [ -n "$min_time" ]; then
  outdir="$root/build"
fi
if [ "$compare" -eq 1 ] || [ -z "$min_time" ]; then
  bindir=build-release/bench
  if [ "${#benches[@]}" -eq 0 ]; then
    if [ "$compare" -eq 1 ]; then
      for report in $(git ls-tree --name-only HEAD); do
        case "$report" in
          BENCH_*.json) name="${report#BENCH_}"
                        benches+=("bench_${name%.json}") ;;
        esac
      done
    else
      for src in bench/bench_*.cc; do
        name="$(basename "$src" .cc)"
        [ "$name" = bench_main ] || benches+=("$name")
      done
    fi
  fi
  if [ "${#benches[@]}" -eq 0 ]; then
    echo "no benches to build: no bench sources or committed baselines" >&2
    exit 1
  fi
  # The build's own output (compiler notes included) goes to a log, so
  # the report below stays readable.
  mkdir -p build-release
  if ! { cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release \
           -DMETACOMM_LOCKDEP=OFF \
         && cmake --build build-release -j "$(nproc 2>/dev/null || echo 4)" \
              --target "${benches[@]}"; } >build-release/bench_build.log 2>&1
  then
    tail -20 build-release/bench_build.log >&2
    echo "FAIL: Release bench build in build-release/" >&2
    exit 1
  fi
fi
if [ "${#benches[@]}" -eq 0 ]; then
  for bin in "$bindir"/bench_*; do
    [ -x "$bin" ] && benches+=("$(basename "$bin")")
  done
fi
if [ "${#benches[@]}" -eq 0 ]; then
  echo "no bench binaries under $bindir — build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

baseline_dir=""
if [ "$compare" -eq 1 ]; then
  baseline_dir="$(mktemp -d)"
  trap 'rm -rf "$baseline_dir"' EXIT
fi

# Compares one baseline report against one fresh report; prints flagged
# runs and returns non-zero when any run regressed by more than 20%.
compare_reports() {
  python3 - "$1" "$2" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    base = json.load(f)
with open(sys.argv[2]) as f:
    fresh = json.load(f)

base_build = base.get("build_type", "unrecorded")
fresh_build = fresh.get("build_type", "unrecorded")
if "build_type" not in base:
    print(f"  NOTE: baseline records no build type, this run "
          f"{fresh_build}: the builds may differ")
elif base_build != fresh_build:
    print(f"  WARNING: baseline built {base_build}, this run "
          f"{fresh_build}: the ratios below compare different builds")
base_storage = base.get("storage", "unrecorded")
fresh_storage = fresh.get("storage", "unrecorded")
if "storage" not in base:
    print(f"  NOTE: baseline records no storage medium, this run "
          f"{fresh_storage}: the media may differ")
elif base_storage != fresh_storage:
    print(f"  WARNING: baseline ran on {base_storage}, this run on "
          f"{fresh_storage}: the ratios below compare different media")

base_runs = {run["name"]: run["real_ms"] for run in base.get("runs", [])}
flagged = []
for run in fresh.get("runs", []):
    name = run["name"]
    if name not in base_runs:
        continue
    before, after = base_runs[name], run["real_ms"]
    # Sub-10us runs are timer noise at any ratio.
    if before <= 0.01:
        continue
    ratio = after / before
    marker = " <-- REGRESSION" if ratio > 1.2 else ""
    print(f"  {name}: {before:.3f}ms -> {after:.3f}ms ({ratio:.2f}x){marker}")
    if ratio > 1.2:
        flagged.append(name)

if flagged:
    print(f"{len(flagged)} run(s) regressed >20% vs committed baseline")
    sys.exit(1)
print("no regressions >20%")
PY
}

failures=0
regressions=0
for name in "${benches[@]}"; do
  bin="$root/$bindir/$name"
  if [ ! -x "$bin" ]; then
    echo "SKIP $name (not built)"
    continue
  fi
  report="BENCH_${name#bench_}.json"
  if [ "$compare" -eq 1 ]; then
    if git cat-file -e "HEAD:$report" 2>/dev/null; then
      git show "HEAD:$report" > "$baseline_dir/$report"
    else
      echo "SKIP $name (no committed $report baseline to compare)"
      continue
    fi
  fi
  printf '\n== %s ==\n' "$name"
  # shellcheck disable=SC2086
  if ! (cd "$outdir" && "$bin" --json $min_time); then
    echo "FAIL: $name"
    failures=$((failures + 1))
    continue
  fi
  if [ "$compare" -eq 1 ]; then
    echo "compare vs HEAD:$report"
    compare_reports "$baseline_dir/$report" "$outdir/$report" \
      || regressions=$((regressions + 1))
  fi
done

printf '\nreports in %s:\n' "$outdir"
(cd "$outdir" && ls -1 BENCH_*.json 2>/dev/null) || echo "  (none)"
[ "$regressions" -gt 0 ] && echo "bench compare: $regressions bench(es) with flagged regressions"
exit "$(( (failures + regressions) > 0 ))"
