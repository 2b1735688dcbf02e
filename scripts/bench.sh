#!/usr/bin/env bash
# Wall-clock benchmark of the spatial hot path against a baseline
# revision. Builds bench_hotpath in Release mode twice — once in this
# tree, once in a detached worktree of the baseline ref (default:
# HEAD~1) with the same harness source copied in — runs both with
# identical fixed seeds, and merges the two reports into BENCH_pr9.json.
# Besides the zero-copy benchmarks, both trees run the fault-recovery
# scenario (5% task failures + stragglers), the incremental-ingest
# scenario (catalog appends vs a full rebuild), the server-saturation
# scenario (concurrent tenant sessions through the query server,
# reporting simulated p50/p99 request latencies), and the
# optimizer-planning scenario (cost-based join/range/index planning,
# whose row checksum pins every EXPLAIN plan line and must be identical
# across reruns and admission seeds).
#
# Fails if the parse-once invariant is violated (geometry parses exceed
# the record-visit bound of any benchmark in the current tree) or if the
# fault-injected sweep's rows diverge from the clean run.
#
# Usage: scripts/bench.sh [baseline-ref]        (default: HEAD~1)
#        REPS=5 OUT=my.json scripts/bench.sh    (env overrides)
set -euo pipefail

cd "$(dirname "$0")/.."
BASELINE_REF="${1:-HEAD~1}"
REPS="${REPS:-3}"
OUT="${OUT:-BENCH_pr9.json}"
BASELINE_DIR=".bench-baseline"

echo "== building current tree (Release) =="
cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-bench -j "$(nproc)" --target bench_hotpath

echo "== preparing baseline worktree (${BASELINE_REF}) =="
git worktree remove --force "${BASELINE_DIR}" 2>/dev/null || true
rm -rf "${BASELINE_DIR}"
git worktree add --detach "${BASELINE_DIR}" "${BASELINE_REF}"
trap 'git worktree remove --force "'"${BASELINE_DIR}"'" 2>/dev/null || true' EXIT

# The harness itself rides along, so both trees run the same scenarios.
cp bench/bench_hotpath.cc "${BASELINE_DIR}/bench/"

echo "== building baseline (Release) =="
cmake -B "${BASELINE_DIR}/build-bench" -S "${BASELINE_DIR}" \
  -DCMAKE_BUILD_TYPE=Release
cmake --build "${BASELINE_DIR}/build-bench" -j "$(nproc)" \
  --target bench_hotpath

echo "== running baseline =="
# Only the current tree's parse bounds gate (its run below and the
# merge). The baseline is a reference for timings and checksums: one
# that predates a tightened bound writes its report and fails the bound,
# which is reported here and not fatal. A baseline that writes no report
# still fails the script.
rm -f build-bench/baseline.json
"${BASELINE_DIR}/build-bench/bench/bench_hotpath" \
  --label "baseline-$(git rev-parse --short "${BASELINE_REF}")" \
  --reps "${REPS}" --out build-bench/baseline.json ||
  echo "warning: baseline exceeds a parse bound of the current harness" >&2
test -s build-bench/baseline.json

echo "== running current =="
./build-bench/bench/bench_hotpath \
  --label "current-$(git rev-parse --short HEAD)" \
  --reps "${REPS}" --out build-bench/current.json

echo "== merging -> ${OUT} =="
./build-bench/bench/bench_hotpath --merge \
  build-bench/baseline.json build-bench/current.json > "${OUT}"
cat "${OUT}"

# Trajectory check: a scenario whose speedup drops versus the previous
# PR's report is a regression in the making (spatial_join slid
# 1.10x -> 1.05x between pr3 and pr6 with nothing saying so). Compare
# each scenario against the newest committed BENCH_pr*.json other than
# ${OUT} and warn — advisory, not blocking, because reports may span
# runners; the same-runner wall-clock bound stays the blocking check.
PREV=""
for report in $(ls BENCH_pr*.json 2>/dev/null | sort -V); do
  [ "${report}" = "${OUT}" ] && continue
  PREV="${report}"
done
if [ -n "${PREV}" ]; then
  echo "== speedup trajectory vs ${PREV} =="
  awk -v prev="${PREV}" -v prev_name="${PREV}" '
    function row(line, arr) {
      if (match(line, /"name": "[^"]+"/) == 0) return ""
      name = substr(line, RSTART + 9, RLENGTH - 10)
      if (match(line, /"speedup": [-0-9.eE+]+/) == 0) return ""
      arr[name] = substr(line, RSTART + 11, RLENGTH - 11) + 0
      return name
    }
    FNR == NR { row($0, p); next }          # first file: previous report
    {
      name = row($0, c)
      # Rows either tree could not run carry speedup <= 0; skip them.
      if (name == "" || !(name in p) || p[name] <= 0 || c[name] <= 0) next
      printf "  %-20s %.2fx -> %.2fx", name, p[name], c[name]
      if (c[name] < p[name]) {
        printf "   WARNING: speedup fell vs %s", prev_name
        warned = 1
      }
      printf "\n"
    }
    END { if (warned) print "  (investigate before merging: a drop here compounds silently)" }
  ' "${PREV}" "${OUT}"
fi
