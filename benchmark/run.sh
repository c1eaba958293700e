#!/usr/bin/env bash
# Build the harness and run the Janus benchmark.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run of one workload (what BENCHMARK.json's command does). The
#       last stdout line is {"correct", "attempted", "failed", "metrics"}.
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke]
#       The suite: every workload untraced (end-to-end metrics), then every
#       workload traced (per-layer metrics), as one JSON document on stdout.
#       --smoke runs 0.2 s timed phases, for a quick local sanity check.
#   benchmark/run.sh --compare A.json B.json
#       Two suite documents against the bounds in BENCHMARK.json, row by row;
#       exits non-zero on any regressed row.
#   benchmark/run.sh --selfcheck [--seed N] [--seconds S]
#       The suite twice, then --compare of the two.
#
# Exits non-zero when the build fails or a correctness gate is breached.
set -euo pipefail

HERE="$(cd "$(dirname "$0")" && pwd)"
REPO="$(cd "$HERE/.." && pwd)"
MANIFEST="$REPO/BENCHMARK.json"
OUT="$HERE/out"
WORKLOADS=(paper_hot fast_hot fast_deny wide_keyspace lease_hot sim_faults)

workload="" seed=1 seconds="" trace=0 mode=suite compare_a="" compare_b=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; mode=one; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --smoke) seconds=1; shift ;;
    --selfcheck) mode=selfcheck; shift ;;
    --compare) mode=compare; compare_a="$2"; compare_b="$3"; shift 3 ;;
    *) echo "benchmark/run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [[ -z "$seconds" ]]; then
  # BENCHMARK.json's run_seconds, so the suite measures what the gate does.
  seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$MANIFEST")"
fi

HARNESS="$("$HERE/build.sh")"

# {"rustc", "flags", "nproc", "cpu", "commit", "seed"} on one line.
context() {
  local cpu commit
  cpu="$(sed -n 's/^model name[^:]*: *//p' /proc/cpuinfo 2>/dev/null | head -n 1)"
  commit="$(git -C "$REPO" rev-parse HEAD 2>/dev/null || echo unknown)"
  printf '{"rustc": "%s", "flags": "--edition 2021 -C opt-level=3", "nproc": %s, "cpu": "%s", "commit": "%s", "seed": %s, "seconds": %s}' \
    "$(rustc -V)" "$(nproc)" "${cpu:-unknown}" "$commit" "$seed" "$seconds"
}

run_one() { # workload trace
  "$HARNESS" run --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2" \
    --trace-dir "$OUT"
}

# Every workload untraced, then every workload traced, as one document:
# {"context": {...}, "runs": [{"detail": {...}, "result": {...}}, ...]}.
# Stops (non-zero, document unfinished) at the first run that fails.
suite() {
  local sep="" lines
  printf '{"context": %s,\n "runs": [' "$(context)"
  for t in 0 1; do
    for w in "${WORKLOADS[@]}"; do
      echo "== $w --trace $t" >&2
      lines="$(run_one "$w" "$t")"
      printf '%s\n  {"detail": %s,\n   "result": %s}' "$sep" \
        "$(tail -n 2 <<<"$lines" | head -n 1)" "$(tail -n 1 <<<"$lines")"
      sep=","
    done
  done
  printf '\n ]}\n'
}

case "$mode" in
  one)
    context
    echo
    run_one "$workload" "$trace"
    ;;
  suite)
    suite
    ;;
  compare)
    "$HARNESS" compare "$MANIFEST" "$compare_a" "$compare_b"
    ;;
  selfcheck)
    mkdir -p "$OUT"
    "$HARNESS" check-manifest "$MANIFEST"
    suite > "$OUT/selfcheck-a.json"
    suite > "$OUT/selfcheck-b.json"
    "$HARNESS" compare "$MANIFEST" "$OUT/selfcheck-a.json" "$OUT/selfcheck-b.json"
    ;;
esac
