#!/usr/bin/env bash
# Pin the simulator's traces in aggregate: run `dst-trace` for every
# entry of tests/dst_corpus.txt, then seeds 1..N of each fault profile
# (N = 100 unless given), append each run's `exit=<status>` line after
# its output, and `cksum` the whole stream. The result must equal the
# `sweep <N>` line of tests/dst_trace_digests.txt, so a simulator change
# that moves any one of those 40 + 11 x N traces by a byte fails here.
#
#   scripts/check_trace_sweep.sh [N]
#
# Runs take a few milliseconds each on the release binary; the default
# sweep (1,140 runs) takes seconds.
set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
SEEDS="${1:-100}"

cd "$REPO"
cargo build --release --offline --locked -p janus-dst --bin dst-trace
TRACE="${CARGO_TARGET_DIR:-$REPO/target}/release/dst-trace"
# The usage text lists the profiles in their canonical order.
PROFILES="$("$TRACE" 2>&1 | sed -n 's/^profiles: //p' || true)"
if [[ -z "$PROFILES" ]]; then
  echo "could not read the profile list from dst-trace's usage text" >&2
  exit 2
fi

run() { # seed profile
  local status=0
  "$TRACE" "$1" "$2" || status=$?
  echo "exit=$status"
}

sweep() {
  while read -r seed profile _; do
    [[ -z "$seed" || "$seed" == \#* ]] && continue
    run "$seed" "$profile"
  done < tests/dst_corpus.txt
  for profile in $PROFILES; do
    for ((seed = 1; seed <= SEEDS; seed++)); do
      run "$seed" "$profile"
    done
  done
}

actual="sweep $SEEDS $(sweep | cksum)"
echo "$actual"

DIGESTS="tests/dst_trace_digests.txt"
pinned="$(awk -v n="$SEEDS" '$1 == "sweep" && $2 == n' "$DIGESTS")"
if [[ -z "$pinned" ]]; then
  echo "no sweep digest pinned for $SEEDS seeds in $DIGESTS"
elif [[ "$pinned" != "$actual" ]]; then
  echo "TRACES CHANGED: the $SEEDS-seed sweep no longer matches $DIGESTS" >&2
  echo "  pinned: $pinned" >&2
  echo "  now:    $actual" >&2
  echo "If the change is deliberate, put the 'now' line in $DIGESTS and say why in CHANGES.md." >&2
  exit 1
else
  echo "pinned: the $SEEDS-seed sweep matches $DIGESTS"
fi
