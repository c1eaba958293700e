#!/usr/bin/env bash
# Pin byte-exact determinism of the cluster simulator: run the same
# (seed, profile) twice in separate processes and diff the full event
# trace + summary byte-for-byte. Catches any nondeterminism leak —
# unordered map iteration, wall-clock reads, unseeded randomness —
# before it rots the seed corpus. A pair listed in
# tests/dst_trace_digests.txt must also match its committed digest, so
# a trace cannot drift from one commit to the next unnoticed.
#
#   scripts/check_determinism.sh [seed] [profile]
set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
SEED="${1:-42}"
PROFILE="${2:-mixed}"

cd "$REPO"
cargo build --release --offline --locked -p janus-dst --bin dst-trace
TRACE="${CARGO_TARGET_DIR:-$REPO/target}/release/dst-trace"
OUT="$(mktemp -d -t dstdet.XXXXXX)"
trap 'rm -rf "$OUT"' EXIT

run_once() { # outfile
  local status=0
  "$TRACE" "$SEED" "$PROFILE" > "$1" || status=$?
  echo "exit=$status" >> "$1"
}

run_once "$OUT/trace_run1.txt"
run_once "$OUT/trace_run2.txt"

if ! diff -u "$OUT/trace_run1.txt" "$OUT/trace_run2.txt"; then
  echo "DETERMINISM VIOLATION: seed $SEED profile $PROFILE produced different traces" >&2
  exit 1
fi

lines=$(wc -l < "$OUT/trace_run1.txt")
echo "deterministic: seed $SEED profile $PROFILE reproduced byte-identically ($lines lines)"

DIGESTS="tests/dst_trace_digests.txt"
actual="$SEED $PROFILE $(cksum < "$OUT/trace_run1.txt")"
pinned="$(awk -v s="$SEED" -v p="$PROFILE" '$1 == s && $2 == p' "$DIGESTS")"
if [[ -z "$pinned" ]]; then
  echo "no digest pinned for seed $SEED profile $PROFILE in $DIGESTS"
elif [[ "$pinned" != "$actual" ]]; then
  echo "TRACE CHANGED: seed $SEED profile $PROFILE no longer matches $DIGESTS" >&2
  echo "  pinned: $pinned" >&2
  echo "  now:    $actual" >&2
  echo "If the change is deliberate, put the 'now' line in $DIGESTS and say why in CHANGES.md." >&2
  exit 1
else
  echo "pinned: seed $SEED profile $PROFILE matches $DIGESTS"
fi
