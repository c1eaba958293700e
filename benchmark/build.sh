#!/usr/bin/env bash
# Build the std-only Janus rlib chain and the benchmark harness with bare
# rustc: no cargo, no network. The workspace's external dependencies do
# not resolve offline, so the harness links only the modules that compile
# with nothing but std (the complete admission decision path minus codec
# and sockets). Prints the harness path on stdout; everything else goes to
# stderr.
#
#   benchmark/build.sh            # build (or reuse an up-to-date build)
#   benchmark/build.sh --test     # also build and run the harness's unit tests
#
# Artifacts go to $CARGO_TARGET_DIR/janus-benchmark when the variable is
# set, benchmark/target otherwise.
set -euo pipefail

HERE="$(cd "$(dirname "$0")" && pwd)"
REPO="$(cd "$HERE/.." && pwd)"
if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
  mkdir -p "$CARGO_TARGET_DIR"
  OUT="$(cd "$CARGO_TARGET_DIR" && pwd)/janus-benchmark"
else
  OUT="$HERE/target"
fi
RUSTC="${RUSTC:-rustc}"
# The remaps keep the checkout's location out of the binary (panic
# locations, debug info): the same sources build the same harness
# anywhere. Two threads contending on one lock are sensitive enough to
# code placement that a different path alone moved `paper_hot` by 15 %.
FLAGS=(--edition 2021 -C opt-level=3
  --remap-path-prefix "$OUT=/janus-benchmark" --remap-path-prefix "$REPO=/janus")

# Every source file the build reads. A file that moved fails the build
# here, by name, instead of deep inside a rustc error.
CRATE_ROOTS=(
  crates/types/src/lib.rs
  crates/clock/src/lib.rs
  crates/hash/src/lib.rs
  crates/bucket/src/lib.rs
  crates/dst/src/lib.rs
)
SUBSET_MODULES=(
  crates/net/src/breaker.rs
  crates/net/src/fault.rs
  crates/net/src/attempt.rs
  crates/net/src/latency.rs
  crates/server/src/overload.rs
  crates/server/src/lease.rs
  crates/server/src/core.rs
  crates/router/src/core.rs
  crates/workload/src/keys.rs
)
DATA=(tests/dst_corpus.txt)
for rel in "${CRATE_ROOTS[@]}" "${SUBSET_MODULES[@]}" "${DATA[@]}"; do
  if [[ ! -f "$REPO/$rel" ]]; then
    echo "benchmark/build.sh: missing source file: $rel (looked in $REPO)" >&2
    exit 3
  fi
done

# Rebuild only when a source, this script, or the compiler changed.
stamp() {
  {
    "$RUSTC" -V
    echo "${FLAGS[*]}"
    find "$REPO/crates/types/src" "$REPO/crates/clock/src" "$REPO/crates/hash/src" \
      "$REPO/crates/bucket/src" "$REPO/crates/dst/src" "$HERE/src" -name '*.rs' -print0 |
      sort -z | xargs -0 cat
    for rel in "${SUBSET_MODULES[@]}" "${DATA[@]}"; do cat "$REPO/$rel"; done
    cat "$HERE/build.sh"
  } | cksum
}
STAMP="$(stamp)"
if [[ -x "$OUT/harness" && -f "$OUT/stamp" && "$(cat "$OUT/stamp")" == "$STAMP" &&
  "${1:-}" != "--test" ]]; then
  echo "$OUT/harness"
  exit 0
fi

echo "== building std-only rlib chain + harness in $OUT ($("$RUSTC" -V), ${FLAGS[*]})" >&2
rm -rf "$OUT"
mkdir -p "$OUT"

build_rlib() { # crate_name source_file deps...
  local name="$1" src="$2"
  shift 2
  local externs=()
  for dep in "$@"; do externs+=(--extern "$dep=$OUT/lib$dep.rlib"); done
  "$RUSTC" "${FLAGS[@]}" --crate-type rlib --crate-name "$name" "$src" \
    -L "$OUT" -o "$OUT/lib$name.rlib" "${externs[@]}" >&2
}

build_rlib janus_types "$REPO/crates/types/src/lib.rs"
build_rlib janus_clock "$REPO/crates/clock/src/lib.rs"
build_rlib janus_hash "$REPO/crates/hash/src/lib.rs" janus_types
build_rlib janus_bucket "$REPO/crates/bucket/src/lib.rs" janus_types janus_clock
build_rlib janus_net "$HERE/src/subsets/janus_net.rs" janus_types janus_clock janus_hash
build_rlib janus_server "$HERE/src/subsets/janus_server.rs" \
  janus_types janus_clock janus_hash janus_bucket janus_net
build_rlib janus_router "$HERE/src/subsets/janus_router.rs" \
  janus_types janus_clock janus_hash janus_bucket janus_net
build_rlib janus_workload "$HERE/src/subsets/janus_workload.rs" janus_types janus_hash
build_rlib janus_dst "$REPO/crates/dst/src/lib.rs" \
  janus_types janus_clock janus_hash janus_bucket janus_net janus_server janus_router

DEPS=(janus_types janus_clock janus_hash janus_bucket janus_net janus_server janus_router
  janus_workload janus_dst)
externs=()
for dep in "${DEPS[@]}"; do externs+=(--extern "$dep=$OUT/lib$dep.rlib"); done
build_harness() { # output_name [extra rustc args...]
  local out="$1"
  shift
  "$RUSTC" "${FLAGS[@]}" --crate-name harness "$HERE/src/main.rs" \
    -L "$OUT" -o "$OUT/$out" "${externs[@]}" "$@" >&2
}
build_harness harness
if [[ "${1:-}" == "--test" ]]; then
  build_harness harness_tests --test
  "$OUT/harness_tests" >&2
fi

echo "$STAMP" > "$OUT/stamp"
echo "$OUT/harness"
