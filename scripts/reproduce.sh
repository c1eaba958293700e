#!/usr/bin/env bash
# Regenerate every table and figure of the paper, plus the ablations,
# into results/. Add --quick for a fast pass, --live to include the
# real-process runs for Figs. 5 and 13.
set -euo pipefail
cd "$(dirname "$0")/.."

EXTRA_ARGS=("$@")
cargo build --release --offline --locked -p janus-bench
BIN="${CARGO_TARGET_DIR:-target}/release"
mkdir -p results

for figure in table1 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 headline ablations; do
    echo "==> ${figure}"
    "$BIN/${figure}" "${EXTRA_ARGS[@]}" | tee "results/${figure}.txt"
    "$BIN/${figure}" --json "${EXTRA_ARGS[@]}" > "results/${figure}.json"
done

echo
echo "done: results/*.txt (human) and results/*.json (machine)"
