#!/usr/bin/env bash
# Every `unsafe` block, fn or impl in any Rust file under crates/ must be
# justified by a `// SAFETY:` comment in the (up to 8) lines above it —
# room for a multi-line justification plus the statement's own
# continuation lines. Run from the repo root; exits 1 listing each naked
# `unsafe`.
#
# DESIGN.md §7 lists every block that exists; a new one must carry its
# comment here and join that list. The script also counts the blocks —
# every `unsafe {` outside a line comment; an `unsafe fn` or `unsafe impl`
# needs its comment but is not a block — and exits 1 when the total
# differs from the number §7 states ("listed here: N blocks").
set -euo pipefail

if [[ ! -d crates ]]; then
    echo "error: crates/ not found (run from the repo root)" >&2
    exit 2
fi

mapfile -t files < <(find crates -name '*.rs' -not -path '*/target/*' | sort)
status=0
scanned=0

for file in "${files[@]}"; do
    scanned=$((scanned + 1))
    naked=$(awk '
        function covered(  i) {
            if ($0 ~ /\/\/ SAFETY:/) return 1
            for (i = 1; i <= 8; i++) {
                if (prev[i] ~ /\/\/ SAFETY:/) return 1
            }
            return 0
        }
        /(^|[^[:alnum:]_"])unsafe([^[:alnum:]_]|$)/ {
            # Ignore mentions inside line comments (doc text) and the
            # lint name itself.
            if ($0 !~ /^[[:space:]]*\/\// && $0 !~ /unsafe_op_in_unsafe_fn/ && !covered()) {
                printf "%s:%d: unsafe without a // SAFETY: comment\n", FILENAME, FNR
            }
        }
        {
            for (i = 8; i > 1; i--) prev[i] = prev[i - 1]
            prev[1] = $0
        }
    ' "$file")
    if [[ -n "$naked" ]]; then
        echo "$naked"
        status=1
    fi
done

blocks=$(cat "${files[@]}" | grep -vE '^[[:space:]]*//' |
    grep -oE '(^|[^[:alnum:]_"])unsafe[[:space:]]*\{' | wc -l)
listed=$(grep -oE 'listed here: [0-9]+ blocks' DESIGN.md | grep -oE '[0-9]+' || true)
if [[ "$blocks" != "$listed" ]]; then
    echo "DESIGN.md §7 lists ${listed:-no count of} unsafe blocks; crates/ has $blocks"
    status=1
fi

if [[ $status -eq 0 ]]; then
    echo "ok: every unsafe in the $scanned Rust files under crates/ carries a // SAFETY: comment; $blocks blocks, as DESIGN.md §7 lists"
fi
exit $status
