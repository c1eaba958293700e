#!/usr/bin/env bash
# The simplicity ledger: three counts a simplicity change is judged by.
#
#   1. Non-test Rust lines, per file and per crate, under crates/: every
#      line of a file before its `#[cfg(test)]` module (a whole file when
#      it has none). Files under a crate's tests/ directory, and files of a
#      module declared as `#[cfg(test)] mod name;`, are all test code and
#      count zero.
#   2. `unsafe {` blocks in crates/ (line comments excluded), the count
#      DESIGN.md §7 lists and scripts/check_safety_comments.sh checks.
#   3. `pub` fields of the three configuration structs an operator sets:
#      QosServerConfig, RouterConfig and DeploymentConfig.
#   4. Arms of the configuration enums an operator picks from: TableKind,
#      SocketMode, LbMode, RetryBackoff, TimeoutPolicy, DefaultRulePolicy.
#
# Run from the repo root: `scripts/ledger.sh`. Informational: it always
# exits 0 once it has found crates/.
set -euo pipefail

if [[ ! -d crates ]]; then
    echo "error: crates/ not found (run from the repo root)" >&2
    exit 2
fi

mapfile -t files < <(find crates -name '*.rs' -not -path '*/target/*' -not -path 'crates/*/tests/*' | sort)

# Lines before the first column-0 `#[cfg(test)]` that opens an inline
# module (`mod name {`; a gated `mod name;` only names another file),
# other attributes between the two allowed.
non_test_lines() {
    awk '
        pending && /^(pub(\([a-z]+\))? )?mod [a-z_0-9]+ \{/ { print pending - 1; found = 1; exit }
        pending && /^#\[/ { next }
        { pending = 0 }
        /^#\[cfg\(test\)\]/ { pending = NR }
        END { if (!found) print NR }
    ' "$1"
}

# Files of modules declared `#[cfg(test)] mod name;` at column 0: the
# module's file (name.rs or name/mod.rs beside the declaring file, or
# under its stem directory when that is not lib.rs, main.rs or mod.rs)
# and everything under its directory.
declare -A test_only=()
for file in "${files[@]}"; do
    dir=$(dirname "$file")
    case $(basename "$file") in
        lib.rs | main.rs | mod.rs) ;;
        *) dir=$dir/$(basename "$file" .rs) ;;
    esac
    for name in $(awk '
        pending && match($0, /^(pub(\([a-z]+\))? )?mod [a-z_0-9]+;/) {
            sub(/^(pub(\([a-z]+\))? )?mod /, ""); sub(/;.*/, ""); print
        }
        pending && /^#\[/ { next }
        { pending = /^#\[cfg\(test\)\]/ }
    ' "$file"); do
        for other in "${files[@]}"; do
            case $other in
                "$dir/$name.rs" | "$dir/$name"/*) test_only[$other]=1 ;;
            esac
        done
    done
done

echo "== non-test lines per file"
declare -A per_crate=()
total=0
for file in "${files[@]}"; do
    if [[ -n ${test_only[$file]:-} ]]; then
        n=0
    else
        n=$(non_test_lines "$file")
    fi
    printf '%7d  %s\n' "$n" "$file"
    crate=${file#crates/}
    crate=${crate%%/*}
    per_crate[$crate]=$(( ${per_crate[$crate]:-0} + n ))
    total=$((total + n))
done

echo "== non-test lines per crate"
for crate in $(printf '%s\n' "${!per_crate[@]}" | sort); do
    printf '%7d  crates/%s\n' "${per_crate[$crate]}" "$crate"
done
printf '%7d  crates/ (total)\n' "$total"

echo "== unsafe blocks"
blocks=$(cat "${files[@]}" $(find crates -path 'crates/*/tests/*' -name '*.rs' | sort) |
    grep -vE '^[[:space:]]*//' | grep -oE '(^|[^[:alnum:]_"])unsafe[[:space:]]*\{' | wc -l)
printf '%7d  unsafe { blocks in crates/\n' "$blocks"

echo "== pub fields of the configuration structs"
for spec in QosServerConfig:crates/server/src/config.rs \
    RouterConfig:crates/router/src/lib.rs \
    DeploymentConfig:crates/core/src/deployment.rs; do
    name=${spec%%:*}
    file=${spec#*:}
    fields=$(awk -v name="$name" '
        $0 ~ "^pub struct " name " \\{" { inside = 1; next }
        inside && /^\}/ { exit }
        inside && /^    pub [a-z_0-9]+:/ { n++ }
        END { print n + 0 }
    ' "$file")
    printf '%7d  %s (%s)\n' "$fields" "$name" "$file"
done

echo "== arms of the configuration enums"
for spec in TableKind:crates/server/src/config.rs \
    SocketMode:crates/server/src/config.rs \
    LbMode:crates/core/src/deployment.rs \
    RetryBackoff:crates/net/src/udp.rs \
    TimeoutPolicy:crates/net/src/latency.rs \
    DefaultRulePolicy:crates/bucket/src/policy.rs; do
    name=${spec%%:*}
    file=${spec#*:}
    arms=$(awk -v name="$name" '
        $0 ~ "^pub enum " name " \\{" { inside = 1; next }
        inside && /^\}/ { exit }
        inside && /^    [A-Z][A-Za-z0-9_]*([,({ ]|$)/ { n++ }
        END { print n + 0 }
    ' "$file")
    printf '%7d  %s (%s)\n' "$arms" "$name" "$file"
done
