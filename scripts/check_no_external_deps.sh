#!/usr/bin/env bash
# The zero-dependency rule: every dependency of every workspace member is
# another workspace member. Fails if `[workspace.dependencies]`, a member
# manifest or Cargo.lock names a crate that is not a workspace path.
# Run from anywhere; exits 1 listing each offender.
set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO"
status=0

# Member directories, from the root manifest's `members = [...]` list.
members=$(awk '/^members = \[/{on=1} on{print} on&&/\]/{exit}' Cargo.toml |
  grep -o '"[^"]*"' | tr -d '"')
[[ -n "$members" ]] || { echo "error: no [workspace] members found" >&2; exit 2; }

# 1. [workspace.dependencies]: path entries only.
bad=$(awk '/^\[workspace\.dependencies\]/{on=1; next} /^\[/{on=0} on && NF && !/^#/' Cargo.toml |
  grep -v '^janus-[a-z]* = { path = "crates/[a-z]*" }$' || true)
if [[ -n "$bad" ]]; then
  echo "Cargo.toml [workspace.dependencies] has a non-path entry:"
  echo "$bad" | sed 's/^/  /'
  status=1
fi

# 2. Member manifests: every [*dependencies] line inherits a janus-* crate.
for member in $members; do
  manifest="$member/Cargo.toml"
  bad=$(awk '/^\[(dev-|build-)?dependencies\]/{on=1; next} /^\[/{on=0} on && NF && !/^#/' "$manifest" |
    grep -v '^janus-[a-z]*\.workspace = true$' || true)
  if [[ -n "$bad" ]]; then
    echo "$manifest names a dependency that is not a workspace crate:"
    echo "$bad" | sed 's/^/  /'
    status=1
  fi
  if grep -q '^\[features\]' "$manifest"; then
    echo "$manifest declares cargo features (there is one build configuration)"
    status=1
  fi
done

# 3. Cargo.lock: workspace members only (a registry package has a source).
if [[ ! -f Cargo.lock ]]; then
  echo "Cargo.lock is missing (it is committed)"
  status=1
elif grep -q '^source = ' Cargo.lock; then
  echo "Cargo.lock lists packages from outside the workspace:"
  grep -B2 '^source = ' Cargo.lock | grep '^name = ' | sed 's/^/  /'
  status=1
fi

if [[ $status -eq 0 ]]; then
  echo "ok: $(echo "$members" | wc -l) members, no dependency outside the workspace"
fi
exit $status
