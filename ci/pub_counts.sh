#!/usr/bin/env bash
# Public-API ratchet: every crate under crates/ has a budget of `pub`
# declarations in ci/pub_counts.json, and no crate may exceed it. Run from
# the repository root; exits non-zero on any crate over budget or without
# an entry.
set -euo pipefail
budgets=ci/pub_counts.json
fail=0
for dir in crates/*/; do
  crate=$(basename "$dir")
  count=$(grep -rhoE "^\s*pub (fn|struct|enum|trait|const|static|type|mod|use) " "$dir/src" | wc -l)
  budget=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1])).get(sys.argv[2], ""))' "$budgets" "$crate")
  if [ -z "$budget" ]; then
    echo "$crate: $count pub declarations, no entry in $budgets"
    fail=1
  elif [ "$count" -gt "$budget" ]; then
    echo "$crate: $count pub declarations, over its budget of $budget"
    fail=1
  else
    echo "$crate: $count pub declarations (budget $budget)"
  fi
done
exit "$fail"
