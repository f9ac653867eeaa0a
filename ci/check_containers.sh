#!/usr/bin/env bash
# Determinism guard: the simulator's non-test code may name `HashMap`,
# `HashSet` or `RandomState` only inside the one container module
# (crates/machvm/src/containers.rs), which wraps a hash index behind a
# fixed hasher and key-ordered iteration. A per-process-seeded map whose
# iteration order reaches a message would break byte-identical goldens
# only sometimes — the worst way to find out.
#
# Test code is exempt: `*tests.rs` files, and everything from a file's
# first `#[cfg(test)]` on (test modules sit at the bottom of their file).
set -euo pipefail
cd "$(dirname "$0")/.."
allowed=crates/machvm/src/containers.rs
status=0
while IFS= read -r f; do
    case $f in "$allowed" | *tests.rs) continue ;; esac
    if hits=$(awk '/#\[cfg\(test\)\]/ { exit } /HashMap|HashSet|RandomState/ { print FILENAME ":" FNR ": " $0 }' "$f") \
        && [ -n "$hits" ]; then
        echo "$hits"
        status=1
    fi
done < <(find crates/{sim,transport,machvm,pager,core,xmm,cluster}/src -name '*.rs' | sort)
if [ $status -ne 0 ]; then
    echo "check_containers: hash containers belong in $allowed only (use KeyTable/SlotTable/SortedMap/NodeSet)" >&2
fi
exit $status
