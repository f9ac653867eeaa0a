#!/usr/bin/env bash
# One-code-path ratchet (ROADMAP "One code path for healthy and faulted
# runs"): every `faults.is_active()` call outside `crates/sim` forks
# healthy and faulted runs into different programs, so the healthy
# goldens vouch for less than they seem to. The
# fault *seam* needs no such gate — `FaultPlan::decide` is total — which
# leaves the recovery layer's: the ARQ predicate and the farewell in
# `cluster/src/node.rs`, heartbeat arming in `cluster/src/ssi.rs`, and the
# no-recovery-counters assertion in `workloads/src/scenario.rs`. This
# check lists them and fails when there are more than MAX; lower MAX with
# every gate that goes, never raise it.
#
# Test code is exempt: `*tests.rs` files, and everything from a file's
# first top-level `#[cfg(test)]` on (test modules sit at the bottom of
# their file). Comment lines are skipped.
set -euo pipefail
cd "$(dirname "$0")/.."
MAX=4
sites=$(
    find crates/*/src src examples -name '*.rs' ! -path 'crates/sim/*' ! -name '*tests.rs' | sort |
        while IFS= read -r f; do
            awk '/^#\[cfg\(test\)\]/ { exit }
                 /^[[:space:]]*\/\// { next }
                 /is_active\(\)/ { print FILENAME ":" FNR ": " $0 }' "$f"
        done
)
count=$(printf '%s' "$sites" | grep -c . || true)
printf '%s\n' "$sites"
echo "check_fault_gates: $count fault-plan gate(s) outside crates/sim (ratchet: $MAX)"
if [ "$count" -gt "$MAX" ]; then
    echo "check_fault_gates: a new healthy/faulted fork — make the code total instead (see FaultPlan::decide)" >&2
    exit 1
fi
