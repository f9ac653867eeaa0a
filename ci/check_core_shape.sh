#!/usr/bin/env bash
# Engine-shape ratchet (ROADMAP "`ClusterNode` gets the `Cx` treatment,
# and the shape ratchet covers the workspace"): the ASVM engine's handlers are
# methods on one per-invocation context (`node::Cx`, the object, node,
# instant, VM and effect sink of one event), so no function in
# `crates/core` needs a long parameter list, and the engine is split by
# concern into modules a reader can hold in their head. This check fails
# when a non-test source file under `crates/core/src` grows past MAX_LINES
# lines, or when `too_many_arguments` appears there anywhere but on the
# line above `AsvmNode::evict_external`, whose arguments
# `cluster::Engine::handle_evict` fixes. Lower MAX_LINES when files
# shrink, never raise it.
#
# Test code is exempt: `*tests.rs` files are not counted.
set -euo pipefail
cd "$(dirname "$0")/.."
MAX_LINES=1000
status=0
files=$(find crates/core/src -name '*.rs' ! -name '*tests.rs' | sort)
for f in $files; do
    n=$(wc -l <"$f")
    if [ "$n" -gt "$MAX_LINES" ]; then
        echo "check_core_shape: $f has $n lines (ratchet: $MAX_LINES) — split it by concern" >&2
        status=1
    fi
done
# Every `too_many_arguments` mention whose next line is not the
# `evict_external` signature.
stray=$(
    awk 'FNR == 1 && hit != "" { print hit; hit = "" }
         hit != "" { if ($0 !~ /fn evict_external\(/) print hit; hit = "" }
         /too_many_arguments/ { hit = FILENAME ":" FNR ": " $0 }
         END { if (hit != "") print hit }' $files
)
if [ -n "$stray" ]; then
    printf '%s\n' "$stray"
    echo "check_core_shape: a handler with a long parameter list — make it a method on node::Cx taking only its event's fields" >&2
    status=1
fi
largest=$(wc -l $files | sort -n | tail -2 | head -1 | awk '{ print $2 " (" $1 " lines)" }')
echo "check_core_shape: largest non-test file $largest, ratchet $MAX_LINES; too_many_arguments only on evict_external"
exit $status
