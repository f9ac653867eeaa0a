#!/usr/bin/env bash
# The cluster node and the Ssi facade reach their coherence engine only
# through the `CoherenceEngine` trait: no downcast, no engine inspector.
# (The `_mut` downcasts no longer exist, so those fail to compile instead.)
set -euo pipefail
cd "$(dirname "$0")/../crates/cluster/src"
if grep -nE 'as_asvm|as_xmm|\.asvm\(\)|\.xmm\(\)' node.rs ssi.rs; then
    echo "check_engine_boundary: node.rs/ssi.rs must not ask which engine they run" >&2
    exit 1
fi
