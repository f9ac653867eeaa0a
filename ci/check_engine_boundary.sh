#!/usr/bin/env bash
# The coherence engine is one closed enum, `cluster::Engine`, and only its
# own file names a variant: everywhere else in `crates/cluster/src` the
# engine is reached through `Engine`'s methods, which `match` once. The
# cluster node and the Ssi facade also never ask which engine they run:
# no read-only engine view in node.rs/ssi.rs.
set -euo pipefail
cd "$(dirname "$0")/../crates/cluster/src"
status=0
others=$(find . -name '*.rs' ! -name engine.rs | sort)
if grep -nE 'Engine::(Asvm|Xmm|\{|\*)' $others; then
    echo "check_engine_boundary: only engine.rs may name an Engine variant" >&2
    status=1
fi
if grep -nE 'as_asvm|as_xmm|\.asvm\(\)|\.xmm\(\)' node.rs ssi.rs; then
    echo "check_engine_boundary: node.rs/ssi.rs must not ask which engine they run" >&2
    status=1
fi
exit $status
