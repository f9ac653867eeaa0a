#!/usr/bin/env bash
# The benchmark's one command: build the runner, run it, check its outputs.
#
#   perf/run.sh [--seed N] [--seconds S] [--quick]
#       the whole set: every workload untraced (end-to-end metrics) and
#       traced (per-layer metrics); prints every metric by name and writes
#       perf/out/perf-<seed>.json and .tsv. Exits non-zero if a check fails.
#
#   perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one measurement; the last line of stdout is its JSON result. This is
#       the form BENCHMARK.json's "command" is run in.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")

if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ]; then
    echo "perf/run.sh: the simulator's sources are not at $root; nothing to measure" >&2
    exit 3
fi

# The benchmark must time the build users get: same [profile.release].
profile() {
    awk '/^\[profile\.release\]/ { on = 1; next } /^\[/ { on = 0 }
         on && NF && $0 !~ /^[[:space:]]*#/ { gsub(/[[:space:]]/, ""); print }' "$1" | sort
}
if [ "$(profile "$here/Cargo.toml")" != "$(profile "$root/Cargo.toml")" ]; then
    echo "perf/run.sh: [profile.release] of perf/Cargo.toml differs from the root manifest's:" >&2
    diff <(profile "$root/Cargo.toml") <(profile "$here/Cargo.toml") >&2 || true
    exit 3
fi

# perf/.cargo/config.toml points cargo at the root's target directory, but
# only for invocations from inside perf/; do the same from anywhere, and
# anchor a relative CARGO_TARGET_DIR at the caller's directory.
target=${CARGO_TARGET_DIR:-$root/target}
case $target in /*) ;; *) target=$PWD/$target ;; esac
export CARGO_TARGET_DIR=$target
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin=$target/release/perf

for arg in "$@"; do
    if [ "$arg" = --workload ]; then
        exec "$bin" "$@"
    fi
done

seed=1996
seconds=
quick=
while [ $# -gt 0 ]; do
    case $1 in
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --quick) quick=--quick; : "${seconds:=0}"; shift ;;
        *) echo "perf/run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

out=$here/out
mkdir -p "$out"
tsv=$out/perf-$seed.tsv
doc=$out/perf-$seed.json
log=$out/.last-run
rm -f "$tsv"

status=0
# Runs one measurement, prints its report, leaves its JSON line in $last.
measure() {
    if ! "$bin" --workload "$1" --trace "$2" --seed "$seed" ${seconds:+--seconds "$seconds"} \
        $quick --tsv "$tsv" >"$log"; then
        status=1
    fi
    last=$(tail -n 1 "$log")
    case $last in
        '{'*) sed '$d' "$log" ;;
        *) cat "$log"; last=null ;;
    esac
}

exec 3>&1
{
    printf '{"seed": %s, "quick": %s, "workloads": {' "$seed" "$([ -n "$quick" ] && echo true || echo false)"
    sep=
    for w in $("$bin" --list); do
        measure "$w" 0 >&3
        printf '%s\n  "%s": {"end_to_end": %s,' "$sep" "$w" "$last"
        measure "$w" 1 >&3
        printf '\n    "per_layer": %s}' "$last"
        sep=,
    done
    printf '\n}}\n'
} >"$doc"
exec 3>&-
rm -f "$log"

echo "wrote $doc and $tsv"
if [ $status -ne 0 ]; then
    echo "perf/run.sh: at least one output check FAILED (see CHECK FAILED above)" >&2
fi
exit $status
