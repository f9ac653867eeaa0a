#!/usr/bin/env bash
# One experiment of the `bench` driver against itself and the goldens.
#
#   ci/bench_check.sh <name> [seed...]        (default: 1996)
#
# For every seed, `bench <name> --serial --stable-json --seed <seed>` runs
# twice and both its stdout and its BENCH_<name>.json must come out
# byte-identical: the simulator is deterministic, so any difference is a
# bug. The seed-1996 run is also diffed against the committed goldens/<name>.stdout.txt and,
# where one is committed, BENCH_<name>.json — an event ordering, protocol
# message (the per-kind `asvm.msg.*` / `asvm.prefetch.*` counters live in
# those JSONs) or cost model that moved shows up here. Every cell that
# completes has also passed the quiescence invariants, or the run fails.
# Where `bench list` says --seed changes the cells, different seeds must
# also write different JSON (a seed that stopped reaching the workload
# would otherwise go unnoticed). Each run has a 120 s wall-clock budget:
# the slowest experiments (megascale, table3) take about 10 s.
#
# Runs in a scratch directory (the driver writes its JSON into the cwd),
# so the checkout stays clean.
set -euo pipefail

name=${1:?usage: ci/bench_check.sh <name> [seed...]}
shift
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(1996)

root=$(cd "$(dirname "$0")/.." && pwd)
cargo build --release --quiet -p bench --manifest-path "$root/Cargo.toml"
bench=${CARGO_TARGET_DIR:-$root/target}/release/bench

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# run <dir> <seed>: one run's stdout and JSON, side by side in <dir>.
run() {
    mkdir -p "$1"
    (cd "$1" && timeout 120 "$bench" "$name" --serial --stable-json --seed "$2" \
        >stdout.txt 2>stderr.txt) || {
        echo "bench_check: bench $name --seed $2 failed or ran past 120 s:"
        cat "$1/stderr.txt"
        exit 1
    }
}

# same <what> <a> <b>: byte-identical or a readable diff and exit.
same() {
    if ! cmp -s "$2" "$3"; then
        echo "bench_check: $name: $1"
        diff -u "$2" "$3" | head -60 || true
        exit 1
    fi
}

json=BENCH_$name.json
for seed in "${seeds[@]}"; do
    run "$work/$seed.a" "$seed"
    run "$work/$seed.b" "$seed"
    same "two runs at seed $seed printed different tables" "$work/$seed".{a,b}/stdout.txt
    same "two runs at seed $seed wrote different JSON" "$work/$seed".{a,b}/"$json"
    echo "bench_check: $name seed $seed: two runs byte-identical"
done

if "$bench" list | grep -q "^$name  *--seed"; then
    for seed in "${seeds[@]:1}"; do
        if cmp -s "$work/${seeds[0]}.a/$json" "$work/$seed.a/$json"; then
            echo "bench_check: $name: seeds ${seeds[0]} and $seed wrote the same JSON"
            exit 1
        fi
    done
fi

if [ -d "$work/1996.a" ]; then
    hint="regenerate from the repo root with: target/release/bench $name --serial --stable-json > goldens/$name.stdout.txt"
    same "stdout diverged from goldens/$name.stdout.txt ($hint)" \
        "$root/goldens/$name.stdout.txt" "$work/1996.a/stdout.txt"
    if [ -f "$root/$json" ]; then
        same "$json diverged from the committed file ($hint)" "$root/$json" "$work/1996.a/$json"
    fi
    echo "bench_check: $name matches the committed goldens"
fi
