#!/usr/bin/env bash
# Does the benchmark agree with itself? Runs the whole set twice at seed
# 1996 and once at seed 777, then prints, per workload and metric, both
# seed-1996 values, their ratio and the bound, as Markdown.
#
# Fails if a pair disagrees by more than its bound (end-to-end host
# metrics; two times also pass when they differ by under 20 ms, which is
# all of setup_s today and everything at --quick size), or at all
# (simulated metrics, counts, sim_digest), or if any run - the seed-777 one
# included - fails an output check. Per-layer host metrics have no
# bound: their ratio is printed, not judged.
#
#   perf/check_repeat.sh [--seconds S] [--quick] > perf/BASELINE.md
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$here/out

run_set() { # seed, name of the kept TSV
    "$here/run.sh" --seed "$1" "${@:3}" >&2
    mv "$out/perf-$1.tsv" "$out/$2.tsv"
}
run_set 1996 repeat-a "$@"
run_set 1996 repeat-b "$@"
run_set 777 repeat-777 "$@"

cpu=$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
cat <<EOF
# perf baseline

First row of the host-performance trajectory: \`perf/check_repeat.sh${*:+ $*}\`,
two whole sets at seed 1996 (columns *a* and *b*) and one at seed 777
(output checks only).

- date: $(date -u +%Y-%m-%d)
- cores: $(nproc)
- cpu: ${cpu:-unknown}
- toolchain: $(rustc --version), $(cargo --version)
- commit: $(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)

*kind* is \`host\` (wall clock or memory: may differ within *bound*) or
\`exact\` (simulated time, a count or a digest: must be identical).
EOF

awk -F'\t' '
    FNR == NR { a[$1 "\t" $2] = $3; next }
    {
        key = $1 "\t" $2
        if ($1 != workload) {
            workload = $1
            printf "\n## %s\n\n| metric | unit | kind | a | b | b/a | bound | |\n|---|---|---|---|---|---|---|---|\n", workload
        }
        if (!(key in a)) { printf "| %s | | | missing | %s | | | FAIL |\n", $2, $3; bad++; next }
        va = a[key]; vb = $3; seen[key] = 1
        verdict = ""
        if ($5 == "exact") {
            ratio = (va == vb) ? "=" : "differs"
            if (va != vb) { verdict = "FAIL"; bad++ }
            bound = "0"
        } else {
            r = (va > 0) ? vb / va : 0
            ratio = sprintf("%.3f", r)
            bound = ($6 > 0) ? sprintf("%g %%", 100 * $6) : "-"
            worse = (va > vb) ? va / vb - 1 : vb / va - 1
            gap = (va > vb) ? va - vb : vb - va
            if ($6 > 0 && worse > $6 && !($4 == "s" && gap < 0.020)) { verdict = "FAIL"; bad++ }
        }
        printf "| %s | %s | %s | %s | %s | %s | %s | %s |\n", $2, $4, $5, va, vb, ratio, bound, verdict
    }
    END {
        for (k in a) if (!(k in seen)) { printf "\nmissing from b: %s\n", k; bad++ }
        printf "\n%s\n", bad ? bad " disagreement(s): FAIL" : "Both sets agree within the bounds; seed 777 passed every output check."
        exit bad ? 1 : 0
    }
' "$out/repeat-a.tsv" "$out/repeat-b.tsv"
