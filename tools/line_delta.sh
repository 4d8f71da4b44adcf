#!/usr/bin/env bash
# Net line delta per subsystem between two revisions.
#
#   tools/line_delta.sh <base> [<head>]
#
# Without <head>, <base> is compared with the working tree (tracked and
# staged files). From `git diff --numstat`, prints lines added, removed
# and net for each src/<dir>, the src/ total, and the totals of tests/,
# bench/ and tools/. Binary files count as zero lines; a rename counts
# as a deletion plus an addition.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 || $1 == -h || $1 == --help ]]; then
    echo "usage: tools/line_delta.sh <base> [<head>]" >&2
    exit 2
fi

git diff --no-renames --numstat "$@" -- src tests bench tools |
awk -F'\t' '
    BEGIN {
        split("src total,tests,bench,tools", fixed, ",")
        for (i in fixed) { A[fixed[i]] = 0; D[fixed[i]] = 0 }
    }
    {
        add = ($1 == "-") ? 0 : $1
        del = ($2 == "-") ? 0 : $2
        n = split($3, p, "/")
        key = p[1]
        if (key == "src") {
            key = (n > 2) ? "src/" p[2] : "src/(top)"
            A["src total"] += add
            D["src total"] += del
        }
        A[key] += add
        D[key] += del
    }
    END {
        order["src total"] = 2; order["tests"] = 3
        order["bench"] = 4; order["tools"] = 5
        for (k in A) {
            rank = (k in order) ? order[k] : 1
            printf "%d\t%s\t%d\t%d\n", rank, k, A[k], D[k]
        }
    }' |
sort -t$'\t' -k1,1n -k2,2 |
awk -F'\t' '
    BEGIN { printf "%-18s %8s %8s %8s\n", "subsystem", "added", "removed", "net" }
    { printf "%-18s %8d %8d %+8d\n", $2, $3, $4, $3 - $4 }'
