#!/usr/bin/env bash
# Stale-filter guard: every `go test ... -run P pkgs` line of the CI workflow
# must select tests. `go test` passes with "no tests to run" when a -run
# filter matches nothing, so a filter still naming a deleted or renamed test
# runs nothing and stays green.
#
# Each |-alternative of P (split outside parentheses) must select a test of
# the line's packages: its top-level part, before the first / outside
# parentheses, must match a name `go test -list` prints, and a subtest part
# must start a subtest — checked by running the alternative without the race
# detector (with -short when the line has it) and looking for a subtest's
# `=== RUN` line.
#
# Usage: scripts/check_ci_runs.sh [workflow file]   (default: the CI workflow)
set -euo pipefail
cd "$(dirname "$0")/.."

wf=${1:-.github/workflows/ci.yml}

# split SEP: prints the parts of stdin separated by SEP outside parentheses,
# one a line; with "first", only the part before the first SEP and the rest.
split() {
    awk -v sep="$1" -v first="${2:-}" '{
        d = 0; cur = ""
        for (i = 1; i <= length($0); i++) {
            c = substr($0, i, 1)
            if (c == "(") d++
            if (c == ")") d--
            if (c == sep && d == 0 && !(first && done)) { print cur; cur = ""; done = 1; continue }
            cur = cur c
        }
        print cur
    }'
}

declare -A listed
status=0
checked=0
while IFS= read -r line; do
    if [[ $line =~ -run\ \'([^\']*)\' ]] || [[ $line =~ -run\ ([^ ]+) ]]; then
        pat=${BASH_REMATCH[1]}
    else
        continue
    fi
    pkgs=$(grep -oE '\./[^ ]+' <<<"$line")
    short=""
    [[ $line == *" -short "* ]] && short="-short"
    names=""
    for p in $pkgs; do
        [ -n "${listed[$p]+x}" ] || listed[$p]=$(go test -list . "$p" | grep -E '^(Test|Fuzz|Benchmark|Example)' || true)
        names+="${listed[$p]}"$'\n'
    done
    while IFS= read -r alt; do
        checked=$((checked + 1))
        top=$(split / first <<<"$alt" | head -1)
        if ! grep -Eq -- "$top" <<<"$names"; then
            echo "FAIL: $wf: -run alternative '$alt' names no test in $(echo $pkgs)"
            status=1
        elif [ "$top" != "$alt" ] &&
            ! grep -Eq '^ *=== RUN +[^ ]+/' <<<"$(go test $short -count=1 -v -run "$alt" $pkgs 2>&1 || true)"; then
            echo "FAIL: $wf: -run alternative '$alt' starts no subtest in $(echo $pkgs)"
            status=1
        fi
    done < <(split '|' <<<"$pat")
done < <(grep -E 'go test .*-run ' "$wf")

if [ "$status" -eq 0 ]; then
    echo "ok: each of the $checked -run alternatives in $wf selects a test"
fi
exit "$status"
