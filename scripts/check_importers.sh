#!/usr/bin/env bash
# Keep/kill guard: every package under internal/, and awp, must be imported
# by at least one non-test package outside bench/. A package whose only
# importers are its own tests or the benchmark has no production caller,
# and either earns one or goes.
#
# `go list -f '{{.Imports}}'` lists the imports of a package's non-test
# files only, so a _test.go import does not count as a caller.
set -euo pipefail
cd "$(dirname "$0")/.."

mod=$(go list -m)
graph=$(go list -f '{{.ImportPath}} {{join .Imports " "}}' ./...)

status=0
for pkg in $(go list ./awp ./internal/...); do
    callers=$(awk -v p="$pkg" -v b="$mod/bench" '
        $1 != b && $1 !~ "^" b "/" { for (i = 2; i <= NF; i++) if ($i == p) { print $1; break } }
    ' <<<"$graph")
    if [ -z "$callers" ]; then
        echo "FAIL: $pkg has no non-test importer outside bench/"
        status=1
    fi
done
if [ "$status" -eq 0 ]; then
    echo "ok: every package under internal/, and awp, has a non-test importer outside bench/"
fi
exit "$status"
