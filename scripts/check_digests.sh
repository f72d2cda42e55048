#!/usr/bin/env bash
# Bit-identity guard: awp-run's `PGVH digest` line (an FNV-64a of the bits
# of the whole PGVH map and of each receiver's PGVH) must read the pinned
# value for each scenario below. A change that moves any stored bit of the
# wavefield — a kernel, a boundary, the decomposition or the halo exchange —
# changes the digest, and the same scenario must print the same digest
# whatever -ranks, -threads and -comm it runs on. -threads is cores per rank:
# awp-run runs ranks×threads single-goroutine ranks where they fit the grid,
# so the four -threads 2 lines below run 8, 16, 2 and 16 ranks, and the
# -threads 8 line, whose 64 ranks leave no rank of the 48x48x32 grid its
# 11-cell M-PML minimum (32 is the most that fits), falls back to 8.
#
# Beside each digest sits the `active=` value the run prints on its
# `timing:` line (Result.ActiveShare: cells swept over cells owned), which
# the active box's accounting decides: the same scenario reads the same
# digest on every topology, but its share depends on the rank seams.
#
# A change meant to move the bits or the accounting re-pins the values here
# and says why.
#
# Usage: scripts/check_digests.sh   (builds awp-run into a temporary directory)
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/awp-run" ./cmd/awp-run

# digest|active|flags: the default scenario is 48x48x32, 300 steps, sponge. The
# 96x64x32 three keep the active boxes live across rank seams for the whole
# run (active=0.557/0.440/0.318), so the halo messages ship clipped faces. The
# last three run without an absorbing boundary, so every tile takes the
# tapered walkers with the zero taper.
cases=(
    "158ed580e47fa4f6|0.984|-ranks 1"
    "158ed580e47fa4f6|0.979|-ranks 8"
    "158ed580e47fa4f6|0.979|-ranks 4 -comm overlap -threads 2"
    "388d41d3a98f4eb7|0.984|-abc mpml -ranks 1"
    "388d41d3a98f4eb7|0.984|-abc mpml -ranks 4"
    "388d41d3a98f4eb7|0.979|-abc mpml -ranks 8 -threads 2"
    "388d41d3a98f4eb7|0.979|-abc mpml -ranks 8 -threads 8"
    "b1080e2363a7bd5e|0.980|-abc mpml -nx 56 -ny 56 -nz 40 -steps 280 -threads 2 -sk 12"
    "91f3a21f3597d21c|0.557|-nx 96 -ny 64 -nz 32 -steps 24 -si 80 -sj 20 -sk 6 -ranks 1"
    "91f3a21f3597d21c|0.440|-nx 96 -ny 64 -nz 32 -steps 24 -si 80 -sj 20 -sk 6 -ranks 4"
    "91f3a21f3597d21c|0.318|-nx 96 -ny 64 -nz 32 -steps 24 -si 80 -sj 20 -sk 6 -ranks 8 -comm overlap -threads 2"
    "6fead662f1062bb7|0.984|-abc none -ranks 1"
    "6fead662f1062bb7|0.984|-abc none -ranks 4 -comm overlap"
    "6fead662f1062bb7|0.976|-abc none -ranks 8 -threads 2"
)

status=0
for c in "${cases[@]}"; do
    IFS='|' read -r want wantActive flags <<<"$c"
    # shellcheck disable=SC2086 # flags are words
    out=$("$tmp/awp-run" $flags)
    got=$(awk '/^PGVH digest:/ {print $3}' <<<"$out")
    active=$(grep -o 'active=[^ ]*' <<<"$out" | cut -d= -f2)
    if [ "$got" != "$want" ] || [ "$active" != "$wantActive" ]; then
        echo "FAIL: awp-run $flags: PGVH digest '$got' active '$active', pinned $want active $wantActive"
        status=1
    else
        echo "ok: awp-run $flags: $got active=$active"
    fi
done
exit "$status"
