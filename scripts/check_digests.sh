#!/usr/bin/env bash
# Bit-identity guard: awp-run's `PGVH digest` line (an FNV-64a of the bits
# of the whole PGVH map and of each receiver's PGVH) must read the pinned
# value for each scenario below. A change that moves any stored bit of the
# wavefield — a kernel, a boundary, the decomposition, the threading or the
# halo exchange — changes the digest, and the same scenario must print the
# same digest whatever -ranks, -threads and -comm it runs on.
#
# A change meant to move the bits re-pins the values here and says why.
#
# Usage: scripts/check_digests.sh   (builds awp-run into a temporary directory)
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/awp-run" ./cmd/awp-run

# digest|flags: the default scenario is 48x48x32, 120 steps, sponge. The
# last three keep the active boxes live across rank seams for the whole run
# (active=0.557/0.440/0.358), so the halo messages ship clipped faces.
cases=(
    "158ed580e47fa4f6|-ranks 1"
    "158ed580e47fa4f6|-ranks 8"
    "158ed580e47fa4f6|-ranks 4 -comm overlap -threads 2"
    "388d41d3a98f4eb7|-abc mpml -ranks 1"
    "388d41d3a98f4eb7|-abc mpml -ranks 4"
    "388d41d3a98f4eb7|-abc mpml -ranks 8 -threads 2"
    "b1080e2363a7bd5e|-abc mpml -nx 56 -ny 56 -nz 40 -steps 280 -threads 2 -sk 12"
    "91f3a21f3597d21c|-nx 96 -ny 64 -nz 32 -steps 24 -si 80 -sj 20 -sk 6 -ranks 1"
    "91f3a21f3597d21c|-nx 96 -ny 64 -nz 32 -steps 24 -si 80 -sj 20 -sk 6 -ranks 4"
    "91f3a21f3597d21c|-nx 96 -ny 64 -nz 32 -steps 24 -si 80 -sj 20 -sk 6 -ranks 8 -comm overlap -threads 2"
)

status=0
for c in "${cases[@]}"; do
    want=${c%%|*}
    flags=${c#*|}
    # shellcheck disable=SC2086 # flags are words
    got=$("$tmp/awp-run" $flags | awk '/^PGVH digest:/ {print $3}')
    if [ "$got" != "$want" ]; then
        echo "FAIL: awp-run $flags: PGVH digest '$got', pinned $want"
        status=1
    else
        echo "ok: awp-run $flags: $got"
    fi
done
exit "$status"
