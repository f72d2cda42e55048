#!/usr/bin/env bash
# Bounds-check-elimination, inlining and loop-alignment guard for the
# production kernel pair, the attenuation row sweeps, the PML row kernels, the
# sponge's row walker, the free surface and the set-up row sweeps (the velocity
# model's rows, the medium's and the deficits').
#
# The production inner loops (fd/rows.go), and the attenuation, PML zone and
# medium.finalize sweeps modelled on them, and the set-up rows of cvm, medium
# and the attenuation deficits, are written against explicit per-offset subslice
# windows (ap := a[n0+off:][:ni]) precisely so the compiler's prove pass can
# eliminate every per-point bounds check; a regression here silently costs
# kernel throughput. This script rebuilds the kernel packages with
# -d=ssa/check_bce and fails if any per-point IsInBounds check appears in a
# guarded file. IsSliceInBounds diagnostics are allowed: they are the
# once-per-row window creations, not per-point checks.
#
# The same build runs with -m and fails if fd.Quiesce — the quiescence floor
# at every velocity store (DESIGN.md §9) — is not reported inlinable: it sits in the
# inner loop of every velocity kernel, where a call would dwarf the compare.
#
# It also fails if an 8-lane walker in ROWASM loses the PCALIGN $32 ahead of
# one of its full-chunk loops: unaligned, the loop moves with whatever the
# linker places before it, and the walker's speed with it.
#
# A fresh GOCACHE is mandatory: the build cache suppresses compiler
# diagnostics for already-compiled packages, which would make the guard
# vacuously pass.
set -euo pipefail
cd "$(dirname "$0")/.."

# Files whose inner loops must stay free of per-point bounds checks.
GUARDED='internal/core/fd/rows.go internal/core/attenuation/rows.go internal/core/fd/lerp.go internal/core/boundary/pml_rows.go internal/core/boundary/sponge_rows.go internal/core/boundary/freesurface.go internal/medium/rows.go internal/cvm/rows.go'

# Assembly walkers (file:symbol:loops) whose 8-lane full-chunk loops — one,
# or the given number: the stress walkers walk a tapered and an untapered
# loop — must each be 32-byte aligned.
ROWASM='internal/core/fd/simd_amd64.s:velocityTile internal/core/fd/simd_amd64.s:stressTile:2 internal/core/attenuation/simd_amd64.s:fusedStressTile:2 internal/core/boundary/simd_amd64.s:dampRows8 internal/core/boundary/simd_amd64.s:pmlVelocityTile internal/core/boundary/simd_amd64.s:pmlStressTile'

tmpcache=$(mktemp -d)
trap 'rm -rf "$tmpcache"' EXIT

diag=$(GOCACHE="$tmpcache" go build \
    -gcflags="repro/internal/core/fd=-d=ssa/check_bce -m" \
    -gcflags="repro/internal/core/attenuation=-d=ssa/check_bce" \
    -gcflags="repro/internal/core/boundary=-d=ssa/check_bce" \
    -gcflags="repro/internal/medium=-d=ssa/check_bce" \
    -gcflags="repro/internal/cvm=-d=ssa/check_bce" \
    ./internal/core/fd ./internal/core/attenuation ./internal/core/boundary ./internal/medium ./internal/cvm 2>&1 || true)

status=0
for f in $GUARDED; do
    if [ ! -f "$f" ]; then
        echo "FAIL: guarded file $f does not exist"
        status=1
        continue
    fi
    # By path, not by base name: rows.go is also the tail of pml_rows.go.
    hits=$(printf '%s\n' "$diag" | grep "Found IsInBounds" | grep -c "^$f:" || true)
    if [ "$hits" -ne 0 ]; then
        echo "FAIL: $hits per-point bounds check(s) in $f:"
        printf '%s\n' "$diag" | grep "Found IsInBounds" | grep "^$f:"
        status=1
    else
        echo "ok: $f has no per-point bounds checks"
    fi
done

# (Here-strings, not printf | grep -q: under pipefail a grep that exits at its
# first match kills the printf still writing a long $diag, failing the test.)
if grep -q "quiesce.go:.*can inline Quiesce" <<<"$diag"; then
    echo "ok: fd.Quiesce is inlinable"
else
    echo "FAIL: fd.Quiesce is not reported inlinable (-gcflags=-m)"
    status=1
fi

for entry in $ROWASM; do
    f=${entry%%:*} sym=${entry#*:} loops=1
    if [ "${sym#*:}" != "$sym" ]; then
        loops=${sym#*:} sym=${sym%%:*}
    fi
    if [ ! -f "$f" ]; then
        echo "FAIL: row kernel file $f does not exist"
        status=1
        continue
    fi
    # The kernel's text runs from its TEXT line to the next one.
    body=$(awk -v sym="·$sym(SB)" '/^TEXT/ { on = index($0, sym) > 0 } on' "$f")
    if [ -z "$body" ]; then
        echo "FAIL: $f has no TEXT ·$sym"
        status=1
    elif [ "$(grep -c 'PCALIGN[[:space:]]*\$32' <<<"$body")" -ge "$loops" ]; then
        echo "ok: $sym's $loops loop(s) in $f are 32-byte aligned"
    else
        echo "FAIL: $sym in $f has fewer than $loops PCALIGN \$32 ahead of its loops"
        status=1
    fi
done

# Sanity: the diagnostics must actually be present (an empty diag means the
# flags were dropped or the cache swallowed the output).
if ! grep -q "Found Is" <<<"$diag"; then
    echo "FAIL: no check_bce diagnostics produced — guard is not measuring anything"
    status=1
fi

exit $status
