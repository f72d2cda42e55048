#!/usr/bin/env bash
# Bounds-check-elimination and inlining guard for the generated row bodies
# (the production kernel pair, the fused attenuation sweep, the PML row
# kernels and the sponge's rows: sweeps_gen.go, from scripts/lanegen),
# attenuation's Apply, the free surface, the set-up row sweeps (the velocity
# model's rows, the medium's and the deficits') and the halo's narrow-row
# copies.
#
# They are written against explicit per-offset subslice windows
# (ap := a[n0+off:][:ni]) precisely so the compiler's prove pass can
# eliminate every per-point bounds check; a regression here silently costs
# kernel throughput. This script rebuilds the kernel packages with
# -d=ssa/check_bce and fails if any per-point IsInBounds check appears in a
# guarded file. IsSliceInBounds diagnostics are allowed: they are the
# once-per-row window creations, not per-point checks. (The 8-lane walkers'
# loop alignment is the generator's own test: scripts/lanegen.)
#
# The same build runs with -m and fails if fd.Quiesce — the quiescence floor
# at every velocity store (DESIGN.md §9) — is not reported inlinable: it sits in the
# inner loop of every velocity kernel, where a call would dwarf the compare.
#
# A fresh GOCACHE is mandatory: the build cache suppresses compiler
# diagnostics for already-compiled packages, which would make the guard
# vacuously pass.
set -euo pipefail
cd "$(dirname "$0")/.."

# Files whose inner loops must stay free of per-point bounds checks.
GUARDED='internal/core/fd/sweeps_gen.go internal/core/attenuation/sweeps_gen.go internal/core/boundary/sweeps_gen.go internal/core/attenuation/rows.go internal/core/boundary/freesurface.go internal/medium/rows.go internal/cvm/rows.go internal/grid/narrow.go'

tmpcache=$(mktemp -d)
trap 'rm -rf "$tmpcache"' EXIT

diag=$(GOCACHE="$tmpcache" go build \
    -gcflags="repro/internal/core/fd=-d=ssa/check_bce -m" \
    -gcflags="repro/internal/core/attenuation=-d=ssa/check_bce" \
    -gcflags="repro/internal/core/boundary=-d=ssa/check_bce" \
    -gcflags="repro/internal/medium=-d=ssa/check_bce" \
    -gcflags="repro/internal/cvm=-d=ssa/check_bce" \
    -gcflags="repro/internal/grid=-d=ssa/check_bce" \
    ./internal/core/fd ./internal/core/attenuation ./internal/core/boundary ./internal/medium ./internal/cvm ./internal/grid 2>&1 || true)

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

# Sanity: the diagnostics must actually be present (an empty diag means the
# flags were dropped or the cache swallowed the output).
if ! grep -q "Found Is" <<<"$diag"; then
    echo "FAIL: no check_bce diagnostics produced — guard is not measuring anything"
    status=1
fi

exit $status
