package solver

import (
	"fmt"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/cvm"
	"repro/internal/mpi"
)

// expectResultsExact asserts exact float equality of seismograms and all
// four PGV maps — the rank-0 observables of every wavefield the run
// touches.
func expectResultsExact(t *testing.T, label string, ref, res *Result) {
	t.Helper()
	for r := range ref.Seismograms {
		for n := range ref.Seismograms[r] {
			if ref.Seismograms[r][n] != res.Seismograms[r][n] {
				t.Fatalf("%s: receiver %d sample %d differs from reference", label, r, n)
			}
		}
	}
	maps := [][2][]float64{{ref.PGVH, res.PGVH}, {ref.PGVX, res.PGVX}, {ref.PGVY, res.PGVY}, {ref.PGVZ, res.PGVZ}}
	for mi, m := range maps {
		for i := range m[0] {
			if m[0][i] != m[1][i] {
				t.Fatalf("%s: PGV map %d mismatch at %d: %g != %g", label, mi, i, m[0][i], m[1][i])
			}
		}
	}
}

// matrixBlockings is the tile-shape axis of the identity matrices: the shapes
// buildTilePlan derives from each box and the pool size (the zero value), and
// one explicit override, the 8/16 panels bench's traced redrive still sets.
var matrixBlockings = []fd.Blocking{{}, {JBlock: 8, KBlock: 16}}

// The production kernels (row-window sweeps per tile) must reproduce the
// serial pointwise Precomp run bit-exactly across every comm model, threading
// level — each with the tile shapes derived for it — and the tile-shape
// override: they only change how memory is streamed and in what order, never
// a single arithmetic result. Both sides run the one-pass stress +
// attenuation sweep; the reference that cannot is
// TestDefaultPathMatchesTwoPassOracle.
func TestFusedBitIdentityMatrix(t *testing.T) {
	q := cvm.SoCal(2400, 2400, 1600, 400)
	ref, err := Run(q, baseOptions(mpi.NewCart(1, 1, 1))) // serial Precomp
	if err != nil {
		t.Fatal(err)
	}

	// Serial production first: isolates the kernel restructuring from the
	// decomposition.
	serial := baseOptions(mpi.NewCart(1, 1, 1))
	serial.Variant = fd.Production
	res, err := Run(q, serial)
	if err != nil {
		t.Fatal(err)
	}
	expectResultsExact(t, "serial production", ref, res)

	for _, model := range []CommModel{Synchronous, Asynchronous, AsyncReduced, AsyncOverlap} {
		for _, threads := range []int{1, 2, 3, 4} {
			for _, blk := range matrixBlockings {
				opt := baseOptions(mpi.NewCart(2, 2, 1))
				opt.Comm = model
				opt.Threads = threads
				opt.Blocking = blk
				opt.Variant = fd.Production
				label := fmt.Sprintf("%v threads=%d blocking=%d/%d", model, threads, blk.JBlock, blk.KBlock)
				res, err := Run(q, opt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				expectResultsExact(t, label, ref, res)
			}
		}
	}
}

// Unknown enum values must be rejected at configuration time: a bad Comm
// or ABC must not silently run as some other model (a bad Variant is
// TestPrepareRejectsRemovedAxes').
func TestUnknownEnumsRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Options)
	}{
		{"Comm=9", func(o *Options) { o.Comm = CommModel(9) }},
		{"Comm=-1", func(o *Options) { o.Comm = CommModel(-1) }},
		{"ABC=7", func(o *Options) { o.ABC = ABCKind(7) }},
		{"ABC=-1", func(o *Options) { o.ABC = ABCKind(-1) }},
	} {
		opt := baseOptions(mpi.NewCart(1, 1, 1))
		tc.set(&opt)
		if _, _, err := Prepare(opt); err == nil {
			t.Errorf("%s accepted by Prepare", tc.name)
		}
		if _, err := Run(cvm.HardRock(), opt); err == nil {
			t.Errorf("%s accepted by Run", tc.name)
		}
	}
}

// Temporal tiling and the user-facing kernel-variant axis are gone, but
// Options keeps both fields for bench/: every value either runs what a step
// always runs (TemporalDepth 0 or 1; the zero Variant and each rung of the
// ablation) or is an error from Prepare and Run — never a panic, and never a
// silent fall-back to classic stepping.
func TestPrepareRejectsRemovedAxes(t *testing.T) {
	q := cvm.HardRock()
	try := func(name string, ok bool, set func(*Options)) {
		t.Helper()
		opt := baseOptions(mpi.NewCart(2, 1, 1))
		opt.Steps = 3
		set(&opt)
		_, _, perr := Prepare(opt)
		_, rerr := Run(q, opt)
		if ok && (perr != nil || rerr != nil) {
			t.Errorf("%s: rejected: Prepare %v, Run %v", name, perr, rerr)
		}
		if !ok && (perr == nil || rerr == nil) {
			t.Errorf("%s: accepted: Prepare %v, Run %v", name, perr, rerr)
		}
	}
	for _, depth := range []int{0, 1} {
		try(fmt.Sprintf("TemporalDepth=%d", depth), true, func(o *Options) { o.TemporalDepth = depth })
	}
	for _, depth := range []int{2, 4, -1} {
		try(fmt.Sprintf("TemporalDepth=%d", depth), false, func(o *Options) { o.TemporalDepth = depth })
	}
	for v := fd.Default; v <= fd.Blocked; v++ {
		try(fmt.Sprintf("Variant=%v", v), true, func(o *Options) { o.Variant = v })
	}
	for _, v := range []fd.Variant{-1, fd.Blocked + 1, 99} {
		try(fmt.Sprintf("Variant=%d", int(v)), false, func(o *Options) { o.Variant = v })
	}
}

// A PMLWidth whose zones would swallow some rank's subgrid is user input,
// so Prepare and Run must answer it with an error, not with BuildPML's
// panic from inside a rank.
func TestPMLWidthWithoutInteriorRejected(t *testing.T) {
	for _, tc := range []struct {
		name        string
		topo        mpi.Cart
		freeSurface bool
		width       int
		ok          bool
	}{
		// 24x24x16 on one rank: two zones across x and y, one or two across z.
		{"1rank/fs/width=7", mpi.NewCart(1, 1, 1), true, 7, true},
		{"1rank/fs/width=half-x", mpi.NewCart(1, 1, 1), true, 12, false},
		{"1rank/fs/width>half-x", mpi.NewCart(1, 1, 1), true, 13, false},
		{"1rank/nofs/width=7", mpi.NewCart(1, 1, 1), false, 7, true},
		{"1rank/nofs/width=half-z", mpi.NewCart(1, 1, 1), false, 8, false},
		{"1rank/nofs/width>half-z", mpi.NewCart(1, 1, 1), false, 9, false},
		// 2x1x1: each rank owns one x face of its 12 cells, both y faces.
		{"2x1x1/fs/width=11", mpi.NewCart(2, 1, 1), true, 11, true},
		{"2x1x1/fs/width=local-x", mpi.NewCart(2, 1, 1), true, 12, false},
		{"2x1x1/fs/width>local-x", mpi.NewCart(2, 1, 1), true, 13, false},
		// 2x2x2: one face per axis on 12x12x8; the bottom ranks own z-high.
		{"2x2x2/fs/width=7", mpi.NewCart(2, 2, 2), true, 7, true},
		{"2x2x2/fs/width=local-z", mpi.NewCart(2, 2, 2), true, 8, false},
		{"2x2x2/nofs/width=local-z", mpi.NewCart(2, 2, 2), false, 8, false},
		{"2x2x2/nofs/width>local-x", mpi.NewCart(2, 2, 2), false, 13, false},
	} {
		opt := baseOptions(tc.topo)
		opt.ABC = MPMLABC
		opt.FreeSurface = tc.freeSurface
		opt.PMLWidth = tc.width
		opt.Steps = 2
		_, _, perr := Prepare(opt)
		_, rerr := Run(cvm.HardRock(), opt)
		if tc.ok && (perr != nil || rerr != nil) {
			t.Errorf("%s: rejected: Prepare %v, Run %v", tc.name, perr, rerr)
		}
		if !tc.ok && (perr == nil || rerr == nil) {
			t.Errorf("%s: accepted: Prepare %v, Run %v", tc.name, perr, rerr)
		}
	}
}
