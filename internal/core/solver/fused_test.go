package solver

import (
	"fmt"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/cvm"
	"repro/internal/mpi"
)

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

// Temporal tiling, the kernel-variant axis and the cache-block tile shape are
// gone from the step, but Options keeps their fields for bench/: every value
// either runs what a step always runs (TemporalDepth 0 or 1; Variant
// fd.Default or fd.Blocked; any Blocking of non-negative factors, bench's
// redrive's fd.Blocked at fd.DefaultBlocking among them) or is an error from
// Prepare and Run — never a panic, and never a silent run of another model:
// the ablation rungs fd.Naive and fd.Precomp run through fd's kernels only.
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
	for _, v := range []fd.Variant{fd.Default, fd.Blocked} {
		try(fmt.Sprintf("Variant=%v", v), true, func(o *Options) { o.Variant = v })
	}
	for _, v := range []fd.Variant{fd.Naive, fd.Precomp, -1, fd.Blocked + 1, 99} {
		try(fmt.Sprintf("Variant=%d", int(v)), false, func(o *Options) { o.Variant = v })
	}
	try("bench's redrive", true, func(o *Options) { o.Variant, o.Blocking = fd.Blocked, fd.DefaultBlocking })
	for _, blk := range []fd.Blocking{{JBlock: -1}, {KBlock: -8}} {
		try(fmt.Sprintf("Blocking=%+v", blk), false, func(o *Options) { o.Blocking = blk })
	}
}

// A PML width whose zones would swallow some rank's subgrid — the default
// width on a small grid is one — must be answered by Prepare and Run with an
// error, not with BuildPML's panic from inside a rank.
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
		opt.pmlWidth = tc.width
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
