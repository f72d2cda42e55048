package solver

import (
	"math"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpi"
)

// TestActiveBoxSaturationIsOneWay runs one rank past saturation: the box
// fills the padded subgrid, which both schedules share; each step from then
// on sweeps every cell twice, a Step allocates exactly what a Step of a
// Stepper whose box was filled at construction does, and ActiveShare counts
// the steps after saturation as whole.
func TestActiveBoxSaturationIsOneWay(t *testing.T) {
	q := cvm.SoCal(2400, 2400, 1600, 400)
	opt := baseOptions(mpi.NewCart(1, 1, 1))
	opt.Steps = 400
	fullAt := 0
	res, err := runWorld(q, opt, func(c *mpi.Comm, st *Stepper) {
		dc, _, err := Prepare(st.opt)
		var filled *Stepper
		if err == nil {
			filled, err = NewStepper(c, q, dc, st.opt)
		}
		if err != nil {
			t.Error(err)
			return
		}
		filled.box.fill()
		b := st.box
		if !b.Empty() {
			t.Errorf("a new Stepper's box is %v, want empty", b.Box)
		}
		for b.Box != b.padded && st.StepIndex() < 40 {
			st.Step()
			filled.Step()
			fullAt = st.StepIndex()
		}
		if b.Box != b.padded || st.vel.box != b || st.stress.box != b {
			t.Errorf("after %d steps on a %v grid the box is %v of %v, or a schedule holds another", fullAt, opt.Global, b.Box, b.padded)
		}
		// The source sits 12 cells from the x and y faces and the box grows
		// 4 a step: it cannot have filled the padded grid before step 4.
		if fullAt < 4 {
			t.Errorf("box filled after %d steps", fullAt)
		}
		swept := st.swept
		st.Step()
		if got, want := st.swept-swept, 2*int64(st.sub.Local.Cells()); got != want {
			t.Errorf("a saturated step swept %d cells, want %d", got, want)
		}
		if got, want := testing.AllocsPerRun(20, st.Step), testing.AllocsPerRun(20, filled.Step); got != want {
			t.Errorf("a saturated Step allocates %v times, a Step of a box filled from the start %v", got, want)
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every step after fullAt swept every cell, and the steps before it
	// swept some: the share is below 1 by less than their fraction.
	if lo := 1 - float64(fullAt)/float64(opt.Steps); res.ActiveShare <= lo || res.ActiveShare >= 1 {
		t.Errorf("ActiveShare %g with the box filled at step %d of %d, want inside (%g, 1)",
			res.ActiveShare, fullAt, opt.Steps, lo)
	}
}

// TestSetStepIndexRejectsCursorsOutsideTheRun: a cursor below 0 or past Steps
// is an error, and a rejected cursor leaves the Stepper as it was, its active
// box included, so the run still reproduces the uninterrupted one. A negative
// cursor used to be accepted and panic in the next Step; one past Steps ended
// the run with zero-filled samples.
func TestSetStepIndexRejectsCursorsOutsideTheRun(t *testing.T) {
	q := basinOverRock(1600)
	opt := boxScenario(SpongeABC)
	opt.Topo = mpi.NewCart(2, 1, 1)
	want, err := Run(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runWorld(q, opt, func(c *mpi.Comm, st *Stepper) {
		box := st.box.Box
		for _, n := range []int{-4, -1, opt.Steps + 4, opt.Steps + 1} {
			if err := st.SetStepIndex(n); err == nil {
				t.Errorf("rank %d: step index %d accepted", c.Rank(), n)
			}
		}
		if st.StepIndex() != 0 || st.box.Box != box {
			t.Errorf("rank %d: rejected cursors left step index %d and box %v", c.Rank(), st.StepIndex(), st.box.Box)
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if msg := resultDiff(want, got); msg != "" {
		t.Errorf("after rejected cursors: %s", msg)
	}
}

// TestSourceJoinsBoxWhenLive: a source whose rate is exactly zero until its
// onset joins the box at the first step its sampled rate is not, and one that
// never goes live never does — its rank sweeps nothing all run.
func TestSourceJoinsBoxWhenLive(t *testing.T) {
	q := cvm.SoCal(2400, 2400, 1600, 400)
	opt := baseOptions(mpi.NewCart(1, 1, 1))
	opt.Steps = 9 // the box needs four steps from the onset to fill this grid
	const dt = 0.003
	opt.Dt = dt

	// Step n injects the rate at t = (n+1)·dt, interpolated between samples
	// dt/2 apart, and Triangle is exactly 0 up to and including its onset: an
	// onset at 6.5·dt feeds nothing at 6·dt (step 5) and something at 7·dt.
	const onsetStep = 6
	late := source.PointSource{GI: 12, GJ: 12, GK: 8, M0: 1e15, Tensor: source.Explosion,
		STF: source.Triangle((onsetStep+0.5)*dt, 20*dt)}.Sample(dt/2, 200)
	never := source.PointSource{GI: 4, GJ: 5, GK: 3, M0: 1e15, Tensor: source.Explosion,
		STF: source.Triangle(1e3, 1)}.Sample(dt/2, 200)
	node := fd.Box{I0: 12, I1: 13, J0: 12, J1: 13, K0: 8, K1: 9}

	opt.Sources = []source.SampledSource{late, never}
	res, err := runWorld(q, opt, nil, func(_ *mpi.Comm, st *Stepper) {
		b, step := st.box, st.StepIndex()-1
		switch {
		case b.Box == b.padded:
			t.Errorf("step %d: box filled a 24x24x16 grid %d steps after the onset", step, step-onsetStep)
		case step < onsetStep && !b.Empty():
			t.Errorf("step %d: box %v before the source's onset at step %d", step, b.Box, onsetStep)
		case step == onsetStep && b.Box != node:
			t.Errorf("step %d: box %v, want the source node %v", step, b.Box, node)
		case step > onsetStep && !b.Contains(node):
			t.Errorf("step %d: box %v lost the source node", step, b.Box)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ActiveShare <= 0 || res.ActiveShare >= 0.5 {
		t.Errorf("ActiveShare %g with the only live source silent for %d of %d steps", res.ActiveShare, onsetStep, opt.Steps)
	}

	opt.Sources = []source.SampledSource{never}
	res, err = runWorld(q, opt, nil, func(_ *mpi.Comm, st *Stepper) {
		if b := st.box; !b.Empty() {
			t.Errorf("step %d: box %v with no live source", st.StepIndex()-1, b.Box)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ActiveShare != 0 {
		t.Errorf("ActiveShare %g with no live source, want 0", res.ActiveShare)
	}
	for i, v := range res.PGVH {
		if v != 0 {
			t.Fatalf("PGVH[%d] = %g with no live source", i, v)
		}
	}
}

// TestNonzeroHull: the halo walk finds the hull of what is not ±0 in a
// packed block, whichever axis is the thin one.
func TestNonzeroHull(t *testing.T) {
	negZero := math.Float32frombits(1 << 31)
	for _, blk := range [][6]int{{-2, 0, 0, 7, 0, 5}, {0, 9, 7, 9, 0, 5}, {0, 9, 0, 7, -2, 0}} {
		w, h := blk[1]-blk[0], blk[3]-blk[2]
		buf := make([]float32, grid.RangeLen(blk[0], blk[1], blk[2], blk[3], blk[4], blk[5]))
		for n := range buf {
			if n%2 == 0 {
				buf[n] = negZero
			}
		}
		if got := nonzeroHull(buf, blk); !got.Empty() {
			t.Errorf("block %v of ±0: hull %v, want empty", blk, got)
		}
		at := func(i, j, k int) int { return ((k-blk[4])*h+j-blk[2])*w + i - blk[0] }
		// One cell in from every face the block is thick enough to have an
		// inside of.
		var a, b [3]int
		for ax := 0; ax < 3; ax++ {
			a[ax], b[ax] = blk[2*ax], blk[2*ax+1]-1
			if b[ax]-a[ax] >= 2 {
				a[ax], b[ax] = a[ax]+1, b[ax]-1
			}
		}
		buf[at(a[0], a[1], a[2])] = 1e-30
		buf[at(b[0], b[1], b[2])] = -3
		want := fd.Box{I0: a[0], I1: b[0] + 1, J0: a[1], J1: b[1] + 1, K0: a[2], K1: b[2] + 1}
		if got := nonzeroHull(buf, blk); got != want {
			t.Errorf("block %v: hull %v, want %v", blk, got, want)
		}
	}
}
