package solver

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core/fd"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/telemetry"
)

// sectionBits copies a section's values as their bit patterns.
func sectionBits(sec grid.Section) []uint64 {
	bits := make([]uint64, 0, len(sec.F32)+len(sec.F64))
	for _, v := range sec.F32 {
		bits = append(bits, uint64(math.Float32bits(v)))
	}
	for _, v := range sec.F64 {
		bits = append(bits, math.Float64bits(v))
	}
	return bits
}

// boxWorld runs opt with one Stepper a rank. whole drops every rank's active
// box before the first step, which is the solver without the mechanism: the
// whole-tile plan, the whole sponge, no halo walk. after runs on each rank's
// goroutine following every Step and must use t.Error, not t.Fatal.
func boxWorld(t *testing.T, q cvm.Querier, opt Options, whole bool, after func(c *mpi.Comm, st *Stepper)) *Result {
	t.Helper()
	opt, err := PlanLTS(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	dc, opt, err := Prepare(opt)
	if err != nil {
		t.Fatal(err)
	}
	var result *Result
	world := mpi.NewWorld(opt.Topo.Size())
	world.Run(func(c *mpi.Comm) {
		st, err := NewStepper(c, q, dc, opt)
		if err != nil {
			t.Error(err)
			return
		}
		defer st.Close()
		if whole {
			st.rs.dropBox()
		}
		for !st.Done() {
			st.Step()
			if after != nil {
				after(c, st)
			}
		}
		res, err := st.Finish()
		if err != nil {
			t.Error(err)
		}
		if c.Rank() == 0 {
			result = res
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	return result
}

// boxScenario is the matrix scenario: a 32x28x20 grid whose explosion sits
// two cells inside the 2x2x2 seams at 16/14/10, so its first values cross
// into three neighbors in step one while its own rank's box still has 16
// cells to grow toward the far faces. A second, weaker source of pure sxy
// sits at depth 1 in the y-low absorbing zone, three cells from the x seam —
// outside the planes a stress exchange ships: the first its x neighbor sees of
// it is vy(k=1) in its ghosts, a hull one plane thick. In the sponge rows its
// stress tile must add it before damping the plane (the two-pass oracle's
// sponge scenario).
func boxScenario(abc ABCKind) Options {
	stf := source.GaussianPulse(0.08, 0.02)
	return Options{
		Global:      grid.Dims{NX: 32, NY: 28, NZ: 20},
		H:           100,
		Steps:       12,
		ABC:         abc,
		PMLWidth:    3,
		SpongeWidth: 4,
		FreeSurface: true,
		Attenuation: true,
		Sources: []source.SampledSource{
			source.PointSource{GI: 13, GJ: 11, GK: 7, M0: 1e15, Tensor: source.Explosion, STF: stf}.Sample(0.002, 200),
			source.PointSource{GI: 13, GJ: 2, GK: 1, M0: 1e14, Tensor: source.StrikeSlipXY, STF: stf}.Sample(0.002, 200),
		},
		Receivers: [][3]int{{13, 11, 2}, {20, 11, 7}, {13, 20, 12}},
		TrackPGV:  true,
	}
}

// TestActiveBoxMatchesWholeSweeps holds the run with the active box to the
// same run with the box dropped before the first step, on every section of
// the rank — the whole padded wavefield, memory variables and zone splits,
// ghosts, free-surface images and all, and the fault's state — bit for bit,
// after every step (every cycle under mixed
// rates): sponge and M-PML, every comm model, serial and pooled, one rank and
// two decompositions, uniform and mixed-rate stepping, and a DFR fault.
func TestActiveBoxMatchesWholeSweeps(t *testing.T) {
	comms := []CommModel{Synchronous, Asynchronous, AsyncReduced, AsyncOverlap}
	threads := []int{1, 4}
	// The full matrix is minutes under the race detector; its pooled,
	// overlapped corner is the part that has goroutines to race.
	short := testing.Short() || telemetry.RaceEnabled
	if short {
		comms, threads = []CommModel{AsyncReduced, AsyncOverlap}, []int{4}
	}
	soCal := cvm.SoCal(3200, 2800, 2000, 400)
	rock, soft := ltsContrast()

	for _, abc := range []ABCKind{SpongeABC, MPMLABC} {
		rows := []struct {
			name  string
			q     cvm.Querier
			opt   Options
			topos []mpi.Cart
		}{
			{name: "uniform", q: soCal, opt: boxScenario(abc),
				topos: []mpi.Cart{mpi.NewCart(1, 1, 1), mpi.NewCart(2, 2, 1), mpi.NewCart(2, 2, 2)}},
			{name: "rates 1/4", opt: boxScenario(abc),
				topos: []mpi.Cart{mpi.NewCart(2, 1, 1), mpi.NewCart(2, 2, 1), mpi.NewCart(2, 2, 2)}},
			// DFR mode needs PY = 1; the window crosses the x seam and stops
			// short of the z seam, which its waves have to cross.
			{name: "fault", q: soCal, opt: boxScenario(abc),
				topos: []mpi.Cart{mpi.NewCart(1, 1, 1), mpi.NewCart(2, 1, 1), mpi.NewCart(2, 1, 2)}},
		}
		rows[1].opt.LTS = LTSOptions{Enabled: true, MaxRateRatio: 4}
		rows[1].q = splitXModel{split: 16 * rows[1].opt.H, rock: rock, soft: soft}
		rows[2].opt.Sources = nil
		rows[2].opt.Fault = overstressedFault(11, 10, 10, 2, 6)

		for _, row := range rows {
			topos := row.topos
			if short {
				topos = topos[2:]
			}
			for _, topo := range topos {
				for _, comm := range comms {
					for _, nt := range threads {
						opt := row.opt
						opt.Topo, opt.Comm, opt.Threads = topo, comm, nt
						tag := fmt.Sprintf("abc %d/%s/%dx%dx%d/%v/threads %d", abc, row.name, topo.PX, topo.PY, topo.PZ, comm, nt)
						holdBoxToWhole(t, tag, row.q, opt)
					}
				}
			}
		}
	}
}

// holdBoxToWhole is one cell of the matrix. Besides the bits it checks that
// the run exercised the mechanism: some rank that owns no source took its
// box from a halo arrival, and — in the uniform rows, where twelve steps are
// enough — every rank ended with its box dropped.
func holdBoxToWhole(t *testing.T, tag string, q cvm.Querier, opt Options) {
	t.Helper()
	ranks := opt.Topo.Size()
	// ref[rank][step][section], each value as its bits
	ref := make([][][][]uint64, ranks)
	for r := range ref {
		ref[r] = make([][][]uint64, opt.Steps+1)
	}
	want := boxWorld(t, q, opt, true, func(c *mpi.Comm, st *Stepper) {
		secs := st.Sections()
		snap := make([][]uint64, len(secs))
		for i, sec := range secs {
			snap[i] = sectionBits(sec)
		}
		ref[c.Rank()][st.StepIndex()] = snap
	})

	var mu sync.Mutex
	var failed, sourceless, arrivedLive bool
	live := 0
	got := boxWorld(t, q, opt, false, func(c *mpi.Comm, st *Stepper) {
		mu.Lock()
		defer mu.Unlock()
		rs := st.rs
		if rs.srcs.Count() == 0 && rs.fault == nil {
			sourceless = true
			arrivedLive = arrivedLive || rs.box != nil && !rs.box.Empty()
		}
		if st.Done() && rs.box != nil {
			live++
		}
		if failed {
			return
		}
		for si, sec := range st.Sections() {
			w := ref[c.Rank()][st.StepIndex()][si]
			for n, v := range sectionBits(sec) {
				if v != w[n] {
					t.Errorf("%s: rank %d after step %d: %s[%d] = %#x, whole sweeps %#x; box %v",
						tag, c.Rank(), st.StepIndex(), sec.Name, n, v, w[n], rs.box)
					failed = true
					return
				}
			}
		}
	})
	if failed {
		t.FailNow()
	}
	expectResultsExact(t, tag, want, got)
	if sourceless && !arrivedLive {
		t.Errorf("%s: no rank without a source ever held a live box: the halo rule went unexercised", tag)
	}
	if !opt.LTS.Enabled && live != 0 {
		t.Errorf("%s: %d of %d ranks still clip after %d steps", tag, live, ranks, opt.Steps)
	}
	if want.ActiveShare != 1 {
		t.Errorf("%s: whole sweeps report ActiveShare %g, want exactly 1", tag, want.ActiveShare)
	}
	if got.ActiveShare <= 0 || got.ActiveShare >= 1 {
		t.Errorf("%s: ActiveShare %g, want inside (0, 1)", tag, got.ActiveShare)
	}
}

// TestActiveBoxSaturationIsOneWay runs one rank past saturation: the box and
// both schedules' pointers to it are gone, the clipped tile counter stops, a
// Step allocates exactly what a Step of a Stepper that never had a box does,
// and the steps from then on count as whole in ActiveShare.
func TestActiveBoxSaturationIsOneWay(t *testing.T) {
	q := cvm.SoCal(2400, 2400, 1600, 400)
	opt := baseOptions(mpi.NewCart(1, 1, 1))
	opt.Variant, opt.Steps = fd.Production, 400
	dc, opt, err := Prepare(opt)
	if err != nil {
		t.Fatal(err)
	}
	mpi.NewWorld(1).Run(func(c *mpi.Comm) {
		st, err := NewStepper(c, q, dc, opt)
		if err != nil {
			t.Error(err)
			return
		}
		defer st.Close()
		never, err := NewStepper(c, q, dc, opt)
		if err != nil {
			t.Error(err)
			return
		}
		defer never.Close()
		never.rs.dropBox()

		if st.rs.box == nil || !st.rs.box.Empty() {
			t.Errorf("a new Stepper's box is %v, want empty", st.rs.box)
			return
		}
		dropAt := 0
		for st.rs.box != nil && st.StepIndex() < 40 {
			st.Step()
			never.Step()
			dropAt = st.StepIndex()
		}
		rs := st.rs
		if rs.box != nil || rs.vel.box != nil || rs.stress.box != nil {
			t.Errorf("box still live after %d steps on a %v grid", dropAt, opt.Global)
			return
		}
		// The source sits 12 cells from the x and y faces and the box grows
		// 4 a step: it cannot have filled the padded grid before step 4.
		if dropAt < 4 {
			t.Errorf("box dropped after %d steps", dropAt)
		}
		swept, live := rs.swept.Load(), rs.liveSteps
		if got, want := testing.AllocsPerRun(20, st.Step), testing.AllocsPerRun(20, never.Step); got != want {
			t.Errorf("a saturated Step allocates %v times, a Step without the box %v", got, want)
		}
		if rs.swept.Load() != swept || rs.liveSteps != live {
			t.Errorf("clipped-tile counters moved after saturation: swept %d -> %d, live steps %d -> %d",
				swept, rs.swept.Load(), live, rs.liveSteps)
		}
		for !st.Done() {
			st.Step()
		}
		res, err := st.Finish()
		if err != nil {
			t.Error(err)
			return
		}
		// Every step after dropAt swept every cell, and the steps before it
		// swept some: the share is below 1 by less than their fraction.
		lo := 1 - float64(dropAt)/float64(opt.Steps)
		if res.ActiveShare <= lo || res.ActiveShare >= 1 {
			t.Errorf("ActiveShare %g after dropping the box at step %d of %d, want inside (%g, 1)",
				res.ActiveShare, dropAt, opt.Steps, lo)
		}
	})
}

// TestSetStepIndexDropsActiveBox restores a checkpoint into a Stepper whose
// box is still live and rolls the cursor back: the state was written from
// outside, so the box must go, and the replay must reproduce the
// uninterrupted run.
func TestSetStepIndexDropsActiveBox(t *testing.T) {
	q := cvm.SoCal(3200, 2800, 2000, 400)
	opt := boxScenario(SpongeABC)
	opt.Topo = mpi.NewCart(2, 2, 1)
	want := boxWorld(t, q, opt, false, nil)

	dc, opt, err := Prepare(opt)
	if err != nil {
		t.Fatal(err)
	}
	fsys := pfs.New(pfs.Jaguar())
	var got *Result
	mpi.NewWorld(opt.Topo.Size()).Run(func(c *mpi.Comm) {
		st, err := NewStepper(c, q, dc, opt)
		if err != nil {
			t.Error(err)
			return
		}
		defer st.Close()
		st.Step()
		if _, err := checkpoint.Write(fsys, "ckpt", c.Rank(), 1, st.Sections()); err != nil {
			t.Error(err)
		}
		st.Step()
		if st.rs.box == nil {
			t.Errorf("rank %d: box already dropped after two steps: the rollback point is not live", c.Rank())
		}
		if err := checkpoint.Read(fsys, "ckpt", c.Rank(), 1, st.Sections()); err != nil {
			t.Error(err)
		}
		if err := st.SetStepIndex(1); err != nil {
			t.Error(err)
		}
		if st.rs.box != nil || st.rs.vel.box != nil || st.rs.stress.box != nil {
			t.Errorf("rank %d: SetStepIndex left the active box in place", c.Rank())
		}
		for !st.Done() {
			st.Step()
		}
		res, err := st.Finish()
		if err != nil {
			t.Error(err)
		}
		if c.Rank() == 0 {
			got = res
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	expectResultsExact(t, "rollback with a live box", want, got)
}

// TestSourceJoinsBoxWhenLive: a source whose rate is exactly zero until its
// onset joins the box at the first step its sampled rate is not, and one that
// never goes live never does — its rank sweeps nothing all run.
func TestSourceJoinsBoxWhenLive(t *testing.T) {
	q := cvm.SoCal(2400, 2400, 1600, 400)
	opt := baseOptions(mpi.NewCart(1, 1, 1))
	opt.Variant, opt.Steps = fd.Production, 9 // the box needs four steps from the onset to fill this grid
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
	res := boxWorld(t, q, opt, false, func(_ *mpi.Comm, st *Stepper) {
		b, step := st.rs.box, st.StepIndex()-1
		switch {
		case b == nil:
			t.Errorf("step %d: box dropped on a 24x24x16 grid %d steps after the onset", step, step-onsetStep)
		case step < onsetStep && !b.Empty():
			t.Errorf("step %d: box %v before the source's onset at step %d", step, b.Box, onsetStep)
		case step == onsetStep && b.Box != node:
			t.Errorf("step %d: box %v, want the source node %v", step, b.Box, node)
		case step > onsetStep && !b.Contains(node):
			t.Errorf("step %d: box %v lost the source node", step, b.Box)
		}
	})
	if res.ActiveShare <= 0 || res.ActiveShare >= 0.5 {
		t.Errorf("ActiveShare %g with the only live source silent for %d of %d steps", res.ActiveShare, onsetStep, opt.Steps)
	}

	opt.Sources = []source.SampledSource{never}
	res = boxWorld(t, q, opt, false, func(_ *mpi.Comm, st *Stepper) {
		if b := st.rs.box; b == nil || !b.Empty() {
			t.Errorf("step %d: box %v with no live source", st.StepIndex()-1, b)
		}
	})
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
