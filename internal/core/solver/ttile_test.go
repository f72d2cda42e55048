package solver

import (
	"fmt"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpi"
)

// ttileOptions builds a wave-propagation problem exercising every feature
// the time-tiled engine must reproduce: sponge ABC, free surface,
// attenuation, a moment-rate source, receivers, and PGV tracking.
func ttileOptions(g grid.Dims, steps int, topo mpi.Cart) Options {
	src := source.PointSource{
		GI: g.NX / 2, GJ: g.NY / 2, GK: g.NZ / 2,
		M0:     1e15,
		Tensor: source.Explosion,
		STF:    source.GaussianPulse(0.08, 0.02),
	}
	return Options{
		Global:      g,
		H:           100,
		Steps:       steps,
		Topo:        topo,
		Comm:        Asynchronous,
		Variant:     fd.Precomp,
		ABC:         SpongeABC,
		SpongeWidth: 4,
		FreeSurface: true,
		Attenuation: true,
		Sources:     []source.SampledSource{src.Sample(0.002, 400)},
		Receivers: [][3]int{
			{g.NX / 4, g.NY / 2, g.NZ / 2}, {g.NX - 2, g.NY / 2, 2},
			{g.NX / 2, g.NY / 4, 1}, {1, 1, g.NZ / 2},
		},
		TrackPGV: true,
	}
}

// compareResults asserts exact equality of seismograms and PGV maps.
func compareResults(t *testing.T, tag string, ref, res *Result) {
	t.Helper()
	for r := range ref.Seismograms {
		a, b := ref.Seismograms[r], res.Seismograms[r]
		if len(a) != len(b) {
			t.Fatalf("%s: receiver %d: %d vs %d samples", tag, r, len(a), len(b))
		}
		for n := range a {
			if a[n] != b[n] {
				t.Fatalf("%s: receiver %d sample %d: %v != %v", tag, r, n, a[n], b[n])
			}
		}
	}
	if len(ref.PGVH) != len(res.PGVH) {
		t.Fatalf("%s: PGV length %d vs %d", tag, len(ref.PGVH), len(res.PGVH))
	}
	for i := range ref.PGVH {
		if ref.PGVH[i] != res.PGVH[i] || ref.PGVX[i] != res.PGVX[i] ||
			ref.PGVY[i] != res.PGVY[i] || ref.PGVZ[i] != res.PGVZ[i] {
			t.Fatalf("%s: PGV mismatch at %d", tag, i)
		}
	}
}

// TestTemporalDepthBitIdentitySingleRank pins the tentpole invariant on
// one rank: depths 2 and 4 reproduce the depth-1 observables exactly,
// including a final partial super-step (Steps not a multiple of T).
func TestTemporalDepthBitIdentitySingleRank(t *testing.T) {
	for _, variant := range []fd.Variant{fd.Precomp, fd.Fused} {
		opt := ttileOptions(grid.Dims{NX: 24, NY: 20, NZ: 18}, 50, mpi.NewCart(1, 1, 1))
		opt.Variant = variant
		ref, err := Run(cvm.SoCal(2400, 2400, 1600, 400), opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, depth := range []int{2, 4} {
			o := opt
			o.TemporalDepth = depth
			res, err := Run(cvm.SoCal(2400, 2400, 1600, 400), o)
			if err != nil {
				t.Fatalf("%v depth %d: %v", variant, depth, err)
			}
			compareResults(t, fmt.Sprintf("%v depth %d", variant, depth), ref, res)
		}
	}
}

// TestTemporalDepthBitIdentityMatrix sweeps comm model x threads x depth
// on a decomposed topology against the single-rank depth-1 reference.
func TestTemporalDepthBitIdentityMatrix(t *testing.T) {
	g := grid.Dims{NX: 32, NY: 32, NZ: 16}
	q := cvm.SoCal(2400, 2400, 1600, 400)
	ref, err := Run(q, ttileOptions(g, 30, mpi.NewCart(1, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []CommModel{Synchronous, Asynchronous, AsyncReduced} {
		for _, threads := range []int{1, 4} {
			for _, depth := range []int{1, 2, 4} {
				opt := ttileOptions(g, 30, mpi.NewCart(2, 2, 1))
				opt.Comm = model
				opt.Threads = threads
				opt.TemporalDepth = depth
				tag := fmt.Sprintf("%v/threads=%d/depth=%d", model, threads, depth)
				res, err := Run(q, opt)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				compareResults(t, tag, ref, res)
			}
		}
	}
}

// collectState runs a full simulation stepping rank-local Steppers and
// assembles the interior of every wavefield component and attenuation
// memory variable into global arrays, so tests can compare the complete
// final state bit-for-bit (observables alone would miss interior cells).
func collectState(t *testing.T, q cvm.Querier, opt Options) [][]float32 {
	t.Helper()
	dc, opt, err := Prepare(opt)
	if err != nil {
		t.Fatal(err)
	}
	g := opt.Global
	out := make([][]float32, 15)
	for i := range out {
		out[i] = make([]float32, g.NX*g.NY*g.NZ)
	}
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	world := mpi.NewWorld(opt.Topo.Size())
	var worldErr error
	world.Run(func(c *mpi.Comm) {
		st, err := NewStepper(c, q, dc, opt)
		if err != nil {
			if c.Rank() == 0 {
				worldErr = err
			}
			return
		}
		defer st.Close()
		for !st.Done() {
			st.Step()
		}
		sub := dc.SubFor(c.Rank())
		fields := st.State().Fields()
		if a := st.Atten(); a != nil {
			fields = append(fields, a.ZXX, a.ZYY, a.ZZZ, a.ZXY, a.ZXZ, a.ZYZ)
		}
		<-mu
		for fi, f := range fields {
			blk := f.ExtractBlock(0, sub.Local.NX, 0, sub.Local.NY, 0, sub.Local.NZ)
			n := 0
			for k := 0; k < sub.Local.NZ; k++ {
				for j := 0; j < sub.Local.NY; j++ {
					for i := 0; i < sub.Local.NX; i++ {
						gi := (k+sub.OffZ)*g.NX*g.NY + (j+sub.OffY)*g.NX + (i + sub.OffX)
						out[fi][gi] = blk[n]
						n++
					}
				}
			}
		}
		mu <- struct{}{}
		// Finish is collective; run it so no rank blocks.
		if _, err := st.Finish(); err != nil && c.Rank() == 0 {
			worldErr = err
		}
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return out
}

var ttileFieldNames = []string{
	"vx", "vy", "vz", "sxx", "syy", "szz", "sxy", "sxz", "syz",
	"zxx", "zyy", "zzz", "zxy", "zxz", "zyz",
}

// FuzzTemporalTiling drives randomized domain shapes, decompositions and
// depths and requires the complete final state — nine wavefield
// components and six memory variables at every interior cell — to match
// the step-by-step reference exactly.
func FuzzTemporalTiling(f *testing.F) {
	f.Add(uint8(25), uint8(21), uint8(17), uint8(2), uint8(1), uint8(1), uint8(2), uint8(11))
	f.Add(uint8(33), uint8(18), uint8(16), uint8(1), uint8(2), uint8(1), uint8(4), uint8(9))
	f.Add(uint8(20), uint8(20), uint8(34), uint8(1), uint8(1), uint8(2), uint8(2), uint8(7))
	f.Add(uint8(26), uint8(27), uint8(28), uint8(2), uint8(2), uint8(1), uint8(4), uint8(13))
	f.Fuzz(func(t *testing.T, nx, ny, nz, px, py, pz, depth, steps uint8) {
		g := grid.Dims{
			NX: 16 + int(nx)%24, NY: 16 + int(ny)%24, NZ: 12 + int(nz)%24,
		}
		topo := mpi.NewCart(1+int(px)%2, 1+int(py)%2, 1+int(pz)%2)
		T := 2
		if depth%2 == 0 {
			T = 4
		}
		nsteps := 5 + int(steps)%16
		if g.NX/topo.PX < 4*T || g.NY/topo.PY < 4*T || g.NZ/topo.PZ < 4*T {
			t.Skip("subgrid too small for this depth")
		}
		q := cvm.SoCal(2400, 2400, 1600, 400)

		opt := ttileOptions(g, nsteps, mpi.NewCart(1, 1, 1))
		ref := collectState(t, q, opt)
		refRes, err := Run(q, opt)
		if err != nil {
			t.Fatal(err)
		}

		opt = ttileOptions(g, nsteps, topo)
		opt.TemporalDepth = T
		got := collectState(t, q, opt)
		res, err := Run(q, opt)
		if err != nil {
			t.Fatal(err)
		}

		for fi := range ref {
			for i := range ref[fi] {
				if ref[fi][i] != got[fi][i] {
					k := i / (g.NX * g.NY)
					j := i % (g.NX * g.NY) / g.NX
					t.Fatalf("field %s cell (%d,%d,%d): ref %g got %g (T=%d topo=%v steps=%d)",
						ttileFieldNames[fi], i%g.NX, j, k, ref[fi][i], got[fi][i], T, topo, nsteps)
				}
			}
		}
		compareResults(t, fmt.Sprintf("T=%d topo=%v", T, topo), refRes, res)
	})
}

// TestTemporalDepthSoakRace is the depth>1 workload CI runs under the race
// detector: multi-rank, threaded pools, deep exchange.
func TestTemporalDepthSoakRace(t *testing.T) {
	g := grid.Dims{NX: 34, NY: 30, NZ: 20}
	q := cvm.SoCal(2400, 2400, 1600, 400)
	ref, err := Run(q, ttileOptions(g, 25, mpi.NewCart(1, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	opt := ttileOptions(g, 25, mpi.NewCart(2, 2, 2))
	opt.TemporalDepth = 2
	opt.Threads = 4
	opt.Comm = Synchronous
	res, err := Run(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "soak", ref, res)
}

// TestTemporalDepthValidation pins Prepare's depth gating.
func TestTemporalDepthValidation(t *testing.T) {
	base := ttileOptions(grid.Dims{NX: 24, NY: 24, NZ: 16}, 10, mpi.NewCart(1, 1, 1))

	bad := base
	bad.TemporalDepth = fd.MaxTemporalDepth + 1
	if _, _, err := Prepare(bad); err == nil {
		t.Error("depth above MaxTemporalDepth accepted")
	}
	bad = base
	bad.TemporalDepth = 2
	bad.Comm = AsyncOverlap
	if _, _, err := Prepare(bad); err == nil {
		t.Error("overlap comm model accepted at depth > 1")
	}
	bad = base
	bad.TemporalDepth = 2
	bad.ABC = MPMLABC
	if _, _, err := Prepare(bad); err == nil {
		t.Error("M-PML accepted at depth > 1")
	}
	bad = ttileOptions(grid.Dims{NX: 24, NY: 24, NZ: 16}, 10, mpi.NewCart(2, 1, 1))
	bad.TemporalDepth = 4 // 24/2 = 12 < 16 cells per rank
	if _, _, err := Prepare(bad); err == nil {
		t.Error("undersized decomposed axis accepted at depth 4")
	}
	ok := base
	ok.TemporalDepth = 4
	if _, _, err := Prepare(ok); err != nil {
		t.Errorf("single-rank depth 4 rejected: %v", err)
	}
}

// TestSetStepIndexSuperStepBoundary pins the rollback alignment contract.
func TestSetStepIndexSuperStepBoundary(t *testing.T) {
	opt := ttileOptions(grid.Dims{NX: 20, NY: 20, NZ: 16}, 8, mpi.NewCart(1, 1, 1))
	opt.TemporalDepth = 2
	dc, opt, err := Prepare(opt)
	if err != nil {
		t.Fatal(err)
	}
	world := mpi.NewWorld(1)
	world.Run(func(c *mpi.Comm) {
		st, err := NewStepper(c, cvm.HardRock(), dc, opt)
		if err != nil {
			t.Error(err)
			return
		}
		defer st.Close()
		if err := st.SetStepIndex(3); err == nil {
			t.Error("off-boundary step index accepted at depth 2")
		}
		if err := st.SetStepIndex(4); err != nil {
			t.Errorf("super-step boundary rejected: %v", err)
		}
		for !st.Done() {
			st.Step()
		}
		if _, err := st.Finish(); err != nil {
			t.Error(err)
		}
	})
}
