package solver

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpi"
)

// splitXModel is a basin-over-rock toy: hard rock for x < split, a soft
// low-velocity block at x >= split, constant in y and depth. The x-contrast
// drives rank-rate divergence along the x topology axis.
type splitXModel struct {
	split      float64
	rock, soft cvm.Material
}

func (m splitXModel) Query(x, _, _ float64) cvm.Material {
	if x < m.split {
		return m.rock
	}
	return m.soft
}

// ltsContrast returns the test media pair: Vp ratio 5200/1200 > 4, so the
// soft side earns rate 4 (capped by MaxK/grading) with float margin.
func ltsContrast() (rock, soft cvm.Material) {
	rock = cvm.Material{Vp: 5200, Vs: 3000, Rho: 2700}
	soft = cvm.Material{Vp: 1200, Vs: 700, Rho: 1900}
	return
}

// ltsOptions builds a two-sided wave problem on a PX-rank x-decomposition
// with source in the rock half and receivers in both halves.
func ltsOptions(g grid.Dims, steps int, topo mpi.Cart) Options {
	src := source.PointSource{
		GI: g.NX / 4, GJ: g.NY / 2, GK: g.NZ / 2,
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
		ABC:         SpongeABC,
		SpongeWidth: 4,
		FreeSurface: true,
		Attenuation: true,
		Sources:     []source.SampledSource{src.Sample(0.002, 400)},
		Receivers: [][3]int{
			{g.NX / 4, g.NY / 2, 2},     // rock side
			{3 * g.NX / 4, g.NY / 2, 2}, // soft side
			{g.NX / 2, g.NY / 4, g.NZ / 2},
		},
		TrackPGV: true,
	}
}

// runStepperWorld runs opt via rank-local Steppers and returns the rank-0
// result along with the (all-rank-identical) LTS rate vector.
func runStepperWorld(t *testing.T, q cvm.Querier, opt Options) (*Result, []int) {
	t.Helper()
	return stepWorld(t, q, opt, nil)
}

// stepWorld is runStepperWorld with a hook: after, when not nil, runs on
// every rank's goroutine following each Step (a step or an
// LTS cycle). It must use t.Error, not t.Fatal.
func stepWorld(t *testing.T, q cvm.Querier, opt Options, after func(c *mpi.Comm, st *Stepper)) (*Result, []int) {
	t.Helper()
	opt, err := PlanLTS(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	dc, opt, err := Prepare(opt)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var result *Result
	var rates []int
	var worldErr error
	world := mpi.NewWorld(opt.Topo.Size())
	world.Run(func(c *mpi.Comm) {
		st, err := NewStepper(c, q, dc, opt)
		if err != nil {
			mu.Lock()
			worldErr = err
			mu.Unlock()
			return
		}
		defer st.Close()
		for !st.Done() {
			st.Step()
			if after != nil {
				after(c, st)
			}
		}
		res, err := st.Finish()
		if c.Rank() == 0 {
			mu.Lock()
			result, rates = res, st.LTSRates()
			if err != nil {
				worldErr = err
			}
			mu.Unlock()
		}
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return result, rates
}

func TestLTSRateFor(t *testing.T) {
	cases := []struct {
		localDt, baseDt float64
		maxK, steps     int
		want            int
	}{
		{1.0, 1.0, 2, 16, 1},  // no headroom
		{2.5, 1.0, 2, 16, 2},  // fits 2x, not 4x
		{4.5, 1.0, 2, 16, 4},  // fits 4x
		{9.0, 1.0, 2, 16, 4},  // capped by maxK=2
		{4.5, 1.0, 1, 16, 2},  // capped by maxK=1
		{4.5, 1.0, 2, 15, 1},  // odd steps: no cycle tiles
		{4.5, 1.0, 2, 18, 2},  // 18 divisible by 2, not 4
		{1.99, 1.0, 2, 16, 1}, // just under the 2x threshold
		{2.0, 1.0, 2, 16, 2},  // exactly at the threshold
	}
	for _, c := range cases {
		if got := ltsRateFor(c.localDt, c.baseDt, c.maxK, c.steps); got != c.want {
			t.Errorf("ltsRateFor(%g, %g, %d, %d) = %d, want %d",
				c.localDt, c.baseDt, c.maxK, c.steps, got, c.want)
		}
	}
}

func TestLTSGradeRates(t *testing.T) {
	// 4 ranks in a line: [4 4 1 1] at ratio 2 must grade the seam to
	// [4 2 1 1]; at ratio 4 the vector is already admissible.
	topo := mpi.NewCart(4, 1, 1)
	rates := []int{4, 4, 1, 1}
	ltsGradeRates(rates, topo, 2)
	if want := []int{4, 2, 1, 1}; !equalInts(rates, want) {
		t.Errorf("ratio 2: got %v, want %v", rates, want)
	}
	rates = []int{4, 4, 1, 1}
	ltsGradeRates(rates, topo, 4)
	if want := []int{4, 4, 1, 1}; !equalInts(rates, want) {
		t.Errorf("ratio 4: got %v, want %v", rates, want)
	}
	// Cascading: [4 1 4] must pull both ends down through the middle.
	rates = []int{4, 1, 4}
	ltsGradeRates(rates, mpi.NewCart(3, 1, 1), 2)
	if want := []int{2, 1, 2}; !equalInts(rates, want) {
		t.Errorf("cascade: got %v, want %v", rates, want)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDtAndCFLValidation pins the new Options validation: explicitly
// negative Dt and out-of-range CFL are rejected; CFL 0 defaults to the
// historical 0.5 bit-identically.
func TestDtAndCFLValidation(t *testing.T) {
	base := ltsOptions(grid.Dims{NX: 16, NY: 12, NZ: 12}, 4, mpi.NewCart(1, 1, 1))

	bad := base
	bad.Dt = -0.001
	if _, _, err := Prepare(bad); err == nil {
		t.Error("negative Dt accepted")
	}
	bad = base
	bad.CFL = -0.1
	if _, _, err := Prepare(bad); err == nil {
		t.Error("negative CFL accepted")
	}
	bad = base
	bad.CFL = 1.5
	if _, _, err := Prepare(bad); err == nil {
		t.Error("CFL above the stability bound accepted")
	}
	ok := base
	ok.CFL = 1.0
	if _, _, err := Prepare(ok); err != nil {
		t.Errorf("CFL 1.0 rejected: %v", err)
	}

	// Explicit CFL 0.5 must reproduce the default run exactly.
	q := cvm.HardRock()
	ref, err := Run(q, base)
	if err != nil {
		t.Fatal(err)
	}
	withCFL := base
	withCFL.CFL = 0.5
	res, err := Run(q, withCFL)
	if err != nil {
		t.Fatal(err)
	}
	expectResultsExact(t, "cfl 0.5 vs default", ref, res)
}

// TestLTSValidation pins Prepare's LTS gating.
func TestLTSValidation(t *testing.T) {
	base := ltsOptions(grid.Dims{NX: 16, NY: 12, NZ: 12}, 8, mpi.NewCart(1, 1, 1))
	base.LTS.Enabled = true

	// M-PML composes with LTS: the zones are tiles of the one plan.
	mpml := base
	mpml.ABC, mpml.PMLWidth = MPMLABC, 3
	if _, err := Run(cvm.HardRock(), mpml); err != nil {
		t.Errorf("LTS + M-PML rejected: %v", err)
	}
	bad := base
	bad.LTS.MaxK = 3
	if _, _, err := Prepare(bad); err == nil {
		t.Error("MaxK 3 accepted")
	}
	bad = base
	bad.LTS.MaxRateRatio = 3
	if _, _, err := Prepare(bad); err == nil {
		t.Error("MaxRateRatio 3 accepted")
	}
	ok := base
	ok.LTS.MaxK = 1
	ok.LTS.MaxRateRatio = 4
	if _, opt, err := Prepare(ok); err != nil {
		t.Errorf("valid LTS options rejected: %v", err)
	} else if opt.LTS.MaxK != 1 || opt.LTS.MaxRateRatio != 4 {
		t.Errorf("explicit LTS options overwritten: %+v", opt.LTS)
	}
	if _, opt, err := Prepare(base); err != nil {
		t.Errorf("default LTS options rejected: %v", err)
	} else if opt.LTS.MaxK != 2 || opt.LTS.MaxRateRatio != 2 {
		t.Errorf("LTS defaults wrong: %+v", opt.LTS)
	}
}

// TestPlanLTS pins the plane-rate planner: a lateral basin-over-rock
// contrast rates the x-axis and leaves uniform axes nil; a uniform medium
// leaves every axis nil (preserving the classic block layout).
func TestPlanLTS(t *testing.T) {
	rock, soft := ltsContrast()
	g := grid.Dims{NX: 32, NY: 12, NZ: 12}
	opt := ltsOptions(g, 16, mpi.NewCart(2, 1, 1))
	opt.LTS = LTSOptions{Enabled: true, WorkBalance: true}
	q := splitXModel{split: float64(g.NX/2) * opt.H, rock: rock, soft: soft}

	planned, err := PlanLTS(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	pr := planned.LTS.PlaneRates
	if pr == nil || pr.X == nil {
		t.Fatalf("x-axis plane rates missing: %+v", pr)
	}
	if pr.Y != nil || pr.Z != nil {
		t.Errorf("uniform axes should stay nil, got Y=%v Z=%v", pr.Y, pr.Z)
	}
	for i, r := range pr.X {
		want := 1
		if i >= g.NX/2 {
			want = 4
		}
		if r != want {
			t.Fatalf("plane %d: rate %d, want %d", i, r, want)
		}
	}

	uni := ltsOptions(g, 16, mpi.NewCart(2, 1, 1))
	uni.LTS = LTSOptions{Enabled: true, WorkBalance: true}
	planned, err = PlanLTS(cvm.Homogeneous(rock), uni)
	if err != nil {
		t.Fatal(err)
	}
	pr = planned.LTS.PlaneRates
	if pr == nil || pr.X != nil || pr.Y != nil || pr.Z != nil {
		t.Errorf("uniform medium should plan all-nil axes, got %+v", pr)
	}
}

// TestLTSRate1BitIdentityMatrix pins the acceptance criterion that
// rate-1-only LTS configs (uniform medium: every rank earns rate 1) are
// bit-identical to the classic path across all four comm models x Threads
// {1, 4}. WorkBalance is on, so the test also covers PlanLTS leaving a
// uniform medium on the classic block layout.
func TestLTSRate1BitIdentityMatrix(t *testing.T) {
	g := grid.Dims{NX: 28, NY: 24, NZ: 16}
	q := cvm.Homogeneous(cvm.Material{Vp: 5200, Vs: 3000, Rho: 2700})
	topo := mpi.NewCart(2, 2, 1)
	for _, comm := range []CommModel{Synchronous, Asynchronous, AsyncReduced, AsyncOverlap} {
		for _, threads := range []int{1, 4} {
			opt := ltsOptions(g, 12, topo)
			opt.Comm = comm
			opt.Threads = threads
			ref, err := Run(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.LTS = LTSOptions{Enabled: true, WorkBalance: true}
			res, err := Run(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			expectResultsExact(t, fmt.Sprintf("comm %d threads %d", comm, threads), ref, res)
		}
	}
}

// relL2 returns ||a-b|| / ||b|| over flattened [3]float32 series.
func relL2(a, b [][3]float32) float64 {
	var num, den float64
	for i := range a {
		for c := 0; c < 3; c++ {
			d := float64(a[i][c]) - float64(b[i][c])
			num += d * d
			den += float64(b[i][c]) * float64(b[i][c])
		}
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// TestLTSMixedRateAccuracy runs the basin-over-rock contrast at mixed
// rates across a 2-rank x-seam, long enough for real signal to cross into
// the soft half, and requires the seismograms and PGV to stay within a
// documented tolerance of the global-dt reference. The tolerances track
// the inherent cost of coarser leapfrog steps: a uniform soft medium
// stepped at 2x/4x the reference dt (no LTS, no seam) already shows relL2
// up to ~0.25/~1.5 on the same receivers, so the rate-boundary scheme
// adds little beyond time-refinement error (measured: rate 2 <= 0.18,
// rate 4 <= 0.39; PGV <= 2.3%/3.6%). `benchtab -exp lts` enforces the
// same bounds on its benchmark scenario.
//
// The ABC axis holds M-PML to the sponge's tolerances against its own
// uniform-dt reference: the zones are tiles of the one plan prepared at the
// rank's local dt, on a grid whose ten-cell zones leave an interior, for
// twice as many steps — a split-field instability at the coarse step would
// have grown by then.
func TestLTSMixedRateAccuracy(t *testing.T) {
	rock, soft := ltsContrast()
	topo := mpi.NewCart(2, 1, 1)
	for _, bc := range []struct {
		name  string
		abc   ABCKind
		g     grid.Dims
		steps int
	}{
		{"sponge", SpongeABC, grid.Dims{NX: 32, NY: 16, NZ: 16}, 192},
		{"mpml", MPMLABC, grid.Dims{NX: 48, NY: 32, NZ: 32}, 384},
	} {
		t.Run(bc.name, func(t *testing.T) {
			q := splitXModel{split: float64(bc.g.NX/2) * 100, rock: rock, soft: soft}
			mkOpt := func() Options {
				opt := ltsOptions(bc.g, bc.steps, topo)
				opt.ABC = bc.abc
				return opt
			}
			ref, err := Run(q, mkOpt())
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct {
				ratio, wantRate int
				seisTol, pgvTol float64
			}{
				{2, 2, 0.25, 0.05},
				{4, 4, 0.50, 0.08},
			} {
				opt := mkOpt()
				opt.LTS = LTSOptions{Enabled: true, MaxRateRatio: tc.ratio}
				res, rates := runStepperWorld(t, q, opt)
				if want := []int{1, tc.wantRate}; !equalInts(rates, want) {
					t.Fatalf("ratio %d: rates %v, want %v (test medium no longer drives mixed rates)",
						tc.ratio, rates, want)
				}
				for r := range ref.Seismograms {
					e := relL2(res.Seismograms[r], ref.Seismograms[r])
					t.Logf("ratio %d receiver %d: rel L2 %.4f", tc.ratio, r, e)
					if !(e <= tc.seisTol) {
						t.Errorf("ratio %d receiver %d: rel L2 error %.4f exceeds %.2f",
							tc.ratio, r, e, tc.seisTol)
					}
				}
				var maxRef, maxDiff float64
				for i := range ref.PGVH {
					if ref.PGVH[i] > maxRef {
						maxRef = ref.PGVH[i]
					}
					if d := math.Abs(res.PGVH[i] - ref.PGVH[i]); !(d <= maxDiff) {
						maxDiff = d
					}
				}
				t.Logf("ratio %d PGV: max abs diff %.3e vs peak %.3e (%.4f rel)",
					tc.ratio, maxDiff, maxRef, maxDiff/maxRef)
				if !(maxDiff <= tc.pgvTol*maxRef) {
					t.Errorf("ratio %d: PGV max deviation %.3e exceeds %.0f%% of peak %.3e",
						tc.ratio, maxDiff, tc.pgvTol*100, maxRef)
				}
			}
		})
	}
}

// TestLTSMixedRateCommModelsBitIdentical pins that a mixed-rate run honours
// Options.Comm without the result showing it: rates 1/4 across the x seam of
// a 2x2x1 world, under all four comm models (the barrier-free Synchronous,
// full and reduced section sets, the overlap model's strips and inner tiles
// around windowed messages) x Threads {1, 4}, every seismogram sample and PGV
// value exact against the serial Asynchronous run.
func TestLTSMixedRateCommModelsBitIdentical(t *testing.T) {
	rock, soft := ltsContrast()
	g := grid.Dims{NX: 32, NY: 16, NZ: 16}
	q := splitXModel{split: float64(g.NX/2) * 100, rock: rock, soft: soft}
	mkOpt := func(comm CommModel, threads int) Options {
		opt := ltsOptions(g, 32, mpi.NewCart(2, 2, 1))
		opt.Comm, opt.Threads = comm, threads
		opt.LTS = LTSOptions{Enabled: true, MaxRateRatio: 4}
		return opt
	}
	ref, rates := runStepperWorld(t, q, mkOpt(Asynchronous, 1))
	if want := []int{1, 4, 1, 4}; !equalInts(rates, want) {
		t.Fatalf("rates %v, want %v", rates, want)
	}
	if maxSeriesAbs(ref.Seismograms[1]) == 0 {
		t.Fatal("no signal reached the rate-4 half; comparison vacuous")
	}
	for _, comm := range []CommModel{Synchronous, Asynchronous, AsyncReduced, AsyncOverlap} {
		for _, threads := range []int{1, 4} {
			res, _ := runStepperWorld(t, q, mkOpt(comm, threads))
			expectResultsExact(t, fmt.Sprintf("%v threads=%d", comm, threads), ref, res)
		}
	}
}

// TestLTSMixedRateGrading checks the default MaxRateRatio 2 caps the soft
// side at rate 2 across the seam.
func TestLTSMixedRateGrading(t *testing.T) {
	rock, soft := ltsContrast()
	g := grid.Dims{NX: 24, NY: 12, NZ: 12}
	q := splitXModel{split: float64(g.NX/2) * 100, rock: rock, soft: soft}
	opt := ltsOptions(g, 8, mpi.NewCart(2, 1, 1))
	opt.LTS.Enabled = true
	_, rates := runStepperWorld(t, q, opt)
	if want := []int{1, 2}; !equalInts(rates, want) {
		t.Errorf("rates %v, want %v under default grading", rates, want)
	}
}

// TestLTSInterpolationSoakRace exercises the rate-boundary interpolation
// exchange under threading (run with -race in CI): a 4-rank topology with
// mixed rates 1/2/4, pooled kernels, and enough cycles to cycle every
// window position. Correctness is pinned by the accuracy test; this one
// is about the memory discipline of the window buffers.
func TestLTSInterpolationSoakRace(t *testing.T) {
	rock, soft := ltsContrast()
	g := grid.Dims{NX: 48, NY: 12, NZ: 12}
	// Three bands: rock | intermediate | soft across a 4-rank x-line,
	// yielding rates [1 1 2 4] under ratio 4.
	mid := cvm.Material{Vp: 2500, Vs: 1450, Rho: 2200}
	q := bandedXModel{
		edges: []float64{float64(g.NX/2) * 100, float64(3*g.NX/4) * 100},
		mats:  []cvm.Material{rock, mid, soft},
	}
	opt := ltsOptions(g, 16, mpi.NewCart(4, 1, 1))
	opt.Threads = 4
	opt.LTS = LTSOptions{Enabled: true, MaxRateRatio: 4}
	res, rates := runStepperWorld(t, q, opt)
	if want := []int{1, 1, 2, 4}; !equalInts(rates, want) {
		t.Fatalf("rates %v, want %v", rates, want)
	}
	for r, s := range res.Seismograms {
		for i, v := range s {
			if math.IsNaN(float64(v[0])) || math.IsNaN(float64(v[1])) || math.IsNaN(float64(v[2])) {
				t.Fatalf("receiver %d sample %d is NaN", r, i)
			}
		}
	}
}

// bandedXModel maps x-bands to materials: mats[i] applies to
// x < edges[i], the last material beyond the final edge.
type bandedXModel struct {
	edges []float64
	mats  []cvm.Material
}

func (m bandedXModel) Query(x, _, _ float64) cvm.Material {
	for i, e := range m.edges {
		if x < e {
			return m.mats[i]
		}
	}
	return m.mats[len(m.mats)-1]
}

// TestLTSCheckpointRollbackBitIdentity pins cycle self-containment: a
// coordinated rollback to an LTS cycle boundary (restore wavefield state,
// rewind the cursor, replay) reproduces the uninterrupted run exactly.
func TestLTSCheckpointRollbackBitIdentity(t *testing.T) {
	rock, soft := ltsContrast()
	g := grid.Dims{NX: 24, NY: 12, NZ: 12}
	q := splitXModel{split: float64(g.NX/2) * 100, rock: rock, soft: soft}
	topo := mpi.NewCart(2, 1, 1)

	mkOpt := func() Options {
		opt := ltsOptions(g, 16, topo)
		opt.Attenuation = false // keep the snapshot to wavefield state
		opt.LTS = LTSOptions{Enabled: true, MaxRateRatio: 4}
		return opt
	}
	ref, _ := runStepperWorld(t, q, mkOpt())

	opt, err := PlanLTS(q, mkOpt())
	if err != nil {
		t.Fatal(err)
	}
	dc, opt, err := Prepare(opt)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var result *Result
	var worldErr error
	world := mpi.NewWorld(opt.Topo.Size())
	world.Run(func(c *mpi.Comm) {
		st, err := NewStepper(c, q, dc, opt)
		if err != nil {
			mu.Lock()
			worldErr = err
			mu.Unlock()
			return
		}
		defer st.Close()
		align := st.StepAlign()
		if align != 4 {
			mu.Lock()
			worldErr = fmt.Errorf("StepAlign = %d, want 4", align)
			mu.Unlock()
			return
		}
		if err := st.SetStepIndex(align + 1); err == nil {
			mu.Lock()
			worldErr = fmt.Errorf("mid-cycle step index accepted")
			mu.Unlock()
			return
		}
		// Run two cycles, snapshot, run one more, roll back, replay.
		for st.StepIndex() < 2*align {
			st.Step()
		}
		var snap [][]float32
		for _, f := range st.State().Fields() {
			snap = append(snap, append([]float32(nil), f.Data()...))
		}
		st.Step()
		for i, f := range st.State().Fields() {
			copy(f.Data(), snap[i])
		}
		if err := st.SetStepIndex(2 * align); err != nil {
			mu.Lock()
			worldErr = err
			mu.Unlock()
			return
		}
		for !st.Done() {
			st.Step()
		}
		res, err := st.Finish()
		if c.Rank() == 0 {
			mu.Lock()
			result = res
			if err != nil {
				worldErr = err
			}
			mu.Unlock()
		}
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	expectResultsExact(t, "rollback replay", ref, result)
}
