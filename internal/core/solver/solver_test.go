package solver

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/core/rupture"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpi"
)

// baseOptions builds a small wave-propagation problem with a central
// explosion source.
func baseOptions(topo mpi.Cart) Options {
	g := grid.Dims{NX: 24, NY: 24, NZ: 16}
	src := source.PointSource{
		GI: 12, GJ: 12, GK: 8,
		M0:     1e15,
		Tensor: source.Explosion,
		STF:    source.GaussianPulse(0.08, 0.02),
	}
	return Options{
		Global:      g,
		H:           100,
		Steps:       60,
		Topo:        topo,
		Comm:        Asynchronous,
		Variant:     fd.Precomp,
		ABC:         SpongeABC,
		SpongeWidth: 4,
		FreeSurface: true,
		Attenuation: true,
		Sources:     []source.SampledSource{src.Sample(0.002, 200)},
		Receivers:   [][3]int{{6, 12, 8}, {18, 12, 8}, {12, 6, 8}, {12, 12, 2}},
		TrackPGV:    true,
	}
}

func maxSeriesAbs(s [][3]float32) float64 {
	var m float64
	for _, v := range s {
		for _, c := range v {
			if a := math.Abs(float64(c)); a > m {
				m = a
			}
		}
	}
	return m
}

func TestPointSourceRadiates(t *testing.T) {
	res, err := Run(cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}),
		baseOptions(mpi.NewCart(1, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("nil result at rank 0")
	}
	for r, s := range res.Seismograms {
		if len(s) != 60 {
			t.Fatalf("receiver %d: %d samples, want 60", r, len(s))
		}
		if maxSeriesAbs(s) == 0 {
			t.Errorf("receiver %d recorded nothing", r)
		}
	}
	// Symmetry: an explosion in a homogeneous medium radiates
	// symmetrically; receivers on either side of the source record the
	// same peak amplitude (vx staggering shifts the two receivers by one
	// cell, so compare peaks rather than samples).
	p0 := maxSeriesAbs(res.Seismograms[0])
	p1 := maxSeriesAbs(res.Seismograms[1])
	if math.Abs(p0-p1)/math.Max(p0, p1) > 0.25 {
		t.Errorf("mirror receivers peak mismatch: %g vs %g", p0, p1)
	}
	if res.PGVH == nil {
		t.Fatal("PGV map missing")
	}
	var pgvMax float64
	for _, v := range res.PGVH {
		if v > pgvMax {
			pgvMax = v
		}
	}
	if pgvMax == 0 {
		t.Error("surface PGV all zero (free-surface wave should arrive)")
	}
	if res.Timing.Comp <= 0 {
		t.Error("timing not recorded")
	}
}

// The decomposition invariant: an N-rank run must reproduce the 1-rank
// wavefield exactly, for every communication model (halo-exchange
// correctness, §IV.A).
func TestDecompositionInvariantAllCommModels(t *testing.T) {
	q := cvm.SoCal(2400, 2400, 1600, 400)
	ref, err := Run(q, baseOptions(mpi.NewCart(1, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	topos := []mpi.Cart{
		mpi.NewCart(2, 1, 1),
		mpi.NewCart(2, 2, 1),
		mpi.NewCart(2, 2, 2),
		mpi.NewCart(1, 3, 1),
	}
	models := []CommModel{Synchronous, Asynchronous, AsyncReduced, AsyncOverlap}
	for _, topo := range topos {
		for _, model := range models {
			opt := baseOptions(topo)
			opt.Comm = model
			res, err := Run(q, opt)
			if err != nil {
				t.Fatalf("%v/%v: %v", topo, model, err)
			}
			for r := range ref.Seismograms {
				a, b := ref.Seismograms[r], res.Seismograms[r]
				if len(a) != len(b) {
					t.Fatalf("%v/%v: receiver %d length mismatch", topo, model, r)
				}
				for n := range a {
					for cpt := 0; cpt < 3; cpt++ {
						if a[n][cpt] != b[n][cpt] {
							t.Fatalf("%+v/%v: receiver %d sample %d comp %d: %g != %g",
								topo, model, r, n, cpt, a[n][cpt], b[n][cpt])
						}
					}
				}
			}
			// PGV maps must also assemble identically.
			for i := range ref.PGVH {
				if math.Abs(ref.PGVH[i]-res.PGVH[i]) > 1e-12 {
					t.Fatalf("%+v/%v: PGV mismatch at %d", topo, model, i)
				}
			}
		}
	}
}

func TestMPMLInSolver(t *testing.T) {
	opt := baseOptions(mpi.NewCart(1, 1, 1))
	opt.Global = grid.Dims{NX: 32, NY: 32, NZ: 24}
	opt.Sources = []source.SampledSource{(source.PointSource{
		GI: 16, GJ: 16, GK: 12, M0: 1e15, Tensor: source.Explosion,
		STF: source.GaussianPulse(0.08, 0.02),
	}).Sample(0.002, 200)}
	opt.Receivers = [][3]int{{16, 16, 6}}
	opt.ABC = MPMLABC
	opt.PMLWidth = 6
	opt.Steps = 120
	res, err := Run(cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}), opt)
	if err != nil {
		t.Fatal(err)
	}
	// After the wave leaves, the receiver should settle to near zero (no
	// strong boundary reflections, no instability).
	tail := res.Seismograms[0][100:]
	head := res.Seismograms[0]
	peak := maxSeriesAbs(head)
	if peak == 0 {
		t.Fatal("no signal")
	}
	if maxSeriesAbs(tail) > 0.2*peak {
		t.Errorf("PML tail %g vs peak %g: reflections too strong", maxSeriesAbs(tail), peak)
	}
}

// TestDFRModeMultiRankMatchesSingle holds a spontaneous rupture under every
// comm model, at 2x1x1 and 2x1x2 and on one and three threads, to the
// single-rank run. The window crosses both seams, so under AsyncOverlap the
// halo strips cut it and its nodes are updated partly before the post and
// partly in the inner box after it; three threads cut it into tiles. Every
// Result field the decomposition cannot change is bit-identical to the
// reference: seismograms, PGV maps, Dt, the fault maps, their summary and the
// slip-rate series. The moment rate is each rank's sum over its nodes,
// reduced across ranks, so its rounding follows the decomposition: it is
// bit-identical across comm models and pool sizes of one topology and within
// a relative 1e-12 of the single-rank sum.
func TestDFRModeMultiRankMatchesSingle(t *testing.T) {
	g := grid.Dims{NX: 48, NY: 24, NZ: 24}
	h := 100.0
	ni, nk := 40, 18
	tau := make([][]float64, nk)
	sn := make([][]float64, nk)
	fr := make([][]rupture.Friction, nk)
	for k := 0; k < nk; k++ {
		tau[k] = make([]float64, ni)
		sn[k] = make([]float64, ni)
		fr[k] = make([]rupture.Friction, ni)
		for i := 0; i < ni; i++ {
			sn[k][i] = 120e6
			tau[k][i] = 70e6
			fr[k][i] = rupture.Friction{MuS: 0.677, MuD: 0.525, Dc: 0.02}
			di, dk := i-ni/2, k-nk/2
			if di*di+dk*dk <= 25 {
				tau[k][i] = 84e6
			}
		}
	}
	mkOpt := func(topo mpi.Cart, comm CommModel, threads int) Options {
		return Options{
			Global: g, H: h, Steps: 150, Topo: topo,
			Comm: comm, Threads: threads, Variant: fd.Precomp,
			ABC: SpongeABC, SpongeWidth: 4,
			Fault: &FaultSpec{
				J0: 12, I0: 4, I1: 4 + ni, K0: 3, K1: 3 + nk,
				Tau0: tau, SigmaN: sn, Friction: fr,
				RecordEvery: 2,
			},
			Receivers: [][3]int{{12, 6, 4}, {36, 18, 12}, {24, 12, 12}},
			TrackPGV:  true,
		}
	}
	q := cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700})
	ref, err := Run(q, mkOpt(mpi.NewCart(1, 1, 1), AsyncReduced, 1))
	if err != nil {
		t.Fatal(err)
	}
	if ref.FaultStats.MaxSlip == 0 || len(ref.SlipSeries) == 0 {
		t.Fatal("reference rupture did not slip or recorded no slip rates")
	}
	for _, topo := range []mpi.Cart{mpi.NewCart(2, 1, 1), mpi.NewCart(2, 1, 2)} {
		var first *Result
		for _, comm := range []CommModel{Synchronous, Asynchronous, AsyncReduced, AsyncOverlap} {
			for _, threads := range []int{1, 3} {
				tag := fmt.Sprintf("%dx%dx%d/%v/threads%d", topo.PX, topo.PY, topo.PZ, comm, threads)
				res, err := Run(q, mkOpt(topo, comm, threads))
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				expectFaultResultsExact(t, tag, ref, res)
				if first == nil {
					first = res
					for n, v := range ref.MomentRate {
						if d := math.Abs(v - res.MomentRate[n]); d > 1e-12*math.Abs(v) {
							t.Fatalf("%s: moment rate at step %d = %g, single rank %g", tag, n, res.MomentRate[n], v)
						}
					}
				} else if !slices.Equal(first.MomentRate, res.MomentRate) {
					t.Fatalf("%s: moment rate differs from the same topology's first run", tag)
				}
			}
		}
	}
}

// expectFaultResultsExact holds res to ref on every Result field of a DFR run
// that the decomposition cannot change, bit for bit; slip-rate series are
// matched by node, since the gather orders them by rank.
func expectFaultResultsExact(t *testing.T, tag string, ref, res *Result) {
	t.Helper()
	expectResultsExact(t, tag, ref, res)
	if res.Steps != ref.Steps || res.Dt != ref.Dt || res.SlipDt != ref.SlipDt {
		t.Fatalf("%s: steps/dt/slip dt %d/%g/%g, reference %d/%g/%g", tag, res.Steps, res.Dt, res.SlipDt, ref.Steps, ref.Dt, ref.SlipDt)
	}
	for name, m := range map[string][2][][]float64{
		"FaultSlip":     {ref.FaultSlip, res.FaultSlip},
		"FaultPeakRate": {ref.FaultPeakRate, res.FaultPeakRate},
		"FaultRupTime":  {ref.FaultRupTime, res.FaultRupTime},
	} {
		for k := range m[0] {
			if !slices.Equal(m[0][k], m[1][k]) {
				t.Fatalf("%s: %s row %d differs from the reference", tag, name, k)
			}
		}
	}
	if res.FaultStats != ref.FaultStats {
		t.Fatalf("%s: FaultStats %+v, reference %+v", tag, res.FaultStats, ref.FaultStats)
	}
	series := map[[3]int][]float32{}
	for n, node := range ref.SlipNodes {
		series[node] = ref.SlipSeries[n]
	}
	if len(res.SlipNodes) != len(series) {
		t.Fatalf("%s: %d slip-rate series, reference %d", tag, len(res.SlipNodes), len(series))
	}
	for n, node := range res.SlipNodes {
		if !slices.Equal(series[node], res.SlipSeries[n]) {
			t.Fatalf("%s: slip-rate series of node %v differs from the reference", tag, node)
		}
	}
}

func TestDFRRejectsBadConfigs(t *testing.T) {
	opt := baseOptions(mpi.NewCart(1, 2, 1))
	opt.Fault = &FaultSpec{J0: 12, I0: 0, I1: 4, K0: 0, K1: 4,
		Tau0: [][]float64{{0}}, SigmaN: [][]float64{{0}}, Friction: [][]rupture.Friction{{{}}}}
	if _, err := Run(cvm.HardRock(), opt); err == nil {
		t.Error("DFR with PY=2 accepted")
	}
	// A window only rank 0 holds, on a plane too close to the y edge: the
	// rank that would reject it in set-up must not get the chance, or rank 1
	// waits on its halo for ever.
	opt = baseOptions(mpi.NewCart(2, 1, 1))
	opt.Fault = overstressedFault(1, 2, 6, 2, 6)
	if _, _, err := Prepare(opt); err == nil {
		t.Error("fault plane on the subgrid edge accepted by Prepare")
	}
}

func TestBoundaryStripsTile(t *testing.T) {
	d := grid.Dims{NX: 12, NY: 10, NZ: 8}
	mask := [3][2]bool{{true, false}, {true, true}, {false, true}}
	strips, interior := boundaryStrips(d, mask, 2)
	counts := map[[3]int]int{}
	mark := func(b fd.Box) {
		for k := b.K0; k < b.K1; k++ {
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					counts[[3]int{i, j, k}]++
				}
			}
		}
	}
	for _, b := range strips {
		mark(b)
	}
	mark(interior)
	if len(counts) != d.Cells() {
		t.Fatalf("covered %d, want %d", len(counts), d.Cells())
	}
	for c, n := range counts {
		if n != 1 {
			t.Fatalf("cell %v covered %d times", c, n)
		}
	}
}

func TestMessageVolumeReduction(t *testing.T) {
	d := grid.Dims{NX: 20, NY: 20, NZ: 20}
	all := [3][2]bool{{true, true}, {true, true}, {true, true}}
	full := HaloStats(d, all, Asynchronous).Floats
	reduced := HaloStats(d, all, AsyncReduced).Floats
	// Full: 9 components x 3 axes; reduced: velocities 3x3, stresses
	// 1+1+1+2+2+2 = 9 axes -> (9+9)/(9+18) = 2/3.
	want := 2.0 / 3.0
	if got := float64(reduced) / float64(full); math.Abs(got-want) > 1e-12 {
		t.Fatalf("reduction ratio %g, want %g", got, want)
	}
	// Normal-stress-only reduction is 75% fewer messages than exchanging
	// each in 3 axes x 2 dirs... the paper's statement: sxx goes from 3
	// directions (6 faces) to x only, with 2+1 planes instead of 2x2 — at
	// the message-count level each normal stress drops from 6 to 2 faces.
	vol1 := HaloStats(grid.Dims{NX: 10, NY: 10, NZ: 10}, all, Asynchronous).Floats
	vol2 := HaloStats(grid.Dims{NX: 10, NY: 10, NZ: 10}, all, AsyncReduced).Floats
	if vol2 >= vol1 {
		t.Fatal("reduced model does not reduce volume")
	}
}

func TestCommModelStrings(t *testing.T) {
	for m, want := range map[CommModel]string{
		Synchronous: "sync", Asynchronous: "async",
		AsyncReduced: "async-reduced", AsyncOverlap: "overlap",
	} {
		if m.String() != want {
			t.Errorf("String = %q", m.String())
		}
	}
}

// §IV.D hybrid mode: per-rank threading must not change the physics.
func TestHybridThreadsBitIdentical(t *testing.T) {
	q := cvm.SoCal(2400, 2400, 1600, 400)
	ref, err := Run(q, baseOptions(mpi.NewCart(1, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	opt := baseOptions(mpi.NewCart(2, 1, 1))
	opt.Threads = 3
	got, err := Run(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	for r := range ref.Seismograms {
		for n := range ref.Seismograms[r] {
			if ref.Seismograms[r][n] != got.Seismograms[r][n] {
				t.Fatalf("hybrid mode changed receiver %d sample %d", r, n)
			}
		}
	}
}

// TestDtIsRanksExactMinimum: Result.Dt is, bit for bit, the minimum over
// ranks of each rank's medium.StableDt at the run's CFL — the reduction
// carries float64 exactly, so it returns a value some rank sent.
func TestDtIsRanksExactMinimum(t *testing.T) {
	for _, topo := range []mpi.Cart{mpi.NewCart(1, 1, 1), mpi.NewCart(2, 2, 2)} {
		for _, h := range []float64{100, 200} {
			opt := baseOptions(topo)
			opt.H, opt.Steps = h, 2
			q := cvm.SoCal(24*h, 24*h, 16*h, 500)
			dc, opt, err := Prepare(opt)
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			want := math.Inf(1)
			var res *Result
			mpi.NewWorld(topo.Size()).Run(func(c *mpi.Comm) {
				st, err := NewStepper(c, q, dc, opt)
				if err != nil {
					t.Error(err)
					return
				}
				defer st.Close()
				local := st.rs.med.StableDt(opt.CFL)
				for !st.Done() {
					st.Step()
				}
				r, err := st.Finish()
				mu.Lock()
				defer mu.Unlock()
				want = math.Min(want, local)
				if err != nil {
					t.Error(err)
				}
				if c.Rank() == 0 {
					res = r
				}
			})
			if res == nil {
				t.Fatalf("%v h=%g: no result", topo, h)
			}
			if math.Float64bits(res.Dt) != math.Float64bits(want) {
				t.Errorf("%v h=%g: Dt = %.17g, minimum over ranks %.17g", topo, h, res.Dt, want)
			}
		}
	}
}
