package awp

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core/solver"
	"repro/internal/mpi"
	"repro/internal/testkit"
)

func TestQuickstartScenario(t *testing.T) {
	q := HomogeneousModel(Material{Vp: 6000, Vs: 3464, Rho: 2700})
	res, err := Run(q, Scenario{
		Dims: Dims{NX: 24, NY: 24, NZ: 16},
		H:    100, Steps: 60,
		Comm:        AsyncReduced,
		ABC:         SpongeABC,
		FreeSurface: true,
		Attenuation: true,
		Sources:     ExplosionSource(12, 12, 8, 1e15, 0.06, 0.015),
		Receivers:   [][3]int{{6, 12, 4}},
		TrackPGV:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seismograms) != 1 || len(res.Seismograms[0]) != 60 {
		t.Fatal("seismogram missing")
	}
	if PGVH(res.Seismograms[0]) <= 0 {
		t.Fatal("no motion recorded")
	}
}

func TestMultiRankScenarioMatchesSingle(t *testing.T) {
	q := SoCalModel(2400, 2400, 1600, 500)
	mk := func(ranks int) Scenario {
		return Scenario{
			Dims: Dims{NX: 24, NY: 24, NZ: 16},
			H:    100, Steps: 40,
			Comm:      AsyncReduced,
			ABC:       SpongeABC,
			Sources:   PointMomentSource(12, 12, 8, 1e15, 0.06, 0.015),
			Receivers: [][3]int{{6, 12, 8}},
			Ranks:     ranks,
		}
	}
	a, err := Run(q, mk(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(q, mk(4))
	if err != nil {
		t.Fatal(err)
	}
	for n := range a.Seismograms[0] {
		for c := 0; c < 3; c++ {
			if a.Seismograms[0][n][c] != b.Seismograms[0][n][c] {
				t.Fatalf("rank-count changed the physics at sample %d", n)
			}
		}
	}
}

func TestM8FaultSpecRuns(t *testing.T) {
	q := HomogeneousModel(Material{Vp: 6000, Vs: 3464, Rho: 2700})
	fault := M8FaultSpec(12, 4, 44, 3, 21, 100, 24, 12, 5, 42)
	// Strengthen nucleation for the small test fault: reuse spec fields.
	res, err := Run(q, Scenario{
		Dims: Dims{NX: 48, NY: 24, NZ: 24},
		H:    100, Steps: 100,
		Comm:  AsyncReduced,
		ABC:   SpongeABC,
		Fault: fault,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultStats.MaxSlip <= 0 {
		t.Fatal("nucleated fault did not slip")
	}
	if len(res.MomentRate) != 100 {
		t.Fatal("moment rate series missing")
	}
}

func TestGMPEAccessors(t *testing.T) {
	ba, cb := BooreAtkinson2008(), CampbellBozorgnia2008()
	if ba.MedianPGV(8, 10, 760) <= 0 || cb.MedianPGV(8, 10, 760) <= 0 {
		t.Fatal("GMPE medians non-positive")
	}
	if ba.Name() == cb.Name() {
		t.Fatal("GMPEs aliased")
	}
}

// TestBadRanksRejected: a negative rank count used to run one rank under
// its own banner, and a count no topology fits used to run 1x1x1.
func TestBadRanksRejected(t *testing.T) {
	q := HomogeneousModel(Material{Vp: 6000, Vs: 3464, Rho: 2700})
	for _, sc := range []Scenario{
		{Dims: Dims{NX: 16, NY: 16, NZ: 12}, Ranks: -1},
		{Dims: Dims{NX: 16, NY: 16, NZ: 12}, Ranks: -2},
		{Dims: Dims{NX: 8, NY: 8, NZ: 8}, Ranks: 64},
	} {
		sc.H, sc.Steps = 100, 2
		if _, err := Run(q, sc); err == nil {
			t.Errorf("Run accepted %d ranks on %v", sc.Ranks, sc.Dims)
		}
	}
	// A count past the grid's cells is refused without the factorisation
	// search, whose time is linear in the count.
	if _, err := Topology(Scenario{Dims: Dims{NX: 16, NY: 16, NZ: 12}, Ranks: 1 << 40}); err == nil {
		t.Error("Topology accepted 2^40 ranks")
	}
}

func TestPointSourceSampling(t *testing.T) {
	srcs := PointMomentSource(1, 2, 3, 2e18, 0.5, 0.1)
	if len(srcs) != 1 {
		t.Fatal("want one source")
	}
	m := testkit.Moment(srcs[0].Rate, srcs[0].Dt)
	if math.Abs(m-2e18)/2e18 > 0.01 {
		t.Fatalf("sampled moment %g, want 2e18", m)
	}
}

// TestNegativeDtRejected: a negative Dt reaches solver.Prepare through Run
// and comes back as its error (Prepare also rejects NaN and ±Inf).
func TestNegativeDtRejected(t *testing.T) {
	q := HomogeneousModel(Material{Vp: 6000, Vs: 3464, Rho: 2700})
	_, err := Run(q, Scenario{
		Dims: Dims{NX: 16, NY: 16, NZ: 12},
		H:    100, Dt: -0.001, Steps: 4,
		ABC: SpongeABC,
	})
	if err == nil || !strings.Contains(err.Error(), "Dt must be positive") {
		t.Fatalf("negative Dt: err = %v", err)
	}
}

// TestMPMLGridTooSmallRejected: the production PML width is ten cells, so
// an M-PML scenario on a grid (or a rank's share of one) it would swallow
// must come back as an error, not as a panic from inside a rank.
func TestMPMLGridTooSmallRejected(t *testing.T) {
	q := HomogeneousModel(Material{Vp: 6000, Vs: 3464, Rho: 2700})
	for _, sc := range []Scenario{
		{Dims: Dims{NX: 20, NY: 24, NZ: 16}, Ranks: 1},
		{Dims: Dims{NX: 32, NY: 32, NZ: 10}, Ranks: 1, FreeSurface: true},
		{Dims: Dims{NX: 40, NY: 20, NZ: 24}, Ranks: 4, FreeSurface: true},
	} {
		sc.H, sc.Steps, sc.ABC = 100, 2, MPMLABC
		if _, err := Run(q, sc); err == nil {
			t.Errorf("%v on %d rank(s) accepted", sc.Dims, sc.Ranks)
		}
	}
}

// TestTopologyLeavesPMLInterior: under M-PML, Run's topology leaves each
// rank on a zone an interior plane. The cheapest cut by step time alone,
// 1x8x2, would leave 6 cells in y to a 10-cell zone.
func TestTopologyLeavesPMLInterior(t *testing.T) {
	sc := Scenario{Dims: Dims{NX: 48, NY: 48, NZ: 32}, H: 200, Steps: 1, Ranks: 16, ABC: MPMLABC}
	if topo, err := Topology(sc); err != nil || topo != mpi.NewCart(2, 4, 2) {
		t.Fatalf("16 ranks on %v under M-PML: %+v, %v; want 2x4x2", sc.Dims, topo, err)
	}
	if _, err := Run(HomogeneousModel(Material{Vp: 6000, Vs: 3464, Rho: 2700}), sc); err != nil {
		t.Fatal(err)
	}
}

// TestTopologyFoldsThreads: Threads are cores per rank, folded into
// Ranks×Threads ranks where that many fit the grid and into Ranks where they
// do not, and a negative count is an error before any rank starts. The fold
// moves no bit: Threads 2 stores Threads 1's PGVH, under the sponge and under
// M-PML, on every comm model.
func TestTopologyFoldsThreads(t *testing.T) {
	topo := func(sc Scenario) mpi.Cart {
		t.Helper()
		c, err := Topology(sc)
		if err != nil {
			t.Fatalf("%d ranks x %d threads on %v: %v", sc.Ranks, sc.Threads, sc.Dims, err)
		}
		return c
	}
	d := Dims{NX: 48, NY: 48, NZ: 32}
	// 4×2 fits: the topology of 8 ranks. 8×8 under M-PML does not (32 ranks
	// leave each its 11 cells; 64 do not): the topology of 8.
	for _, c := range []struct {
		ranks, threads, as int
		abc                solver.ABCKind
	}{
		{4, 2, 8, SpongeABC},
		{1, 2, 2, MPMLABC},
		{8, 8, 8, MPMLABC},
		{0, 0, 1, SpongeABC},
	} {
		sc := Scenario{Dims: d, Ranks: c.ranks, Threads: c.threads, ABC: c.abc}
		want := topo(Scenario{Dims: d, Ranks: c.as, ABC: c.abc})
		if got := topo(sc); got != want || got.Size() != c.as {
			t.Errorf("%d ranks x %d threads, ABC %d: topology %+v, want %+v", c.ranks, c.threads, c.abc, got, want)
		}
	}
	q := SoCalModel(3200, 3200, 2400, 500)
	bad := Scenario{Dims: Dims{NX: 32, NY: 32, NZ: 24}, H: 100, Steps: 2, Threads: -1}
	if _, err := Topology(bad); err == nil {
		t.Error("Topology accepted Threads -1")
	}
	if _, err := Run(q, bad); err == nil {
		t.Error("Run accepted Threads -1")
	}

	for _, abc := range []solver.ABCKind{SpongeABC, MPMLABC} {
		sc := Scenario{
			Dims: Dims{NX: 32, NY: 32, NZ: 24}, H: 100, Steps: 30,
			ABC: abc, FreeSurface: true, Attenuation: true,
			Sources:  PointMomentSource(13, 17, 9, 1e15, 0.06, 0.015),
			TrackPGV: true,
		}
		ref, err := Run(q, sc)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Max(ref.PGVH) <= 0 {
			t.Fatalf("ABC %d: the reference records no motion", abc)
		}
		for _, comm := range []solver.CommModel{Synchronous, Asynchronous, AsyncReduced, AsyncOverlap} {
			sc.Comm, sc.Threads = comm, 2
			if n := topo(sc).Size(); n != 2 {
				t.Fatalf("ABC %d, %v: Threads 2 runs %d ranks, want 2", abc, comm, n)
			}
			res, err := Run(q, sc)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range res.PGVH {
				if math.Float64bits(v) != math.Float64bits(ref.PGVH[i]) {
					t.Fatalf("ABC %d, %v: Threads 2 PGVH[%d] = %g, Threads 1 %g", abc, comm, i, v, ref.PGVH[i])
				}
			}
		}
	}
}

// TestScenarioCFL checks the CFL pass-through: an out-of-range value is
// rejected by the solver, and an explicit 0.5 matches the default run.
func TestScenarioCFL(t *testing.T) {
	q := HomogeneousModel(Material{Vp: 6000, Vs: 3464, Rho: 2700})
	sc := Scenario{
		Dims: Dims{NX: 16, NY: 16, NZ: 12},
		H:    100, Steps: 8,
		ABC:       SpongeABC,
		Sources:   ExplosionSource(8, 8, 6, 1e15, 0.06, 0.015),
		Receivers: [][3]int{{4, 8, 4}},
	}
	bad := sc
	bad.CFL = 2
	if _, err := Run(q, bad); err == nil {
		t.Fatal("CFL 2 accepted")
	}
	ref, err := Run(q, sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.CFL = 0.5
	res, err := Run(q, sc)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ref.Seismograms[0] {
		if v != res.Seismograms[0][i] {
			t.Fatalf("CFL 0.5 diverges from default at sample %d", i)
		}
	}
}

// TestDirectivity runs a scaled ShakeOut-K scenario: a kinematic Haskell
// rupture on a San Andreas analogue in the SoCal model, nucleating at the
// SE end and rupturing NW at a sub-shear 2600 m/s. The forward (NW) region
// beyond the fault end must shake several times harder than the backward
// (SE) region at the same distance — the directivity contrast of the
// TeraShake/ShakeOut simulations (§VI).
func TestDirectivity(t *testing.T) {
	dims := Dims{NX: 64, NY: 32, NZ: 12}
	h := 800.0
	q := SoCalModel(float64(dims.NX)*h, float64(dims.NY)*h, float64(dims.NZ)*h, 500)
	srcs, err := HaskellRupture{
		GJ: 16, I0: 14, I1: 50, K0: 1, K1: 6,
		HypoI: 48, HypoK: 3,
		H: h, Mw: 6.6, Vr: 2600, RiseTime: 1.0,
		Dt: 0.02, NT: 900, TaperCells: 2,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(q, Scenario{
		Dims: dims, H: h, Steps: 700,
		Comm: AsyncReduced, ABC: SpongeABC,
		FreeSurface: true, Attenuation: true,
		Sources: srcs, TrackPGV: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mean := func(i0, i1 int) float64 {
		var s float64
		n := 0
		for j := 6; j < dims.NY-6; j++ {
			for i := i0; i < i1; i++ {
				s += res.PGVH[j*dims.NX+i]
				n++
			}
		}
		return s / float64(n)
	}
	// Each region is a band of eight columns within ten cells beyond one
	// fault end. The full-size run (128x64x24 at 400 m, 1400 steps) reads
	// 5.5x; this half-resolution grid reads 5.9x.
	fwd, bwd := mean(4, 12), mean(52, 60)
	t.Logf("mean PGVH forward (NW) %.3f, backward (SE) %.3f m/s: %.2fx", fwd, bwd, fwd/bwd)
	if !(bwd > 0 && fwd/bwd > 3) {
		t.Fatalf("forward/backward mean PGVH %.3f/%.3f m/s, want a ratio above 3", fwd, bwd)
	}
}

// halfBad is rock below x = cut and a NaN P-wave speed from there on.
type halfBad struct{ cut float64 }

func (h halfBad) Query(x, _, _ float64) Material {
	if x >= h.cut {
		return Material{Vp: math.NaN(), Vs: 3464, Rho: 2700}
	}
	return Material{Vp: 6000, Vs: 3464, Rho: 2700}
}

// TestDegenerateModelReturnsError: a velocity model no stable time step
// exists for — zero or negative Vs (a homogeneous model then computes Vp as
// 0·Inf or -0), a NaN Vp, or one rank's half of the grid bad — makes Run
// return the solver's error on every path, Dt given or not, with no panic
// inside the world and no rank left waiting on a peer that returned.
func TestDegenerateModelReturnsError(t *testing.T) {
	rock := Material{Vp: 6000, Vs: 3464, Rho: 2700}
	bad := func(m func(*Material)) Model {
		mat := rock
		m(&mat)
		return HomogeneousModel(mat)
	}
	// Six cells across y and z leave an x cut the only one that gives each
	// of two ranks 2·Ghost cells, so Run runs them 2×1×1 too.
	sc := Scenario{Dims: Dims{NX: 32, NY: 6, NZ: 6}, H: 100, Steps: 4, Sources: ExplosionSource(8, 4, 4, 1e15, 0.06, 0.015)}
	if topo, err := Topology(Scenario{Dims: sc.Dims, Ranks: 2}); err != nil || topo != mpi.NewCart(2, 1, 1) {
		t.Fatalf("two ranks on %v: %+v, %v; want 2x1x1", sc.Dims, topo, err)
	}
	// On 2×1×1, rank 0's padded subgrid ends at x = 17·H: only rank 1 is bad.
	half := halfBad{cut: 18 * sc.H}
	viaSolver := func(q Model, dt float64) error {
		_, err := solver.Run(q, solver.Options{Global: sc.Dims, H: sc.H, Steps: sc.Steps, Dt: dt,
			Topo: mpi.NewCart(2, 1, 1), Sources: sc.Sources})
		return err
	}
	viaAWP := func(q Model, ranks int, dt float64) func() error {
		return func() error {
			s := sc
			s.Ranks, s.Dt = ranks, dt
			_, err := Run(q, s)
			return err
		}
	}
	for _, tc := range []struct {
		name string
		run  func() error
		want string
	}{
		{"Vs 0", viaAWP(bad(func(m *Material) { m.Vs = 0 }), 1, 0), "rank 0"},
		{"Vs -1000", viaAWP(bad(func(m *Material) { m.Vs = -1000 }), 1, 0), "rank 0"},
		{"Vp NaN", viaAWP(bad(func(m *Material) { m.Vp = math.NaN() }), 1, 0), "rank 0"},
		{"Vs 0, Dt given", viaAWP(bad(func(m *Material) { m.Vs = 0 }), 1, 1e-3), "rank 0"},
		{"Vp NaN, 2 ranks", viaAWP(bad(func(m *Material) { m.Vp = math.NaN() }), 2, 0), "rank 0"},
		{"half bad", viaAWP(half, 2, 0), "rank 1"},
		{"half bad, solver", func() error { return viaSolver(half, 0) }, "rank 1"},
		{"half bad, solver, Dt given", func() error { return viaSolver(half, 1e-3) }, "rank 1"},
	} {
		done := make(chan error, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					done <- fmt.Errorf("panic: %v", p)
				}
			}()
			done <- tc.run()
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "velocity model gives "+tc.want) {
				t.Errorf("%s: err = %v, want the solver naming %s", tc.name, err, tc.want)
			}
		case <-time.After(time.Minute):
			t.Fatalf("%s: Run has not returned after a minute", tc.name)
		}
	}
}
