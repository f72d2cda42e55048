package awp

import (
	"math"
	"testing"
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
	if GeomMeanPGV(res.Seismograms[0]) > PGVH(res.Seismograms[0]) {
		t.Fatal("geometric mean exceeds RSS peak")
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

func TestTopoSearchRespectsConstraints(t *testing.T) {
	topo, err := topoSearch(Dims{NX: 64, NY: 32, NZ: 32}, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if topo.PY != 1 {
		t.Fatalf("fault topo PY=%d, want 1", topo.PY)
	}
	if topo.Size() != 8 {
		t.Fatalf("topo size %d", topo.Size())
	}
	free, err := topoSearch(Dims{NX: 64, NY: 64, NZ: 64}, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if free.Size() != 8 {
		t.Fatalf("free topo size %d", free.Size())
	}
	// 64 ranks need 4 per axis and so 16 cells per axis: no candidate fits
	// an 8-cube, and Run must say so rather than run one rank.
	small := Dims{NX: 8, NY: 8, NZ: 8}
	if topo, err := topoSearch(small, 64, false); err == nil {
		t.Fatalf("64 ranks on %v: got topology %v, want an error", small, topo)
	}
	q := HomogeneousModel(Material{Vp: 6000, Vs: 3464, Rho: 2700})
	if _, err := Run(q, Scenario{Dims: small, H: 100, Steps: 2, Ranks: 64}); err == nil {
		t.Fatalf("Run accepted 64 ranks on %v", small)
	}
}

func TestPointSourceSampling(t *testing.T) {
	srcs := PointMomentSource(1, 2, 3, 2e18, 0.5, 0.1)
	if len(srcs) != 1 {
		t.Fatal("want one source")
	}
	m := srcs[0].Moment()
	if math.Abs(m-2e18)/2e18 > 0.01 {
		t.Fatalf("sampled moment %g, want 2e18", m)
	}
}

// TestNegativeDtRejected pins the Scenario-layer validation (the solver
// layer has its own identical check).
func TestNegativeDtRejected(t *testing.T) {
	q := HomogeneousModel(Material{Vp: 6000, Vs: 3464, Rho: 2700})
	_, err := Run(q, Scenario{
		Dims: Dims{NX: 16, NY: 16, NZ: 12},
		H:    100, Dt: -0.001, Steps: 4,
		ABC: SpongeABC,
	})
	if err == nil {
		t.Fatal("negative Dt accepted")
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

// TestScenarioLTS runs a basin-over-rock contrast through the public API
// with LTS on and off; a uniform medium under LTS must stay bit-identical.
func TestScenarioLTS(t *testing.T) {
	mk := func(lts bool) Scenario {
		return Scenario{
			Dims: Dims{NX: 32, NY: 12, NZ: 12},
			H:    100, Steps: 32,
			Ranks:       2,
			ABC:         SpongeABC,
			FreeSurface: true,
			LTS:         lts,
			Sources:     ExplosionSource(8, 6, 6, 1e15, 0.06, 0.015),
			Receivers:   [][3]int{{8, 6, 3}, {24, 6, 3}},
			TrackPGV:    true,
		}
	}
	uni := HomogeneousModel(Material{Vp: 6000, Vs: 3464, Rho: 2700})
	ref, err := Run(uni, mk(false))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(uni, mk(true))
	if err != nil {
		t.Fatal(err)
	}
	for r := range ref.Seismograms {
		for i, v := range ref.Seismograms[r] {
			if v != res.Seismograms[r][i] {
				t.Fatalf("uniform-medium LTS diverges at receiver %d sample %d", r, i)
			}
		}
	}

	// Mixed medium: must run and produce finite motion at both receivers.
	mixed := &laterallySplitModel{
		split: 16 * 100,
		rock:  Material{Vp: 5200, Vs: 3000, Rho: 2700},
		soft:  Material{Vp: 1200, Vs: 700, Rho: 1900},
	}
	mres, err := Run(mixed, mk(true))
	if err != nil {
		t.Fatal(err)
	}
	for r := range mres.Seismograms {
		for i, v := range mres.Seismograms[r] {
			for c := 0; c < 3; c++ {
				if math.IsNaN(float64(v[c])) {
					t.Fatalf("NaN at receiver %d sample %d", r, i)
				}
			}
		}
	}
}

// laterallySplitModel is rock for x < split, soft beyond.
type laterallySplitModel struct {
	split      float64
	rock, soft Material
}

func (m *laterallySplitModel) Query(x, _, _ float64) Material {
	if x < m.split {
		return m.rock
	}
	return m.soft
}
