package attenuation

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/medium"
	"repro/internal/mpi"
)

func makeMedium(t testing.TB, q cvm.Querier, d grid.Dims, h float64) *medium.Medium {
	t.Helper()
	dc, err := decomp.New(d, mpi.NewCart(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	return medium.FromCVM(q, dc, dc.SubFor(0), h)
}

func TestRelaxationTimesSpanBand(t *testing.T) {
	b := Band{FMin: 0.02, FMax: 2.0}
	taus := b.RelaxationTimes()
	if math.Abs(taus[0]-1/(2*math.Pi*b.FMin)) > 1e-9 {
		t.Errorf("tau[0] = %g, want %g", taus[0], 1/(2*math.Pi*b.FMin))
	}
	if math.Abs(taus[NRelax-1]-1/(2*math.Pi*b.FMax)) > 1e-9 {
		t.Errorf("tau[last] = %g, want %g", taus[NRelax-1], 1/(2*math.Pi*b.FMax))
	}
	for m := 1; m < NRelax; m++ {
		if taus[m] >= taus[m-1] {
			t.Fatalf("taus not descending at %d", m)
		}
	}
}

func TestBandValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inverted band")
		}
	}()
	Band{FMin: 2, FMax: 1}.RelaxationTimes()
}

func TestMechanismDistributionCoversAll(t *testing.T) {
	seen := map[int]bool{}
	for k := 0; k < 2; k++ {
		for j := 0; j < 2; j++ {
			for i := 0; i < 2; i++ {
				seen[mechAt(i, j, k)] = true
			}
		}
	}
	if len(seen) != NRelax {
		t.Fatalf("2x2x2 cell uses %d mechanisms, want %d", len(seen), NRelax)
	}
	// Translation invariance with period 2.
	if mechAt(3, 5, 7) != mechAt(1, 1, 1) || mechAt(4, 6, 8) != mechAt(0, 0, 0) {
		t.Fatal("mechanism assignment not 2-periodic")
	}
}

// qPredicted returns the effective quality factor the relaxation ensemble
// produces at angular frequency omega for a target Q — the verification
// quantity of Day (1998). A perfect constant-Q model would return targetQ
// at every frequency in the band.
func qPredicted(a *Model, omega, targetQ float64) float64 {
	return targetQ * ensembleLoss(a.Taus, a.Band.CenterOmega()) / ensembleLoss(a.Taus, omega)
}

// qPredicted must be exact at the band center and approximately flat
// (constant Q) across the band — the defining property of the
// multi-mechanism spectrum (Day 1998).
func TestQPredictedFlatInBand(t *testing.T) {
	d := grid.Dims{NX: 4, NY: 4, NZ: 4}
	m := makeMedium(t, cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}), d, 100)
	band := Band{FMin: 0.02, FMax: 2.0}
	a := New(m, band, 1e-3)
	target := 50.0
	if got := qPredicted(a, band.CenterOmega(), target); math.Abs(got-target)/target > 1e-9 {
		t.Fatalf("Q at center = %g, want %g", got, target)
	}
	for f := band.FMin; f <= band.FMax; f *= 1.5 {
		got := qPredicted(a, 2*math.Pi*f, target)
		if got < 0.6*target || got > 1.6*target {
			t.Errorf("Q(%g Hz) = %g, outside +-60%% of %g", f, got, target)
		}
	}
	// Far outside the band, the model loses accuracy (Q rises) — that is
	// expected and should be visible.
	if got := qPredicted(a, 2*math.Pi*band.FMax*100, target); got < 2*target {
		t.Errorf("Q far above band = %g, expected >> target", got)
	}
}

func TestApplyDtMismatchPanics(t *testing.T) {
	d := grid.Dims{NX: 4, NY: 4, NZ: 4}
	m := makeMedium(t, cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}), d, 100)
	a := New(m, DefaultBand, 1e-3)
	s := fd.NewState(d)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Apply(s, m, 2e-3, fd.FullBox(d))
}

func TestZeroQDisablesAttenuation(t *testing.T) {
	d := grid.Dims{NX: 8, NY: 8, NZ: 8}
	m := makeMedium(t, cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}), d, 100)
	m.QS.Fill(0)
	dt := m.StableDt(0.5)
	a := New(m, DefaultBand, dt)
	s := fd.NewState(d)
	s.VX.Set(4, 4, 4, 1)
	before := s.Clone()
	fd.UpdateVelocity(s, m, dt, fd.FullBox(d), fd.Precomp, fd.Blocking{})
	fd.UpdateStress(s, m, dt, fd.FullBox(d), fd.Precomp, fd.Blocking{})
	ref := s.Clone()
	// Re-run with attenuation applied: must be identical when Q <= 0.
	s2 := before.Clone()
	fd.UpdateVelocity(s2, m, dt, fd.FullBox(d), fd.Precomp, fd.Blocking{})
	fd.UpdateStress(s2, m, dt, fd.FullBox(d), fd.Precomp, fd.Blocking{})
	a.Apply(s2, m, dt, fd.FullBox(d))
	if s2.L2Diff(ref) != 0 {
		t.Fatal("Q<=0 attenuation modified the wavefield")
	}
}

// exchangePeriodic refreshes ghosts with wrap-around for the decay test.
func exchangePeriodic(s *fd.State) {
	for _, f := range s.Fields() {
		for _, ax := range []grid.Axis{grid.X, grid.Y, grid.Z} {
			// The Ghost planes at each end fill the ghosts past the other end.
			n := [3]int{f.NX, f.NY, f.NZ}[ax]
			for _, p := range [2][2]int{{n - grid.Ghost, -grid.Ghost}, {0, n}} {
				b := [6]int{0, f.NX, 0, f.NY, 0, f.NZ}
				b[2*ax], b[2*ax+1] = p[0], p[0]+grid.Ghost
				buf := make([]float32, grid.RangeLen(b[0], b[1], b[2], b[3], b[4], b[5]))
				f.PackRange(b[0], b[1], b[2], b[3], b[4], b[5], buf)
				b[2*ax], b[2*ax+1] = p[1], p[1]+grid.Ghost
				f.UnpackRange(b[0], b[1], b[2], b[3], b[4], b[5], buf)
			}
		}
	}
}

// TestAmplitudeDecayMatchesQ propagates a periodic S plane wave through a
// constant-Q medium and checks the measured temporal amplitude decay rate
// against the theoretical omega/(2Q).
func TestAmplitudeDecayMatchesQ(t *testing.T) {
	mat := cvm.Material{Vp: 5196, Vs: 3000, Rho: 2500}
	nx := 64
	h := 50.0
	d := grid.Dims{NX: nx, NY: 4, NZ: 4}
	m := makeMedium(t, cvm.Homogeneous(mat), d, h)
	targetQ := 50.0
	m.QS.Fill(float32(targetQ))

	L := float64(nx) * h
	kw := 2 * math.Pi / L
	omega := kw * mat.Vs // 5.89 rad/s -> f inside the band below
	band := Band{FMin: 0.3, FMax: 3.0}
	dt := m.StableDt(0.4)
	a := New(m, band, dt)

	s := fd.NewState(d)
	g := grid.Ghost
	for k := -g; k < d.NZ+g; k++ {
		for j := -g; j < d.NY+g; j++ {
			for i := -g; i < d.NX+g; i++ {
				x := float64(i) * h
				s.VY.Set(i, j, k, float32(math.Sin(kw*x)))
				xs := (float64(i) + 0.5) * h
				s.XY.Set(i, j, k, float32(-mat.Rho*mat.Vs*math.Sin(kw*(xs-mat.Vs*dt/2))))
			}
		}
	}

	rms := func() float64 {
		return math.Sqrt(s.VY.SumSq() / float64(d.Cells()))
	}
	box := fd.FullBox(d)
	step := func(n int) {
		for i := 0; i < n; i++ {
			exchangePeriodic(s)
			fd.UpdateVelocity(s, m, dt, box, fd.Precomp, fd.Blocking{})
			exchangePeriodic(s)
			fd.UpdateStress(s, m, dt, box, fd.Precomp, fd.Blocking{})
			a.Apply(s, m, dt, box)
		}
	}

	warm := 200
	step(warm)
	a0 := rms()
	n := 800
	step(n)
	a1 := rms()
	T := float64(n) * dt
	gotRate := math.Log(a0/a1) / T
	wantRate := omega / (2 * targetQ)
	if rel := math.Abs(gotRate-wantRate) / wantRate; rel > 0.25 {
		t.Fatalf("decay rate %g, want %g (rel err %g)", gotRate, wantRate, rel)
	}
}

// Without attenuation the same wave must not decay measurably.
func TestNoDecayWithoutAttenuation(t *testing.T) {
	mat := cvm.Material{Vp: 5196, Vs: 3000, Rho: 2500}
	nx := 64
	h := 50.0
	d := grid.Dims{NX: nx, NY: 4, NZ: 4}
	m := makeMedium(t, cvm.Homogeneous(mat), d, h)
	L := float64(nx) * h
	kw := 2 * math.Pi / L
	dt := m.StableDt(0.4)

	s := fd.NewState(d)
	g := grid.Ghost
	for k := -g; k < d.NZ+g; k++ {
		for j := -g; j < d.NY+g; j++ {
			for i := -g; i < d.NX+g; i++ {
				x := float64(i) * h
				s.VY.Set(i, j, k, float32(math.Sin(kw*x)))
				xs := (float64(i) + 0.5) * h
				s.XY.Set(i, j, k, float32(-mat.Rho*mat.Vs*math.Sin(kw*(xs-mat.Vs*dt/2))))
			}
		}
	}
	rms := func() float64 { return math.Sqrt(s.VY.SumSq() / float64(d.Cells())) }
	box := fd.FullBox(d)
	a0 := rms()
	for i := 0; i < 1000; i++ {
		exchangePeriodic(s)
		fd.UpdateVelocity(s, m, dt, box, fd.Precomp, fd.Blocking{})
		exchangePeriodic(s)
		fd.UpdateStress(s, m, dt, box, fd.Precomp, fd.Blocking{})
	}
	a1 := rms()
	if math.Abs(a1-a0)/a0 > 0.01 {
		t.Fatalf("elastic wave decayed: %g -> %g", a0, a1)
	}
}

// refDeficits is the pointwise form of the deficit sweep — New's loop before
// it became deficits in rows.go — kept as its oracle: the quality factors
// are the model's at each cell of subgrid sub, rounded to float32 one by one
// as a medium stored them when it held Qp, so it holds the sweep's 2·QS to
// the Qp it replaced.
func refDeficits(a *Model, m *medium.Medium, q cvm.Querier, sub decomp.Sub) {
	norm := float64(NRelax) / ensembleLoss(a.Taus, a.Band.CenterOmega())
	d := m.Dims
	for k := 0; k < d.NZ; k++ {
		for j := 0; j < d.NY; j++ {
			for i := 0; i < d.NX; i++ {
				qp64, qs64 := q.Query(float64(sub.OffX+i)*m.H, float64(sub.OffY+j)*m.H, float64(sub.OffZ+k)*m.H).Quality()
				qp, qs := float64(float32(qp64)), float64(float32(qs64))
				lam2mu := float64(m.Lam.At(i, j, k)) + 2*float64(m.Mu.At(i, j, k))
				mu := float64(m.Mu.At(i, j, k))
				var dl, dm float64
				if qs > 0 {
					dm = norm * mu / qs
				}
				if qp > 0 {
					dl = norm*lam2mu/qp - 2*dm
					if dl < 0 {
						dl = 0
					}
				}
				a.DLam.Set(i, j, k, float32(dl))
				a.DMu.Set(i, j, k, float32(dm))
			}
		}
	}
}

// TestDeficitsRowsMatchPointwise holds New's deficit sweep to refDeficits,
// bit for bit over DLam and DMu: on every subgrid of 1×1×1, 2×2×2 and 2×2×1
// of the solve and pipeline benchmarks' SoCal shapes.
func TestDeficitsRowsMatchPointwise(t *testing.T) {
	expect := func(tag string, m *medium.Medium, q cvm.Querier, sub decomp.Sub) {
		t.Helper()
		dt := m.StableDt(0.5)
		got, want := New(m, DefaultBand, dt), New(m, DefaultBand, dt)
		refDeficits(want, m, q, sub)
		for _, f := range [][2]*grid.Field3{{got.DLam, want.DLam}, {got.DMu, want.DMu}} {
			for idx, v := range f[0].Data() {
				if w := f[1].Data()[idx]; math.Float32bits(v) != math.Float32bits(w) {
					t.Fatalf("%s: deficit[%d] = %g (%#x), pointwise %g (%#x)", tag, idx, v, math.Float32bits(v), w, math.Float32bits(w))
				}
			}
		}
	}
	for _, shape := range []struct {
		d grid.Dims
		h float64
	}{{grid.Dims{NX: 56, NY: 56, NZ: 40}, 200}, {grid.Dims{NX: 192, NY: 128, NZ: 64}, 400}} {
		d, h := shape.d, shape.h
		q := cvm.SoCal(float64(d.NX-1)*h, float64(d.NY-1)*h, float64(d.NZ-1)*h, 500)
		for _, topo := range []mpi.Cart{mpi.NewCart(1, 1, 1), mpi.NewCart(2, 2, 2), mpi.NewCart(2, 2, 1)} {
			dc, err := decomp.New(d, topo)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < topo.Size(); r++ {
				expect(fmt.Sprintf("%v %v rank %d", d, topo, r), medium.FromCVM(q, dc, dc.SubFor(r), h), q, dc.SubFor(r))
			}
		}
	}
}
