package rupture

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/core/boundary"
	"repro/internal/core/fd"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/medium"
	"repro/internal/mpi"
)

func TestFrictionWeakening(t *testing.T) {
	f := Friction{MuS: 0.677, MuD: 0.525, Dc: 0.4}
	if f.Mu(0) != 0.677 {
		t.Errorf("Mu(0) = %g", f.Mu(0))
	}
	if f.Mu(0.4) != 0.525 || f.Mu(10) != 0.525 {
		t.Errorf("fully weakened Mu = %g", f.Mu(0.4))
	}
	mid := f.Mu(0.2)
	if math.Abs(mid-0.601) > 1e-9 {
		t.Errorf("half-weakened Mu = %g, want 0.601", mid)
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 16
	a := make([]complex128, n)
	for i := range a {
		a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			s += a[j] * cmplx.Exp(complex(0, -2*math.Pi*float64(k*j)/float64(n)))
		}
		want[k] = s
	}
	got := append([]complex128(nil), a...)
	fft(got, false)
	for k := range want {
		if cmplx.Abs(got[k]-want[k]) > 1e-9 {
			t.Fatalf("fft[%d] = %v, want %v", k, got[k], want[k])
		}
	}
	// Round trip.
	fft(got, true)
	for k := range a {
		if cmplx.Abs(got[k]/complex(float64(n), 0)-a[k]) > 1e-9 {
			t.Fatalf("inverse fft round trip failed at %d", k)
		}
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fft(make([]complex128, 12), false)
}

func TestVonKarmanStatistics(t *testing.T) {
	ni, nk := 96, 48
	f := VonKarman(ni, nk, 1000, 20e3, 3e3, 0.75, 7)
	var mean, ss float64
	for k := range f {
		for i := range f[k] {
			mean += f[k][i]
			ss += f[k][i] * f[k][i]
		}
	}
	n := float64(ni * nk)
	mean /= n
	sd := math.Sqrt(ss / n)
	if math.Abs(mean) > 1e-9 {
		t.Errorf("mean = %g, want 0", mean)
	}
	if math.Abs(sd-1) > 1e-9 {
		t.Errorf("sd = %g, want 1", sd)
	}
}

func TestVonKarmanAnisotropy(t *testing.T) {
	// With ax >> az, the field must be smoother along x: the lag-L
	// autocorrelation along x exceeds that along z.
	ni, nk := 128, 128
	f := VonKarman(ni, nk, 1000, 20e3, 3e3, 0.75, 11)
	lag := 4
	var cx, cz, v float64
	for k := 0; k < nk-lag; k++ {
		for i := 0; i < ni-lag; i++ {
			cx += f[k][i] * f[k][i+lag]
			cz += f[k][i] * f[k+lag][i]
			v += f[k][i] * f[k][i]
		}
	}
	cx /= v
	cz /= v
	if !(cx > cz+0.05) {
		t.Fatalf("autocorrelation x=%g z=%g: anisotropy not expressed", cx, cz)
	}
	if cx < 0.5 {
		t.Errorf("x correlation %g suspiciously low for 20 km length", cx)
	}
}

func TestVonKarmanDeterministicBySeed(t *testing.T) {
	a := VonKarman(16, 16, 500, 5e3, 2e3, 0.5, 3)
	b := VonKarman(16, 16, 500, 5e3, 2e3, 0.5, 3)
	c := VonKarman(16, 16, 500, 5e3, 2e3, 0.5, 4)
	if a[3][4] != b[3][4] {
		t.Fatal("same seed differs")
	}
	same := true
	for k := range a {
		for i := range a[k] {
			if a[k][i] != c[k][i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds identical")
	}
}

func TestConfigValidate(t *testing.T) {
	d := grid.Dims{NX: 32, NY: 16, NZ: 16}
	ni, nk := 10, 8
	mk := func() Config {
		tau := make([][]float64, nk)
		sn := make([][]float64, nk)
		fr := make([][]Friction, nk)
		for k := range tau {
			tau[k] = make([]float64, ni)
			sn[k] = make([]float64, ni)
			fr[k] = make([]Friction, ni)
		}
		return Config{J0: 8, I0: 4, I1: 14, K0: 2, K1: 10, Tau0: tau, SigmaN: sn, Friction: fr}
	}
	if err := mk().Validate(d); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	c := mk()
	c.J0 = 1
	if c.Validate(d) == nil {
		t.Error("fault at edge accepted")
	}
	c = mk()
	c.I1 = 40
	if c.Validate(d) == nil {
		t.Error("region outside grid accepted")
	}
	c = mk()
	c.Tau0 = c.Tau0[:3]
	if c.Validate(d) == nil {
		t.Error("shape mismatch accepted")
	}
}

// summarize is the solver's Fig 19 summary of a one-rank fault: its flat
// arrays as [k][i] windows, and the medium's S-wave speed on the plane.
func summarize(f *Fault, m *medium.Medium) Stats {
	c := f.cfg
	rows := func(flat []float64) [][]float64 {
		out := make([][]float64, f.nk)
		for k := range out {
			out[k] = flat[k*f.ni : (k+1)*f.ni]
		}
		return out
	}
	vs := make([][]float64, f.nk)
	for k := range vs {
		vs[k] = make([]float64, f.ni)
		for i := range vs[k] {
			mu := float64(m.Mu.At(c.I0+i, c.J0, c.K0+k))
			rho := float64(m.Rho.At(c.I0+i, c.J0, c.K0+k))
			vs[k][i] = math.Sqrt(mu / rho)
		}
	}
	return Summarize(rows(f.Slip), rows(f.PeakRate), rows(f.RupTime), vs, f.h)
}

// buildTPV builds a small TPV3-like uniform-stress spontaneous rupture
// problem and returns everything needed to run it.
func buildTPV(t testing.TB, overstress bool) (*Fault, *fd.State, *medium.Medium, float64, grid.Dims) {
	t.Helper()
	d := grid.Dims{NX: 48, NY: 24, NZ: 24}
	h := 100.0
	mat := cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}
	dc, err := decomp.New(d, mpi.NewCart(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	m := medium.FromCVM(cvm.Homogeneous(mat), dc, dc.SubFor(0), h)

	ni, nk := 40, 18
	tau := make([][]float64, nk)
	sn := make([][]float64, nk)
	fr := make([][]Friction, nk)
	// TPV3-like stresses with Dc scaled down so the critical crack size
	// (~ mu*Dc*(tau_s-tau_d)/(tau_0-tau_d)^2 ~ 240 m) fits the 4 km test
	// fault with a 500 m nucleation patch.
	for k := 0; k < nk; k++ {
		tau[k] = make([]float64, ni)
		sn[k] = make([]float64, ni)
		fr[k] = make([]Friction, ni)
		for i := 0; i < ni; i++ {
			sn[k][i] = 120e6
			tau[k][i] = 70e6
			fr[k][i] = Friction{MuS: 0.677, MuD: 0.525, Dc: 0.02}
		}
	}
	if overstress {
		// Nucleation patch at the center.
		for k := 0; k < nk; k++ {
			for i := 0; i < ni; i++ {
				di, dk := i-ni/2, k-nk/2
				if di*di+dk*dk <= 25 {
					tau[k][i] = 84e6 // above 0.677*120+0 = 81.24 MPa
				}
			}
		}
	}
	cfg := Config{J0: 12, I0: 4, I1: 4 + ni, K0: 3, K1: 3 + nk,
		Tau0: tau, SigmaN: sn, Friction: fr}
	f, err := NewFault(cfg, d, h)
	if err != nil {
		t.Fatal(err)
	}
	dt := m.StableDt(0.45)
	return f, fd.NewState(d), m, dt, d
}

// allAbsorbing is the M8 configuration: absorbing on the four sides and the
// bottom, free surface (not absorbing) on top.
var allAbsorbing = boundary.FaceSet{XLo: true, XHi: true, YLo: true, YHi: true, ZHi: true}

// stepRupture advances the coupled bulk + fault system by one step.
func stepRupture(f *Fault, s *fd.State, m *medium.Medium, dt float64, sp *boundary.Sponge) {
	box := fd.FullBox(s.Dims)
	f.Tick(dt)
	fd.UpdateVelocity(s, m, dt, box, fd.Precomp, fd.Blocking{})
	f.UpdateVelocity(s, m, dt, box)
	fd.UpdateStress(s, m, dt, box, fd.Precomp, fd.Blocking{})
	f.CorrectStress(s, m, dt, box)
	if sp != nil {
		sp.ApplyPool(s, nil)
	}
}

// TestBoxesPartitionTheFault steps the same rupture twice, once with the
// split-node update and the stress correction over the whole subgrid, once
// over 3 x 5 j/k tiles visited last to first — tiles that cut the fault plane
// and the four correction rows apart — and holds every wavefield value and
// every fault section to bit equality after every step.
func TestBoxesPartitionTheFault(t *testing.T) {
	fw, sw, m, dt, d := buildTPV(t, true)
	ft, st, _, _, _ := buildTPV(t, true)
	box := fd.FullBox(d)
	tiles := fd.Tiles(box, fd.Blocking{JBlock: 3, KBlock: 5})
	for n := 0; n < 60; n++ {
		stepRupture(fw, sw, m, dt, nil)

		ft.Tick(dt)
		fd.UpdateVelocity(st, m, dt, box, fd.Precomp, fd.Blocking{})
		for i := len(tiles) - 1; i >= 0; i-- {
			ft.UpdateVelocity(st, m, dt, tiles[i])
		}
		fd.UpdateStress(st, m, dt, box, fd.Precomp, fd.Blocking{})
		for i := len(tiles) - 1; i >= 0; i-- {
			ft.CorrectStress(st, m, dt, tiles[i])
		}

		for fi, f := range sw.Fields() {
			want, got := f.Data(), st.Fields()[fi].Data()
			for c := range want {
				if math.Float32bits(want[c]) != math.Float32bits(got[c]) {
					t.Fatalf("step %d: %s[%d] = %g over tiles, %g whole", n, fd.FieldNames[fi], c, got[c], want[c])
				}
			}
		}
		for si, sec := range fw.Sections() {
			got := ft.Sections()[si].F64
			for c, v := range sec.F64 {
				if math.Float64bits(v) != math.Float64bits(got[c]) {
					t.Fatalf("step %d: %s[%d] = %g over tiles, %g whole", n, sec.Name, c, got[c], v)
				}
			}
		}
	}
	if fw.Slip[9*fw.ni+20] == 0 {
		t.Fatal("the nucleation patch did not slip: nothing was compared")
	}
}

func TestNoSpontaneousRuptureWithoutNucleation(t *testing.T) {
	f, s, m, dt, d := buildTPV(t, false)
	sp := boundary.NewSpongeGlobal(d, d, [3]int{}, 6, 0.03, allAbsorbing)
	for n := 0; n < 100; n++ {
		stepRupture(f, s, m, dt, sp)
	}
	st := summarize(f, m)
	if st.MaxSlip != 0 || st.RupturedFraction != 0 {
		t.Fatalf("fault slipped without nucleation: %+v", st)
	}
}

func TestSpontaneousRupturePropagates(t *testing.T) {
	f, s, m, dt, d := buildTPV(t, true)
	sp := boundary.NewSpongeGlobal(d, d, [3]int{}, 6, 0.03, allAbsorbing)
	steps := int(2.5 / dt) // 2.5 s: the full 4 km fault at the observed vr
	for n := 0; n < steps; n++ {
		stepRupture(f, s, m, dt, sp)
	}
	st := summarize(f, m)
	t.Logf("rupture stats: %+v", st)

	if st.RupturedFraction < 0.9 {
		t.Fatalf("rupture did not propagate: fraction %g", st.RupturedFraction)
	}
	if st.MaxSlip <= 0.02 {
		t.Errorf("max slip %g: expected > Dc (full weakening)", st.MaxSlip)
	}
	if st.MaxPeakRate <= 0.1 || st.MaxPeakRate > 100 {
		t.Errorf("peak slip rate %g implausible", st.MaxPeakRate)
	}

	// Causality: nucleation ruptures first, corners last.
	hyp := f.RupTime[(9)*f.ni+20] // node near the center (k=12-3, i=24-4)
	corner := f.RupTime[1*f.ni+1]
	if hyp < 0 || corner < 0 || !(hyp < corner) {
		t.Errorf("rupture times not causal: hypo %g corner %g", hyp, corner)
	}

	// Rupture velocity bounded by Vp and plausibly near Vs-scale speeds.
	vs := 3464.0
	if st.MeanRuptureVelocity <= 0.3*vs || st.MeanRuptureVelocity >= 6000 {
		t.Errorf("mean rupture velocity %g outside plausible range", st.MeanRuptureVelocity)
	}

	// Final traction on fully weakened interior nodes ~ residual strength.
	want := 0.525 * 120e6
	n := (9)*f.ni + 20
	if f.Slip[n] > 0.02 {
		got := math.Abs(f.Traction[n])
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("final traction %g, want ~%g (residual)", got, want)
		}
	}

	// Moment accounting.
	if mw := momentToMw(f.Moment(m)); mw < 5.5 || mw > 7.0 {
		t.Errorf("Mw %g implausible for a 4km x 1.8km fault", mw)
	}
}

func momentToMw(m0 float64) float64 { return (math.Log10(m0) - 9.05) / 1.5 }

func TestRecorderCapturesSlipRates(t *testing.T) {
	f, s, m, dt, _ := buildTPV(t, true)
	rec := NewRecorder(f)
	for n := 0; n < 50; n++ {
		stepRupture(f, s, m, dt, nil)
		rec.Record()
	}
	// The nucleation-center node must have recorded nonzero rates.
	center := (9)*f.ni + 20
	var peak float32
	for _, v := range rec.Series[center] {
		if v > peak {
			peak = v
		}
	}
	if peak == 0 {
		t.Fatal("recorder captured no slip at nucleation")
	}
	if len(rec.Series[center]) != 50 {
		t.Fatalf("series length %d", len(rec.Series[center]))
	}
	gi, gj, gk := rec.NodeGlobal(center)
	if gj != 12 || gi != 24 || gk != 12 {
		t.Errorf("NodeGlobal = %d,%d,%d", gi, gj, gk)
	}
}

func TestM8StressSpecBuild(t *testing.T) {
	sp := M8StressSpec(64, 32, 500)
	tau0, sn, fr := sp.Build()
	if len(tau0) != 32 || len(tau0[0]) != 64 {
		t.Fatalf("shape wrong")
	}
	// Normal stress grows with depth.
	if !(sn[31][10] > sn[5][10]) {
		t.Error("normal stress not increasing with depth")
	}
	// Velocity strengthening near the surface: MuD > MuS.
	if fr[0][0].MuD <= fr[0][0].MuS {
		t.Error("no velocity strengthening at surface")
	}
	kDeep := 31
	if fr[kDeep][0].MuD >= fr[kDeep][0].MuS {
		t.Error("deep MuD should be < MuS")
	}
	// Dc larger at surface.
	if !(fr[0][0].Dc > fr[kDeep][0].Dc) {
		t.Error("Dc not tapered at surface")
	}
	// Shear stress within physical bounds everywhere.
	for k := range tau0 {
		for i := range tau0[k] {
			failure := fr[k][i].Cohesion + fr[k][i].MuS*sn[k][i]
			if tau0[k][i] < 0 || tau0[k][i] > failure+1 {
				t.Fatalf("tau0[%d][%d]=%g outside [0,%g]", k, i, tau0[k][i], failure)
			}
		}
	}
}

func TestNucleate(t *testing.T) {
	sp := M8StressSpec(32, 16, 500)
	tau0, sn, fr := sp.Build()
	Nucleate(tau0, sn, fr, 16, 8, 2, 0.005)
	failure := fr[8][16].Cohesion + fr[8][16].MuS*sn[8][16]
	if tau0[8][16] <= failure {
		t.Fatal("nucleation patch not overstressed")
	}
	// Outside the patch untouched relative to failure.
	if tau0[0][0] > fr[0][0].Cohesion+fr[0][0].MuS*sn[0][0] {
		t.Fatal("far field overstressed")
	}
}
