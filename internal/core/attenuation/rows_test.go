package attenuation

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/core/sched"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/medium"
)

// mechAt returns the relaxation mechanism index for point (i,j,k), cycling
// through the 2x2x2 cell parity (the coarse-grained distribution).
func mechAt(i, j, k int) int {
	return ((k&1)<<2 | (j&1)<<1 | (i & 1)) % NRelax
}

// applyPointwise is the memory-variable pass as it was first written — one
// Idx, one mechAt, one closure and bounds-checked whole-array indexing per
// cell — kept as the oracle of the row sweeps in rows.go.
func applyPointwise(a *Model, s *fd.State, m *medium.Medium, dt float64, box fd.Box) {
	if dt != a.dt {
		panic(fmt.Sprintf("attenuation: model built for dt=%g, called with %g", a.dt, dt))
	}
	if box.Empty() {
		return
	}
	c1, c2 := float32(fd.C1), float32(fd.C2)
	dh := float32(dt / m.H) // strain increment scale
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	zxx, zyy, zzz := a.ZXX.Data(), a.ZYY.Data(), a.ZZZ.Data()
	zxy, zxz, zyz := a.ZXY.Data(), a.ZXZ.Data(), a.ZYZ.Data()
	dlam, dmu := a.DLam.Data(), a.DMu.Data()
	dx, dy, dz := s.VX.Strides()
	amf, cmf := a.coef32()

	for k := box.K0; k < box.K1; k++ {
		for j := box.J0; j < box.J1; j++ {
			for i := box.I0; i < box.I1; i++ {
				n := s.VX.Idx(i, j, k)
				mm := mechAt(i+a.Origin[0], j+a.Origin[1], k+a.Origin[2])
				am, cm := amf[mm], cmf[mm]

				// Strain increments over this step (dt * strain rate);
				// shear components are engineering strain, matching the
				// elastic constitutive update.
				exx := dh * (c1*(u[n]-u[n-dx]) + c2*(u[n+dx]-u[n-2*dx]))
				eyy := dh * (c1*(v[n]-v[n-dy]) + c2*(v[n+dy]-v[n-2*dy]))
				ezz := dh * (c1*(w[n]-w[n-dz]) + c2*(w[n+dz]-w[n-2*dz]))
				exy := dh * (c1*(u[n+dy]-u[n]) + c2*(u[n+2*dy]-u[n-dy]) +
					c1*(v[n+dx]-v[n]) + c2*(v[n+2*dx]-v[n-dx]))
				exz := dh * (c1*(u[n+dz]-u[n]) + c2*(u[n+2*dz]-u[n-dz]) +
					c1*(w[n+dx]-w[n]) + c2*(w[n+2*dx]-w[n-dx]))
				eyz := dh * (c1*(v[n+dz]-v[n]) + c2*(v[n+2*dz]-v[n-dz]) +
					c1*(w[n+dy]-w[n]) + c2*(w[n+2*dy]-w[n-dy]))

				dl2m := dlam[n] + 2*dmu[n]
				trace := dlam[n] * (exx + eyy + ezz)

				// zeta' = am*zeta + cm*deltaM*deps, constitutive-shaped;
				// the SLS stress is sigma = M_R*eps + zeta (the elastic
				// kernel supplies the relaxed part), so the correction adds
				// the memory-variable increment.
				upd := func(z *float32, drive float32, sig *float32) {
					zn := am*(*z) + cm*drive
					*sig += zn - *z
					*z = zn
				}
				upd(&zxx[n], dl2m*exx+trace-dlam[n]*exx, &xx[n])
				upd(&zyy[n], dl2m*eyy+trace-dlam[n]*eyy, &yy[n])
				upd(&zzz[n], dl2m*ezz+trace-dlam[n]*ezz, &zz[n])
				upd(&zxy[n], dmu[n]*exy, &xy[n])
				upd(&zxz[n], dmu[n]*exz, &xz[n])
				upd(&zyz[n], dmu[n]*eyz, &yz[n])
			}
		}
	}
}

// fillStateSeeded deterministically fills all nine wavefields (including
// ghosts) with heterogeneous values.
func fillStateSeeded(d grid.Dims, seed int64) *fd.State {
	s := fd.NewState(d)
	rng := rand.New(rand.NewSource(seed))
	for _, f := range s.Fields() {
		data := f.Data()
		for n := range data {
			data[n] = (rng.Float32() - 0.5) * 1e-2
		}
	}
	return s
}

// fillMemVarsSeeded fills the six memory variables of a, so that a step
// reads am as well as cm (from zero memory variables am*zeta is +0 whatever
// am is).
func fillMemVarsSeeded(a *Model, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, f := range []*grid.Field3{a.ZXX, a.ZYY, a.ZZZ, a.ZXY, a.ZXZ, a.ZYZ} {
		data := f.Data()
		for n := range data {
			data[n] = (rng.Float32() - 0.5) * 1e-3
		}
	}
}

// expectStatesEqual asserts exact (bitwise) equality of all nine wavefields.
func expectStatesEqual(t *testing.T, got, want *fd.State, label string) {
	t.Helper()
	wf := want.Fields()
	for fi, f := range got.Fields() {
		a, b := f.Data(), wf[fi].Data()
		for n := range a {
			if a[n] != b[n] {
				t.Fatalf("%s: field %s idx %d: %g != %g", label, fd.FieldNames[fi], n, a[n], b[n])
			}
		}
	}
}

// expectMemVarsEqual asserts exact equality of all six memory variables.
func expectMemVarsEqual(t *testing.T, got, want *Model, label string) {
	t.Helper()
	gz := []*grid.Field3{got.ZXX, got.ZYY, got.ZZZ, got.ZXY, got.ZXZ, got.ZYZ}
	wz := []*grid.Field3{want.ZXX, want.ZYY, want.ZZZ, want.ZXY, want.ZXZ, want.ZYZ}
	names := []string{"ZXX", "ZYY", "ZZZ", "ZXY", "ZXZ", "ZYZ"}
	for zi := range gz {
		a, b := gz[zi].Data(), wz[zi].Data()
		for n := range a {
			if a[n] != b[n] {
				t.Fatalf("%s: memvar %s idx %d: %g != %g", label, names[zi], n, a[n], b[n])
			}
		}
	}
}

// TestApplyRowsMatchPointwise holds Apply's row sweep to the pointwise body
// bit for bit — stresses and memory variables, over several steps — on the
// full box, on sub-boxes at odd offsets and under coarse-graining origins of
// every parity.
func TestApplyRowsMatchPointwise(t *testing.T) {
	d := grid.Dims{NX: 13, NY: 10, NZ: 9}
	m := makeMedium(t, cvm.SoCal(1300, 1000, 900, 400), d, 100)
	dt := m.StableDt(0.5)
	boxes := []fd.Box{
		fd.FullBox(d),
		{I0: 3, I1: 10, J0: 1, J1: 8, K0: 2, K1: 7},
		{I0: 2, I1: 3, J0: 5, J1: 6, K0: 3, K1: 4},  // single point
		{I0: 0, I1: 13, J0: 7, J1: 8, K0: 0, K1: 9}, // single j-plane
		{I0: 5, I1: 5, J0: 0, J1: 10, K0: 0, K1: 9}, // empty
	}
	for bi, box := range boxes {
		for _, origin := range [][3]int{{0, 0, 0}, {1, 0, 1}, {0, 1, 0}, {5, 9, 2}} {
			label := fmt.Sprintf("box %v origin %v", box, origin)
			sRef := fillStateSeeded(d, int64(300+bi))
			sRow := sRef.Clone()
			aRef := New(m, DefaultBand, dt)
			aRow := New(m, DefaultBand, dt)
			aRef.Origin, aRow.Origin = origin, origin
			for step := 0; step < 3; step++ {
				for _, s := range []*fd.State{sRef, sRow} {
					fd.UpdateVelocity(s, m, dt, fd.FullBox(d), fd.Precomp, fd.Blocking{})
					fd.UpdateStress(s, m, dt, box, fd.Precomp, fd.Blocking{})
				}
				applyPointwise(aRef, sRef, m, dt, box)
				aRow.Apply(sRow, m, dt, box)
				expectStatesEqual(t, sRow, sRef, label)
				expectMemVarsEqual(t, aRow, aRef, label)
			}
		}
	}
}

// FusedStress must be bit-identical to the two-pass UpdateStress + Apply
// over multiple steps, including with a nonzero coarse-graining origin (as
// a decomposed rank sees) and a heterogeneous Q model.
func TestFusedStressBitIdenticalMultiStep(t *testing.T) {
	d := grid.Dims{NX: 14, NY: 13, NZ: 11}
	m := makeMedium(t, cvm.SoCal(1400, 1300, 1100, 400), d, 100)
	dt := m.StableDt(0.5)
	box := fd.FullBox(d)

	sRef := fillStateSeeded(d, 7)
	sFus := sRef.Clone()
	aRef := New(m, DefaultBand, dt)
	aFus := New(m, DefaultBand, dt)
	aRef.Origin = [3]int{3, 5, 7}
	aFus.Origin = aRef.Origin

	for step := 0; step < 4; step++ {
		fd.UpdateVelocity(sRef, m, dt, box, fd.Precomp, fd.Blocking{})
		fd.UpdateStress(sRef, m, dt, box, fd.Precomp, fd.Blocking{})
		aRef.Apply(sRef, m, dt, box)

		fd.UpdateVelocity(sFus, m, dt, box, fd.Blocked, fd.Blocking{})
		aFus.FusedStress(sFus, m, dt, box)
	}
	expectStatesEqual(t, sFus, sRef, "multi-step")
	expectMemVarsEqual(t, aFus, aRef, "multi-step")
}

// parityDims and parityBoxes are the grid and boxes of the sub-box parity
// tests: sub-boxes at odd offsets, and rows of 7, 8, 9, 16 and 17 cells —
// the vector body, the Go tail and both — from an even and an odd I0, so that
// under the even and odd x origins below both x parities of the mechanism
// table fall on the first lane of a vector chunk.
var parityDims = grid.Dims{NX: 20, NY: 10, NZ: 9}

var parityBoxes = []fd.Box{
	{I0: 3, I1: 10, J0: 1, J1: 8, K0: 2, K1: 7},
	{I0: 2, I1: 3, J0: 5, J1: 6, K0: 3, K1: 4},  // single point
	{I0: 0, I1: 20, J0: 7, J1: 8, K0: 0, K1: 9}, // single j-plane
	{I0: 2, I1: 10, J0: 1, J1: 8, K0: 2, K1: 7},
	{I0: 1, I1: 10, J0: 1, J1: 8, K0: 2, K1: 7},
	{I0: 2, I1: 11, J0: 3, J1: 6, K0: 0, K1: 9},
	{I0: 1, I1: 17, J0: 3, J1: 6, K0: 0, K1: 9},
	{I0: 2, I1: 19, J0: 0, J1: 10, K0: 4, K1: 6},
	{I0: 3, I1: 20, J0: 0, J1: 10, K0: 4, K1: 6},
}

var parityOrigins = [][3]int{{0, 0, 0}, {1, 0, 1}, {5, 9, 2}}

// Sub-boxes at odd offsets exercise the row parity tables — the Go body's
// two-entry table and the vector body's alternating lanes — against the
// per-point mechAt reference (applyPointwise).
func TestFusedStressSubBoxParity(t *testing.T) {
	testSubBoxParity(t, func(a *Model, s *fd.State, m *medium.Medium, dt float64, box fd.Box) {
		a.FusedStress(s, m, dt, box)
	})
}

// TestFusedStressGoBodyMatchesTwoPass holds FusedStress with no cell in the
// 8-lane body — all a host without AVX2 runs — to the two-pass reference on
// every host.
func TestFusedStressGoBodyMatchesTwoPass(t *testing.T) {
	testSubBoxParity(t, func(a *Model, s *fd.State, m *medium.Medium, dt float64, box fd.Box) {
		a.fusedStress(s, m, dt, box, 0)
	})
}

func testSubBoxParity(t *testing.T, fused func(*Model, *fd.State, *medium.Medium, float64, fd.Box)) {
	d := parityDims
	m := makeMedium(t, cvm.SoCal(2000, 1000, 900, 400), d, 100)
	dt := m.StableDt(0.5)
	for bi, box := range parityBoxes {
		for _, origin := range parityOrigins {
			label := fmt.Sprintf("box %v origin %v", box, origin)
			sRef := fillStateSeeded(d, int64(100+bi))
			sFus := sRef.Clone()
			aRef := New(m, DefaultBand, dt)
			aFus := New(m, DefaultBand, dt)
			aRef.Origin = origin
			aFus.Origin = origin
			fillMemVarsSeeded(aRef, int64(bi))
			fillMemVarsSeeded(aFus, int64(bi))

			fd.UpdateStress(sRef, m, dt, box, fd.Precomp, fd.Blocking{})
			applyPointwise(aRef, sRef, m, dt, box)
			fused(aFus, sFus, m, dt, box)

			expectStatesEqual(t, sFus, sRef, label)
			expectMemVarsEqual(t, aFus, aRef, label)
		}
	}
}

func TestFusedStressTiledBitIdentical(t *testing.T) {
	d := grid.Dims{NX: 14, NY: 17, NZ: 19}
	m := makeMedium(t, cvm.SoCal(1400, 1700, 1900, 400), d, 100)
	dt := m.StableDt(0.5)
	box := fd.FullBox(d)

	sRef := fillStateSeeded(d, 11)
	aRef := New(m, DefaultBand, dt)
	fd.UpdateStress(sRef, m, dt, box, fd.Precomp, fd.Blocking{})
	aRef.Apply(sRef, m, dt, box)

	for _, threads := range []int{1, 3, 8} {
		p := sched.NewPool(threads)
		s := fillStateSeeded(d, 11)
		a := New(m, DefaultBand, dt)
		a.FusedStressTiled(s, m, dt, box, fd.Blocking{JBlock: 4, KBlock: 4}, p)
		p.Close()
		expectStatesEqual(t, s, sRef, "tiled")
		expectMemVarsEqual(t, a, aRef, "tiled")
	}
}

func TestFusedStressDtMismatchPanics(t *testing.T) {
	d := grid.Dims{NX: 4, NY: 4, NZ: 4}
	m := makeMedium(t, cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}), d, 100)
	a := New(m, DefaultBand, 1e-3)
	s := fd.NewState(d)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.FusedStress(s, m, 2e-3, fd.FullBox(d))
}

// FuzzFusedStressMatchesTwoPass drives the fused kernel with random Q
// scatter (including Q<=0 points), random coarse-graining cell phase, random
// box offsets and filled memory variables, asserting exact equality against
// the two-pass reference on all wavefields and memory variables.
func FuzzFusedStressMatchesTwoPass(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(3), uint8(2), uint8(3), uint8(1), uint8(2))
	f.Add(int64(3), uint8(255), uint8(254), uint8(253), uint8(7), uint8(5), uint8(4))
	// Rows of 17, 16 and 9 cells with an odd x parity on the first lane (the
	// seeds above start their rows on an even one).
	f.Add(int64(4), uint8(0), uint8(2), uint8(1), uint8(3), uint8(0), uint8(2))
	f.Add(int64(5), uint8(1), uint8(0), uint8(0), uint8(4), uint8(2), uint8(1))
	f.Add(int64(6), uint8(2), uint8(3), uint8(2), uint8(11), uint8(4), uint8(3))
	d := grid.Dims{NX: 20, NY: 9, NZ: 8}

	f.Fuzz(func(t *testing.T, seed int64, ox, oy, oz, i0, j0, k0 uint8) {
		m := makeMedium(t, cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}), d, 100)
		// Random per-point Q scatter, with ~1/8 of points lossless.
		rng := rand.New(rand.NewSource(seed))
		qpd, qsd := m.QP.Data(), m.QS.Data()
		for n := range qpd {
			qs := rng.Float64() * 200
			if rng.Intn(8) == 0 {
				qs = 0
			}
			qsd[n] = float32(qs)
			qpd[n] = float32(2 * qs)
		}
		dt := m.StableDt(0.5)
		box := fd.Box{
			I0: int(i0) % d.NX, I1: d.NX,
			J0: int(j0) % d.NY, J1: d.NY,
			K0: int(k0) % d.NZ, K1: d.NZ,
		}
		origin := [3]int{int(ox), int(oy), int(oz)}

		sRef := fillStateSeeded(d, seed)
		sFus := sRef.Clone()
		aRef := New(m, DefaultBand, dt)
		aFus := New(m, DefaultBand, dt)
		aRef.Origin = origin
		aFus.Origin = origin
		fillMemVarsSeeded(aRef, seed)
		fillMemVarsSeeded(aFus, seed)

		fd.UpdateStress(sRef, m, dt, box, fd.Precomp, fd.Blocking{})
		applyPointwise(aRef, sRef, m, dt, box)
		aFus.FusedStress(sFus, m, dt, box)

		expectStatesEqual(t, sFus, sRef, "fuzz")
		expectMemVarsEqual(t, aFus, aRef, "fuzz")
	})
}
